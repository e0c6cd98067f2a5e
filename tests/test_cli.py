"""End-to-end command drivers: train, synthetic grid, analyze."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orbitnet.analysis import load_csv
from orbitnet.checkpoint import load_checkpoint, save_checkpoint
from orbitnet.cli import main
from orbitnet.config import RunConfig
from orbitnet.data import PatchTransform, synthesize_mnist_like
from orbitnet.train import (paper_transform_grid, resolve_dataset,
                            run_analysis, run_synthetic, run_training)

TINY = dict(num_layers=2, num_groups=2, group_order=2, filter_size=3,
            subset=64, epochs=2, batch_size=32, data_source="synthetic")


def tiny_config(tmp_path, **kwargs):
    params = dict(TINY, data_root=str(tmp_path / "data"),
                  out_dir=str(tmp_path / "run"))
    params.update(kwargs)
    return RunConfig(**params)


class TestResolveDataset:
    def test_synthetic_fallback_warns(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="synthetic"):
            ds = resolve_dataset("mnist", tmp_path, "auto")
        assert ds.images.shape[1:] == (1, 28, 28)

    def test_files_mode_never_falls_back(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_dataset("mnist", tmp_path, "files")

    def test_existing_files_win(self, tmp_path):
        synthesize_mnist_like(tmp_path, n_train=15, n_test=5, seed=1)
        ds = resolve_dataset("mnist", tmp_path, "auto")
        assert len(ds) == 15


class TestTraining:
    def test_zero_epochs_checkpoints_initialization(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0)
        out = run_training(cfg)
        assert (out / "final.ckpt").exists()
        assert (out / "metrics.jsonl").read_text() == ""
        arrays = load_checkpoint(out / "final.ckpt")
        assert "layers.0.groups.0.A" in arrays
        assert arrays["layers.0.groups.0.A"].shape == (9, 9)

    def test_metrics_schema_and_count(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = run_training(cfg)
        lines = [json.loads(line) for line in
                 (out / "metrics.jsonl").read_text().splitlines()]
        assert len(lines) == 2
        record = lines[0]
        assert record["epoch"] == 0
        assert np.isfinite(record["task_loss"])
        assert len(record["invertibility_residual_per_group"]) == 4
        assert len(record["order_defect_per_group"]) == 4
        timing = [json.loads(line) for line in
                  (out / "timing.jsonl").read_text().splitlines()]
        assert len(timing) == 2 and "seconds" in timing[0]

    def test_reconstruction_task_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, task="reconstruction", epochs=1)
        out = run_training(cfg)
        assert (out / "final.ckpt").exists()

    def test_metrics_are_reproducible(self, tmp_path):
        a = run_training(tiny_config(tmp_path, out_dir=str(tmp_path / "a")))
        b = run_training(tiny_config(tmp_path, out_dir=str(tmp_path / "b")))
        assert (a / "metrics.jsonl").read_bytes() == \
            (b / "metrics.jsonl").read_bytes()
        ca = load_checkpoint(a / "final.ckpt")
        cb = load_checkpoint(b / "final.ckpt")
        for name in ca:
            np.testing.assert_array_equal(ca[name], cb[name])

    def test_different_seed_changes_metrics(self, tmp_path):
        a = run_training(tiny_config(tmp_path, out_dir=str(tmp_path / "a")))
        b = run_training(tiny_config(tmp_path, out_dir=str(tmp_path / "b"),
                                     seed=1))
        assert (a / "metrics.jsonl").read_bytes() != \
            (b / "metrics.jsonl").read_bytes()

    def test_cli_entry_point(self, tmp_path):
        rc = main(["train", "--seed", "0", "--epochs", "1",
                   "--subset", "48", "--data-root", str(tmp_path / "d"),
                   "--data-source", "synthetic",
                   "--out", str(tmp_path / "run"),
                   "--config", str(self_config(tmp_path))])
        assert rc == 0
        assert (tmp_path / "run" / "final.ckpt").exists()
        saved = json.loads((tmp_path / "run" / "config.json").read_text())
        assert saved["subset"] == 48

    def test_invalid_cli_config_fails_before_work(self, tmp_path):
        with pytest.raises(ValueError, match="invalid configuration"):
            main(["train", "--epochs", "-3",
                  "--out", str(tmp_path / "bad")])
        assert not (tmp_path / "bad").exists()


# Records OPENBLAS_NUM_THREADS at the moment numpy is first imported, runs
# the CLI, then reads the thread count of the BLAS that numpy loaded, where
# that library exports its getter.
THREAD_PROBE = """
import ctypes, glob, json, os, sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy())
from orbitnet.cli import main
main(sys.argv[1:])
import numpy
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                    "numpy.libs", "libscipy_openblas64_*.so")
blas = [ctypes.CDLL(p).scipy_openblas_get_num_threads64_()
        for p in glob.glob(libs)]
print(json.dumps({"env_at_numpy_import": seen, "blas_threads": blas}))
"""


class TestThreads:
    @staticmethod
    def clean_env():
        return {k: v for k, v in os.environ.items()
                if not k.endswith("_NUM_THREADS")}

    def test_cli_import_loads_no_numpy(self):
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, orbitnet.cli; print('numpy' in sys.modules)"],
            env=self.clean_env(), capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_threads_flag_applies_before_numpy_loads(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, "train", "--threads", "1",
             "--epochs", "0", "--data-root", str(tmp_path / "d"),
             "--data-source", "synthetic", "--out", str(tmp_path / "run"),
             "--config", str(self_config(tmp_path))],
            env=self.clean_env(), capture_output=True, text=True, check=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        assert probe["env_at_numpy_import"] == ["1"]
        assert all(n == 1 for n in probe["blas_threads"])


def self_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(
        {"num_layers": 1, "num_groups": 1, "group_order": 2,
         "filter_size": 3, "batch_size": 16}))
    return path


class TestSyntheticCommand:
    def test_paper_grid_has_eleven_cells(self):
        assert len(paper_transform_grid()) == 11

    def test_single_cell_identity(self, tmp_path):
        # patch statistics are badly conditioned, so the gradient fit needs
        # room to converge; the closed form is exact regardless
        out = run_synthetic(
            tmp_path / "syn", data_root=tmp_path / "data",
            data_source="synthetic", num_pairs=1000, holdout=50,
            epochs=2000, lr=0.02,
            transforms=[PatchTransform.composition(radius=1, theta=0.0)])
        manifest = json.loads((out / "manifest.json").read_text())
        cell = manifest["cells"][0]
        assert cell["lstsq"]["rel_fro_err"] < 1e-6
        assert cell["gd"]["max_abs_err"] < 0.05
        a = load_csv(out / f"{cell['label']}_analytic.csv")
        np.testing.assert_allclose(a, np.eye(36), atol=1e-12)

    def test_config_flag_rejected(self, tmp_path, capsys):
        # the grid takes no RunConfig, so a config file would be ignored
        with pytest.raises(SystemExit):
            main(["synthetic", "--config", str(self_config(tmp_path)),
                  "--out", str(tmp_path / "syn")])
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "syn").exists()

    def test_rerun_same_seed_byte_identical_manifest(self, tmp_path):
        kwargs = dict(data_root=tmp_path / "data", data_source="synthetic",
                      num_pairs=120, holdout=30, epochs=3, seed=11,
                      transforms=[PatchTransform.pooling(3)])
        a = run_synthetic(tmp_path / "a", **kwargs)
        b = run_synthetic(tmp_path / "b", **kwargs)
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()


class TestAnalyzeCommand:
    def test_identity_checkpoint_reports_trivial_structure(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0)
        out = run_training(cfg)
        arrays = load_checkpoint(out / "final.ckpt")
        for name in arrays:
            if name.endswith((".A", ".A_tilde")):
                arrays[name] = np.eye(9)
        save_checkpoint(out / "final.ckpt", arrays)
        reports = run_analysis(out / "final.ckpt", tmp_path / "analysis")
        assert len(reports) == 4    # K*L for the tiny config
        for report in reports:
            assert report.skew == 0.0
            assert report.order_defect == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_array_equal(report.identity_probe, np.eye(3))
        index = json.loads((tmp_path / "analysis" / "index.json").read_text())
        assert len(index) == 4

    def test_injected_circulant_diagonalizes(self, tmp_path):
        from orbitnet.analysis import circulant_from_diagonal
        cfg = tiny_config(tmp_path, epochs=0)
        out = run_training(cfg)
        arrays = load_checkpoint(out / "final.ckpt")
        circ = circulant_from_diagonal(np.random.default_rng(0)
                                       .standard_normal(9))
        arrays["layers.0.groups.0.A"] = circ
        save_checkpoint(out / "final.ckpt", arrays)
        reports = run_analysis(out / "final.ckpt", tmp_path / "an2")
        target = [r for r in reports if r.layer == 0 and r.group == 0][0]
        assert target.dft_offdiag < 1e-10

    def test_expected_artifacts_exist(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=1)
        out = run_training(cfg)
        run_analysis(out / "final.ckpt", tmp_path / "an3")
        for stem in ("layer0_group0", "layer1_group1"):
            for suffix in ("_report.json", "_A.csv", "_A.pgm", "_probe.pgm",
                           "_dft.pgm"):
                assert (tmp_path / "an3" / f"{stem}{suffix}").exists()

    def test_checkpoint_version_guard(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0)
        out = run_training(cfg)
        blob = (out / "final.ckpt").read_bytes()
        (out / "final.ckpt").write_bytes(blob[:8] + b"\x09" + blob[9:])
        from orbitnet.checkpoint import CheckpointError
        with pytest.raises(CheckpointError, match="version"):
            run_analysis(out / "final.ckpt", tmp_path / "an4")

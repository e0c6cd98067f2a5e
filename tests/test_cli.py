"""End-to-end command drivers: train, synthetic grid, analyze."""

import argparse
import inspect
import json
import os
import subprocess
import sys
import types
import zlib
from dataclasses import asdict, fields

import numpy as np
import pytest

import orbitnet
from orbitnet import config, data
from orbitnet.analysis import load_csv, structure_report
from orbitnet.checkpoint import load_checkpoint, save_checkpoint
from orbitnet.cli import build_parser, main
from orbitnet.config import RunConfig, load_config
from orbitnet.groups import GroupAction
from orbitnet.tensor import Tensor
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

    def test_dataset_table_is_keyed_like_config(self):
        assert tuple(data.DATASET_IO) == config.DATASETS
        assert data.DATASET_IO["mnist"] == (
            data.load_mnist, data.synthesize_mnist_like, data.fetch_mnist)
        assert data.DATASET_IO["cifar10"] == (
            data.load_cifar10, data.synthesize_cifar10_like,
            data.fetch_cifar10)

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="'imagenet'"):
            resolve_dataset("imagenet", tmp_path, "synthetic")
        assert not any(tmp_path.iterdir())

    def test_unknown_source_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="'bogus'"):
            resolve_dataset("mnist", tmp_path, "bogus")
        assert not any(tmp_path.iterdir())

    def test_synthetic_stand_in_is_written_once(self, tmp_path):
        first = resolve_dataset("cifar10", tmp_path, "synthetic")
        stamp = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.bin")}
        second = resolve_dataset("cifar10", tmp_path, "synthetic", "test")
        assert second.images.shape[1:] == first.images.shape[1:]
        assert {p: p.stat().st_mtime_ns
                for p in tmp_path.rglob("*.bin")} == stamp


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

    def test_timing_records_peak_memory(self, tmp_path):
        out = run_training(tiny_config(tmp_path))
        timing = [json.loads(line) for line in
                  (out / "timing.jsonl").read_text().splitlines()]
        assert len(timing) == 2
        assert all(t["peak_rss_mb"] > 0 for t in timing)
        assert "peak_rss_mb" not in (out / "metrics.jsonl").read_text()

    def test_peak_memory_excludes_the_parent_process(self, tmp_path):
        # Linux carries ru_maxrss over from the parent across exec
        ballast = np.ones(320 * 2 ** 20 // 8)
        subprocess.run(
            [sys.executable, "-m", "orbitnet.cli", "train", "--epochs", "2",
             "--subset", "32", "--data-root", str(tmp_path / "d"),
             "--data-source", "synthetic", "--out", str(tmp_path / "run"),
             "--config", str(self_config(tmp_path))],
            capture_output=True, check=True)
        del ballast
        timing = [json.loads(line) for line in
                  (tmp_path / "run" / "timing.jsonl").read_text().splitlines()]
        assert len(timing) == 2
        assert all(t["peak_rss_mb"] < 300 for t in timing)

    def test_non_finite_step_names_epoch_batch_and_parameter(
            self, tmp_path, monkeypatch):
        import orbitnet.train as train
        real = train.resolve_dataset

        def with_nan(*args, **kwargs):
            dataset = real(*args, **kwargs)
            dataset.images = np.full(dataset.images.shape, np.nan)
            return dataset
        monkeypatch.setattr(train, "resolve_dataset", with_nan)
        with pytest.raises(FloatingPointError,
                           match=r"^epoch 0, batch 0: non-finite gradient "
                                 r"for 'layers\.0\.A'"):
            run_training(tiny_config(tmp_path))

    def test_filter_larger_than_images_fails_before_the_logs(self, tmp_path):
        # 28x28 MNIST stand-in: the conv would reject the kernel at step one
        with pytest.raises(ValueError, match=r"filter_size 29 .* 28x28"):
            run_training(tiny_config(tmp_path, filter_size=29))
        assert not (tmp_path / "run" / "metrics.jsonl").exists()
        assert not (tmp_path / "run" / "timing.jsonl").exists()

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

    @pytest.mark.parametrize("command", [
        ["train", "--out", "run"], ["analyze", "final.ckpt", "--out", "an"]])
    def test_non_object_config_file_rejected(self, tmp_path, command):
        path = tmp_path / "list.json"
        path.write_text('["tied"]')
        out = tmp_path / command[-1]
        command = command[:-1] + [str(out), "--config", str(path)]
        with pytest.raises(ValueError, match=r"invalid configuration: "
                                             r".*list\.json.* JSON array"):
            main(command)
        assert not out.exists()


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
        # numpy waits for --threads; only fetching needs the download,
        # archive and hash modules
        cases = [("orbitnet.cli", "numpy"),
                 ("orbitnet.train, orbitnet.analysis", "urllib.request"),
                 ("orbitnet.train, orbitnet.analysis", "tarfile"),
                 ("orbitnet.train, orbitnet.analysis", "hashlib")]
        for modules, forbidden in cases:
            probe = f"import sys, {modules}; print({forbidden!r} in " \
                    "sys.modules)"
            out = subprocess.run(
                [sys.executable, "-c", probe],
                env=self.clean_env(), capture_output=True, text=True,
                check=True)
            assert out.stdout.strip() == "False", (modules, forbidden)

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
        assert "not pinned" not in out.stderr


def subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParser:
    def test_choices_are_the_config_vocabularies(self):
        vocabularies = [config.DATASETS, config.TASKS, config.LOSS_VARIANTS,
                        config.PRECISIONS, config.DATA_SOURCES]
        seen = []
        for name, parser in subparsers().items():
            for action in parser._actions:
                if action.choices is not None:
                    assert any(action.choices is v for v in vocabularies), \
                        (name, action.option_strings)
                    seen.append(action.choices)
        assert all(any(c is v for c in seen) for v in vocabularies)

    @pytest.mark.parametrize("command", [
        ["train"], ["synthetic"], ["analyze", "final.ckpt", "--out", "an"]])
    def test_threads_below_one_rejected(self, command, capsys):
        for value in ("0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--threads", value])
            assert "1 or more" in capsys.readouterr().err
        args = build_parser().parse_args(command + ["--threads", "2"])
        assert args.threads == 2

    def test_train_options_are_config_fields(self):
        # every RunConfig field has exactly one train flag, and nothing else
        names = [f.name for f in fields(RunConfig)]
        flags = {}
        for action in subparsers()["train"]._actions:
            if action.dest not in ("help", "config", "threads"):
                assert action.dest in names, action.option_strings
                assert action.dest not in flags, action.option_strings
                flags[action.dest] = action.option_strings
        assert sorted(flags) == sorted(names)
        assert flags.pop("out_dir") == ["--out"]
        assert flags == {name: ["--" + name.replace("_", "-")]
                         for name in flags}

    def test_train_flags_reach_the_config_typed(self):
        args = build_parser().parse_args(
            ["train", "--num-layers", "2", "--num-groups", "3",
             "--group-order", "1", "--filter-size", "5", "--alpha", "0.5",
             "--mu", "0", "--task", "reconstruction", "--out", "o"])
        cfg = load_config(None, vars(args))
        assert (cfg.num_layers, cfg.num_groups, cfg.group_order,
                cfg.filter_size, cfg.alpha, cfg.mu, cfg.task, cfg.out_dir) == \
            (2, 3, 1, 5, 0.5, 0.0, "reconstruction", "o")
        assert type(cfg.num_groups) is int and type(cfg.alpha) is float

    def test_synthetic_defaults_are_run_synthetic_defaults(self, monkeypatch):
        import orbitnet.train as train
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)   # restored after --threads
        calls = []
        monkeypatch.setattr(train, "run_synthetic",
                            lambda **kw: calls.append(kw) or "out")
        main(["synthetic"])
        # numpy is loaded in this process, so --threads cannot take effect
        with pytest.warns(RuntimeWarning, match="thread count is not pinned"):
            main(["synthetic", "--no-gd", "--out", "o", "--seed", "2",
                  "--threads", "1"])
        assert calls == [{}, {"run_gd": False, "out_dir": "o", "seed": 2}]
        defaults = {k: p.default for k, p in
                    inspect.signature(run_synthetic).parameters.items()}
        assert defaults == {
            "out_dir": "runs/synthetic", "data_root": "data",
            "data_source": "auto", "seed": 0, "num_pairs": 10000,
            "holdout": 1000, "epochs": 200, "lr": 0.01, "transforms": None,
            "run_gd": True, "dataset": "cifar10", "save_pairs": False}


def test_package_re_exports_nothing():
    assert not hasattr(orbitnet, "__getattr__")
    assert [name for name, value in vars(orbitnet).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)] == []


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

    def test_save_pairs_writes_the_training_pairs(self, tmp_path):
        from orbitnet.data import load_pairs_csv, transform_pair_dataset
        transform = PatchTransform.pooling(3)
        label = transform.label()
        out = run_synthetic(tmp_path / "syn", data_root=tmp_path / "data",
                            data_source="synthetic", num_pairs=40, holdout=10,
                            seed=5, transforms=[transform], run_gd=False,
                            save_pairs=True)
        ds = resolve_dataset("cifar10", tmp_path / "data", "synthetic")
        rng = np.random.default_rng((5, zlib.crc32(label.encode())))
        xs, ys = transform_pair_dataset(ds.images, transform, 50, rng)
        got_x, got_y = load_pairs_csv(out / f"{label}_pairs.csv")
        np.testing.assert_array_equal(got_x, xs[:40])
        np.testing.assert_array_equal(got_y, ys[:40])

    @pytest.mark.parametrize("option, value", [
        ("num_pairs", 0), ("num_pairs", -5), ("holdout", 0), ("epochs", -3),
        ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf"))])
    def test_unusable_argument_rejected(self, tmp_path, option, value):
        with pytest.raises(ValueError, match=rf"^{option} "):
            run_synthetic(tmp_path / "syn", data_root=tmp_path / "data",
                          data_source="synthetic", **{option: value})
        assert not (tmp_path / "syn").exists()

    def test_negative_lr_flag_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^lr "):
            main(["synthetic", "--lr", "-1", "--data-source", "synthetic",
                  "--data-root", str(tmp_path / "data"),
                  "--out", str(tmp_path / "syn")])
        assert not (tmp_path / "syn").exists()

    def test_config_flag_rejected(self, tmp_path, capsys):
        # the grid takes no RunConfig, so a config file would be ignored
        with pytest.raises(SystemExit):
            main(["synthetic", "--config", str(self_config(tmp_path)),
                  "--out", str(tmp_path / "syn")])
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "syn").exists()

    def test_default_grid_writes_each_result_once(self, tmp_path):
        kwargs = dict(data_root=tmp_path / "data", data_source="synthetic",
                      num_pairs=40, holdout=10, epochs=2)
        stems = [f"{t.label()}_{fit}" for t in paper_transform_grid()
                 for fit in ("analytic", "lstsq", "gd")]
        expected = {f"{stem}.{ext}" for stem in stems
                    for ext in ("csv", "pgm")} | {"manifest.json"}
        assert len(expected) == 67
        out = run_synthetic(tmp_path / "syn", **kwargs)
        assert {p.name for p in out.iterdir()} == expected
        out = run_synthetic(tmp_path / "pairs", save_pairs=True, **kwargs)
        pairs = {f"{t.label()}_pairs.csv" for t in paper_transform_grid()}
        assert len(expected | pairs) == 78
        assert {p.name for p in out.iterdir()} == expected | pairs

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
        saved = (tmp_path / "analysis" / "reports.json").read_text()
        assert json.loads(saved) == [asdict(r) for r in reports]

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
        reports = run_analysis(out / "final.ckpt", tmp_path / "an3")
        expected = {f"layer{li}_group{k}{suffix}"
                    for li in range(2) for k in range(2)
                    for suffix in ("_A.csv", "_A.pgm", "_probe.pgm",
                                   "_dft.pgm")} | {"reports.json"}
        assert len(expected) == 4 * 4 + 1
        assert {p.name for p in (tmp_path / "an3").iterdir()} == expected
        saved = json.loads((tmp_path / "an3" / "reports.json").read_text())
        assert [(r["layer"], r["group"]) for r in saved] == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert saved == [asdict(r) for r in reports]

    def trained_run(self, tmp_path, **kwargs):
        out = run_training(tiny_config(tmp_path, epochs=1, **kwargs))
        return out, json.loads((out / "config.json").read_text())

    def analyze_with(self, tmp_path, out, saved, **changes):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(saved, **changes)))
        return lambda: run_analysis(out / "final.ckpt", tmp_path / "an",
                                    path)

    @pytest.mark.parametrize("changes", [{"num_groups": 1},
                                         {"num_layers": 1}])
    def test_smaller_config_names_the_extra_tensors(self, tmp_path, changes):
        out, saved = self.trained_run(tmp_path)
        extra = ("layers.0.groups.1.A" if "num_groups" in changes
                 else "layers.1.groups.0.A")
        analyze = self.analyze_with(tmp_path, out, saved, **changes)
        with pytest.raises(ValueError, match=extra.replace(".", r"\.")):
            analyze()
        assert not (tmp_path / "an").exists()

    def test_larger_config_names_the_missing_tensor(self, tmp_path):
        out, saved = self.trained_run(tmp_path)
        analyze = self.analyze_with(tmp_path, out, saved, num_groups=3)
        with pytest.raises(KeyError, match=r"layers\.0\.groups\.2\.A"):
            analyze()
        assert not (tmp_path / "an").exists()

    def test_missing_first_basis_names_the_tensor_and_path(self, tmp_path):
        out, _ = self.trained_run(tmp_path)
        arrays = load_checkpoint(out / "final.ckpt")
        del arrays["layers.0.bases.0"]
        save_checkpoint(out / "final.ckpt", arrays)
        with pytest.raises(KeyError) as err:
            run_analysis(out / "final.ckpt", tmp_path / "an")
        assert str(out / "final.ckpt") in str(err.value)
        assert "missing tensors ['layers.0.bases.0']" in str(err.value)
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("name, value", [
        ("layers.1.groups.0.A", np.nan), ("layers.0.bases.1", np.inf),
        ("bn.0.running_var", -np.inf)])
    def test_non_finite_tensor_names_the_tensor_and_path(self, tmp_path,
                                                         name, value):
        out, _ = self.trained_run(tmp_path)
        arrays = load_checkpoint(out / "final.ckpt")
        arrays[name].flat[0] = value
        save_checkpoint(out / "final.ckpt", arrays)
        with pytest.raises(ValueError) as err:
            run_analysis(out / "final.ckpt", tmp_path / "an")
        assert str(out / "final.ckpt") in str(err.value)
        assert f"non-finite tensors [{name!r}]" in str(err.value)
        assert not (tmp_path / "an").exists()

    def test_invalid_config_rejected(self, tmp_path):
        out, saved = self.trained_run(tmp_path)
        analyze = self.analyze_with(tmp_path, out, saved, epochs=-5)
        with pytest.raises(ValueError, match="invalid configuration"):
            analyze()
        assert not (tmp_path / "an").exists()

    def test_config_with_the_retired_keys_still_analyses(self, tmp_path):
        # config.json files written before squared_frobenius, one_sided and
        # tied were retired name them, at the value every run used
        out, saved = self.trained_run(tmp_path)
        reports = run_analysis(out / "final.ckpt", tmp_path / "now")
        analyze = self.analyze_with(tmp_path, out, saved,
                                    squared_frobenius=False, one_sided=True,
                                    tied=False)
        assert [asdict(r) for r in analyze()] == \
            [asdict(r) for r in reports]

    @pytest.mark.parametrize("key, value", [("squared_frobenius", True),
                                            ("one_sided", False),
                                            ("tied", True)])
    def test_retired_key_at_another_value_rejected(self, tmp_path, key,
                                                   value):
        out, saved = self.trained_run(tmp_path)
        analyze = self.analyze_with(tmp_path, out, saved, **{key: value})
        with pytest.raises(ValueError, match=key):
            analyze()
        assert not (tmp_path / "an").exists()

    def test_analyze_command_prints_one_line_per_group(self, tmp_path,
                                                       capsys):
        out, _ = self.trained_run(tmp_path)
        reports = run_analysis(out / "final.ckpt", tmp_path / "direct")
        capsys.readouterr()
        assert main(["analyze", str(out / "final.ckpt"),
                     "--out", str(tmp_path / "an")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == \
            [f"layer {r.layer} group {r.group}" for r in reports]
        assert len(lines) == 4    # K*L for the tiny config
        assert f"skew={reports[-1].skew:.3f} " in lines[-1]

    def test_float32_run_is_analysed_in_float64(self, tmp_path):
        out, saved = self.trained_run(tmp_path, precision="float32")
        reports = run_analysis(out / "final.ckpt", tmp_path / "an32")
        self.analyze_with(tmp_path, out, saved, precision="float64")()
        files = sorted(p.name for p in (tmp_path / "an").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "an32").iterdir())
        for name in files:
            assert (tmp_path / "an" / name).read_bytes() == \
                (tmp_path / "an32" / name).read_bytes(), name
        arrays = load_checkpoint(out / "final.ckpt")
        expected = []
        for li in range(2):
            stacks = [np.stack([arrays[f"layers.{li}.groups.{k}.{name}"]
                                for k in range(2)])
                      for name in ("A", "A_tilde")]
            action = GroupAction(Tensor(stacks[0]), Tensor(stacks[1]), 2, 3, 3)
            expected += structure_report(action, li)
        assert [asdict(r) for r in reports] == \
            [asdict(r) for r in expected]

    def test_float32_run_logs_the_analysed_diagnostics(self, tmp_path):
        out, _ = self.trained_run(tmp_path, precision="float32",
                                  dataset="cifar10")
        reports = run_analysis(out / "final.ckpt", tmp_path / "an")
        last = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        assert last["invertibility_residual_per_group"] == \
            [r.invertibility_residual for r in reports]
        assert last["order_defect_per_group"] == \
            [r.order_defect for r in reports]

    def test_one_report_and_one_svd_per_unique_layer(self, tmp_path,
                                                     monkeypatch):
        from orbitnet import groups, train
        out, _ = self.trained_run(tmp_path, num_layers=3)
        calls = {"report": [], "svd": []}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(train, "structure_report",
                            spy("report", train.structure_report))
        monkeypatch.setattr(groups, "jacobi_svd",
                            spy("svd", groups.jacobi_svd))
        reports = run_analysis(out / "final.ckpt", tmp_path / "an")
        assert len(reports) == 6
        assert [args[0].a.shape for args in calls["report"]] == [(2, 9, 9)] * 3
        assert [args[0].shape for args in calls["svd"]] == [(2, 9, 9)] * 3

    def test_free_filter_run_trains_and_analyses(self, tmp_path, capsys):
        # group_order = 1: no generators to checkpoint, log or analyse
        run = tmp_path / "run"
        assert main(["train", "--group-order", "1", "--num-layers", "2",
                     "--num-groups", "2", "--filter-size", "3",
                     "--epochs", "2", "--subset", "64",
                     "--data-source", "synthetic",
                     "--data-root", str(tmp_path / "d"),
                     "--out", str(run)]) == 0
        names = load_checkpoint(run / "final.ckpt")
        assert "layers.1.bases.1" in names
        assert not any(".groups." in name for name in names)
        records = [json.loads(line) for line in
                   (run / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert np.isfinite(record["task_loss"])
            assert record["invertibility_residual_per_group"] == []
            assert record["order_defect_per_group"] == []
        capsys.readouterr()
        assert main(["analyze", str(run / "final.ckpt"),
                     "--out", str(tmp_path / "an")]) == 0
        assert capsys.readouterr().out == ""
        assert [p.name for p in (tmp_path / "an").iterdir()] == \
            ["reports.json"]
        assert json.loads((tmp_path / "an" / "reports.json").read_text()) \
            == []

    def test_checkpoint_version_guard(self, tmp_path):
        cfg = tiny_config(tmp_path, epochs=0)
        out = run_training(cfg)
        blob = (out / "final.ckpt").read_bytes()
        (out / "final.ckpt").write_bytes(blob[:8] + b"\x09" + blob[9:])
        from orbitnet.checkpoint import CheckpointError
        with pytest.raises(CheckpointError, match="version"):
            run_analysis(out / "final.ckpt", tmp_path / "an4")

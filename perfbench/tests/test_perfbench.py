"""Smoke test of the benchmark at tiny size; not a timing gate.

Runs every workload untraced and traced through `perfbench/run.py`, and
checks that each metric BENCHMARK.json names comes out with its unit, that
the output checks and the training-loop check pass, and that each layer
reports work on the workloads that exercise it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def test_every_named_metric_is_produced(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--tiny", "--seconds", "0.2",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = json.loads(out.read_text())
    assert results["training_loop_check"] == "pass"
    assert results["environment"]["src_lines"] > 0
    assert set(results["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, runs in results["workloads"].items():
        for trace, kind in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            run = runs[trace]
            assert run["correct"] and run["failed"] == 0, (name, trace)
            assert run["attempted"] >= 1
            assert set(run["metrics"]) == {m["name"] for m in spec[kind]}
            for m in spec[kind]:
                entry = run["metrics"][m["name"]]
                assert entry["unit"] == m["unit"]
                assert math.isfinite(entry["value"]), (name, m["name"])
                if kind == "end_to_end":
                    assert entry["value"] > 0, (name, m["name"])

    def layer(workload, metric):
        return results["workloads"][workload]["trace1"]["metrics"][
            metric]["value"]

    for workload in ("train_ref", "train_cifar_f32"):
        for metric in ("conv.same_calls", "conv.adjoint_calls",
                       "conv.macs_per_step", "conv.bwd_ms",
                       "tensor.backward_ms", "network.forward_ms",
                       "groups.penalty_ms", "optim.adam_step_ms",
                       "data.load_s"):
            assert layer(workload, metric) > 0, (workload, metric)
        assert layer(workload, "data.pairs_s") == 0
        assert layer(workload, "svd.calls") == 0
    for metric in ("svd.calls", "data.pairs_s", "data.operator_ms",
                   "probe.lstsq_ms", "probe.gd_ms_per_epoch",
                   "analysis.report_ms", "analysis.export_ms",
                   "checkpoint.load_ms", "train.run_synthetic_s",
                   "train.run_analysis_s"):
        assert layer("figures", metric) > 0, metric
    assert layer("figures", "conv.same_calls") == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out",
                                                  "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_ref",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

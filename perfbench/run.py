"""orbitnet benchmark: closed-loop workloads with end-to-end and per-layer metrics.

One workload, in this process:

    python3 perfbench/run.py --workload train_ref --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the `end_to_end` ones in BENCHMARK.json, with `--trace 1` the
`per_layer` ones; the lines before it print each metric with its unit and
sample count. Exit status is 0 only when every unit ran and passed its
output checks.

Every workload, each in a fresh process, untraced and then traced, plus
the check that the benchmark's training loop is `orbitnet train`'s loop:

    python3 perfbench/run.py [--seed 0] [--seconds 30] [--out FILE]

This prints a summary table and writes the results with the environment
(numpy and BLAS versions, CPU count, thread settings, git revision and
`src/` line count) to FILE, by default perfbench/out/results.json.

Run it from the repository root; it imports orbitnet from `src/`.
"""

import os
import sys
import time

_START = time.perf_counter()

# Before numpy is imported anywhere: BLAS pools read these once, at load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import orbitnet from this checkout's `src/`, or exit with status 2."""
    package = ROOT / "src" / "orbitnet" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a "
              f"checkout of the orbitnet repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import orbitnet
    if Path(orbitnet.__file__).resolve() != package.resolve():
        print(f"error: imported orbitnet from {orbitnet.__file__}, not from "
              f"this checkout", file=sys.stderr)
        sys.exit(2)


def git_revision():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src" / "orbitnet"
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": git_revision(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.glob("*.py"))),
    }


# -- one workload ---------------------------------------------------------------

def closed_loop(workload, seconds, tracer):
    """Run units back to back until `seconds` have passed.

    When tracing, even-numbered units are traced and odd ones are not, so
    the same run measures the tracing overhead; it then runs at least two.
    """
    units = []
    start = time.perf_counter()
    least = 2 if tracer else 1
    while len(units) < least or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(units) % 2 == 0
        arg = workload.prepare()
        out, problems = None, []
        if traced:
            tracer.install(len(units))
        t0 = time.perf_counter()
        try:
            out = (tracer.call("step", workload.run, arg) if traced
                   else workload.run(arg))
        except Exception:
            problems.append(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if out is not None:
            try:
                problems = workload.check(out)
            except Exception:
                problems.append(traceback.format_exc())
        for problem in problems:
            print(f"unit {len(units)} failed: {problem}", file=sys.stderr)
        units.append({"seconds": elapsed, "traced": traced,
                      "failed": bool(problems),
                      "images": (out or {}).get("images", 0),
                      "phases": (out or {}).get("phases", {})})
    return units


def peak_rss_mb():
    """Peak resident set size of this process image, in MiB.

    Linux carries `ru_maxrss` over from the parent across exec, so a large
    caller would set a floor under it; VmHWM starts afresh at exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(units, setup_s):
    times = [u["seconds"] for u in units]
    values = {
        "setup_s": setup_s,
        "step_ms_p50": 1e3 * median(times),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": SETUP_REPEATS, "step_ms_p50": len(times),
               "peak_rss_mb": 1}
    extra = {}
    if len(times) >= 100:
        extra["step_ms_p90"] = (1e3 * statistics.quantiles(times, n=10)[-1],
                                "ms", len(times))
    images = sum(u["images"] for u in units)
    if images:
        extra["images_per_s"] = (images / sum(times), "1/s", len(times))
    for phase in ("grid_s", "analyze_s"):
        phase_times = [u["phases"][phase] for u in units if u["phases"]]
        if phase_times:
            extra[phase] = (median(phase_times), "s", len(phase_times))
    return values, samples, extra


def per_layer(units, tracer, gd_epochs):
    import spans
    steps = [i for i, u in enumerate(units) if u["traced"]]
    by_step = spans.step_spans(tracer.spans, steps)
    indices = [j for s in steps for j in by_step[s]]
    table = spans.self_times(tracer.spans, indices)
    n = len(steps)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0] / n

    def seconds(name):
        return table.get(name, (0, 0.0, 0.0))[1] / n

    def info_sum(names, key):
        return sum((tracer.spans[j][spans.INFO] or {}).get(key, 0)
                   for j in indices if tracer.spans[j][spans.NAME] in names) / n

    conv = ("conv.same", "conv.adjoint")
    conv_fwd_s = seconds("conv.same") + seconds("conv.adjoint")
    macs = info_sum(conv, "macs")
    pairs = info_sum(("data.pairs",), "pairs")
    loads = [s[spans.END] - s[spans.START] for s in tracer.spans
             if s[spans.NAME] == "data.load"]
    uncovered = []
    for s in steps:
        _, incl, own = spans.self_times(tracer.spans, by_step[s])["step"]
        uncovered.append(own / incl)
    traced = [u["seconds"] for u in units if u["traced"]]
    untraced = [u["seconds"] for u in units if not u["traced"]]
    values = {
        "tensor.backward_ms": 1e3 * seconds("tensor.backward"),
        "tensor.soft_threshold_ms": 1e3 * seconds("tensor.soft_threshold"),
        "conv.same_calls": calls("conv.same"),
        "conv.adjoint_calls": calls("conv.adjoint"),
        "conv.macs_per_step": macs,
        "conv.bytes_per_step": info_sum(conv, "bytes"),
        "conv.same_fwd_ms": 1e3 * seconds("conv.same"),
        "conv.adjoint_fwd_ms": 1e3 * seconds("conv.adjoint"),
        "conv.bwd_ms": 1e3 * seconds("conv.bwd"),
        "conv.gmac_per_s": macs / conv_fwd_s / 1e9 if conv_fwd_s else 0.0,
        "network.forward_ms": 1e3 * seconds("network.forward"),
        "network.weight_bank_ms": 1e3 * seconds("network.weight_bank"),
        "network.bn_ms": 1e3 * seconds("network.bn"),
        "groups.penalty_ms": 1e3 * seconds("groups.penalty"),
        "svd.calls": calls("svd.jacobi"),
        "svd.ms_per_call": (1e3 * seconds("svd.jacobi") / calls("svd.jacobi")
                            if calls("svd.jacobi") else 0.0),
        "optim.adam_step_ms": 1e3 * seconds("optim.adam_step"),
        "data.load_s": median(loads),
        "data.pairs_s": seconds("data.pairs"),
        "data.pairs_per_s": (pairs / seconds("data.pairs")
                             if seconds("data.pairs") else 0.0),
        "data.operator_ms": 1e3 * seconds("data.operator"),
        "probe.lstsq_ms": 1e3 * seconds("probe.lstsq"),
        "probe.gd_ms_per_epoch": (1e3 * seconds("probe.gd")
                                  / (calls("probe.gd") * gd_epochs)
                                  if calls("probe.gd") else 0.0),
        "analysis.report_ms": 1e3 * seconds("analysis.report"),
        "analysis.export_ms": 1e3 * seconds("analysis.export"),
        "checkpoint.load_ms": 1e3 * seconds("checkpoint.load"),
        "train.run_synthetic_s": seconds("train.run_synthetic"),
        "train.run_analysis_s": seconds("train.run_analysis"),
        "trace.step_ms_p50": 1e3 * median(traced),
        "trace.overhead_ms": 1e3 * (median(traced) - median(untraced)),
        "trace.uncovered_frac": median(uncovered),
    }
    samples = {name: n for name in values}
    samples["data.load_s"] = len(loads)
    samples["trace.overhead_ms"] = len(untraced) + len(traced)
    extra = {}
    grid = [(u["traced"], u["phases"]["grid_s"]) for u in units
            if u["phases"]]
    if grid:
        extra["trace.grid_overhead_s"] = (
            median([g for t, g in grid if t])
            - median([g for t, g in grid if not t]), "s", len(grid))
    summary = {name: {"calls_per_step": c / n, "incl_ms_per_step": 1e3 * i / n,
                      "self_ms_per_step": 1e3 * o / n}
               for name, (c, i, o) in sorted(table.items())}
    return values, samples, extra, summary


def exact(value):
    """Counts that came out whole are printed as integers."""
    return int(value) if float(value).is_integer() else value


def run_workload(args):
    import_program()
    import spans
    import workloads
    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(f"orbitnet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))

    workdir = HERE / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir,
                                  tiny=args.tiny)
        tracer = spans.Tracer() if args.trace else None
        setups = []
        if tracer:
            tracer.install("setup")
        try:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            workload.warm_up()
            warm_up_s = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        units = closed_loop(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        gd_epochs = workloads.SIZES[args.tiny]["gd_epochs"]
        values, samples, extra, summary = per_layer(units, tracer, gd_epochs)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace_{args.workload}_s{args.seed}.json"
        tracer.write(path, summary)
        print(f"spans: {len(tracer.spans)} written to "
              f"{path.relative_to(ROOT)}")
        print(f"  {'span':24} {'calls/step':>10} {'incl ms':>10} "
              f"{'self ms':>10}")
        for name, row in summary.items():
            print(f"  {name:24} {row['calls_per_step']:10.4g} "
                  f"{row['incl_ms_per_step']:10.4g} "
                  f"{row['self_ms_per_step']:10.4g}")
    else:
        values, samples, extra = end_to_end(
            units, import_s + statistics.median(setups) + warm_up_s)
    failed = sum(u["failed"] for u in units)
    extra["fail_frac"] = (failed / len(units), "frac", len(units))

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = (exact(values[name]) if entry["unit"] in ("count", "B")
                 else values[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"  {name:26} {values[name]:14.6g} {entry['unit']:8} "
              f"(n={samples[name]})")
    for name, (value, unit, count) in extra.items():
        print(f"  {name:26} {value:14.6g} {unit:8} (n={count})")
    correct = failed == 0
    print("detail " + json.dumps({"samples": samples, "extra": extra,
                                  "import_s": import_s, "setups_s": setups,
                                  "warm_up_s": warm_up_s}))
    print(json.dumps({"correct": correct, "attempted": len(units),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


# -- every workload ----------------------------------------------------------------

def run_child(args, name, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "returncode": proc.returncode}
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail "):
            result.update(json.loads(line[len("detail "):]))
    result["returncode"] = proc.returncode
    return result


def run_all(args):
    import_program()
    import workloads
    results = {"seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
               "environment": environment(), "workloads": {}}
    workdir = HERE / "work" / f"loopcheck-{os.getpid()}"
    try:
        loop_problems = workloads.check_training_loop(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in loop_problems:
        print(f"loop check failed: {problem}", file=sys.stderr)
    results["training_loop_check"] = "fail" if loop_problems else "pass"

    for name in workloads.WORKLOADS:
        runs = {f"trace{t}": run_child(args, name, t) for t in (0, 1)}
        results["workloads"][name] = runs

    print(f"\n{'workload':16} {'metric':26} {'value':>14} {'unit':8} n")
    ok = not loop_problems
    for name, runs in results["workloads"].items():
        for run in runs.values():
            ok = ok and run["correct"] and run["returncode"] == 0
            for metric, entry in run.get("metrics", {}).items():
                print(f"{name:16} {metric:26} {entry['value']:14.6g} "
                      f"{entry['unit']:8} {run['samples'][metric]}")
            for metric, (value, unit, count) in run.get("extra",
                                                        {}).items():
                print(f"{name:16} {metric:26} {value:14.6g} {unit:8} "
                      f"{count}")
    print(f"training loop check: {results['training_loop_check']}")
    out = Path(args.out) if args.out else HERE / "out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="train_ref, train_cifar_f32, figures or all "
                             "(default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and network, for the smoke test")
    parser.add_argument("--out", default=None,
                        help="results file of a run of every workload")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Heavy imports happen inside the command handlers so that thread-count
environment variables set by --threads take effect before the numerics
libraries initialize their thread pools.
"""

import argparse
import os
import sys
import warnings
from dataclasses import fields

from .config import CHOICES, DATA_SOURCES, DATASETS, RunConfig, load_config


def _thread_count(text):
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be a count of 1 or more, got {text!r}")
    return count


def _add_common(parser):
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory")
    parser.add_argument("--data-root")
    parser.add_argument("--data-source", choices=DATA_SOURCES)
    parser.add_argument("--threads", type=_thread_count,
                        help="cap BLAS/OpenMP threads (1 = deterministic "
                             "single-threaded mode)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitnet",
        description="train, probe, and analyze group-structured unfolded "
                    "networks")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a network and checkpoint it")
    _add_common(train)
    train.add_argument("--config", help="JSON file with RunConfig fields")
    # every other RunConfig field is one flag, named after the field
    common = {action.dest for action in train._actions}
    for f in fields(RunConfig):
        if f.name not in common:
            train.add_argument("--" + f.name.replace("_", "-"), type=f.type,
                               choices=CHOICES.get(f.name))

    # unset options stay out of args, so run_synthetic's defaults apply
    synth = sub.add_parser("synthetic", argument_default=argparse.SUPPRESS,
                           help="fit linear patch transforms over the "
                                "rotation/pooling/composition grid")
    _add_common(synth)
    synth.add_argument("--dataset", choices=DATASETS)
    synth.add_argument("--num-pairs", type=int)
    synth.add_argument("--epochs", type=int,
                       help="gradient-descent epochs per cell (0 skips the "
                            "gradient fit)")
    synth.add_argument("--lr", type=float)
    synth.add_argument("--save-pairs", action="store_true",
                       help="persist each cell's training pairs as CSV "
                            "(36 input + 36 target columns per row)")

    analyze = sub.add_parser("analyze",
                             help="structure reports for a checkpoint")
    analyze.add_argument("checkpoint")
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--config",
                         help="config.json (defaults to the checkpoint's "
                              "sibling)")
    analyze.add_argument("--threads", type=_thread_count)

    fetch = sub.add_parser("fetch", help="download dataset archives")
    fetch.add_argument("--dataset", choices=DATASETS, required=True)
    fetch.add_argument("--data-root", default="data")
    return parser


def _set_threads(count):
    if count is None:
        return
    if "numpy" in sys.modules:
        warnings.warn("--threads came after numpy loaded: the BLAS thread "
                      "count is not pinned", RuntimeWarning, stacklevel=3)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


def cmd_train(args):
    from .train import run_training
    out = run_training(load_config(args.config, vars(args)))
    print(f"run complete: {out}")
    return 0


def cmd_synthetic(args):
    from .train import run_synthetic
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "threads")}
    out = run_synthetic(**options)
    print(f"synthetic grid complete: {out}")
    return 0


def cmd_analyze(args):
    from .train import run_analysis
    reports = run_analysis(args.checkpoint, args.out, args.config)
    for r in reports:
        print(f"layer {r.layer} group {r.group}: skew={r.skew:.3f} "
              f"toeplitz={r.toeplitz:.3f} dft_offdiag={r.dft_offdiag:.3f} "
              f"order_defect={r.order_defect:.3f}")
    return 0


def cmd_fetch(args):
    from .data import DATASET_IO
    *_, fetch = DATASET_IO[args.dataset]
    fetch(args.data_root)
    print(f"{args.dataset} ready under {args.data_root}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    _set_threads(getattr(args, "threads", None))
    handler = {"train": cmd_train, "synthetic": cmd_synthetic,
               "analyze": cmd_analyze, "fetch": cmd_fetch}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Heavy imports happen inside the command handlers so that thread-count
environment variables set by --threads take effect before the numerics
libraries initialize their thread pools.
"""

import argparse
import os
import sys


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--data-root", default=None)
    parser.add_argument("--data-source", default=None,
                        choices=["auto", "files", "download", "synthetic"])
    parser.add_argument("--threads", type=int, default=None,
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
    train.add_argument("--dataset", choices=["mnist", "cifar10"], default=None)
    train.add_argument("--task", choices=["classification", "reconstruction"],
                       default=None)
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--subset", type=int, default=None)
    train.add_argument("--batch-size", type=int, default=None)
    train.add_argument("--mu", type=float, default=None)
    train.add_argument("--loss-variant", default=None,
                       choices=["aux_inverse", "svd_sum", "svd_logdet"])
    train.add_argument("--lr", type=float, default=None)
    train.add_argument("--precision", choices=["float32", "float64"],
                       default=None)

    synth = sub.add_parser("synthetic",
                           help="fit linear patch transforms over the "
                                "rotation/pooling/composition grid")
    _add_common(synth)
    synth.add_argument("--dataset", choices=["mnist", "cifar10"],
                       default="cifar10")
    synth.add_argument("--num-pairs", type=int, default=10000)
    synth.add_argument("--epochs", type=int, default=200)
    synth.add_argument("--lr", type=float, default=0.01)
    synth.add_argument("--no-gd", action="store_true",
                       help="skip the gradient-descent fits")
    synth.add_argument("--save-pairs", action="store_true",
                       help="persist each cell's training pairs as CSV "
                            "(36 input + 36 target columns per row)")

    analyze = sub.add_parser("analyze",
                             help="structure reports for a checkpoint")
    analyze.add_argument("checkpoint")
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--config", default=None,
                         help="config.json (defaults to the checkpoint's "
                              "sibling)")
    analyze.add_argument("--threads", type=int, default=None)

    fetch = sub.add_parser("fetch", help="download dataset archives")
    fetch.add_argument("--dataset", choices=["mnist", "cifar10"],
                       required=True)
    fetch.add_argument("--data-root", default="data")
    return parser


def _set_threads(count):
    if count is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


def cmd_train(args):
    from .config import load_config
    from .train import run_training
    overrides = {
        "seed": args.seed, "out_dir": args.out, "dataset": args.dataset,
        "task": args.task, "epochs": args.epochs, "subset": args.subset,
        "batch_size": args.batch_size, "mu": args.mu,
        "loss_variant": args.loss_variant, "lr": args.lr,
        "precision": args.precision, "data_root": args.data_root,
        "data_source": args.data_source,
    }
    cfg = load_config(args.config, overrides)
    out = run_training(cfg)
    print(f"run complete: {out}")
    return 0


def cmd_synthetic(args):
    from .train import run_synthetic
    out = run_synthetic(
        out_dir=args.out or "runs/synthetic",
        data_root=args.data_root or "data",
        data_source=args.data_source or "auto",
        seed=args.seed if args.seed is not None else 0,
        num_pairs=args.num_pairs, epochs=args.epochs, lr=args.lr,
        run_gd=not args.no_gd, dataset=args.dataset,
        save_pairs=args.save_pairs)
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
    from .data import fetch_cifar10, fetch_mnist
    if args.dataset == "mnist":
        fetch_mnist(args.data_root)
    else:
        fetch_cifar10(args.data_root)
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

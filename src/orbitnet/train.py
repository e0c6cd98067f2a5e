"""Training, synthetic-probe, and analysis drivers behind the CLI.

Every run is reproducible from its config plus seed: all randomness flows
through one seeded generator, metrics lines contain only quantities
derived from the data (never wall-clock), and timings go to a separate
sidecar so that identical runs produce byte-identical metrics files.
"""

import json
import resource
import sys
import time
import warnings
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from .analysis import (dft_conjugate, save_csv, save_heatmap_pgm,
                       structure_report)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import DATA_SOURCES, DATASETS, RunConfig, load_config
from .groups import invertibility_residual, order_defect
from .network import UnfoldedNetwork, add_invertibility_penalty, task_loss
from .optim import Adam, lr_at
from .probe import (analytic_operator, check_gd_options, fit_action_gd,
                    fit_action_lstsq)
from .tensor import Tensor

SYNTHETIC_SEED = 0   # dataset synthesis is fixed, independent of the run seed


def resolve_dataset(name, root, source, split="train"):
    """Locate a dataset: local files, then download, then synthetic stand-in.

    `source` narrows the strategy: "files" never falls back, "download"
    fetches the canonical archives, "synthetic" (or "auto" with no local
    files) writes a procedurally generated stand-in in the same binary
    format, once, and loads it through the same parser.
    """
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r}: expected one of "
                         f"{DATASETS}")
    if source not in DATA_SOURCES:
        raise ValueError(f"unknown data source {source!r}: expected one of "
                         f"{DATA_SOURCES}")
    root = Path(root)
    load, synthesize, fetch = datamod.DATASET_IO[name]
    if source == "download":
        fetch(root)
    if source != "synthetic":
        try:
            return load(root, split)
        except FileNotFoundError:
            if source != "auto":
                raise
    synth_root = root / f"synthetic-{name}"
    try:
        return load(synth_root, split)
    except FileNotFoundError:
        pass
    if source == "auto":
        warnings.warn(
            f"{name} not found under {root}; generating a synthetic "
            f"stand-in at {synth_root}", RuntimeWarning, stacklevel=2)
    synthesize(synth_root, seed=SYNTHETIC_SEED)
    return load(synth_root, split)


def build_network(cfg: RunConfig, in_channels, rng):
    return UnfoldedNetwork(
        task=cfg.task, in_channels=in_channels, num_layers=cfg.num_layers,
        num_groups=cfg.num_groups, group_order=cfg.group_order,
        filter_size=cfg.filter_size, alpha=cfg.alpha, rng=rng,
        dtype=cfg.precision)


def _epoch_record(net, cfg, epoch, mean_task_loss):
    stacks = [layer.action for layer in net.layers]
    return {
        "epoch": epoch,
        "task_loss": mean_task_loss,
        "lr": lr_at(epoch, cfg.epochs, cfg.lr),
        "invertibility_residual_per_group": np.concatenate(
            [invertibility_residual(s) for s in stacks]).tolist(),
        "order_defect_per_group": np.concatenate(
            [order_defect(s) for s in stacks]).tolist(),
    }


def _peak_rss_mb():
    """This process's peak resident memory so far (VmHWM), in MiB.

    ru_maxrss is only the fallback: Linux carries it over across exec.
    """
    try:
        status = Path("/proc/self/status").read_text()
        return int(status.split("VmHWM:")[1].split()[0]) / 1024.0
    except (OSError, IndexError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def run_training(cfg: RunConfig, out_dir=None):
    """Full training run; returns the output directory path.

    A `FloatingPointError` from a step (Adam's non-finite gradient check
    names the parameter) is re-raised with the epoch and batch index.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dataset = resolve_dataset(cfg.dataset, cfg.data_root, cfg.data_source)
    if cfg.subset is not None and cfg.subset > len(dataset):
        raise ValueError(f"subset {cfg.subset} is larger than the "
                         f"{len(dataset)}-image training split")
    order = rng.permutation(len(dataset))[:cfg.subset]
    images = dataset.images[order].astype(cfg.precision, copy=False)
    labels = dataset.labels[order]
    del dataset   # only the subset is trained on
    if cfg.filter_size > min(images.shape[-2:]):
        raise ValueError(f"filter_size {cfg.filter_size} is larger than the "
                         f"{images.shape[-2]}x{images.shape[-1]} images")

    net = build_network(cfg, images.shape[1], rng)
    opt = Adam(net.parameters(), lr=cfg.lr)

    # a run that fails a check above leaves the output directory untouched
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())
    metrics_path = out / "metrics.jsonl"
    timing_path = out / "timing.jsonl"
    with open(metrics_path, "w") as metrics, open(timing_path, "w") as timing:
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            opt.lr = lr_at(epoch, cfg.epochs, cfg.lr)
            perm = rng.permutation(images.shape[0])
            batch_losses = []
            for batch, lo in enumerate(
                    range(0, images.shape[0], cfg.batch_size)):
                idx = perm[lo:lo + cfg.batch_size]
                xb = Tensor(images[idx])
                yb = labels[idx]
                try:
                    opt.zero_grad()
                    task = task_loss(net, xb, yb)
                    total = training_loss_from_task(net, task, cfg)
                    total.backward()
                    opt.step()
                except FloatingPointError as err:
                    raise FloatingPointError(
                        f"epoch {epoch}, batch {batch}: {err}") from err
                net.clamp_thresholds()
                batch_losses.append(float(task.data))
            record = _epoch_record(net, cfg, epoch,
                                   float(np.mean(batch_losses)))
            metrics.write(json.dumps(record, sort_keys=True) + "\n")
            metrics.flush()
            timing.write(json.dumps(
                {"epoch": epoch,
                 "seconds": time.perf_counter() - start,
                 "peak_rss_mb": _peak_rss_mb()}) + "\n")
            timing.flush()
    save_checkpoint(out / "final.ckpt", net.state_arrays())
    return out


def training_loss_from_task(net, task, cfg: RunConfig):
    """Attach the configured invertibility penalty to an existing task loss."""
    return add_invertibility_penalty(net, task, cfg.mu, cfg.loss_variant)


# -- synthetic probe driver ------------------------------------------------------

PAPER_ROTATIONS = (30.0, 45.0, 60.0, 90.0)
PAPER_POOL_RADII = (3, 4, 5, 6)
PAPER_COMPOSE_RADII = (4, 5, 6)
PAPER_COMPOSE_THETA = 60.0
FIT_METRICS = ("train_mse", "holdout_mse", "max_abs_err", "rel_fro_err")


def paper_transform_grid():
    """The 4 + 4 + 3 transform cells evaluated in the experiments."""
    cells = [datamod.PatchTransform.rotation(t) for t in PAPER_ROTATIONS]
    cells += [datamod.PatchTransform.pooling(r) for r in PAPER_POOL_RADII]
    cells += [datamod.PatchTransform.composition(r, PAPER_COMPOSE_THETA)
              for r in PAPER_COMPOSE_RADII]
    return cells


def run_synthetic(out_dir="runs/synthetic", data_root="data",
                  data_source="auto", seed=0, num_pairs=10000, holdout=1000,
                  epochs=200, lr=0.01, transforms=None, dataset="cifar10",
                  save_pairs=False):
    """Fit each grid cell by least squares, and by gradient descent if
    `epochs` is above 0."""
    for name, value in (("num_pairs", num_pairs), ("holdout", holdout)):
        if value < 1:
            raise ValueError(f"{name} must be 1 or more, got {value}")
    check_gd_options(epochs, lr)
    ds = resolve_dataset(dataset, data_root, data_source)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": seed, "num_pairs": num_pairs, "holdout": holdout,
                "dataset": dataset, "cells": []}
    for transform in (transforms if transforms is not None
                      else paper_transform_grid()):
        rng = np.random.default_rng(
            (seed, zlib.crc32(transform.label().encode())))
        xs, ys = datamod.transform_pair_dataset(
            ds.images, transform, num_pairs + holdout, rng)
        train_x, train_y = xs[:num_pairs], ys[:num_pairs]
        hold_x, hold_y = xs[num_pairs:], ys[num_pairs:]
        reference = analytic_operator(transform)
        label = transform.label()
        if save_pairs:
            datamod.save_pairs_csv(out / f"{label}_pairs.csv",
                                   train_x, train_y)
        save_csv(out / f"{label}_analytic.csv", reference)
        save_heatmap_pgm(out / f"{label}_analytic.pgm", reference)
        entry = {"label": label, "kind": transform.kind,
                 "theta": transform.theta, "radius": transform.radius}
        fits = {"lstsq": fit_action_lstsq(train_x, train_y)}
        if epochs:
            fits["gd"] = fit_action_gd(train_x, train_y, epochs=epochs, lr=lr)
        for name, fit in fits.items():
            fit.compare(reference, hold_x, hold_y)
            save_csv(out / f"{label}_{name}.csv", fit.a_hat)
            save_heatmap_pgm(out / f"{label}_{name}.pgm", fit.a_hat)
            entry[name] = {key: getattr(fit, key) for key in FIT_METRICS}
        manifest["cells"].append(entry)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return out


# -- analysis driver -------------------------------------------------------------

def run_analysis(checkpoint_path, out_dir, config_path=None):
    """Structure reports and heatmaps for every group action in a checkpoint.

    The checkpoint is loaded, in float64, into the network that the config
    describes; any mismatch fails before a file is written. Each layer's
    stack gets one `structure_report` call; `reports.json` holds them all.
    """
    checkpoint_path = Path(checkpoint_path)
    if config_path is None:
        config_path = checkpoint_path.parent / "config.json"
    cfg = replace(load_config(config_path), precision="float64")
    arrays = load_checkpoint(checkpoint_path)
    # without its first basis the checkpoint fails below, as a missing tensor
    first = arrays.get("layers.0.bases.0")
    net = build_network(cfg, 1 if first is None else first.shape[0],
                        np.random.default_rng(cfg.seed))
    try:
        net.load_state_arrays(arrays)
    except (KeyError, ValueError) as err:
        raise type(err)(f"{checkpoint_path}: {err.args[0]}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for li, layer in enumerate(net.layers):
        stack = layer.action.a.data
        layer_reports = structure_report(layer.action, layer=li)
        for report, a, dft in zip(layer_reports, stack,
                                  np.abs(dft_conjugate(stack))):
            stem = f"layer{li}_group{report.group}"
            save_csv(out / f"{stem}_A.csv", a)
            save_heatmap_pgm(out / f"{stem}_A.pgm", a)
            save_heatmap_pgm(out / f"{stem}_probe.pgm", report.identity_probe)
            save_heatmap_pgm(out / f"{stem}_dft.pgm", dft)
        reports += layer_reports
    (out / "reports.json").write_text(json.dumps(
        [asdict(r) for r in reports], indent=2, sort_keys=True))
    return reports

"""Training, synthetic-probe, and analysis drivers behind the CLI.

Every run is reproducible from its config plus seed: all randomness flows
through one seeded generator, metrics lines contain only quantities
derived from the data (never wall-clock), and timings go to a separate
sidecar so that identical runs produce byte-identical metrics files.
"""

import json
import time
import warnings
import zlib
from pathlib import Path

import numpy as np

from . import data as datamod
from .analysis import (dft_conjugate, identity_probe, save_csv,
                       save_heatmap_pgm, structure_report)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .groups import GroupAction, order_defect
from .network import UnfoldedNetwork, add_invertibility_penalty, task_loss
from .optim import Adam, lr_at
from .probe import analytic_operator, fit_action_gd, fit_action_lstsq
from .tensor import Tensor

SYNTHETIC_SEED = 0   # dataset synthesis is fixed, independent of the run seed


def resolve_dataset(name, root, source, split="train"):
    """Locate a dataset: local files, then download, then synthetic stand-in.

    `source` narrows the strategy: "files" never falls back, "download"
    fetches the canonical archives, "synthetic" (or "auto" with no local
    files) writes a procedurally generated stand-in in the same binary
    format and loads it through the same parser.
    """
    root = Path(root)
    loader = datamod.load_mnist if name == "mnist" else datamod.load_cifar10
    if source in ("auto", "files"):
        try:
            return loader(root, split)
        except FileNotFoundError:
            if source == "files":
                raise
    if source == "download":
        fetch = datamod.fetch_mnist if name == "mnist" else datamod.fetch_cifar10
        fetch(root)
        return loader(root, split)
    synth_root = root / f"synthetic-{name}"
    probe_file = (synth_root / datamod.MNIST_FILES["train"][0] if name == "mnist"
                  else synth_root / "cifar-10-batches-bin" / "data_batch_1.bin")
    if not probe_file.exists():
        if source == "auto":
            warnings.warn(
                f"{name} not found under {root}; generating a synthetic "
                f"stand-in at {synth_root}", RuntimeWarning, stacklevel=2)
        make = (datamod.synthesize_mnist_like if name == "mnist"
                else datamod.synthesize_cifar10_like)
        make(synth_root, seed=SYNTHETIC_SEED)
    return loader(synth_root, split)


def build_network(cfg: RunConfig, in_channels, rng):
    dtype = np.float32 if cfg.precision == "float32" else np.float64
    return UnfoldedNetwork(
        task=cfg.task, in_channels=in_channels, num_layers=cfg.num_layers,
        num_groups=cfg.num_groups, group_order=cfg.group_order,
        filter_size=cfg.filter_size, alpha=cfg.alpha, rng=rng,
        tied=cfg.tied, one_sided=cfg.one_sided, dtype=dtype)


def _epoch_record(net, cfg, epoch, mean_task_loss):
    inv = []
    defects = []
    for _, _, action in net.group_actions():
        a, at = action.a.data, action.a_tilde.data
        inv.append(float(np.linalg.norm(a @ at - np.eye(a.shape[0]))))
        defects.append(order_defect(action))
    return {
        "epoch": epoch,
        "task_loss": mean_task_loss,
        "lr": lr_at(epoch, cfg.epochs, cfg.lr),
        "invertibility_residual_per_group": inv,
        "order_defect_per_group": defects,
    }


def run_training(cfg: RunConfig, out_dir=None):
    """Full training run; returns the output directory path."""
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(cfg.to_json())

    rng = np.random.default_rng(cfg.seed)
    dataset = resolve_dataset(cfg.dataset, cfg.data_root, cfg.data_source)
    order = rng.permutation(len(dataset))
    if cfg.subset is not None:
        order = order[:cfg.subset]
    dtype = np.float32 if cfg.precision == "float32" else np.float64
    images = dataset.images[order].astype(dtype)
    labels = dataset.labels[order]

    net = build_network(cfg, images.shape[1], rng)
    opt = Adam(net.parameters(), lr=cfg.lr)

    metrics_path = out / "metrics.jsonl"
    timing_path = out / "timing.jsonl"
    with open(metrics_path, "w") as metrics, open(timing_path, "w") as timing:
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            opt.lr = lr_at(epoch, cfg.epochs, cfg.lr)
            perm = rng.permutation(images.shape[0])
            batch_losses = []
            for lo in range(0, images.shape[0], cfg.batch_size):
                idx = perm[lo:lo + cfg.batch_size]
                xb = Tensor(images[idx])
                yb = labels[idx]
                opt.zero_grad()
                task = task_loss(net, xb, yb)
                total = training_loss_from_task(net, task, cfg)
                total.backward()
                opt.step()
                net.clamp_thresholds()
                batch_losses.append(float(task.data))
            record = _epoch_record(net, cfg, epoch,
                                   float(np.mean(batch_losses)))
            metrics.write(json.dumps(record, sort_keys=True) + "\n")
            metrics.flush()
            timing.write(json.dumps(
                {"epoch": epoch,
                 "seconds": time.perf_counter() - start}) + "\n")
            timing.flush()
    save_checkpoint(out / "final.ckpt", net.state_arrays())
    return out


def training_loss_from_task(net, task, cfg: RunConfig):
    """Attach the configured invertibility penalty to an existing task loss."""
    return add_invertibility_penalty(net, task, cfg.mu, cfg.loss_variant,
                                     cfg.squared_frobenius)


# -- synthetic probe driver ------------------------------------------------------

PAPER_ROTATIONS = (30.0, 45.0, 60.0, 90.0)
PAPER_POOL_RADII = (3, 4, 5, 6)
PAPER_COMPOSE_RADII = (4, 5, 6)
PAPER_COMPOSE_THETA = 60.0


def paper_transform_grid():
    """The 4 + 4 + 3 transform cells evaluated in the experiments."""
    cells = [datamod.PatchTransform.rotation(t) for t in PAPER_ROTATIONS]
    cells += [datamod.PatchTransform.pooling(r) for r in PAPER_POOL_RADII]
    cells += [datamod.PatchTransform.composition(r, PAPER_COMPOSE_THETA)
              for r in PAPER_COMPOSE_RADII]
    return cells


def run_synthetic(out_dir, data_root="data", data_source="auto", seed=0,
                  num_pairs=10000, holdout=1000, epochs=200, lr=0.01,
                  transforms=None, run_gd=True, dataset="cifar10",
                  save_pairs=False):
    """Fit every grid cell by least squares and (optionally) gradient descent."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = resolve_dataset(dataset, data_root, data_source)
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
        ls = fit_action_lstsq(train_x, train_y).compare(
            reference, hold_x, hold_y)
        save_csv(out / f"{label}_lstsq.csv", ls.a_hat)
        save_heatmap_pgm(out / f"{label}_lstsq.pgm", ls.a_hat)
        entry["lstsq"] = {"train_mse": ls.train_mse,
                          "holdout_mse": ls.holdout_mse,
                          "max_abs_err": ls.max_abs_err,
                          "rel_fro_err": ls.rel_fro_err}
        if run_gd:
            gd = fit_action_gd(train_x, train_y, epochs=epochs, lr=lr)
            gd.compare(reference, hold_x, hold_y)
            save_csv(out / f"{label}_gd.csv", gd.a_hat)
            save_heatmap_pgm(out / f"{label}_gd.pgm", gd.a_hat)
            entry["gd"] = {"train_mse": gd.train_mse,
                           "holdout_mse": gd.holdout_mse,
                           "max_abs_err": gd.max_abs_err,
                           "rel_fro_err": gd.rel_fro_err}
        manifest["cells"].append(entry)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True))
    return out


# -- analysis driver -------------------------------------------------------------

def run_analysis(checkpoint_path, out_dir, config_path=None):
    """Structure reports and heatmaps for every group action in a checkpoint."""
    checkpoint_path = Path(checkpoint_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config_path is None:
        config_path = checkpoint_path.parent / "config.json"
    with open(config_path) as fh:
        cfg = RunConfig(**json.load(fh))
    arrays = load_checkpoint(checkpoint_path)
    n = m = cfg.filter_size
    reports = []
    for li in range(1 if cfg.tied else cfg.num_layers):
        for ki in range(cfg.num_groups):
            a = arrays[f"layers.{li}.groups.{ki}.A"]
            a_tilde = arrays[f"layers.{li}.groups.{ki}.A_tilde"]
            action = GroupAction(Tensor(a), Tensor(a_tilde),
                                 cfg.group_order, n, m)
            report = structure_report(action, layer=li, group=ki)
            reports.append(report)
            stem = f"layer{li}_group{ki}"
            (out / f"{stem}_report.json").write_text(report.to_json())
            save_csv(out / f"{stem}_A.csv", a)
            save_heatmap_pgm(out / f"{stem}_A.pgm", a)
            save_heatmap_pgm(out / f"{stem}_probe.pgm",
                             identity_probe(action))
            save_heatmap_pgm(out / f"{stem}_dft.pgm",
                             np.abs(dft_conjugate(a)))
    index = [{"layer": r.layer, "group": r.group, "skew": r.skew,
              "toeplitz": r.toeplitz, "dft_offdiag": r.dft_offdiag,
              "order_defect": r.order_defect,
              "min_singular_value": r.min_singular_value,
              "invertibility_residual": r.invertibility_residual}
             for r in reports]
    (out / "index.json").write_text(json.dumps(index, indent=2,
                                               sort_keys=True))
    return reports

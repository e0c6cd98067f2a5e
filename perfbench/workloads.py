"""The benchmark's workloads, their set-up, timed units and output checks.

Every workload is a closed loop with one caller: the next unit starts only
after the previous one returned and was checked. A unit is one training
step for `train_*`, and one pass of both figure commands (`run_synthetic`
over the whole transform grid, then `run_analysis`) for `figures`.

Inputs are generated from the workload seed with the program's own
synthesizers into a scratch directory, and the program reads them back
only through `data.load_mnist` / `data.load_cifar10`.
"""

import json
import math
import re
import time

import numpy as np

from orbitnet import analysis, checkpoint, data, probe, train
from orbitnet.config import RunConfig
from orbitnet.optim import Adam, lr_at
from orbitnet.tensor import Tensor

# BENCHMARK.json records why each workload exists.
WORKLOADS = ("train_ref", "train_cifar_f32", "figures")

TRAIN_SPECS = {
    "train_ref": {"dataset": "mnist"},
    "train_cifar_f32": {"dataset": "cifar10", "precision": "float32"},
}

# full size, and the tiny size the smoke test uses
SIZES = {
    False: {"mnist_images": 2048, "cifar10_images": 1024, "grid_images": 256,
            "pairs": 200, "holdout": 40, "gd_epochs": 200, "net": {}},
    True: {"mnist_images": 48, "cifar10_images": 40, "grid_images": 20,
           "pairs": 60, "holdout": 10, "gd_epochs": 5,
           "net": {"num_layers": 2, "num_groups": 2, "group_order": 2,
                   "batch_size": 8}},
}

LSTSQ_TOL = 1e-10       # relative Frobenius error against the analytic operator
SIGMA_TOL = 1e-10       # relative error of min_singular_value vs np.linalg.svd


def synthesize(dataset, root, count, seed):
    """Write a seeded stand-in dataset; returns the directory to load from."""
    make = (data.synthesize_mnist_like if dataset == "mnist"
            else data.synthesize_cifar10_like)
    make(root, n_train=count, n_test=8, seed=seed)
    return root


def load(dataset, root):
    loader = data.load_mnist if dataset == "mnist" else data.load_cifar10
    return loader(root)


class TrainLoop:
    """`train.run_training`'s loop, one step at a time.

    Same seeded generator, subset order, network construction, per-epoch
    learning rate and permutation as `run_training`, so a timed step is a step
    of `orbitnet train`. `check_training_loop` keeps the two identical.
    Functions are looked up on the `train` module at call time, so that
    the tracer's wrappers see them.
    """

    def __init__(self, cfg, dataset):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        order = self.rng.permutation(len(dataset))
        if cfg.subset is not None:
            order = order[:cfg.subset]
        dtype = np.float32 if cfg.precision == "float32" else np.float64
        self.images = dataset.images[order].astype(dtype)
        self.labels = dataset.labels[order]
        self.net = train.build_network(cfg, self.images.shape[1], self.rng)
        self.opt = Adam(self.net.parameters(), lr=cfg.lr)
        self.epoch = -1
        self._batches = []

    def next_batch(self):
        """Batch assembly, outside the timed step as in any data loader."""
        if not self._batches:
            self.epoch += 1
            self.opt.lr = lr_at(self.epoch, self.cfg.epochs, self.cfg.lr)
            perm = self.rng.permutation(self.images.shape[0])
            size = self.cfg.batch_size
            self._batches = [perm[lo:lo + size]
                             for lo in range(0, len(perm), size)][::-1]
        idx = self._batches.pop()
        return Tensor(self.images[idx]), self.labels[idx]

    def step(self, xb, yb):
        """One full step; returns the task loss as `run_training` records it."""
        self.opt.zero_grad()
        task = train.task_loss(self.net, xb, yb)
        total = train.training_loss_from_task(self.net, task, self.cfg)
        total.backward()
        self.opt.step()
        self.net.clamp_thresholds()
        return float(task.data)


class TrainWorkload:
    """Closed loop of training steps at the reference configuration."""

    def __init__(self, name, seed, workdir, tiny):
        size = SIZES[tiny]
        spec = TRAIN_SPECS[name]
        self.dataset = spec["dataset"]
        self.root = synthesize(self.dataset, workdir / "data",
                               size[f"{self.dataset}_images"], seed)
        self.cfg = RunConfig(seed=seed, data_root=str(self.root),
                             data_source="files", **spec,
                             **size["net"]).validate()
        self.loop = None

    def setup(self):
        """Parse the data and build the network."""
        self.loop = TrainLoop(self.cfg, load(self.dataset, self.root))

    def warm_up(self):
        """One untimed step, so first-call costs stay out of the timed ones."""
        loss = self.loop.step(*self.loop.next_batch())
        if not math.isfinite(loss):
            raise FloatingPointError(f"warm-up loss is {loss}")

    def prepare(self):
        return self.loop.next_batch()

    def run(self, batch):
        return {"loss": self.loop.step(*batch), "images": batch[0].shape[0]}

    def check(self, out):
        if not math.isfinite(out["loss"]):
            return [f"non-finite training loss {out['loss']}"]
        return []


class FiguresWorkload:
    """Closed loop of `run_synthetic` over the paper grid plus `run_analysis`."""

    def __init__(self, seed, workdir, tiny):
        self.seed = seed
        self.size = SIZES[tiny]
        self.workdir = workdir
        self.root = synthesize("cifar10", workdir / "data",
                               self.size["grid_images"], seed)
        self.cfg = RunConfig(seed=seed, **self.size["net"]).validate()
        self.ckpt = workdir / "ckpt" / "final.ckpt"
        self.ckpt.parent.mkdir(parents=True, exist_ok=True)
        self.state = None

    def setup(self):
        """Parse the data; build and write the seeded 20-generator checkpoint."""
        load("cifar10", self.root)
        rng = np.random.default_rng(self.cfg.seed)
        net = train.build_network(self.cfg, 1, rng)
        self.state = net.state_arrays()
        checkpoint.save_checkpoint(self.ckpt, self.state)
        (self.ckpt.parent / "config.json").write_text(self.cfg.to_json())

    def warm_up(self):
        """None: a pass takes seconds, first-call costs are negligible."""

    def prepare(self):
        """Fresh output directories, so a stale file cannot pass a check."""
        for sub in ("grid", "analysis"):
            out = self.workdir / sub
            if out.exists():
                for path in out.iterdir():
                    path.unlink()
        return None

    def run(self, _):
        out = {}
        t0 = time.perf_counter()
        train.run_synthetic(
            self.workdir / "grid", data_root=str(self.root),
            data_source="files", seed=self.seed, num_pairs=self.size["pairs"],
            holdout=self.size["holdout"], epochs=self.size["gd_epochs"],
            dataset="cifar10")
        t1 = time.perf_counter()
        out["reports"] = train.run_analysis(self.ckpt,
                                            self.workdir / "analysis")
        t2 = time.perf_counter()
        out["phases"] = {"grid_s": t1 - t0, "analyze_s": t2 - t1}
        return out

    def check(self, out):
        problems = []
        grid = self.workdir / "grid"
        manifest = json.loads((grid / "manifest.json").read_text())
        cells = train.paper_transform_grid()
        if len(manifest["cells"]) != len(cells):
            problems.append(f"manifest has {len(manifest['cells'])} cells, "
                            f"grid has {len(cells)}")
        for transform in cells:
            label = transform.label()
            reference = probe.analytic_operator(transform)
            fit = analysis.load_csv(grid / f"{label}_lstsq.csv")
            err = (np.linalg.norm(fit - reference)
                   / np.linalg.norm(reference))
            if not err <= LSTSQ_TOL:
                problems.append(f"{label}: least-squares fit is {err:.3g} "
                                f"from the analytic operator")
            gd = analysis.load_csv(grid / f"{label}_gd.csv")
            if not np.all(np.isfinite(gd)):
                problems.append(f"{label}: gradient fit is not finite")
        for entry in manifest["cells"]:
            values = [v for fit in ("lstsq", "gd")
                      for v in entry[fit].values()]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{entry['label']}: non-finite fit metric")
        reports = out["reports"]
        if len(reports) != self.cfg.num_layers * self.cfg.num_groups:
            problems.append(f"analysis returned {len(reports)} reports")
        for r in reports:
            values = [r.skew, r.toeplitz, r.dft_offdiag, r.order_defect,
                      r.min_singular_value, r.invertibility_residual]
            values += list(np.ravel(r.quadrant_signs))
            values += list(np.ravel(r.identity_probe))
            if not all(math.isfinite(v) for v in values):
                problems.append(f"layer {r.layer} group {r.group}: "
                                f"non-finite report entry")
                continue
            a = self.state[f"layers.{r.layer}.groups.{r.group}.A"]
            sigma = np.linalg.svd(a, compute_uv=False)[-1]
            if not abs(r.min_singular_value - sigma) <= SIGMA_TOL * sigma:
                problems.append(
                    f"layer {r.layer} group {r.group}: min singular value "
                    f"{r.min_singular_value!r} vs np.linalg.svd {sigma!r}")
        return problems


def make(name, seed, workdir, tiny=False):
    if name == "figures":
        return FiguresWorkload(seed, workdir, tiny)
    return TrainWorkload(name, seed, workdir, tiny)


def check_training_loop(workdir):
    """`TrainLoop` against `train.run_training` on tiny configs.

    One epoch of the benchmark loop must give the mean task loss that the
    training run writes to metrics.jsonl, byte for byte. Returns a list of
    problems, empty when the loops agree.
    """
    configs = (
        {"dataset": "mnist"},
        {"dataset": "cifar10", "precision": "float32",
         "loss_variant": "svd_sum"},
    )
    problems = []
    for i, spec in enumerate(configs):
        base = workdir / f"loopcheck{i}"
        root = synthesize(spec["dataset"], base / "data", 40, seed=7 + i)
        cfg = RunConfig(num_layers=2, num_groups=2, group_order=2,
                        batch_size=8, subset=24, epochs=1, seed=11 + i,
                        data_root=str(root), data_source="files",
                        **spec).validate()
        train.run_training(cfg, base / "run")
        line = (base / "run" / "metrics.jsonl").read_text().splitlines()[0]
        logged = re.search(r'"task_loss": ([^,}]+)', line).group(1)
        loop = TrainLoop(cfg, load(cfg.dataset, root))
        steps = -(-cfg.subset // cfg.batch_size)
        losses = [loop.step(*loop.next_batch()) for _ in range(steps)]
        ours = json.dumps(float(np.mean(losses)))
        if ours != logged or loop._batches:
            problems.append(f"{spec}: benchmark loop mean task_loss {ours}, "
                            f"run_training logged {logged}")
    return problems

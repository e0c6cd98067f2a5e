"""Run configuration: defaults, JSON loading, and up-front validation."""

import json
from dataclasses import dataclass, fields, asdict

TASKS = ("classification", "reconstruction")
DATASETS = ("mnist", "cifar10")
LOSS_VARIANTS = ("aux_inverse", "svd_sum", "svd_logdet")
DATA_SOURCES = ("auto", "files", "download", "synthetic")
PRECISIONS = ("float32", "float64")   # numpy dtype names

# default regularization weight per invertibility-loss variant
DEFAULT_MU = {"aux_inverse": 0.001, "svd_sum": 0.01, "svd_logdet": 0.01}


@dataclass
class RunConfig:
    dataset: str = "mnist"
    task: str = "classification"
    num_layers: int = 4           # L
    num_groups: int = 5           # K
    group_order: int = 4          # p
    filter_size: int = 6          # n = m
    alpha: float = 0.01
    lr: float = 0.01
    epochs: int = 100
    batch_size: int = 32    # keeps per-batch conv buffers cheap on one core
    mu: float = None              # defaults per loss_variant when unset
    loss_variant: str = "aux_inverse"
    squared_frobenius: bool = False
    one_sided: bool = True
    tied: bool = False
    seed: int = 0
    subset: int = None            # train on the first N after a seeded shuffle
    precision: str = "float64"
    data_root: str = "data"
    data_source: str = "auto"
    out_dir: str = "runs/default"

    def __post_init__(self):
        if self.mu is None:
            self.mu = DEFAULT_MU.get(self.loss_variant, 0.001)

    def validate(self):
        """Collect every problem before any work happens."""
        problems = []
        if self.dataset not in DATASETS:
            problems.append(f"dataset must be one of {DATASETS}, "
                            f"got {self.dataset!r}")
        if self.task not in TASKS:
            problems.append(f"task must be one of {TASKS}, got {self.task!r}")
        if self.loss_variant not in LOSS_VARIANTS:
            problems.append(f"loss_variant must be one of {LOSS_VARIANTS}, "
                            f"got {self.loss_variant!r}")
        if self.data_source not in DATA_SOURCES:
            problems.append(f"data_source must be one of {DATA_SOURCES}, "
                            f"got {self.data_source!r}")
        if self.precision not in PRECISIONS:
            problems.append(f"precision must be one of {PRECISIONS}, "
                            f"got {self.precision!r}")
        for name in ("num_layers", "num_groups", "group_order", "filter_size",
                     "batch_size"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        if self.epochs < 0:
            problems.append("epochs must be >= 0")
        if self.alpha <= 0:
            problems.append("alpha must be positive")
        if self.lr <= 0:
            problems.append("lr must be positive")
        if self.mu < 0:
            problems.append("mu must be nonnegative")
        if self.subset is not None and self.subset < 1:
            problems.append("subset must be >= 1 when given")
        if problems:
            raise ValueError("invalid configuration:\n  "
                             + "\n  ".join(problems))
        return self

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def load_config(path=None, overrides=None):
    """Build a RunConfig from an optional JSON file plus override mapping.

    Unknown keys in the file are an error; overrides that are None or not
    RunConfig fields (the CLI's other options) are ignored.
    """
    known = {f.name for f in fields(RunConfig)}
    values = {}
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        unknown = set(loaded) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    if overrides:
        values.update({k: v for k, v in overrides.items()
                       if k in known and v is not None})
    return RunConfig(**values).validate()

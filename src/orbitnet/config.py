"""Run configuration: defaults, JSON loading, and up-front validation."""

import json
import math
from dataclasses import dataclass, fields, asdict

TASKS = ("classification", "reconstruction")
DATASETS = ("mnist", "cifar10")
LOSS_VARIANTS = ("aux_inverse", "svd_sum", "svd_logdet")
DATA_SOURCES = ("auto", "files", "download", "synthetic")
PRECISIONS = ("float32", "float64")   # numpy dtype names

# default regularization weight per invertibility-loss variant
DEFAULT_MU = {"aux_inverse": 0.001, "svd_sum": 0.01, "svd_logdet": 0.01}

CHOICES = {"dataset": DATASETS, "task": TASKS, "loss_variant": LOSS_VARIANTS,
           "data_source": DATA_SOURCES, "precision": PRECISIONS}
MINIMUM = {"num_layers": 1, "num_groups": 1, "group_order": 1,
           "filter_size": 1, "batch_size": 1, "epochs": 0, "mu": 0,
           "subset": 1}

# keys that older config.json files carry, at the value every run used
RETIRED = {"squared_frobenius": False, "one_sided": True, "tied": False}


def _is_a(value, kind):
    """isinstance for a field type: a bool is no number, an int is a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


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
    seed: int = 0
    subset: int = None            # train on the first N after a seeded shuffle
    precision: str = "float64"
    data_root: str = "data"
    data_source: str = "auto"
    out_dir: str = "runs/default"

    def __post_init__(self):
        # a loss_variant of the wrong type keeps mu unset; validate names it
        if self.mu is None and isinstance(self.loss_variant, str):
            self.mu = DEFAULT_MU.get(self.loss_variant, 0.001)

    def validate(self):
        """Collect every problem before any work happens."""
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in ("mu", "subset"):
                continue
            if not _is_a(value, f.type):
                problems.append(f"{f.name} must be a {f.type.__name__}, "
                                f"got {value!r}")
            elif f.name in CHOICES and value not in CHOICES[f.name]:
                problems.append(f"{f.name} must be one of {CHOICES[f.name]}, "
                                f"got {value!r}")
            elif f.name in ("alpha", "lr", "mu") and not math.isfinite(value):
                problems.append(f"{f.name} must be finite, got {value!r}")
            elif f.name in MINIMUM and value < MINIMUM[f.name]:
                problems.append(f"{f.name} must be >= {MINIMUM[f.name]}")
            elif f.name in ("alpha", "lr") and value <= 0:
                problems.append(f"{f.name} must be positive")
        if problems:
            raise ValueError("invalid configuration:\n  "
                             + "\n  ".join(problems))
        return self

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def load_config(path=None, overrides=None):
    """Build a RunConfig from an optional JSON file plus override mapping.

    Unknown keys in the file are an error, except a RETIRED key at its
    one value; overrides that are None or not RunConfig fields (the CLI's
    other options) are ignored.
    """
    known = {f.name for f in fields(RunConfig)}
    values = {}
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            kind = {list: "array", str: "string", bool: "boolean",
                    type(None): "null"}.get(type(loaded), "number")
            raise ValueError(f"invalid configuration: {path} holds a JSON "
                             f"{kind}, not an object")
        for key, value in RETIRED.items():
            if key in loaded and loaded.pop(key) is not value:
                raise ValueError(f"config key {key!r} is retired; only "
                                 f"{json.dumps(value)} still loads")
        unknown = set(loaded) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    if overrides:
        values.update({k: v for k, v in overrides.items()
                       if k in known and v is not None})
    return RunConfig(**values).validate()

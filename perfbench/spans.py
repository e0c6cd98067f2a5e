"""In-memory span tracing of orbitnet's public functions.

The tracer replaces module and class attributes of the installed
`orbitnet` package with timing wrappers while a traced unit runs, and puts
the originals back afterwards, so untraced units run the unmodified
program. A span is (name, start, end, parent index, step id, info); spans
stay in memory until `write` dumps them at the end of a run.

Each function is replaced in every `orbitnet` module that holds a
reference to it, because the modules import one another's names with
`from .x import f`.
"""

import functools
import json
import sys
import time

# (module, attribute, span name): free functions of the public modules
FUNCTIONS = (
    ("orbitnet.tensor", "soft_threshold", "tensor.soft_threshold"),
    ("orbitnet.conv", "conv2d_same", "conv.same"),
    ("orbitnet.conv", "conv2d_adjoint", "conv.adjoint"),
    ("orbitnet.network", "task_loss", "network.forward"),
    ("orbitnet.groups", "invertibility_loss", "groups.penalty"),
    ("orbitnet.groups", "svd_invertibility_loss", "groups.penalty"),
    ("orbitnet.svd", "jacobi_svd", "svd.jacobi"),
    ("orbitnet.data", "load_mnist", "data.load"),
    ("orbitnet.data", "load_cifar10", "data.load"),
    ("orbitnet.data", "transform_pair_dataset", "data.pairs"),
    ("orbitnet.probe", "fit_action_lstsq", "probe.lstsq"),
    ("orbitnet.probe", "fit_action_gd", "probe.gd"),
    ("orbitnet.analysis", "structure_report", "analysis.report"),
    ("orbitnet.analysis", "save_csv", "analysis.export"),
    ("orbitnet.analysis", "save_heatmap_pgm", "analysis.export"),
    ("orbitnet.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("orbitnet.train", "training_loss_from_task", "train.training_loss"),
    ("orbitnet.train", "run_synthetic", "train.run_synthetic"),
    ("orbitnet.train", "run_analysis", "train.run_analysis"),
)

# (module, class, method, span name)
METHODS = (
    ("orbitnet.tensor", "Tensor", "backward", "tensor.backward"),
    ("orbitnet.network", "GroupConvLayer", "weight_bank",
     "network.weight_bank"),
    ("orbitnet.network", "BatchNorm2d", "forward", "network.bn"),
    ("orbitnet.optim", "Adam", "step", "optim.adam_step"),
    ("orbitnet.data", "PatchTransform", "operator", "data.operator"),
)

NAME, START, END, PARENT, STEP, INFO = range(6)


def _conv_info(tracer, args, result):
    """Computed forward MACs and operand bytes; wraps the backward closure."""
    x, w = args[0], args[1]
    n, _, h, wd = x.shape
    o, c, kh, kw = w.shape
    size = x.size + w.size + result.size
    if result._backward is not None:
        result._backward = tracer.wrap(result._backward, "conv.bwd")
    return {"macs": n * o * c * h * wd * kh * kw,
            "bytes": size * result.data.itemsize}


def _pairs_info(tracer, args, result):
    return {"pairs": int(result[0].shape[0])}


INFO_HOOKS = {"conv.same": _conv_info, "conv.adjoint": _conv_info,
              "data.pairs": _pairs_info}


class Tracer:
    """Collects spans from wrapped orbitnet calls; one per benchmark run."""

    def __init__(self):
        self.spans = []
        self.step = None
        self._stack = []
        self._saved = []

    def wrap(self, fn, name):
        tracer = self
        hook = INFO_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, _hook=hook, **kwargs)
        return wrapper

    def call(self, name, fn, *args, _hook=None, **kwargs):
        """Run fn inside a span; a same-name span already open is not split."""
        if any(self.spans[i][NAME] == name for i in self._stack):
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.step, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if _hook is not None:
            span[INFO] = _hook(self, args, result)
        return result

    def install(self, step):
        """Replace every traced attribute; spans until `uninstall` get `step`."""
        self.step = step
        modules = [m for k, m in list(sys.modules.items())
                   if k == "orbitnet" or k.startswith("orbitnet.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
        self.step = None

    def write(self, path, summary):
        fields = ["name", "start", "end", "parent", "step", "info"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "summary": summary,
                       "spans": self.spans}, fh)


def step_spans(spans, steps):
    """Spans recorded during the given step ids, grouped by step."""
    by_step = {s: [] for s in steps}
    for index, span in enumerate(spans):
        if span[STEP] in by_step:
            by_step[span[STEP]].append(index)
    return by_step


def self_times(spans, indices):
    """name -> (calls, inclusive seconds, self seconds) over span indices."""
    child = {}
    for i in indices:
        parent = spans[i][PARENT]
        child[parent] = (child.get(parent, 0.0)
                         + spans[i][END] - spans[i][START])
    table = {}
    for i in indices:
        name = spans[i][NAME]
        dur = spans[i][END] - spans[i][START]
        calls, incl, own = table.get(name, (0, 0.0, 0.0))
        table[name] = (calls + 1, incl + dur, own + dur - child.get(i, 0.0))
    return table

"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array and records the operations applied to it.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every reachable
tensor created with ``requires_grad=True``. The tape is a plain DAG of
parent links; there is no graph optimization, and a graph belongs to a
single training run (see the concurrency notes in the README).

An op is its forward value plus one vector-Jacobian product (vjp) per
parent, built by ``Tensor._node``, which sums each vjp back to its parent's
shape and skips a parent that needs no gradient. Five nodes keep their own
backward, as their parents share work or the node picks a route: ``@``
(four operand-rank cases), ``soft_threshold`` (one mask serves u and lam),
``stack`` (one split of g), the conv correlation (z first, to keep the
summation order) and ``BatchNorm2d`` (one rebuilt x_hat serves all three).

Default precision is float64. float32 is supported for training by
constructing parameters with ``dtype=np.float32``; gradients follow the
data dtype. A Python ``int`` or ``float`` met by a binary op (``alpha * t``,
``var + eps``, ``1.0 - t``) is lifted in the dtype of the other operand, so
a float32 graph stays float32: under NumPy 2 promotion rules a float64 0-d
array would upcast everything it touches. Arrays keep their own dtype.

Only leaves keep their gradients. ``backward()`` drops an op output's
``.grad`` as soon as that op's backward has used it, as PyTorch does for
non-leaf tensors, so a training step never holds every intermediate
gradient at once. The ops and their parent links stay, so a second
``backward()`` on the same graph adds the same leaf gradients again.

Importing this module fixes the process's glibc heap thresholds: blocks up
to 32 MiB come from the heap rather than from fresh mmaps, and the heap top
is trimmed only past 1 GiB of free space. With glibc's dynamic thresholds
the step's speed depended on heap history, and a step that frees its
buffers early had its heap trimmed after each step and faulted back in by
the next forward pass. The setting overrides ``MALLOC_MMAP_THRESHOLD_`` and
``MALLOC_TRIM_THRESHOLD_``; where libc has no ``mallopt`` it is skipped.
"""

import ctypes
from contextlib import contextmanager

import numpy as np

_grad_enabled = True


def _fix_heap_thresholds():
    """mallopt(M_MMAP_THRESHOLD, 32 MiB) and mallopt(M_TRIM_THRESHOLD, 1 GiB)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)    # M_TRIM_THRESHOLD


_fix_heap_thresholds()


@contextmanager
def no_grad():
    """Disable graph recording inside the block (eval-mode forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional real array, optionally participating in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=()):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents = _parents if self.requires_grad else ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _lift(x, like=None):
        """Wrap x as a Tensor; a Python int or float takes `like`'s dtype."""
        if isinstance(x, Tensor):
            return x
        if like is not None and isinstance(x, (int, float)):
            return Tensor(np.asarray(x, dtype=like.dtype))
        return Tensor(x)

    @staticmethod
    def _result(data, parents, backward):
        """Create an op output; drops the tape when no parent needs grad."""
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents),
                     _parents=tuple(parents))
        if out.requires_grad:
            out._backward = backward
        return out

    @staticmethod
    def _node(data, parents, *vjps):
        """Op output whose backward sends `vjps[i](g)` to parent i."""
        def backward(g):
            for parent, vjp in zip(parents, vjps):
                if parent.requires_grad:
                    parent._accumulate(_unbroadcast(vjp(g), parent.shape))
        return Tensor._result(data, parents, backward)

    def _accumulate(self, grad):
        # grads are never mutated in place, so storing a view or a shared
        # array is safe; accumulation always rebinds
        grad = np.asarray(grad, dtype=self.data.dtype)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        """Reverse-mode pass from this scalar; fills `.grad` on reachable leaves.

        An op output's gradient is dropped once its backward has run.
        """
        if self.size != 1:
            raise ValueError(
                f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise RuntimeError(
                "loss is detached from the graph (no tensor on its tape "
                "requires grad)")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self, Tensor._lift(other, self)
        return Tensor._node(a.data + b.data, (a, b), lambda g: g, lambda g: g)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._node(-self.data, (self,), lambda g: -g)

    def __sub__(self, other):
        a, b = self, Tensor._lift(other, self)
        return Tensor._node(a.data - b.data, (a, b),
                            lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return Tensor._lift(other, self) - self

    def __mul__(self, other):
        a, b = self, Tensor._lift(other, self)
        return Tensor._node(a.data * b.data, (a, b),
                            lambda g: g * b.data, lambda g: g * a.data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, Tensor._lift(other, self)
        return Tensor._node(a.data / b.data, (a, b), lambda g: g / b.data,
                            lambda g: -g * a.data / (b.data * b.data))

    def __rtruediv__(self, other):
        return Tensor._lift(other, self) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Tensor._node(self.data ** exponent, (self,), lambda g:
                            g * exponent * self.data ** (exponent - 1))

    def __matmul__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other
        if min(a.ndim, b.ndim) == 1 and max(a.ndim, b.ndim) > 2:
            raise ValueError("a 1-D matmul operand needs a 1-D or 2-D partner")

        def backward(g):
            if a.ndim >= 2 and b.ndim >= 2:
                # stacks broadcast over the leading axes; sum them back out
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            elif a.ndim == 2:
                ga, gb = np.outer(g, b.data), a.data.T @ g
            elif b.ndim == 2:
                ga, gb = b.data @ g, np.outer(a.data, g)
            else:
                ga, gb = g * b.data, g * a.data
            if a.requires_grad:
                a._accumulate(ga)
            if b.requires_grad:
                b._accumulate(gb)
        return Tensor._result(a.data @ b.data, (a, b), backward)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape
        return Tensor._node(self.data.reshape(shape), (self,),
                            lambda g: g.reshape(old_shape))

    def transpose(self, axes=None):
        if axes is None:
            axes = tuple(range(self.ndim))[::-1]
        inverse = tuple(np.argsort(axes))
        return Tensor._node(self.data.transpose(axes), (self,),
                            lambda g: g.transpose(inverse))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.shape
        squeezed = axis is not None and not keepdims
        return Tensor._node(
            self.data.sum(axis=axis, keepdims=keepdims), (self,),
            lambda g: np.broadcast_to(
                np.expand_dims(g, axis) if squeezed else g, shape))

    def mean(self, axis=None, keepdims=False):
        total = self.sum(axis, keepdims)
        return total / (self.size // total.size)


# -- free functions -----------------------------------------------------------

def parameter(data, dtype=np.float64):
    """Trainable tensor (leaf of the tape)."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def soft_threshold(u, lam, one_sided=False, in_place=False):
    """Shrinkage nonlinearity.

    Two-sided: sign(u) * max(|u| - lam, 0). One-sided: max(u - lam, 0),
    a shifted rectifier. `lam` must be elementwise nonnegative and may be a
    scalar, array, or Tensor broadcastable against `u`; the subgradient at
    the kinks is taken as zero. A NaN in u gives a NaN output.

    The node keeps no mask or sign: backward reads only its own output and
    rebuilds them from it, as out > 0 one-sided and as out != 0 and
    sign(out) two-sided. That is exact, because with gradual underflow
    u - lam is zero only where u == lam, and the sign is used only where
    the mask is set.

    By default the result is a new array. With `in_place` it is written
    into u's own buffer, which must have the result's shape and dtype and
    which nothing else may read afterwards: the unfolding layer passes the
    fresh output of its correlation.
    """
    u = Tensor._lift(u)
    lam = Tensor._lift(lam, u)
    if np.any(lam.data < 0):
        raise ValueError("soft_threshold requires lam >= 0 elementwise")
    out = u.data if in_place else np.empty(
        np.broadcast_shapes(u.shape, lam.shape),
        np.result_type(u.data, lam.data))
    if one_sided:
        np.subtract(u.data, lam.data, out=out)
        # max(-0.0, 0.0) is +0.0, the zero of the dead zone
        np.maximum(out, 0.0, out=out)
    else:
        dead = np.abs(u.data) <= lam.data
        np.subtract(u.data, np.sign(u.data) * lam.data, out=out)
        out[dead] = 0.0

    def backward(g):
        gm = g * (out > 0 if one_sided else out != 0)
        if u.requires_grad:
            u._accumulate(_unbroadcast(gm, u.shape))
        if lam.requires_grad:
            # negating after the reduction is exact, and one pass cheaper
            lam._accumulate(-_unbroadcast(gm if one_sided
                                          else gm * np.sign(out), lam.shape))
    return Tensor._result(out, (u, lam), backward)


def log(x):
    x = Tensor._lift(x)
    return Tensor._node(np.log(x.data), (x,), lambda g: g / x.data)


def frobenius_norm(x, axis=None):
    """sqrt(sum(x**2)) over `axis`; a zero slice gets a zero subgradient."""
    x = Tensor._lift(x)
    norm = np.sqrt(np.sum(x.data * x.data, axis=axis, keepdims=True))
    return Tensor._node(np.squeeze(norm, axis=axis), (x,),
                        lambda g: g.reshape(norm.shape) * x.data
                        / np.where(norm > 0, norm, 1))


def stack(tensors, axis=0):
    """Stack tensors along a new axis."""
    tensors = [Tensor._lift(t) for t in tensors]

    def backward(g):
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)
    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._result(data, tuple(tensors), backward)


def cross_entropy(logits, labels):
    """Mean cross-entropy of raw logits [N, C] against integer labels [N]."""
    logits = Tensor._lift(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    exps = np.exp(z - zmax)
    lse = np.log(exps.sum(axis=1, keepdims=True)) + zmax
    logp = z - lse
    loss = -logp[np.arange(n), labels].mean()

    def vjp(g):
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        return g * grad / n
    return Tensor._node(np.asarray(loss, dtype=z.dtype), (logits,), vjp)


def gradient_of(loss, params):
    """Backpropagate from a scalar loss; returns the gradient of each param.

    Raises if the loss is not a scalar or is detached from the tape. Params
    whose grad was untouched by the pass come back as zeros.
    """
    for p in params:
        p.grad = None
    loss.backward()
    return [p.grad if p.grad is not None else np.zeros_like(p.data)
            for p in params]

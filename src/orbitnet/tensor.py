"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array and records the operations applied to it.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every reachable
tensor created with ``requires_grad=True``. The tape is a plain DAG of
parent links; there is no graph optimization, and a graph belongs to a
single training run (see the concurrency notes in the README).

Default precision is float64. float32 is supported for training by
constructing parameters with ``dtype=np.float32``; gradients follow the
data dtype. A Python ``int`` or ``float`` met by a binary op (``alpha * t``,
``var + eps``, ``1.0 - t``) is lifted in the dtype of the other operand, so
a float32 graph stays float32: under NumPy 2 promotion rules a float64 0-d
array would upcast everything it touches. Arrays keep their own dtype.
"""

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


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

    def detach(self):
        return Tensor(self.data)

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
        track = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track,
                     _parents=tuple(parents) if track else ())
        if track:
            out._backward = backward
        return out

    def _accumulate(self, grad):
        # grads are never mutated in place, so storing a view or a shared
        # array is safe; accumulation always rebinds
        grad = np.asarray(grad, dtype=self.data.dtype)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self):
        """Reverse-mode pass from this scalar; fills `.grad` on reachable leaves."""
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

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        return Tensor._result(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            a._accumulate(-g)
        return Tensor._result(-a.data, (a,), backward)

    def __sub__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.shape))
        return Tensor._result(a.data - b.data, (a, b), backward)

    def __rsub__(self, other):
        return Tensor._lift(other, self) - self

    def __mul__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))
        return Tensor._result(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data),
                                           b.shape))
        return Tensor._result(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other):
        return Tensor._lift(other, self) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a, p = self, exponent

        def backward(g):
            a._accumulate(g * p * a.data ** (p - 1))
        return Tensor._result(a.data ** p, (a,), backward)

    def __matmul__(self, other):
        other = Tensor._lift(other, self)
        a, b = self, other
        if a.ndim > 2 or b.ndim > 2:
            raise ValueError("matmul supports 1-D and 2-D operands only")

        def backward(g):
            if a.ndim == 2 and b.ndim == 2:
                ga, gb = g @ b.data.T, a.data.T @ g
            elif a.ndim == 2 and b.ndim == 1:
                ga, gb = np.outer(g, b.data), a.data.T @ g
            elif a.ndim == 1 and b.ndim == 2:
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
        a = self
        old_shape = a.shape

        def backward(g):
            a._accumulate(g.reshape(old_shape))
        return Tensor._result(a.data.reshape(shape), (a,), backward)

    def transpose(self, axes=None):
        a = self
        if axes is None:
            axes = tuple(range(a.ndim))[::-1]
        inverse = tuple(np.argsort(axes))

        def backward(g):
            a._accumulate(g.transpose(inverse))
        return Tensor._result(a.data.transpose(axes), (a,), backward)

    @property
    def T(self):
        return self.transpose()

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self
        shape = a.shape

        def backward(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, shape))
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, shape))
        return Tensor._result(a.data.sum(axis=axis, keepdims=keepdims),
                              (a,), backward)

    def mean(self, axis=None, keepdims=False):
        a = self
        shape = a.shape
        if axis is None:
            count = a.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([shape[ax] for ax in axes]))

        def backward(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g / count, shape))
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g / count, shape))
        return Tensor._result(a.data.mean(axis=axis, keepdims=keepdims),
                              (a,), backward)


# -- free functions -----------------------------------------------------------

def as_tensor(x):
    return Tensor._lift(x)


def parameter(data, dtype=np.float64):
    """Trainable tensor (leaf of the tape)."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def soft_threshold(u, lam, one_sided=False):
    """Shrinkage nonlinearity.

    Two-sided: sign(u) * max(|u| - lam, 0). One-sided: max(u - lam, 0),
    a shifted rectifier. `lam` must be elementwise nonnegative and may be a
    scalar, array, or Tensor broadcastable against `u`; the subgradient at
    the kinks is taken as zero.
    """
    u = Tensor._lift(u)
    lam = Tensor._lift(lam, u)
    if np.any(lam.data < 0):
        raise ValueError("soft_threshold requires lam >= 0 elementwise")
    if one_sided:
        diff = u.data - lam.data
        mask = diff > 0
        out_data = np.where(mask, diff, 0.0)
        sign = None
    else:
        mask = np.abs(u.data) > lam.data
        sign = np.sign(u.data)
        out_data = np.where(mask, u.data - sign * lam.data, 0.0)

    def backward(g):
        gm = g * mask
        if u.requires_grad:
            u._accumulate(_unbroadcast(gm, u.shape))
        if lam.requires_grad:
            # negating after the reduction is exact, and one pass cheaper
            lam._accumulate(-_unbroadcast(gm if sign is None else gm * sign,
                                          lam.shape))
    return Tensor._result(out_data, (u, lam), backward)


def relu(u):
    return soft_threshold(u, 0.0, one_sided=True)


def log(x):
    x = Tensor._lift(x)

    def backward(g):
        x._accumulate(g / x.data)
    return Tensor._result(np.log(x.data), (x,), backward)


def frobenius_norm(x):
    """sqrt(sum(x**2)); the subgradient at x == 0 is taken as zero."""
    x = Tensor._lift(x)
    value = float(np.sqrt(np.sum(x.data * x.data)))

    def backward(g):
        if value > 0.0:
            x._accumulate(g * x.data / value)
    return Tensor._result(np.asarray(value, dtype=x.dtype), (x,), backward)


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

    def backward(g):
        grad = np.exp(logp)
        grad[np.arange(n), labels] -= 1.0
        logits._accumulate(g * grad / n)
    return Tensor._result(np.asarray(loss, dtype=z.dtype), (logits,), backward)


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

"""Cyclic linear group actions on matrix-valued filters.

A filter is an n x m matrix. Its vectorization (column-major stacking) is
acted on by a trainable (nm x nm) generator matrix A; pulling the result
back through the inverse vectorization yields a linear map on filters that
can realize *every* linear operator on the n x m matrix space, including
operators no n x n left-multiplication can express. A filter set of p
elements is the orbit of a basis filter under repeated application of that
map.

Invertibility of the generator (membership in the general linear group) is
encouraged during training either through an auxiliary inverse-candidate
matrix or through singular-value penalties.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .svd import jacobi_svd, singular_values
from .tensor import Tensor, frobenius_norm, log, parameter


def vec(x):
    """Column-major stacking of an n x m matrix into a length-nm vector."""
    if isinstance(x, Tensor):
        return x.transpose().reshape(x.size)
    return np.asarray(x).reshape(-1, order="F")


def vec_inv(a, n, m):
    """Inverse of `vec`: length-nm vector back to an n x m matrix."""
    if isinstance(a, Tensor):
        if a.size != n * m:
            raise ValueError(f"vector of length {a.size} is not {n}x{m}")
        return a.reshape(m, n).transpose()
    a = np.asarray(a)
    if a.size != n * m:
        raise ValueError(f"vector of length {a.size} is not {n}x{m}")
    return a.reshape(n, m, order="F")


@dataclass
class GroupAction:
    """Generator of a cyclic group acting on vectorized n x m filters.

    `a` is the (nm x nm) generator; `a_tilde` is the inverse candidate used
    only by the training-time invertibility loss. `order` is the number of
    filters the orbit produces.
    """

    a: Tensor
    a_tilde: Tensor
    order: int
    filter_rows: int
    filter_cols: int

    def __post_init__(self):
        d = self.filter_rows * self.filter_cols
        if self.a.shape != (d, d) or self.a_tilde.shape != (d, d):
            raise ValueError(
                f"generator must be {d}x{d} for {self.filter_rows}x"
                f"{self.filter_cols} filters, got {self.a.shape} and "
                f"{self.a_tilde.shape}")
        if self.order < 1:
            raise ValueError("group order must be >= 1")

    @classmethod
    def initialize(cls, n, m, order, rng, eps=0.01, dtype=np.float64):
        """Near-identity start: A = I + eps*G with G standard Gaussian."""
        d = n * m
        a = np.eye(d) + eps * rng.standard_normal((d, d))
        a_tilde = np.eye(d) + eps * rng.standard_normal((d, d))
        return cls(parameter(a, dtype=dtype), parameter(a_tilde, dtype=dtype),
                   order, n, m)


def apply_action(action, x):
    """The learned linear map on filters: vec_inv(A @ vec(X))."""
    n, m = action.filter_rows, action.filter_cols
    if isinstance(x, Tensor):
        if x.shape != (n, m):
            raise ValueError(f"filter shape {x.shape} != ({n}, {m})")
        return vec_inv(action.a @ vec(x), n, m)
    x = np.asarray(x)
    if x.shape != (n, m):
        raise ValueError(f"filter shape {x.shape} != ({n}, {m})")
    return vec_inv(action.a.data @ vec(x), n, m)


def apply_action_stack(action, x):
    """Apply the action channel-wise to a Tensor stack [C, n, m]."""
    n, m = action.filter_rows, action.filter_cols
    c = x.shape[0]
    if x.shape[1:] != (n, m):
        raise ValueError(f"stack shape {x.shape} != (C, {n}, {m})")
    # rows of `cols` are the per-channel vectorizations
    cols = x.transpose((0, 2, 1)).reshape(c, n * m)
    out = cols @ action.a.transpose()
    return out.reshape(c, m, n).transpose((0, 2, 1))


@dataclass
class FilterOrbit:
    """A basis filter together with its p images under repeated action."""

    basis: Tensor
    expanded: list = field(default_factory=list)


def expand_orbit(action, basis):
    """Orbit [W, phi(W), ..., phi^{p-1}(W)] by repeated application.

    Powers of A are never formed explicitly; each element is the action
    applied to the previous one.
    """
    basis = Tensor._lift(basis)
    elements = [basis]
    for _ in range(action.order - 1):
        elements.append(apply_action(action, elements[-1]))
    return FilterOrbit(basis=basis, expanded=elements)


def invertibility_loss(action, mu, squared=False):
    """mu * ||A @ A_tilde - I||_F, differentiable in both matrices.

    `squared=True` penalizes the squared norm instead; the unsquared form
    is the default.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    d = action.a.shape[0]
    residual = action.a @ action.a_tilde - np.eye(d, dtype=action.a.dtype)
    if squared:
        return mu * (residual * residual).sum()
    return mu * frobenius_norm(residual)


# a Python float, so that it keeps a float32 penalty in float32
_SIGMA_FLOOR = float(np.finfo(np.float64).eps)


def svd_invertibility_loss(action, mu, variant="sum"):
    """Singular-value penalty pushing A away from rank deficiency.

    variant="sum": -mu * sum_i sigma_i(A).
    variant="logdet": -mu * log(prod_i sigma_i(A)); singular values at or
    below machine epsilon are clamped to it (large finite penalty, with a
    warning) instead of producing an infinite loss.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    sigma = singular_values(action.a)
    if variant == "sum":
        return -mu * sigma.sum()
    if variant == "logdet":
        mask = (sigma.data > _SIGMA_FLOOR).astype(sigma.dtype)
        if not mask.all():
            warnings.warn(
                "singular value at machine epsilon; log-product penalty "
                "clamped to a finite value", RuntimeWarning, stacklevel=2)
            # clamped entries become constants, the rest keep their gradient
            safe = sigma * mask + _SIGMA_FLOOR * (1.0 - mask)
            return -mu * log(safe).sum()
        return -mu * log(sigma).sum()
    raise ValueError(f"unknown svd loss variant: {variant!r}")


def min_singular_value(action):
    return float(jacobi_svd(action.a.data)[1][-1])


def order_defect(action):
    """||A^p - I||_F: how far the generator is from having finite order p.

    Diagnostic only; training never optimizes against it.
    """
    a = action.a.data
    power = a
    for _ in range(action.order - 1):
        power = power @ a
    return float(np.linalg.norm(power - np.eye(a.shape[0])))


def linear_map_to_matrix(f, n, m, rng=None, probes=3, tol=1e-9):
    """Matrix of a linear map on n x m matrices, in the vec basis.

    Column j of the result is vec(f(vec_inv(e_j))), so the returned
    (nm x nm) matrix B satisfies vec(f(X)) == B @ vec(X) for every X.
    The map is probed for linearity on random inputs first and rejected if
    f(aX + bY) deviates from a f(X) + b f(Y) beyond `tol` (relative).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(probes):
        x = rng.standard_normal((n, m))
        y = rng.standard_normal((n, m))
        alpha, beta = rng.standard_normal(2)
        lhs = np.asarray(f(alpha * x + beta * y), dtype=np.float64)
        rhs = alpha * np.asarray(f(x)) + beta * np.asarray(f(y))
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
        if np.linalg.norm(lhs - rhs) > tol * scale:
            raise ValueError("map failed the linearity probe; only linear "
                             "maps have a matrix in the vec basis")
    d = n * m
    out = np.empty((d, d))
    basis = np.zeros(d)
    for j in range(d):
        basis[j] = 1.0
        out[:, j] = vec(np.asarray(f(vec_inv(basis, n, m)), dtype=np.float64))
        basis[j] = 0.0
    return out

"""Linear group actions on matrix-valued filters.

A filter is an n x m matrix. Its vectorization (column-major stacking) is
acted on by a trainable (nm x nm) generator matrix A; pulling the result
back through the inverse vectorization yields a linear map on filters that
can realize *every* linear operator on the n x m matrix space, including
operators no n x n left-multiplication can express. A filter set of p
elements is the orbit of a basis filter under repeated application of that
map. Nothing makes A^p = I: p is only the orbit length, and
`order_defect` measures the distance. A `GroupAction` holds one generator
or a [K, d, d] stack of them (a network layer holds one stack of its K
groups); the action, the orbit and the losses take either, and so do the
diagnostics, which work in float64 and give one value per generator.

Invertibility of the generator (membership in the general linear group) is
encouraged during training either through an auxiliary inverse-candidate
matrix or through singular-value penalties.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .svd import jacobi_svd, singular_values
from .tensor import Tensor, frobenius_norm, log, parameter


def _swap_last(x):
    """x with its last two axes exchanged; a Tensor stays on the tape."""
    return x.transpose(tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2))


def vec(x):
    """Column-major stacking of each n x m matrix of [..., n, m] into nm."""
    x = x if isinstance(x, Tensor) else np.asarray(x)
    *lead, n, m = x.shape
    return _swap_last(x).reshape(*lead, n * m)


def vec_inv(a, n, m):
    """Inverse of `vec`: [..., nm] vectors back to [..., n, m] matrices."""
    a = a if isinstance(a, Tensor) else np.asarray(a)
    if a.shape[-1:] != (n * m,):
        raise ValueError(f"vectors of shape {a.shape} are not {n}x{m}")
    return _swap_last(a.reshape(*a.shape[:-1], m, n))


@dataclass
class GroupAction:
    """Generators acting on vectorized n x m filters.

    `a` is one (nm x nm) generator or a stack [K, nm, nm] of K of them;
    `a_tilde` has the same shape and holds the inverse candidates used only
    by the training-time invertibility loss. `order` is the number of
    filters each orbit produces.
    """

    a: Tensor
    a_tilde: Tensor
    order: int
    filter_rows: int
    filter_cols: int
    init_eps = 0.01

    def __post_init__(self):
        d = self.filter_rows * self.filter_cols
        if self.a.shape[-2:] != (d, d) or self.a_tilde.shape != self.a.shape:
            raise ValueError(
                f"generator must be {d}x{d} for {self.filter_rows}x"
                f"{self.filter_cols} filters, got {self.a.shape} and "
                f"{self.a_tilde.shape}")
        if self.order < 1:
            raise ValueError("group order must be >= 1")

    @classmethod
    def initialize(cls, n, m, order, rng, dtype=np.float64, stack=()):
        """Near-identity start: A = I + init_eps*G with G standard Gaussian.

        `stack=(K,)` draws K pairs in the order of K separate calls.
        """
        d = n * m
        g = cls.init_eps * rng.standard_normal((*stack, 2, d, d))
        a = np.eye(d) + g[..., 0, :, :]
        a_tilde = np.eye(d) + g[..., 1, :, :]
        return cls(parameter(a, dtype=dtype), parameter(a_tilde, dtype=dtype),
                   order, n, m)


def apply_action(action, x):
    """The learned linear map on filters: vec_inv(A @ vec(X)) on [..., n, m].

    A [K, d, d] stack acts on [..., K, C, n, m], generator k on group k.
    """
    n, m = action.filter_rows, action.filter_cols
    a = action.a if isinstance(x, Tensor) else action.a.data
    x = x if isinstance(x, Tensor) else np.asarray(x)
    if x.shape[-2:] != (n, m):
        raise ValueError(f"filter shape {x.shape} does not end in ({n}, {m})")
    return vec_inv(vec(x) @ _swap_last(a), n, m)


@dataclass
class FilterOrbit:
    """The p filters [W, phi(W), ..., phi^{p-1}(W)] of one orbit."""

    expanded: list


def expand_orbit(action, basis):
    """Orbit [W, phi(W), ..., phi^{p-1}(W)] by repeated application.

    Powers of A are never formed explicitly; each element is the action
    applied to the previous one.
    """
    basis = Tensor._lift(basis)
    elements = [basis]
    for _ in range(action.order - 1):
        elements.append(apply_action(action, elements[-1]))
    return FilterOrbit(expanded=elements)


def invertibility_loss(action, mu):
    """mu * ||A @ A_tilde - I||_F, differentiable in both matrices.

    A stack of generators contributes the sum of its per-group norms.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    d = action.a.shape[-1]
    residual = action.a @ action.a_tilde - np.eye(d, dtype=action.a.dtype)
    return mu * frobenius_norm(residual, axis=(-2, -1)).sum()


# a Python float, so that it keeps a float32 penalty in float32
_SIGMA_FLOOR = float(np.finfo(np.float64).eps)


def svd_invertibility_loss(action, mu, variant="svd_sum"):
    """Singular-value penalty pushing A away from rank deficiency.

    A stack of generators contributes the sum over its groups.
    variant="svd_sum": -mu * sum_i sigma_i(A).
    variant="svd_logdet": -mu * log(prod_i sigma_i(A)); singular values at or
    below machine epsilon are clamped to it (large finite penalty, with a
    warning) instead of producing an infinite loss.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    sigma = singular_values(action.a)
    if variant == "svd_sum":
        return -mu * sigma.sum()
    if variant == "svd_logdet":
        mask = (sigma.data > _SIGMA_FLOOR).astype(sigma.dtype)
        if not mask.all():
            warnings.warn(
                "singular value at machine epsilon; log-product penalty "
                "clamped to a finite value", RuntimeWarning, stacklevel=2)
        # clamped entries become constants, the rest keep their gradient
        return -mu * log(sigma * mask + _SIGMA_FLOOR * (1.0 - mask)).sum()
    raise ValueError(f"unknown svd loss variant: {variant!r}")


def _frobenius(m):
    """||M||_F per matrix by one BLAS dot each, as `np.linalg.norm` takes."""
    flat = m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])
    return np.sqrt(np.vecdot(flat, flat))


def invertibility_residual(action):
    """Raw ||A A~ - I||_F, evaluated in float64 for every dtype."""
    a = np.asarray(action.a.data, dtype=np.float64)
    a_tilde = np.asarray(action.a_tilde.data, dtype=np.float64)
    return _frobenius(a @ a_tilde - np.eye(a.shape[-1]))


def min_singular_value(action):
    return jacobi_svd(action.a.data)[1].min(axis=-1)


def order_defect(action):
    """||A^p - I||_F: how far the generator is from having finite order p.

    Diagnostic only, evaluated in float64; training never optimizes
    against it.
    """
    a = np.asarray(action.a.data, dtype=np.float64)
    power = a
    for _ in range(action.order - 1):
        power = power @ a
    return _frobenius(power - np.eye(a.shape[-1]))


def stack_map_to_matrix(f, n, m):
    """Matrix of a linear map that acts plane by plane on [k, n, m] stacks.

    Same contract as `linear_map_to_matrix`; f runs once per probe term, on
    three fixed-seed random planes, and once on the stack of the nm basis
    planes vec_inv(e_j).
    """
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 3, n, m))
    alpha, beta = rng.standard_normal((2, 3, 1, 1))
    lhs = np.asarray(f(alpha * x + beta * y), dtype=np.float64)
    rhs = alpha * np.asarray(f(x)) + beta * np.asarray(f(y))
    scale = np.maximum(np.linalg.norm(lhs, axis=(1, 2)),
                       np.linalg.norm(rhs, axis=(1, 2)))
    err = np.linalg.norm(lhs - rhs, axis=(1, 2))
    if np.any(err > 1e-9 * np.maximum(scale, 1.0)):
        raise ValueError("map failed the linearity probe; only linear "
                         "maps have a matrix in the vec basis")
    d = n * m
    # plane j is vec_inv(e_j); vec of each output plane is a row of the result
    out = np.asarray(f(vec_inv(np.eye(d), n, m)), dtype=np.float64)
    return np.ascontiguousarray(vec(out).T)


def linear_map_to_matrix(f, n, m):
    """Matrix of a linear map on n x m matrices, in the vec basis.

    Column j of the result is vec(f(vec_inv(e_j))), so the returned
    (nm x nm) matrix B satisfies vec(f(X)) == B @ vec(X) for every X.
    The map is probed for linearity on random inputs first and rejected if
    f(aX + bY) deviates from a f(X) + b f(Y) by more than 1e-9 relative.
    """
    return stack_map_to_matrix(
        lambda planes: np.stack([np.asarray(f(p)) for p in planes]), n, m)

"""Recover a linear patch transform from example pairs.

The controlled experiment: given pairs (x, y) with y = T x for a known
linear patch transform T, fit a single 36x36 linear layer y_hat = A x by
gradient descent on the mean squared error, and independently by the
closed-form least-squares solution. Both are compared against the analytic
operator matrix of the transform.

The gradient of mean ||X A^T - Y||^2 over n pairs of dimension d is
2 (A G - C) / (n d) with G = X^T X and C = Y^T X, formed once, so each
Adam epoch costs O(d^3) whatever the number of pairs. Both fits report
`train_mse`, the mean squared error of the `a_hat` they return.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .optim import Adam
from .tensor import parameter


@dataclass
class SyntheticFit:
    a_hat: np.ndarray
    train_mse: float
    holdout_mse: float = float("nan")
    max_abs_err: float = float("nan")
    rel_fro_err: float = float("nan")
    rank_deficient: bool = False

    def compare(self, reference, holdout_x=None, holdout_y=None):
        """Fill the comparison metrics against an analytic operator."""
        diff = self.a_hat - reference
        self.max_abs_err = float(np.max(np.abs(diff)))
        self.rel_fro_err = float(np.linalg.norm(diff)
                                 / max(np.linalg.norm(reference), 1e-300))
        if holdout_x is not None:
            pred = holdout_x @ self.a_hat.T
            self.holdout_mse = float(np.mean((pred - holdout_y) ** 2))
        return self


def _pairs(xs, ys):
    """Both pair arrays as float64, rejected unless 2-D and the same shape."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 2 or xs.shape != ys.shape:
        raise ValueError(f"pairs need 2-D xs and ys of one shape [n, d], "
                         f"got xs {xs.shape} and ys {ys.shape}")
    return xs, ys


def check_gd_options(epochs, lr):
    """Reject an epoch count below 0 and a learning rate that is not a
    finite positive number; ascent or NaN would still write a fit."""
    if epochs < 0:
        raise ValueError(f"epochs must be 0 or more, got {epochs}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr}")


def fit_action_gd(xs, ys, epochs=200, lr=0.01):
    """Full-batch Adam on mean ||y - A x||^2; no bias, no nonlinearity."""
    check_gd_options(epochs, lr)
    xs, ys = _pairs(xs, ys)
    n, d = xs.shape
    if n < d:
        warnings.warn(
            f"{n} pairs for a {d}x{d} operator is underdetermined",
            RuntimeWarning, stacklevel=2)
    gram, cross = xs.T @ xs, ys.T @ xs
    scale = 2.0 / (n * d)
    a = parameter(np.zeros((d, d)))
    opt = Adam({"A": a}, lr=lr)
    for epoch in range(epochs):
        a.grad = scale * (a.data @ gram - cross)
        try:
            opt.step()
        except FloatingPointError as err:
            raise RuntimeError(
                f"gradient fit diverged (non-finite gradient at epoch "
                f"{epoch}); try a smaller learning rate than {lr}") from err
    mse = float(np.mean((xs @ a.data.T - ys) ** 2))
    return SyntheticFit(a_hat=a.data.copy(), train_mse=mse)


def fit_action_lstsq(xs, ys):
    """Exact minimizer of the mean squared error, one solve per output row."""
    xs, ys = _pairs(xs, ys)
    for name, arr in (("xs", xs), ("ys", ys)):
        bad = arr.size - np.count_nonzero(np.isfinite(arr))
        if bad:
            raise ValueError(f"{name} has {bad} non-finite entries; "
                             f"least squares needs finite pairs")
    solution, _, rank, _ = np.linalg.lstsq(xs, ys, rcond=None)
    deficient = rank < xs.shape[1]
    if deficient:
        warnings.warn(
            f"input matrix has rank {rank} < {xs.shape[1]}; returning the "
            f"minimum-norm solution", RuntimeWarning, stacklevel=2)
    mse = float(np.mean((xs @ solution - ys) ** 2))
    return SyntheticFit(a_hat=solution.T, train_mse=mse,
                        rank_deficient=deficient)


def analytic_operator(transform):
    """Ground-truth matrix of the transform in the vec basis."""
    return transform.operator()

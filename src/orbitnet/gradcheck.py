"""Finite-difference verification of tape gradients."""

import numpy as np

from .tensor import gradient_of


def numerical_gradient(loss_fn, param):
    """Central-difference gradient of a scalar-valued loss w.r.t. one tensor.

    `loss_fn` takes no arguments and must re-read `param.data` on every
    call; entries of the parameter are perturbed in place, by h = 1e-5.
    """
    h = 1e-5
    base = param.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = float(loss_fn().data)
        flat[i] = orig - h
        down = float(loss_fn().data)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(a, b):
    """Norm-relative difference, robust when both sides are near zero."""
    denom = max(float(np.linalg.norm(a)) + float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def check_gradients(loss_fn, params, rtol=1e-4):
    """Compare tape gradients against central differences for each param.

    `params` is a dict of name -> Tensor. Returns {name: relative_error};
    raises AssertionError on the first parameter exceeding `rtol`.
    """
    analytic = dict(zip(params.keys(),
                        gradient_of(loss_fn(), list(params.values()))))
    errors = {}
    for name, p in params.items():
        numeric = numerical_gradient(loss_fn, p)
        err = relative_error(analytic[name], numeric)
        errors[name] = err
        if not err < rtol:
            raise AssertionError(f"gradient mismatch for '{name}': relative "
                                 f"error {err:.3e} >= {rtol:.1e}")
    return errors

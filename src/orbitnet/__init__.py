"""Unfolded sparse-coding networks with learned linear group actions on filters.

The names below are re-exported lazily (PEP 562): importing the package,
or a submodule such as `orbitnet.cli`, does not load numpy, so `--threads`
can set the BLAS thread variables before numpy starts its thread pool.
"""

import importlib

_EXPORTS = {
    "tensor": ("Tensor", "cross_entropy", "frobenius_norm", "gradient_of",
               "no_grad", "parameter", "soft_threshold", "stack"),
    "conv": ("avg_pool_to", "conv2d_adjoint", "conv2d_same"),
    "svd": ("jacobi_svd", "singular_values"),
    "optim": ("Adam", "lr_at"),
    "gradcheck": ("check_gradients", "numerical_gradient", "relative_error"),
    "groups": ("FilterOrbit", "GroupAction", "apply_action", "expand_orbit",
               "invertibility_loss", "linear_map_to_matrix", "order_defect",
               "svd_invertibility_loss", "vec", "vec_inv"),
    "network": ("BatchNorm2d", "GroupConvLayer", "UnfoldedNetwork",
                "ista_step_residual_form", "task_loss", "training_loss"),
    "config": ("RunConfig", "load_config"),
    "checkpoint": ("CheckpointError", "load_checkpoint", "save_checkpoint"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

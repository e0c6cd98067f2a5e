"""Singular values of square matrices, differentiable through the tape.

The decomposition is LAPACK's, through `np.linalg.svd`; `jacobi_svd` keeps
the contract the rest of the package relies on: square finite input (one
matrix or a stack of them), descending singular values, V (not V^T)
returned, and a zero column in U for every singular value that is exactly
zero.
"""

import numpy as np

from .tensor import Tensor


def jacobi_svd(a):
    """Full SVD of square matrices: returns (U, s, V) with a = U @ diag(s) @ V.T.

    `a` is one [d, d] matrix or a stack [..., d, d]; each matrix is
    decomposed on its own. Singular values come back sorted descending.
    Zero singular values get a zero column in U (any unit vector would be
    a valid completion; none of the uses here need one), so their
    subgradient in `singular_values` is zero.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    u, sigma, vt = np.linalg.svd(a)
    u = np.where(sigma[..., None, :] == 0.0, 0.0, u)
    return u, sigma, np.swapaxes(vt, -1, -2)


def singular_values(a):
    """Singular values of square Tensors [..., d, d], descending, on the tape.

    The gradient of sum(g_i * sigma_i) is sum(g_i * u_i v_i^T); at a zero
    singular value the subgradient is taken as zero.
    """
    a = Tensor._lift(a)
    u, sigma, v = jacobi_svd(a.data)
    return Tensor._node(sigma.astype(a.dtype), (a,), lambda g:
                        (u * g[..., None, :]) @ np.swapaxes(v, -1, -2))

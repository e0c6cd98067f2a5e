"""Post-hoc structure analysis of learned group generators.

Quantifies what a generator matrix does: how it transforms the identity
filter, how close it is to skew-symmetric or Toeplitz structure, and how
concentrated it becomes under conjugation by the discrete Fourier
transform (circulant matrices diagonalize exactly; random matrices stay
spread out). All scores are ratios of Frobenius norms, so they are
invariant to positive rescaling of the matrix and equal 1 exactly on the
reference structure.

Like the diagnostics in `groups`, each score takes one matrix or a
[..., d, d] stack and gives each matrix's own value bit for bit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .groups import (_frobenius, apply_action, invertibility_residual,
                     min_singular_value, order_defect)


def identity_probe(action):
    """Image of the identity filter under the action: vec_inv(A vec(I_n))."""
    n, m = action.filter_rows, action.filter_cols
    if n != m:
        raise ValueError(f"identity probe needs square filters, got {n}x{m}")
    return apply_action(action, np.eye(n))


def dft_matrix(n):
    """Unitary DFT matrix F[j, k] = exp(-2*pi*i*j*k/n) / sqrt(n)."""
    j, k = np.mgrid[0:n, 0:n]
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def dft_conjugate(a):
    """F A F^{-1} in complex arithmetic; diagonal iff A is circulant."""
    a = np.asarray(a)
    f = dft_matrix(a.shape[-1])
    return f @ a @ f.conj().T


def circulant_from_diagonal(d):
    """F^{-1} diag(d) F: the circulant with spectrum d.

    Returns the real part; a conjugate-symmetric d makes the construction
    exactly real.
    """
    d = np.asarray(d, dtype=np.complex128)
    f = dft_matrix(d.shape[0])
    return (f.conj().T @ np.diag(d) @ f).real


def offdiag_energy(m):
    """Fraction of squared magnitude living off the diagonal, in [0, 1]."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    power = np.abs(m) ** 2
    total = power.reshape(*m.shape[:-2], m.shape[-1] ** 2).sum(axis=-1)
    diag = power.diagonal(0, -2, -1).sum(axis=-1)
    zero = total == 0.0
    if np.any(zero):
        warnings.warn("all-zero matrix; off-diagonal fraction defined as 0",
                      RuntimeWarning, stacklevel=2)
    return (total - diag) / np.where(zero, 1.0, total)


def _norm_ratio(part, a):
    """||part|| / ||A|| per matrix; a zero matrix A raises."""
    norm = _frobenius(a)
    if np.any(norm == 0.0):
        raise ValueError("structure scores are undefined for the zero matrix")
    return _frobenius(part) / norm


def skew_score(a):
    """||skew part|| / ||A||: 1 iff A is exactly skew-symmetric."""
    a = np.asarray(a, dtype=np.float64)
    return _norm_ratio((a - a.mT) / 2.0, a)


def toeplitz_project(a):
    """Orthogonal projection onto Toeplitz matrices (average each diagonal)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[-1]
    out = np.empty_like(a)
    for offset in range(-n + 1, n):
        idx = np.arange(max(0, -offset), min(n, n - offset))
        out[..., idx, idx + offset] = a.diagonal(offset, -2, -1).mean(
            axis=-1, keepdims=True)
    return out


def toeplitz_score(a):
    """||Toeplitz projection|| / ||A||: 1 iff A is exactly Toeplitz."""
    return _norm_ratio(toeplitz_project(a), np.asarray(a, dtype=np.float64))


def quadrant_signs(a):
    """Mean sign of each quadrant: the coarse multi-scale signature."""
    signs = np.sign(np.asarray(a))
    h = signs.shape[-1] // 2
    halves = (slice(None, h), slice(h, None))
    means = [[signs[..., rows, cols].mean(axis=(-2, -1)) for cols in halves]
             for rows in halves]
    return np.moveaxis(np.array(means), (0, 1), (-2, -1))


@dataclass
class StructureReport:
    """One generator's scores; the residual is the raw ||A A~ - I||_F."""
    layer: int
    group: int
    skew: float
    toeplitz: float
    dft_offdiag: float
    order_defect: float
    min_singular_value: float
    invertibility_residual: float
    quadrant_signs: list
    identity_probe: list


def structure_report(action, layer=0):
    """The K reports of a layer's [K, d, d] generator stack, in group order."""
    a = action.a.data
    if a.ndim != 3:
        raise ValueError(f"expected a [K, d, d] stack, got shape {a.shape}")
    rows = zip(skew_score(a), toeplitz_score(a),
               offdiag_energy(dft_conjugate(a)), order_defect(action),
               min_singular_value(action), invertibility_residual(action),
               quadrant_signs(a).tolist(), identity_probe(action).tolist())
    # positional in field order: the six scores, then the two lists
    return [StructureReport(layer, k, *map(float, row[:6]), *row[6:])
            for k, row in enumerate(rows)]


# -- exports ---------------------------------------------------------------------

def save_csv(path, matrix):
    """Row-major CSV at full float precision.

    The bytes of np.savetxt(path, matrix, delimiter=",", fmt="%.17g"),
    formatted by one % over the whole matrix instead of one per row.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[:, None]    # a vector is one column, as in savetxt
    if matrix.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got shape "
                         f"{matrix.shape}")
    rows, cols = matrix.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(row * rows % tuple(matrix.ravel().tolist()))


def load_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_heatmap_pgm(path, matrix):
    """8-bit grayscale PGM mapping -vmax..+vmax to 0..255 (zero at 127.5).

    vmax is max|entry|, 1 for an all-zero matrix; the header carries it as
    the comment `# vmax <repr>`, which PGM readers skip.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    scale = float(np.max(np.abs(matrix))) or 1.0
    if not np.isfinite(scale):
        raise ValueError(f"{path}: no heatmap scale for non-finite entries")
    pixels = np.round((matrix / scale + 1.0) * 127.5).astype(np.uint8)
    header = "P5\n# vmax %r\n%d %d\n255\n" % (scale, *matrix.shape[::-1])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())


"""Post-hoc structure analysis of learned group generators.

Quantifies what a generator matrix does: how it transforms the identity
filter, how close it is to skew-symmetric or Toeplitz structure, and how
concentrated it becomes under conjugation by the discrete Fourier
transform (circulant matrices diagonalize exactly; random matrices stay
spread out). All scores are ratios of Frobenius norms, so they are
invariant to positive rescaling of the matrix and equal 1 exactly on the
reference structure.
"""

import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .groups import vec_inv


def identity_probe(action):
    """Image of the identity filter under the action: vec_inv(A vec(I_n))."""
    n, m = action.filter_rows, action.filter_cols
    if n != m:
        raise ValueError(f"identity probe needs square filters, got {n}x{m}")
    a = action.a.data if hasattr(action.a, "data") else np.asarray(action.a)
    return vec_inv(a @ np.eye(n).reshape(-1, order="F"), n, m)


def dft_matrix(n):
    """Unitary DFT matrix F[j, k] = exp(-2*pi*i*j*k/n) / sqrt(n)."""
    j, k = np.mgrid[0:n, 0:n]
    return np.exp(-2j * np.pi * j * k / n) / np.sqrt(n)


def dft_conjugate(a):
    """F A F^{-1} in complex arithmetic; diagonal iff A is circulant."""
    a = np.asarray(a)
    f = dft_matrix(a.shape[0])
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
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    total = float(np.sum(np.abs(m) ** 2))
    if total == 0.0:
        warnings.warn("all-zero matrix; off-diagonal fraction defined as 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    diag = float(np.sum(np.abs(np.diag(m)) ** 2))
    return (total - diag) / total


def skew_score(a):
    """||skew part|| / ||A||: 1 iff A is exactly skew-symmetric."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("structure scores are undefined for the zero matrix")
    return float(np.linalg.norm((a - a.T) / 2.0) / norm)


def toeplitz_project(a):
    """Orthogonal projection onto Toeplitz matrices (average each diagonal)."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    out = np.empty_like(a)
    for offset in range(-n + 1, n):
        idx = np.arange(max(0, -offset), min(n, n - offset))
        out[idx, idx + offset] = a.diagonal(offset).mean()
    return out


def toeplitz_score(a):
    """||Toeplitz projection|| / ||A||: 1 iff A is exactly Toeplitz."""
    a = np.asarray(a, dtype=np.float64)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("structure scores are undefined for the zero matrix")
    return float(np.linalg.norm(toeplitz_project(a)) / norm)


def quadrant_signs(a):
    """Mean sign of each quadrant: the coarse multi-scale signature."""
    a = np.asarray(a)
    h = a.shape[0] // 2
    return np.array([
        [np.sign(a[:h, :h]).mean(), np.sign(a[:h, h:]).mean()],
        [np.sign(a[h:, :h]).mean(), np.sign(a[h:, h:]).mean()],
    ])


@dataclass
class StructureReport:
    """One generator's scores; the residual is ||A A~ - I||_F / sqrt(d)."""
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

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def structure_report(action, layer=0, group=0):
    """Full report for one learned generator."""
    from .groups import (invertibility_residual, min_singular_value,
                         order_defect)
    a = action.a.data
    residual = invertibility_residual(action) / np.sqrt(a.shape[0])
    probe = identity_probe(action)
    return StructureReport(
        layer=layer,
        group=group,
        skew=skew_score(a),
        toeplitz=toeplitz_score(a),
        dft_offdiag=offdiag_energy(dft_conjugate(a)),
        order_defect=order_defect(action),
        min_singular_value=min_singular_value(action),
        invertibility_residual=residual,
        quadrant_signs=quadrant_signs(a).tolist(),
        identity_probe=probe.tolist(),
    )


# -- exports ---------------------------------------------------------------------

def save_csv(path, matrix):
    """Row-major CSV at full float precision."""
    np.savetxt(path, np.asarray(matrix), delimiter=",", fmt="%.17g")


def load_csv(path):
    return np.loadtxt(path, delimiter=",", ndmin=2)


def save_heatmap_pgm(path, matrix):
    """8-bit grayscale PGM on a signed-symmetric scale, plus a JSON sidecar.

    The scale maps -vmax..+vmax to 0..255 with zero at mid-gray; vmax is
    max|entry| and is recorded in `<path>.json`.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    vmax = float(np.max(np.abs(matrix)))
    scale = vmax if vmax > 0 else 1.0
    pixels = np.round((matrix / scale + 1.0) * 127.5).astype(np.uint8)
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())
    sidecar = {"vmin": -scale, "vmax": scale, "zero_level": 127.5}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


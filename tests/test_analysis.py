"""Structure analysis: DFT diagonalization, circulants, structure scores."""

import json

import numpy as np
import pytest

from orbitnet.analysis import (circulant_from_diagonal, dft_conjugate,
                               dft_matrix, identity_probe, load_csv,
                               offdiag_energy, quadrant_signs, save_csv,
                               save_heatmap_pgm, skew_score, structure_report,
                               toeplitz_project, toeplitz_score)
from orbitnet.groups import GroupAction, linear_map_to_matrix
from orbitnet.tensor import Tensor


def action_from_matrix(a, order, n, m):
    d = n * m
    return GroupAction(Tensor(np.asarray(a, dtype=np.float64)),
                       Tensor(np.eye(d)), order, n, m)


def cyclic_shift(n):
    """Down-shift circulant: (Cx)[i] = x[i-1 mod n]; spectrum exp(-2pi i k/n)."""
    return np.roll(np.eye(n), 1, axis=0)


class TestIdentityProbe:
    def test_identity_action(self):
        g = action_from_matrix(np.eye(36), 4, 6, 6)
        np.testing.assert_array_equal(identity_probe(g), np.eye(6))

    def test_scaled_identity(self):
        g = action_from_matrix(2 * np.eye(36), 4, 6, 6)
        np.testing.assert_array_equal(identity_probe(g), 2 * np.eye(6))

    def test_quarter_turn_gives_antidiagonal(self):
        a = linear_map_to_matrix(lambda x: np.rot90(x, k=-1), 6, 6)
        g = action_from_matrix(a, 4, 6, 6)
        np.testing.assert_allclose(identity_probe(g), np.rot90(np.eye(6), -1),
                                   atol=1e-12)

    def test_non_square_rejected(self):
        g = action_from_matrix(np.eye(12), 2, 3, 4)
        with pytest.raises(ValueError):
            identity_probe(g)

    def test_linear_in_generator(self, rng):
        a = rng.standard_normal((36, 36))
        b = rng.standard_normal((36, 36))
        alpha, beta = rng.standard_normal(2)
        lhs = identity_probe(action_from_matrix(alpha * a + beta * b, 2, 6, 6))
        rhs = alpha * identity_probe(action_from_matrix(a, 2, 6, 6)) \
            + beta * identity_probe(action_from_matrix(b, 2, 6, 6))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestDft:
    def test_trivial_size(self):
        np.testing.assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)

    def test_unitary(self):
        for n in (2, 5, 36):
            f = dft_matrix(n)
            np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-12)

    def test_shift_diagonalizes_to_roots_of_unity(self):
        n = 8
        d = dft_conjugate(cyclic_shift(n))
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-10
        roots = np.exp(-2j * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(np.diag(d), roots, atol=1e-10)


class TestCirculant:
    def test_unit_spectrum_gives_identity(self):
        np.testing.assert_allclose(circulant_from_diagonal(np.ones(7)),
                                   np.eye(7), atol=1e-12)

    def test_roots_of_unity_give_shift(self):
        n = 6
        roots = np.exp(-2j * np.pi * np.arange(n) / n)
        np.testing.assert_allclose(circulant_from_diagonal(roots),
                                   cyclic_shift(n), atol=1e-12)

    def test_roundtrip(self, rng):
        for _ in range(10):
            d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            c = circulant_from_diagonal(d)
            # real part of a circulant is circulant: conjugating back is
            # diagonal with the Hermitian-symmetrized spectrum
            back = dft_conjugate(c)
            off = back - np.diag(np.diag(back))
            assert np.max(np.abs(off)) < 1e-10

    def test_conjugate_symmetric_spectrum_roundtrips_exactly(self, rng):
        n = 8
        d = np.empty(n, dtype=np.complex128)
        d[0] = rng.standard_normal()
        d[n // 2] = rng.standard_normal()
        half = rng.standard_normal(n // 2 - 1) \
            + 1j * rng.standard_normal(n // 2 - 1)
        d[1:n // 2] = half
        d[n // 2 + 1:] = half[::-1].conj()
        c = circulant_from_diagonal(d)
        np.testing.assert_allclose(np.diag(dft_conjugate(c)), d, atol=1e-10)

    def test_structure_is_circulant(self, rng):
        c = circulant_from_diagonal(rng.standard_normal(6))
        for i in range(6):
            np.testing.assert_allclose(c[i], np.roll(c[0], i), atol=1e-12)


class TestOffdiagEnergy:
    def test_diagonal_matrix_is_zero(self, rng):
        assert offdiag_energy(np.diag(rng.standard_normal(5))) == 0.0

    def test_hollow_matrix_is_one(self, rng):
        m = rng.standard_normal((5, 5))
        np.fill_diagonal(m, 0.0)
        assert offdiag_energy(m) == 1.0

    def test_zero_matrix_warns(self):
        with pytest.warns(RuntimeWarning):
            assert offdiag_energy(np.zeros((3, 3))) == 0.0

    def test_gaussian_conjugation_stays_spread(self):
        # random matrices are not diagonalized by the DFT: fraction > 0.8
        for seed in range(20):
            a = np.random.default_rng(seed).standard_normal((36, 36))
            assert offdiag_energy(dft_conjugate(a)) > 0.8

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            offdiag_energy(np.zeros((2, 3)))


class TestStructureScores:
    def test_skew_symmetric_scores_one(self, rng):
        a = rng.standard_normal((8, 8))
        skew = (a - a.T) / 2
        assert skew_score(skew) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_scores_zero(self, rng):
        a = rng.standard_normal((8, 8))
        assert skew_score((a + a.T) / 2) == pytest.approx(0.0, abs=1e-12)

    def test_toeplitz_scores_one(self, rng):
        first_row = rng.standard_normal(6)
        first_col = rng.standard_normal(6)
        first_col[0] = first_row[0]
        t = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                t[i, j] = first_row[j - i] if j >= i else first_col[i - j]
        assert toeplitz_score(t) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_toeplitz_strictly_below_one(self):
        for seed in range(20):
            a = np.random.default_rng(seed).standard_normal((12, 12))
            assert toeplitz_score(a) < 1.0

    def test_projection_is_orthogonal_projection(self, rng):
        a = rng.standard_normal((7, 7))
        p = toeplitz_project(a)
        np.testing.assert_allclose(toeplitz_project(p), p, atol=1e-12)
        # residual orthogonal to the Toeplitz subspace
        assert abs(np.sum((a - p) * p)) < 1e-10

    def test_scale_invariance(self, rng):
        a = rng.standard_normal((9, 9))
        for c in (0.5, 3.0, 100.0):
            assert skew_score(c * a) == pytest.approx(skew_score(a),
                                                      rel=1e-10)
            assert toeplitz_score(c * a) == pytest.approx(toeplitz_score(a),
                                                          rel=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            skew_score(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            toeplitz_score(np.zeros((4, 4)))

    def test_quadrant_signs_signature(self):
        a = np.block([[np.ones((3, 3)), -np.ones((3, 3))],
                      [np.ones((3, 3)), np.ones((3, 3))]])
        np.testing.assert_array_equal(quadrant_signs(a),
                                      [[1.0, -1.0], [1.0, 1.0]])


class TestReportAndExports:
    def test_structure_report_fields(self, rng):
        g = GroupAction(Tensor(np.eye(36)), Tensor(np.eye(36)), 4, 6, 6)
        report = structure_report(g, layer=1, group=2)
        assert report.layer == 1 and report.group == 2
        assert report.skew == 0.0
        assert report.order_defect == 0.0
        assert report.invertibility_residual == 0.0
        assert report.min_singular_value == pytest.approx(1.0, rel=1e-10)
        parsed = json.loads(report.to_json())
        assert parsed["dft_offdiag"] == pytest.approx(0.0, abs=1e-12)

    def test_report_residual_is_raw_residual_over_sqrt_d(self, rng):
        from orbitnet.groups import invertibility_residual
        g = GroupAction(Tensor(rng.standard_normal((36, 36))),
                        Tensor(rng.standard_normal((36, 36))), 4, 6, 6)
        report = structure_report(g)
        assert report.invertibility_residual == invertibility_residual(g) / 6

    def test_csv_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((6, 6))
        save_csv(tmp_path / "m.csv", m)
        np.testing.assert_allclose(load_csv(tmp_path / "m.csv"), m,
                                   atol=1e-15)

    def test_pgm_export(self, tmp_path, rng):
        m = rng.standard_normal((6, 6))
        path = tmp_path / "m.pgm"
        save_heatmap_pgm(path, m)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n6 6\n255\n")
        assert len(blob) == len(b"P5\n6 6\n255\n") + 36
        sidecar = json.loads((tmp_path / "m.pgm.json").read_text())
        assert sidecar["vmax"] == pytest.approx(float(np.max(np.abs(m))))
        assert sidecar["vmin"] == -sidecar["vmax"]

"""Structure analysis: DFT diagonalization, circulants, structure scores."""

from dataclasses import asdict

import numpy as np
import pytest

from orbitnet.analysis import (circulant_from_diagonal, dft_conjugate,
                               dft_matrix, identity_probe, load_csv,
                               offdiag_energy, quadrant_signs, save_csv,
                               save_heatmap_pgm, skew_score, structure_report,
                               toeplitz_project, toeplitz_score)
from orbitnet.groups import (GroupAction, invertibility_residual,
                             linear_map_to_matrix, min_singular_value,
                             order_defect)
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


class TestStackedScores:
    """A [K, d, d] stack gives each matrix's own score, bit for bit."""

    SCORES = [skew_score, toeplitz_score, toeplitz_project, quadrant_signs,
              dft_conjugate,
              lambda a: offdiag_energy(dft_conjugate(a))]

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("score", SCORES)
    def test_stack_equals_per_matrix_calls(self, score, k, rng):
        a = np.eye(36) + 0.3 * rng.standard_normal((k, 36, 36))
        values = score(a)
        assert values.shape[0] == k
        for i in range(k):
            single = score(a[i])
            assert np.shape(single) == values.shape[1:]
            np.testing.assert_array_equal(values[i], single, strict=True)

    def test_zero_matrix_in_stack_rejected(self, rng):
        a = rng.standard_normal((3, 4, 4))
        a[1] = 0.0
        with pytest.raises(ValueError, match="zero matrix"):
            skew_score(a)
        with pytest.raises(ValueError, match="zero matrix"):
            toeplitz_score(a)

    def test_zero_matrix_in_stack_warns_and_gives_zero(self, rng):
        m = rng.standard_normal((3, 4, 4))
        m[1] = 0.0
        with pytest.warns(RuntimeWarning, match="all-zero"):
            values = offdiag_energy(m)
        assert values[1] == 0.0
        assert values[0] == offdiag_energy(m[0])
        assert values[2] == offdiag_energy(m[2])

    @pytest.mark.parametrize("order", [1, 3])
    def test_empty_stack_gives_empty_scores(self, order):
        # a group_order = 1 layer holds a [0, d, d] stack
        a = np.zeros((0, 36, 36))
        g = stack_action(a, a, order=order)
        for score in self.SCORES:
            assert np.shape(score(a))[0] == 0
        for diagnostic in (order_defect, invertibility_residual,
                           min_singular_value):
            assert diagnostic(g).shape == (0,)
        assert identity_probe(g).shape == (0, 6, 6)
        assert structure_report(g) == []


def stack_action(a, at, order=4, n=6):
    return GroupAction(Tensor(np.asarray(a)), Tensor(np.asarray(at)),
                       order, n, n)


class TestReportAndExports:
    def test_structure_report_fields(self, rng):
        g = stack_action(np.eye(36)[None], np.eye(36)[None])
        [report] = structure_report(g, layer=1)
        assert report.layer == 1 and report.group == 0
        assert report.skew == 0.0
        assert report.order_defect == 0.0
        assert report.invertibility_residual == 0.0
        assert report.min_singular_value == pytest.approx(1.0, rel=1e-10)
        assert asdict(report)["dft_offdiag"] == pytest.approx(0.0, abs=1e-12)

    def test_report_residual_is_the_logged_raw_residual(self, rng):
        # one definition: the raw ||A A~ - I||_F that metrics.jsonl logs
        from orbitnet.groups import invertibility_residual
        a = rng.standard_normal((3, 36, 36))
        at = rng.standard_normal((3, 36, 36))
        stack = stack_action(a, at)
        reports = structure_report(stack)
        assert [r.invertibility_residual for r in reports] == [
            float(np.linalg.norm(a[i] @ at[i] - np.eye(36))) for i in range(3)]
        assert [r.invertibility_residual for r in reports] == \
            invertibility_residual(stack).tolist()

    def test_stack_reports_equal_one_generator_reports(self, rng):
        a = np.eye(16) + 0.3 * rng.standard_normal((5, 16, 16))
        at = np.eye(16) + 0.3 * rng.standard_normal((5, 16, 16))
        reports = structure_report(stack_action(a, at, 3, 4), layer=2)
        assert [(r.layer, r.group) for r in reports] == [(2, k)
                                                         for k in range(5)]
        for k, r in enumerate(reports):
            [single] = structure_report(
                stack_action(a[k:k + 1], at[k:k + 1], 3, 4), layer=2)
            single.group = k
            assert asdict(r) == asdict(single)

    def test_single_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"\[K, d, d\] stack"):
            structure_report(stack_action(np.eye(36), np.eye(36)))

    def test_csv_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((6, 6))
        save_csv(tmp_path / "m.csv", m)
        np.testing.assert_allclose(load_csv(tmp_path / "m.csv"), m,
                                   atol=1e-15)

    @pytest.mark.parametrize("shape", [(1, 1), (36, 36), (3, 72)])
    def test_csv_bytes_match_savetxt(self, shape, tmp_path, rng):
        m = rng.standard_normal(shape)
        specials = np.array([-0.0, 1e-300, np.nan, np.inf, -np.inf, 0.0])
        m.flat[:len(specials)] = specials[:m.size]
        save_csv(tmp_path / "m.csv", m)
        np.savetxt(tmp_path / "ref.csv", m, delimiter=",", fmt="%.17g")
        assert (tmp_path / "m.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_csv_vector_is_one_column(self, tmp_path):
        save_csv(tmp_path / "v.csv", np.array([1.5, -0.0]))
        assert (tmp_path / "v.csv").read_text() == "1.5\n-0\n"
        with pytest.raises(ValueError, match="1-D or 2-D"):
            save_csv(tmp_path / "t.csv", np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(6, 6), (3, 5)])
    def test_pgm_export(self, shape, tmp_path, rng):
        m = rng.standard_normal(shape)
        path = tmp_path / "m.pgm"
        save_heatmap_pgm(path, m)
        vmax = float(np.max(np.abs(m)))
        assert path.read_bytes().startswith(
            f"P5\n# vmax {vmax!r}\n{shape[1]} {shape[0]}\n255\n".encode())
        [comment], pixels = read_pgm(path)
        name, value = comment.split()
        assert name == "vmax" and float(value) == vmax
        np.testing.assert_array_equal(pixels, pgm_pixels(m, vmax))
        assert [p.name for p in tmp_path.iterdir()] == ["m.pgm"]

    def test_pgm_all_zero_matrix_has_scale_one(self, tmp_path):
        save_heatmap_pgm(tmp_path / "z.pgm", np.zeros((2, 4)))
        [comment], pixels = read_pgm(tmp_path / "z.pgm")
        assert comment == "vmax 1.0"
        np.testing.assert_array_equal(pixels, pgm_pixels(np.zeros((2, 4)), 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pgm_rejects_non_finite_entries(self, bad, tmp_path):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            save_heatmap_pgm(tmp_path / "m.pgm", m)
        assert not any(tmp_path.iterdir())


def pgm_pixels(m, vmax):
    """The heatmap levels: -vmax..+vmax onto 0..255, zero at 127.5."""
    return np.round((m / vmax + 1.0) * 127.5).astype(np.uint8)


def read_pgm(path):
    """A binary PGM's header comments and its pixel rows.

    Lines that start with `#` are comments, which PGM readers skip; the
    four header fields may share lines.
    """
    blob = path.read_bytes()
    comments, fields, pos = [], [], 0
    while len(fields) < 4:
        end = blob.index(b"\n", pos)
        line, pos = blob[pos:end], end + 1
        if line.startswith(b"#"):
            comments.append(line[1:].decode("ascii").strip())
        else:
            fields += line.split()
    magic, width, height, maxval = fields
    assert magic == b"P5" and maxval == b"255"
    pixels = np.frombuffer(blob[pos:], dtype=np.uint8)
    return comments, pixels.reshape(int(height), int(width))

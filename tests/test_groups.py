"""Vectorization, group actions, orbits, invertibility losses."""

import numpy as np
import pytest

from orbitnet.gradcheck import check_gradients
from orbitnet.groups import (GroupAction, apply_action, apply_action_stack,
                             expand_orbit, invertibility_loss,
                             invertibility_residual, linear_map_to_matrix,
                             order_defect, stack_map_to_matrix,
                             svd_invertibility_loss, vec, vec_inv)
from orbitnet.svd import jacobi_svd
from orbitnet.tensor import Tensor, parameter


def action_from_matrix(a, order, n, m):
    return GroupAction(Tensor(np.asarray(a, dtype=np.float64)),
                       Tensor(np.eye(n * m)), order, n, m)


def quarter_turn_matrix(n):
    """Permutation matrix of the quarter turn on n x n patches (oracle)."""
    def rot(x):
        return np.rot90(x, k=-1)
    return linear_map_to_matrix(rot, n, n)


def gauss_inverse(a):
    """Gaussian elimination with partial pivoting (independent oracle)."""
    n = a.shape[0]
    aug = np.hstack([a.astype(np.float64), np.eye(n)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


class TestVec:
    def test_column_major_order(self):
        np.testing.assert_array_equal(
            vec(np.array([[1.0, 2.0], [3.0, 4.0]])), [1.0, 3.0, 2.0, 4.0])

    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_linearity_exact(self, rng):
        for _ in range(20):
            x = rng.standard_normal((3, 5))
            y = rng.standard_normal((3, 5))
            alpha, beta = rng.standard_normal(2)
            np.testing.assert_array_equal(vec(alpha * x + beta * y),
                                          alpha * vec(x) + beta * vec(y))

    def test_vec_inv_example(self):
        np.testing.assert_array_equal(
            vec_inv(np.array([1.0, 3.0, 2.0, 4.0]), 2, 2),
            [[1.0, 2.0], [3.0, 4.0]])

    def test_inverse_pair(self, rng):
        for _ in range(100):
            n, m = rng.integers(1, 7, size=2)
            x = rng.standard_normal((n, m))
            np.testing.assert_array_equal(vec_inv(vec(x), n, m), x)

    def test_matches_kronecker_formula(self, rng):
        # vec_inv(a) == (vec^T(I_m) kron I_n)(I_m kron a), evaluated literally
        for _ in range(10):
            n, m = rng.integers(1, 6, size=2)
            a = rng.standard_normal(n * m)
            lhs = np.kron(vec(np.eye(m))[None, :], np.eye(n)) \
                @ np.kron(np.eye(m), a[:, None])
            np.testing.assert_array_equal(vec_inv(a, n, m), lhs)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            vec_inv(np.zeros(5), 2, 3)

    def test_tensor_path_matches_numpy(self, rng):
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(vec(Tensor(x)).data, vec(x))
        a = rng.standard_normal(12)
        np.testing.assert_array_equal(vec_inv(Tensor(a), 4, 3).data,
                                      vec_inv(a, 4, 3))


class TestLinearMapToMatrix:
    def test_identity_map(self):
        np.testing.assert_array_equal(
            linear_map_to_matrix(lambda x: x, 2, 3), np.eye(6))

    def test_transpose_on_2x2(self):
        # column-major order forces the permutation exchanging coords 2 and 3
        got = linear_map_to_matrix(lambda x: x.T, 2, 2)
        expected = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_array_equal(got, expected)

    def test_corner_swap_on_2x2(self):
        def corner_swap(x):
            y = x.copy()
            y[0, 0], y[-1, -1] = x[-1, -1], x[0, 0]
            return y
        got = linear_map_to_matrix(corner_swap, 2, 2)
        expected = np.eye(4)[[3, 1, 2, 0]]
        np.testing.assert_array_equal(got, expected)

    def test_completeness_recovers_matrix_exactly(self, rng):
        # lifting X -> vec_inv(B vec(X)) returns B bit-for-bit
        for _ in range(20):
            n, m = rng.integers(1, 5, size=2)
            b = rng.standard_normal((n * m, n * m))
            got = linear_map_to_matrix(
                lambda x: vec_inv(b @ vec(x), n, m), n, m)
            np.testing.assert_array_equal(got, b)

    def test_rejects_nonlinear_map(self):
        with pytest.raises(ValueError):
            linear_map_to_matrix(lambda x: x ** 2, 2, 2)


class TestStackMapToMatrix:
    def test_one_stacked_call_equals_per_plane_lifting(self, rng):
        n, m = 3, 4
        b = rng.standard_normal((n * m, n * m))
        calls = []

        def plane_map(x):
            return vec_inv(b @ vec(x), n, m)

        def stack_map(planes):
            calls.append(planes.shape)
            return np.stack([plane_map(p) for p in planes])
        got = stack_map_to_matrix(stack_map, n, m)
        np.testing.assert_array_equal(got, b)
        np.testing.assert_array_equal(
            got, linear_map_to_matrix(plane_map, n, m))
        # three probe terms on 3 random planes, then the 12 basis planes
        assert calls == [(3, n, m)] * 3 + [(n * m, n, m)]

    def test_rejects_nonlinear_map(self):
        with pytest.raises(ValueError, match="linearity"):
            stack_map_to_matrix(lambda s: s ** 2, 2, 2)

    def test_rejects_map_that_mixes_planes(self):
        # linear on the stack, but plane k's output depends on plane k+1
        with pytest.raises(ValueError, match="linearity"):
            stack_map_to_matrix(lambda s: s + np.roll(s, 1, axis=0), 2, 2)


class TestApplyAction:
    def test_identity_action(self, rng):
        x = rng.standard_normal((3, 4))
        g = action_from_matrix(np.eye(12), 2, 3, 4)
        np.testing.assert_array_equal(apply_action(g, x), x)

    def test_scaling_action(self, rng):
        x = rng.standard_normal((2, 2))
        g = action_from_matrix(2 * np.eye(4), 2, 2, 2)
        np.testing.assert_array_equal(apply_action(g, x), 2 * x)

    def test_corner_swap_action(self, rng):
        # the operator no n x n matrix can express, realized in the vec basis
        n = m = 6
        def corner_swap(x):
            y = x.copy()
            y[0, 0], y[-1, -1] = x[-1, -1], x[0, 0]
            return y
        a = linear_map_to_matrix(corner_swap, n, m)
        g = action_from_matrix(a, 2, n, m)
        x = rng.standard_normal((n, m))
        np.testing.assert_allclose(apply_action(g, x), corner_swap(x),
                                   atol=1e-12)

    def test_linearity_property(self, rng):
        # phi_A(aX + bY) == a phi_A(X) + b phi_A(Y) to 1e-12 relative
        for _ in range(100):
            n, m = rng.integers(2, 6, size=2)
            g = action_from_matrix(rng.standard_normal((n * m, n * m)),
                                   2, n, m)
            x = rng.standard_normal((n, m))
            y = rng.standard_normal((n, m))
            alpha, beta = rng.standard_normal(2)
            lhs = apply_action(g, alpha * x + beta * y)
            rhs = alpha * apply_action(g, x) + beta * apply_action(g, y)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(
                np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)

    def test_stack_matches_per_channel(self, rng):
        g = action_from_matrix(rng.standard_normal((12, 12)), 2, 3, 4)
        x = rng.standard_normal((5, 3, 4))
        got = apply_action_stack(g, Tensor(x)).data
        for c in range(5):
            np.testing.assert_allclose(got[c], apply_action(g, x[c]),
                                       atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        g = action_from_matrix(np.eye(12), 2, 3, 4)
        with pytest.raises(ValueError):
            apply_action(g, rng.standard_normal((4, 3)))


class TestExpandOrbit:
    def test_order_one_is_basis_only(self, rng):
        g = action_from_matrix(rng.standard_normal((4, 4)), 1, 2, 2)
        basis = rng.standard_normal((2, 2))
        orbit = expand_orbit(g, basis)
        assert len(orbit.expanded) == 1
        np.testing.assert_array_equal(orbit.expanded[0].data, basis)

    def test_identity_action_repeats_basis(self, rng):
        g = action_from_matrix(np.eye(4), 4, 2, 2)
        basis = rng.standard_normal((2, 2))
        orbit = expand_orbit(g, basis)
        assert len(orbit.expanded) == 4
        for element in orbit.expanded:
            np.testing.assert_array_equal(element.data, basis)

    def test_quarter_turn_orbit_closes(self, rng):
        # order of a quarter turn is 4: one more application returns the basis
        a = quarter_turn_matrix(6)
        g = action_from_matrix(a, 4, 6, 6)
        basis = rng.standard_normal((6, 6))
        orbit = expand_orbit(g, basis)
        closed = apply_action(g, orbit.expanded[-1].data)
        np.testing.assert_allclose(closed, basis, atol=1e-12)
        for j, element in enumerate(orbit.expanded):
            np.testing.assert_allclose(element.data, np.rot90(basis, k=-j),
                                       atol=1e-12)

    def test_inverse_action_recovers_orbit(self, rng):
        # with invertible A, walking back from the last element recovers all
        d = 9
        a = np.eye(d) + 0.01 * rng.standard_normal((d, d))
        g = action_from_matrix(a, 4, 3, 3)
        basis = rng.standard_normal((3, 3))
        orbit = expand_orbit(g, basis)
        a_inv = np.linalg.inv(a)
        g_inv = action_from_matrix(a_inv, 4, 3, 3)
        current = orbit.expanded[-1].data
        for j in range(len(orbit.expanded) - 2, -1, -1):
            current = apply_action(g_inv, current)
            np.testing.assert_allclose(current, orbit.expanded[j].data,
                                       atol=1e-8)

    def test_orbit_differentiable(self, rng):
        g = GroupAction.initialize(2, 2, 3, rng)
        basis = parameter(rng.standard_normal((2, 2)))
        def loss():
            orbit = expand_orbit(g, basis)
            total = None
            for element in orbit.expanded:
                term = (element * element).sum()
                total = term if total is None else total + term
            return total
        check_gradients(loss, {"A": g.a, "basis": basis})


class TestInvertibilityLoss:
    def test_exact_inverse_pair_is_zero(self):
        g = action_from_matrix(np.eye(9), 2, 3, 3)
        assert invertibility_loss(g, mu=1.0).item() == 0.0
        assert invertibility_loss(g, mu=5.0).item() == 0.0

    def test_doubling_matrix(self):
        # A = 2I, A_tilde = I: ||2I - I||_F = sqrt(d)
        d = 9
        g = GroupAction(Tensor(2 * np.eye(d)), Tensor(np.eye(d)), 2, 3, 3)
        assert invertibility_loss(g, mu=1.0).item() == pytest.approx(
            np.sqrt(d), rel=1e-12)

    def test_gauss_elimination_inverse_oracle(self, rng):
        d = 16
        a = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        g = GroupAction(Tensor(a), Tensor(gauss_inverse(a)), 2, 4, 4)
        assert invertibility_loss(g, mu=1.0).item() < 1e-8

    def test_negative_mu_rejected(self):
        g = action_from_matrix(np.eye(4), 2, 2, 2)
        with pytest.raises(ValueError):
            invertibility_loss(g, mu=-1.0)

    def test_squared_variant(self):
        d = 4
        g = GroupAction(Tensor(2 * np.eye(d)), Tensor(np.eye(d)), 2, 2, 2)
        assert invertibility_loss(g, mu=1.0, squared=True).item() == \
            pytest.approx(d, rel=1e-12)

    def test_differentiable_in_both(self, rng):
        g = GroupAction.initialize(2, 2, 2, rng)
        check_gradients(lambda: invertibility_loss(g, mu=0.7),
                        {"A": g.a, "A_tilde": g.a_tilde})


class TestInvertibilityResidual:
    def test_raw_frobenius_residual(self, rng):
        a = rng.standard_normal((6, 6))
        at = rng.standard_normal((6, 6))
        g = GroupAction(Tensor(a), Tensor(at), 2, 2, 3)
        assert invertibility_residual(g) == float(
            np.linalg.norm(a @ at - np.eye(6)))
        exact = GroupAction(Tensor(a), Tensor(np.linalg.inv(a)), 2, 2, 3)
        assert invertibility_residual(exact) < 1e-12

    def test_float32_pair_measured_against_float64_identity(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        at = rng.standard_normal((4, 4)).astype(np.float32)
        g = GroupAction(Tensor(a), Tensor(at), 2, 2, 2)
        product = a @ at
        assert product.dtype == np.float32
        assert invertibility_residual(g) == float(
            np.linalg.norm(product - np.eye(4)))


class TestSvdInvertibilityLoss:
    def test_identity_sum_form(self):
        d = 9
        g = action_from_matrix(np.eye(d), 2, 3, 3)
        assert svd_invertibility_loss(g, mu=1.0).item() == pytest.approx(
            -d, rel=1e-12)

    def test_diagonal_sum_form(self):
        g = GroupAction(Tensor(np.diag([3.0, 1.0])), Tensor(np.eye(2)),
                        2, 1, 2)
        assert svd_invertibility_loss(g, mu=1.0).item() == pytest.approx(
            -4.0, rel=1e-12)

    def test_matches_eigen_oracle_36(self, rng):
        a = rng.standard_normal((36, 36))
        g = action_from_matrix(a, 2, 6, 6)
        oracle = -np.sum(np.sqrt(np.linalg.eigvalsh(a.T @ a)))
        assert svd_invertibility_loss(g, mu=1.0).item() == pytest.approx(
            oracle, abs=1e-8)

    def test_logdet_variant(self, rng):
        a = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        g = action_from_matrix(a, 2, 2, 2)
        sigma = jacobi_svd(a)[1]
        expected = -np.sum(np.log(sigma))
        assert svd_invertibility_loss(g, mu=1.0, variant="logdet").item() == \
            pytest.approx(expected, rel=1e-10)

    def test_logdet_singular_clamps_with_warning(self):
        a = np.diag([1.0, 0.0, 2.0])
        g = GroupAction(Tensor(a), Tensor(np.eye(3)), 2, 1, 3)
        with pytest.warns(RuntimeWarning):
            loss = svd_invertibility_loss(g, mu=1.0, variant="logdet")
        assert np.isfinite(loss.item())

    def test_unknown_variant_rejected(self):
        g = action_from_matrix(np.eye(4), 2, 2, 2)
        with pytest.raises(ValueError):
            svd_invertibility_loss(g, mu=1.0, variant="nope")


class TestOrderDefect:
    def test_identity_is_zero(self):
        g = action_from_matrix(np.eye(9), 4, 3, 3)
        assert order_defect(g) == 0.0

    def test_doubling_matrix(self):
        # ||A^2 - I||_F = ||3I||_F = 3 sqrt(d) for A = 2I, p = 2
        d = 9
        g = action_from_matrix(2 * np.eye(d), 2, 3, 3)
        assert order_defect(g) == pytest.approx(3 * np.sqrt(d), rel=1e-12)

    def test_quarter_turn_has_order_four(self):
        g = action_from_matrix(quarter_turn_matrix(6), 4, 6, 6)
        assert order_defect(g) == pytest.approx(0.0, abs=1e-12)


class TestCounterExample:
    def test_corner_swap_has_no_row_space_matrix(self, rng):
        """Least-squares fit of M X ~ swap(X) leaves residual > 0.1."""
        n = m = 6
        def corner_swap(x):
            y = x.copy()
            y[0, 0], y[-1, -1] = x[-1, -1], x[0, 0]
            return y
        xs = [rng.standard_normal((n, m)) for _ in range(200)]
        ys = [corner_swap(x) for x in xs]
        # closed-form minimizer of sum ||M x_i - y_i||_F^2
        sxx = sum(x @ x.T for x in xs)
        syx = sum(y @ x.T for x, y in zip(xs, ys))
        m_best = syx @ np.linalg.inv(sxx)
        num = sum(np.linalg.norm(m_best @ x - y) ** 2
                  for x, y in zip(xs, ys))
        den = sum(np.linalg.norm(y) ** 2 for y in ys)
        assert np.sqrt(num / den) > 0.1

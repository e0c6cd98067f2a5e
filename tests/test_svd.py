"""`jacobi_svd` (LAPACK SVD behind the package contract) against the
symmetric-eigenvalue oracle, and the singular-value gradients."""

import numpy as np
import pytest

from orbitnet.gradcheck import check_gradients
from orbitnet.svd import jacobi_svd, singular_values
from orbitnet.tensor import parameter


class TestJacobiSvd:
    def test_identity(self):
        u, s, v = jacobi_svd(np.eye(6))
        np.testing.assert_allclose(s, np.ones(6), atol=1e-14)

    def test_diagonal(self):
        u, s, v = jacobi_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthogonality(self, rng):
        a = rng.standard_normal((12, 12))
        u, s, v = jacobi_svd(a)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, a, atol=1e-10)
        np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(12), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)

    def test_values_match_eigen_oracle_36(self, rng):
        # sigma(A) == sqrt(eig(A^T A)), descending, to 1e-8
        a = rng.standard_normal((36, 36))
        s = jacobi_svd(a)[1]
        oracle = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
        np.testing.assert_allclose(s, oracle, atol=1e-8)

    def test_singular_matrix(self, rng):
        a = rng.standard_normal((5, 5))
        a[:, 0] = a[:, 1]
        s = jacobi_svd(a)[1]
        assert s[-1] == pytest.approx(0.0, abs=1e-12)

    def test_exact_zero_singular_value_has_zero_u_column(self):
        u, s, v = jacobi_svd(np.diag([2.0, 0.0]))
        np.testing.assert_array_equal(s, [2.0, 0.0])
        np.testing.assert_array_equal(u[:, 1], [0.0, 0.0])
        np.testing.assert_allclose(np.abs(u[:, 0]), [1.0, 0.0])
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, np.diag([2.0, 0.0]))

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            jacobi_svd(rng.standard_normal((3, 4)))

    def test_filter_generator_10x10_matches_eigen_oracle(self, rng):
        # a 100x100 generator acts on 10x10 filters; no size cap applies
        a = rng.standard_normal((100, 100))
        s = jacobi_svd(a)[1]
        oracle = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
        np.testing.assert_allclose(s, oracle, atol=1e-8)

    def test_rejects_non_finite(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            jacobi_svd(a)


class TestSingularValueGradients:
    def test_grad_of_sum_identity_like(self):
        # grad of sum_i sigma_i at diag(3, 1) is u1 v1^T + u2 v2^T = I
        a = parameter(np.diag([3.0, 1.0]))
        singular_values(a).sum().backward()
        np.testing.assert_allclose(a.grad, np.eye(2), atol=1e-12)

    def test_gradcheck_random(self, rng):
        a = parameter(rng.standard_normal((5, 5)))
        check_gradients(lambda: singular_values(a).sum(), {"a": a})

    def test_gradcheck_weighted(self, rng):
        a = parameter(rng.standard_normal((4, 4)))
        weights = rng.random(4) + 0.5
        check_gradients(lambda: (singular_values(a) * weights).sum(),
                        {"a": a})


class TestStackedSingularValues:
    def test_stack_equals_per_matrix_calls(self, rng):
        a = rng.standard_normal((4, 6, 6))
        a[2] = np.diag([3.0, 2.0, 1.0, 0.0, 0.0, 0.5])
        u, s, v = jacobi_svd(a)
        sigma = singular_values(parameter(a)).data
        for k in range(4):
            uk, sk, vk = jacobi_svd(a[k])
            assert np.array_equal(u[k], uk)
            assert np.array_equal(s[k], sk)
            assert np.array_equal(v[k], vk)
            assert np.array_equal(sigma[k], singular_values(
                parameter(a[k])).data)

    def test_stack_gradient_equals_per_matrix_gradients(self, rng):
        a = parameter(rng.standard_normal((3, 5, 5)))
        weights = rng.random((3, 5)) + 0.5
        (singular_values(a) * weights).sum().backward()
        for k in range(3):
            ak = parameter(a.data[k].copy())
            (singular_values(ak) * weights[k]).sum().backward()
            assert np.array_equal(a.grad[k], ak.grad)

    def test_gradcheck_stack(self, rng):
        a = parameter(rng.standard_normal((2, 4, 4)))
        weights = rng.random((2, 4)) + 0.5
        check_gradients(lambda: (singular_values(a) * weights).sum(),
                        {"a": a})

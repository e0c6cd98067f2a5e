"""Autodiff core: op semantics, adjoint identities, finite-difference checks."""

import numpy as np
import pytest

from orbitnet.gradcheck import check_gradients
from orbitnet.tensor import (Tensor, _unbroadcast, cross_entropy,
                             frobenius_norm, gradient_of, log, no_grad,
                             parameter, soft_threshold, stack)


class TestSoftThreshold:
    def test_two_sided_positive(self):
        assert soft_threshold(Tensor(3.0), 1.0).item() == 2.0

    def test_two_sided_negative(self):
        assert soft_threshold(Tensor(-3.0), 1.0).item() == -2.0

    def test_one_sided_negative(self):
        assert soft_threshold(Tensor(-3.0), 1.0, one_sided=True).item() == 0.0

    def test_dead_zone(self):
        assert soft_threshold(Tensor(0.5), 1.0).item() == 0.0
        assert soft_threshold(Tensor(0.5), 1.0, one_sided=True).item() == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(Tensor(1.0), -0.1)

    def test_nonexpansive(self, rng):
        # ||S(u) - S(v)|| <= ||u - v|| for the shrinkage operator
        for _ in range(100):
            u = rng.standard_normal(50)
            v = rng.standard_normal(50)
            lam = rng.random(50)
            for one_sided in (False, True):
                su = soft_threshold(Tensor(u), lam, one_sided).data
                sv = soft_threshold(Tensor(v), lam, one_sided).data
                assert np.linalg.norm(su - sv) <= np.linalg.norm(u - v) + 1e-12

    def test_gradients_both_variants(self, rng):
        for one_sided in (False, True):
            u = parameter(rng.standard_normal((4, 6)) * 2.0)
            lam = parameter(rng.random(6) + 0.2)
            # keep samples away from the kinks so differences are two-sided
            u.data[np.abs(np.abs(u.data) - lam.data) < 1e-3] += 0.01
            check_gradients(
                lambda: (soft_threshold(u, lam, one_sided) ** 2).sum(),
                {"u": u, "lam": lam})

    @pytest.mark.parametrize("one_sided", [True, False])
    def test_bitwise_equal_to_reference(self, one_sided, rng):
        u = parameter(rng.standard_normal((3, 4, 5, 5)))
        lam = parameter(rng.random((1, 4, 1, 1)) * 0.5)
        g = rng.standard_normal(u.shape)
        out = soft_threshold(u, lam, one_sided)
        out._backward(g)
        # the reference computes each pass the way it is written out
        if one_sided:
            mask = u.data - lam.data > 0
            ref = np.where(mask, u.data - lam.data, 0.0)
            ref_lam = _unbroadcast(-g * mask, lam.shape)
        else:
            mask = np.abs(u.data) > lam.data
            sign = np.sign(u.data)
            ref = np.where(mask, u.data - sign * lam.data, 0.0)
            ref_lam = _unbroadcast(-g * sign * mask, lam.shape)
        assert np.array_equal(out.data, ref)
        assert np.array_equal(u.grad, g * mask)
        assert np.array_equal(lam.grad, ref_lam)


class TestBasicGradients:
    def test_sum_gives_ones(self, rng):
        x = parameter(rng.standard_normal((3, 4)))
        (g,) = gradient_of(x.sum(), [x])
        np.testing.assert_array_equal(g, np.ones((3, 4)))

    def test_half_square_norm_gives_x(self, rng):
        x = parameter(rng.standard_normal(7))
        (g,) = gradient_of(((x * x).sum() * 0.5), [x])
        np.testing.assert_allclose(g, x.data, rtol=0, atol=1e-15)

    def test_unreached_param_gets_zeros(self, rng):
        x = parameter(rng.standard_normal(3))
        y = parameter(rng.standard_normal(3))
        gx, gy = gradient_of(x.sum(), [x, y])
        np.testing.assert_array_equal(gy, np.zeros(3))
        np.testing.assert_array_equal(gx, np.ones(3))

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "pow",
                                    "matmul", "sum_axis", "mean", "reshape",
                                    "transpose", "stack", "log", "fro"])
    def test_op_gradcheck(self, op, rng):
        # central differences at 20 random points per op
        for _ in range(20):
            a = parameter(rng.standard_normal((3, 4)) + 3.0)
            b = parameter(rng.standard_normal((3, 4)) + 3.0)
            if op == "add":
                fn = lambda: ((a + b) ** 2).sum()
            elif op == "sub":
                fn = lambda: ((a - b) ** 2).sum()
            elif op == "mul":
                fn = lambda: (a * b).sum()
            elif op == "div":
                fn = lambda: (a / b).sum()
            elif op == "pow":
                fn = lambda: (a ** 1.7).sum()
            elif op == "matmul":
                c = parameter(rng.standard_normal((4, 2)))
                fn = lambda: ((a @ c) ** 2).sum()
            elif op == "sum_axis":
                fn = lambda: (a.sum(axis=1, keepdims=True) * b).sum()
            elif op == "mean":
                fn = lambda: (a.mean(axis=0) ** 2).sum()
            elif op == "reshape":
                fn = lambda: (a.reshape(2, 6) ** 2).sum()
            elif op == "transpose":
                fn = lambda: (a.transpose() @ b).sum()
            elif op == "stack":
                fn = lambda: (stack([a, b, a * b]) ** 2).sum()
            elif op == "log":
                fn = lambda: log(a * a + 1.0).sum()
            else:
                fn = lambda: frobenius_norm(a) * frobenius_norm(b)
            check_gradients(fn, {"a": a} if op == "pow" else {"a": a, "b": b})

    def test_broadcast_gradients(self, rng):
        x = parameter(rng.standard_normal((5, 3)))
        bias = parameter(rng.standard_normal(3))
        check_gradients(lambda: ((x + bias) ** 2).sum(),
                        {"x": x, "bias": bias})

    def test_matmul_vector_cases(self, rng):
        a = parameter(rng.standard_normal((4, 3)))
        v = parameter(rng.standard_normal(3))
        check_gradients(lambda: ((a @ v) ** 2).sum(), {"a": a, "v": v})
        u = parameter(rng.standard_normal(4))
        check_gradients(lambda: ((u @ a) ** 2).sum(), {"u": u, "a": a})
        check_gradients(lambda: (u @ (a @ v)) ** 2, {"u": u, "a": a, "v": v})


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 10)))
        loss = cross_entropy(logits, np.array([3, 7]))
        assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)

    def test_gradcheck(self, rng):
        logits = parameter(rng.standard_normal((5, 4)))
        labels = rng.integers(0, 4, size=5)
        check_gradients(lambda: cross_entropy(logits, labels),
                        {"logits": logits})


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self, rng):
        x = parameter(rng.standard_normal(4))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_detached_loss_rejected(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_no_grad_blocks_recording(self, rng):
        x = parameter(rng.standard_normal(4))
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad

    def test_reused_node_accumulates(self, rng):
        x = parameter(np.array([2.0]))
        y = x * x + x * x      # d/dx (2x^2) = 4x
        (g,) = gradient_of(y.sum(), [x])
        np.testing.assert_allclose(g, [8.0])


class TestAdjointIdentities:
    """<Op(x), y> == <x, Op^T(y)> for every linear op, 100 random instances."""

    def test_matmul_adjoint(self, rng):
        for _ in range(100):
            n, m = rng.integers(2, 9, size=2)
            a = rng.standard_normal((n, m))
            x = rng.standard_normal(m)
            y = rng.standard_normal(n)
            assert abs((a @ x) @ y - x @ (a.T @ y)) < 1e-10

    def test_vec_adjoint(self, rng):
        from orbitnet.groups import vec, vec_inv
        for _ in range(100):
            n, m = rng.integers(2, 7, size=2)
            x = rng.standard_normal((n, m))
            a = rng.standard_normal(n * m)
            lhs = vec(x) @ a
            rhs = np.sum(x * vec_inv(a, n, m))
            assert abs(lhs - rhs) < 1e-10


class TestScalarLift:
    """A Python scalar takes the dtype of the tensor it meets."""

    OPS = [lambda t: t * 0.1, lambda t: 0.1 * t, lambda t: t + 1e-5,
           lambda t: 1 + t, lambda t: t - 2, lambda t: 1.0 - t,
           lambda t: t / 3.0, lambda t: 1.0 / t,
           lambda t: soft_threshold(t, 0.5), lambda t: t ** -0.5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scalar_keeps_dtype(self, dtype):
        t = parameter(np.linspace(1.0, 2.0, 6), dtype=dtype)
        for op in self.OPS:
            out = op(t)
            assert out.dtype == dtype
            out.sum().backward()
            assert t.grad.dtype == dtype

    def test_float64_scalar_product_unchanged(self, rng):
        x = rng.standard_normal(5)
        out = 0.1 * Tensor(x) - 1e-5
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, 0.1 * x - 1e-5)

    def test_arrays_keep_their_dtype(self):
        out = Tensor(np.ones(3, dtype=np.float32)) + np.ones(3)
        assert out.dtype == np.float64


class TestDeterminism:
    def test_bit_identical_parameters(self):
        from orbitnet.optim import Adam

        def run():
            rng = np.random.default_rng(7)
            w = parameter(rng.standard_normal((4, 4)))
            opt = Adam({"w": w}, lr=0.05)
            data = rng.standard_normal((16, 4))
            for _ in range(25):
                opt.zero_grad()
                pred = Tensor(data) @ w
                ((pred * pred).sum()).backward()
                opt.step()
            return w.data.tobytes()

        assert run() == run()

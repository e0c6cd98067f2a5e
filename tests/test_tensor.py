"""Autodiff core: op semantics, adjoint identities, finite-difference checks."""

import operator
import subprocess
import sys

import numpy as np
import pytest

from orbitnet.conv import avg_pool_to
from orbitnet.gradcheck import check_gradients, numerical_gradient
from orbitnet.svd import singular_values
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


def where_form_shrink(u, lam, g, one_sided):
    """The shrink as it stored its mask and sign: (out, d_u, d_lam)."""
    if one_sided:
        diff = u - lam
        mask = diff > 0
        out = np.where(mask, diff, 0.0)
        gm = g * mask
        return out, _unbroadcast(gm, u.shape), -_unbroadcast(gm, lam.shape)
    mask = np.abs(u) > lam
    sign = np.sign(u)
    out = np.where(mask, u - sign * lam, 0.0)
    gm = g * mask
    return (out, _unbroadcast(gm, u.shape),
            -_unbroadcast(gm * sign, lam.shape))


class TestShrinkFromItsOutput:
    """Backward rebuilds the mask and sign from the output, bit for bit."""

    @staticmethod
    def inputs(dtype, seed=4):
        rng = np.random.default_rng(seed)
        lam = (rng.random((1, 4, 1, 1)) * 0.5).astype(dtype)
        lam[0, 0] = 0.0
        u = rng.standard_normal((3, 4, 5, 5)).astype(dtype)
        u[0, :, 0, :2] = lam[0, :, 0]           # ties u == lam
        u[1, :, 0, :2] = -lam[0, :, 0]          # ties u == -lam
        u[2, :, 0, 0] = 0.0
        u[2, :, 0, 1] = -0.0
        u[0, 1, 1, 1] = np.finfo(dtype).tiny    # subnormal differences
        u[0, 1, 1, 2] = -np.finfo(dtype).tiny
        g = rng.standard_normal(u.shape).astype(dtype)
        g[2, :, 0, 0] = -0.0
        # every channel keeps live entries: the two-sided d_lam of a channel
        # without one is a zero whose sign the output cannot tell
        return u, lam, g

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("one_sided", [True, False])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_output_and_gradients_match_where_form(self, dtype, one_sided,
                                                   in_place):
        u_data, lam_data, g = self.inputs(dtype)
        ref, ref_u, ref_lam = where_form_shrink(u_data, lam_data, g,
                                                one_sided)
        u = parameter(u_data.copy(), dtype=dtype)
        lam = parameter(lam_data, dtype=dtype)
        out = soft_threshold(u, lam, one_sided, in_place=in_place)
        out._backward(g)
        # tobytes tells +0.0 from -0.0, which array_equal does not
        for got, want in ((out.data, ref), (u.grad, ref_u),
                          (lam.grad, ref_lam)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
        assert (out.data is u.data) == in_place

    @pytest.mark.parametrize("one_sided", [True, False])
    def test_caller_tensor_unchanged(self, one_sided):
        u_data, lam_data, g = self.inputs(np.float64)
        u = parameter(u_data.copy())
        out = soft_threshold(u, lam_data, one_sided)
        out._backward(g)
        assert u.data.tobytes() == u_data.tobytes()
        assert out.data is not u.data

    @pytest.mark.parametrize("one_sided", [True, False])
    def test_nan_propagates(self, one_sided):
        # the np.where form zeroed a NaN; the output now carries it
        u = parameter(np.array([np.nan, 2.0, -2.0]))
        out = soft_threshold(u, 1.0, one_sided)
        assert np.isnan(out.data[0])
        assert out.data[1] == 1.0


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
        # +, -, * and / with the broadcast operand on either side; both
        # operands lie in [0.5, 1.5), so either can be the divisor
        wide = parameter(rng.random((5, 3)) + 0.5)
        for shape in [(3,), (5, 1)]:
            narrow = parameter(rng.random(shape) + 0.5)
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv):
                for a, b in [(wide, narrow), (narrow, wide)]:
                    check_gradients(lambda: (op(a, b) ** 2).sum(),
                                    {"wide": wide, "narrow": narrow})

    def test_matmul_vector_cases(self, rng):
        a = parameter(rng.standard_normal((4, 3)))
        v = parameter(rng.standard_normal(3))
        check_gradients(lambda: ((a @ v) ** 2).sum(), {"a": a, "v": v})
        u = parameter(rng.standard_normal(4))
        check_gradients(lambda: ((u @ a) ** 2).sum(), {"u": u, "a": a})
        check_gradients(lambda: (u @ (a @ v)) ** 2, {"u": u, "a": a, "v": v})

    @pytest.mark.parametrize("shapes", [((3, 2, 4), (3, 4, 5)),
                                        ((3, 2, 4), (4, 5)),
                                        ((2, 4), (3, 4, 5)),
                                        ((2, 1, 2, 4), (3, 4, 5)),
                                        ((3, 2, 4), (1, 4, 5))])
    def test_matmul_stack_gradients(self, shapes, rng):
        a = parameter(rng.standard_normal(shapes[0]))
        b = parameter(rng.standard_normal(shapes[1]))
        assert np.array_equal((a @ b).data, np.matmul(a.data, b.data))
        check_gradients(lambda: ((a @ b) ** 2).sum(), {"a": a, "b": b})

    def test_matmul_vector_against_stack_rejected(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            Tensor(rng.standard_normal(4)) @ Tensor(
                rng.standard_normal((3, 4, 5)))

    @pytest.mark.parametrize("axis", [None, 0, (1, 2), (-2, -1)])
    def test_frobenius_norm_over_axes(self, axis, rng):
        x = parameter(rng.standard_normal((3, 4, 5)))
        got = frobenius_norm(x, axis=axis)
        np.testing.assert_allclose(
            got.data, np.sqrt(np.sum(x.data ** 2, axis=axis)), rtol=1e-15)
        weights = rng.random(got.shape) + 0.5
        check_gradients(lambda: (frobenius_norm(x, axis=axis)
                                 * weights).sum(), {"x": x})

    def test_frobenius_zero_slice_has_zero_subgradient(self, rng):
        x = parameter(rng.standard_normal((3, 4, 5)))
        x.data[1] = 0.0
        (grad,) = gradient_of(frobenius_norm(x, axis=(-2, -1)).sum(), [x])
        assert np.all(np.isfinite(grad))
        assert np.array_equal(grad[1], np.zeros((4, 5)))
        for k in (0, 2):
            np.testing.assert_allclose(
                grad[k], x.data[k] / np.linalg.norm(x.data[k]), rtol=1e-14)


class TestMean:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("axis", [None, 1, (0, 2), (-1,)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_value_and_gradient_match_numpy_mean(self, dtype, axis,
                                                 keepdims, rng):
        x = parameter(rng.standard_normal((3, 4, 5)), dtype=dtype)
        out = x.mean(axis=axis, keepdims=keepdims)
        expected = x.data.mean(axis=axis, keepdims=keepdims)
        assert out.dtype == dtype
        assert np.array_equal(out.data, expected)
        g = rng.standard_normal(out.shape).astype(dtype)
        (out * Tensor(g)).sum().backward()
        count = x.size // np.size(expected)
        g_full = g if keepdims or axis is None else np.expand_dims(g, axis)
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, np.broadcast_to(g_full / count,
                                                      x.shape))


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


# ops built by Tensor._node: name -> (shape of the trainable parent p, shape
# of the data parent d or None, the op); a binary op's p broadcasts against d
NODE_OPS = {
    "add": ((3,), (4, 3), lambda p, d: p + d),
    "radd": ((3,), (4, 3), lambda p, d: d + p),
    "neg": ((4, 3), None, lambda p, d: -p),
    "sub": ((4, 1), (4, 3), lambda p, d: p - d),
    "rsub": ((4, 1), (4, 3), lambda p, d: d - p),
    "mul": ((1, 3), (2, 4, 3), lambda p, d: p * d),
    "rmul": ((1, 3), (2, 4, 3), lambda p, d: d * p),
    "div": ((3,), (4, 3), lambda p, d: p / d),
    "rdiv": ((3,), (4, 3), lambda p, d: d / p),
    "pow": ((4, 3), None, lambda p, d: p ** 1.5),
    "reshape": ((4, 3), None, lambda p, d: p.reshape(2, 6)),
    "transpose": ((2, 4, 3), None, lambda p, d: p.transpose((1, 2, 0))),
    "sum": ((2, 4, 3), None, lambda p, d: p.sum(axis=1)),
    "mean": ((2, 4, 3), None, lambda p, d: p.mean(axis=(0, 2),
                                                   keepdims=True)),
    "log": ((4, 3), None, lambda p, d: log(p)),
    "frobenius_norm": ((4, 3), None, lambda p, d: frobenius_norm(p, axis=1)),
    "cross_entropy": ((3, 4), None, lambda p, d: cross_entropy(p, [0, 3, 1])),
    "avg_pool_to": ((1, 2, 4, 6), None, lambda p, d: avg_pool_to(p, 2, 3)),
    "singular_values": ((2, 3, 3), None, lambda p, d: singular_values(p)),
}


class TestOneVjpPerParent:
    @pytest.mark.parametrize("name", list(NODE_OPS))
    def test_only_the_trainable_parent_gets_its_own_shape(self, name, rng):
        p_shape, d_shape, op = NODE_OPS[name]
        p = parameter(rng.random(p_shape) + 0.5)
        d = None if d_shape is None else Tensor(rng.random(d_shape) + 0.5)
        loss = lambda: (op(p, d) ** 2).sum()
        loss().backward()
        assert p.grad.shape == p_shape
        np.testing.assert_allclose(p.grad, numerical_gradient(loss, p),
                                   rtol=1e-6)
        assert d is None or d.grad is None

    @pytest.mark.parametrize("name", list(NODE_OPS))
    def test_data_parents_leave_no_tape(self, name, rng):
        p_shape, d_shape, op = NODE_OPS[name]
        d = None if d_shape is None else Tensor(rng.random(d_shape) + 0.5)
        out = op(Tensor(rng.random(p_shape) + 0.5), d)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


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


# A gradient 7x the true one must fail the check, also when Python runs
# with -O and drops bare asserts.
WRONG_GRADIENT = """
import numpy as np
from orbitnet import gradcheck
from orbitnet.tensor import Tensor
true = gradcheck.gradient_of
gradcheck.gradient_of = lambda loss, ps: [7 * g for g in true(loss, ps)]
p = Tensor(np.array([0.3, -0.8]), requires_grad=True)
try:
    gradcheck.check_gradients(lambda: (p * p).sum(), {"p": p})
except AssertionError as err:
    print(err)
"""


def test_check_gradients_names_a_parameter_with_a_wrong_gradient(rng):
    # an identity op whose vjp doubles the incoming gradient
    p = Tensor(rng.standard_normal(3), requires_grad=True)
    q = Tensor(rng.standard_normal(3), requires_grad=True)

    def loss():
        return (Tensor._node(p.data, (p,), lambda g: 2 * g) * p).sum() \
            + (q * q).sum()
    with pytest.raises(AssertionError, match=r"^gradient mismatch for 'p'"):
        check_gradients(loss, {"q": q, "p": p})


def test_check_gradients_raises_under_optimize_flag():
    out = subprocess.run([sys.executable, "-O", "-c", WRONG_GRADIENT],
                         capture_output=True, text=True, check=True)
    assert out.stdout.startswith("gradient mismatch for 'p'")

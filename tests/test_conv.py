"""Convolution operator: spec values, adjoint identity, gradients."""

import numpy as np
import pytest

from orbitnet import conv
from orbitnet.conv import avg_pool_to, conv2d_adjoint, conv2d_same
from orbitnet.gradcheck import check_gradients
from orbitnet.network import UnfoldedNetwork, training_loss
from orbitnet.tensor import Tensor, parameter


def naive_corr_same(x, w):
    """Reference correlation: explicit loops, zero 'same' padding."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl)))
    out = np.zeros((n, o, h, wd))
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(wd):
                    out[ni, oi, i, j] = np.sum(
                        xp[ni, :, i:i + kh, j:j + kw] * w[oi])
    return out


def naive_adjoint_same(y, w):
    """Reference adjoint: each output pixel spreads its window back."""
    n, o, h, wd = y.shape
    _, c, kh, kw = w.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((n, c, h + kh - 1, wd + kw - 1))
    for ni in range(n):
        for oi in range(o):
            for i in range(h):
                for j in range(wd):
                    xp[ni, :, i:i + kh, j:j + kw] += y[ni, oi, i, j] * w[oi]
    return xp[:, :, pt:pt + h, pl:pl + wd]


# (n, c, h, w, o, k): each kernel runs the gather route when its input has
# no more channels than its output, the scatter route otherwise
SHAPES = [(2, 1, 7, 7, 4, 3),     # c < o, odd kernel
          (3, 4, 8, 6, 2, 5),     # c > o, odd kernel
          (1, 5, 9, 9, 5, 6),     # c == o, even kernel
          (2, 2, 6, 6, 7, 2),     # c < o, even kernel
          (2, 4, 7, 7, 3, 2),     # c > o, even kernel
          (2, 1, 6, 6, 20, 6)]    # the training ratio: one channel, many filters


class TestConvForward:
    def test_identity_1x1_kernel(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        np.testing.assert_array_equal(conv2d_same(x, w).data, x)

    def test_ones_kernel_on_constant_image(self):
        c = 0.7
        x = np.full((1, 1, 8, 8), c)
        w = np.ones((1, 1, 3, 3))
        y = conv2d_same(x, w).data
        # interior pixels see the full window
        np.testing.assert_allclose(y[0, 0, 1:-1, 1:-1], 9 * c)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_naive(self, shape, rng):
        n, c, h, wd, o, k = shape
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((o, c, k, k))
        np.testing.assert_allclose(conv2d_same(x, w).data,
                                   naive_corr_same(x, w), atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_adjoint_matches_naive(self, shape, rng):
        n, c, h, wd, o, k = shape
        y = rng.standard_normal((n, o, h, wd))
        w = rng.standard_normal((o, c, k, k))
        np.testing.assert_allclose(conv2d_adjoint(y, w).data,
                                   naive_adjoint_same(y, w), atol=1e-12)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            conv2d_same(rng.standard_normal((1, 2, 5, 5)),
                        rng.standard_normal((3, 4, 3, 3)))
        with pytest.raises(ValueError):
            conv2d_adjoint(rng.standard_normal((1, 2, 5, 5)),
                           rng.standard_normal((3, 4, 3, 3)))

    def test_oversized_kernel_rejected(self, rng):
        with pytest.raises(ValueError):
            conv2d_same(rng.standard_normal((1, 1, 4, 4)),
                        rng.standard_normal((1, 1, 5, 5)))


class TestAdjoint:
    def test_inner_product_identity_100(self, rng):
        # <conv(x, w), y> == <x, adjoint(y, w)> to 1e-10
        for _ in range(100):
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 5))
            o = int(rng.integers(1, 6))
            h = int(rng.integers(6, 12))
            wd = int(rng.integers(6, 12))
            k = int(rng.integers(1, 7))
            x = rng.standard_normal((n, c, h, wd))
            w = rng.standard_normal((o, c, k, k))
            y = rng.standard_normal((n, o, h, wd))
            lhs = float(np.sum(conv2d_same(x, w).data * y))
            rhs = float(np.sum(x * conv2d_adjoint(y, w).data))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestConvGradients:
    def test_conv_same_gradcheck(self, rng):
        x = parameter(rng.standard_normal((2, 2, 6, 6)))
        w = parameter(rng.standard_normal((3, 2, 3, 3)))
        check_gradients(lambda: (conv2d_same(x, w) ** 2).sum(),
                        {"x": x, "w": w})

    def test_conv_same_even_kernel_gradcheck(self, rng):
        x = parameter(rng.standard_normal((1, 3, 7, 7)))
        w = parameter(rng.standard_normal((2, 3, 6, 6)))
        check_gradients(lambda: (conv2d_same(x, w) ** 2).sum(),
                        {"x": x, "w": w})

    def test_adjoint_gradcheck(self, rng):
        y = parameter(rng.standard_normal((2, 3, 6, 6)))
        w = parameter(rng.standard_normal((3, 2, 4, 4)))
        check_gradients(lambda: (conv2d_adjoint(y, w) ** 2).sum(),
                        {"y": y, "w": w})


    @pytest.mark.parametrize("shape", SHAPES)
    def test_both_ops_gradcheck_on_both_routes(self, shape, rng):
        n, c, h, wd, o, k = shape
        x = parameter(rng.standard_normal((n, c, h, wd)))
        y = parameter(rng.standard_normal((n, o, h, wd)))
        w = parameter(rng.standard_normal((o, c, k, k)))
        check_gradients(lambda: (conv2d_same(x, w) ** 2).sum(),
                        {"x": x, "w": w})
        check_gradients(lambda: (conv2d_adjoint(y, w) ** 2).sum(),
                        {"y": y, "w": w})

    @pytest.mark.parametrize("shape", [(2, 1, 6, 6, 20, 6),
                                       (2, 4, 7, 7, 3, 2)])
    def test_float32_stays_float32(self, shape, rng, monkeypatch):
        n, c, h, wd, o, k = shape
        x64 = rng.standard_normal((n, c, h, wd))
        y64 = rng.standard_normal((n, o, h, wd))
        w64 = rng.standard_normal((o, c, k, k))
        # record what the backward kernels emit, before any cast to the
        # parameter's dtype
        emitted = []
        accumulate = Tensor._accumulate

        def spy(t, g):
            emitted.append(np.asarray(g).dtype)
            accumulate(t, g)
        monkeypatch.setattr(Tensor, "_accumulate", spy)
        for op, a64 in ((conv2d_same, x64), (conv2d_adjoint, y64)):
            a = parameter(a64, dtype=np.float32)
            w = parameter(w64, dtype=np.float32)
            out = op(a, w)
            assert out.dtype == np.float32
            emitted.clear()
            out._backward(np.ones_like(out.data))
            assert emitted == [np.float32, np.float32]
            assert a.grad.dtype == w.grad.dtype == np.float32
            ref = op(a64, w64).data
            np.testing.assert_allclose(out.data, ref,
                                       atol=1e-5 * np.abs(ref).max())


def test_reference_step_pads_only_the_narrow_operand(rng, monkeypatch):
    # reference network: L=4, K=5, p=4, 6x6 filters on 1x28x28 images, so
    # every conv call maps between 1 image channel and 20 code channels
    net = UnfoldedNetwork("classification", 1, 4, 5, 4, 6, 0.01, rng)
    narrow = min(1, 5 * 4)
    padded = []
    pad = conv._pad

    def spy(x, *args):
        out = pad(x, *args)
        padded.append(out.shape)
        return out
    monkeypatch.setattr(conv, "_pad", spy)
    x = Tensor(rng.random((4, 1, 28, 28)))
    training_loss(net, x, rng.integers(0, 10, 4), mu=0.001).backward()
    assert padded
    assert all(shape[:2] == (4, narrow) for shape in padded), padded


class TestAvgPool:
    def test_constant_blocks(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = avg_pool_to(Tensor(x), 2, 2).data
        np.testing.assert_allclose(
            y[0, 0], [[x[0, 0, :2, :2].mean(), x[0, 0, :2, 2:].mean()],
                      [x[0, 0, 2:, :2].mean(), x[0, 0, 2:, 2:].mean()]])

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ValueError):
            avg_pool_to(Tensor(rng.standard_normal((1, 1, 5, 4))), 2, 2)

    def test_gradcheck(self, rng):
        x = parameter(rng.standard_normal((2, 3, 8, 8)))
        check_gradients(lambda: (avg_pool_to(x, 4, 4) ** 2).sum(), {"x": x})


class TestConvWithAddend:
    """conv2d_same(x, w, z) is z + conv2d_same(x, w), as one tape node."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(2, 1, 6, 6, 20, 6),
                                       (2, 4, 7, 7, 3, 2)])
    def test_bitwise_equal_to_separate_add(self, shape, dtype, rng):
        n, c, h, wd, o, k = shape
        arrays = (rng.standard_normal((n, c, h, wd)),
                  rng.standard_normal((o, c, k, k)),
                  rng.standard_normal((n, o, h, wd)))
        upstream = rng.standard_normal((n, o, h, wd)).astype(dtype)

        def run(fused):
            x, w, z = (parameter(a, dtype=dtype) for a in arrays)
            out = conv2d_same(x, w, z) if fused else z + conv2d_same(x, w)
            (out * upstream).sum().backward()
            return out.data, x.grad, w.grad, z.grad

        for fused, separate in zip(run(True), run(False)):
            assert fused.dtype == dtype
            np.testing.assert_array_equal(fused, separate)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradcheck_on_both_routes(self, shape, rng):
        n, c, h, wd, o, k = shape
        x = parameter(rng.standard_normal((n, c, h, wd)))
        w = parameter(rng.standard_normal((o, c, k, k)))
        z = parameter(rng.standard_normal((n, o, h, wd)))
        check_gradients(lambda: (conv2d_same(x, w, z) ** 2).sum(),
                        {"x": x, "w": w, "z": z})

    def test_addend_shape_mismatch_rejected(self, rng):
        x = rng.standard_normal((2, 1, 6, 6))
        w = rng.standard_normal((4, 1, 3, 3))
        with pytest.raises(ValueError, match="added term"):
            conv2d_same(x, w, rng.standard_normal((1, 4, 6, 6)))

"""Unfolded network: layer semantics, heads, losses, gradients."""

import numpy as np
import pytest

from orbitnet.gradcheck import check_gradients
from orbitnet.groups import GroupAction, expand_orbit
from orbitnet.network import (BatchNorm2d, GroupConvLayer, UnfoldedNetwork,
                              ista_step_residual_form, task_loss,
                              training_loss)
from orbitnet.tensor import Tensor, soft_threshold


def identity_layer():
    """K=1, p=1, 1x1 unit filter, alpha=1, lambda=0: the layer passes x through."""
    rng = np.random.default_rng(0)
    layer = GroupConvLayer(in_channels=1, num_groups=1, group_order=1,
                           filter_size=1, alpha=1.0, rng=rng)
    layer.bases[0].data = np.ones((1, 1, 1))
    layer.lam.data = np.zeros(1)
    return layer


def random_layer(rng, in_channels=1, num_groups=2, group_order=2,
                 filter_size=3, alpha=0.7, one_sided=True):
    layer = GroupConvLayer(in_channels=in_channels, num_groups=num_groups,
                           group_order=group_order, filter_size=filter_size,
                           alpha=alpha, rng=rng, one_sided=one_sided)
    layer.lam.data = rng.random(layer.out_channels) * 0.1
    for basis in layer.bases:
        basis.data = rng.standard_normal(basis.shape) * 0.3
    return layer


class TestGroupConvLayer:
    def test_identity_bank_passes_input(self, rng):
        x = Tensor(rng.random((2, 1, 5, 5)))
        z = identity_layer().forward(x, None)
        np.testing.assert_allclose(z.data, np.maximum(x.data, 0.0),
                                   atol=1e-15)
        # positive inputs pass through exactly
        xp = Tensor(rng.random((2, 1, 5, 5)) + 0.1)
        np.testing.assert_allclose(identity_layer().forward(xp, None).data,
                                   xp.data, atol=1e-15)

    def test_zero_code_reduces_to_analysis(self, rng):
        from orbitnet.conv import conv2d_same
        layer = random_layer(rng)
        layer.lam.data = np.zeros(layer.out_channels)
        x = Tensor(rng.standard_normal((2, 1, 7, 7)))
        z0 = Tensor(np.zeros((2, layer.out_channels, 7, 7)))
        got = layer.forward(x, z0)
        bank = layer.weight_bank()
        expected = layer.alpha * conv2d_same(x, bank).data
        np.testing.assert_allclose(
            got.data, np.maximum(expected, 0.0), atol=1e-12)

    def test_bank_channel_count(self, rng):
        for k, p in [(1, 1), (2, 3), (5, 4), (3, 2)]:
            layer = GroupConvLayer(1, k, p, 3, 0.1, rng)
            assert layer.weight_bank().shape == (k * p, 1, 3, 3)

    def test_bank_matches_expand_orbit(self, rng):
        # the layer's expansion agrees with the group-core orbit per channel
        layer = random_layer(rng, in_channels=2, num_groups=2, group_order=3)
        bank = layer.weight_bank().data
        for k, basis in enumerate(layer.bases):
            action = GroupAction(Tensor(layer.action.a.data[k]),
                                 Tensor(layer.action.a_tilde.data[k]), 3, 3, 3)
            for c in range(2):
                orbit = expand_orbit(action, basis.data[c])
                for j, element in enumerate(orbit.expanded):
                    np.testing.assert_allclose(
                        bank[k * 3 + j, c], element.data, atol=1e-12)

    def test_residual_form_equivalence(self, rng):
        # the ISTA update equals its residual-network rewrite to 1e-10
        for _ in range(25):
            c = int(rng.integers(1, 3))
            layer = random_layer(
                rng, in_channels=c,
                num_groups=int(rng.integers(1, 3)),
                group_order=int(rng.integers(1, 4)),
                filter_size=int(rng.integers(2, 5)),
                alpha=float(rng.random() * 0.9 + 0.05),
                one_sided=bool(rng.integers(0, 2)))
            h = int(rng.integers(6, 10))
            x = Tensor(rng.standard_normal((2, c, h, h)))
            z = Tensor(rng.standard_normal((2, layer.out_channels, h, h)))
            direct = layer.forward(x, z).data
            rewritten = ista_step_residual_form(layer, x, z).data
            assert np.max(np.abs(direct - rewritten)) < 1e-10

    def test_inputs_unchanged_by_the_in_place_shrink(self, rng):
        layer = random_layer(rng)
        x = Tensor(rng.standard_normal((2, 1, 7, 7)))
        z_prev = Tensor(rng.standard_normal((2, layer.out_channels, 7, 7)),
                        requires_grad=True)
        x_bytes, z_bytes = x.data.tobytes(), z_prev.data.tobytes()
        code = layer.forward(x, z_prev)
        (code * code).sum().backward()
        assert x.data.tobytes() == x_bytes
        assert z_prev.data.tobytes() == z_bytes
        # the code is written into its correlation's output, not beside it
        assert code._parents[0].data is code.data

    def test_alpha_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            GroupConvLayer(1, 1, 1, 3, alpha=0.0, rng=rng)
        with pytest.raises(ValueError):
            GroupConvLayer(1, 1, 1, 3, alpha=-0.1, rng=rng)

    def test_shape_mismatches_rejected(self, rng):
        layer = random_layer(rng)
        x = Tensor(rng.standard_normal((2, 1, 7, 7)))
        bad_channels = Tensor(np.zeros((2, layer.out_channels + 1, 7, 7)))
        with pytest.raises(ValueError):
            layer.forward(x, bad_channels)
        bad_spatial = Tensor(np.zeros((2, layer.out_channels, 6, 7)))
        with pytest.raises(ValueError):
            layer.forward(x, bad_spatial)
        with pytest.raises(ValueError):
            layer.forward(Tensor(np.zeros((2, 3, 7, 7))), None)

    def test_threshold_clamp(self, rng):
        layer = random_layer(rng)
        layer.lam.data[:] = -0.5
        layer.clamp_thresholds()
        assert np.all(layer.lam.data == 0.0)


class TestLassoDescent:
    def test_objective_nonincreasing_across_layers(self, rng):
        """Tied ISTA iterations never increase 0.5||x - Wz||^2 + lam ||z||_1."""
        for _ in range(20):
            d, q = 12, 20
            w = rng.standard_normal((d, q)) * 0.5
            # spectral bound 1/alpha >= sigma_max(W^T W), via the eigen oracle
            alpha = 1.0 / np.max(np.linalg.eigvalsh(w.T @ w))
            lam = 0.05
            x = rng.standard_normal(d)
            z = np.zeros(q)

            def objective(zv):
                return 0.5 * np.sum((x - w @ zv) ** 2) + lam * np.sum(np.abs(zv))

            previous = objective(z)
            for _ in range(8):
                u = Tensor(z + alpha * (w.T @ (x - w @ z)))
                z = soft_threshold(u, lam * alpha).data
                current = objective(z)
                assert current <= previous + 1e-12
                previous = current


class TestBatchNorm:
    def test_train_normalizes(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((8, 3, 5, 5)) * 4.0 + 2.0)
        y = bn.forward(x, training=True).data
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_eval_without_stats_raises(self, rng):
        bn = BatchNorm2d(3)
        with pytest.raises(RuntimeError):
            bn.forward(Tensor(rng.standard_normal((2, 3, 4, 4))),
                       training=False)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn.forward(Tensor(rng.standard_normal((16, 2, 4, 4)) * 3.0 + 1.0),
                       training=True)
        y = bn.forward(Tensor(rng.standard_normal((16, 2, 4, 4)) * 3.0 + 1.0),
                       training=False).data
        assert abs(y.mean()) < 0.2

    def test_gradcheck(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        # random target keeps the beta gradient away from its zero at init
        target = Tensor(rng.standard_normal((4, 2, 3, 3)))
        check_gradients(
            lambda: ((bn.forward(x, training=True) - target) ** 2).sum(),
            {"x": x, "gamma": bn.gamma, "beta": bn.beta})


def nine_node_batch_norm(bn, x):
    """Training-mode batch norm built from nine tape ops, as a reference."""
    axes = (0, 2, 3)
    mu = x.mean(axis=axes, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axes, keepdims=True)
    count = x.size // x.shape[1]
    unbiased = var.data.reshape(-1) * count / max(count - 1, 1)
    bn.running_mean = ((1 - bn.momentum) * bn.running_mean
                       + bn.momentum * mu.data.reshape(-1))
    bn.running_var = ((1 - bn.momentum) * bn.running_var
                      + bn.momentum * unbiased)
    bn.initialized = True
    xn = centered * (var + bn.eps) ** -0.5
    shape = (1, bn.channels, 1, 1)
    return xn * bn.gamma.reshape(shape) + bn.beta.reshape(shape)


def composed_eval_batch_norm(bn, x):
    """Eval-mode batch norm built from four tape ops, as a reference."""
    shape = (1, bn.channels, 1, 1)
    mu = bn.running_mean.reshape(shape)
    std = np.sqrt(bn.running_var + bn.eps).reshape(shape)
    xn = (x - mu) * (1.0 / std)
    return xn * bn.gamma.reshape(shape) + bn.beta.reshape(shape)


def stored_xhat_batch_norm(bn, x, training):
    """The one-node batch norm as it kept x_hat on the tape, as a reference."""
    axes, shape = (0, 2, 3), (1, bn.channels, 1, 1)
    gamma, beta = bn.gamma, bn.beta
    count = x.size // x.shape[1]
    if training:
        mu = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        unbiased = var.reshape(-1) * count / max(count - 1, 1)
        bn.running_mean = ((1 - bn.momentum) * bn.running_mean
                           + bn.momentum * mu.reshape(-1))
        bn.running_var = ((1 - bn.momentum) * bn.running_var
                          + bn.momentum * unbiased)
    else:
        centered = x.data - bn.running_mean.reshape(shape)
        var = bn.running_var.reshape(shape)
    rs = (var + bn.eps) ** -0.5
    xhat = centered * rs
    out = xhat * gamma.data.reshape(shape) + beta.data.reshape(shape)

    def backward(g):
        sum_g = g.sum(axis=axes)
        gx = g * xhat
        sum_gx = gx.sum(axis=axes)
        gamma._accumulate(sum_gx)
        beta._accumulate(sum_g)
        if not training:
            x._accumulate(g * (gamma.data.reshape(shape) * rs))
        else:
            dx = g * count
            dx -= sum_g.reshape(shape)
            dx -= np.multiply(xhat, sum_gx.reshape(shape), out=gx)
            dx *= gamma.data.reshape(shape) * rs / count
            x._accumulate(dx)
    return Tensor._result(out, (x, gamma, beta), backward)


class TestOneNodeBatchNorm:
    @staticmethod
    def run(forward, dtype, seed=3):
        rng = np.random.default_rng(seed)
        bn = BatchNorm2d(4, dtype=dtype)
        bn.gamma.data = (rng.random(4) + 0.5).astype(dtype)
        bn.beta.data = rng.standard_normal(4).astype(dtype)
        bn.running_mean = rng.standard_normal(4).astype(dtype)
        x = Tensor((rng.standard_normal((6, 4, 5, 7)) * 3.0 + 1.5)
                   .astype(dtype), requires_grad=True)
        weight = Tensor(rng.standard_normal(x.shape).astype(dtype))
        bn.running_var = (rng.random(4) + 0.5).astype(dtype)
        bn.initialized = True
        out = forward(bn, x)
        (out * weight).sum().backward()
        return bn, x, out

    def test_is_one_node(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, True), np.float64)
        assert [id(p) for p in out._parents] == \
            [id(x), id(bn.gamma), id(bn.beta)]

    def test_matches_nine_node_reference(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, True), np.float64)
        ref_bn, ref_x, ref = self.run(nine_node_batch_norm, np.float64)
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(bn.running_mean, ref_bn.running_mean)
        assert np.array_equal(bn.running_var, ref_bn.running_var)
        for got, want in ((x.grad, ref_x.grad),
                          (bn.gamma.grad, ref_bn.gamma.grad),
                          (bn.beta.grad, ref_bn.beta.grad)):
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err < 1e-10

    def test_eval_is_one_node(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, False), np.float64)
        assert [id(p) for p in out._parents] == \
            [id(x), id(bn.gamma), id(bn.beta)]

    def test_eval_matches_composed_reference(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, False), np.float64)
        ref_bn, ref_x, ref = self.run(composed_eval_batch_norm, np.float64)
        assert np.array_equal(bn.running_mean, ref_bn.running_mean)
        assert np.array_equal(bn.running_var, ref_bn.running_var)
        for got, want in ((out.data, ref.data), (x.grad, ref_x.grad),
                          (bn.gamma.grad, ref_bn.gamma.grad),
                          (bn.beta.grad, ref_bn.beta.grad)):
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err < 1e-15

    def test_eval_gradcheck(self, rng):
        bn = BatchNorm2d(3)
        bn.running_mean = rng.standard_normal(3)
        bn.running_var = rng.random(3) + 0.5
        bn.gamma.data = rng.random(3) + 0.5
        bn.initialized = True
        x = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        target = Tensor(rng.standard_normal((4, 3, 3, 3)))
        check_gradients(
            lambda: ((bn.forward(x, training=False) - target) ** 2).sum(),
            {"x": x, "gamma": bn.gamma, "beta": bn.beta})

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("training", [True, False])
    def test_recomputed_xhat_matches_stored_xhat(self, dtype, training):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, training), dtype)
        ref_bn, ref_x, ref = self.run(
            lambda bn, x: stored_xhat_batch_norm(bn, x, training), dtype)
        for got, want in ((out.data, ref.data), (x.grad, ref_x.grad),
                          (bn.gamma.grad, ref_bn.gamma.grad),
                          (bn.beta.grad, ref_bn.beta.grad),
                          (bn.running_mean, ref_bn.running_mean),
                          (bn.running_var, ref_bn.running_var)):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    def test_input_unchanged(self):
        x_data = np.random.default_rng(2).standard_normal((4, 3, 5, 5))
        for training in (True, False):
            bn = BatchNorm2d(3)
            bn.initialized = True
            x = Tensor(x_data.copy(), requires_grad=True)
            (bn.forward(x, training) ** 2).sum().backward()
            assert x.data.tobytes() == x_data.tobytes()

    def test_float32_stays_float32(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, True), np.float32)
        assert out.dtype == np.float32
        for grad in (x.grad, bn.gamma.grad, bn.beta.grad):
            assert grad.dtype == np.float32

    def test_eval_float32_stays_float32(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, False), np.float32)
        assert out.dtype == np.float32
        for grad in (x.grad, bn.gamma.grad, bn.beta.grad):
            assert grad.dtype == np.float32


def tiny_network(task="classification", rng=None, **kwargs):
    rng = rng or np.random.default_rng(0)
    defaults = dict(task=task, in_channels=1, num_layers=2, num_groups=1,
                    group_order=2, filter_size=3, alpha=0.5, rng=rng)
    defaults.update(kwargs)
    return UnfoldedNetwork(**defaults)


class TestUnfoldedNetwork:
    def test_paper_channel_count(self, rng):
        # L=4 layers of K=5 groups with p=4 elements: every code has 20 channels
        net = UnfoldedNetwork("classification", 1, 4, 5, 4, 6, 0.01, rng)
        codes, banks = net.encode(Tensor(rng.random((1, 1, 28, 28))))
        assert len(codes) == len(banks) == 4
        for code, bank in zip(codes, banks):
            assert code.shape[1] == 20
            assert bank.shape == (20, 1, 6, 6)

    def test_zero_input_gives_bias_logits(self, rng):
        net = tiny_network(rng=rng)
        for layer in net.layers:
            layer.lam.data[:] = 0.3
        net.head_bias.data = rng.standard_normal(10)
        out = net.forward(Tensor(np.zeros((3, 1, 8, 8))))
        codes, _ = net.encode(Tensor(np.zeros((3, 1, 8, 8))))
        for code in codes:
            np.testing.assert_array_equal(code.data, 0.0)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(net.head_bias.data, (3, 10)),
            atol=1e-12)

    def test_single_layer_equals_direct_call(self, rng):
        net = tiny_network(rng=rng, num_layers=1)
        x = Tensor(rng.random((2, 1, 8, 8)))
        codes, banks = net.encode(x)
        direct = net.layers[0].forward(x, None)
        np.testing.assert_array_equal(codes[0].data, direct.data)
        np.testing.assert_array_equal(banks[0].data,
                                      net.layers[0].weight_bank().data)

    def test_unknown_task_rejected(self, rng):
        with pytest.raises(ValueError):
            tiny_network(task="segmentation", rng=rng)

    def test_reconstruction_head_shape(self, rng):
        net = tiny_network(task="reconstruction", rng=rng)
        x = Tensor(rng.random((2, 1, 8, 8)))
        assert net.forward(x).shape == (2, 1, 8, 8)

    def test_perfect_reconstruction_hits_task_floor(self, rng):
        # identity-like single layer reconstructs exactly; at p = 1 it holds
        # no generator, so the total training loss is the MSE floor of zero
        net = tiny_network(task="reconstruction", rng=rng, num_layers=1,
                           num_groups=1, group_order=1, filter_size=1,
                           alpha=1.0)
        layer = net.layers[0]
        layer.bases[0].data = np.ones((1, 1, 1))
        layer.lam.data = np.zeros(1)
        x = Tensor(rng.random((2, 1, 8, 8)) + 0.1)
        loss = training_loss(net, x, mu=0.001)
        assert loss.item() == pytest.approx(0.0, abs=1e-20)

    def test_mu_zero_is_pure_task_loss(self, rng):
        net = tiny_network(rng=rng)
        x = Tensor(rng.random((4, 1, 8, 8)))
        labels = rng.integers(0, 10, 4)
        pure = task_loss(net, x, labels).item()
        assert training_loss(net, x, labels, mu=0.0).item() == pure

    def test_paper_regularized_loss_decomposes(self, rng):
        from orbitnet.groups import invertibility_loss
        net = tiny_network(rng=rng, num_groups=3)
        x = Tensor(rng.random((4, 1, 8, 8)))
        labels = rng.integers(0, 10, 4)
        mu = 0.001
        total = training_loss(net, x, labels, mu=mu).item()
        # one term per group, each from its own generator pair
        expected = task_loss(net, x, labels).item() + sum(
            invertibility_loss(GroupAction(Tensor(a), Tensor(at), 2, 3, 3),
                               mu).item()
            for layer in net.layers
            for a, at in zip(layer.action.a.data, layer.action.a_tilde.data))
        assert total == pytest.approx(expected, rel=1e-12)

    def test_svd_variants_run(self, rng):
        net = tiny_network(rng=rng)
        x = Tensor(rng.random((2, 1, 8, 8)))
        labels = rng.integers(0, 10, 2)
        for variant in ("svd_sum", "svd_logdet"):
            loss = training_loss(net, x, labels, mu=0.01,
                                 loss_variant=variant)
            assert np.isfinite(loss.item())
        with pytest.raises(ValueError):
            training_loss(net, x, labels, mu=0.01, loss_variant="bogus")

    def test_eval_mode_is_deterministic(self, rng):
        net = tiny_network(rng=rng)
        x = Tensor(rng.random((4, 1, 8, 8)))
        net.train()
        task_loss(net, x, rng.integers(0, 10, 4))
        net.eval()
        a = net.forward(x).data
        b = net.forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_state_roundtrip(self, rng):
        net = tiny_network(rng=rng)
        x = Tensor(rng.random((4, 1, 8, 8)))
        task_loss(net, x, rng.integers(0, 10, 4))
        state = net.state_arrays()
        other = tiny_network(rng=np.random.default_rng(99))
        other.load_state_arrays(state)
        for name, p in net.parameters().items():
            np.testing.assert_array_equal(other.parameters()[name].data,
                                          p.data)
        net.eval()
        other.eval()
        np.testing.assert_array_equal(other.forward(x).data,
                                      net.forward(x).data)


class TestEndToEndGradients:
    def test_miniature_network_all_parameters(self, rng):
        """2 layers, K=1, p=2, 3x3 filters: tape vs finite differences."""
        net = tiny_network(rng=rng)
        for layer in net.layers:
            # interior thresholds so the lambda perturbations stay feasible
            layer.lam.data[:] = 0.05 + rng.random(layer.out_channels) * 0.1
        x = Tensor(rng.random((2, 1, 8, 8)))
        labels = rng.integers(0, 10, 2)

        def loss():
            return training_loss(net, x, labels, mu=0.001)

        errors = check_gradients(loss, net.parameters(), rtol=1e-4)
        assert max(errors.values()) < 1e-4

    def test_reconstruction_network_gradients(self, rng):
        net = tiny_network(task="reconstruction", rng=rng)
        for layer in net.layers:
            layer.lam.data[:] = 0.05 + rng.random(layer.out_channels) * 0.1
        x = Tensor(rng.random((2, 1, 8, 8)))

        def loss():
            return training_loss(net, x, mu=0.001)

        check_gradients(loss, net.parameters(), rtol=1e-4)


def _tape(loss):
    """Every tensor reachable from `loss` through `_parents`."""
    seen, stack, out = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            out.append(t)
            stack.extend(t._parents)
    return out


class TestFloat32Tape:
    """A float32 network computes in float32 from the input to the loss."""

    VARIANTS = ("aux_inverse", "svd_sum", "svd_logdet")
    ORDER = 2
    MIN_TAPE = 50

    @classmethod
    def step(cls, dtype, variant):
        rng = np.random.default_rng(5)
        net = UnfoldedNetwork("classification", in_channels=3, num_layers=2,
                              num_groups=2, group_order=cls.ORDER,
                              filter_size=3, alpha=0.7, rng=rng, dtype=dtype)
        x = Tensor(rng.random((4, 3, 16, 16)).astype(dtype))
        loss = training_loss(net, x, rng.integers(0, 10, 4), mu=0.01,
                             loss_variant=variant)
        loss.backward()
        return net, loss

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_tape_tensor_is_float32(self, variant):
        _, loss = self.step(np.float32, variant)
        tape = _tape(loss)
        assert len(tape) > self.MIN_TAPE
        upcast = [t for t in tape if t.dtype != np.float32]
        assert not upcast, f"{len(upcast)} of {len(tape)} tensors upcast"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_tracks_float64(self, variant):
        net32, loss32 = self.step(np.float32, variant)
        net64, loss64 = self.step(np.float64, variant)
        assert loss32.item() == pytest.approx(loss64.item(), rel=1e-5)
        p64 = net64.parameters()
        for name, p in net32.parameters().items():
            ref = p64[name].grad
            if ref is None:     # A_tilde is outside the SVD penalties
                assert p.grad is None
                continue
            assert p.grad.dtype == np.float32
            if ref.size == 0:   # a p = 1 layer's empty generator stack
                assert p.grad.shape == ref.shape
                continue
            err = np.linalg.norm(p.grad - ref) / np.linalg.norm(ref)
            assert err < 1e-2, f"{name}: relative gradient error {err:.2e}"


class TestFloat32TapeFreeFilter(TestFloat32Tape):
    """The same checks for the free-filter baseline, group_order = 1."""

    ORDER = 1
    MIN_TAPE = 40


def test_unknown_loss_variant_raises_through_both_entry_points(rng):
    from orbitnet.config import RunConfig
    from orbitnet.train import training_loss_from_task
    net = tiny_network(rng=rng)
    x = Tensor(rng.random((2, 1, 8, 8)))
    labels = rng.integers(0, 10, 2)
    for mu in (0.0, 0.01):
        with pytest.raises(ValueError, match="bogus"):
            training_loss(net, x, labels, mu=mu, loss_variant="bogus")
        cfg = RunConfig(mu=mu, loss_variant="bogus")   # not validated
        with pytest.raises(ValueError, match="bogus"):
            training_loss_from_task(net, task_loss(net, x, labels), cfg)


def test_nan_code_stops_the_step_at_adam(rng, monkeypatch):
    # a NaN pre-activation gave a zero code and a finite step before; the
    # shrink now passes it on, so Adam's non-finite check stops the run
    import orbitnet.network as network
    from orbitnet.optim import Adam
    real = network.conv2d_same

    def nan_in_first_layer(x, w, z=None):
        u = real(x, w, z)
        if z is None:
            u.data[0, 0, 0, 0] = np.nan
        return u
    monkeypatch.setattr(network, "conv2d_same", nan_in_first_layer)
    net = tiny_network(rng=rng)
    x = Tensor(rng.random((2, 1, 8, 8)))
    codes, _ = net.encode(x)
    assert np.isnan(codes[0].data[0, 0, 0, 0])
    opt = Adam(net.parameters())
    loss = training_loss(net, x, rng.integers(0, 10, 2), mu=0.001)
    assert np.isnan(loss.item())
    loss.backward()
    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        opt.step()


def per_group_bank(layer):
    """The bank built group by group with the per-group column formula."""
    n = layer.filter_size
    filters = []
    for k, basis in enumerate(layer.bases):
        a = layer.action.a.data[k]
        element = basis.data
        filters.append(element)
        for _ in range(layer.group_order - 1):
            c = element.shape[0]
            cols = element.transpose(0, 2, 1).reshape(c, n * n)
            element = (cols @ a.T).reshape(c, n, n).transpose(0, 2, 1)
            filters.append(element)
    return np.stack(filters)


def v1_state_shapes(num_layers, num_groups, group_order, channels, size):
    """Checkpoint name -> shape, one generator per name (format v1)."""
    d = size * size
    shapes = {}
    for i in range(num_layers):
        for k in range(num_groups):
            shapes[f"layers.{i}.groups.{k}.A"] = (d, d)
            shapes[f"layers.{i}.groups.{k}.A_tilde"] = (d, d)
            shapes[f"layers.{i}.bases.{k}"] = (channels, size, size)
        shapes[f"layers.{i}.lam"] = (num_groups * group_order,)
    for i in range(num_layers - 1):
        for field in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"bn.{i}.{field}"] = (num_groups * group_order,)
        shapes[f"bn.{i}.initialized"] = ()
    shapes["head.weight"] = (10, num_groups * group_order * 16)
    shapes["head.bias"] = (10,)
    return shapes


class TestStackedGenerators:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_bank_equals_per_group_loop(self, channels, dtype, rng):
        layer = GroupConvLayer(channels, 5, 4, 6, 0.5, rng, dtype=dtype)
        layer.action.a.data = (layer.action.a.data + 0.3 * rng.standard_normal(
            layer.action.a.shape)).astype(dtype)
        bank = layer.weight_bank().data
        assert bank.dtype == dtype
        assert np.array_equal(bank, per_group_bank(layer))

    def test_seed_draws_generators_in_per_group_order(self):
        layer = GroupConvLayer(2, 3, 2, 3, 0.5, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        eps = GroupAction.init_eps
        for k in range(3):
            a = np.eye(9) + eps * rng.standard_normal((9, 9))
            a_tilde = np.eye(9) + eps * rng.standard_normal((9, 9))
            assert np.array_equal(layer.action.a.data[k], a)
            assert np.array_equal(layer.action.a_tilde.data[k], a_tilde)
        scale = 0.1 / np.sqrt(2 * 9)
        for basis in layer.bases:
            assert np.array_equal(basis.data,
                                  scale * rng.standard_normal((2, 3, 3)))

    def test_one_stacked_parameter_pair_per_layer(self, rng):
        net = tiny_network(rng=rng, num_layers=3, num_groups=4)
        params = net.parameters()
        for i in range(3):
            assert params[f"layers.{i}.A"].shape == (4, 9, 9)
            assert params[f"layers.{i}.A_tilde"].shape == (4, 9, 9)
        assert not any(".groups." in name for name in params)

    def test_state_names_are_the_v1_names(self, rng):
        net = tiny_network(rng=rng, num_layers=3, num_groups=4)
        shapes = v1_state_shapes(3, 4, 2, 1, 3)
        state = net.state_arrays()
        assert set(state) == set(shapes)
        assert {k: v.shape for k, v in state.items()} == shapes

    def test_v1_state_loads_and_round_trips(self, rng):
        net = tiny_network(rng=rng, num_layers=3, num_groups=4)
        v1 = {name: rng.standard_normal(shape)
              for name, shape in v1_state_shapes(3, 4, 2, 1, 3).items()}
        for i in range(2):
            v1[f"bn.{i}.initialized"] = np.asarray(1.0)
        net.load_state_arrays(v1)
        for k in range(4):
            assert np.array_equal(net.layers[1].action.a_tilde.data[k],
                                  v1[f"layers.1.groups.{k}.A_tilde"])
        state = net.state_arrays()
        for name, arr in v1.items():
            assert np.array_equal(state[name], arr), name

    def test_missing_group_names_the_tensor(self, rng):
        net = tiny_network(rng=rng, num_layers=3, num_groups=4)
        state = net.state_arrays()
        del state["layers.1.groups.3.A_tilde"]
        other = tiny_network(rng=rng, num_layers=3, num_groups=4)
        with pytest.raises(KeyError, match=r"layers\.1\.groups\.3\.A_tilde"):
            other.load_state_arrays(state)

    def test_extra_tensor_is_named(self, rng):
        net = tiny_network(rng=rng, num_layers=3, num_groups=4)
        state = net.state_arrays()
        state["layers.1.groups.4.A"] = np.eye(9)
        with pytest.raises(ValueError, match=r"layers\.1\.groups\.4\.A"):
            net.load_state_arrays(state)

    @pytest.mark.parametrize("variant", ["aux_inverse", "svd_sum"])
    def test_one_penalty_call_per_layer(self, variant, rng, monkeypatch):
        import orbitnet.network as network
        calls = []
        for name in ("invertibility_loss", "svd_invertibility_loss"):
            original = getattr(network, name)
            monkeypatch.setattr(
                network, name,
                lambda action, *args, f=original, **kw:
                calls.append(action.a.shape) or f(action, *args, **kw))
        net = tiny_network(rng=rng, num_layers=4, num_groups=5)
        x = Tensor(rng.random((2, 1, 8, 8)))
        training_loss(net, x, rng.integers(0, 10, 2), mu=0.01,
                      loss_variant=variant)
        assert calls == [(5, 9, 9)] * 4


class TestFreeFilterBaseline:
    """group_order = 1: one-filter orbits, so no generator in any layer."""

    @pytest.mark.parametrize("groups, count, tensors",
                             [(5, 1580, 41), (20, 6290, 101)])
    def test_layers_hold_empty_generator_stacks(self, groups, count, tensors,
                                                rng):
        net = UnfoldedNetwork("classification", 1, 4, groups, 1, 6, 0.01, rng)
        for layer in net.layers:
            assert layer.action.a.shape == (0, 36, 36)
            assert layer.action.a_tilde.shape == (0, 36, 36)
        assert sum(p.size for p in net.parameters().values()) == count
        state = net.state_arrays()
        assert len(state) == tensors
        assert not any(".groups." in name for name in state)

    def test_bases_are_the_first_draws(self):
        layer = GroupConvLayer(2, 3, 1, 3, 0.5, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        scale = 0.1 / np.sqrt(2 * 9)
        for basis in layer.bases:
            assert np.array_equal(basis.data,
                                  scale * rng.standard_normal((2, 3, 3)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_bank_is_the_stacked_bases(self, channels, dtype, rng):
        layer = GroupConvLayer(channels, 5, 1, 6, 0.5, rng, dtype=dtype)
        bank = layer.weight_bank().data
        expected = np.stack([basis.data for basis in layer.bases])
        assert bank.dtype == dtype
        assert bank.shape == expected.shape == (5, channels, 6, 6)
        assert np.array_equal(bank, expected)

    @pytest.mark.parametrize("variant", ["aux_inverse", "svd_sum",
                                         "svd_logdet"])
    def test_penalty_adds_nothing(self, variant, rng):
        net = tiny_network(rng=rng, num_groups=3, group_order=1)
        x = Tensor(rng.random((2, 1, 8, 8)))
        labels = rng.integers(0, 10, 2)
        task = task_loss(net, x, labels).item()
        total = training_loss(net, x, labels, mu=0.5, loss_variant=variant)
        assert total.item() == task
        total.backward()
        for layer in net.layers:
            assert layer.action.a.grad.shape == (0, 9, 9)


class TestOneBankPerStep:
    """`encode` expands each layer's orbit once and returns the banks."""

    @pytest.mark.parametrize("task", ["classification", "reconstruction"])
    def test_weight_bank_calls_per_step(self, task, rng, monkeypatch):
        calls = []
        original = GroupConvLayer.weight_bank
        monkeypatch.setattr(GroupConvLayer, "weight_bank",
                            lambda layer: calls.append(layer) or
                            original(layer))
        net = tiny_network(task=task, rng=rng, num_layers=4)
        x = Tensor(rng.random((2, 1, 8, 8)))
        training_loss(net, x, rng.integers(0, 10, 2), mu=0.01).backward()
        assert calls == net.layers

    def test_reconstruction_uses_layer_zero_bank(self, rng):
        from orbitnet.conv import conv2d_adjoint
        net = tiny_network(task="reconstruction", rng=rng, num_layers=3)
        x = Tensor(rng.random((2, 1, 8, 8)))
        out = net.forward(x)
        codes, banks = net.encode(x)
        assert len(banks) == 3
        np.testing.assert_array_equal(
            out.data, conv2d_adjoint(codes[-1], banks[0]).data)


class TestTapeMemory:
    """Backward drops each op output's gradient once its op has used it."""

    @staticmethod
    def loss_and_params():
        rng = np.random.default_rng(3)
        net = tiny_network(rng=rng)
        x = Tensor(rng.random((2, 1, 8, 8)))
        return training_loss(net, x, rng.integers(0, 10, 2), mu=0.001), \
            net.parameters()

    def test_non_leaf_gradients_are_dropped(self):
        loss, params = self.loss_and_params()
        loss.backward()
        tape = _tape(loss)
        ops = [t for t in tape if t._backward is not None]
        assert len(ops) > 40
        assert all(t.grad is None for t in ops)
        assert all(p.grad is not None for p in params.values())

    def test_second_backward_adds_the_same_leaf_gradients(self):
        loss, params = self.loss_and_params()
        loss.backward()
        first = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.grad = None
        loss.backward()
        for name, p in params.items():
            np.testing.assert_array_equal(p.grad, first[name], err_msg=name)
        loss.backward()
        for name, p in params.items():
            np.testing.assert_allclose(p.grad, 2 * first[name], rtol=1e-12,
                                       atol=1e-15, err_msg=name)

    def test_reference_step_peak_memory(self):
        # the reference step (batch 32, 1x28x28, L=4, K=5, p=4, 6x6 filters,
        # aux_inverse, float64) peaks at about 43 MiB. Keeping the shrink's
        # input and mask and batch norm's x_hat on the tape took it to
        # 72 MiB, and every intermediate gradient as well to 119 MiB
        import tracemalloc

        from orbitnet.config import RunConfig
        from orbitnet.optim import Adam
        from orbitnet.train import build_network, training_loss_from_task

        cfg = RunConfig().validate()
        rng = np.random.default_rng(0)
        net = build_network(cfg, 1, rng)
        opt = Adam(net.parameters(), lr=cfg.lr)
        x = Tensor(rng.random((cfg.batch_size, 1, 28, 28)))
        labels = rng.integers(0, 10, cfg.batch_size)

        def step():
            opt.zero_grad()
            total = training_loss_from_task(net, task_loss(net, x, labels),
                                            cfg)
            total.backward()
            opt.step()
            net.clamp_thresholds()

        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 56 * 2 ** 20, f"step peak {peak / 2 ** 20:.1f} MiB"

"""Unfolded network: layer semantics, heads, losses, gradients."""

import numpy as np
import pytest

from orbitnet.gradcheck import check_gradients
from orbitnet.groups import expand_orbit
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
        for k, (action, basis) in enumerate(zip(layer.groups, layer.bases)):
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

    def test_float32_stays_float32(self):
        bn, x, out = self.run(lambda bn, x: bn.forward(x, True), np.float32)
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
        codes = net.encode(Tensor(rng.random((1, 1, 28, 28))))
        assert len(codes) == 4
        for code in codes:
            assert code.shape[1] == 20

    def test_zero_input_gives_bias_logits(self, rng):
        net = tiny_network(rng=rng)
        for layer in net.layers:
            layer.lam.data[:] = 0.3
        net.head_bias.data = rng.standard_normal(10)
        out = net.forward(Tensor(np.zeros((3, 1, 8, 8))))
        codes = net.encode(Tensor(np.zeros((3, 1, 8, 8))))
        for code in codes:
            np.testing.assert_array_equal(code.data, 0.0)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(net.head_bias.data, (3, 10)),
            atol=1e-12)

    def test_single_layer_equals_direct_call(self, rng):
        net = tiny_network(rng=rng, num_layers=1)
        x = Tensor(rng.random((2, 1, 8, 8)))
        code = net.encode(x)[0]
        direct = net.layers[0].forward(x, None)
        np.testing.assert_array_equal(code.data, direct.data)

    def test_unknown_task_rejected(self, rng):
        with pytest.raises(ValueError):
            tiny_network(task="segmentation", rng=rng)

    def test_reconstruction_head_shape(self, rng):
        net = tiny_network(task="reconstruction", rng=rng)
        x = Tensor(rng.random((2, 1, 8, 8)))
        assert net.forward(x).shape == (2, 1, 8, 8)

    def test_perfect_reconstruction_hits_task_floor(self, rng):
        # identity-like single layer reconstructs exactly; with A = A_tilde = I
        # the total training loss collapses to the MSE floor of zero
        net = tiny_network(task="reconstruction", rng=rng, num_layers=1,
                           num_groups=1, group_order=1, filter_size=1,
                           alpha=1.0)
        layer = net.layers[0]
        layer.bases[0].data = np.ones((1, 1, 1))
        layer.lam.data = np.zeros(1)
        layer.groups[0].a.data = np.eye(1)
        layer.groups[0].a_tilde.data = np.eye(1)
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
        net = tiny_network(rng=rng)
        x = Tensor(rng.random((4, 1, 8, 8)))
        labels = rng.integers(0, 10, 4)
        mu = 0.001
        total = training_loss(net, x, labels, mu=mu).item()
        expected = task_loss(net, x, labels).item() + sum(
            invertibility_loss(action, mu).item()
            for _, _, action in net.group_actions())
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

    def test_tied_network_shares_parameters(self, rng):
        net = tiny_network(rng=rng, tied=True, num_layers=3)
        assert net.layers[0] is net.layers[1] is net.layers[2]
        names = list(net.parameters())
        assert sum(1 for n in names if n.startswith("layers.")) == 4
        x = Tensor(rng.random((2, 1, 8, 8)))
        assert net.forward(x).shape == (2, 10)

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

    @staticmethod
    def step(dtype, variant):
        rng = np.random.default_rng(5)
        net = UnfoldedNetwork("classification", in_channels=3, num_layers=2,
                              num_groups=2, group_order=2, filter_size=3,
                              alpha=0.7, rng=rng, dtype=dtype)
        x = Tensor(rng.random((4, 3, 16, 16)).astype(dtype))
        loss = training_loss(net, x, rng.integers(0, 10, 4), mu=0.01,
                             loss_variant=variant)
        loss.backward()
        return net, loss

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_tape_tensor_is_float32(self, variant):
        _, loss = self.step(np.float32, variant)
        tape = _tape(loss)
        assert len(tape) > 50
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
            err = np.linalg.norm(p.grad - ref) / np.linalg.norm(ref)
            assert err < 1e-2, f"{name}: relative gradient error {err:.2e}"


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

"""Unfolded sparse-coding network with orbit-generated filter banks.

Each layer performs one iterative-shrinkage step

    z_next = S_lambda(z + alpha * W^T * (x - W * z))

where x is always the original input, W is the layer's filter bank applied
convolutionally (W maps codes to image space, W^T images to code space),
and S_lambda is the soft threshold (one-sided by default, i.e. a shifted
rectifier with trainable per-filter bias). The bank is never stored: it is
re-expanded on every forward pass from K basis filters and their group
generators, so gradients reach both.
"""

import numpy as np

from .conv import avg_pool_to, conv2d_adjoint, conv2d_same
from .groups import GroupAction, apply_action_stack, invertibility_loss, \
    svd_invertibility_loss
from .tensor import Tensor, cross_entropy, parameter, soft_threshold, stack


class BatchNorm2d:
    """Per-channel batch normalization over [N, C, H, W].

    In training mode, gamma * x_hat + beta with x_hat = (x - mean) * rs and
    rs = (var + eps)^-1/2 over the m = N*H*W values of a channel is one
    tape node, whose backward is the closed form over per-channel sums:
    d_beta = sum(g), d_gamma = sum(g * x_hat) and
    d_x = gamma * rs / m * (m * g - sum(g) - x_hat * sum(g * x_hat)).
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5, dtype=np.float64):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = parameter(np.ones(channels), dtype=dtype)
        self.beta = parameter(np.zeros(channels), dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.initialized = False

    def forward(self, x, training):
        shape = (1, self.channels, 1, 1)
        if not training:
            if not self.initialized:
                raise RuntimeError(
                    "batch norm has no running statistics; run at least one "
                    "training-mode forward pass or load a checkpoint")
            mu = self.running_mean.reshape(shape)
            std = np.sqrt(self.running_var + self.eps).reshape(shape)
            xn = (x - mu) * (1.0 / std)
            return xn * self.gamma.reshape(shape) + self.beta.reshape(shape)
        gamma, beta, axes = self.gamma, self.beta, (0, 2, 3)
        mu = x.data.mean(axis=axes, keepdims=True)
        centered = x.data - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        count = x.size // x.shape[1]
        unbiased = var.reshape(-1) * count / max(count - 1, 1)
        self.running_mean = ((1 - self.momentum) * self.running_mean
                             + self.momentum * mu.reshape(-1))
        self.running_var = ((1 - self.momentum) * self.running_var
                            + self.momentum * unbiased)
        self.initialized = True
        rs = (var + self.eps) ** -0.5
        xhat = centered * rs
        out = xhat * gamma.data.reshape(shape) + beta.data.reshape(shape)

        def backward(g):
            sum_g = g.sum(axis=axes)
            gx = g * xhat
            sum_gx = gx.sum(axis=axes)
            if gamma.requires_grad:
                gamma._accumulate(sum_gx)
            if beta.requires_grad:
                beta._accumulate(sum_g)
            if x.requires_grad:
                dx = g * count
                dx -= sum_g.reshape(shape)
                dx -= np.multiply(xhat, sum_gx.reshape(shape), out=gx)
                dx *= gamma.data.reshape(shape) * rs / count
                x._accumulate(dx)
        return Tensor._result(out, (x, gamma, beta), backward)


class GroupConvLayer:
    """One unfolding step: K cyclic groups of p filters each.

    Trainables per group: a [C, n, m] basis filter stack (one n x m filter
    per input channel; the group's generator acts channel-wise) and the
    generator pair (A, A_tilde). Thresholds are per output filter.
    """

    def __init__(self, in_channels, num_groups, group_order, filter_size,
                 alpha, rng, one_sided=True, init_eps=0.01, dtype=np.float64):
        if alpha <= 0:
            raise ValueError("step size alpha must be positive")
        self.in_channels = in_channels
        self.num_groups = num_groups
        self.group_order = group_order
        self.filter_size = filter_size
        self.alpha = alpha
        self.one_sided = one_sided
        n = m = filter_size
        scale = 0.1 / np.sqrt(in_channels * n * m)
        self.groups = [
            GroupAction.initialize(n, m, group_order, rng, eps=init_eps,
                                   dtype=dtype)
            for _ in range(num_groups)]
        self.bases = [
            parameter(scale * rng.standard_normal((in_channels, n, m)),
                      dtype=dtype)
            for _ in range(num_groups)]
        # thresholds start at zero (plain rectifier): a positive start can
        # silence every code at this alpha and freeze training permanently
        self.lam = parameter(np.zeros(num_groups * group_order), dtype=dtype)

    @property
    def out_channels(self):
        return self.num_groups * self.group_order

    def weight_bank(self):
        """Expand all orbits into the full bank [K*p, C, n, m]."""
        filters = []
        for action, basis in zip(self.groups, self.bases):
            element = basis
            filters.append(element)
            for _ in range(self.group_order - 1):
                element = apply_action_stack(action, element)
                filters.append(element)
        return stack(filters, axis=0)

    def forward(self, x, z_prev=None):
        """One ISTA step; z_prev=None means the all-zero initial code."""
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}")
        bank = self.weight_bank()
        if z_prev is None:
            u = conv2d_same(x, self.alpha * bank)
        else:
            if z_prev.shape[1] != self.out_channels or \
                    z_prev.shape[2:] != x.shape[2:]:
                raise ValueError(
                    f"code shape {z_prev.shape} does not match input "
                    f"{x.shape} with {self.out_channels} filters")
            residual = x - conv2d_adjoint(z_prev, bank)
            u = z_prev + conv2d_same(residual, self.alpha * bank)
        lam = self.lam.reshape(1, self.out_channels, 1, 1)
        return soft_threshold(u, lam, one_sided=self.one_sided)

    def clamp_thresholds(self):
        np.maximum(self.lam.data, 0.0, out=self.lam.data)


def ista_step_residual_form(layer, x, z_prev):
    """The same update written as a residual network step.

    Computes S_lambda(W_z z + W_x x) with W_z = I - alpha W^T W and
    W_x = alpha W^T, applied convolutionally. Used to cross-check
    `GroupConvLayer.forward` against the algebraic rewrite.
    """
    bank = layer.weight_bank()
    wx = layer.alpha * conv2d_same(x, bank)
    wz = z_prev - layer.alpha * conv2d_same(conv2d_adjoint(z_prev, bank), bank)
    lam = layer.lam.reshape(1, layer.out_channels, 1, 1)
    return soft_threshold(wz + wx, lam, one_sided=layer.one_sided)


class UnfoldedNetwork:
    """L stacked ISTA layers plus a classification or reconstruction head.

    Batch normalization follows every layer except the last (the one whose
    code feeds the head); the normalized code is what the next layer
    iterates on, while the residual target x stays raw.
    """

    POOLED = 4

    def __init__(self, task, in_channels, num_layers, num_groups, group_order,
                 filter_size, alpha, rng, num_classes=10, tied=False,
                 one_sided=True, init_eps=0.01, dtype=np.float64):
        if task not in ("classification", "reconstruction"):
            raise ValueError(f"unknown task: {task!r}")
        self.task = task
        self.tied = tied
        self.training = True
        self.dtype = dtype
        if tied:
            shared = GroupConvLayer(in_channels, num_groups, group_order,
                                    filter_size, alpha, rng,
                                    one_sided=one_sided, init_eps=init_eps,
                                    dtype=dtype)
            self.layers = [shared] * num_layers
        else:
            self.layers = [
                GroupConvLayer(in_channels, num_groups, group_order,
                               filter_size, alpha, rng, one_sided=one_sided,
                               init_eps=init_eps, dtype=dtype)
                for _ in range(num_layers)]
        channels = num_groups * group_order
        self.bns = [BatchNorm2d(channels, dtype=dtype)
                    for _ in range(num_layers - 1)]
        if task == "classification":
            fan_in = channels * self.POOLED * self.POOLED
            self.head_weight = parameter(
                rng.standard_normal((num_classes, fan_in)) / np.sqrt(fan_in),
                dtype=dtype)
            self.head_bias = parameter(np.zeros(num_classes), dtype=dtype)

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def encode(self, x):
        """Run the unfolding; returns the code after every layer."""
        x = Tensor._lift(x)
        codes = []
        z = None
        for i, layer in enumerate(self.layers):
            z = layer.forward(x, z)
            codes.append(z)
            if i < len(self.layers) - 1:
                z = self.bns[i].forward(z, self.training)
        return codes

    def forward(self, x):
        x = Tensor._lift(x)
        code = self.encode(x)[-1]
        if self.task == "classification":
            pooled = avg_pool_to(code, self.POOLED, self.POOLED)
            flat = pooled.reshape(pooled.shape[0],
                                  pooled.size // pooled.shape[0])
            return flat @ self.head_weight.transpose() + self.head_bias
        return conv2d_adjoint(code, self.layers[0].weight_bank())

    def unique_layers(self):
        return self.layers[:1] if self.tied else self.layers

    def parameters(self):
        """Ordered name -> Tensor map of every trainable."""
        params = {}
        for i, layer in enumerate(self.unique_layers()):
            for k in range(layer.num_groups):
                params[f"layers.{i}.groups.{k}.A"] = layer.groups[k].a
                params[f"layers.{i}.groups.{k}.A_tilde"] = layer.groups[k].a_tilde
                params[f"layers.{i}.bases.{k}"] = layer.bases[k]
            params[f"layers.{i}.lam"] = layer.lam
        for i, bn in enumerate(self.bns):
            params[f"bn.{i}.gamma"] = bn.gamma
            params[f"bn.{i}.beta"] = bn.beta
        if self.task == "classification":
            params["head.weight"] = self.head_weight
            params["head.bias"] = self.head_bias
        return params

    def clamp_thresholds(self):
        for layer in self.unique_layers():
            layer.clamp_thresholds()

    def group_actions(self):
        """(layer index, group index, GroupAction) over unique layers."""
        return [(li, ki, action)
                for li, layer in enumerate(self.unique_layers())
                for ki, action in enumerate(layer.groups)]

    def state_arrays(self):
        """Everything needed to restore the network, as plain arrays."""
        state = {name: p.data for name, p in self.parameters().items()}
        for i, bn in enumerate(self.bns):
            state[f"bn.{i}.running_mean"] = bn.running_mean
            state[f"bn.{i}.running_var"] = bn.running_var
            state[f"bn.{i}.initialized"] = np.asarray(
                1.0 if bn.initialized else 0.0)
        return state

    def load_state_arrays(self, state):
        for name, p in self.parameters().items():
            if name not in state:
                raise KeyError(f"checkpoint is missing tensor {name!r}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint has "
                    f"{state[name].shape}, model expects {p.data.shape}")
            p.data = state[name].astype(p.data.dtype)
        for i, bn in enumerate(self.bns):
            bn.running_mean = state[f"bn.{i}.running_mean"].astype(bn.running_mean.dtype)
            bn.running_var = state[f"bn.{i}.running_var"].astype(bn.running_var.dtype)
            bn.initialized = bool(state[f"bn.{i}.initialized"])


def task_loss(net, x, labels=None):
    """Cross-entropy for classification, mean squared error for reconstruction."""
    out = net.forward(x)
    if net.task == "classification":
        return cross_entropy(out, labels)
    diff = out - Tensor._lift(x)
    return (diff * diff).mean()


def training_loss(net, x, labels=None, mu=0.0, loss_variant="aux_inverse",
                  squared_frobenius=False):
    """Task loss plus the selected invertibility penalty over all groups."""
    return add_invertibility_penalty(net, task_loss(net, x, labels), mu,
                                     loss_variant, squared_frobenius)


_SVD_VARIANTS = {"svd_sum": "sum", "svd_logdet": "logdet"}


def add_invertibility_penalty(net, loss, mu, loss_variant="aux_inverse",
                              squared_frobenius=False):
    """`loss` plus the selected penalty of every group action, one at a time."""
    if loss_variant != "aux_inverse" and loss_variant not in _SVD_VARIANTS:
        raise ValueError(f"unknown loss variant: {loss_variant!r}")
    if mu == 0.0:
        return loss
    for _, _, action in net.group_actions():
        if loss_variant == "aux_inverse":
            loss = loss + invertibility_loss(action, mu,
                                             squared=squared_frobenius)
        else:
            loss = loss + svd_invertibility_loss(
                action, mu, variant=_SVD_VARIANTS[loss_variant])
    return loss

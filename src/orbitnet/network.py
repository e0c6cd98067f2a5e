"""Unfolded sparse-coding network with orbit-generated filter banks.

Each layer performs one iterative-shrinkage step

    z_next = S_lambda(z + alpha * W^T * (x - W * z))

where x is always the original input, W is the layer's filter bank applied
convolutionally (W maps codes to image space, W^T images to code space),
and S_lambda is the soft threshold (one-sided by default, i.e. a shifted
rectifier with trainable per-filter bias). The bank is never stored: it is
re-expanded once per layer and step from K basis filters and group
generators, so gradients reach both. Each layer holds its K generators as
one [K, d, d] stack; checkpoints still name them one group at a time.
"""

import numpy as np

from .config import LOSS_VARIANTS, TASKS
from .conv import avg_pool_to, conv2d_adjoint, conv2d_same
from .groups import GroupAction, expand_orbit, invertibility_loss, \
    svd_invertibility_loss
from .tensor import Tensor, cross_entropy, parameter, soft_threshold, stack


class BatchNorm2d:
    """Per-channel batch normalization over [N, C, H, W], one tape node.

    gamma * x_hat + beta with x_hat = (x - centre) * rs, rs = (var + eps)^-1/2,
    over the m = N*H*W values of a channel in training (centre and var are
    the batch's, and update the running statistics) or from the running
    statistics in eval. Backward: d_beta = sum(g), d_gamma = sum(g * x_hat);
    d_x = g * gamma * rs in eval,
    gamma * rs / m * (m * g - sum(g) - x_hat * sum(g * x_hat)) in training.

    The node keeps only the per-channel centre and rs: backward rebuilds
    x_hat from x.data with the same two operations as forward, so x.data
    must not change between forward and backward (as for every op that
    reads its input in backward). Forward makes one full-size array, the
    output, and squares into it to get the batch variance.
    """

    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels, dtype=np.float64):
        self.channels = channels
        self.gamma = parameter(np.ones(channels), dtype=dtype)
        self.beta = parameter(np.zeros(channels), dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.initialized = False

    def forward(self, x, training):
        gamma, beta, axes = self.gamma, self.beta, (0, 2, 3)
        shape = (1, self.channels, 1, 1)
        count = x.size // x.shape[1]
        if not (training or self.initialized):
            raise RuntimeError(
                "batch norm has no running statistics; run at least one "
                "training-mode forward pass or load a checkpoint")
        if training:
            centre = x.data.mean(axis=axes, keepdims=True)
            out = np.subtract(x.data, centre)
            var = np.multiply(out, out, out=out).mean(axis=axes,
                                                      keepdims=True)
            np.subtract(x.data, centre, out=out)
            unbiased = var.reshape(-1) * count / max(count - 1, 1)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * centre.reshape(-1))
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * unbiased)
            self.initialized = True
        else:
            centre = self.running_mean.reshape(shape)
            var = self.running_var.reshape(shape)
            out = np.subtract(x.data, centre)
        rs = (var + self.eps) ** -0.5
        out *= rs
        out *= gamma.data.reshape(shape)
        out += beta.data.reshape(shape)

        def backward(g):
            xhat = np.subtract(x.data, centre)
            xhat *= rs
            sum_g = g.sum(axis=axes)
            gx = g * xhat
            sum_gx = gx.sum(axis=axes)
            if gamma.requires_grad:
                gamma._accumulate(sum_gx)
            if beta.requires_grad:
                beta._accumulate(sum_g)
            if x.requires_grad and not training:
                x._accumulate(g * (gamma.data.reshape(shape) * rs))
            elif x.requires_grad:
                dx = np.multiply(g, count, out=gx)
                dx -= sum_g.reshape(shape)
                dx -= np.multiply(xhat, sum_gx.reshape(shape), out=xhat)
                dx *= gamma.data.reshape(shape) * rs / count
                x._accumulate(dx)
        return Tensor._result(out, (x, gamma, beta), backward)


class GroupConvLayer:
    """One unfolding step: K groups of p filters each.

    Trainables: `action`, whose A and A_tilde are [K, d, d] stacks with
    d = n*m, or [0, d, d] at p = 1, whose one-filter orbits apply no
    generator; one [C, n, m] basis filter stack per group (the generator
    acts channel-wise); and one threshold per output filter.
    """

    def __init__(self, in_channels, num_groups, group_order, filter_size,
                 alpha, rng, one_sided=True, dtype=np.float64):
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
        self.action = GroupAction.initialize(
            n, m, group_order, rng, dtype=dtype,
            stack=(num_groups if group_order > 1 else 0,))
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
        orbit = expand_orbit(self.action, stack(self.bases))
        return stack(orbit.expanded, axis=1).reshape(
            self.out_channels, self.in_channels, self.filter_size,
            self.filter_size)

    def forward(self, x, z_prev=None, bank=None):
        """One ISTA step; None stands for the zero code or this layer's bank."""
        if x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected {self.in_channels} input channels, got {x.shape[1]}")
        bank = self.weight_bank() if bank is None else bank
        if z_prev is None:
            u = conv2d_same(x, self.alpha * bank)
        else:
            if z_prev.shape[1] != self.out_channels or \
                    z_prev.shape[2:] != x.shape[2:]:
                raise ValueError(
                    f"code shape {z_prev.shape} does not match input "
                    f"{x.shape} with {self.out_channels} filters")
            residual = x - conv2d_adjoint(z_prev, bank)
            u = conv2d_same(residual, self.alpha * bank, z_prev)
        lam = self.lam.reshape(1, self.out_channels, 1, 1)
        # nothing else reads the correlation's fresh output: shrink into it
        return soft_threshold(u, lam, one_sided=self.one_sided,
                              in_place=True)

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
    NUM_CLASSES = 10

    def __init__(self, task, in_channels, num_layers, num_groups, group_order,
                 filter_size, alpha, rng, dtype=np.float64):
        if task not in TASKS:
            raise ValueError(f"unknown task: {task!r}")
        self.task = task
        self.training = True
        self.layers = [GroupConvLayer(in_channels, num_groups, group_order,
                                      filter_size, alpha, rng, dtype=dtype)
                       for _ in range(num_layers)]
        channels = num_groups * group_order
        self.bns = [BatchNorm2d(channels, dtype=dtype)
                    for _ in range(num_layers - 1)]
        if task == "classification":
            fan_in = channels * self.POOLED * self.POOLED
            self.head_weight = parameter(
                rng.standard_normal((self.NUM_CLASSES, fan_in))
                / np.sqrt(fan_in), dtype=dtype)
            self.head_bias = parameter(np.zeros(self.NUM_CLASSES), dtype=dtype)

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def encode(self, x):
        """(codes, banks): each layer's code and its bank, in layer order."""
        x = Tensor._lift(x)
        codes, banks = [], []
        z = None
        for i, layer in enumerate(self.layers):
            banks.append(layer.weight_bank())
            z = layer.forward(x, z, banks[-1])
            codes.append(z)
            if i < len(self.layers) - 1:
                z = self.bns[i].forward(z, self.training)
        return codes, banks

    def forward(self, x):
        codes, banks = self.encode(x)
        if self.task == "classification":
            pooled = avg_pool_to(codes[-1], self.POOLED, self.POOLED)
            flat = pooled.reshape(pooled.shape[0],
                                  pooled.size // pooled.shape[0])
            return flat @ self.head_weight.transpose() + self.head_bias
        return conv2d_adjoint(codes[-1], banks[0])

    def parameters(self):
        """Ordered name -> Tensor map of every trainable."""
        params = {}
        for i, layer in enumerate(self.layers):
            params[f"layers.{i}.A"] = layer.action.a
            params[f"layers.{i}.A_tilde"] = layer.action.a_tilde
            for k, basis in enumerate(layer.bases):
                params[f"layers.{i}.bases.{k}"] = basis
            params[f"layers.{i}.lam"] = layer.lam
        for i, bn in enumerate(self.bns):
            params[f"bn.{i}.gamma"] = bn.gamma
            params[f"bn.{i}.beta"] = bn.beta
        if self.task == "classification":
            params["head.weight"] = self.head_weight
            params["head.bias"] = self.head_bias
        return params

    def clamp_thresholds(self):
        for layer in self.layers:
            layer.clamp_thresholds()

    def _checkpoint_slots(self):
        """Checkpoint name -> (parameter, index); a stack is saved per group."""
        slots = {}
        for name, p in self.parameters().items():
            layer, _, field = name.rpartition(".")
            if field in ("A", "A_tilde"):
                for k in range(p.shape[0]):
                    slots[f"{layer}.groups.{k}.{field}"] = (p, k)
            else:
                slots[name] = (p, ...)
        return slots

    def state_arrays(self):
        """Everything needed to restore the network, as plain arrays."""
        state = {name: p.data[index].copy()
                 for name, (p, index) in self._checkpoint_slots().items()}
        for i, bn in enumerate(self.bns):
            state[f"bn.{i}.running_mean"] = bn.running_mean
            state[f"bn.{i}.running_var"] = bn.running_var
            state[f"bn.{i}.initialized"] = np.asarray(
                1.0 if bn.initialized else 0.0)
        return state

    def load_state_arrays(self, state):
        """Restore exactly this model's tensors, all checked before a write."""
        slots = self._checkpoint_slots()
        shapes = {name: p.data[index].shape
                  for name, (p, index) in slots.items()}
        for i, bn in enumerate(self.bns):
            for field in ("running_mean", "running_var", "initialized"):
                shapes[f"bn.{i}.{field}"] = np.shape(getattr(bn, field))
        missing = sorted(set(shapes) - set(state))
        if missing:
            raise KeyError(f"checkpoint is missing tensors {missing}")
        extra = sorted(set(state) - set(shapes))
        if extra:
            raise ValueError(f"checkpoint has tensors the model does not "
                             f"have: {extra}")
        bad = sorted(k for k, v in state.items() if not np.all(np.isfinite(v)))
        if bad:
            raise ValueError(f"checkpoint has non-finite tensors {bad}")
        for name, shape in shapes.items():
            got = state[name].shape
            # a flag saved before 0-d shapes were kept has shape (1,)
            if got != shape and (shape, got) != ((), (1,)):
                raise ValueError(f"shape mismatch for {name!r}: checkpoint "
                                 f"has {got}, model expects {shape}")
        for name, (p, index) in slots.items():
            p.data[index] = state[name]
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


def training_loss(net, x, labels=None, mu=0.0, loss_variant="aux_inverse"):
    """Task loss plus the selected invertibility penalty over all groups."""
    return add_invertibility_penalty(net, task_loss(net, x, labels), mu,
                                     loss_variant)


def add_invertibility_penalty(net, loss, mu, loss_variant="aux_inverse"):
    """`loss` plus the selected penalty, one call per layer's generator stack."""
    if loss_variant not in LOSS_VARIANTS:
        raise ValueError(f"unknown loss variant: {loss_variant!r}")
    if mu == 0.0:
        return loss
    for layer in net.layers:
        if loss_variant == "aux_inverse":
            loss = loss + invertibility_loss(layer.action, mu)
        else:
            loss = loss + svd_invertibility_loss(layer.action, mu,
                                                 loss_variant)
    return loss

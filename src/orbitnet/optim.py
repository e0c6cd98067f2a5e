"""Adam optimizer over named parameter tensors."""

import numpy as np


class Adam:
    """Bias-corrected Adam.

    `params` is a dict of name -> Tensor; names are used in the diagnostics
    raised on non-finite gradients. Parameters whose grad is None at step
    time are left untouched (treated as zero gradient); the step counter
    advances once per call either way.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr=0.01):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                finite = np.isfinite(g)
                first = tuple(np.argwhere(~finite)[0].tolist())
                raise FloatingPointError(
                    f"non-finite gradient for '{name}' at step {self.t}: "
                    f"{g.size - int(finite.sum())}/{g.size} bad entries, "
                    f"first at index {first}, |g|max="
                    f"{np.max(np.abs(g[finite])) if finite.any() else 'n/a'}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p.data = p.data - (self.lr * update).astype(p.data.dtype)


def lr_at(epoch, total_epochs, base_lr):
    """Step schedule: halve the rate at 50%, 75%, and 87.5% progress."""
    if total_epochs <= 0:
        return base_lr
    progress = epoch / total_epochs
    halvings = sum(progress >= frac for frac in (0.5, 0.75, 0.875))
    return base_lr * (0.5 ** halvings)

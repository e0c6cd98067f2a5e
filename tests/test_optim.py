"""Adam optimizer against the textbook recurrence."""

import numpy as np
import pytest

from orbitnet.optim import Adam, lr_at
from orbitnet.tensor import parameter


def reference_adam(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent implementation of the bias-corrected recurrence."""
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        out.append(x.copy())
    return out


class TestAdam:
    def test_zero_gradient_leaves_params(self, rng):
        p = parameter(rng.standard_normal(5))
        before = p.data.copy()
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.zeros(5)
        opt.step()
        np.testing.assert_array_equal(p.data, before)
        assert opt.t == 1

    def test_missing_gradient_advances_counter(self, rng):
        p = parameter(rng.standard_normal(5))
        opt = Adam({"p": p})
        opt.step()
        assert opt.t == 1

    def test_first_step_is_signed_lr(self, rng):
        # bias correction cancels the moments at t=1: update = lr*g/(|g|+eps)
        p = parameter(rng.standard_normal(8))
        before = p.data.copy()
        g = rng.standard_normal(8)
        opt = Adam({"p": p}, lr=0.01)
        p.grad = g.copy()
        opt.step()
        expected = before - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, atol=1e-14)

    def test_matches_reference_recurrence(self, rng):
        # quadratic bowl: grad of 0.5||x||^2 is x itself
        x0 = rng.standard_normal(6)
        p = parameter(x0)
        opt = Adam({"x": p}, lr=0.01)
        grads = []
        for _ in range(100):
            grads.append(p.data.copy())
            p.grad = p.data.copy()
            opt.step()
        ref = reference_adam(x0, grads, lr=0.01)
        np.testing.assert_allclose(p.data, ref[-1], atol=1e-12)
        assert np.linalg.norm(p.data) < np.linalg.norm(x0)

    def test_nan_gradient_aborts_with_diagnostics(self, rng):
        p = parameter(rng.standard_normal(4))
        opt = Adam({"weights": p})
        p.grad = np.array([1.0, np.nan, 2.0, 3.0])
        with pytest.raises(FloatingPointError, match="weights"):
            opt.step()

    def test_non_finite_error_names_first_bad_entry(self, rng):
        # with a stacked generator the name alone does not say which group
        p = parameter(rng.standard_normal((3, 2, 4)))
        opt = Adam({"layers.0.A": p})
        p.grad = np.zeros((3, 2, 4))
        p.grad[2, 1, 3] = np.inf
        p.grad[1, 0, 2] = np.nan
        with pytest.raises(FloatingPointError,
                           match=r"'layers\.0\.A'.*first at index \(1, 0, 2\)"):
            opt.step()


class TestSchedule:
    def test_halving_milestones(self):
        # halve at 50%, 75%, 87.5% progress
        assert lr_at(0, 100, 0.01) == 0.01
        assert lr_at(49, 100, 0.01) == 0.01
        assert lr_at(50, 100, 0.01) == 0.005
        assert lr_at(75, 100, 0.01) == 0.0025
        assert lr_at(88, 100, 0.01) == 0.00125
        assert lr_at(99, 100, 0.01) == 0.00125

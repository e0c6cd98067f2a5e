"""Linear transform recovery: gradient fit vs closed form vs analytic."""

import numpy as np
import pytest

from orbitnet import probe
from orbitnet.data import PatchTransform
from orbitnet.optim import Adam
from orbitnet.probe import analytic_operator, fit_action_gd, fit_action_lstsq
from orbitnet.tensor import Tensor, parameter


def make_pairs(transform, count, rng, size=6):
    xs = rng.random((count, size * size))
    op = transform.operator()
    return xs, xs @ op.T


class TestLstsqFit:
    def test_recovers_analytic_operator(self, rng):
        for t in (PatchTransform.rotation(45.0), PatchTransform.pooling(4),
                  PatchTransform.composition(5, 60.0)):
            xs, ys = make_pairs(t, 400, rng)
            fit = fit_action_lstsq(xs, ys).compare(analytic_operator(t))
            assert fit.rel_fro_err < 1e-8
            assert not fit.rank_deficient

    def test_identity_pairs_give_identity(self, rng):
        xs = rng.random((100, 36))
        fit = fit_action_lstsq(xs, xs)
        np.testing.assert_allclose(fit.a_hat, np.eye(36), atol=1e-10)

    def test_rank_deficiency_flagged(self, rng):
        xs = np.tile(rng.random((1, 36)), (50, 1))   # rank-1 inputs
        with pytest.warns(RuntimeWarning, match="rank"):
            fit = fit_action_lstsq(xs, xs)
        assert fit.rank_deficient

    @pytest.mark.parametrize("name,value,count", [("ys", np.nan, 1),
                                                  ("xs", np.inf, 2)])
    def test_non_finite_pairs_rejected(self, name, value, count, rng):
        pairs = {"xs": rng.random((50, 36)), "ys": rng.random((50, 36))}
        pairs[name].flat[[5, 77][:count]] = value
        with pytest.raises(ValueError, match=f"{name} has {count} non-finite"):
            fit_action_lstsq(pairs["xs"], pairs["ys"])


class TestGradientFit:
    def test_identity_transform(self, rng):
        xs = rng.random((600, 36))
        fit = fit_action_gd(xs, xs, epochs=400, lr=0.02)
        off = fit.a_hat - np.diag(np.diag(fit.a_hat))
        assert np.max(np.abs(off)) < 0.05
        assert np.max(np.abs(np.diag(fit.a_hat) - 1.0)) < 0.05

    def test_quarter_turn_recovers_permutation(self, rng):
        t = PatchTransform.rotation(90.0)
        xs, ys = make_pairs(t, 600, rng)
        fit = fit_action_gd(xs, ys, epochs=400, lr=0.02)
        fit.compare(analytic_operator(t))
        assert fit.max_abs_err < 0.05

    def test_loss_decreases_on_convex_problem(self, rng):
        t = PatchTransform.pooling(3)
        xs, ys = make_pairs(t, 300, rng)
        first = fit_action_gd(xs, ys, epochs=1, lr=0.01).train_mse
        last = fit_action_gd(xs, ys, epochs=200, lr=0.01).train_mse
        assert last < first

    def test_agrees_with_lstsq_at_convergence(self, rng):
        t = PatchTransform.pooling(4)
        xs, ys = make_pairs(t, 600, rng)
        gd = fit_action_gd(xs, ys, epochs=800, lr=0.02)
        ls = fit_action_lstsq(xs, ys)
        rel = np.linalg.norm(gd.a_hat - ls.a_hat) / np.linalg.norm(ls.a_hat)
        assert rel < 1e-2

    def test_underdetermined_warns(self, rng):
        with pytest.warns(RuntimeWarning, match="underdetermined"):
            fit_action_gd(rng.random((10, 36)), rng.random((10, 36)),
                          epochs=1)

    def test_gram_gradient_equals_tape_gradient(self, rng, monkeypatch):
        # start from a random A and record every gradient Adam is given
        seen = []

        class SpyAdam(Adam):
            def step(self):
                a = self.params["A"]
                seen.append((a.data.copy(), a.grad.copy()))
                super().step()

        monkeypatch.setattr(probe, "Adam", SpyAdam)
        monkeypatch.setattr(probe, "parameter", lambda data: parameter(
            rng.standard_normal(data.shape)))
        xs, ys = rng.standard_normal((2, 120, 36))
        fit_action_gd(xs, ys, epochs=3, lr=0.1)
        assert len(seen) == 3
        for a_data, gram_grad in seen:
            a = parameter(a_data)
            diff = Tensor(xs) @ a.transpose() - Tensor(ys)
            (diff * diff).mean().backward()
            rel = (np.linalg.norm(gram_grad - a.grad)
                   / np.linalg.norm(a.grad))
            assert rel < 1e-12

    @pytest.mark.parametrize("epochs", [1, 200])
    def test_train_mse_is_that_of_returned_a_hat(self, epochs, rng):
        t = PatchTransform.pooling(3)
        xs, ys = make_pairs(t, 300, rng)
        fit = fit_action_gd(xs, ys, epochs=epochs, lr=0.01)
        direct = np.mean((xs @ fit.a_hat.T - ys) ** 2)
        assert fit.train_mse == pytest.approx(direct, rel=1e-12)

    def test_non_finite_loss_aborts_with_hint(self, rng):
        xs = rng.random((50, 36))
        ys = xs.copy()
        ys[3, 7] = np.nan
        with pytest.raises(RuntimeError, match="learning rate"):
            fit_action_gd(xs, ys, epochs=10)


    @pytest.mark.parametrize("option, value", [
        ("lr", -1.0), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
        ("epochs", -3)])
    def test_unusable_option_rejected(self, option, value, rng):
        xs = rng.random((50, 36))
        with pytest.raises(ValueError, match=rf"^{option} "):
            fit_action_gd(xs, xs, **{option: value})

@pytest.mark.parametrize("fit", [fit_action_lstsq, fit_action_gd])
class TestPairShapes:
    def test_fewer_target_columns_rejected(self, fit, rng):
        with pytest.raises(ValueError, match=r"\(100, 36\).*\(100, 30\)"):
            fit(rng.random((100, 36)), rng.random((100, 30)))

    def test_row_count_mismatch_rejected(self, fit, rng):
        with pytest.raises(ValueError, match=r"\(100, 36\).*\(90, 36\)"):
            fit(rng.random((100, 36)), rng.random((90, 36)))

    def test_non_2d_rejected(self, fit, rng):
        with pytest.raises(ValueError, match=r"\(36,\).*\(36,\)"):
            fit(rng.random(36), rng.random(36))


class TestAnalyticOperator:
    def test_identity_transform(self):
        t = PatchTransform.composition(radius=1, theta=0.0)
        np.testing.assert_allclose(analytic_operator(t), np.eye(36),
                                   atol=1e-15)

    def test_full_window_rows_uniform_at_interior(self):
        # row of the widest mean operator for the fully interior position
        op = analytic_operator(PatchTransform.pooling(6))
        from orbitnet.groups import vec
        probe = np.zeros((6, 6))
        probe[3, 3] = 1.0
        row_index = int(np.argmax(vec(probe)))
        row = op[row_index]
        np.testing.assert_allclose(row, np.full(36, 1.0 / 36.0), atol=1e-15)
        np.testing.assert_allclose(op.sum(axis=1), np.ones(36), atol=1e-12)

    def test_composition_equals_product(self):
        compose = PatchTransform.composition(radius=4, theta=60.0)
        rot = PatchTransform.rotation(60.0)
        pool = PatchTransform.pooling(4)
        np.testing.assert_allclose(
            analytic_operator(compose),
            analytic_operator(rot) @ analytic_operator(pool), atol=1e-10)

"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL line
of every criterion. Real datasets are used when present under `data/` (or
the ORBITNET_MNIST_DIR / ORBITNET_CIFAR_DIR environment variables);
otherwise procedurally generated stand-ins in the canonical binary formats
are synthesized on the fly, loaded through the same parsers.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from orbitnet.checkpoint import load_checkpoint
from orbitnet.config import RunConfig
from orbitnet.data import PatchTransform, transform_pair_dataset
from orbitnet.gradcheck import check_gradients
from orbitnet.groups import (GroupAction, apply_action, expand_orbit,
                             invertibility_loss, linear_map_to_matrix,
                             svd_invertibility_loss, vec, vec_inv)
from orbitnet.network import (GroupConvLayer, UnfoldedNetwork,
                              ista_step_residual_form, training_loss)
from orbitnet.probe import analytic_operator, fit_action_gd, fit_action_lstsq
from orbitnet.svd import jacobi_svd, singular_values
from orbitnet.tensor import (Tensor, cross_entropy, frobenius_norm, log,
                             parameter, soft_threshold, stack)
from orbitnet.train import (paper_transform_grid, resolve_dataset,
                            run_training)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-data")


@pytest.fixture(scope="session")
def mnist(data_dir):
    root = os.environ.get("ORBITNET_MNIST_DIR", "data")
    try:
        return resolve_dataset("mnist", root, "files")
    except FileNotFoundError:
        return resolve_dataset("mnist", data_dir, "synthetic")


@pytest.fixture(scope="session")
def cifar(data_dir):
    root = os.environ.get("ORBITNET_CIFAR_DIR", "data")
    try:
        return resolve_dataset("cifar10", root, "files")
    except FileNotFoundError:
        return resolve_dataset("cifar10", data_dir, "synthetic")


def corner_swap(x):
    y = x.copy()
    y[0, 0], y[-1, -1] = x[-1, -1], x[0, 0]
    return y


class TestCriterion1:
    def test_linearity_and_completeness(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            n, m = rng.integers(2, 7, size=2)
            g = GroupAction(Tensor(rng.standard_normal((n * m, n * m))),
                            Tensor(np.eye(n * m)), 2, n, m)
            x = rng.standard_normal((n, m))
            y = rng.standard_normal((n, m))
            alpha, beta = rng.standard_normal(2)
            lhs = apply_action(g, alpha * x + beta * y)
            rhs = alpha * apply_action(g, x) + beta * apply_action(g, y)
            rel = np.linalg.norm(lhs - rhs) / max(
                np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
            worst = max(worst, rel)
        linear_ok = worst <= 1e-12

        exact = 0
        for _ in range(20):
            n, m = rng.integers(2, 5, size=2)
            b = rng.standard_normal((n * m, n * m))
            lifted = linear_map_to_matrix(
                lambda x: vec_inv(b @ vec(x), n, m), n, m)
            exact += int(np.array_equal(lifted, b))
        report(1, "action linearity to 1e-12 and exact lifted-operator "
                  "recovery", linear_ok and exact == 20,
               f"worst linearity residual {worst:.2e}, {exact}/20 exact")


class TestCriterion2:
    def test_corner_swap_not_expressible_in_row_space(self):
        rng = np.random.default_rng(7)
        n = m = 6
        xs = [rng.standard_normal((n, m)) for _ in range(300)]
        ys = [corner_swap(x) for x in xs]
        sxx = sum(x @ x.T for x in xs)
        syx = sum(y @ x.T for x, y in zip(xs, ys))
        m_best = syx @ np.linalg.inv(sxx)
        num = sum(np.linalg.norm(m_best @ x - y) ** 2
                  for x, y in zip(xs, ys))
        den = sum(np.linalg.norm(y) ** 2 for y in ys)
        residual = float(np.sqrt(num / den))
        report(2, "corner-swap operator leaves least-squares residual > 0.1 "
                  "for any 6x6 left factor", residual > 0.1,
               f"relative residual {residual:.3f}")


class TestCriterion3:
    def _op_checks(self, rng):
        """(name, params builder) for every trainable op, 20 points each."""
        checks = []
        for point in range(20):
            a = parameter(rng.standard_normal((3, 4)))
            b = parameter(np.abs(rng.standard_normal((3, 4))) + 1.0)
            pos = parameter(np.abs(rng.standard_normal((3, 4))) + 0.5)
            c = parameter(rng.standard_normal((4, 2)))
            v = parameter(rng.standard_normal(4))
            checks.extend([
                ("add", lambda a=a, b=b: ((a + b) ** 2).sum(), {"a": a, "b": b}),
                ("sub", lambda a=a, b=b: ((a - b) ** 2).sum(), {"a": a, "b": b}),
                ("mul", lambda a=a, b=b: (a * b).sum(), {"a": a, "b": b}),
                ("div", lambda a=a, b=b: (a / b).sum(), {"a": a, "b": b}),
                ("pow", lambda pos=pos: (pos ** 1.3).sum(), {"pos": pos}),
                ("matmul", lambda a=a, c=c: ((a @ c) ** 2).sum(),
                 {"a": a, "c": c}),
                ("matvec", lambda a=a, v=v: ((a @ v) ** 2).sum(),
                 {"a": a, "v": v}),
                ("reshape", lambda a=a: (a.reshape(2, 6) ** 2).sum(), {"a": a}),
                ("transpose", lambda a=a, b=b: (a.transpose() @ b).sum(),
                 {"a": a, "b": b}),
                ("stack", lambda a=a, b=b: (stack([a, b]) ** 2).sum(),
                 {"a": a, "b": b}),
                ("sum", lambda a=a, b=b: (a.sum(axis=0) * b.mean(axis=0)).sum(),
                 {"a": a, "b": b}),
                ("log", lambda a=a: log(a * a + 0.5).sum(), {"a": a}),
                ("fro", lambda a=a: frobenius_norm(a) ** 2, {"a": a}),
            ])
        # shrinkage, both variants, gradients w.r.t. input and threshold
        for one_sided in (False, True):
            u = parameter(rng.standard_normal((4, 6)) * 2.0)
            lam = parameter(rng.random(6) + 0.3)
            u.data[np.abs(np.abs(u.data) - lam.data) < 1e-3] += 0.01
            checks.append((f"soft_threshold(one_sided={one_sided})",
                           lambda u=u, lam=lam, o=one_sided:
                           (soft_threshold(u, lam, o) ** 2).sum(),
                           {"u": u, "lam": lam}))
        # convolution bank ops
        from orbitnet.conv import avg_pool_to, conv2d_adjoint, conv2d_same
        x = parameter(rng.standard_normal((2, 2, 6, 6)))
        w = parameter(rng.standard_normal((3, 2, 3, 3)))
        z = parameter(rng.standard_normal((2, 3, 6, 6)))
        we = parameter(rng.standard_normal((2, 1, 6, 6)))
        xe = parameter(rng.standard_normal((1, 1, 7, 7)))
        checks.extend([
            ("conv2d_same", lambda: (conv2d_same(x, w) ** 2).sum(),
             {"x": x, "w": w}),
            ("conv2d_same(even k)", lambda: (conv2d_same(xe, we) ** 2).sum(),
             {"xe": xe, "we": we}),
            ("conv2d_adjoint", lambda: (conv2d_adjoint(z, w) ** 2).sum(),
             {"z": z, "w": w}),
            ("avg_pool", lambda: (avg_pool_to(x, 2, 2) ** 2).sum(), {"x": x}),
        ])
        logits = parameter(rng.standard_normal((6, 5)))
        labels = rng.integers(0, 5, 6)
        checks.append(("cross_entropy",
                       lambda: cross_entropy(logits, labels),
                       {"logits": logits}))
        s = parameter(rng.standard_normal((5, 5)))
        sv_weights = rng.random(5) + 0.5
        checks.append(("singular_values",
                       lambda: (singular_values(s) * sv_weights).sum(),
                       {"s": s}))
        g = GroupAction.initialize(2, 3, 2, rng)
        checks.append(("invertibility_loss",
                       lambda: invertibility_loss(g, 0.7),
                       {"A": g.a, "At": g.a_tilde}))
        g2 = GroupAction.initialize(2, 2, 2, rng)
        checks.append(("svd_sum_loss",
                       lambda: -svd_invertibility_loss(g2, 0.5),
                       {"A": g2.a}))
        basis = parameter(rng.standard_normal((2, 3)))
        g3 = GroupAction.initialize(2, 3, 3, rng)

        def orbit_loss():
            total = None
            for element in expand_orbit(g3, basis).expanded:
                term = (element * element).sum()
                total = term if total is None else total + term
            return total
        checks.append(("expand_orbit", orbit_loss,
                       {"A": g3.a, "basis": basis}))
        return checks

    def test_gradient_integrity(self):
        rng = np.random.default_rng(202)
        worst = ("", 0.0)
        for name, loss_fn, params in self._op_checks(rng):
            errors = check_gradients(loss_fn, params, rtol=1e-4)
            peak = max(errors.values())
            if peak > worst[1]:
                worst = (name, peak)

        # full miniature network: 2 layers, K=1, p=2, 3x3 filters
        net = UnfoldedNetwork("classification", in_channels=1, num_layers=2,
                              num_groups=1, group_order=2, filter_size=3,
                              alpha=0.5, rng=rng)
        for layer in net.layers:
            # interior thresholds keep the lambda perturbations feasible
            layer.lam.data[:] = 0.05 + rng.random(layer.out_channels) * 0.1
        x = Tensor(rng.random((2, 1, 8, 8)))
        labels = rng.integers(0, 10, 2)
        errors = check_gradients(
            lambda: training_loss(net, x, labels, mu=0.001),
            net.parameters(), rtol=1e-4)
        peak = max(errors.values())
        if peak > worst[1]:
            worst = ("miniature network", peak)
        report(3, "finite-difference gradient checks, all ops and the "
                  "miniature network, rel err < 1e-4", True,
               f"worst {worst[0]}: {worst[1]:.2e}")


class TestCriterion4:
    def test_ista_equivalence_100_configs(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            c = int(rng.integers(1, 4))
            layer = GroupConvLayer(
                in_channels=c, num_groups=int(rng.integers(1, 4)),
                group_order=int(rng.integers(1, 4)),
                filter_size=int(rng.integers(1, 5)),
                alpha=float(rng.random() * 0.95 + 0.05), rng=rng,
                one_sided=bool(rng.integers(0, 2)))
            layer.lam.data = rng.random(layer.out_channels) * 0.2
            for basis in layer.bases:
                basis.data = rng.standard_normal(basis.shape) * 0.4
            h = int(rng.integers(5, 10))
            wd = int(rng.integers(5, 10))
            x = Tensor(rng.standard_normal((2, c, h, wd)))
            z = Tensor(rng.standard_normal((2, layer.out_channels, h, wd)))
            diff = np.max(np.abs(layer.forward(x, z).data
                                 - ista_step_residual_form(layer, x, z).data))
            worst = max(worst, float(diff))
        equiv_ok = worst < 1e-10

        descent_ok = True
        worst_increase = 0.0
        for trial in range(20):
            trng = np.random.default_rng(1000 + trial)
            d, q = 12, 20
            w = trng.standard_normal((d, q)) * 0.6
            alpha = 1.0 / np.max(np.linalg.eigvalsh(w.T @ w))
            lam = 0.05
            x = trng.standard_normal(d)
            z = np.zeros(q)
            objective = lambda zv: 0.5 * np.sum((x - w @ zv) ** 2) \
                + lam * np.sum(np.abs(zv))
            prev = objective(z)
            for _ in range(8):
                z = soft_threshold(
                    Tensor(z + alpha * (w.T @ (x - w @ z))),
                    lam * alpha).data
                cur = objective(z)
                worst_increase = max(worst_increase, cur - prev)
                descent_ok &= cur <= prev + 1e-12
                prev = cur
        report(4, "update matches residual rewrite to 1e-10 on 100 configs; "
                  "tied-iteration objective nonincreasing on 20 dictionaries",
               equiv_ok and descent_ok,
               f"worst form gap {worst:.2e}, worst objective increase "
               f"{worst_increase:.2e}")


class TestCriterion5:
    def test_synthetic_recovery(self, cifar):
        # pairs come from applying the actual geometric transform to the
        # stacked patch planes, never the operator matrix; the analytic
        # operator is the independent reference
        lstsq_ok = True
        worst_cell = ("", 0.0)
        for transform in paper_transform_grid():
            rng = np.random.default_rng(99)
            xs, ys = transform_pair_dataset(cifar.images, transform,
                                            10000, rng)
            fit = fit_action_lstsq(xs, ys).compare(
                analytic_operator(transform))
            if fit.rel_fro_err > worst_cell[1]:
                worst_cell = (transform.label(), fit.rel_fro_err)
            lstsq_ok &= fit.rel_fro_err < 1e-6

        rot90 = PatchTransform.rotation(90.0)
        rng = np.random.default_rng(99)
        xs, ys = transform_pair_dataset(cifar.images, rot90, 10000, rng)
        gd = fit_action_gd(xs, ys, epochs=2500, lr=0.01).compare(
            analytic_operator(rot90))
        gd_ok = gd.max_abs_err < 0.05

        compose_ok = True
        for r in (4, 5, 6):
            compose = analytic_operator(PatchTransform.composition(r, 60.0))
            product = analytic_operator(PatchTransform.rotation(60.0)) \
                @ analytic_operator(PatchTransform.pooling(r))
            compose_ok &= np.max(np.abs(compose - product)) < 1e-10

        report(5, "closed-form fits recover all 11 analytic operators to "
                  "1e-6; quarter-turn gradient fit within 0.05; composition "
                  "operator factorizes to 1e-10",
               lstsq_ok and gd_ok and compose_ok,
               f"worst lstsq cell {worst_cell[0]}: {worst_cell[1]:.2e}; "
               f"gd max abs {gd.max_abs_err:.4f}")


MNIST_TRAIN_CONFIG = dict(dataset="mnist", task="classification",
                          subset=5000, epochs=20, seed=0)


class TestCriterion6:
    def test_training_sanity_default_config(self, tmp_path, mnist, data_dir):
        root = (os.environ.get("ORBITNET_MNIST_DIR", "data")
                if mnist.images.shape[0] >= 60000 else data_dir)
        source = "files" if mnist.images.shape[0] >= 60000 else "synthetic"
        cfg = RunConfig(data_root=str(root), data_source=source,
                        out_dir=str(tmp_path / "run"), **MNIST_TRAIN_CONFIG)
        out = run_training(cfg)
        records = [json.loads(line) for line in
                   (out / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 20
        first = records[0]["task_loss"]
        best = min(r["task_loss"] for r in records)
        ce_ok = best <= 0.5 * first

        arrays = load_checkpoint(out / "final.ckpt")
        worst_residual = 0.0
        worst_sigma = np.inf
        for li in range(cfg.num_layers):
            for ki in range(cfg.num_groups):
                a = arrays[f"layers.{li}.groups.{ki}.A"]
                at = arrays[f"layers.{li}.groups.{ki}.A_tilde"]
                residual = np.linalg.norm(a @ at - np.eye(36)) / 6.0
                worst_residual = max(worst_residual, residual)
                worst_sigma = min(worst_sigma, jacobi_svd(a)[1][-1])
        inv_ok = worst_residual < 0.1
        sigma_ok = worst_sigma > 0.01
        report(6, "training CE halves within 20 epochs; all generators stay "
                  "near-invertible", ce_ok and inv_ok and sigma_ok,
               f"CE {first:.3f}->{best:.3f}; worst |AA~-I|/6 "
               f"{worst_residual:.4f}; min sigma {worst_sigma:.4f}")


class TestCriterion7:
    def test_regularization_overhead(self, tmp_path, data_dir):
        base = dict(dataset="mnist", subset=1024, epochs=3, seed=0,
                    data_root=str(data_dir), data_source="synthetic")

        def epoch_seconds(mu, tag):
            cfg = RunConfig(mu=mu, out_dir=str(tmp_path / tag), **base)
            out = run_training(cfg)
            times = [json.loads(line)["seconds"] for line in
                     (out / "timing.jsonl").read_text().splitlines()]
            return float(np.median(times))

        plain = epoch_seconds(0.0, "plain")
        regularized = epoch_seconds(0.001, "reg")
        ratio = regularized / plain
        report(7, "auxiliary-inverse regularization costs at most 1.6x the "
                  "per-epoch wall clock", ratio <= 1.6,
               f"ratio {ratio:.3f} ({plain:.2f}s vs {regularized:.2f}s)")


class TestCriterion8:
    def test_dft_analysis(self):
        from orbitnet.analysis import (circulant_from_diagonal,
                                       dft_conjugate, offdiag_energy)
        rng = np.random.default_rng(17)
        circ_ok = True
        round_ok = True
        for _ in range(10):
            d = rng.standard_normal(36) + 1j * rng.standard_normal(36)
            c = circulant_from_diagonal(d)
            conj = dft_conjugate(c)
            circ_ok &= offdiag_energy(conj) < 1e-10
            # real part of the circulant has the Hermitian-symmetrized
            # spectrum; build a symmetric one for the exact roundtrip
            sym = np.empty(36, dtype=np.complex128)
            sym[0] = rng.standard_normal()
            sym[18] = rng.standard_normal()
            half = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            sym[1:18] = half
            sym[19:] = half[::-1].conj()
            c2 = circulant_from_diagonal(sym)
            round_ok &= np.max(np.abs(np.diag(dft_conjugate(c2)) - sym)) \
                < 1e-10
        gauss_ok = all(
            offdiag_energy(dft_conjugate(
                np.random.default_rng(seed).standard_normal((36, 36)))) > 0.8
            for seed in range(20))
        report(8, "circulants diagonalize under the DFT (off-diagonal "
                  "< 1e-10), Gaussians stay spread (> 0.8), spectra "
                  "roundtrip to 1e-10", circ_ok and round_ok and gauss_ok)


class TestCriterion9:
    def test_byte_identical_metrics_single_threaded(self, tmp_path, data_dir):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        # pre-synthesize so both runs read identical files
        resolve_dataset("mnist", data_dir, "synthetic")

        def run(tag):
            out = tmp_path / tag
            cmd = [sys.executable, "-m", "orbitnet.cli", "train",
                   "--seed", "3", "--epochs", "2", "--subset", "96",
                   "--data-root", str(data_dir), "--data-source", "synthetic",
                   "--out", str(out), "--config", str(cfg_path)]
            subprocess.run(cmd, check=True, env=env, capture_output=True)
            return (out / "metrics.jsonl").read_bytes()

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"num_layers": 2, "num_groups": 2, "group_order": 2,
             "filter_size": 3, "batch_size": 32}))
        a = run("a")
        b = run("b")
        report(9, "identical config+seed reproduce byte-identical metrics "
                  "logs in single-threaded mode", a == b,
               f"{len(a)} bytes each")

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np
import pytest

from sparsedyn.cli import main as cli_main
from sparsedyn.data import split_train_test
from sparsedyn.diff import FiniteDifference, SavitzkyGolay, Spectral, differentiate
from sparsedyn.ensemble import EnsembleSpec
from sparsedyn.library import Polynomial, WeakPDE
from sparsedyn.model import fit, score
from sparsedyn.optimize import (
    FROLS,
    SR3,
    SSR,
    STLSQ,
    Problem,
    soft_threshold,
    solve,
    solve_path,
)
from sparsedyn.systems import KS, BenchmarkSpec, Lorenz, canonical_library, generate

KS_EXPECTED_SUPPORT = {"q0 q0_x", "q0_xx", "q0_xxxx"}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def ks_fit():
    """Shared KS experiment: 1024 x 251 dataset, 60% train, STLSQ defaults,
    Savitzky-Golay time derivatives, spectral space derivatives."""
    start = time.perf_counter()
    dataset, truth = generate(BenchmarkSpec(system=KS(), seed=0))
    train, test = split_train_test(dataset, 0.6)
    model = fit(
        train,
        canonical_library(KS()),
        diff=SavitzkyGolay(window=5, poly_order=3),
        opt=STLSQ(),
    )
    elapsed = time.perf_counter() - start
    return model, truth, test, elapsed


def test_criterion_1_ks_recovery(ks_fit):
    model, truth, _, elapsed = ks_fit
    support = {
        model.feature_names[i]
        for i in np.flatnonzero(model.coefficients.support[:, 0])
    }
    coef_ok = all(
        abs(model.xi[model.feature_names.index(name), 0] - (-1.0)) <= 0.05
        for name in KS_EXPECTED_SUPPORT
    )
    ok = support == KS_EXPECTED_SUPPORT and coef_ok and elapsed <= 120.0
    coeffs = [
        round(float(model.xi[model.feature_names.index(n), 0]), 3)
        for n in sorted(KS_EXPECTED_SUPPORT)
    ]
    report(1, "KS recovery", ok, f"support={sorted(support)} coeffs={coeffs} {elapsed:.1f}s")
    assert support == KS_EXPECTED_SUPPORT
    assert coef_ok
    assert elapsed <= 120.0


def test_criterion_2_ks_test_prediction(ks_fit):
    model, _, test, _ = ks_fit
    r2 = score(model, test, "r2")
    ok = r2 >= 0.99
    report(2, "KS held-out r2", ok, f"r2={r2:.5f}")
    assert r2 >= 0.99


def test_criterion_3_lorenz_recovery():
    start = time.perf_counter()
    dataset, truth = generate(BenchmarkSpec(system=Lorenz(), seed=0))
    model = fit(
        dataset,
        canonical_library(Lorenz()),
        diff=FiniteDifference(order=2),
        opt=STLSQ(),
    )
    elapsed = time.perf_counter() - start
    support_ok = bool((model.coefficients.support == truth.support).all())
    rel = np.abs(
        model.xi[truth.support] - truth.xi[truth.support]
    ) / np.abs(truth.xi[truth.support])
    ok = support_ok and rel.max() <= 1e-2 and elapsed <= 10.0
    report(
        3,
        "Lorenz recovery",
        ok,
        f"terms={model.coefficients.n_terms} max_rel={rel.max():.2e} {elapsed:.1f}s",
    )
    assert support_ok
    assert rel.max() <= 1e-2
    assert elapsed <= 10.0


def test_criterion_4_optimizer_oracles():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((40, 8))
        targets = rng.standard_normal((40, 2))
        c = solve(Problem(theta=theta, targets=targets), STLSQ(threshold=0.0, ridge=0.0))
        direct = np.linalg.lstsq(theta, targets, rcond=None)[0]
        worst = max(worst, float(np.abs(c.xi - direct).max()))
    lstsq_ok = worst <= 1e-10

    prox_worst = 0.0
    for k, diag in enumerate(([1.0, 2.0, 3.0], [0.5, 1.5, 4.0, 2.0])):
        rng = np.random.default_rng(100 + k)
        theta = np.diag(diag)
        y = rng.standard_normal(len(diag))
        spec = SR3(threshold=0.1, relaxation=1.0, regularizer="l1",
                   max_iter=500, tol=1e-13)
        c = solve(Problem(theta=theta, targets=y), spec)
        relaxed = c.diagnostics["xi_relaxed"]
        prox_worst = max(
            prox_worst,
            float(np.abs(c.xi - soft_threshold(relaxed, 0.1)).max()),
        )
    prox_ok = prox_worst <= 1e-10

    ok = lstsq_ok and prox_ok
    report(
        4,
        "optimizer oracles",
        ok,
        f"max lstsq dev={worst:.1e} max prox dev={prox_worst:.1e}",
    )
    assert lstsq_ok
    assert prox_ok


def test_criterion_5_greedy_support_recovery():
    sigma = 0.01
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((200, 10))
        xi_true = np.zeros(10)
        xi_true[1], xi_true[3] = 2.0, -1.5
        y = theta @ xi_true + sigma * rng.standard_normal(200)
        problem = Problem(theta=theta, targets=y)

        ssr_two = next(
            e for e in solve_path(problem, SSR()) if e.support_size == 2
        )
        ssr_ok = set(np.flatnonzero(ssr_two.coefficients.support[:, 0])) == {1, 3}

        frols = solve(problem, FROLS(max_terms=2, err_tol=0.0))
        frols_ok = set(np.flatnonzero(frols.support[:, 0])) == {1, 3}

        successes += ssr_ok and frols_ok
    ok = successes >= 95
    report(5, "greedy support recovery", ok, f"{successes}/100 seeds")
    assert successes >= 95


def test_criterion_6_ensemble_robustness():
    dataset, truth = generate(BenchmarkSpec(system=Lorenz(), noise_level=0.01, seed=3))
    model = fit(
        dataset,
        canonical_library(Lorenz()),
        diff=SavitzkyGolay(window=41, poly_order=3),
        opt=STLSQ(threshold=0.3),
        ensemble=EnsembleSpec(n_models=20, seed=11),
    )
    incl = model.ensemble.inclusion_probability
    true_min = float(incl[truth.support].min())
    spurious_max = float(incl[~truth.support].max())
    rel = np.abs(
        model.xi[truth.support] - truth.xi[truth.support]
    ) / np.abs(truth.xi[truth.support])
    ok = true_min >= 0.9 and spurious_max <= 0.3 and rel.max() <= 0.10
    report(
        6,
        "ensemble robustness",
        ok,
        f"true_incl>={true_min:.2f} spurious<={spurious_max:.2f} max_rel={rel.max():.3f}",
    )
    assert true_min >= 0.9
    assert spurious_max <= 0.3
    assert rel.max() <= 0.10


def test_criterion_7_weak_form_advantage():
    weak_library = WeakPDE(
        inner=Polynomial(2),
        n_subdomains=200,
        test_poly_order=4,
        subdomain_size=(301,),
        seed=123,
    )
    optimizer = STLSQ(threshold=0.2)
    wins = 0
    pairs = []
    for seed in range(10):
        dataset, truth = generate(
            BenchmarkSpec(system=Lorenz(), noise_level=0.10, seed=seed)
        )
        weak = fit(dataset, weak_library, diff=FiniteDifference(), opt=optimizer)
        differential = fit(
            dataset,
            canonical_library(Lorenz()),
            diff=SavitzkyGolay(window=41, poly_order=3),
            opt=optimizer,
        )
        e_weak = float(np.linalg.norm(weak.xi - truth.xi) / np.linalg.norm(truth.xi))
        e_diff = float(
            np.linalg.norm(differential.xi - truth.xi) / np.linalg.norm(truth.xi)
        )
        pairs.append((e_weak, e_diff))
        wins += e_weak < e_diff
    ok = wins >= 8
    mean_w = np.mean([p[0] for p in pairs])
    mean_d = np.mean([p[1] for p in pairs])
    report(
        7,
        "weak-form advantage",
        ok,
        f"{wins}/10 seeds, mean err weak={mean_w:.3f} diff={mean_d:.3f}",
    )
    assert wins >= 8


def test_criterion_8_differentiation_suite():
    # polynomial exactness for each accuracy order, boundaries included
    poly_ok = True
    for order in (2, 4, 6):
        t = np.linspace(-1.0, 2.0, 25)
        poly = np.polynomial.Polynomial(np.arange(1.0, order + 2.0))
        out = differentiate(poly(t), t, FiniteDifference(order=order))
        expected = poly.deriv()(t)
        rel = np.abs(out - expected).max() / np.abs(expected).max()
        poly_ok &= rel < 1e-9

    x = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    spectral_err = float(
        np.abs(differentiate(np.sin(x), x, Spectral()) - np.cos(x)).max()
    )
    spectral_ok = spectral_err <= 1e-10

    t = np.linspace(0.0, 10.0, 1000)
    rng = np.random.default_rng(4)  # seeded noisy-derivative benchmark
    noisy = np.sin(t) + 0.01 * rng.standard_normal(t.size)
    e_sg = np.abs(
        differentiate(noisy, t, SavitzkyGolay(window=11, poly_order=3)) - np.cos(t)
    ).max()
    e_fd = np.abs(
        differentiate(noisy, t, FiniteDifference(order=2)) - np.cos(t)
    ).max()
    factor = float(e_fd / e_sg)
    sg_ok = factor >= 3.0

    ok = poly_ok and spectral_ok and sg_ok
    report(
        8,
        "differentiation suite",
        ok,
        f"poly_exact={poly_ok} spectral_err={spectral_err:.1e} sg_factor={factor:.1f}",
    )
    assert poly_ok
    assert spectral_ok
    assert sg_ok


def test_criterion_9_cli_determinism(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "schema": 1,
                "system": {"name": "lorenz", "t_span": 4.0, "dt": 0.004},
                "seed": 1,
            }
        )
    )
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--config", str(spec), "--out", str(data_dir)]) == 0

    config = {
        "schema": 1,
        "data": {"path": str(data_dir)},
        "train_fraction": 0.6,
        "diff": "sg:11,3",
        "library": {"type": "polynomial", "degree": 2},
        "optimizer": "stlsq:0.1,0.05",
        "ensemble": "n=8,rows=0.7,seed=5",
        "seed": 0,
        "precision": 4,
    }
    reports = []
    for run in ("a", "b"):
        cfgain = dict(config, output_dir=str(tmp_path / run))
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps(cfgain))
        assert cli_main(["fit", "--config", str(cfg_path)]) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    ok = reports[0] == reports[1]
    report(9, "CLI determinism", ok, f"{len(reports[0])} bytes")
    assert ok

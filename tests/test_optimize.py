from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import optimize
from sparsedyn.data import split_train_test
from sparsedyn.diff import SavitzkyGolay
from sparsedyn.ensemble import EnsembleSpec, fit_ensemble
from sparsedyn.errors import DataError, FitError, SpecError
from sparsedyn.model import fit
from sparsedyn.optimize import (
    FROLS,
    SR3,
    SSR,
    STLSQ,
    Problem,
    _Rows,
    hard_threshold,
    soft_threshold,
    solve,
    solve_path,
)
from sparsedyn.systems import KS, BenchmarkSpec, canonical_library, generate


def planted_problem(seed=123, noise=0.0, normalize=False):
    """200x10 standard-normal design with true support {1, 3}."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((200, 10))
    xi_true = np.zeros(10)
    xi_true[1], xi_true[3] = 2.0, -1.5
    y = theta @ xi_true
    if noise:
        y = y + noise * rng.standard_normal(200)
    return Problem(theta=theta, targets=y, normalize_columns=normalize), xi_true


class TestProblem:
    def test_shape_validation(self):
        with pytest.raises(SpecError):
            Problem(theta=np.eye(3), targets=np.zeros(4))

    def test_zero_columns_dropped_and_reported(self):
        theta = np.column_stack([np.ones(6), np.zeros(6), np.arange(6.0)])
        y = 2.0 * np.arange(6.0)
        c = solve(Problem(theta=theta, targets=y), STLSQ(threshold=0.01, ridge=0.0))
        assert c.diagnostics["dropped_columns"] == ["f1"]
        assert c.xi[1, 0] == 0.0
        assert abs(c.xi[2, 0] - 2.0) < 1e-10

    @pytest.mark.parametrize("field", ["theta", "targets", "sample_weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, field, bad):
        rng = np.random.default_rng(0)
        arrays = {
            "theta": rng.standard_normal((12, 3)),
            "targets": rng.standard_normal(12),
            "sample_weights": np.ones(12),
        }
        arrays[field][np.unravel_index(4, arrays[field].shape)] = bad
        with pytest.raises(DataError):
            Problem(**arrays)

    def test_nan_column_is_not_dropped_as_zero(self):
        # a NaN column used to have a NaN norm, which failed the "> 0" test,
        # so the column was dropped as if it were all zero and STLSQ still
        # reported convergence
        theta = np.column_stack([np.ones(6), np.zeros(6), np.arange(6.0)])
        theta[2, 1] = np.nan
        with pytest.raises(DataError, match="f1"):
            Problem(theta=theta, targets=2.0 * np.arange(6.0))

    @pytest.mark.parametrize(
        "opt", [STLSQ(), SR3(), SSR(), FROLS()], ids=["stlsq", "sr3", "ssr", "frols"]
    )
    def test_all_zero_design_is_a_fit_error(self, opt):
        # with every column dropped as zero there is nothing to fit; this
        # used to come back as xi == 0 with converged: True
        with pytest.raises(FitError, match="zero"):
            solve(Problem(theta=np.zeros((5, 1)), targets=np.ones(5)), opt)
        theta = np.zeros((8, 3))
        with pytest.raises(FitError):
            solve(Problem(theta=theta, targets=np.ones((8, 2))), opt)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec, field",
    [
        (STLSQ(threshold=NAN), "threshold"),
        (STLSQ(threshold=INF), "threshold"),
        (STLSQ(ridge=NAN), "ridge"),
        (STLSQ(ridge=INF), "ridge"),
        (SR3(threshold=NAN), "threshold"),
        (SR3(threshold=INF), "threshold"),
        (SR3(relaxation=NAN), "relaxation"),
        (SR3(relaxation=INF), "relaxation"),
        (SR3(tol=NAN), "tol"),
        (FROLS(err_tol=NAN), "err_tol"),
        (FROLS(err_tol=INF), "err_tol"),
    ],
    ids=["stlsq-threshold-nan", "stlsq-threshold-inf", "stlsq-ridge-nan", "stlsq-ridge-inf",
         "sr3-threshold-nan", "sr3-threshold-inf", "sr3-relaxation-nan", "sr3-relaxation-inf",
         "sr3-tol-nan", "frols-err-tol-nan", "frols-err-tol-inf"],
)
def test_non_finite_numbers_are_spec_errors(spec, field):
    # NaN passes every range check: STLSQ and SR3 then returned all zeros,
    # SR3 with a NaN tol reported converged, FROLS with a NaN err_tol
    # selected every column
    problem, _ = planted_problem()
    with pytest.raises(SpecError, match=f"^{type(spec).__name__} {field} must be finite"):
        solve(problem, spec)


@pytest.mark.parametrize("matrix, rhs", [([[NAN] + [0.0] * 9], [1.0]), ([[1.0] + [0.0] * 9], [INF])],
                         ids=["matrix-nan", "rhs-inf"])
def test_non_finite_constraints_are_spec_errors(matrix, rhs):
    # they used to end in numpy's LinAlgError ("SVD did not converge")
    problem, _ = planted_problem()
    with pytest.raises(SpecError, match="^SR3 constraints must be finite$"):
        solve(problem, SR3(constraints=(np.array(matrix), np.array(rhs))))


class TestSTLSQ:
    def test_zero_threshold_is_ols(self):
        c = solve(Problem(theta=np.eye(2), targets=np.array([3.0, 5.0])),
                  STLSQ(threshold=0.0, ridge=0.0))
        np.testing.assert_allclose(c.xi.ravel(), [3.0, 5.0], atol=1e-12)

    def test_single_thresholding_pass(self):
        c = solve(Problem(theta=np.eye(2), targets=np.array([3.0, 0.1])),
                  STLSQ(threshold=0.5, ridge=0.0))
        np.testing.assert_array_equal(c.xi.ravel(), [3.0, 0.0])
        np.testing.assert_array_equal(c.support.ravel(), [True, False])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_lstsq_with_zero_penalties(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((30, 6))
        y = rng.standard_normal((30, 2))
        c = solve(Problem(theta=theta, targets=y), STLSQ(threshold=0.0, ridge=0.0))
        expected = np.linalg.lstsq(theta, y, rcond=None)[0]
        np.testing.assert_allclose(c.xi, expected, atol=1e-10)

    def test_empty_support_reported_not_silent(self):
        prob, _ = planted_problem()
        c = solve(prob, STLSQ(threshold=100.0))
        assert c.n_terms == 0
        assert c.diagnostics["empty_support_targets"] == [0]

    def test_refit_never_worse_than_thresholded_iterate(self):
        # within one iteration the refit residual cannot exceed the residual
        # of the just-thresholded coefficients (least squares optimality)
        prob, _ = planted_problem(noise=0.05)
        c = solve(prob, STLSQ(threshold=0.1, ridge=0.0))
        for step in c.diagnostics["residual_history"]:
            assert step["residual_refit"] <= step["residual_thresholded"] + 1e-12

    def test_off_support_is_bitwise_zero(self):
        prob, _ = planted_problem(noise=0.01)
        c = solve(prob, STLSQ())
        assert np.all(c.xi[~c.support] == 0.0)

    def test_rank_deficient_design_uses_minimum_norm(self):
        col = np.arange(8.0)
        theta = np.column_stack([col, col])  # exactly collinear
        y = 3.0 * col
        c = solve(Problem(theta=theta, targets=y), STLSQ(threshold=0.0, ridge=0.0))
        assert c.diagnostics.get("rank_deficient")
        np.testing.assert_allclose(theta @ c.xi[:, 0], y, atol=1e-10)


class TestSR3:
    def test_prox_helpers(self):
        x = np.array([-2.0, -0.3, 0.0, 0.4, 3.0])
        np.testing.assert_allclose(
            soft_threshold(x, 0.5), [-1.5, 0.0, 0.0, 0.0, 2.5], atol=1e-15
        )
        np.testing.assert_array_equal(hard_threshold(x, 0.5), [-2.0, 0.0, 0.0, 0.0, 3.0])

    def test_l1_fixed_point_matches_soft_threshold(self):
        theta = np.diag([1.0, 2.0, 3.0])
        y = np.array([0.5, 1.0, 3.0])
        spec = SR3(threshold=0.1, relaxation=1.0, regularizer="l1",
                   max_iter=500, tol=1e-12)
        c = solve(Problem(theta=theta, targets=y), spec)
        relaxed = c.diagnostics["xi_relaxed"]
        np.testing.assert_allclose(
            c.xi, soft_threshold(relaxed, 0.1 * 1.0), atol=1e-10
        )

    def test_equality_constraints_satisfied(self):
        # planted rotation-like problem; constrain xi[0, target0] = 1.5
        rng = np.random.default_rng(5)
        theta = rng.standard_normal((60, 4))
        y = theta @ np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 0.5]])
        C = np.zeros((1, 8))
        C[0, 0] = 1.0  # vec(xi) target-major: entry (feature 0, target 0)
        d = np.array([1.5])
        spec = SR3(threshold=0.05, constraints=(C, d), max_iter=100, tol=1e-10)
        c = solve(Problem(theta=theta, targets=y), spec)
        vec = c.xi.T.ravel()
        assert np.abs(C @ vec - d).max() <= 1e-8

    def test_infeasible_support_falls_back_to_the_relaxed_solution(self):
        # xi[2, 0] = 0.5 is pinned below the l0 threshold sqrt(2 * 0.5) = 1,
        # so the thresholded support leaves out the one entry the constraint
        # needs; the relaxed coefficients, which meet it, are returned
        rng = np.random.default_rng(6)
        theta = rng.standard_normal((60, 3))
        y = theta @ np.array([2.0, -3.0, 0.0])
        C, d = np.array([[0.0, 0.0, 1.0]]), np.array([0.5])
        spec = SR3(threshold=0.5, constraints=(C, d), max_iter=100, tol=1e-10)
        c = solve(Problem(theta=theta, targets=y), spec)
        assert c.diagnostics["constrained_support_infeasible"]
        np.testing.assert_array_equal(c.xi, c.diagnostics["xi_relaxed"])
        assert abs(C @ c.xi.T.ravel() - d).max() <= 1e-10

    def test_rank_deficient_constraints_rejected(self):
        # p * n = 2 coefficients; the second row is twice the first
        C = np.array([[1.0, 1.0], [2.0, 2.0]])
        spec = SR3(constraints=(C, np.zeros(2)))
        with pytest.raises(SpecError, match="not full row rank"):
            solve(Problem(theta=np.eye(4)[:, :2], targets=np.ones(4)), spec)

    def test_more_constraints_than_coefficients_rejected(self):
        spec = SR3(constraints=(np.eye(3, 2), np.zeros(3)))
        with pytest.raises(SpecError, match="3 constraints exceed 2 coefficients"):
            solve(Problem(theta=np.eye(4)[:, :2], targets=np.ones(4)), spec)

    def test_xi_relaxed_in_original_indexing_and_scale(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal((40, 5)) * [1.0, 30.0, 1.0, 0.2, 5.0]
        theta[:, 2] = 0.0
        y = theta @ np.array([1.0, 0.05, 0.0, -2.0, 0.0])
        prob = Problem(theta=theta, targets=y, normalize_columns=True)
        c = solve(prob, SR3(threshold=0.1, max_iter=200, tol=1e-12))
        relaxed = c.diagnostics["xi_relaxed"]
        assert relaxed.shape == c.xi.shape == (5, 1)
        assert relaxed[2, 0] == 0.0
        # the l0 prox keeps surviving entries unchanged, so on the support the
        # sparse and relaxed coefficients agree once both are rescaled
        np.testing.assert_array_equal(relaxed[c.support], c.xi[c.support])
        np.testing.assert_allclose(relaxed[:, 0], [1.0, 0.05, 0.0, -2.0, 0.0], atol=1e-3)

    def test_noiseless_recovery(self):
        prob, xi_true = planted_problem()
        c = solve(prob, SR3(threshold=0.1, max_iter=200, tol=1e-12))
        assert np.abs(c.xi[:, 0] - xi_true).max() < 1e-6


class TestGreedy:
    def test_ssr_path_sizes(self):
        rng = np.random.default_rng(1)
        prob = Problem(theta=rng.standard_normal((30, 3)), targets=rng.standard_normal(30))
        path = solve_path(prob, SSR())
        assert [e.support_size for e in path] == [3, 2, 1]

    def test_ssr_holdout_selects_true_support(self):
        prob, _ = planted_problem()
        c = solve(prob, SSR())
        assert set(np.flatnonzero(c.support[:, 0])) == {1, 3}

    def test_frols_orthogonal_ranking(self):
        rng = np.random.default_rng(2)
        Q = np.linalg.qr(rng.standard_normal((50, 4)))[0]
        weights = np.array([0.5, -3.0, 1.5, 0.1])
        path = solve_path(Problem(theta=Q, targets=Q @ weights), FROLS(err_tol=0.0))
        picked = []
        seen = np.zeros(4, dtype=bool)
        for entry in path:
            new = entry.coefficients.support[:, 0] & ~seen
            picked.append(int(np.flatnonzero(new)[0]))
            seen |= entry.coefficients.support[:, 0]
        assert picked == list(np.argsort(-np.abs(weights)))

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_frols_path_residuals_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        path = solve_path(Problem(theta=theta, targets=y), FROLS(err_tol=0.0))
        residuals = [e.residual for e in path]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_frols_err_tol_stops_early(self):
        prob, _ = planted_problem()
        c = solve(prob, FROLS(err_tol=1e-6))
        assert set(np.flatnonzero(c.support[:, 0])) == {1, 3}

    def test_frols_nothing_selected(self):
        prob, _ = planted_problem()
        with pytest.raises(FitError):
            solve(prob, FROLS(err_tol=2.0))

    def test_frols_zero_target_gets_an_empty_support(self):
        prob, _ = planted_problem()
        y = prob.targets[:, 0]
        both = Problem(theta=prob.theta, targets=np.column_stack([np.zeros_like(y), y]))
        c = solve(both, FROLS(err_tol=1e-6))
        alone = solve(prob, FROLS(err_tol=1e-6))
        assert not c.support[:, 0].any() and not c.xi[:, 0].any()
        np.testing.assert_array_equal(c.support[:, 1], alone.support[:, 0])
        np.testing.assert_allclose(c.xi[:, 1], alone.xi[:, 0], rtol=1e-12, atol=1e-15)

    def test_frols_every_target_zero(self):
        prob, _ = planted_problem()
        with pytest.raises(FitError, match="FROLS selected no features"):
            solve(Problem(theta=prob.theta, targets=np.zeros((prob.theta.shape[0], 2))),
                  FROLS())

    @pytest.mark.parametrize("spec", [SSR(), FROLS(err_tol=0.0)], ids=["ssr", "frols"])
    @pytest.mark.parametrize("nbytes", [optimize.BLOCK_BYTES, 40 * 8 * 8],
                             ids=["one-block", "many-blocks"])
    def test_solve_path_takes_every_residual_in_one_pass(self, spec, nbytes, monkeypatch):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((300, 6)) * rng.uniform(0.2, 5.0, 6)
        targets = theta @ rng.uniform(-1.0, 1.0, (6, 2)) + 0.05 * rng.standard_normal((300, 2))
        prob = Problem(theta=theta, targets=targets, sample_weights=rng.uniform(0.5, 2.0, 300))
        monkeypatch.setattr(optimize, "BLOCK_BYTES", nbytes)
        passes, residual_norms = [], _Rows.residual_norms

        def spy(self, xis):
            passes.append(len(xis))
            return residual_norms(self, xis)

        with monkeypatch.context() as mp:
            mp.setattr(_Rows, "residual_norms", spy)
            path = solve_path(prob, spec)
        assert passes == [len(path)] and len(path) > 1
        # each entry has the bits of its own residual pass
        rows = _Rows.of(prob)
        for entry in path:
            c = entry.coefficients
            alone = optimize._finish(rows, c.xi, c.diagnostics)
            np.testing.assert_array_equal(c.residuals, alone.residuals)
            assert entry.residual == float(np.linalg.norm(alone.residuals))
            assert c.diagnostics == alone.diagnostics

    def test_solve_path_rejects_non_greedy(self):
        prob, _ = planted_problem()
        with pytest.raises(SpecError, match="^solve_path requires SSR or FROLS, got STLSQ$"):
            solve_path(prob, STLSQ())

    def test_a_name_is_not_a_spec(self):
        # both used to fail with AttributeError on str.validate
        prob, _ = planted_problem()
        with pytest.raises(SpecError, match="^unknown optimizer spec 'stlsq'$"):
            solve(prob, "stlsq")
        with pytest.raises(SpecError, match="^solve_path requires SSR or FROLS, got str$"):
            solve_path(prob, "ssr")


ALL_SPECS = [
    STLSQ(threshold=0.1, ridge=0.0),
    SR3(threshold=0.1, max_iter=200, tol=1e-12),
    SSR(),
    FROLS(),
]
ALL_IDS = ["stlsq", "sr3", "ssr", "frols"]


class TestAllOptimizersOnPlantedProblem:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_IDS)
    def test_support_and_coefficients(self, spec):
        prob, xi_true = planted_problem()
        c = solve(prob, spec)
        assert set(np.flatnonzero(c.support[:, 0])) == {1, 3}
        assert np.abs(c.xi[:, 0] - xi_true).max() < 1e-6

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_IDS)
    def test_duplicated_column_reported(self, spec):
        prob, _ = planted_problem(noise=0.01)
        theta = np.column_stack([prob.theta, prob.theta[:, 1]])
        c = solve(Problem(theta=theta, targets=prob.targets), spec)
        assert c.diagnostics["rank_deficient"] is True
        assert c.diagnostics["cond_estimate"] > 1e10

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_IDS)
    def test_well_conditioned_design_reported(self, spec):
        prob, _ = planted_problem(noise=0.01)
        c = solve(prob, spec)
        assert c.diagnostics["rank_deficient"] is False
        assert 1.0 <= c.diagnostics["cond_estimate"] < 10.0


class TestNormalizationInvariance:
    def test_normalized_solve_with_zero_ridge_is_exact(self):
        # normalized coefficients carry the column norms, so a ridge penalty
        # would shrink them hard; with ridge 0 normalization is exact
        prob, xi_true = planted_problem(normalize=True)
        c = solve(prob, STLSQ(threshold=0.1, ridge=0.0))
        assert set(np.flatnonzero(c.support[:, 0])) == {1, 3}
        np.testing.assert_allclose(c.xi[:, 0], xi_true, atol=1e-10)

    @pytest.mark.parametrize("spec", [STLSQ(), FROLS()], ids=["stlsq", "frols"])
    def test_column_rescaling(self, spec):
        prob, _ = planted_problem(normalize=True)
        scale = np.ones(10)
        scale[3] = 250.0
        scaled = Problem(
            theta=prob.theta * scale,
            targets=prob.targets,
            normalize_columns=True,
        )
        base = solve(prob, spec)
        re = solve(scaled, spec)
        np.testing.assert_array_equal(base.support, re.support)
        np.testing.assert_allclose(re.xi[3] * 250.0, base.xi[3], rtol=1e-8)


SCALING_SPECS = [
    STLSQ(threshold=0.1, ridge=0.0),
    STLSQ(threshold=0.1, ridge=0.05),
    SR3(threshold=0.1, regularizer="l0"),
    SR3(threshold=0.1, regularizer="l1"),
    SSR(),
    FROLS(),
]
SCALING_IDS = ["stlsq", "stlsq-ridge", "sr3-l0", "sr3-l1", "ssr", "frols"]


class TestColumnScaling:
    """With ``normalize_columns``, scaling a column of the design by s > 0
    keeps the support and divides that coefficient row by s."""

    @pytest.mark.parametrize("spec", SCALING_SPECS, ids=SCALING_IDS)
    @given(
        seed=st.integers(0, 100_000),
        m=st.integers(20, 200),
        p=st.integers(2, 9),
        n=st.integers(1, 2),
        scale_seed=st.integers(0, 100_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_scales_coefficients_inversely(self, spec, seed, m, p, n, scale_seed):
        prob = random_problem(seed, m, p, n, weighted=False, normalize=True, collinear=False)
        scale = 10.0 ** np.random.default_rng(scale_seed).uniform(-3.0, 3.0, p)
        base = solve(prob, spec).xi
        scaled = solve(replace(prob, theta=prob.theta * scale), spec).xi
        np.testing.assert_array_equal(scaled != 0.0, base != 0.0)
        tol = 1e-10 * np.abs(base).max()
        np.testing.assert_allclose(scaled * scale[:, None], base, rtol=0.0, atol=tol)


class TestWeights:
    def test_sample_weights_change_solution(self):
        theta = np.array([[1.0], [1.0]])
        y = np.array([0.0, 10.0])
        even = solve(Problem(theta=theta, targets=y), STLSQ(threshold=0.0, ridge=0.0))
        skew = solve(
            Problem(theta=theta, targets=y, sample_weights=np.array([1.0, 9.0])),
            STLSQ(threshold=0.0, ridge=0.0),
        )
        assert abs(even.xi[0, 0] - 5.0) < 1e-12
        assert abs(skew.xi[0, 0] - 9.0) < 1e-12


# ---------------------------------------------------------------------------
# Parity with the explicit rows.  The solvers run on a (p + n)-row factor of
# [theta Y]; these oracles run the same algorithms on all m rows.
# ---------------------------------------------------------------------------


def explicit_rows(prob):
    """Weighted, optionally column-normalized rows and the column scale."""
    theta, y = prob.theta, prob.targets
    if prob.sample_weights is not None:
        sw = np.sqrt(prob.sample_weights)[:, None]
        theta, y = theta * sw, y * sw
    scale = np.ones(prob.n_features)
    if prob.normalize_columns:
        scale = np.linalg.norm(theta, axis=0)
    return theta / scale, y, scale


def oracle_stlsq(prob, spec):
    theta, Y, scale = explicit_rows(prob)

    def refit(th, y):
        if spec.ridge == 0.0:
            return np.linalg.lstsq(th, y, rcond=None)[0]
        return np.linalg.solve(th.T @ th + spec.ridge * np.eye(th.shape[1]), th.T @ y)

    xi = refit(theta, Y)
    support = np.ones(xi.shape, dtype=bool)
    for _ in range(spec.max_iter):
        new = support & (np.abs(xi) >= spec.threshold)
        changed = bool((new != support).any())
        support = new
        xi = np.zeros(xi.shape)
        for j in range(xi.shape[1]):
            if support[:, j].any():
                xi[support[:, j], j] = refit(theta[:, support[:, j]], Y[:, j])
        if not changed:
            break
    return xi / scale[:, None]


def oracle_sr3(prob, spec):
    """SR3 on the explicit rows; each relaxed update is the least-squares
    solution of [theta; I/sqrt(nu)] Xi = [Y; W/sqrt(nu)]."""
    theta, Y, scale = explicit_rows(prob)
    nu = spec.relaxation
    p = theta.shape[1]
    stacked = np.vstack((theta, np.eye(p) / np.sqrt(nu)))
    W = np.zeros((p, Y.shape[1]))
    for _ in range(spec.max_iter):
        Xi = np.linalg.lstsq(stacked, np.vstack((Y, W / np.sqrt(nu))), rcond=None)[0]
        W_new = hard_threshold(Xi, np.sqrt(2.0 * spec.threshold * nu))
        gap = np.linalg.norm(Xi - W_new) / np.sqrt(W.size)
        W = W_new
        if gap < spec.tol:
            break
    return W / scale[:, None]


def oracle_ssr_path(prob, spec):
    theta, Y, scale = explicit_rows(prob)
    p, n = theta.shape[1], Y.shape[1]
    supports = np.ones((p, n), dtype=bool)
    path = []
    for _ in range(p - min(spec.min_terms, p) + 1):
        xi = np.zeros((p, n))
        for j in range(n):
            act = supports[:, j]
            xi[act, j] = np.linalg.lstsq(theta[:, act], Y[:, j], rcond=None)[0]
        path.append(xi / scale[:, None])
        for j in range(n):
            act = np.flatnonzero(supports[:, j])
            supports[act[np.argmin(np.abs(xi[act, j]))], j] = False
    return path


def oracle_frols(prob, spec):
    """Forward selection by error reduction ratio, deflating explicit rows."""
    theta, Y, scale = explicit_rows(prob)
    p = theta.shape[1]
    xi = np.zeros((p, Y.shape[1]))
    for j in range(Y.shape[1]):
        A, r, sigma = theta.copy(), Y[:, j].copy(), Y[:, j] @ Y[:, j]
        energy = (theta**2).sum(axis=0)
        selected = []
        for _ in range(p if spec.max_terms is None else spec.max_terms):
            denom = (A**2).sum(axis=0)
            usable = denom > 1e-13 * energy
            usable[selected] = False
            if not usable.any():
                break
            err = np.where(usable, (A.T @ r) ** 2 / np.where(usable, denom, 1.0), 0.0)
            k = int(np.argmax(err / sigma))
            if err[k] / sigma < spec.err_tol:
                break
            selected.append(k)
            q = A[:, k].copy()
            r = r - q * (q @ r) / (q @ q)
            A = A - np.outer(q, (q @ A) / (q @ q))
        if selected:
            xi[selected, j] = np.linalg.lstsq(theta[:, selected], Y[:, j], rcond=None)[0]
    return xi / scale[:, None]


def random_problem(seed, m, p, n, weighted, normalize, collinear):
    """Planted sparse problem with noise, column scales spread over 1e3.

    ``collinear`` makes the last column nearly parallel to the first, which
    leaves the Cholesky factor of the Gram too inaccurate, so the solvers
    run on the Householder QR factor instead.
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((m, p))
    if collinear:
        theta[:, -1] = theta[:, 0] + 1e-3 * rng.standard_normal(m)
    theta *= 10.0 ** rng.uniform(-1.5, 1.5, p)
    planted = rng.random((p, n)) < 0.5
    planted[rng.integers(0, p, n), np.arange(n)] = True
    xi = np.where(planted, rng.uniform(0.5, 2.0, (p, n)), 0.0)
    xi *= rng.choice([-1.0, 1.0], (p, n))
    if normalize:
        # planted coefficients on the normalized scale, so that thresholds
        # and the planted terms stay far apart
        xi /= np.linalg.norm(theta, axis=0)[:, None]
    y = theta @ xi + 0.01 * rng.standard_normal((m, n)) * np.abs(theta @ xi).mean()
    weights = rng.uniform(0.2, 3.0, m) if weighted else None
    return Problem(theta=theta, targets=y, sample_weights=weights,
                   normalize_columns=normalize)


def problem_strategy(collinear):
    return st.builds(
        random_problem,
        seed=st.integers(0, 100_000),
        m=st.integers(12, 80),
        p=st.integers(2, 8),
        n=st.integers(1, 3),
        weighted=st.booleans(),
        normalize=st.booleans(),
        collinear=collinear,
    )


problems = problem_strategy(st.booleans())


def assert_same_fit(xi, expected):
    np.testing.assert_array_equal(xi != 0.0, expected != 0.0)
    tol = 1e-10 * max(1.0, np.abs(expected).max())
    np.testing.assert_allclose(xi, expected, rtol=0.0, atol=tol)


class TestFactorParity:
    @given(prob=problems, ridge=st.sampled_from([0.0, 0.05]))
    @settings(max_examples=60)
    def test_stlsq(self, prob, ridge):
        spec = STLSQ(threshold=0.1, ridge=ridge)
        c = solve(prob, spec)
        assert_same_fit(c.xi, oracle_stlsq(prob, spec))
        theta, Y, scale = explicit_rows(prob)
        resid = np.linalg.norm(Y - theta @ (c.xi * scale[:, None]), axis=0)
        np.testing.assert_allclose(c.residuals, resid, rtol=1e-12)

    @given(prob=problems)
    @settings(max_examples=60)
    def test_sr3(self, prob):
        spec = SR3(threshold=0.1, max_iter=50)
        assert_same_fit(solve(prob, spec).xi, oracle_sr3(prob, spec))

    @given(prob=problems)
    @settings(max_examples=60)
    def test_ssr_path(self, prob):
        spec = SSR()
        path = solve_path(prob, spec)
        expected = oracle_ssr_path(prob, spec)
        assert len(path) == len(expected)
        for entry, xi in zip(path, expected):
            assert_same_fit(entry.coefficients.xi, xi)

    @given(prob=problems)
    @settings(max_examples=60)
    def test_frols(self, prob):
        spec = FROLS()
        assert_same_fit(solve(prob, spec).xi, oracle_frols(prob, spec))


class TestConditionBound:
    """A Kahan-type design passes the pivot test at every column, while its
    condition number grows geometrically with its width: the bound on the
    normalized condition number sends it to TSQR."""

    @staticmethod
    def kahan_problem(p, m=4000, min_pivot=1.2e-3, noise=0.0):
        # Theta = Q R, R = diag(s^i) (I - c * strictly upper ones), s^2 + c^2
        # = 1: column i keeps the share s^(2i) of its squared norm
        s = min_pivot ** (1.0 / (2 * (p - 1)))
        c = np.sqrt(1.0 - s * s)
        R = np.diag(s ** np.arange(p)) @ (np.eye(p) - c * np.triu(np.ones((p, p)), 1))
        rng = np.random.default_rng(0)
        theta = np.linalg.qr(rng.standard_normal((m, p)))[0] @ R
        targets = theta @ rng.uniform(-1.0, 1.0, (p, 1)) + noise * rng.standard_normal((m, 1))
        return Problem(theta=theta, targets=targets)

    def test_kahan_design_takes_tsqr(self, factor_branches):
        # exact targets; Cholesky of the Gram of [theta Y] succeeds, and
        # every feature pivot passes
        prob = self.kahan_problem(30)
        rows = np.hstack((prob.theta, prob.targets))
        gram = rows.T @ rows
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2 / np.diagonal(gram)
        assert pivots[:30].min() >= optimize.CHOLESKY_MIN_PIVOT
        assert np.linalg.cond(prob.theta / np.linalg.norm(prob.theta, axis=0)) > 1e6
        with factor_branches() as branches:
            xi = solve(prob, STLSQ(threshold=0.0, ridge=0.0)).xi
        assert branches == ["factor", "qr"]
        expected = np.linalg.lstsq(prob.theta, prob.targets, rcond=None)[0]
        assert np.abs(xi - expected).max() <= 1e-8 * np.abs(expected).max()

    def test_narrower_kahan_design_keeps_cholesky(self, factor_branches):
        # normalized condition number about 2400
        prob = self.kahan_problem(8, noise=1e-3)
        with factor_branches() as branches:
            solve(prob, STLSQ(threshold=0.0, ridge=0.0))
        assert branches == ["factor"]


class TestSR3Conditioning:
    """SR3 on a near-collinear design (columns 1e-3 apart, scales spread over
    1e3) where the normal equations of its relaxed update lose ~1e-9."""

    spec = SR3(threshold=0.1, max_iter=50)

    def problem(self):
        return random_problem(592, 62, 3, 2, False, False, True)

    def test_row_order(self):
        prob = self.problem()
        perm = np.random.default_rng(0).permutation(prob.theta.shape[0])
        shuffled = Problem(theta=prob.theta[perm], targets=prob.targets[perm])
        a, b = solve(prob, self.spec).xi, solve(shuffled, self.spec).xi
        np.testing.assert_array_equal(a != 0.0, b != 0.0)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_factor_matches_full_rows(self):
        prob = self.problem()
        xi, expected = solve(prob, self.spec).xi, oracle_sr3(prob, self.spec)
        np.testing.assert_array_equal(xi != 0.0, expected != 0.0)
        assert np.abs(xi - expected).max() <= 1e-11 * np.abs(expected).max()


# tol=0 runs SR3 for exactly max_iter iterations, so that a stopping test
# on a rescaled gap cannot end two equivalent runs at different iterations
INVARIANT_SPECS = [
    STLSQ(threshold=0.1, ridge=0.0),
    SR3(threshold=0.1, max_iter=50, tol=0.0),
    FROLS(),
]
INVARIANT_IDS = ["stlsq", "sr3", "frols"]


class TestRowInvariance:
    @pytest.mark.parametrize("spec", INVARIANT_SPECS, ids=INVARIANT_IDS)
    @given(data=st.data(), perm_seed=st.integers(0, 1000))
    @settings(max_examples=30)
    def test_row_permutation(self, spec, data, perm_seed):
        prob = data.draw(problems)
        perm = np.random.default_rng(perm_seed).permutation(prob.theta.shape[0])
        shuffled = Problem(
            theta=prob.theta[perm],
            targets=prob.targets[perm],
            sample_weights=None if prob.sample_weights is None else prob.sample_weights[perm],
            normalize_columns=prob.normalize_columns,
        )
        assert_same_fit(solve(shuffled, spec).xi, solve(prob, spec).xi)

    @pytest.mark.parametrize("spec", INVARIANT_SPECS, ids=INVARIANT_IDS)
    @given(data=st.data())
    @settings(max_examples=30)
    def test_stacked_twice(self, spec, data):
        prob = data.draw(problems)
        stacked = Problem(
            theta=np.vstack([prob.theta, prob.theta]),
            targets=np.vstack([prob.targets, prob.targets]),
            sample_weights=(
                None if prob.sample_weights is None
                else np.concatenate([prob.sample_weights] * 2)
            ),
            normalize_columns=prob.normalize_columns,
        )
        doubled = spec
        if isinstance(spec, SR3):
            # doubling the rows doubles the fit term of the SR3 objective;
            # doubling the threshold matches the penalty term, and halving
            # the relaxation the coupling term -- unless the columns are
            # normalized, when the coefficients themselves grow by sqrt(2)
            relaxation = spec.relaxation if prob.normalize_columns else spec.relaxation / 2
            doubled = replace(spec, threshold=2 * spec.threshold, relaxation=relaxation)
        elif isinstance(spec, STLSQ) and prob.normalize_columns:
            doubled = replace(spec, threshold=np.sqrt(2) * spec.threshold)
        assert_same_fit(solve(stacked, doubled).xi, solve(prob, spec).xi)


class TestColumnPermutation:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=ALL_IDS)
    @given(data=st.data(), perm_seed=st.integers(0, 1000))
    @settings(max_examples=30)
    def test_permutes_the_support(self, spec, data, perm_seed):
        prob = data.draw(problems)
        perm = np.random.default_rng(perm_seed).permutation(prob.n_features)
        permuted = replace(
            prob,
            theta=prob.theta[:, perm],
            feature_names=tuple(prob.names()[i] for i in perm),
        )
        c = solve(prob, spec)
        assert_same_fit(solve(permuted, spec).xi, c.xi[perm])


def test_stacked_rows_are_c_ordered():
    prob, _ = planted_problem()
    rows = _Rows.of(replace(prob, theta=np.asfortranarray(prob.theta)))
    assert rows.data.flags.c_contiguous
    np.testing.assert_array_equal(rows.data, np.hstack([prob.theta, prob.targets]))


# ---------------------------------------------------------------------------
# Rows of sample weight 0 take no part in a fit: not in the factor, not in
# SSR's holdout residuals, not in an ensemble member.
# ---------------------------------------------------------------------------

ZERO_WEIGHT_SPECS = ALL_SPECS + [
    ("ensemble", STLSQ(threshold=0.1, ridge=0.0)),
    ("ensemble", SSR()),
]
ZERO_WEIGHT_IDS = ALL_IDS + ["ensemble-stlsq", "ensemble-ssr"]


def fitted_xi(prob, spec):
    if isinstance(spec, tuple):
        report = fit_ensemble(prob, spec[1], EnsembleSpec(n_models=6, seed=3))
        return report.coefficients.xi
    return solve(prob, spec).xi


class TestZeroWeightRows:
    @pytest.mark.parametrize("spec", ZERO_WEIGHT_SPECS, ids=ZERO_WEIGHT_IDS)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(24, 80),
        p=st.integers(2, 6),
        n=st.integers(1, 2),
        garbage_scale=st.sampled_from([1.0, 1e3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_zero_weight_rows_do_not_matter(self, spec, seed, m, p, n, garbage_scale):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((m, p))
        targets = theta @ rng.uniform(-2.0, 2.0, (p, n))
        targets += 0.1 * rng.standard_normal((m, n))
        weights = rng.uniform(0.5, 2.0, m)
        zero = rng.permutation(m)[: m // 2]
        weights[zero] = 0.0
        prob = Problem(theta=theta, targets=targets, sample_weights=weights)
        theta_g, targets_g = theta.copy(), targets.copy()
        theta_g[zero] = garbage_scale * rng.standard_normal((zero.size, p))
        targets_g[zero] = garbage_scale * rng.standard_normal((zero.size, n))
        garbled = Problem(theta=theta_g, targets=targets_g, sample_weights=weights)
        np.testing.assert_array_equal(fitted_xi(garbled, spec), fitted_xi(prob, spec))


# ---------------------------------------------------------------------------
# One support refit.  STLSQ, SSR and FROLS turn a support into coefficients
# through ``_refit``; these are the per-target loops it replaced, run on the
# same factor through the same dispatch.
# ---------------------------------------------------------------------------


def former_lstsq(theta, targets):
    return np.linalg.lstsq(theta, targets, rcond=None)[0]


def former_stlsq(fac, spec):
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    diags = {}
    xi = optimize._ridge(theta, Y, spec.ridge)
    support = np.ones((p, n), dtype=bool)
    history = []
    converged = False
    empty = set()
    for _ in range(spec.max_iter):
        new_support = support & (np.abs(xi) >= spec.threshold)
        xi_thresholded = np.where(new_support, xi, 0.0)
        r_thresh = float(np.linalg.norm(Y - theta @ xi_thresholded))
        for j in range(n):
            if not new_support[:, j].any() and j not in empty:
                empty.add(j)
        changed = bool((new_support != support).any())
        support = new_support
        xi = np.zeros((p, n))
        for j in range(n):
            act = support[:, j]
            if act.any():
                xi[act, j] = optimize._ridge(theta[:, act], Y[:, j : j + 1], spec.ridge).ravel()
        history.append(
            {
                "residual_thresholded": r_thresh,
                "residual_refit": float(np.linalg.norm(Y - theta @ xi)),
            }
        )
        if not changed:
            converged = True
            break
    diags["converged"] = converged
    diags["iterations"] = len(history)
    diags["residual_history"] = history
    if empty:
        diags["empty_support_targets"] = sorted(empty)
    return np.where(support, xi, 0.0), diags


def former_ssr_path(fac, spec):
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    supports = [np.ones(p, dtype=bool) for _ in range(n)]
    entries = []
    size = p
    floor = min(spec.min_terms, p)
    while size >= floor:
        xi = np.zeros((p, n))
        for j in range(n):
            act = supports[j]
            xi[act, j] = former_lstsq(theta[:, act], Y[:, j])
        entries.append((size, np.where(np.column_stack(supports), xi, 0.0)))
        if size == floor:
            break
        for j in range(n):
            act = supports[j]
            mags = np.abs(xi[act, j])
            drop = np.flatnonzero(act)[np.argmin(mags)]
            supports[j] = act.copy()
            supports[j][drop] = False
        size -= 1
    return entries, {}


def former_ssr_holdout(rows, spec, gram):
    """The former holdout refit.  Its selection is the documented rule (the
    sparsest entry within HOLDOUT_TIE_RTOL of the minimum), written as a
    scan; the former scan kept the densest near-tie instead.  It factors all
    rows from a pass of their own, so it ignores ``gram``, their shared Gram."""
    train, hold = rows.split()
    train_fac = train.factor()
    path = np.stack([train_fac.embed(xi_n) for _, xi_n in former_ssr_path(train_fac, spec)[0]])
    hold_res = hold.residual_norms(path)

    fac = rows.factor()
    n = path.shape[2]
    xi = np.zeros((fac.index.size, n))
    for j in range(n):
        limit = hold_res[:, j].min() * (1.0 + optimize.HOLDOUT_TIE_RTOL)
        best = [entry[:, j] != 0.0 for entry, res in zip(path, hold_res[:, j]) if res <= limit][-1]
        act = np.isin(fac.index, np.flatnonzero(best))
        if act.any():
            xi[act, j] = former_lstsq(fac.theta[:, act], fac.targets[:, j])
    return fac, xi, {"holdout_rows": int(hold.counts.sum())}


def former_frols_path(fac, spec):
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    max_terms = p if spec.max_terms is None else min(spec.max_terms, p)
    orders = [
        optimize._frols_order(theta, Y[:, j], max_terms, spec.err_tol) for j in range(n)
    ]
    depth = max((len(sel) for sel, _ in orders), default=0)
    if depth == 0:
        raise FitError("FROLS selected no features (err_tol too large?)")
    entries = []
    for size in range(1, depth + 1):
        xi = np.zeros((p, n))
        for j in range(n):
            sel = orders[j][0][: min(size, len(orders[j][0]))]
            if sel:
                xi[sel, j] = former_lstsq(theta[:, sel], Y[:, j])
        entries.append((size, xi))
    return entries, {"err_values": [errs for _, errs in orders]}


def with_former_refits(run):
    """``run()`` with STLSQ, SSR and FROLS on their former refit loops."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_SOLVERS", {
            STLSQ: former_stlsq, SR3: optimize._solve_sr3,
            SSR: former_ssr_path, FROLS: former_frols_path,
        })
        mp.setattr(optimize, "_ssr_holdout", former_ssr_holdout)
        return run()


def assert_identical(a, b):
    """Equal structure, with arrays equal bit for bit."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for u, v in zip(a, b):
            assert_identical(u, v)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, strict=True)
    else:
        assert a == b


def refit_outputs(prob, spec, how):
    """Coefficients, supports, residuals and diagnostics of every fit of one
    call (``how``: "solve", "path" or an ensemble seed), then an ensemble's
    member statistics; or the error the call raised."""
    extras = []
    try:
        if how == "solve":
            results = [solve(prob, spec)]
        elif how == "path":
            results = [entry.coefficients for entry in solve_path(prob, spec)]
        else:
            report = fit_ensemble(prob, spec, EnsembleSpec(n_models=4, seed=how))
            results = [report.coefficients]
            extras = [report.member_xi, report.inclusion_probability, report.iqr,
                      report.n_failed, report.failures]
    except (FitError, SpecError) as exc:
        return repr(exc)
    return [(c.xi, c.support, c.residuals, c.diagnostics) for c in results], extras


REFIT_SPECS = [
    STLSQ(threshold=0.1, ridge=0.0),
    STLSQ(threshold=0.1, ridge=0.05),
    SR3(threshold=0.1, max_iter=50),
    SSR(),
    SSR(min_terms=2),
    FROLS(),
    FROLS(max_terms=2),
]


class TestOneRefit:
    @given(
        prob=problems,
        spec=st.sampled_from(REFIT_SPECS),
        how=st.sampled_from(["solve", "path", 0, 1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_former_refit_loops(self, prob, spec, how):
        if how == "path" and not isinstance(spec, (SSR, FROLS)):
            how = "solve"
        new = refit_outputs(prob, spec, how)
        old = with_former_refits(lambda: refit_outputs(prob, spec, how))
        if not isinstance(spec, FROLS) or isinstance(old, str):
            assert_identical(new, old)
            return
        # FROLS now refits a prefix in column order, not selection order,
        # which moves its coefficients by rounding: within 1e-12 of max|xi|
        # on a well-conditioned design, and in proportion to the condition
        # number on a near-collinear one
        (fits, extras), (old_fits, old_extras) = new, old
        assert len(fits) == len(old_fits)
        rel = max(1e-12, 1e-14 * np.linalg.cond(explicit_rows(prob)[0]))
        for (xi, support, _, _), (old_xi, old_support, _, _) in zip(fits, old_fits):
            np.testing.assert_array_equal(support, old_support)
            np.testing.assert_allclose(xi, old_xi, rtol=0.0, atol=rel * np.abs(old_xi).max())
        if extras:
            np.testing.assert_array_equal(extras[1], old_extras[1])

    def test_ssr_holdout_takes_the_sparsest_near_tie(self, monkeypatch):
        # holdout residuals of the path entries of 4 terms down to 1: target
        # 0 has its minimum at 4 terms and near-ties at 3 and 2, target 1 its
        # minimum at 2 terms and a near-tie at 3; both take 2 terms
        table = np.array([
            [1.0, 3.0],
            [1.0 + 1e-10, 2.0],
            [1.0 + 3e-10, 2.0 - 1e-12],
            [2.0, 5.0],
        ])
        residual_norms = _Rows.residual_norms

        def holdout_table(self, xis):
            return table if len(xis) == len(table) else residual_norms(self, xis)

        monkeypatch.setattr(_Rows, "residual_norms", holdout_table)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((40, 4))
        c = solve(Problem(theta=theta, targets=rng.standard_normal((40, 2))), SSR())
        assert c.support.sum(axis=0).tolist() == [2, 2]


# ---------------------------------------------------------------------------
# Noiseless planted-support recovery
# ---------------------------------------------------------------------------


def noiseless_planted(seed):
    """200x8 standard-normal design and two exact targets, each on a planted
    support of at least one term with coefficients of magnitude 0.5 to 2."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((200, 8))
    planted = rng.random((8, 2)) < 0.4
    planted[rng.integers(0, 8, 2), [0, 1]] = True
    magnitude = rng.uniform(0.5, 2.0, (8, 2)) * rng.choice([-1.0, 1.0], (8, 2))
    xi = np.where(planted, magnitude, 0.0)
    return Problem(theta=theta, targets=theta @ xi), xi


PLANTED_SPECS = [
    STLSQ(threshold=0.1, ridge=0.0),
    SR3(threshold=0.1, max_iter=200, tol=1e-12),
    FROLS(),
    pytest.param(SSR(), marks=pytest.mark.xfail(
        strict=True,
        reason="FOUND: SSR's holdout selection acts as an argmin of the holdout "
        "residual and keeps superset supports on noiseless data",
    )),
]


class TestPlantedSupportRecovery:
    @pytest.mark.parametrize("spec", PLANTED_SPECS, ids=["stlsq", "sr3", "frols", "ssr"])
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_recovers_the_planted_support(self, spec, seed):
        prob, xi = noiseless_planted(seed)
        c = solve(prob, spec)
        np.testing.assert_array_equal(c.support, xi != 0.0)
        np.testing.assert_allclose(c.xi, xi, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# SR3 stops, converged, where its sparse iterate repeats exactly
# ---------------------------------------------------------------------------


def former_solve_sr3(fac, spec):
    """SR3's loop before the repeated-iterate stop (unconstrained)."""
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    nu = spec.relaxation
    Q, R_s = np.linalg.qr(np.vstack((theta, np.eye(p) / np.sqrt(nu))))
    fit_part = Q[: theta.shape[0]].T @ Y
    coupling = Q[theta.shape[0]:].T / np.sqrt(nu)
    W = np.zeros((p, n))
    Xi = W
    converged = False
    for it in range(spec.max_iter):
        Xi = np.linalg.solve(R_s, fit_part + coupling @ W)
        W_new = optimize._sr3_prox(Xi, spec)
        gap = float(np.linalg.norm(Xi - W_new) / np.sqrt(p * n))
        W = W_new
        if gap < spec.tol:
            converged = True
            break
    return W, {"converged": converged, "iterations": it + 1,
               "xi_relaxed": fac.embed(Xi)}


def with_former_sr3(run):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_SOLVERS", {**optimize._SOLVERS, SR3: former_solve_sr3})
        return run()


class TestSR3Convergence:
    @given(
        prob=problems,
        regularizer=st.sampled_from(["l0", "l1"]),
        relaxation=st.sampled_from([1.0, 0.1]),
        threshold=st.sampled_from([0.01, 0.1, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_answers_match_the_full_loop(self, prob, regularizer, relaxation, threshold):
        spec = SR3(threshold=threshold, relaxation=relaxation, regularizer=regularizer)
        new = solve(prob, spec)
        old = with_former_sr3(lambda: solve(prob, spec))
        np.testing.assert_array_equal(new.xi, old.xi)
        np.testing.assert_array_equal(new.diagnostics["xi_relaxed"],
                                      old.diagnostics["xi_relaxed"])
        assert new.diagnostics["iterations"] <= old.diagnostics["iterations"]
        assert new.diagnostics["converged"] or not old.diagnostics["converged"]

    def test_converges_on_the_ks_problem(self):
        dataset, _ = generate(BenchmarkSpec(system=KS(), seed=0))
        train, _ = split_train_test(dataset, 0.6)
        model = fit(train, canonical_library(KS()),
                    diff=SavitzkyGolay(window=5, poly_order=3), opt=SR3())
        diags = model.coefficients.diagnostics
        assert diags["converged"]
        assert diags["iterations"] < SR3().max_iter
        assert set(np.array(model.feature_names)[model.xi[:, 0] != 0.0]) == {
            "q0 q0_x", "q0_xx", "q0_xxxx"}

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_converges_on_the_planted_problem(self, noise):
        prob, xi = planted_problem(noise=noise)
        c = solve(prob, SR3(threshold=0.1))
        assert c.diagnostics["converged"]
        np.testing.assert_array_equal(c.support[:, 0], xi != 0.0)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_converges_on_noiseless_planted_problems(self, seed):
        prob, xi = noiseless_planted(seed)
        c = solve(prob, SR3(threshold=0.1))
        assert c.diagnostics["converged"]
        np.testing.assert_array_equal(c.support, xi != 0.0)

    def test_all_zero_fixed_point_reports_its_empty_targets(self):
        prob, _ = planted_problem()
        c = solve(prob, SR3(threshold=100.0))
        assert c.n_terms == 0
        assert c.diagnostics["converged"] and c.diagnostics["iterations"] == 1
        assert c.diagnostics["empty_support_targets"] == [0]

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import optimize
from sparsedyn.ensemble import (
    EnsembleSpec,
    aggregate_members,
    derive_seed,
    fit_ensemble,
)
from sparsedyn.errors import FitError, SpecError
from sparsedyn.optimize import FROLS, SR3, SSR, STLSQ, Problem, _Rows, solve


def planted_problem(seed=123, noise=0.0):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((200, 10))
    xi_true = np.zeros(10)
    xi_true[1], xi_true[3] = 2.0, -1.5
    y = theta @ xi_true
    if noise:
        y = y + noise * rng.standard_normal(200)
    return Problem(theta=theta, targets=y), xi_true


class TestSeedDerivation:
    def test_distinct_and_deterministic(self):
        seeds = [derive_seed(7, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [derive_seed(7, i) for i in range(100)]


class TestAggregation:
    def test_median_definition(self):
        stack = np.array([1.0, 1.1, 5.0]).reshape(3, 1, 1)
        xi, inclusion, iqr = aggregate_members(stack, EnsembleSpec(n_models=3))
        assert xi[0, 0] == 1.1
        assert inclusion[0, 0] == 1.0

    def test_mean_aggregator(self):
        stack = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        xi, _, _ = aggregate_members(
            stack, EnsembleSpec(n_models=3, aggregator="mean")
        )
        assert xi[0, 0] == 2.0

    def test_below_threshold_zeroed(self):
        stack = np.array([0.0, 0.0, 5.0]).reshape(3, 1, 1)
        xi, inclusion, _ = aggregate_members(stack, EnsembleSpec(n_models=3))
        assert inclusion[0, 0] == pytest.approx(1.0 / 3.0)
        assert xi[0, 0] == 0.0


class TestFitEnsemble:
    def test_degenerate_ensemble_equals_plain_solve(self):
        prob, _ = planted_problem()
        spec = EnsembleSpec(n_models=5, row_fraction=1.0, replace=False, seed=1)
        report = fit_ensemble(prob, STLSQ(), spec)
        plain = solve(prob, STLSQ())
        for member in report.member_xi:
            np.testing.assert_array_equal(member, plain.xi)
        np.testing.assert_array_equal(report.coefficients.xi, plain.xi)
        assert set(np.unique(report.inclusion_probability)) <= {0.0, 1.0}

    def test_weighted_residuals_match_plain_solve(self):
        # full-fraction sampling without replacement reproduces the plain
        # solve, so the reported (sqrt-weight scaled) residuals must agree
        prob, _ = planted_problem(noise=0.1)
        weights = np.random.default_rng(4).uniform(0.1, 3.0, prob.theta.shape[0])
        prob = Problem(theta=prob.theta, targets=prob.targets, sample_weights=weights)
        spec = EnsembleSpec(n_models=3, row_fraction=1.0, replace=False, seed=2)
        report = fit_ensemble(prob, STLSQ(), spec)
        plain = solve(prob, STLSQ())
        np.testing.assert_array_equal(report.coefficients.xi, plain.xi)
        np.testing.assert_array_equal(report.coefficients.residuals, plain.residuals)

    def test_exactness_holds_over_many_blocks(self, monkeypatch):
        # 16 of the 200 rows per block: the plain solve reads views of the
        # rows, members gather theirs, and both stream the same blocks
        monkeypatch.setattr(optimize, "BLOCK_BYTES", 16 * 11 * 8)
        self.test_degenerate_ensemble_equals_plain_solve()
        self.test_weighted_residuals_match_plain_solve()

    def test_all_zero_member_counts_as_failed(self):
        # rows 0-9 carry the only nonzero entries of the design; a member
        # that draws none of them has no feature to fit and fails
        theta = np.zeros((200, 2))
        theta[:10] = np.random.default_rng(0).standard_normal((10, 2))
        prob = Problem(theta=theta, targets=theta @ np.array([1.0, -2.0]))
        report = fit_ensemble(
            prob, STLSQ(), EnsembleSpec(n_models=40, row_fraction=0.1, seed=0)
        )
        assert report.n_failed > 0
        assert all("zero" in f for f in report.failures)
        assert report.member_xi.shape[0] == 40 - report.n_failed

    def test_planted_problem_inclusion_probabilities(self):
        prob, _ = planted_problem(noise=0.05)
        spec = EnsembleSpec(n_models=50, seed=3)
        report = fit_ensemble(prob, STLSQ(), spec)
        incl = report.inclusion_probability[:, 0]
        assert incl[1] >= 0.9 and incl[3] >= 0.9
        others = np.delete(incl, [1, 3])
        assert others.max() <= 0.3

    def test_determinism(self):
        prob, _ = planted_problem(noise=0.02)
        spec = EnsembleSpec(n_models=12, seed=21)
        a = fit_ensemble(prob, STLSQ(), spec)
        b = fit_ensemble(prob, STLSQ(), spec)
        np.testing.assert_array_equal(a.member_xi, b.member_xi)
        np.testing.assert_array_equal(a.coefficients.xi, b.coefficients.xi)
        np.testing.assert_array_equal(a.inclusion_probability, b.inclusion_probability)
        np.testing.assert_array_equal(a.iqr, b.iqr)

    def test_library_dropping_keeps_indices_stable(self):
        prob, _ = planted_problem(noise=0.01)
        spec = EnsembleSpec(n_models=30, n_library_drop=3, seed=5)
        report = fit_ensemble(prob, STLSQ(), spec)
        assert report.member_xi.shape == (30, 10, 1)
        # a true feature is retained whenever it is not among the 3 dropped
        # columns, so inclusion sits near 0.7; spurious features stay rare
        incl = report.inclusion_probability[:, 0]
        assert incl[1] > 0.45 and incl[3] > 0.45
        # members that lose a true column push its signal into correlated
        # spurious columns, so the spurious ceiling is looser here than for
        # row-only subsampling
        assert np.delete(incl, [1, 3]).max() <= 0.4

    def test_too_many_drops_rejected(self):
        prob, _ = planted_problem()
        with pytest.raises(SpecError):
            fit_ensemble(prob, STLSQ(), EnsembleSpec(n_library_drop=10))

    @pytest.mark.parametrize("opt", [STLSQ(threshold=-1), SSR(min_terms=0), FROLS(err_tol=-1),
                                     "stlsq"], ids=["stlsq", "ssr", "frols", "not-a-spec"])
    def test_invalid_optimizer_is_a_spec_error(self, opt):
        # the one check solve makes, once, not a failure of every member
        prob, _ = planted_problem()
        with pytest.raises(SpecError) as solved:
            solve(prob, opt)
        with pytest.raises(SpecError) as ensembled:
            fit_ensemble(prob, opt, EnsembleSpec(n_models=4, seed=0))
        assert str(ensembled.value) == str(solved.value)

    def test_ssr_draws_too_small_for_a_holdout_split_are_a_spec_error(self):
        # each member draws round(0.03 * 40) = 1 row, and its split would
        # leave none to train on: split's own error, before any member is drawn
        rng = np.random.default_rng(0)
        prob = Problem(theta=rng.standard_normal((40, 3)), targets=rng.standard_normal(40))
        spec = EnsembleSpec(n_models=4, row_fraction=0.03)
        with pytest.raises(SpecError, match="^1 rows are too few for a holdout split$"):
            fit_ensemble(prob, SSR(), spec)
        one_row = replace(_Rows.of(prob), counts=np.eye(1, 40, dtype=np.uint8)[0])
        with pytest.raises(SpecError, match="^1 rows are too few for a holdout split$"):
            one_row.split()
        # two rows split into one to train on and one held out
        with pytest.warns(UserWarning, match="see 2 rows for 3 features"):
            fit_ensemble(prob, SSR(), replace(spec, row_fraction=0.05))

    def test_sr3_constraints_with_dropped_library_columns_are_a_spec_error(self):
        # a matrix as wide as the columns a member keeps would pin a
        # different library column in a member that drops column 0
        rng = np.random.default_rng(0)
        prob = Problem(theta=rng.standard_normal((200, 3)), targets=rng.standard_normal(200))
        opt = SR3(threshold=0.01, constraints=([[1.0, 0.0]], [5.0]))
        with pytest.raises(SpecError, match="every library column in every fit"):
            fit_ensemble(prob, opt, EnsembleSpec(n_models=6, n_library_drop=1, seed=0))
        full = SR3(threshold=0.01, constraints=([[1.0, 0.0, 0.0]], [5.0]))
        report = fit_ensemble(prob, full, EnsembleSpec(n_models=6, seed=0))
        np.testing.assert_allclose(report.member_xi[:, 0, 0], 5.0)

    def test_majority_failure_raises(self):
        prob, _ = planted_problem()
        # err_tol > 1 means FROLS never selects anything, failing every member
        with pytest.raises(FitError):
            fit_ensemble(prob, FROLS(err_tol=2.0), EnsembleSpec(n_models=4, seed=0))

    def test_small_row_fraction_warns(self):
        prob, _ = planted_problem()
        with pytest.warns(UserWarning):
            fit_ensemble(
                prob, STLSQ(), EnsembleSpec(n_models=2, row_fraction=0.04, seed=0)
            )

    def test_inclusion_is_exact_member_fraction(self):
        prob, _ = planted_problem(noise=0.3)
        spec = EnsembleSpec(n_models=16, seed=9)
        report = fit_ensemble(prob, STLSQ(), spec)
        counts = (report.member_xi != 0.0).sum(axis=0)
        np.testing.assert_array_equal(
            report.inclusion_probability, counts / report.member_xi.shape[0]
        )


    def test_aggregate_reports_its_empty_targets(self):
        # each target rests on one column; every member drops one of the
        # three columns, so with support_threshold 1 the aggregate keeps only
        # columns that no member dropped
        rng = np.random.default_rng(0)
        theta = rng.standard_normal((100, 3))
        prob = Problem(theta=theta, targets=theta[:, [0, 1]] * [2.0, -3.0])
        spec = EnsembleSpec(n_models=5, n_library_drop=1, support_threshold=1.0, seed=6)
        report = fit_ensemble(prob, STLSQ(threshold=0.5), spec)
        np.testing.assert_array_equal(report.coefficients.support.any(axis=0), [True, False])
        assert report.coefficients.diagnostics["empty_support_targets"] == [1]


def row_copied_members(problem, opt, spec):
    """Members refit on explicitly row-copied problems, drawing the same rows
    and dropped columns from the same per-member generators."""
    m, p = problem.theta.shape
    n_rows = max(1, int(round(spec.row_fraction * m)))
    members = []
    for i in range(spec.n_models):
        rng = np.random.default_rng(derive_seed(spec.seed, i))
        if spec.replace:
            rows = np.sort(rng.integers(0, m, size=n_rows))
        else:
            rows = np.sort(rng.permutation(m)[:n_rows])
        keep = np.arange(p)
        if spec.n_library_drop:
            dropped = rng.choice(p, size=spec.n_library_drop, replace=False)
            keep = np.setdiff1d(keep, dropped)
        sub = Problem(
            theta=problem.theta[np.ix_(rows, keep)],
            targets=problem.targets[rows],
            sample_weights=(
                None if problem.sample_weights is None else problem.sample_weights[rows]
            ),
            normalize_columns=problem.normalize_columns,
        )
        xi = np.zeros((p, problem.n_targets))
        xi[keep] = solve(sub, opt).xi
        members.append(xi)
    return np.stack(members)


class TestCountWeightedMembers:
    @pytest.mark.parametrize(
        "opt",
        [STLSQ(threshold=0.1, ridge=0.0), STLSQ(), SR3(threshold=0.1), SSR(), FROLS()],
        ids=["stlsq", "stlsq-ridge", "sr3", "ssr", "frols"],
    )
    @given(
        seed=st.integers(0, 10_000),
        replace=st.booleans(),
        n_library_drop=st.integers(0, 2),
        weighted=st.booleans(),
        normalize=st.booleans(),
    )
    @settings(max_examples=15)
    def test_members_match_row_copied_refits(
        self, opt, seed, replace, n_library_drop, weighted, normalize
    ):
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((60, 6)) * rng.uniform(0.2, 5.0, 6)
        targets = theta @ rng.uniform(-2.0, 2.0, (6, 2))
        targets += 0.05 * rng.standard_normal(targets.shape)
        problem = Problem(
            theta=theta,
            targets=targets,
            sample_weights=rng.uniform(0.5, 2.0, 60) if weighted else None,
            normalize_columns=normalize,
        )
        spec = EnsembleSpec(n_models=6, replace=replace,
                            n_library_drop=n_library_drop, seed=seed)
        report = fit_ensemble(problem, opt, spec)
        expected = row_copied_members(problem, opt, spec)
        np.testing.assert_array_equal(report.member_xi != 0.0, expected != 0.0)
        np.testing.assert_allclose(report.member_xi, expected, rtol=0.0, atol=1e-10)

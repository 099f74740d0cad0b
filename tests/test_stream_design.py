"""``fit``, ``score`` and ``predict`` read the design one row block at a time.

A grid library's design is filled a block at a time from narrow inputs
(states, derivative fields, targets), and an ensemble's members share each
block in one pass.  Every value is elementwise and every block, gather and
Gram update is that of the whole design, so a fit is ``solve`` (or
``fit_ensemble``) on ``design``'s problem bit for bit, and a score or
prediction is the whole-array product; at the default block size and at one
shrunk to a few rows.  No fit, score or prediction of a tall design holds
an array of its size.
"""

import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import sparsedyn.ensemble as ensemble_module
from sparsedyn import optimize
from sparsedyn.data import Dataset, Grid, TrajectoryCollection
from sparsedyn.diff import FiniteDifference, Spectral
from sparsedyn.ensemble import EnsembleSpec, fit_ensemble
from sparsedyn.errors import DataError
from sparsedyn.library import PDE, Concat, Custom, Fourier, InputSubset, Polynomial
from sparsedyn.model import _metric, design, fit, predict, score
from sparsedyn.optimize import FROLS, SR3, SSR, STLSQ, Problem, _fit_rows, _narrow_counts, _Rows, solve

FD4 = FiniteDifference(order=4)
# 3 rows of the widest design below: every pass crosses many blocks, and a
# trajectory boundary falls inside one
FEW_ROWS = 3 * 23 * 8


def oscillator(T, t_max=10.0, phase=0.0, near_collinear=False):
    """Three smooth states; with ``near_collinear`` q1 repeats q0 up to a
    wiggle of 1e-3, so a library holding both factors by QR."""
    t = np.linspace(0.0, t_max, T)
    q0 = np.cos(t + phase)
    q1 = q0 + 1e-3 * np.sin(7.0 * t) if near_collinear else np.sin(1.3 * t + phase)
    q2 = 0.5 * np.cos(2.1 * t) + 0.2 * np.sin(0.7 * t + phase)
    return Dataset(grid=Grid(t), states=np.column_stack([q0, q1, q2]))


def travelling_wave(nx=32, nt=60):
    x = np.linspace(0.0, 2.0 * np.pi, nx, endpoint=False)
    t = np.linspace(0.0, 1.0, nt)
    u = np.sin(x[:, None] - t[None, :]) + 0.3 * np.cos(2.0 * (x[:, None] + 0.5 * t[None, :]))
    return Dataset(grid=Grid(t, (x,)), states=u[..., None])


@contextmanager
def block_bytes(nbytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "BLOCK_BYTES", nbytes)
        yield


@contextmanager
def factor_branches():
    """The factor branches taken: "factor" per factor, then "qr" after it
    where TSQR ran."""
    branches = []
    factor, tsqr = optimize._triangular_factor, optimize._tsqr

    def spy_factor(*args):
        branches.append("factor")
        return factor(*args)

    def spy_tsqr(blocks):
        branches.append("qr")
        return tsqr(blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "_triangular_factor", spy_factor)
        mp.setattr(optimize, "_tsqr", spy_tsqr)
        yield branches


def assert_fit_is_design_then_solve(data, library, diff, opt, ensemble=None,
                                    normalize_columns=False):
    model = fit(data, library, diff, opt, ensemble, normalize_columns=normalize_columns)
    problem = design(data, library, diff, normalize_columns=normalize_columns)
    if ensemble is None:
        expected = solve(problem, opt)
    else:
        report = fit_ensemble(problem, opt, ensemble)
        np.testing.assert_array_equal(model.ensemble.member_xi, report.member_xi)
        np.testing.assert_array_equal(model.ensemble.inclusion_probability,
                                      report.inclusion_probability)
        expected = report.coefficients
    np.testing.assert_array_equal(model.xi, expected.xi)
    np.testing.assert_array_equal(model.coefficients.residuals, expected.residuals)
    assert_identical(model.diagnostics, expected.diagnostics)
    return model, problem


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


def assert_score_and_predict_are_whole(model, data, problem):
    whole = problem.theta @ model.xi
    for metric in ("r2", "rmse"):
        assert score(model, data, metric) == _metric(whole, problem.targets, metric)
    if isinstance(data, Dataset):
        np.testing.assert_array_equal(predict(model, data).reshape(whole.shape), whole)


SOLVERS = [STLSQ(threshold=0.05, ridge=0.0), STLSQ(threshold=0.05), SR3(threshold=0.05),
           SSR(), FROLS(max_terms=4)]
SOLVER_IDS = ["stlsq", "stlsq-ridge", "sr3", "ssr", "frols"]


@pytest.mark.parametrize("nbytes", [optimize.BLOCK_BYTES, FEW_ROWS], ids=["default", "few-rows"])
class TestFitIsDesignThenSolve:
    @pytest.mark.parametrize("opt", SOLVERS, ids=SOLVER_IDS)
    def test_every_solver_on_trajectories(self, nbytes, opt):
        # 301 + 250 rows: at 3 rows a block, the boundary row 301 falls
        # inside a block
        data = TrajectoryCollection((oscillator(301), oscillator(250, 7.0, phase=0.4)))
        with block_bytes(nbytes):
            model, problem = assert_fit_is_design_then_solve(data, Polynomial(2), FD4, opt)
            assert_score_and_predict_are_whole(model, data, problem)

    @pytest.mark.parametrize("library", [
        PDE(2, ("x",), multiply_by=Polynomial(2, include_bias=False), diff=Spectral()),
        Fourier(2),
        Concat((Polynomial(1), Fourier(1, include_cos=False))),
    ], ids=["pde-multiply-by", "fourier", "concat"])
    def test_libraries(self, nbytes, library):
        data = travelling_wave() if isinstance(library, PDE) else oscillator(400)
        with block_bytes(nbytes):
            model, problem = assert_fit_is_design_then_solve(
                data, library, FD4, STLSQ(threshold=0.01, ridge=0.0))
            assert_score_and_predict_are_whole(model, data, problem)

    @pytest.mark.parametrize("opt", [STLSQ(threshold=0.05, ridge=0.0), SSR()],
                             ids=["stlsq", "ssr"])
    def test_normalize_columns(self, nbytes, opt):
        data = oscillator(500)
        with block_bytes(nbytes):
            model, problem = assert_fit_is_design_then_solve(
                data, Polynomial(3), FD4, opt, normalize_columns=True)
            assert_score_and_predict_are_whole(model, data, problem)

    @pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "subsample"])
    @pytest.mark.parametrize("opt", [STLSQ(threshold=0.05), SSR(), FROLS(max_terms=3)],
                             ids=["stlsq", "ssr", "frols"])
    def test_ensembles(self, nbytes, bootstrap, opt):
        data = TrajectoryCollection((oscillator(301), oscillator(250, 7.0, phase=0.4)))
        spec = EnsembleSpec(n_models=6, row_fraction=0.7, replace=bootstrap, n_library_drop=1,
                            seed=4)
        with block_bytes(nbytes):
            assert_fit_is_design_then_solve(data, Polynomial(2), FD4, opt, spec)

    def test_near_collinear_library_takes_qr(self, nbytes):
        data = oscillator(600, near_collinear=True)
        opt = STLSQ(threshold=0.05, ridge=0.0)
        with block_bytes(nbytes), factor_branches() as branches:
            model, problem = assert_fit_is_design_then_solve(data, Polynomial(2), FD4, opt)
            assert_score_and_predict_are_whole(model, data, problem)
        # the fit and the solve each factor once, by QR
        assert branches == ["factor", "qr"] * 2

    def test_near_collinear_ensemble_members_take_qr(self, nbytes):
        data = oscillator(600, near_collinear=True)
        spec = EnsembleSpec(n_models=4, seed=1)
        with block_bytes(nbytes), factor_branches() as branches:
            assert_fit_is_design_then_solve(data, Polynomial(2), FD4,
                                            STLSQ(threshold=0.05, ridge=0.0), spec)
        assert branches == ["factor", "qr"] * 8

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_columns_are_named(self, nbytes):
        # the first trajectory's targets overflow first (q2 jumps by 3e308
        # between neighbouring samples), while exp(q0) overflows only in the
        # second trajectory's last rows; the feature column is named, as
        # design's problem names it
        library = Concat((Polynomial(1), InputSubset(Custom((("exp", np.exp),)), (0,))))
        first = oscillator(200)
        states = first.states.copy()
        states[10, 2], states[11, 2] = 1.5e308, -1.5e308
        first = Dataset(grid=first.grid, states=states)
        second = oscillator(300)
        states = second.states.copy()
        states[250:, 0] = 1000.0
        data = TrajectoryCollection((first, Dataset(grid=second.grid, states=states)))
        message = "^non-finite values in feature columns \\['exp\\(q0\\)'\\]$"
        with block_bytes(nbytes):
            with pytest.raises(DataError, match=message):
                design(data, library, FD4)
            for run in (lambda: fit(data, library, FD4),
                        lambda: fit(data, library, FD4, ensemble=EnsembleSpec(n_models=3)),
                        lambda: score(fit(oscillator(200), library, FD4), data)):
                with pytest.raises(DataError, match=message):
                    run()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_targets(self, nbytes):
        data = oscillator(200)
        states = data.states.copy()
        states[100, 1], states[101, 1] = 1.5e308, -1.5e308
        data = Dataset(grid=data.grid, states=states)
        with block_bytes(nbytes):
            with pytest.raises(DataError, match="^non-finite values in targets$"):
                design(data, Polynomial(1), FD4)
            with pytest.raises(DataError, match="^non-finite values in targets$"):
                fit(data, Polynomial(1), FD4)


class TestNarrowCounts:
    def test_counts_are_held_in_the_narrowest_unsigned_type(self):
        assert _narrow_counts(np.array([0, 3, 255])).dtype == np.uint8
        assert _narrow_counts(np.array([0, 256])).dtype == np.uint16
        assert _narrow_counts(np.zeros(4, dtype=np.int64)).dtype == np.uint8

    @pytest.mark.parametrize("opt", SOLVERS, ids=SOLVER_IDS)
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_uint8_and_int64_counts_fit_the_same_bits(self, opt, weighted):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((300, 5))
        targets = theta @ rng.uniform(-1.0, 1.0, (5, 2)) + 0.01 * rng.standard_normal((300, 2))
        weights = rng.uniform(0.5, 2.0, 300) if weighted else None
        base = _Rows.of(Problem(theta=theta, targets=targets, sample_weights=weights))
        counts = np.bincount(rng.integers(0, 300, 300), minlength=300)
        wide = _fit_rows(replace(base, counts=counts), opt)
        narrow = _fit_rows(replace(base, counts=counts.astype(np.uint8)), opt)
        np.testing.assert_array_equal(narrow[0], wide[0])
        assert_identical(narrow[1], wide[1])

    def test_ensemble_members_and_holdouts_hold_narrow_counts(self, monkeypatch):
        seen = []
        fit_rows = optimize._fit_rows

        def spy(rows, spec, gram=None):
            seen.append(rows.counts.dtype)
            train, hold = rows.split()
            seen.extend([train.counts.dtype, hold.counts.dtype])
            return fit_rows(rows, spec, gram)

        monkeypatch.setattr(ensemble_module, "_fit_rows", spy)
        rng = np.random.default_rng(0)
        prob = Problem(theta=rng.standard_normal((400, 4)), targets=rng.standard_normal(400))
        fit_ensemble(prob, SSR(), EnsembleSpec(n_models=3, seed=0))
        assert seen == [np.uint8] * 9


# ---------------------------------------------------------------------------
# Memory: no fit, score or prediction holds an array the size of the design
# ---------------------------------------------------------------------------


def traced_peak(run):
    """Peak bytes traced while ``run()`` runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.fixture(scope="class")
    def tall(self):
        # 200 000 samples of 3 states: Polynomial(3) has 20 columns, so the
        # design [theta Y] is 200 000 x 23, 36.8 MB
        data = oscillator(200_000, t_max=200.0)
        model = fit(data, Polynomial(3), FD4, STLSQ(threshold=0.05))
        return data, model

    @pytest.mark.parametrize("run", ["stlsq", "ssr", "ensemble", "ssr-ensemble", "score",
                                     "predict"])
    def test_peak_below_half_the_design(self, tall, run):
        data, model = tall
        design_bytes = 200_000 * (20 + 3) * 8
        call = {
            "stlsq": lambda: fit(data, Polynomial(3), FD4, STLSQ(threshold=0.05)),
            "ssr": lambda: fit(data, Polynomial(3), FD4, SSR()),
            "ensemble": lambda: fit(data, Polynomial(3), FD4, STLSQ(threshold=0.05),
                                    EnsembleSpec(n_models=5)),
            # SSR members stream their own splits, one member at a time
            "ssr-ensemble": lambda: fit(data, Polynomial(3), FD4, SSR(),
                                        EnsembleSpec(n_models=3)),
            "score": lambda: score(model, data),
            "predict": lambda: predict(model, data),
        }[run]
        assert traced_peak(call) < design_bytes / 2

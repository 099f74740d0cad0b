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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sparsedyn.ensemble as ensemble_module
from sparsedyn import library as library_module
from sparsedyn import optimize
from sparsedyn.data import Dataset, Grid, TrajectoryCollection, split_train_test
from sparsedyn.diff import FiniteDifference, SavitzkyGolay, Spectral, _differentiate_orders, differentiate
from sparsedyn.ensemble import EnsembleSpec, fit_ensemble
from sparsedyn.errors import DataError, SpecError
from sparsedyn.library import (PDE, Concat, Custom, Fourier, GridPlan, InputSubset, Polynomial,
                               Tensor)
from sparsedyn.model import FittedModel, _Design, _metric, _sample_rows, design, fit, predict, score
from sparsedyn.optimize import (FROLS, SR3, SSR, STLSQ, Coefficients, Problem, _fit_rows,
                                _narrow_counts, _products, _Rows, solve)
from sparsedyn.systems import KS, BenchmarkSpec, canonical_library, generate
from test_diff import oracle_sg_along_last, per_order_spectral

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

    def test_near_collinear_library_takes_qr(self, factor_branches, nbytes):
        data = oscillator(600, near_collinear=True)
        opt = STLSQ(threshold=0.05, ridge=0.0)
        with block_bytes(nbytes), factor_branches() as branches:
            model, problem = assert_fit_is_design_then_solve(data, Polynomial(2), FD4, opt)
            assert_score_and_predict_are_whole(model, data, problem)
        # the fit and the solve each factor once, by QR
        assert branches == ["factor", "qr"] * 2

    def test_near_collinear_ensemble_members_take_qr(self, factor_branches, nbytes):
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


class TestDesignPasses:
    """Every pass fills each block of a streamed design once; row sets that
    share the rows (SSR's train split and all its rows, ensemble members)
    share a pass."""

    @pytest.mark.parametrize("opt, ensemble, passes", [
        # factor, residuals
        (STLSQ(threshold=0.05), None, 2),
        # the train split's and all rows' Grams, holdout residuals, residuals
        (SSR(), None, 3),
        # every member's Gram, the aggregate's residuals
        (STLSQ(threshold=0.05), EnsembleSpec(n_models=3, seed=0), 2),
        # every member's Gram, then each member's train split's Gram and
        # holdout residuals (2n), the aggregate's residuals
        (SSR(), EnsembleSpec(n_models=3, seed=0), 2 * 3 + 2),
        (SSR(), EnsembleSpec(n_models=4, n_library_drop=1, seed=1), 2 * 4 + 2),
    ], ids=["stlsq", "ssr", "stlsq-ensemble", "ssr-ensemble-3", "ssr-ensemble-4"])
    def test_blocks_filled_per_fit(self, filled_blocks, opt, ensemble, passes):
        data = oscillator(600)
        # 100 rows of the 13-wide design a block: 6 blocks
        with block_bytes(100 * 13 * 8), filled_blocks() as blocks:
            fit(data, Polynomial(2), FD4, opt, ensemble)
        partition = [(start, start + 100) for start in range(0, 600, 100)]
        assert [block.rows for block in blocks] == partition * passes

    @pytest.mark.parametrize("opt, passes_per_member", [(STLSQ(threshold=0.1, ridge=0.0), 0),
                                                        (SSR(), 2)], ids=["stlsq", "ssr"])
    def test_member_without_weighted_rows_reads_no_block(self, factor_branches, opt,
                                                          passes_per_member):
        # only rows 0-9 carry weight: a member that draws none of them has no
        # Gram from the shared pass and fails without a pass of its own (a
        # member that draws few takes TSQR, one more pass)
        rng = np.random.default_rng(1)
        theta = rng.standard_normal((200, 3))
        weights = np.zeros(200)
        weights[:10] = 1.0
        targets = theta @ [1.0, 0.0, -2.0] + 0.05 * rng.standard_normal(200)
        prob = Problem(theta=theta, targets=targets, sample_weights=weights)
        spec = EnsembleSpec(n_models=40, row_fraction=0.1, seed=0)
        passes = []
        stream = optimize._stream

        def spy(data, *args, **kwargs):
            passes.append(None)
            return stream(data, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp, factor_branches() as branches:
            mp.setattr(optimize, "_stream", spy)
            report = fit_ensemble(prob, opt, spec)
        assert 0 < report.n_failed < spec.n_models / 2
        fitted = spec.n_models - report.n_failed
        assert len(passes) == 1 + passes_per_member * fitted + branches.count("qr") + 1

    @pytest.mark.parametrize("opt, normalize", [
        (STLSQ(threshold=-1), False), (SSR(min_terms=0), False), (FROLS(err_tol=-1), False),
        ("stlsq", False),
        # the design has 10 library columns and 3 targets: 30 coefficients
        (SR3(constraints=(np.eye(1, 29), [1.0])), False),
        (SR3(constraints=(np.eye(1, 30), [1.0])), True),
        (SR3(constraints=(np.ones((2, 30)), [1.0, 2.0])), False),
    ], ids=["stlsq", "ssr", "frols", "not-a-spec", "sr3-columns", "sr3-normalized",
            "sr3-rank-deficient"])
    @pytest.mark.parametrize("ensemble", [None, EnsembleSpec(n_models=4, seed=0)],
                             ids=["plain", "ensemble"])
    def test_invalid_optimizer_fills_no_block(self, filled_blocks, opt, normalize, ensemble):
        # the error is solve's, raised before any block is filled
        data = oscillator(600)
        with pytest.raises(SpecError) as solved:
            solve(design(data, Polynomial(2), FD4, normalize_columns=normalize), opt)
        with filled_blocks() as blocks:
            with pytest.raises(SpecError) as fitted:
                fit(data, Polynomial(2), FD4, opt, ensemble, normalize_columns=normalize)
            assert str(fitted.value) == str(solved.value)
            if ensemble is not None:
                with pytest.raises(SpecError) as ensembled:
                    fit_ensemble(_Design(data, Polynomial(2), FD4).rows(normalize), opt, ensemble)
                assert str(ensembled.value) == str(solved.value)
        assert blocks == []

    def test_constraints_of_another_width_than_the_members_fill_no_block(self, filled_blocks):
        # members that drop one of the 10 library columns fit 27 coefficients
        data = oscillator(600)
        opt = SR3(constraints=(np.eye(1, 30), [1.0]))
        spec = EnsembleSpec(n_models=4, n_library_drop=1, seed=0)
        with filled_blocks() as blocks:
            with pytest.raises(SpecError, match=r"30 columns, expected p\*n = 27"):
                fit(data, Polynomial(2), FD4, opt, spec)
        assert blocks == []


    def test_ssr_draws_too_small_for_a_holdout_split_fill_no_block(self, filled_blocks):
        # each member draws round(0.001 * 600) = 1 row
        spec = EnsembleSpec(n_models=4, row_fraction=0.001, seed=0)
        with filled_blocks() as blocks:
            with pytest.raises(SpecError, match="^1 rows are too few for a holdout split$"):
                fit(oscillator(600), Polynomial(2), FD4, SSR(), spec)
        assert blocks == []

    def test_constraints_with_dropped_library_columns_fill_no_block(self, filled_blocks):
        # the matrix fits the 27 coefficients of a member that drops one of
        # the 10 library columns, but each member drops another
        opt = SR3(constraints=(np.eye(1, 27), [1.0]))
        spec = EnsembleSpec(n_models=4, n_library_drop=1, seed=0)
        with filled_blocks() as blocks:
            with pytest.raises(SpecError, match="^equality constraints require every library "
                                                "column in every fit; set n_library_drop to 0$"):
                fit(oscillator(600), Polynomial(2), FD4, opt, spec)
        assert blocks == []


NBYTES = st.sampled_from([1, 64, 500, 4096, optimize.BLOCK_BYTES])
MULTIPLE = st.sampled_from([1, optimize.PRODUCT_ROWS])


class TestStreamPartition:
    """``_stream`` cuts rows 0..m into blocks of the same whole multiple of
    ``multiple`` rows, the last one fewer than that and one more multiple;
    an array's blocks are views of it, and a design of the same rows is cut
    alike into blocks filled in the layout asked for."""

    @staticmethod
    def slices(data, multiple, order="F"):
        return [at for at, _ in optimize._stream(data, multiple, order)]

    @given(m=st.integers(1, 400), width=st.integers(1, 30), nbytes=NBYTES, multiple=MULTIPLE)
    @settings(max_examples=80)
    def test_blocks_cover_the_rows_once_in_whole_multiples(self, m, width, nbytes, multiple):
        array = np.zeros((m, width))
        with block_bytes(nbytes):
            blocks = list(optimize._stream(array, multiple))
        slices = [at for at, _ in blocks]
        assert slices[0].start == 0 and slices[-1].stop == m
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        counts = [at.stop - at.start for at in slices]
        assert min(counts) > 0
        if len(counts) > 1:
            step = counts[0]
            assert set(counts[:-1]) == {step} and step % multiple == 0
            assert counts[-1] < step + multiple
        for at, block in blocks:
            assert block.base is array and np.shares_memory(block, array[at])

    @given(m=st.integers(5, 400), degree=st.integers(1, 3), nbytes=NBYTES, multiple=MULTIPLE,
           order=st.sampled_from(["F", "C"]))
    @settings(max_examples=60)
    def test_a_design_is_cut_as_its_array_and_filled_in_the_layout_asked_for(
            self, m, degree, nbytes, multiple, order):
        source = _Design(oscillator(m), Polynomial(degree), FD4)
        array = source.fill(slice(None), "C")
        with block_bytes(nbytes):
            assert self.slices(source, multiple, order) == self.slices(array, multiple, order)
            for at, block in optimize._stream(source, multiple, order):
                assert block.flags.f_contiguous if order == "F" else block.flags.c_contiguous
                np.testing.assert_array_equal(block, array[at], strict=True)


class ColumnMajor:
    """The rows of an array, each block read into a new array of the layout
    asked for, as a model's design fills them (the Gram and TSQR passes ask
    for column-major blocks)."""

    def __init__(self, array):
        self.array, self.shape = array, array.shape

    def block(self, at, order):
        return np.array(self.array[at], order=order)


class TestColumnMajorBlocks:
    """A design fills column-major blocks for the Gram and TSQR passes, which
    read them as filled, and row-major blocks for the residual and product
    passes; ``design``'s one array is row-major."""

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 300),
        p=st.integers(1, 8),
        n=st.integers(1, 3),
        weighted=st.booleans(),
        counted=st.booleans(),
        n_dropped=st.integers(0, 2),
        nbytes=st.sampled_from([1, 64, 500, 4096, optimize.BLOCK_BYTES]),
    )
    @settings(max_examples=60)
    def test_grams_and_tsqr_do_not_see_the_block_layout(self, seed, m, p, n, weighted, counted,
                                                         n_dropped, nbytes):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((m, p + n)) * rng.uniform(0.1, 10.0, p + n)
        features = slice(0, p)
        if n_dropped:
            features = np.sort(rng.choice(p, p - min(n_dropped, p - 1), replace=False))
        rows = _Rows(data=data, n_features=p, normalize=False, names=tuple(map(str, range(p))),
                     features=features, targets=slice(p, None),
                     weights=rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.8) if weighted else None,
                     counts=_narrow_counts(rng.integers(0, 4, m)) if counted else None)
        column_major = replace(rows, data=ColumnMajor(data))
        with block_bytes(nbytes):
            gram, = optimize._grams([rows])
            assert_identical(optimize._grams([column_major])[0], gram)
            if gram is not None:
                # TSQR: every factor streams its rows once more
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(optimize, "_cholesky", lambda gram, n_features: None)
                    expected, got = rows._factor(gram), column_major._factor(gram)
                assert_identical((got.theta, got.targets), (expected.theta, expected.targets))

    def test_a_design_fills_column_major_blocks(self, filled_blocks, factor_branches):
        # 100 rows of the 13-wide design a block: 6 blocks a pass
        data = oscillator(600)

        def passes(blocks):
            return [{block.layout for block in blocks[i : i + 6]}
                    for i in range(0, len(blocks), 6)]

        with block_bytes(100 * 13 * 8), filled_blocks() as blocks:
            model = fit(data, Polynomial(2), FD4, SSR(), EnsembleSpec(n_models=3, seed=0))
        # the members' shared Gram pass; each member's pass for its train
        # split's and all rows' Grams, then its holdout residuals; the
        # aggregate's residuals
        assert passes(blocks) == [{"F"}] + [{"F"}, {"C"}] * 3 + [{"C"}]
        near = oscillator(600, near_collinear=True)
        with block_bytes(100 * 13 * 8), filled_blocks() as blocks, factor_branches() as branches:
            fit(near, Polynomial(2), FD4, STLSQ(threshold=0.05))
        # the Gram, TSQR and residual passes
        assert branches == ["factor", "qr"]
        assert passes(blocks) == [{"F"}, {"F"}, {"C"}]
        with block_bytes(100 * 13 * 8), filled_blocks() as blocks:
            score(model, data)
            predict(model, data)
        assert len(blocks) > 6 and {block.layout for block in blocks} == {"C"}
        with filled_blocks() as blocks:
            problem = design(data, Polynomial(2), FD4)
        assert blocks == [((None, None), "C")]
        assert problem.theta.base.flags.c_contiguous
        assert _Rows.of(problem).data is problem.theta.base


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
# Product passes fill only the columns their coefficients use
# ---------------------------------------------------------------------------


def assert_bits(a, b):
    """Equal shapes and equal bits, the signs of zeros included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def wave(seed, nx, nt, n, time_split):
    """``n`` smooth periodic fields on ``nx`` points and ``nt`` times; with
    ``time_split``, the first 60% of a longer run, whose states are read
    with the stride of the whole time axis, as a train split's are."""
    rng = np.random.default_rng(seed)
    total = nt * 5 // 3 + 1 if time_split else nt
    x = np.linspace(0.0, 2.0 * np.pi, nx, endpoint=False)
    t = np.linspace(0.0, 1.0 + 0.1 * seed, total)
    k, c, phase = rng.integers(1, 3, n), rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 6.0, n)
    u = np.stack([0.5 + np.sin(k[j] * x[:, None] - c[j] * t[None, :] + phase[j])
                  for j in range(n)], axis=-1)
    data = Dataset(grid=Grid(t, (x,)), states=u)
    return split_train_test(data, 0.6)[0] if time_split else data


FACTORS = [Polynomial(1, include_bias=False), Polynomial(2, include_bias=False), Fourier(1)]
LEAVES = st.one_of(
    st.builds(Polynomial, degree=st.integers(1, 3), include_bias=st.booleans(),
              include_interactions=st.booleans()),
    st.builds(Fourier, n_frequencies=st.integers(1, 2), include_cos=st.booleans()),
    st.just(Custom((("sin", np.sin), ("exp", np.exp)))),
    st.builds(PDE, derivative_order=st.integers(1, 3),
              multiply_by=st.one_of(st.none(), st.sampled_from(FACTORS)),
              diff=st.sampled_from([None, Spectral()])),
    st.builds(Tensor, left=st.sampled_from([Polynomial(1, include_bias=False), Fourier(1)]),
              right=st.sampled_from([Polynomial(1, include_bias=False), PDE(derivative_order=1)])),
    st.builds(InputSubset, inner=st.sampled_from([Polynomial(2, include_bias=False),
                                                  Fourier(1, include_sin=False)]),
              indices=st.just((0,))),
)
LIBRARIES = st.lists(LEAVES, min_size=1, max_size=3).map(
    lambda parts: parts[0] if len(parts) == 1 else Concat(tuple(parts)))


class TestColumnMasks:
    """A residual or product pass over a design fills only the library
    columns its coefficients use and the targets; the others stay zero, and
    every product and residual keeps the bits of the whole design's."""

    @given(
        library=LIBRARIES,
        seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3),
        nx=st.sampled_from([8, 12]),
        nt=st.integers(9, 16),
        n=st.integers(1, 2),
        time_split=st.booleans(),
        kind=st.sampled_from(["sparse", "dense", "zero"]),
        negative_zeros=st.booleans(),
        counted=st.booleans(),
        nbytes=st.sampled_from([200, 1000, 4096, optimize.BLOCK_BYTES]),
    )
    @settings(max_examples=150)
    def test_products_and_residuals_keep_the_bits_of_the_whole_design(
            self, filled_blocks, library, seeds, nx, nt, n, time_split, kind, negative_zeros,
            counted, nbytes):
        try:
            plan = GridPlan(library, n)
        except SpecError:  # names that repeat across parts
            assume(False)
        datasets = [wave(seed, nx, nt + i, n, time_split) for i, seed in enumerate(seeds)]
        data = datasets[0] if len(datasets) == 1 else TrajectoryCollection(tuple(datasets))
        diff, p = FiniteDifference(order=2), len(plan.names)
        rng = np.random.default_rng(seeds[0])
        xis = rng.standard_normal((3, p, n))
        if kind != "dense":
            zero = -0.0 if negative_zeros else 0.0
            xis[(rng.random(xis.shape) < 0.8) | (kind == "zero")] = zero
        problem = design(data, library, diff)
        whole = _Rows.of(problem)
        if counted:
            whole = replace(whole, counts=_narrow_counts(rng.integers(0, 3, whole.data.shape[0])))
        with block_bytes(nbytes), filled_blocks(keep=True) as blocks:
            source = _Design(data, library, diff)
            rows = replace(source.rows(False), counts=whole.counts)
            assert_bits(rows.residual_norms(xis), whole.residual_norms(xis))
            assert_bits(rows.residual_norms(xis[:1]), whole.residual_norms(xis[:1]))
            for xi in xis:
                for got, expected in zip(_products(source, p, xi), _products(whole.data, p, xi)):
                    assert_bits(got, expected)
                assert_bits(_products(source, p, xi)[0], problem.theta @ xi)
        masked = 0
        for (block, columns), filled in zip(blocks.kept, blocks):
            expected = whole.data[slice(*filled.rows)]
            if columns is None:
                assert_bits(block, expected)
                continue
            masked += 1
            assert not block[:, ~columns].view(np.uint64).any()
            assert_bits(block[:, columns], expected[:, columns])
        used = np.concatenate(((xis != 0.0).any(axis=(0, 2)), np.ones(n, dtype=bool)))
        assert masked or used.all()

    @given(
        library=LIBRARIES,
        seed=st.integers(0, 50),
        n=st.integers(1, 2),
        kind=st.sampled_from(["sparse", "dense", "zero"]),
        nbytes=st.sampled_from([200, 4096, optimize.BLOCK_BYTES]),
    )
    @settings(max_examples=60)
    def test_score_and_predict_read_only_the_support(self, library, seed, n, kind, nbytes):
        try:
            plan = GridPlan(library, n)
        except SpecError:
            assume(False)
        data, diff = wave(seed, 12, 14, n, seed % 2 == 1), FiniteDifference(order=2)
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((len(plan.names), n))
        if kind != "dense":
            xi[(rng.random(xi.shape) < 0.8) | (kind == "zero")] = 0.0
        coefficients = Coefficients(xi, plan.names, np.zeros(n))
        model = FittedModel(coefficients, library, diff, tuple(f"q{j}_t" for j in range(n)))
        problem = design(data, library, diff)
        pred, actual = _products(_Rows.of(problem).data, len(plan.names), xi)
        with block_bytes(nbytes):
            assert_bits(predict(model, data).reshape(pred.shape), pred)
            for metric in ("r2", "rmse"):
                if metric == "r2" and np.ptp(actual) == 0.0:
                    continue
                assert score(model, data, metric) == _metric(pred, actual, metric)

    def test_score_of_the_ks_truth_computes_no_third_derivative(self, monkeypatch):
        data, truth = generate(BenchmarkSpec(system=KS(n_grid=64, t_span=4.0), seed=0))
        library = canonical_library(KS())
        model = FittedModel(truth, library, SavitzkyGolay(window=5, poly_order=3), ("q0_t",))
        assert [name for name, used in zip(truth.names, truth.support[:, 0]) if used] == [
            "q0 q0_x", "q0_xx", "q0_xxxx"]
        requests, derivative_fields = [], library_module._derivative_fields

        def spy(dataset, axes, mus, method):
            requests.append(list(mus))
            return derivative_fields(dataset, axes, mus, method)

        monkeypatch.setattr(library_module, "_derivative_fields", spy)
        r2 = score(model, data)
        assert requests == [[(1,), (2,), (4,)]]
        predict(model, data)
        assert requests[1:] == [[(1,), (2,), (4,)]]
        # a fit's design computes every field
        fit(data, library, model.diff)
        assert requests[2:] == [[(1,), (2,), (3,), (4,)]]
        monkeypatch.undo()
        problem = design(data, library, model.diff)
        assert r2 == _metric(problem.theta @ truth.xi, problem.targets, "r2")

    def test_a_non_finite_column_no_product_reads(self):
        # log(q0) is -inf where q0 is 0 and nan where it is negative; the
        # model reads only q0
        t = np.linspace(0.0, 4.0, 200)
        data = Dataset(grid=Grid(t), states=np.sin(t)[:, None])
        library = Concat((Polynomial(1), Custom((("log", np.log),))))
        xi = np.array([[0.0], [0.5], [0.0]])
        names = GridPlan(library, 1).names
        model = FittedModel(Coefficients(xi, names, np.zeros(1)), library, FD4, ("q0_t",))
        with np.errstate(divide="ignore", invalid="ignore"):
            prediction = predict(model, data)
            np.testing.assert_array_equal(prediction[:, 0], 0.5 * np.sin(t))
            assert np.isfinite(score(model, data))
            with pytest.raises(DataError, match=r"\['log\(q0\)'\]"):
                fit(data, library, FD4)
            # a model that reads the column still refuses it
            model = replace(model, coefficients=replace(model.coefficients, xi=xi + 1.0))
            for call in (lambda: predict(model, data), lambda: score(model, data)):
                with pytest.raises(DataError, match=r"\['log\(q0\)'\]"):
                    call()


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
    def ks_split(self):
        # the default KS field, 1024 x 251, split in time at 0.6
        dataset, _ = generate(BenchmarkSpec(system=KS()))
        assert dataset.states.strides[0] == 8
        return split_train_test(dataset, 0.6)

    @pytest.fixture(scope="class")
    def tall(self):
        # 200 000 samples of 3 states: Polynomial(3) has 20 columns, so the
        # design [theta Y] is 200 000 x 23, 36.8 MB
        data = oscillator(200_000, t_max=200.0)
        model = fit(data, Polynomial(3), FD4, STLSQ(threshold=0.05))
        return data, model

    @pytest.fixture(scope="class")
    def field(self):
        # a 512 x 300 field in the KS library: four derivative fields and
        # their products with u and u^2 make 14 columns, so the design
        # [theta Y] is 153 600 x 15, 18.4 MB
        data = travelling_wave(nx=512, nt=300)
        model = fit(data, canonical_library(KS()), FD4, STLSQ(threshold=0.05))
        return data, model

    @pytest.mark.parametrize("run", ["stlsq", "ssr", "score", "predict"])
    def test_pde_peak_below_the_design(self, field, run):
        # derivative fields are held as narrow inputs and their products
        # filled a block at a time; the whole design peaks at about 27 MB
        data, model = field
        design_bytes = 512 * 300 * (14 + 1) * 8
        library = canonical_library(KS())
        call = {
            "stlsq": lambda: fit(data, library, FD4, STLSQ(threshold=0.05)),
            "ssr": lambda: fit(data, library, FD4, SSR()),
            "score": lambda: score(model, data),
            "predict": lambda: predict(model, data),
        }[run]
        assert traced_peak(call) < design_bytes

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
            # SSR members stream their own train splits, one member at a time
            "ssr-ensemble": lambda: fit(data, Polynomial(3), FD4, SSR(),
                                        EnsembleSpec(n_models=3)),
            "score": lambda: score(model, data),
            "predict": lambda: predict(model, data),
        }[run]
        assert traced_peak(call) < design_bytes / 2

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_a_product_pass_holds_two_blocks_of_a_design_and_one_of_a_problem(self, weighted):
        # 100 000 rows of the 13-wide Polynomial(2) design (9.9 MiB, ten
        # 1 MiB blocks): a product pass asks the design for row-major
        # blocks, and while one is filled the Polynomial fill's gathered
        # parent and input columns (6 of its 13 columns each) add most of a
        # block; a problem's rows are read in place, and a weighted pass
        # holds one gathered copy
        data = oscillator(100_000, t_max=100.0)
        source = _Design(data, Polynomial(2), FD4)
        weights = np.random.default_rng(0).uniform(0.5, 2.0, 100_000) if weighted else None
        xis = np.ones((1, 10, 3))
        block = optimize.BLOCK_BYTES
        assert block == 1 << 20
        rows = replace(source.rows(False), weights=weights)
        assert traced_peak(lambda: rows.residual_norms(xis)) < 2.5 * block
        outputs = 100_000 * (3 + 3) * 8  # the predictions and targets _products returns
        assert traced_peak(lambda: _products(source, source.p, xis[0])) - outputs < 2.5 * block
        rows = replace(_Rows.of(design(data, Polynomial(2), FD4)), weights=weights)
        assert traced_peak(lambda: rows.residual_norms(xis)) < (2 if weighted else 1) * block

    def test_derivative_fields_of_a_ks_layout_are_read_in_place(self, monkeypatch):
        # KS stores its field with x contiguous; each derivative field comes
        # back C-ordered all the same, so a design reads the rows of a block
        # inside one series as a view of it, and planning the fields holds
        # the four fields plus about one block of spectrum (copying each
        # field to its matrix peaked at 8 fields' worth; planning the input
        # matrix beside the fields and the whole spectrum at 6.2)
        wave = travelling_wave(nx=512, nt=300)
        ds = Dataset(grid=wave.grid, states=np.asfortranarray(wave.states[..., 0])[..., None])
        assert ds.states.strides[0] == 8
        made = []
        derivative_fields = library_module._derivative_fields

        def spy(*args):
            fields = derivative_fields(*args)
            made.extend(fields)
            return fields

        monkeypatch.setattr(library_module, "_derivative_fields", spy)
        plan = GridPlan(canonical_library(KS()), 1)
        (pde,) = plan.blocks
        fields = pde.fields(ds, FD4)
        assert len(fields) == len(made) == 4
        for field, made_field in zip(fields, made):
            assert field is made_field and field.flags.c_contiguous
            rows = _sample_rows([field.reshape(-1, 300, 1)], slice(310, 590))
            assert np.shares_memory(rows, field)
        field_bytes = 512 * 300 * 8
        block = optimize.BLOCK_BYTES
        assert traced_peak(lambda: pde.fields(ds, FD4)) < 4 * field_bytes + 1.5 * block

    def test_a_time_split_ks_fit_holds_its_inputs_and_one_block(self, ks_split):
        # the default KS field (x contiguous) split in time as ``sparsedyn
        # fit`` splits it, so the train states are a strided view: a fit
        # holds the four derivative fields and the targets, each one value a
        # row, and one block (a flattened copy of the states and a row-major
        # copy of each block beside it put the peak 3.2 blocks above the
        # inputs); a score also holds the predictions and targets it compares
        train, test = ks_split
        block = optimize.BLOCK_BYTES
        library, sg = canonical_library(KS()), SavitzkyGolay(window=5, poly_order=3)
        opt = STLSQ(threshold=0.1, ridge=0.05)
        inputs = 5 * train.n_samples * 8
        assert traced_peak(lambda: fit(train, library, sg, opt)) < inputs + 1.5 * block
        model = fit(train, library, sg, opt)
        inputs, outputs = 5 * test.n_samples * 8, 2 * test.n_samples * 8
        assert traced_peak(lambda: score(model, test)) < inputs + outputs + 1.5 * block

    def test_a_spectral_derivative_holds_its_outputs_and_about_one_block(self, ks_split):
        # the spectrum is taken a chunk of lines at a time (the whole
        # spectrum and one order's product of it are 2.5 blocks here); the
        # chunks' derivatives, and the Savitzky-Golay time derivative written
        # in place, equal the whole-array ones bit for bit
        train, _ = ks_split
        x, t = train.grid.spatial_axes[0], train.grid.time_axis
        orders = (1, 2, 3, 4)
        outputs = len(orders) * train.n_samples * 8
        call = lambda: _differentiate_orders(train.states, x, Spectral(), orders, 0)
        assert traced_peak(call) < outputs + 1.25 * optimize.BLOCK_BYTES
        moved = np.moveaxis(train.states, 0, -1)
        for d, field in zip(orders, call()):
            whole = np.moveaxis(per_order_spectral(moved, x, d, 0.0), -1, 0)
            np.testing.assert_array_equal(field, whole)
        moved = np.moveaxis(train.states, 1, -1)
        whole = np.moveaxis(oracle_sg_along_last(moved, t, 1, 5, 3), -1, 1)
        np.testing.assert_array_equal(
            differentiate(train.states, t, SavitzkyGolay(window=5, poly_order=3), axis=1), whole)

    def test_an_ssr_split_holds_no_int64_counts(self):
        # the split leaves no permutation, bincount or difference of m int64
        # rows alive beside the narrow counts it makes (keeping them peaked
        # at 24 bytes a row)
        m = 400_000
        rows = _Rows.of(Problem(theta=np.ones((m, 1)), targets=np.ones(m)))
        assert traced_peak(rows.split) < 12 * m
        counted = replace(rows, counts=_narrow_counts(np.full(m, 2)))
        train, hold = counted.split()
        assert train.counts.dtype == hold.counts.dtype == np.uint8
        np.testing.assert_array_equal(train.counts.astype(int) + hold.counts, 2)

    def test_ensemble_members_hold_only_their_narrow_counts(self, monkeypatch):
        # when the members' shared Gram pass starts, the ensemble holds each
        # member's one-byte counts, and no member's int64 bincount (8 bytes
        # a row) is left over from the draws
        m, n_models = 400_000, 4
        data = np.random.default_rng(0).standard_normal((m, 3))
        problem = Problem(theta=data[:, :2], targets=data[:, 2:])
        held_at_pass = []
        grams = ensemble_module._grams

        def spy(draws):
            held_at_pass.append(tracemalloc.get_traced_memory()[0])
            return grams(draws)

        monkeypatch.setattr(ensemble_module, "_grams", spy)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fit_ensemble(problem, STLSQ(threshold=0.01), EnsembleSpec(n_models=n_models, seed=0))
        finally:
            tracemalloc.stop()
        assert held_at_pass[0] - held < (n_models + 1) * m

    def test_ensemble_members_are_freed_before_the_aggregate_pass(self, monkeypatch):
        # when the aggregate's residual pass starts, no member's counts (one
        # byte a row each, 1.6 MB here) or Gram is held
        m, n_models = 400_000, 4
        data = np.random.default_rng(0).standard_normal((m, 3))
        problem = Problem(theta=data[:, :2], targets=data[:, 2:])
        held_at_pass = []
        finish = ensemble_module._finish

        def spy(*args):
            held_at_pass.append(tracemalloc.get_traced_memory()[0])
            return finish(*args)

        monkeypatch.setattr(ensemble_module, "_finish", spy)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fit_ensemble(problem, STLSQ(threshold=0.01), EnsembleSpec(n_models=n_models, seed=0))
        finally:
            tracemalloc.stop()
        assert held_at_pass[0] - held < m // 4

"""The regression factor and the residuals stream ``[theta Y]`` in row blocks.

Shrinking ``optimize.BLOCK_BYTES`` to a few rows moves answers only by
rounding and never changes the factor's branch; a row set of one block gives
the bits of the former gather-then-factor path; and a weighted, SSR or
ensemble fit of a tall problem holds no copy of its rows.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn import optimize
from sparsedyn.data import Dataset, Grid, TrajectoryCollection
from sparsedyn.diff import FiniteDifference, Spectral
from sparsedyn.ensemble import EnsembleSpec, derive_seed, fit_ensemble
from sparsedyn.errors import FitError
from sparsedyn.library import PDE, Polynomial, WeakPDE
from sparsedyn.model import fit, fit_implicit
from sparsedyn.optimize import (
    FROLS,
    SR3,
    SSR,
    STLSQ,
    Problem,
    _Factor,
    _Rows,
    solve,
    solve_path,
)
from sparsedyn.systems import BenchmarkSpec, Lorenz, generate
from test_stream_design import FD4, oscillator, travelling_wave

ALL_SPECS = [STLSQ(threshold=0.1, ridge=0.0), STLSQ(), SR3(threshold=0.1), SSR(), FROLS()]
ALL_IDS = ["stlsq", "stlsq-ridge", "sr3", "ssr", "frols"]


def random_problem(seed, m, p, n, weighted, normalize, collinear):
    """Noisy targets on a scaled Gaussian design; ``collinear`` makes the last
    column the first plus 1% noise, a pivot of about 1e-4, so the factor takes
    QR; weighted rows include some of weight 0."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.2, 5.0, p)
    theta = rng.standard_normal((m, p)) * scale
    if collinear:
        theta[:, -1] = theta[:, 0] + 0.01 * scale[0] * rng.standard_normal(m)
    xi = rng.uniform(-2.0, 2.0, (p, n)) * (rng.random((p, n)) < 0.6)
    targets = theta @ xi + 0.05 * rng.standard_normal((m, n))
    weights = rng.uniform(0.2, 3.0, m) * (rng.random(m) < 0.85) if weighted else None
    return Problem(theta=theta, targets=targets, sample_weights=weights,
                   normalize_columns=normalize)


def outputs(prob, how, spec, ensemble=None):
    """Every array a fit returns, as (kind, array) pairs."""
    if how == "path":
        return [(kind, array) for entry in solve_path(prob, spec)
                for kind, array in (("xi", entry.coefficients.xi),
                                    ("residual", entry.coefficients.residuals))]
    if how == "ensemble":
        report = fit_ensemble(prob, spec, ensemble)
        c = report.coefficients
        return [("xi", report.member_xi), ("xi", c.xi), ("residual", c.residuals)]
    c = solve(prob, spec)
    return [("xi", c.xi), ("residual", c.residuals)]


def assert_rounding_only(got, expected):
    for (kind, a), (_, b) in zip(got, expected, strict=True):
        if kind == "xi":
            np.testing.assert_array_equal(a != 0.0, b != 0.0)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10 * max(1.0, np.abs(b).max()))
        else:
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0.0)


FITS = [
    ("solve", STLSQ(threshold=0.1, ridge=0.0)),
    ("solve", STLSQ()),
    ("solve", SR3(threshold=0.1)),
    ("solve", SSR()),
    ("path", SSR()),
    ("solve", FROLS()),
    ("path", FROLS()),
    ("ensemble", STLSQ(threshold=0.1, ridge=0.0)),
    ("ensemble", SSR()),
]
FIT_IDS = ["stlsq", "stlsq-ridge", "sr3", "ssr", "ssr-path", "frols", "frols-path",
           "ensemble-stlsq", "ensemble-ssr"]


class TestManyBlocks:
    @pytest.mark.parametrize("fit", FITS, ids=FIT_IDS)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(40, 150),
        p=st.integers(3, 8),
        n=st.integers(1, 2),
        weighted=st.booleans(),
        normalize=st.booleans(),
        collinear=st.booleans(),
        replace=st.booleans(),
        n_library_drop=st.integers(0, 2),
        nbytes=st.sampled_from([1, 100, 300, 1000]),
    )
    @settings(max_examples=20)
    def test_blocks_move_answers_only_by_rounding(
        self, factor_branches, fit, seed, m, p, n, weighted, normalize, collinear, replace,
        n_library_drop, nbytes,
    ):
        how, spec = fit
        prob = random_problem(seed, m, p, n, weighted, normalize, collinear)
        ensemble = EnsembleSpec(n_models=6, row_fraction=0.8, replace=replace,
                                n_library_drop=min(n_library_drop, p - 1), seed=seed)
        one = optimize.BLOCK_BYTES
        assert m * (p + n) * 8 <= one  # the default holds every row set in one block
        with factor_branches() as one_branches:
            expected = outputs(prob, how, spec, ensemble)
        assert m * (p + n) * 8 > nbytes
        with factor_branches(nbytes) as many_branches:
            got = outputs(prob, how, spec, ensemble)
        assert many_branches == one_branches
        if collinear and how != "ensemble":
            assert "qr" in one_branches
        assert_rounding_only(got, expected)

    @pytest.mark.parametrize("opt", ALL_SPECS, ids=ALL_IDS)
    @pytest.mark.parametrize("nbytes", [1, 500])
    def test_implicit_candidates(self, factor_branches, opt, nbytes):
        # each candidate factors a subset of the library columns; on a noisy
        # circle 1, q0^2 and q1^2 are nearly dependent, so some take QR
        t = np.linspace(0.0, 6.0, 300)
        rng = np.random.default_rng(5)
        states = np.column_stack([np.cos(t), np.sin(t)])
        data = Dataset(grid=Grid(t), states=states + 1e-3 * rng.standard_normal(states.shape))
        args = (data, Polynomial(2), opt, ["q0", "q1", "q0^2", "q0 q1"])
        fd = FiniteDifference(order=4)
        with factor_branches() as one_branches:
            expected = {r.lhs_name: r.model.coefficients for r in fit_implicit(*args, diff=fd)}
        with factor_branches(nbytes) as many_branches:
            got = {r.lhs_name: r.model.coefficients for r in fit_implicit(*args, diff=fd)}
        assert many_branches == one_branches
        assert "qr" in one_branches
        for name, c in expected.items():
            assert_rounding_only([("xi", got[name].xi), ("residual", got[name].residuals)],
                                 [("xi", c.xi), ("residual", c.residuals)])

    @pytest.mark.parametrize("collinear", [False, True], ids=["cholesky", "qr"])
    def test_both_factor_branches(self, factor_branches, collinear):
        prob = random_problem(3, 120, 6, 2, True, False, collinear)
        with factor_branches() as one_branches:
            expected = outputs(prob, "solve", STLSQ(threshold=0.1, ridge=0.0))
        with factor_branches(64) as many_branches:
            got = outputs(prob, "solve", STLSQ(threshold=0.1, ridge=0.0))
        assert one_branches == many_branches == (
            ["factor", "qr"] if collinear else ["factor"]
        )
        assert_rounding_only(got, expected)


def design_fits():
    """Fits through a model's design, each as (name, run): a PDE library
    with spectral derivatives and ``multiply_by``; a weak Lorenz form, whose
    chunks of subdomains shrink with ``BLOCK_BYTES``; and a 5-member STLSQ
    ensemble on two trajectories."""
    lorenz, _ = generate(BenchmarkSpec(system=Lorenz(), noise_level=0.01, seed=1))
    weak = WeakPDE(Polynomial(2), n_subdomains=200, subdomain_size=(301,), seed=123)
    pde = PDE(2, ("x",), multiply_by=Polynomial(2, include_bias=False), diff=Spectral())
    pair = TrajectoryCollection((oscillator(301), oscillator(250, 7.0, phase=0.4)))
    return [
        ("pde", lambda: fit(travelling_wave(), pde, FD4, STLSQ(threshold=0.01, ridge=0.0))),
        ("weak", lambda: fit(lorenz, weak, FiniteDifference(), STLSQ(threshold=0.2))),
        ("ensemble", lambda: fit(pair, Polynomial(2), FD4, STLSQ(threshold=0.05),
                                 EnsembleSpec(n_models=5, seed=0))),
    ]


class TestManyBlocksOfADesign:
    """A fit through a model's design, whose blocks are filled as a pass
    reads them, moves only by rounding when ``BLOCK_BYTES`` shrinks, and
    takes the same factor branches."""

    @pytest.mark.parametrize("case", ["pde", "weak", "ensemble"])
    @pytest.mark.parametrize("nbytes", [500, 4096])
    def test_blocks_move_answers_only_by_rounding(self, factor_branches, filled_blocks, case,
                                                  nbytes):
        run = dict(design_fits())[case]
        with factor_branches() as one_branches:
            expected = run()
        with factor_branches(nbytes) as many_branches, filled_blocks() as blocks:
            got = run()
        assert many_branches == one_branches
        assert len({block.rows for block in blocks}) > 2
        arrays = [("xi", got.xi), ("residual", got.coefficients.residuals)]
        expected_arrays = [("xi", expected.xi), ("residual", expected.coefficients.residuals)]
        if expected.ensemble is not None:
            arrays.append(("xi", got.ensemble.member_xi))
            expected_arrays.append(("xi", expected.ensemble.member_xi))
        assert_rounding_only(arrays, expected_arrays)


# ---------------------------------------------------------------------------
# One block: the bits of the former path, which gathered every row of
# nonzero weight into one scaled copy, factored it and took residuals on it.
# ---------------------------------------------------------------------------


def former_weighted(rows, columns=None):
    weight = rows.weights
    if rows.counts is not None:
        # counts are held narrow (uint8 here), and the root of a uint8 array
        # is float16: the former path read them as float64, the int64
        # counts' values
        counts = rows.counts.astype(np.float64)
        weight = counts if weight is None else counts * weight
    if weight is None:
        gathered = rows.data if columns is None else np.take(rows.data, columns, axis=1)
        return gathered, None
    nz = np.flatnonzero(weight)
    if columns is None:
        return np.take(rows.data, nz, axis=0), weight[nz]
    return rows.data[np.ix_(nz, columns)], weight[nz]


def former_triangular_factor(rows, n_features):
    gram = rows.T @ rows
    try:
        R = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        pass
    else:
        pivots = np.diagonal(R)[:n_features] ** 2 / np.diagonal(gram)[:n_features]
        if pivots.min() >= optimize.CHOLESKY_MIN_PIVOT:
            return R
    return np.linalg.qr(rows, mode="r")


def former_factor(self):
    every = np.arange(self.data.shape[1])
    features = every[self.features]
    columns = np.concatenate((features, every[self.targets]))
    rows, weight = former_weighted(self, None if np.array_equal(columns, every) else columns)
    if weight is not None:
        rows *= np.sqrt(weight)[:, None]
    return _Factor(former_triangular_factor(rows, features.size), features,
                   self.n_features, self.normalize, self.names)


def former_residual_norms(self, xis):
    rows, weight = former_weighted(self)
    resid = rows[:, self.targets] - rows[:, self.features] @ xis[:, self.features]
    if weight is not None:
        resid *= np.sqrt(weight)[:, None]
    return np.linalg.norm(resid, axis=1)


@contextmanager
def former_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Rows, "factor", former_factor)
        # ensemble members factor a Gram summed in one shared pass
        mp.setattr(_Rows, "_factor", lambda self, gram: former_factor(self))
        mp.setattr(_Rows, "residual_norms", former_residual_norms)
        yield


def assert_same_bits(got, expected):
    for (_, a), (_, b) in zip(got, expected, strict=True):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


class TestOneBlockOracle:
    @pytest.mark.parametrize("opt", ALL_SPECS, ids=ALL_IDS)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(20, 400),
        p=st.integers(2, 10),
        n=st.integers(1, 3),
        weighted=st.booleans(),
        normalize=st.booleans(),
        collinear=st.booleans(),
        replace=st.booleans(),
        n_library_drop=st.integers(0, 2),
    )
    @settings(max_examples=25)
    def test_same_bits_as_the_gathered_rows(
        self, opt, seed, m, p, n, weighted, normalize, collinear, replace, n_library_drop
    ):
        # sample-weighted solves and count-weighted members (SSR splits too)
        prob = random_problem(seed, m, p, n, weighted, normalize, collinear)
        ensemble = EnsembleSpec(n_models=4, replace=replace,
                                n_library_drop=min(n_library_drop, p - 1), seed=seed)
        got = outputs(prob, "solve", opt) + outputs(prob, "ensemble", opt, ensemble)
        with former_path():
            expected = outputs(prob, "solve", opt) + outputs(prob, "ensemble", opt, ensemble)
        assert_same_bits(got, expected)


# ---------------------------------------------------------------------------
# Rows of weight 0 are no rows at all
# ---------------------------------------------------------------------------


class TestNoRowsOfWeight:
    @pytest.mark.parametrize("opt", ALL_SPECS, ids=ALL_IDS)
    def test_all_zero_sample_weights_are_a_fit_error(self, opt):
        prob = random_problem(0, 50, 4, 2, True, False, False)
        prob = Problem(theta=prob.theta, targets=prob.targets, sample_weights=np.zeros(50))
        with pytest.raises(FitError, match="every library column is zero"):
            solve(prob, opt)
        with pytest.raises(FitError, match="ensemble members failed"):
            fit_ensemble(prob, opt, EnsembleSpec(n_models=4, seed=0))

    @pytest.mark.parametrize("opt", [SSR(), FROLS()], ids=["ssr", "frols"])
    def test_all_zero_sample_weights_have_no_path(self, opt):
        prob = random_problem(0, 50, 4, 1, True, False, False)
        prob = Problem(theta=prob.theta, targets=prob.targets, sample_weights=np.zeros(50))
        with pytest.raises(FitError, match="every library column is zero"):
            solve_path(prob, opt)

    def test_member_drawing_only_weight_zero_rows_fails(self):
        # only rows 0-9 carry weight; exactly the members that draw none of
        # them fail, and the rest fit
        m, n_rows, spec = 200, 20, EnsembleSpec(n_models=40, row_fraction=0.1, seed=0)
        prob = random_problem(1, m, 3, 1, False, False, False)
        weights = np.zeros(m)
        weights[:10] = 1.0
        prob = Problem(theta=prob.theta, targets=prob.targets, sample_weights=weights)
        report = fit_ensemble(prob, STLSQ(threshold=0.1, ridge=0.0), spec)
        weightless = [
            i for i in range(spec.n_models)
            if not weights[np.random.default_rng(derive_seed(spec.seed, i))
                           .integers(0, m, size=n_rows)].any()
        ]
        assert weightless
        assert report.n_failed == len(weightless)
        assert [int(f.split(":")[0].split()[1]) for f in report.failures] == weightless
        assert all("every library column is zero" in f for f in report.failures)


# ---------------------------------------------------------------------------
# Memory: no fit holds a copy of the rows it reads
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
        # 250 000 rows of 15 library columns and one target, in the layout
        # of a model's design: theta and targets are column blocks of one
        # C-ordered array, which the fits read in place
        rng = np.random.default_rng(0)
        data = rng.standard_normal((250_000, 16))
        data[:, 15] = data[:, :15] @ rng.uniform(-1.0, 1.0, 15)
        data[:, 15] += 0.01 * rng.standard_normal(data.shape[0])
        weights = rng.uniform(0.5, 2.0, data.shape[0])
        return data, weights

    @pytest.mark.parametrize("fit", ["weighted", "ssr", "ensemble"])
    def test_peak_below_a_quarter_of_the_rows(self, tall, fit):
        data, weights = tall
        prob = Problem(theta=data[:, :15], targets=data[:, 15:],
                       sample_weights=weights if fit == "weighted" else None)
        assert _Rows.of(prob).data is data
        run = {
            "weighted": lambda: solve(prob, STLSQ()),
            "ssr": lambda: solve(prob, SSR()),
            "ensemble": lambda: fit_ensemble(prob, STLSQ(), EnsembleSpec(n_models=5)),
        }[fit]
        assert traced_peak(run) < data.nbytes / 4

    @pytest.mark.parametrize("stage", ["residual_norms", "factor"])
    def test_a_streamed_pass_holds_one_block(self, stage):
        # 120 000 weighted rows of 6 columns (5.5 MiB): each 1 MiB block is
        # gathered only after the one before it, with its root and residual,
        # is released; two blocks at once would peak above 2 MiB
        rng = np.random.default_rng(0)
        data = rng.standard_normal((120_000, 6))
        data[:, 5] = data[:, :5] @ rng.uniform(-1.0, 1.0, 5)
        data[:, 5] += 0.01 * rng.standard_normal(data.shape[0])
        weights = rng.uniform(0.5, 2.0, data.shape[0])
        rows = _Rows.of(Problem(theta=data[:, :5], targets=data[:, 5:], sample_weights=weights))
        run = {
            "residual_norms": lambda: rows.residual_norms(np.ones((1, 5, 1))),
            "factor": rows.factor,
        }[stage]
        assert optimize.BLOCK_BYTES == 1 << 20
        assert traced_peak(run) < 2 << 20

    def test_tsqr_holds_two_blocks(self, factor_branches):
        # 120 000 weighted rows of 6 columns (5.5 MiB) whose column 4 repeats
        # column 0 to 1e-9, so the pivot test refuses the Cholesky factor:
        # each gathered block is freed once stacked under R, and only the
        # stack and qr's copy of it are held (three blocks if the gathered
        # one stayed alive)
        rng = np.random.default_rng(0)
        data = rng.standard_normal((120_000, 6))
        data[:, 4] = data[:, 0] + 1e-9 * rng.standard_normal(data.shape[0])
        data[:, 5] = data[:, :5] @ rng.uniform(-1.0, 1.0, 5)
        weights = rng.uniform(0.5, 2.0, data.shape[0])
        rows = _Rows.of(Problem(theta=data[:, :5], targets=data[:, 5:], sample_weights=weights))
        assert optimize.BLOCK_BYTES == 1 << 20
        with factor_branches() as branches:
            peak = traced_peak(rows.factor)
        assert branches == ["factor", "qr"]
        assert peak < 2.5 * (1 << 20)

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsedyn
from sparsedyn.data import (
    Dataset,
    Grid,
    TrajectoryCollection,
    as_collection,
    split_train_test,
)
from sparsedyn.diff import FiniteDifference, SavitzkyGolay
from sparsedyn.errors import DataError, SpecError
from sparsedyn.integrate import integrate
from sparsedyn.library import (
    Concat,
    Custom,
    Fourier,
    InputSubset,
    PDE,
    Polynomial,
    Tensor,
    WeakPDE,
    evaluate_pointwise,
)
from sparsedyn.model import (
    BLOWUP_NORM,
    FittedModel,
    _metric,
    _predicted_and_actual,
    design,
    equations,
    fit,
    fit_implicit,
    predict,
    score,
    simulate,
)
from sparsedyn.optimize import FROLS, SR3, SSR, STLSQ, Coefficients, Problem, _Rows, solve
from sparsedyn.systems import BenchmarkSpec, Lorenz, generate

from equation_text import parse_equation

FD4 = FiniteDifference(order=4)
SRC = str(Path(sparsedyn.__file__).resolve().parents[1])


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, the oracle; a test that calls it skips where
    scipy is not installed."""
    return pytest.importorskip("scipy.integrate").solve_ivp(*args, **kwargs)


def rotation_dataset(T=2000, t_max=10.0, analytic_derivs=False):
    """dq0/dt = -q1, dq1/dt = q0 integrated by DOP853 at a tolerance of 1e-12
    (``integrate`` gives solve_ivp's bits, so these data need no scipy)."""
    t = np.linspace(0.0, t_max, T)
    states = integrate(lambda _, q: np.array([-q[1], q[0]]), t, [1.0, 0.0],
                       rtol=1e-12, atol=1e-12).y
    derivs = np.column_stack([-states[:, 1], states[:, 0]]) if analytic_derivs else None
    return Dataset(grid=Grid(t), states=states, derivatives=derivs)


def make_model(xi, names, targets, library=None):
    library = library or Polynomial(1)
    return FittedModel(
        coefficients=Coefficients(xi=xi, names=names, residuals=np.zeros(len(targets))),
        library=library,
        diff=FD4,
        target_names=targets,
    )


class TestFit:
    def test_linear_system_recovery(self):
        ds = rotation_dataset()
        m = fit(ds, Polynomial(1), diff=FD4, opt=STLSQ(threshold=0.05, ridge=0.0))
        names = m.feature_names
        xi = m.xi
        expected = np.zeros_like(xi)
        expected[names.index("q1"), 0] = -1.0
        expected[names.index("q0"), 1] = 1.0
        np.testing.assert_array_equal(m.coefficients.support, expected != 0.0)
        assert np.abs(xi - expected).max() < 1e-4

    def test_split_trajectories_match_full_fit_with_precomputed_derivs(self):
        ds = rotation_dataset(analytic_derivs=True)
        first, second = split_train_test(ds, 0.5)
        full = fit(ds, Polynomial(1), diff=FD4, opt=STLSQ(ridge=0.0))
        halves = fit(
            TrajectoryCollection((first, second)),
            Polynomial(1),
            diff=FD4,
            opt=STLSQ(ridge=0.0),
        )
        np.testing.assert_array_equal(full.xi, halves.xi)

    def test_trajectory_order_invariance(self):
        ds = rotation_dataset(analytic_derivs=True)
        first, second = split_train_test(ds, 0.5)
        ab = fit(TrajectoryCollection((first, second)), Polynomial(1), FD4, STLSQ())
        ba = fit(TrajectoryCollection((second, first)), Polynomial(1), FD4, STLSQ())
        np.testing.assert_allclose(ab.xi, ba.xi, atol=1e-10)

    def test_controls_join_library_inputs(self):
        # dq/dt = -q + 2 u with u = sin(t)
        t = np.linspace(0.0, 20.0, 4000)
        u = np.sin(t)

        def rhs(tt, q):
            return np.array([-q[0] + 2.0 * np.interp(tt, t, u)])

        states = integrate(rhs, t, [1.0], rtol=1e-10, atol=1e-12).y
        ds = Dataset(grid=Grid(t), states=states, controls=u[:, None])
        m = fit(ds, Polynomial(1), diff=FD4, opt=STLSQ(threshold=0.05, ridge=0.0))
        terms = dict(zip(m.feature_names, m.xi[:, 0]))
        assert abs(terms["q0"] + 1.0) < 1e-3
        assert abs(terms["u0"] - 2.0) < 1e-3


class TestPredictScore:
    def test_zero_model_predicts_zero(self):
        ds = rotation_dataset(T=50, t_max=1.0)
        m = make_model(np.zeros((3, 2)), ("1", "q0", "q1"), ("q0_t", "q1_t"))
        np.testing.assert_array_equal(predict(m, ds), np.zeros((50, 2)))

    def test_training_residual_consistency(self):
        ds = rotation_dataset()
        m = fit(ds, Polynomial(1), diff=FD4, opt=STLSQ(ridge=0.0))
        pred = predict(m, ds)
        derivs = np.asarray(
            [
                np.gradient(ds.states[:, j], ds.grid.time_axis)
                for j in range(2)
            ]
        ).T
        # the stored residual equals the one recomputed from predict exactly
        from sparsedyn.diff import differentiate_dataset

        targets = differentiate_dataset(ds, FD4, "t")
        recomputed = np.linalg.norm(targets - pred, axis=0)
        np.testing.assert_array_equal(recomputed, m.coefficients.residuals)

    def test_prediction_accuracy_on_training_data(self):
        ds = rotation_dataset()
        m = fit(ds, Polynomial(1), diff=FD4, opt=STLSQ(ridge=0.0))
        from sparsedyn.diff import differentiate_dataset

        targets = differentiate_dataset(ds, FD4, "t")
        rms = np.sqrt(np.mean((predict(m, ds) - targets) ** 2))
        assert rms < 1e-4

    def test_perfect_prediction_scores_one(self):
        ds = rotation_dataset(T=200, t_max=5.0, analytic_derivs=True)
        names = ("1", "q0", "q1")
        xi = np.zeros((3, 2))
        xi[names.index("q1"), 0] = -1.0
        xi[names.index("q0"), 1] = 1.0
        m = make_model(xi, names, ("q0_t", "q1_t"))
        assert score(m, ds, "r2") == pytest.approx(1.0, abs=1e-12)

    def test_zero_model_on_zero_mean_targets_scores_zero(self):
        t = np.linspace(0, 1, 100)
        derivs = np.concatenate([np.ones(50), -np.ones(50)])[:, None]
        ds = Dataset(grid=Grid(t), states=np.zeros((100, 1)), derivatives=derivs)
        m = make_model(np.zeros((2, 1)), ("1", "q0"), ("q0_t",))
        assert score(m, ds, "r2") == 0.0

    def test_rmse_of_constant_offset(self):
        t = np.linspace(0, 1, 100)
        ds = Dataset(
            grid=Grid(t),
            states=np.zeros((100, 1)),
            derivatives=np.zeros((100, 1)),
        )
        c = 0.75
        m = make_model(np.array([[c]]), ("1",), ("q0_t",), library=Polynomial(0))
        assert score(m, ds, "rmse") == pytest.approx(c, abs=1e-14)

    def test_constant_target_r2_is_error(self):
        t = np.linspace(0, 1, 50)
        ds = Dataset(
            grid=Grid(t), states=np.zeros((50, 1)), derivatives=np.ones((50, 1))
        )
        m = make_model(np.zeros((1, 1)), ("1",), ("q0_t",), library=Polynomial(0))
        with pytest.raises(DataError):
            score(m, ds, "r2")


class TestSimulate:
    def test_zero_rhs_is_constant(self):
        m = make_model(np.zeros((2, 1)), ("1", "q0"), ("q0_t",))
        res = simulate(m, [2.5], np.linspace(0, 3, 20))
        np.testing.assert_allclose(res.states, 2.5, atol=1e-9)
        assert not res.blew_up

    def test_exponential_growth(self):
        xi = np.array([[0.0], [1.0]])  # dq/dt = q
        m = make_model(xi, ("1", "q0"), ("q0_t",))
        res = simulate(m, [1.0], np.linspace(0, 1, 11))
        assert abs(res.states[-1, 0] - np.e) < 1e-6

    def test_monotone_sign_preservation(self):
        xi = np.array([[0.0], [1.0]])
        m = make_model(xi, ("1", "q0"), ("q0_t",))
        res = simulate(m, [0.5], np.linspace(0, 2, 50))
        assert np.all(res.states > 0)
        assert np.all(np.diff(res.states[:, 0]) > 0)

    def test_blow_up_truncates(self):
        # dq/dt = q^2 from q(0)=2 blows up at t=0.5
        names = ("1", "q0", "q0^2")
        xi = np.array([[0.0], [0.0], [1.0]])
        m = make_model(xi, names, ("q0_t",), library=Polynomial(2))
        res = simulate(m, [2.0], np.linspace(0, 1, 101))
        assert res.blew_up
        assert res.t[-1] < 1.0
        assert res.t.size == 50  # the output times up to t = 0.49

    def test_controls_interpolated(self):
        # dq/dt = u with u = t -> q(t) = q0 + t^2/2
        names = ("1", "q0", "u0")
        xi = np.array([[0.0], [0.0], [1.0]])
        m = make_model(xi, names, ("q0_t",))
        t = np.linspace(0, 2, 41)
        res = simulate(m, [0.0], t, controls=t[:, None])
        np.testing.assert_allclose(res.states[:, 0], t**2 / 2, atol=1e-7)

    def test_derivative_library_rejected(self):
        m = make_model(
            np.zeros((1, 1)), ("q0_x",), ("q0_t",), library=PDE(1, ("x",))
        )
        with pytest.raises(SpecError):
            simulate(m, [1.0], np.linspace(0, 1, 5))

    @pytest.mark.parametrize(
        "q0, t_eval, u0",
        [([1.0], [0.0, np.nan, 1.0], 0.0), ([np.nan], [0.0, 1.0], 0.0),
         ([1.0], [0.0, 1.0], np.nan)],
        ids=["nan-time", "nan-state", "nan-control"],
    )
    def test_non_finite_input_rejected(self, q0, t_eval, u0):
        m = make_model(np.zeros((3, 1)), ("1", "q0", "u0"), ("q0_t",))
        with pytest.raises(SpecError, match="finite"):
            simulate(m, q0, t_eval, controls=np.full((len(t_eval), 1), u0))

    def test_infinite_time_rejected(self):
        # in a fresh interpreter with a timeout: integrating a decaying
        # state towards an infinite end never returns
        probe = (
            "import numpy as np\n"
            "from sparsedyn import Coefficients, FiniteDifference, FittedModel, Polynomial\n"
            "from sparsedyn import SpecError, simulate\n"
            "xi = np.array([[0.0], [-1.0]])\n"
            "c = Coefficients(xi, ('1', 'q0'), np.zeros(1))\n"
            "m = FittedModel(c, Polynomial(1), FiniteDifference(), ('q0_t',))\n"
            "try:\n"
            "    simulate(m, [1.0], [0.0, 1.0, np.inf])\n"
            "except SpecError as exc:\n"
            "    print('SpecError:', exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        try:
            proc = subprocess.run([sys.executable, "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("simulate with an infinite t_eval entry did not return")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("SpecError:") and "finite" in proc.stdout

    def test_fitted_lorenz_short_horizon(self):
        # the discovered model's trajectory stays within 1e-2 RMS of the
        # generating system's over one time unit
        from sparsedyn.systems import BenchmarkSpec, Lorenz, canonical_library, generate

        system = Lorenz()
        dataset, _ = generate(BenchmarkSpec(system=system))
        model = fit(dataset, canonical_library(system), diff=FD4,
                    opt=STLSQ(ridge=0.0))
        t_eval = np.linspace(0.0, 1.0, 201)
        sim = simulate(model, system.initial_state, t_eval)
        ref = solve_ivp(
            lambda _, q: [
                system.sigma * (q[1] - q[0]),
                q[0] * (system.rho - q[2]) - q[1],
                q[0] * q[1] - system.beta * q[2],
            ],
            (0.0, 1.0),
            system.initial_state,
            t_eval=t_eval,
            method="RK45",
            rtol=1e-8,
            atol=1e-10,
        )
        rms = np.sqrt(np.mean((sim.states - ref.y.T) ** 2))
        assert rms <= 1e-2


def per_step_simulation(model, q0, t_eval, controls=None):
    """States integrated with the library evaluated afresh at every
    right-hand-side call, as ``simulate`` did before it planned the library."""
    def rhs(t, q):
        u = None
        if controls is not None:
            u = np.array([np.interp(t, t_eval, controls[:, j])
                          for j in range(controls.shape[1])])
        return evaluate_pointwise(model.library, q, u) @ model.xi

    def blow_up(t, q):
        return float(np.linalg.norm(q)) - BLOWUP_NORM

    blow_up.terminal = True
    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), np.asarray(q0, dtype=float),
                    method="DOP853", t_eval=t_eval, rtol=1e-8, atol=1e-10,
                    events=blow_up, dense_output=False)
    return sol.y.T, sol.nfev


def lorenz_model():
    """Lorenz equations over Polynomial(2), plus small dense terms."""
    _, truth = generate(BenchmarkSpec(system=Lorenz()))
    xi = truth.xi + 1e-3 * np.arange(30).reshape(10, 3) / 30
    return make_model(xi, truth.names, ("q0_t", "q1_t", "q2_t"), library=Polynomial(2))


class TestPlannedSimulate:
    def test_matches_per_step_evaluation(self):
        model = lorenz_model()
        t = np.linspace(0.0, 2.0, 401)
        res = simulate(model, [-8.0, 7.0, 27.0], t)
        expected, nfev = per_step_simulation(model, [-8.0, 7.0, 27.0], t)
        np.testing.assert_array_equal(res.states, expected)
        assert res.n_rhs_evals == nfev > t.size

    def test_matches_per_step_evaluation_with_controls(self):
        names = ("1", "q0", "u0", "u1", "sin(1 q0)", "cos(1 q0)", "sin(1 u0)",
                 "cos(1 u0)", "sin(1 u1)", "cos(1 u1)")
        library = Concat((Polynomial(1), Fourier(1)))
        xi = np.linspace(-0.5, 0.5, 10)[:, None]
        model = make_model(xi, names, ("q0_t",), library=library)
        t = np.linspace(0.0, 3.0, 61)
        controls = np.column_stack([np.sin(t), t**2])
        res = simulate(model, [0.3], t, controls=controls)
        expected, _ = per_step_simulation(model, [0.3], t, controls)
        np.testing.assert_array_equal(res.states, expected)

    def test_rhs_evals_count_library_evaluations(self):
        calls = []

        def identity(x):
            calls.append(1)
            return x

        library = Custom((("id", identity),))
        model = make_model(np.array([[-1.0]]), ("id(q0)",), ("q0_t",), library=library)
        res = simulate(model, [1.0], np.linspace(0.0, 1.0, 11))
        assert res.n_rhs_evals == len(calls) > 0

    def test_weak_ode_model_simulates_like_its_inner_library(self):
        dataset, _ = generate(BenchmarkSpec(system=Lorenz(t_span=5.0)))
        weak = fit(
            dataset,
            WeakPDE(inner=Polynomial(2), n_subdomains=100, subdomain_size=(101,)),
            diff=FD4,
            opt=STLSQ(threshold=0.2),
        )
        plain = FittedModel(
            coefficients=weak.coefficients,
            library=Polynomial(2),
            diff=weak.diff,
            target_names=weak.target_names,
        )
        t = dataset.grid.time_axis[:200]
        a = simulate(weak, dataset.states[0], t)
        b = simulate(plain, dataset.states[0], t)
        assert not a.blew_up and a.states.shape == (200, 3)
        np.testing.assert_array_equal(a.states, b.states)

    def test_weak_pde_model_rejected(self):
        library = WeakPDE(inner=PDE(1, ("x",)), subdomain_size=5)
        model = make_model(np.zeros((1, 1)), ("q0_x",), ("q0_t",), library=library)
        with pytest.raises(SpecError):
            simulate(model, [1.0], np.linspace(0, 1, 5))

    def test_names_must_match_library(self):
        model = make_model(np.zeros((2, 1)), ("1", "q1"), ("q0_t",))
        with pytest.raises(SpecError):
            simulate(model, [1.0], np.linspace(0, 1, 5))


class TestAssemble:
    def test_one_trajectory_collection_is_the_dataset(self):
        ds = rotation_dataset(T=200)
        library = Tensor(Polynomial(1), Polynomial(1))
        problem = design(TrajectoryCollection((ds,)), library, FD4)
        alone = design(ds, library, FD4)
        assert problem.feature_names == alone.feature_names
        np.testing.assert_array_equal(problem.theta, alone.theta)
        np.testing.assert_array_equal(problem.targets, alone.targets)
        assert problem.targets.shape == (200, 2)

    def test_trajectories_are_stacked(self):
        a, b = rotation_dataset(T=100), rotation_dataset(T=150, t_max=5.0)
        problem = design(TrajectoryCollection((a, b)), Polynomial(2), FD4)
        parts = [design(ds, Polynomial(2), FD4) for ds in (a, b)]
        np.testing.assert_array_equal(problem.theta, np.vstack([p.theta for p in parts]))
        np.testing.assert_array_equal(problem.targets, np.vstack([p.targets for p in parts]))
        assert problem.targets.shape == (250, 2)

    @pytest.mark.parametrize("targets", [True, False])
    def test_blocks_of_one_c_ordered_array(self, targets):
        a, b = rotation_dataset(T=100), rotation_dataset(T=150, t_max=5.0)
        problem = design([a, b], Polynomial(2), FD4, targets=targets)
        rows = problem.theta.base
        assert rows.flags.c_contiguous and problem.targets.base is rows
        assert rows.shape == (250, 6 + 2 * targets)
        np.testing.assert_array_equal(rows[:, :6], problem.theta)

    def test_solvers_read_the_design_in_place(self):
        problem = design(rotation_dataset(T=100), Polynomial(2), FD4)
        rows = problem.theta.base
        assert _Rows.of(problem).data is rows
        # any other layout is copied into one C-ordered [theta Y]
        for other in (
            Problem(theta=problem.theta.copy(), targets=problem.targets.copy()),
            Problem(theta=rows[:, :6], targets=rows[:, 7:]),
            Problem(theta=np.asfortranarray(rows)[:, :6], targets=problem.targets),
        ):
            other_rows = _Rows.of(other)
            assert other_rows.data is not rows and other_rows.data.flags.c_contiguous
            np.testing.assert_array_equal(other_rows.data[:, :6], problem.theta)

    def test_weak_targets_are_the_weak_lhs(self):
        ds = rotation_dataset(T=300)
        library = WeakPDE(inner=Polynomial(2), n_subdomains=12, subdomain_size=41, seed=2)
        problem = design([ds, ds], library, FD4)
        alone = design(ds, library, FD4)
        assert problem.targets.shape == (24, 2)
        np.testing.assert_array_equal(problem.theta, np.vstack([alone.theta, alone.theta]))
        np.testing.assert_array_equal(problem.targets, np.vstack([alone.targets, alone.targets]))

    def test_library_is_planned_once(self, monkeypatch):
        import sparsedyn.model as model_module

        plans = []

        class CountingPlan(model_module.GridPlan):
            def __init__(self, *args, **kwargs):
                plans.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(model_module, "GridPlan", CountingPlan)
        a, b = rotation_dataset(T=100), rotation_dataset(T=150, t_max=5.0)
        fit([a, b, a], Polynomial(2), FD4)
        assert len(plans) == 1


class TestFitIsDesignThenSolve:
    """``fit`` is ``solve`` on the problem ``design`` builds, bit for bit."""

    @pytest.mark.parametrize(
        "library, normalize_columns",
        [
            (Polynomial(2), False),
            (Polynomial(2), True),
            (WeakPDE(inner=Polynomial(2), n_subdomains=40, subdomain_size=101, seed=1), False),
        ],
        ids=["plain", "normalize-columns", "weak"],
    )
    def test_coefficients_are_equal(self, library, normalize_columns):
        ds, opt = rotation_dataset(T=500), STLSQ(threshold=0.05)
        model = fit(ds, library, FD4, opt, normalize_columns=normalize_columns)
        problem = design(ds, library, FD4, normalize_columns=normalize_columns)
        coefficients = solve(problem, opt)
        np.testing.assert_array_equal(model.xi, coefficients.xi)
        np.testing.assert_array_equal(model.coefficients.support, coefficients.support)
        assert model.feature_names == problem.feature_names
        assert model.coefficients.support.any()

    def test_package_exports_design(self):
        assert sparsedyn.design is design
        assert {"FeatureMatrix", "evaluate"}.isdisjoint(sparsedyn.__all__)


class TestScoreData:
    """``score`` takes whatever ``fit`` takes, and refuses data whose
    library columns are not the model's."""

    def test_list_of_one_equals_the_dataset(self):
        ds = rotation_dataset(T=300)
        model = fit(ds, Polynomial(2), FD4, STLSQ(threshold=0.05))
        assert score(model, [ds]) == score(model, ds)
        assert score(model, TrajectoryCollection((ds,)), "rmse") == score(model, ds, "rmse")

    def test_trajectories_pool_their_rows(self):
        a, b = rotation_dataset(T=300), rotation_dataset(T=200, t_max=3.0)
        model = fit(a, Polynomial(2), FD4, STLSQ(threshold=0.05))
        parts = [_predicted_and_actual(model, ds) for ds in (a, b)]
        pred, actual = (np.vstack(blocks) for blocks in zip(*parts))
        for metric in ("r2", "rmse"):
            assert score(model, [a, b], metric) == _metric(pred, actual, metric)

    def test_state_count_mismatch(self):
        model = fit(rotation_dataset(T=300), Polynomial(2), FD4)
        t = np.linspace(0.0, 5.0, 100)
        one_state = Dataset(grid=Grid(t), states=np.sin(t)[:, None])
        with pytest.raises(SpecError, match="columns"):
            score(model, one_state)
        with pytest.raises(SpecError, match="columns"):
            predict(model, one_state)

    def test_controls_mismatch(self):
        t = np.linspace(0.0, 5.0, 200)
        plain = Dataset(grid=Grid(t), states=np.sin(t)[:, None])
        forced = Dataset(grid=Grid(t), states=np.sin(t)[:, None], controls=np.cos(t)[:, None])
        with_controls = fit(forced, Polynomial(1), FD4)
        without = fit(plain, Polynomial(1), FD4)
        for model, data in ((with_controls, plain), (without, forced)):
            with pytest.raises(SpecError, match="columns"):
                score(model, data)
            with pytest.raises(SpecError, match="columns"):
                predict(model, data)

    def test_target_count_mismatch(self):
        # an input subset leaves the columns alone but not the targets
        library = InputSubset(Polynomial(1), (0,))
        t = np.linspace(0.0, 5.0, 200)
        model = fit(Dataset(grid=Grid(t), states=np.sin(t)[:, None]), library, FD4)
        two = Dataset(grid=Grid(t), states=np.column_stack([np.sin(t), np.cos(t)]))
        with pytest.raises(SpecError, match="2 states"):
            score(model, two)


class TestImplicit:
    def test_disguised_explicit_system(self):
        ds = rotation_dataset(analytic_derivs=True)
        library = Concat((PDE(1, ("t",)), Polynomial(2)))
        results = fit_implicit(
            ds,
            library,
            STLSQ(threshold=0.05, ridge=0.0),
            candidate_lhs=["q0_t", "q1_t"],
            diff=FD4,
        )
        best = results[0]
        assert best.lhs_name in ("q0_t", "q1_t")
        assert best.residual <= 1e-6
        # the winning regression recovers the rotation row
        terms = dict(
            zip(best.model.feature_names, best.model.xi[:, 0])
        )
        partner = "q1" if best.lhs_name == "q0_t" else "q0"
        assert abs(abs(terms[partner]) - 1.0) < 1e-3

    def test_duplicated_column_is_excluded_and_flagged(self):
        # q1 == 2 q0 makes the columns q0 and q1 proportional but distinct;
        # an exact duplicate arises from tensoring with the bias column
        t = np.linspace(0, 5, 400)
        states = np.column_stack([np.sin(t), np.cos(t)])
        ds = Dataset(grid=Grid(t), states=states)
        from sparsedyn.library import Tensor

        library = Concat((Polynomial(1), Tensor(Polynomial(0), Polynomial(1, include_bias=False))))
        results = fit_implicit(
            ds, library, STLSQ(threshold=0.0, ridge=0.0), candidate_lhs=["q0"]
        )
        res = results[0]
        # "1 q0" duplicates the candidate "q0" exactly and must not be used
        i = res.model.feature_names.index("1 q0")
        assert res.model.xi[i, 0] == 0.0

    def test_candidate_model_carries_its_diagnostics(self):
        ds = rotation_dataset(analytic_derivs=True)
        library = Concat((PDE(1, ("t",)), Polynomial(2)))
        for cand in fit_implicit(ds, library, STLSQ(threshold=0.05), ["q0_t", "q1_t"], diff=FD4):
            assert "converged" in cand.model.diagnostics
            assert "cond_estimate" in cand.model.diagnostics
            assert cand.model.diagnostics == cand.model.coefficients.diagnostics

    def test_degenerate_flag_on_zero_residual(self):
        t = np.linspace(0, 5, 200)
        ds = Dataset(grid=Grid(t), states=np.column_stack([np.sin(t), 2 * np.sin(t)]))
        results = fit_implicit(
            ds,
            Polynomial(1),
            STLSQ(threshold=0.0, ridge=0.0),
            candidate_lhs=["q0"],
        )
        assert results[0].degenerate  # q1 = 2 q0 explains q0 exactly

    def test_unknown_candidate(self):
        ds = rotation_dataset(T=50, t_max=1.0)
        with pytest.raises(SpecError):
            fit_implicit(ds, Polynomial(1), STLSQ(), candidate_lhs=["nope"])

    def test_ranking_invariant_to_rescaling_non_candidate_columns(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0, 5, 300)
        states = np.column_stack([np.sin(t), np.cos(t), np.sin(2 * t)])
        ds = Dataset(grid=Grid(t), states=states)

        def ranking(scale):
            scaled = Dataset(grid=ds.grid, states=ds.states * scale)
            res = fit_implicit(
                scaled,
                Polynomial(1, include_bias=False),
                STLSQ(threshold=0.0, ridge=0.0),
                candidate_lhs=["q0"],
            )
            return [r.lhs_name for r in res], res[0].residual

        base_rank, base_res = ranking(np.array([1.0, 1.0, 1.0]))
        scaled_rank, scaled_res = ranking(np.array([1.0, 7.0, 0.2]))
        assert base_rank == scaled_rank
        assert scaled_res == pytest.approx(base_res, rel=1e-8)


def oracle_fit_implicit(data, library, opt, candidate_lhs, diff=FiniteDifference()):
    """Implicit candidates as separate problems: each candidate's regression
    copies the library without the candidate and its duplicates, solves it
    and re-embeds the coefficients at full library width."""
    parts = [design(ds, library, diff, targets=False) for ds in as_collection(data)]
    theta, names = np.vstack([p.theta for p in parts]), parts[0].feature_names
    results = []
    for cand in candidate_lhs:
        j = names.index(cand)
        target = theta[:, j]
        exclude = [
            i
            for i in range(theta.shape[1])
            if i == j or np.array_equal(theta[:, i], target)
        ]
        keep = [i for i in range(theta.shape[1]) if i not in exclude]
        sub = Problem(
            theta=theta[:, keep],
            targets=target,
            feature_names=tuple(names[i] for i in keep),
        )
        coeffs = solve(sub, opt)
        norm = float(np.linalg.norm(target))
        residual = float(coeffs.residuals[0]) / norm if norm > 0 else 0.0
        xi = np.zeros((len(names), 1))
        xi[keep, 0] = coeffs.xi[:, 0]
        results.append((cand, xi, residual, coeffs.diagnostics))
    results.sort(key=lambda r: r[2])
    return results


def implicit_cases():
    """(dataset, library, candidates): a derivative library on noisy
    rotation data, and a library with an exact duplicate column ("1 q0"),
    proportional columns (q2 = 2 q0) and zero columns (q3 and "1 q3")."""
    rot = rotation_dataset(T=600, t_max=6.0)
    noisy = Dataset(
        grid=rot.grid,
        states=rot.states
        + 1e-3 * np.random.default_rng(2).standard_normal(rot.states.shape),
    )
    derivative_library = Concat((PDE(1, ("t",)), Polynomial(2)))
    t = np.linspace(0, 5, 400)
    wave = np.sin(t) + 0.3 * np.sin(3 * t)
    states = np.column_stack([wave, np.cos(t), 2 * wave, np.zeros_like(t)])
    degenerate = Dataset(grid=Grid(t), states=states)
    degenerate_library = Concat(
        (Polynomial(2), Tensor(Polynomial(0), Polynomial(1, include_bias=False)))
    )
    return [
        (noisy, derivative_library, ["q0_t"]),
        (noisy, derivative_library, ["q1_t", "q0_t"]),
        (noisy, derivative_library, ["q0_t", "q1_t", "q0 q1"]),
        (degenerate, degenerate_library, ["q0"]),
        (degenerate, degenerate_library, ["q1", "q0 q1"]),
        (degenerate, degenerate_library, ["q0", "q1", "q0^2"]),
    ]


IMPLICIT_SPECS = [
    STLSQ(threshold=0.05, ridge=0.0),
    STLSQ(),
    SR3(threshold=0.05),
    SSR(),
    FROLS(),
]


class TestImplicitOracle:
    @pytest.mark.parametrize(
        "opt", IMPLICIT_SPECS, ids=["stlsq", "stlsq-ridge", "sr3", "ssr", "frols"]
    )
    @pytest.mark.parametrize("case", range(6))
    def test_matches_per_candidate_problems(self, opt, case):
        data, library, candidates = implicit_cases()[case]
        results = fit_implicit(data, library, opt, candidates, diff=FD4)
        expected = oracle_fit_implicit(data, library, opt, candidates, diff=FD4)
        assert [r.lhs_name for r in results] == [e[0] for e in expected]
        for r, (_, xi, residual, diagnostics) in zip(results, expected):
            np.testing.assert_array_equal(r.model.xi, xi)
            np.testing.assert_array_equal(r.model.coefficients.support, xi != 0.0)
            assert r.model.feature_names == r.model.coefficients.names
            # residuals are normalized by the candidate's norm
            assert abs(r.residual - residual) <= 1e-12
            assert r.model.coefficients.diagnostics.get("dropped_columns") == (
                diagnostics.get("dropped_columns")
            )


class TestEquations:
    def test_zero_row(self):
        m = make_model(np.zeros((2, 1)), ("1", "q0"), ("q0_t",))
        assert equations(m) == ["q0_t = 0"]

    def test_precision_rounding(self):
        xi = np.array([[0.987], [0.0]])
        m = make_model(xi, ("q0", "q1"), ("q0_t",))
        assert equations(m, precision=2) == ["q0_t = 0.99 q0"]

    def test_terms_ordered_by_column(self):
        names = ("a", "b c", "d")
        xi = np.array([[1.5], [-2.0], [0.25]])
        m = make_model(xi, names, ("q0_t",))
        assert equations(m, precision=3) == ["q0_t = 1.5 a + -2.0 b c + 0.25 d"]

    def test_round_trip(self):
        names = ("q0", "q0 q0_x", "q0_xx")
        xi = np.array([[0.0], [-0.98], [-1.0]])
        m = make_model(xi, names, ("q0_t",))
        line = equations(m, precision=2)[0]
        target, terms = parse_equation(line)
        assert target == "q0_t"
        assert terms == {"q0 q0_x": -0.98, "q0_xx": -1.0}

    def test_empty_target_round_trips(self):
        m = make_model(np.array([[0.0, 1.5], [0.0, 0.0]]), ("q0", "q1"), ("q0_t", "q1_t"))
        lines = equations(m)
        assert lines == ["q0_t = 0", "q1_t = 1.5 q0"]
        assert parse_equation(lines[0]) == ("q0_t", {})
        assert parse_equation(lines[1]) == ("q1_t", {"q0": 1.5})


# ---------------------------------------------------------------------------
# Metamorphic: reordering the parts of a Concat permutes the coefficients
# ---------------------------------------------------------------------------

# parts whose column names are disjoint, so that any of them concatenate
CONCAT_PARTS = (
    Polynomial(1),
    Fourier(1),
    Custom((("tanh", np.tanh),)),
    Tensor(Polynomial(1, include_bias=False), Fourier(1, include_cos=False)),
    InputSubset(Custom((("cube", np.cbrt), ("square", np.square))), (1,)),
)


@st.composite
def planted_concats(draw):
    """A Concat of 2-4 parts, another order of the same parts, and planted
    data: random states and, as their precomputed time derivatives, the
    library times a sparse coefficient matrix (entries 0.5-2 in magnitude, and
    at least one for each target) plus optional noise."""
    parts = draw(st.lists(st.sampled_from(CONCAT_PARTS), min_size=2, max_size=4, unique=True))
    order = draw(st.permutations(range(len(parts))))
    seed, noise = draw(st.integers(0, 10_000)), draw(st.sampled_from([0.0, 1e-3]))
    rng = np.random.default_rng(seed)
    states = rng.uniform(-2.0, 2.0, (200, 2))
    library = Concat(tuple(parts))
    theta = design(Dataset(grid=Grid(np.arange(200.0)), states=states), library,
                   targets=False).theta
    xi = rng.uniform(0.5, 2.0, (theta.shape[1], 2)) * rng.choice([-1.0, 1.0], (theta.shape[1], 2))
    planted = rng.random(xi.shape) < 0.3
    planted[rng.integers(0, xi.shape[0], 2), [0, 1]] = True  # every target has a term
    xi *= planted
    derivs = theta @ xi + noise * rng.standard_normal((200, 2))
    data = Dataset(grid=Grid(np.arange(200.0)), states=states, derivatives=derivs)
    return data, library, Concat(tuple(parts[i] for i in order))


class TestConcatOrder:
    @pytest.mark.parametrize("opt", [
        STLSQ(threshold=0.2, ridge=0.0), STLSQ(threshold=0.2),
        # on exact targets FROLS may select a term off the planted support
        # whose refit coefficient is of rounding size, 0.0 in one column
        # order and 1e-16 in another (about 1 draw in 700; none of these)
        pytest.param(FROLS(max_terms=6), marks=pytest.mark.xfail(
            strict=False, reason="FROLS keeps terms whose refit coefficient is rounding")),
        # on exact targets every path entry that holds the planted support
        # has a holdout residual of rounding size, so the relative tie rule
        # picks among them by rounding, which the column order moves
        pytest.param(SSR(), marks=pytest.mark.xfail(
            strict=True, reason="SSR's holdout tie rule has no absolute floor")),
    ], ids=["stlsq", "stlsq-ridge", "frols", "ssr"])
    @given(case=planted_concats())
    @settings(max_examples=25)
    def test_reordering_parts_permutes_the_coefficients(self, opt, case):
        data, library, reordered = case
        a, b = fit(data, library, FD4, opt), fit(data, reordered, FD4, opt)
        assert sorted(a.feature_names) == sorted(b.feature_names)
        xi_b = b.xi[[b.feature_names.index(name) for name in a.feature_names]]
        np.testing.assert_array_equal(xi_b != 0.0, a.xi != 0.0)
        tol = 1e-10 * max(1.0, np.abs(a.xi).max())
        np.testing.assert_allclose(xi_b, a.xi, rtol=0.0, atol=tol)


@st.composite
def planted_trajectories(draw):
    """2-4 trajectories of random states of their own lengths, each with the
    ``Polynomial(2)`` library times one sparse coefficient matrix (entries
    0.5-2 in magnitude, at least one for each target) plus optional noise as
    its precomputed time derivatives, and an order of the trajectories."""
    k = draw(st.integers(2, 4))
    seed, noise = draw(st.integers(0, 10_000)), draw(st.sampled_from([0.0, 1e-3]))
    order = draw(st.permutations(range(k)))
    rng = np.random.default_rng(seed)
    p = 6  # 1, q0, q1, q0^2, q0 q1, q1^2
    xi = rng.uniform(0.5, 2.0, (p, 2)) * rng.choice([-1.0, 1.0], (p, 2))
    planted = rng.random(xi.shape) < 0.3
    planted[rng.integers(0, p, 2), [0, 1]] = True  # every target has a term
    xi *= planted
    trajectories = []
    for length in rng.integers(30, 120, k):
        states = rng.uniform(-2.0, 2.0, (length, 2))
        grid = Grid(np.arange(float(length)))
        theta = design(Dataset(grid=grid, states=states), Polynomial(2), targets=False).theta
        derivs = theta @ xi + noise * rng.standard_normal((length, 2))
        trajectories.append(Dataset(grid=grid, states=states, derivatives=derivs))
    return trajectories, order


def lorenz_trajectories():
    """Three 1%-noise Lorenz trajectories from different initial states."""
    return [generate(BenchmarkSpec(system=Lorenz(initial_state=state, t_span=3.0),
                                   noise_level=0.01, seed=i))[0]
            for i, state in enumerate([(-8.0, 8.0, 27.0), (1.0, 1.0, 1.0), (5.0, -3.0, 20.0)])]


TRAJECTORY_SOLVERS = [STLSQ(threshold=0.2, ridge=0.0), STLSQ(threshold=0.2), SR3(threshold=0.2),
                      FROLS()]
TRAJECTORY_SOLVER_IDS = ["stlsq", "stlsq-ridge", "sr3", "frols"]


def assert_same_model(a, b):
    """Identical supports, and coefficients within 1e-10 of the largest."""
    np.testing.assert_array_equal(b.xi != 0.0, a.xi != 0.0)
    tol = 1e-10 * max(1.0, np.abs(a.xi).max())
    np.testing.assert_allclose(b.xi, a.xi, rtol=0.0, atol=tol)


class TestTrajectoryOrder:
    """Permuting the trajectories of a collection permutes the design's rows
    by whole trajectories, so every support is the same and the coefficients
    move by rounding only.  SSR's holdout split and an ensemble's draws take
    rows by position, so they pick other rows: neither is stated here."""

    @pytest.mark.parametrize("opt", TRAJECTORY_SOLVERS, ids=TRAJECTORY_SOLVER_IDS)
    @given(case=planted_trajectories())
    @settings(max_examples=25)
    def test_planted_trajectories(self, opt, case):
        trajectories, order = case
        a = fit(TrajectoryCollection(tuple(trajectories)), Polynomial(2), FD4, opt)
        b = fit(TrajectoryCollection(tuple(trajectories[i] for i in order)), Polynomial(2), FD4,
                opt)
        assert_same_model(a, b)

    @pytest.mark.parametrize("opt", TRAJECTORY_SOLVERS, ids=TRAJECTORY_SOLVER_IDS)
    def test_lorenz_trajectories(self, opt):
        trajectories, diff = lorenz_trajectories(), SavitzkyGolay(window=21, poly_order=3)
        a = fit(TrajectoryCollection(tuple(trajectories)), Polynomial(2), diff, opt)
        for order in [(2, 1, 0), (1, 2, 0)]:
            b = fit(TrajectoryCollection(tuple(trajectories[i] for i in order)), Polynomial(2),
                    diff, opt)
            assert_same_model(a, b)

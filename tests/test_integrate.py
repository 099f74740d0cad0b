"""``sparsedyn.integrate`` against ``scipy.integrate.solve_ivp``, its oracle:
the same output times, states bit for bit, and the same evaluation count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn.diff import SavitzkyGolay
from sparsedyn.errors import FitError, SpecError
from sparsedyn.integrate import TOO_SMALL_STEP, integrate
from sparsedyn.library import Custom, GridPlan, Polynomial
from sparsedyn.model import FittedModel, fit, simulate
from sparsedyn.optimize import STLSQ, Coefficients
from sparsedyn.systems import BenchmarkSpec, Lorenz, generate

METHODS = ["DOP853"]


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, the oracle; a test that calls it skips where
    scipy is not installed."""
    return pytest.importorskip("scipy.integrate").solve_ivp(*args, **kwargs)


def oracle(fun, t_eval, y0, method, rtol, atol, event=None):
    if event is not None:
        event.terminal = True
    return solve_ivp(fun, (t_eval[0], t_eval[-1]), y0, method=method, t_eval=t_eval,
                     rtol=rtol, atol=atol, events=event)


def assert_matches_oracle(fun, t_eval, y0, method, rtol, atol, event=None):
    ours = integrate(fun, t_eval, y0, rtol=rtol, atol=atol, event=event)
    ref = oracle(fun, t_eval, y0, method, rtol, atol, event)
    np.testing.assert_array_equal(ours.t, ref.t, strict=True)
    np.testing.assert_array_equal(ours.y, ref.y.T, strict=True)
    assert ours.nfev == ref.nfev
    assert ours.status == ref.status
    return ours


def random_system(seed, n, quadratic):
    """y' = M y + a * tanh(y) + b sin(t) [+ c * y**2], smooth in t and y."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.5, 1.5, (n, n))
    a, b = rng.uniform(-2.0, 2.0, n), rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(0.5, 2.0, n) if quadratic else np.zeros(n)

    def fun(t, y):
        return M @ y + a * np.tanh(y) + b * np.sin(t) + c * y * y

    return fun, rng.uniform(-2.0, 2.0, n)


def one_state_model(names=("1", "q0"), coefficients=(0.0, -1.0), library=Polynomial(1)):
    """A one-state model: q0_t is the sum of ``coefficients`` times ``names``."""
    xi = np.array(coefficients, dtype=float)[:, None]
    return FittedModel(
        coefficients=Coefficients(xi=xi, names=tuple(names), residuals=np.zeros(1)),
        library=library, diff=SavitzkyGolay(), target_names=("q0_t",),
    )


class TestMatchesSolveIvp:
    @pytest.mark.parametrize("method", METHODS)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 4),
        log_rtol=st.floats(-10.0, -3.0),
        log_atol=st.floats(-12.0, -6.0),
        t0=st.floats(-1.0, 1.0),
        steps=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=30),
        quadratic=st.booleans(),
        level=st.floats(0.3, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_smooth_system(self, method, seed, n, log_rtol, log_atol, t0,
                                  steps, quadratic, level):
        fun, y0 = random_system(seed, n, quadratic)
        t_eval = t0 + np.cumsum([0.0, *steps])
        event = None
        if quadratic:
            # the quadratic term may blow up: stop where the state norm
            # crosses a level, upwards or downwards
            level *= float(np.linalg.norm(y0))

            def event(t, y):
                return float(np.linalg.norm(y)) - level
        assert_matches_oracle(fun, t_eval, y0, method, 10.0**log_rtol, 10.0**log_atol, event)

    def test_lorenz_dop853(self):
        def rhs(_, q):
            x, y, z = q.tolist()
            return np.array([10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z])

        t = np.arange(0.0, 10.001, 0.002)
        ours = assert_matches_oracle(rhs, t, np.array([-8.0, 8.0, 27.0]), "DOP853",
                                     1e-10, 1e-12)
        assert ours.status == 0 and ours.t.size == t.size

    @pytest.mark.parametrize("method", METHODS)
    def test_single_output_time(self, method):
        # solve_ivp returns no sample here, and simulate failed on that
        ours = integrate(lambda t, y: -y, np.array([0.5]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(ours.t, [0.5])
        np.testing.assert_array_equal(ours.y, [[1.0, 2.0]])
        assert ours.nfev == 1 and ours.status == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_blow_up_truncates(self, method):
        # q' = q^2 from q(0) = 2 blows up at t = 0.5
        def event(t, y):
            return float(np.linalg.norm(y)) - 1e8

        t = np.linspace(0.0, 1.0, 101)
        ours = assert_matches_oracle(lambda t, y: y * y, t, np.array([2.0]), method,
                                     1e-8, 1e-10, event)
        assert ours.status == 1
        assert ours.t.size == 50  # up to t = 0.49


def lorenz_rhs(_, q):
    x, y, z = q.tolist()
    return np.array([10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z])


def step_ends(fun, t_span, y0, method, rtol, atol):
    """The ends of solve_ivp's accepted steps; output times do not move them."""
    return solve_ivp(fun, t_span, y0, method=method, rtol=rtol, atol=atol).t[1:]


class TestOutputTimes:
    """Every output time is evaluated after the last step, from the dense
    output of the step it falls in; these place the output times against
    the steps in the ways that could go wrong."""

    @pytest.mark.parametrize("method", METHODS)
    def test_far_sparser_than_the_steps(self, method):
        t, y0 = np.array([0.0, 0.731, 2.5, 6.02, 10.0]), np.array([-8.0, 8.0, 27.0])
        ours = assert_matches_oracle(lorenz_rhs, t, y0, method, 1e-9, 1e-12)
        assert ours.status == 0 and ours.t.size == 5
        assert step_ends(lorenz_rhs, (0.0, 10.0), y0, method, 1e-9, 1e-12).size > 100

    @pytest.mark.parametrize("method", METHODS)
    def test_far_denser_than_the_steps(self, method):
        fun, y0 = random_system(5, 3, quadratic=False)
        t = np.linspace(0.0, 4.0, 40001)
        ours = assert_matches_oracle(fun, t, y0, method, 1e-3, 1e-6)
        assert ours.status == 0 and ours.t.size == t.size
        assert t.size / step_ends(fun, (0.0, 4.0), y0, method, 1e-3, 1e-6).size >= 50

    @pytest.mark.parametrize("method", METHODS)
    def test_event_after_outputs_of_earlier_steps(self, method):
        # y' = y from 1 crosses 5 at t = ln 5, after many steps with outputs
        def event(t, y):
            return float(y[0]) - 5.0

        t = np.linspace(0.0, 3.0, 301)
        ours = assert_matches_oracle(lambda t, y: y, t, np.array([1.0]), method,
                                     1e-8, 1e-10, event)
        assert ours.status == 1 and ours.t[-1] == t[160]  # the last one before 1.609

    @pytest.mark.parametrize("method", METHODS)
    def test_event_inside_a_step_with_many_outputs(self, method):
        # y' = y from 1 crosses 5 at t = ln 5 inside a step holding at least
        # 20 output times; the output ends at the last one before the crossing
        def event(t, y):
            return float(y[0]) - 5.0

        t = np.linspace(0.0, 3.0, 3001)
        ours = assert_matches_oracle(lambda t, y: y, t, np.array([1.0]), method,
                                     1e-3, 1e-6, event)
        assert ours.status == 1 and ours.t[-1] == t[1609]  # ln 5 = 1.6094...
        ends = np.concatenate(([0.0], step_ends(lambda t, y: y, (0.0, 3.0), np.array([1.0]),
                                                method, 1e-3, 1e-6)))
        step = np.searchsorted(ends, np.log(5.0))
        assert np.count_nonzero((t > ends[step - 1]) & (t <= ends[step])) >= 20

    @pytest.mark.parametrize("method", METHODS)
    def test_event_zero_at_an_output_time_keeps_it(self, method):
        # the event t - t[k] is exactly 0 at t[k]: the output ends there
        fun, y0 = random_system(3, 2, quadratic=False)
        t = np.linspace(0.0, 2.0, 401)
        k = 237
        ours = integrate(fun, t, y0, rtol=1e-6, atol=1e-9, event=lambda s, y: s - t[k])
        assert ours.status == 1
        np.testing.assert_array_equal(ours.t, t[: k + 1])
        assert not np.isin(t[k], step_ends(fun, (0.0, 2.0), y0, method, 1e-6, 1e-9))
        free = integrate(fun, t, y0, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(ours.y, free.y[: k + 1], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_output_time_on_a_step_end(self, method):
        fun, y0 = random_system(11, 2, quadratic=False)
        ends = step_ends(fun, (0.0, 3.0), y0, method, 1e-9, 1e-12)
        assert ends.size > 10
        t = np.union1d(np.linspace(0.0, 3.0, 31), ends[::2])
        ours = assert_matches_oracle(fun, t, y0, method, 1e-9, 1e-12)
        assert np.isin(ends[::2], ours.t).all()


class TestFailures:
    def test_nan_at_the_initial_state_fails_instead_of_looping(self):
        # solve_ivp never returns here: its step size stays NaN
        ours = integrate(lambda t, y: np.full(1, np.nan), np.linspace(0.0, 1.0, 5),
                         np.array([1.0]))
        assert ours.status == -1 and ours.message == TOO_SMALL_STEP
        assert ours.t.size == 0

    def test_rhs_that_turns_nan_is_a_fit_error(self):
        # q' = q until q reaches 2, NaN beyond
        library = Custom((("cut", lambda q: np.where(q < 2.0, q, np.nan)),))
        model = one_state_model(("cut(q0)",), [1.0], library)
        with pytest.raises(FitError, match="^integration failed: Required step size "
                           "is less than spacing between numbers.$"):
            simulate(model, [1.0], np.linspace(0.0, 1.0, 11))


def simulate_oracle(model, q0, t_eval, controls=None):
    """``simulate``'s right-hand side and blow-up event, run by solve_ivp."""
    n_controls = 0 if controls is None else controls.shape[1]
    apply = GridPlan(model.library, len(q0), n_controls).apply

    def rhs(t, q):
        if controls is None:
            return apply(q[None, :])[0] @ model.xi
        u = [np.interp(t, t_eval, controls[:, j]) for j in range(n_controls)]
        return apply(np.concatenate([q, u])[None, :])[0] @ model.xi

    def event(t, q):
        return float(np.linalg.norm(q)) - 1e8

    return oracle(rhs, t_eval, np.asarray(q0, dtype=float), "DOP853", 1e-8, 1e-10, event)


def assert_simulation_matches(model, q0, t_eval, controls=None):
    sim = simulate(model, q0, t_eval, controls=controls)
    ref = simulate_oracle(model, q0, t_eval, controls)
    np.testing.assert_array_equal(sim.t, ref.t, strict=True)
    np.testing.assert_array_equal(sim.states, ref.y.T, strict=True)
    assert sim.n_rhs_evals == ref.nfev
    assert sim.blew_up == (ref.status == 1)
    return sim


class TestSimulate:
    def test_fitted_lorenz_model(self):
        dataset, _ = generate(BenchmarkSpec(Lorenz(t_span=5.0), noise_level=0.01, seed=3))
        model = fit(dataset, Polynomial(2), diff=SavitzkyGolay(window=41, poly_order=3),
                    opt=STLSQ(threshold=0.3))
        sim = assert_simulation_matches(model, dataset.states[0],
                                        dataset.grid.time_axis[:1000])
        assert not sim.blew_up and sim.states.shape == (1000, 3)

    def test_with_controls(self):
        # q' = -q + 2 u with u = sin(3 t)
        model = one_state_model(("1", "q0", "u0"), [0.0, -1.0, 2.0])
        t = np.linspace(0.0, 4.0, 81)
        sim = assert_simulation_matches(model, [1.0], t, controls=np.sin(3.0 * t)[:, None])
        assert sim.states.shape == (81, 1)

    def test_single_and_no_output_time(self):
        model = one_state_model()
        sim = simulate(model, [1.0], [0.25])
        np.testing.assert_array_equal(sim.t, [0.25])
        np.testing.assert_array_equal(sim.states, [[1.0]])
        with pytest.raises(SpecError, match="non-empty"):
            simulate(model, [1.0], [])

    def test_blow_up(self):
        # q' = q^2
        model = one_state_model(("1", "q0", "q0^2"), [0.0, 0.0, 1.0], Polynomial(2))
        sim = assert_simulation_matches(model, [2.0], np.linspace(0.0, 1.0, 101))
        assert sim.blew_up and sim.message == "state norm exceeded 1e8"

import numpy as np
import pytest

from sparsedyn.diff import FiniteDifference, SavitzkyGolay
from sparsedyn.errors import SpecError
from sparsedyn.systems import (
    KS,
    BenchmarkSpec,
    Lorenz,
    _truth,
    canonical_library,
    generate,
    verify_residual,
)

SMALL_KS = KS(n_grid=256, length=50.0, t_span=8.0, dt_save=0.4, dt=0.05, burn_in=5.0)


class TestLorenz:
    def test_chaotic_regime_sanity(self):
        ds, _ = generate(BenchmarkSpec(system=Lorenz()))
        assert ds.states.shape == (5001, 3)
        assert np.abs(ds.states).max() < 60.0

    def test_nearby_initial_conditions_diverge(self):
        base = Lorenz()
        bumped = Lorenz(initial_state=(-8.0 + 1e-4, 8.0, 27.0))
        a, _ = generate(BenchmarkSpec(system=base))
        b, _ = generate(BenchmarkSpec(system=bumped))
        sep = np.linalg.norm(a.states - b.states, axis=1)
        assert sep[0] < 1e-3
        assert sep[-1] > 0.1  # positive-time divergence

    def test_truth_layout(self):
        _, truth = generate(BenchmarkSpec(system=Lorenz(t_span=1.0)))
        assert truth.xi.shape == (10, 3)
        assert truth.support.sum(axis=0).tolist() == [2, 3, 2]

    def test_noiseless_residual_gate(self):
        ds, truth = generate(BenchmarkSpec(system=Lorenz()))
        res = verify_residual(
            ds, truth, canonical_library(Lorenz()), FiniteDifference(order=4)
        )
        assert res <= 1e-4

    def test_zero_truth_normalizes_to_one(self):
        ds, truth = generate(BenchmarkSpec(system=Lorenz(t_span=1.0)))
        from sparsedyn.optimize import Coefficients

        zero = Coefficients(
            xi=np.zeros_like(truth.xi),
            names=truth.names,
            residuals=truth.residuals,
        )
        res = verify_residual(
            ds, zero, canonical_library(Lorenz()), FiniteDifference(order=4)
        )
        assert res == pytest.approx(1.0, abs=1e-14)


class TestKS:
    def test_default_dataset_shape(self):
        ds, _ = generate(BenchmarkSpec(system=KS()))
        assert ds.states.shape == (1024, 251, 1)

    def test_truth_has_three_minus_ones(self):
        _, truth = generate(BenchmarkSpec(system=SMALL_KS))
        nz = {truth.names[i]: truth.xi[i, 0] for i in np.flatnonzero(truth.support[:, 0])}
        assert nz == {"q0 q0_x": -1.0, "q0_xx": -1.0, "q0_xxxx": -1.0}

    def test_states_real_and_finite(self):
        ds, _ = generate(BenchmarkSpec(system=SMALL_KS, seed=3))
        assert np.isrealobj(ds.states)
        assert np.all(np.isfinite(ds.states))

    def test_determinism_under_seed(self):
        a, _ = generate(BenchmarkSpec(system=SMALL_KS, seed=5))
        b, _ = generate(BenchmarkSpec(system=SMALL_KS, seed=5))
        np.testing.assert_array_equal(a.states, b.states)
        c, _ = generate(BenchmarkSpec(system=SMALL_KS, seed=6))
        assert not np.array_equal(a.states, c.states)

    def test_step_halving_convergence(self):
        spec = KS(n_grid=256, length=50.0, t_span=5.0, dt_save=0.5, dt=0.05, burn_in=5.0)
        half = KS(n_grid=256, length=50.0, t_span=5.0, dt_save=0.5, dt=0.025, burn_in=5.0)
        a, _ = generate(BenchmarkSpec(system=spec, seed=2))
        b, _ = generate(BenchmarkSpec(system=half, seed=2))
        rms = float(np.sqrt(np.mean((a.states - b.states) ** 2)))
        assert rms <= 1e-5

    def test_residual_gate_and_refinement(self):
        # SG time derivative + spectral space derivatives leave only the
        # time-sampling error; refining dt_save by 2x must cut it >= 2x
        res = {}
        for dt_save in (0.4, 0.2):
            spec = KS(dt_save=dt_save, t_span=40.0)
            ds, truth = generate(BenchmarkSpec(system=spec, seed=0))
            res[dt_save] = verify_residual(
                ds, truth, canonical_library(spec), SavitzkyGolay(window=5, poly_order=3)
            )
        assert res[0.4] <= 5e-2
        assert res[0.4] / res[0.2] >= 2.0

    def test_grid_power_of_two_required(self):
        with pytest.raises(SpecError):
            BenchmarkSpec(system=KS(n_grid=300)).validate()

    def test_dt_save_must_be_multiple_of_dt(self):
        with pytest.raises(SpecError):
            BenchmarkSpec(system=KS(dt=0.3, dt_save=0.4)).validate()

    def test_unstable_step_raises_with_suggestion(self):
        from sparsedyn.errors import FitError

        wild = KS(
            n_grid=256, length=50.0, t_span=40.0, dt_save=4.0, dt=4.0,
            burn_in=0.0, init_amplitude=2.0,
        )
        with pytest.raises(FitError, match="reduce dt"):
            generate(BenchmarkSpec(system=wild))

    def test_noise_level_applied(self):
        clean, _ = generate(BenchmarkSpec(system=SMALL_KS, seed=1))
        noisy, _ = generate(BenchmarkSpec(system=SMALL_KS, noise_level=0.05, seed=1))
        rms = np.sqrt(np.mean(clean.states**2))
        diff = noisy.states - clean.states
        assert abs(diff.std() / (0.05 * rms) - 1.0) < 0.05


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec, message",
    [
        (BenchmarkSpec(Lorenz(), noise_level=NAN), "noise level must be finite"),
        (BenchmarkSpec(SMALL_KS, noise_level=INF), "noise level must be finite"),
        (BenchmarkSpec(Lorenz(dt=NAN)), "Lorenz dt must be finite"),
        (BenchmarkSpec(Lorenz(t_span=INF)), "Lorenz t_span must be finite"),
        (BenchmarkSpec(Lorenz(t_span=NAN)), "Lorenz t_span must be finite"),
        (BenchmarkSpec(Lorenz(initial_state=(1.0, NAN, 0.0))), "Lorenz initial_state"),
        (BenchmarkSpec(Lorenz(sigma=NAN)), "Lorenz sigma must be finite"),
        (BenchmarkSpec(Lorenz(beta=-INF)), "Lorenz beta must be finite"),
        (BenchmarkSpec(KS(dt=NAN)), "KS dt must be finite"),
        (BenchmarkSpec(KS(burn_in=NAN)), "KS burn_in must be finite"),
        (BenchmarkSpec(KS(length=NAN)), "KS length must be finite"),
        (BenchmarkSpec(KS(init_amplitude=INF)), "KS init_amplitude must be finite"),
        (BenchmarkSpec(KS(t_span=INF)), "KS t_span must be finite"),
    ],
)
def test_non_finite_parameters_are_spec_errors(spec, message):
    with pytest.raises(SpecError, match=message):
        generate(spec)


@pytest.mark.parametrize(
    "system, message",
    [
        (KS(length=0.0), "KS length must be positive, got 0.0"),
        (KS(length=-50.0), "KS length must be positive, got -50.0"),
        (KS(t_span=0.3, dt_save=0.4), "KS t_span=0.3 must be >= dt_save=0.4"),
    ],
    ids=["length-zero", "length-negative", "t-span-below-dt-save"],
)
def test_ks_grid_holes_are_spec_errors(system, message):
    # length 0 was a ZeroDivisionError; a negative length and a t_span that
    # saves fewer than 2 samples failed the dataset's axis checks (exit 3)
    with pytest.raises(SpecError, match=message):
        generate(BenchmarkSpec(system))


class TestTruthTables:
    """The ground truth's names come from the canonical library's plan;
    these literal tables pin them and the coefficients."""

    def test_lorenz(self):
        truth = _truth(Lorenz(sigma=9.0, rho=27.0, beta=2.5))
        assert truth.names == (
            "1", "q0", "q1", "q2",
            "q0^2", "q0 q1", "q0 q2", "q1^2", "q1 q2", "q2^2",
        )
        expected = np.zeros((10, 3))
        expected[1, 0], expected[2, 0] = -9.0, 9.0
        expected[1, 1], expected[2, 1], expected[6, 1] = 27.0, -1.0, -1.0
        expected[3, 2], expected[5, 2] = -2.5, 1.0
        np.testing.assert_array_equal(truth.xi, expected)
        np.testing.assert_array_equal(truth.support, expected != 0.0)
        np.testing.assert_array_equal(truth.residuals, np.zeros(3))

    def test_ks(self):
        truth = _truth(KS())
        assert truth.names == (
            "q0_x", "q0 q0_x", "q0^2 q0_x",
            "q0_xx", "q0 q0_xx", "q0^2 q0_xx",
            "q0_xxx", "q0 q0_xxx", "q0^2 q0_xxx",
            "q0_xxxx", "q0 q0_xxxx", "q0^2 q0_xxxx",
            "q0", "q0^2",
        )
        expected = np.zeros((14, 1))
        expected[[1, 3, 9], 0] = -1.0
        np.testing.assert_array_equal(truth.xi, expected)
        np.testing.assert_array_equal(truth.residuals, np.zeros(1))

    def test_generate_returns_the_table(self):
        _, truth = generate(BenchmarkSpec(system=Lorenz(t_span=0.1)))
        np.testing.assert_array_equal(truth.xi, _truth(Lorenz()).xi)
        assert truth.names == _truth(Lorenz()).names

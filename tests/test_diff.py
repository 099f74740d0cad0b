from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from sparsedyn.data import Dataset, Grid, _is_uniform
from sparsedyn.diff import (
    FiniteDifference,
    SavitzkyGolay,
    Spectral,
    _derivative_fields,
    _differentiate_orders,
    _sg_weights,
    differentiate,
    differentiate_dataset,
    fd_weights,
)
from sparsedyn.errors import DataError, SpecError
from sparsedyn.library import PDE, Polynomial
from sparsedyn.model import design

# Seed for the noisy-derivative benchmark shared with the acceptance suite.
NOISE_BENCH_SEED = 4


class TestFornbergWeights:
    def test_classic_centered_first_derivative(self):
        w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 1)
        np.testing.assert_allclose(w, [-0.5, 0.0, 0.5], atol=1e-14)

    def test_classic_second_derivative(self):
        w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 2)
        np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-13)

    def test_weights_annihilate_constants(self):
        nodes = np.array([0.0, 0.3, 0.7, 1.5, 2.0])
        for d in (1, 2, 3):
            assert abs(fd_weights(nodes, 0.7, d).sum()) < 1e-10


class TestFiniteDifference:
    def test_exact_on_quadratic(self):
        t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out = differentiate(t**2, t, FiniteDifference(order=2))
        np.testing.assert_allclose(out, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-12)

    @pytest.mark.parametrize("order", [2, 4, 6])
    def test_polynomial_exactness_including_boundaries(self, order):
        # order-p first derivatives are exact on degree-p polynomials
        t = np.linspace(-1.0, 2.0, 25)
        coeffs = np.arange(1.0, order + 2.0)
        poly = np.polynomial.Polynomial(coeffs)
        out = differentiate(poly(t), t, FiniteDifference(order=order))
        expected = poly.deriv()(t)
        rel = np.abs(out - expected).max() / np.abs(expected).max()
        assert rel < 1e-9

    @pytest.mark.parametrize("order", [2, 4])
    def test_convergence_rate(self, order):
        errs = []
        for L in (200, 400):
            t = np.linspace(0.0, 2.0 * np.pi, L)
            e = np.abs(
                differentiate(np.sin(t), t, FiniteDifference(order=order)) - np.cos(t)
            ).max()
            errs.append(e)
        assert errs[0] / errs[1] >= 2 ** (order - 0.5)

    def test_nonuniform_nodes(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0.0, 1.0, 40))
        out = differentiate(t**2, t, FiniteDifference(order=2))
        np.testing.assert_allclose(out, 2 * t, atol=1e-9)

    def test_second_derivative(self):
        t = np.linspace(0.0, 1.0, 30)
        out = differentiate(t**3, t, FiniteDifference(order=2), d=2)
        np.testing.assert_allclose(out, 6 * t, atol=1e-8)

    def test_too_short_axis(self):
        t = np.array([0.0, 1.0, 2.0])
        with pytest.raises(DataError):
            differentiate(t, t, FiniteDifference(order=4))

    def test_odd_order_rejected(self):
        t = np.linspace(0, 1, 10)
        with pytest.raises(SpecError):
            differentiate(t, t, FiniteDifference(order=3))


class TestSavitzkyGolay:
    def test_noise_suppression_vs_fd(self):
        t = np.linspace(0.0, 10.0, 1000)
        rng = np.random.default_rng(NOISE_BENCH_SEED)
        noisy = np.sin(t) + 0.01 * rng.standard_normal(t.size)
        sg = differentiate(noisy, t, SavitzkyGolay(window=11, poly_order=3))
        fd = differentiate(noisy, t, FiniteDifference(order=2))
        e_sg = np.abs(sg - np.cos(t)).max()
        e_fd = np.abs(fd - np.cos(t)).max()
        assert e_fd / e_sg >= 3.0

    def test_uniform_matches_general_path(self):
        # jitter below the uniformity tolerance keeps the fast path; an
        # explicitly nonuniform axis exercises the per-point fit
        t = np.linspace(0.0, 5.0, 120)
        v = np.sin(1.3 * t)
        fast = differentiate(v, t, SavitzkyGolay(window=9, poly_order=3))
        t_jit = t.copy()
        t_jit[60] += 1e-5  # now nonuniform
        general = differentiate(np.sin(1.3 * t_jit), t_jit, SavitzkyGolay(9, 3))
        np.testing.assert_allclose(fast, general, atol=1e-4)

    def test_window_validation(self):
        t = np.linspace(0, 1, 50)
        with pytest.raises(SpecError):
            differentiate(t, t, SavitzkyGolay(window=4, poly_order=2))
        with pytest.raises(SpecError):
            differentiate(t, t, SavitzkyGolay(window=5, poly_order=5))
        with pytest.raises(SpecError):
            differentiate(t, t, SavitzkyGolay(window=5, poly_order=2), d=3)

    @pytest.mark.parametrize("method", [FiniteDifference(), SavitzkyGolay(), Spectral()],
                             ids=["fd", "sg", "spectral"])
    def test_negative_derivative_order_is_a_spec_error(self, method):
        # SG's d = 0 is its smoothing filter; d = -1 once returned all zeros
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        with pytest.raises(SpecError, match="derivative order must be >= [01], got -1"):
            differentiate(np.sin(t), t, method, d=-1)
        dataset = Dataset(grid=Grid(t), states=np.sin(t)[:, None])
        with pytest.raises(SpecError, match="derivative order must be >= [01], got -1"):
            differentiate_dataset(dataset, method, d=-1)

    def test_higher_derivative(self):
        t = np.linspace(0.0, 1.0, 200)
        out = differentiate(t**4, t, SavitzkyGolay(window=7, poly_order=4), d=2)
        np.testing.assert_allclose(out, 12 * t**2, atol=1e-6)


def exact_sg_weights(window, poly_order, d):
    """Interior Savitzky-Golay weights of the d-th derivative on a unit grid,
    in exact rational arithmetic: d! times row d of (A'A)^-1 A', with A the
    Vandermonde matrix of the integer offsets -half..half."""
    x = [Fraction(i - window // 2) for i in range(window)]
    k = poly_order + 1
    # Gauss-Jordan on [A'A | e_d] gives u = (A'A)^-1 e_d (A'A is symmetric)
    rows = [[sum(xi ** (a + b) for xi in x) for b in range(k)] + [Fraction(a == d)]
            for a in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    u = [rows[a][k] for a in range(k)]
    return np.array(
        [float(factorial(d) * sum(u[a] * xi**a for a in range(k))) for xi in x]
    )


class TestSavitzkyGolayReference:
    """The numpy filter against scipy.signal.savgol_filter(mode="interp")."""

    @pytest.mark.parametrize(
        "window,poly_order",
        [(w, p) for w in range(5, 42, 2) for p in range(2, 6) if p < w],
    )
    def test_matches_scipy_interp_mode(self, window, poly_order):
        signal = pytest.importorskip("scipy.signal")
        savgol_coeffs, savgol_filter = signal.savgol_coeffs, signal.savgol_filter

        L = 2 * window + 7
        h = 0.05
        t = 0.3 + h * np.arange(L)
        impulses = np.eye(L)  # row i is the filter's response to sample i
        for d in range(poly_order + 1):
            ours = differentiate(impulses, t, SavitzkyGolay(window, poly_order), d=d)
            ref = savgol_filter(impulses, window, poly_order, deriv=d,
                                delta=h, axis=-1, mode="interp")
            # scipy's interior weights come from an unscaled integer
            # Vandermonde matrix and drift from the exact ones (by up to
            # 1.3e-10 at window 35, poly_order 5); that drift is added to the
            # tolerance, and our own interior weights must be exact.
            exact = exact_sg_weights(window, poly_order, d)
            scipy_w = savgol_coeffs(window, poly_order, deriv=d, use="dot")
            drift = np.abs(scipy_w - exact).max() / np.abs(exact).max()
            rel = np.abs(ours - ref).max() / np.abs(ref).max()
            assert rel <= 1e-10 + drift, (d, rel, drift)
            interior = ours[: window, window // 2] * h**d
            assert np.abs(interior - exact).max() <= 1e-12 * np.abs(exact).max()

    @given(
        data=st.data(),
        half=st.integers(2, 20),
        extra=st.integers(0, 30),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60)
    def test_exact_on_polynomials_nonuniform(self, data, half, extra, seed):
        window = 2 * half + 1
        poly_order = data.draw(st.integers(2, min(5, window - 1)))
        d = data.draw(st.integers(0, poly_order))
        rng = np.random.default_rng(seed)
        L = window + extra
        t = 0.1 * (np.arange(L) + rng.uniform(-0.3, 0.3, L))
        coef = rng.uniform(-1.0, 1.0, (2, poly_order + 1))
        coef[:, -1] = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 1.0, 2)
        polys = [np.polynomial.Polynomial(c) for c in coef]
        values = np.stack([p(t) for p in polys])
        expected = np.stack([p.deriv(d)(t) for p in polys])
        out = differentiate(values, t, SavitzkyGolay(window, poly_order), d=d)
        assert np.abs(out - expected).max() <= 1e-8 * np.abs(expected).max()


# The finite-difference and Savitzky-Golay paths as they were written before
# both ran through one windowed engine: the oracles of TestWindowedEngine.


def oracle_fd_along_last(values, axis, d, order):
    L = axis.size
    s_int = order + d if d % 2 == 1 else order + d - 1
    s_bnd = order + d
    if L < s_bnd:
        raise DataError(f"axis length {L} too short")
    out = np.empty_like(values, dtype=float)
    half = s_int // 2
    lo, hi = half, L - (s_int - 1 - half)
    windows = sliding_window_view(values, s_int, axis=-1)
    if _is_uniform(axis):
        h = (axis[-1] - axis[0]) / (L - 1)
        out[..., lo:hi] = windows @ fd_weights((np.arange(s_int) - half) * h, 0.0, d)
    else:
        W = np.empty((hi - lo, s_int))
        for j in range(hi - lo):
            W[j] = fd_weights(axis[j : j + s_int], axis[j + half], d)
        out[..., lo:hi] = np.einsum("...js,js->...j", windows, W)
    for i in range(lo):
        out[..., i] = values[..., :s_bnd] @ fd_weights(axis[:s_bnd], axis[i], d)
    for i in range(hi, L):
        out[..., i] = values[..., L - s_bnd :] @ fd_weights(axis[L - s_bnd :], axis[i], d)
    return out


def oracle_sg_along_last(values, axis, d, window, poly_order):
    L = axis.size
    if L < window:
        raise DataError(f"axis length {L} too short")
    half = window // 2
    out = np.empty_like(values, dtype=float)
    windows = sliding_window_view(values, window, axis=-1)
    if _is_uniform(axis):
        h = (axis[-1] - axis[0]) / (L - 1)
        offsets = np.arange(window) * h
        w = _sg_weights(offsets, offsets[half : half + 1], d, poly_order)[0]
        out[..., half : L - half] = windows @ w
    else:
        nodes = sliding_window_view(axis, window)
        W = _sg_weights(nodes, nodes[:, half : half + 1], d, poly_order)[:, 0]
        out[..., half : L - half] = np.einsum("...js,js->...j", windows, W)
    for block, points in ((slice(0, window), slice(0, half)),
                          (slice(L - window, L), slice(L - half, L))):
        W = _sg_weights(axis[block], axis[points], d, poly_order)
        out[..., points] = values[..., block] @ W.T
    return out


@st.composite
def windowed_cases(draw):
    """(method, d, end-window size, oracle) for FD and SG."""
    if draw(st.booleans()):
        order, d = draw(st.sampled_from([2, 4, 6, 8])), draw(st.integers(1, 4))
        method = FiniteDifference(order=order)
        return method, d, order + d, lambda v, x: oracle_fd_along_last(v, x, d, order)
    window = draw(st.integers(2, 20)) * 2 + 1
    poly_order = draw(st.integers(2, min(6, window - 1)))
    d = draw(st.integers(0, poly_order))
    method = SavitzkyGolay(window, poly_order)
    return method, d, window, lambda v, x: oracle_sg_along_last(v, x, d, window, poly_order)


class TestWindowedEngine:
    """Finite differences and Savitzky-Golay through the one windowed engine
    equal their former separate paths: Savitzky-Golay bit for bit, finite
    differences up to rounding."""

    @given(
        case=windowed_cases(),
        extra=st.integers(0, 40),
        ndim=st.integers(1, 3),
        data=st.data(),
        uniform=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_former_paths(self, case, extra, ndim, data, uniform, seed):
        method, d, edge, oracle = case
        rng = np.random.default_rng(seed)
        L = edge + extra
        if uniform:
            x = rng.uniform(-2.0, 2.0) + rng.uniform(0.01, 2.0) * np.arange(L)
        else:
            x = np.cumsum(rng.uniform(0.5, 1.5, L)) * rng.uniform(0.01, 2.0)
        axis = data.draw(st.integers(0, ndim - 1))
        shape = [int(n) for n in rng.integers(1, 4, ndim)]
        shape[axis] = L
        values = rng.standard_normal(shape)
        got = differentiate(values, x, method, d=d, axis=axis)
        expected = np.moveaxis(oracle(np.moveaxis(values, axis, -1), x), -1, axis)
        if isinstance(method, SavitzkyGolay):
            np.testing.assert_array_equal(got, expected)
        else:
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @given(case=windowed_cases(), uniform=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_axis_shorter_than_end_window_rejected(self, case, uniform):
        method, d, edge, _ = case
        L = edge - 1
        x = np.arange(L) * 0.1 if uniform else np.cumsum(np.linspace(1.0, 2.0, L))
        with pytest.raises(DataError, match=f"axis length {L} too short"):
            differentiate(np.ones((2, L)), x, method, d=d)


class TestSpectral:
    def setup_method(self):
        self.x = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)

    def test_sin_to_cos(self):
        out = differentiate(np.sin(self.x), self.x, Spectral())
        assert np.abs(out - np.cos(self.x)).max() <= 1e-10

    def test_second_derivative(self):
        out = differentiate(np.sin(self.x), self.x, Spectral(), d=2)
        assert np.abs(out + np.sin(self.x)).max() <= 1e-8

    def test_round_trip_through_antiderivative(self):
        sig = np.sin(3 * self.x) + 0.5 * np.cos(5 * self.x)  # zero mean, periodic
        k = 2 * np.pi * np.fft.rfftfreq(64, d=self.x[1] - self.x[0])
        spec = np.fft.rfft(sig)
        spec[1:] /= 1j * k[1:]
        spec[0] = 0.0
        anti = np.fft.irfft(spec, n=64)
        back = differentiate(anti, self.x, Spectral())
        assert np.abs(back - sig).max() <= 1e-9

    def test_filter_attenuates_high_modes(self):
        sig = np.sin(self.x) + 0.05 * np.sin(20 * self.x)
        plain = differentiate(sig, self.x, Spectral())
        filtered = differentiate(sig, self.x, Spectral(filter_strength=10.0))
        # the k=1 part is nearly untouched, the k=20 part is damped
        assert np.abs(filtered - np.cos(self.x)).max() < np.abs(
            plain - np.cos(self.x)
        ).max()

    @pytest.mark.parametrize("strength", [float("nan"), float("inf")])
    def test_non_finite_filter_strength_rejected(self, strength):
        # a NaN strength used to drop the filter silently
        with pytest.raises(SpecError, match="Spectral filter_strength must be finite"):
            differentiate(np.sin(self.x), self.x, Spectral(filter_strength=strength))

    def test_nonuniform_rejected(self):
        x = np.sort(np.random.default_rng(0).uniform(0, 1, 32))
        with pytest.raises(DataError):
            differentiate(x, x, Spectral())


def per_order_spectral(values, axis, d, filter_strength):
    """One forward transform per derivative order along the last axis, as
    spectral differentiation was computed before orders shared one."""
    L = axis.size
    h = (axis[-1] - axis[0]) / (L - 1)
    k = 2.0 * np.pi * np.fft.rfftfreq(L, d=h)
    mult = (1j * k) ** d
    if d % 2 == 1 and L % 2 == 0:
        mult[-1] = 0.0
    if filter_strength > 0:
        kmax = k[-1] if k[-1] > 0 else 1.0
        mult = mult * np.exp(-filter_strength * (k / kmax) ** 8)
    return np.fft.irfft(np.fft.rfft(values, axis=-1) * mult, n=L, axis=-1)


class TestSharedOrders:
    """Several orders from one call equal one ``differentiate`` call each;
    spectral ones equal the former one-transform-per-order computation."""

    @given(
        L=st.integers(8, 40),
        axis=st.integers(0, 2),
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
        strength=st.sampled_from([0.0, 0.5, 10.0]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40)
    def test_spectral_bit_identical(self, L, axis, orders, strength, seed):
        shape = [5, 6, 3]
        shape[axis] = L
        values = np.random.default_rng(seed).standard_normal(shape)
        x = np.linspace(0.0, 2.0 * np.pi, L, endpoint=False)
        method = Spectral(filter_strength=strength)
        got = _differentiate_orders(values, x, method, tuple(orders), axis)
        for d, field in zip(orders, got):
            moved = np.moveaxis(values, axis, -1)
            expected = np.moveaxis(per_order_spectral(moved, x, d, strength), -1, axis)
            np.testing.assert_array_equal(field, expected)
            np.testing.assert_array_equal(
                field, differentiate(values, x, method, d=d, axis=axis)
            )

    @pytest.mark.parametrize(
        "method", [FiniteDifference(order=4), SavitzkyGolay(window=7, poly_order=4)]
    )
    def test_local_methods(self, method):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((4, 30, 2))
        x = np.cumsum(rng.uniform(0.5, 1.5, 30))
        got = _differentiate_orders(values, x, method, (1, 2, 3), 1)
        for d, field in zip((1, 2, 3), got):
            np.testing.assert_array_equal(
                field, differentiate(values, x, method, d=d, axis=1)
            )


class TestLinearity:
    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_fd_and_sg(self, a, b):
        t = np.linspace(0.0, 3.0, 97)
        f, g = np.sin(t), np.exp(0.3 * t)
        for method in (FiniteDifference(order=4), SavitzkyGolay(7, 3)):
            lhs = differentiate(a * f + b * g, t, method)
            rhs = a * differentiate(f, t, method) + b * differentiate(g, t, method)
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() / scale < 1e-12

    @given(a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=20, deadline=None)
    def test_spectral(self, a, b):
        x = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        f, g = np.sin(x), np.cos(2 * x)
        method = Spectral()
        lhs = differentiate(a * f + b * g, x, method)
        rhs = a * differentiate(f, x, method) + b * differentiate(g, x, method)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-12


class TestDifferentiateDataset:
    def test_bilinear_time_derivative(self):
        x = np.linspace(0.0, 1.0, 5)
        t = np.linspace(0.0, 1.0, 5)
        states = np.multiply.outer(x, t)[:, :, None]
        ds = Dataset(grid=Grid(t, (x,)), states=states)
        out = differentiate_dataset(ds, FiniteDifference(order=2), "t")
        np.testing.assert_allclose(out[:, :, 0], np.multiply.outer(x, np.ones(5)), atol=1e-12)

    def test_precomputed_derivatives_bypass(self):
        ds = Dataset(
            grid=Grid(np.arange(5.0)),
            states=np.random.default_rng(0).standard_normal((5, 2)),
            derivatives=np.arange(10.0).reshape(5, 2),
        )
        out = differentiate_dataset(ds, FiniteDifference(order=2), "t")
        assert out is ds.derivatives

    def test_spatial_spectral_second_derivative(self):
        x = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        t = np.arange(3.0)
        states = np.repeat(np.sin(x)[:, None], 3, axis=1)[:, :, None]
        ds = Dataset(grid=Grid(t, (x,)), states=states)
        out = differentiate_dataset(ds, Spectral(), "x", d=2)
        assert np.abs(out[:, 0, 0] + np.sin(x)).max() <= 1e-8

    def test_unknown_axis(self):
        ds = Dataset(grid=Grid(np.arange(4.0)), states=np.zeros((4, 1)))
        with pytest.raises(DataError):
            differentiate_dataset(ds, FiniteDifference(), "x")


# ---------------------------------------------------------------------------
# One derivative path against the former per-module axis resolution
# ---------------------------------------------------------------------------


def oracle_differentiate_dataset(dataset, method, axis_id="t", d=1):
    """``differentiate_dataset`` as written before it went through the
    request function: its own letter table and precomputed-q_t rule."""
    if axis_id == "t":
        if dataset.derivatives is not None and d == 1:
            return dataset.derivatives
        axis_values = dataset.grid.time_axis
        array_axis = dataset.states.ndim - 2
    else:
        letters = {"x": 0, "y": 1, "z": 2}
        if axis_id not in letters:
            raise DataError(f"unknown axis id {axis_id!r} (use t, x, y or z)")
        idx = letters[axis_id]
        if idx >= dataset.grid.n_spatial:
            raise DataError(
                f"spatial axis {axis_id!r} out of range for "
                f"{dataset.grid.n_spatial} spatial axes"
            )
        axis_values = dataset.grid.spatial_axes[idx]
        array_axis = idx
    return differentiate(dataset.states, axis_values, method, d=d, axis=array_axis)


ORACLE_AXIS_LETTERS = ("x", "y", "z")


def oracle_axis_info(dataset, axis_id):
    """The library's former letter -> (array axis, coordinates) map."""
    grid = dataset.grid
    if axis_id == "t":
        return dataset.states.ndim - 2, grid.time_axis
    idx = ORACLE_AXIS_LETTERS.index(axis_id)
    if idx >= grid.n_spatial:
        raise DataError(
            f"dataset has {grid.n_spatial} spatial axes, none named {axis_id!r}"
        )
    return idx, grid.spatial_axes[idx]


def oracle_derivative_fields(dataset, block, axes, diff_method):
    """The library's former derivative request of one PDE block (``block``
    has the PDE ``spec`` and its ``mus``); ``axes`` maps letters to
    ``oracle_axis_info``."""
    spec = block.spec
    method = spec.diff if spec.diff is not None else diff_method

    def precomputed(mu):
        return (
            dataset.derivatives is not None
            and sum(mu) == 1
            and spec.axes[mu.index(1)] == "t"
        )

    groups = {}
    todo = [mu for mu in block.mus if not precomputed(mu)]
    while todo:
        mu = todo.pop()
        a = max(i for i, order in enumerate(mu) if order)
        prefix = mu[:a] + (0,) + mu[a + 1 :]
        orders = groups.setdefault((prefix, a), set())
        if mu[a] not in orders:
            orders.add(mu[a])
            if any(prefix):
                todo.append(prefix)
    fields = {(0,) * len(spec.axes): dataset.states}
    for (prefix, a), orders in sorted(groups.items(), key=lambda g: sum(g[0][0])):
        array_axis, coords = axes[spec.axes[a]]
        orders = tuple(sorted(orders))
        derived = _differentiate_orders(fields[prefix], coords, method, orders, array_axis)
        for order, field in zip(orders, derived):
            fields[prefix[:a] + (order,) + prefix[a + 1 :]] = field
    return [dataset.derivatives if precomputed(mu) else fields[mu] for mu in block.mus]


def outcome(fn):
    """``fn()``, or ``DataError`` if it raised one."""
    try:
        return fn()
    except DataError:
        return DataError


def assert_same_field(got, expected, dataset):
    if expected is DataError or got is DataError:
        assert got is expected
    elif expected is dataset.derivatives:
        assert got is dataset.derivatives
    else:
        np.testing.assert_array_equal(got, expected)


@st.composite
def derivative_cases(draw):
    """A dataset on 0-3 spatial axes (each uniform or not; all uniform for
    spectral methods), with or without precomputed time derivatives, a
    method and a derivative order 1-3."""
    n_spatial, n = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["fd", "sg", "spectral"]))
    d = draw(st.integers(1, 3))
    if kind == "fd":
        method = FiniteDifference(order=draw(st.sampled_from([2, 4])))
    elif kind == "sg":
        method = SavitzkyGolay(window=draw(st.sampled_from([5, 7])),
                               poly_order=draw(st.integers(3, 4)))
    else:
        method = Spectral(filter_strength=draw(st.sampled_from([0.0, 2.0])))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    axes = []
    for _ in range(n_spatial + 1):
        length = draw(st.integers(7, 9))
        if kind == "spectral" or draw(st.booleans()):
            axes.append(rng.uniform(-1.0, 1.0) + rng.uniform(0.1, 1.0) * np.arange(length))
        else:
            axes.append(np.cumsum(rng.uniform(0.5, 1.5, length)))
    grid = Grid(axes[-1], tuple(axes[:-1]))
    shape = grid.sample_shape + (n,)
    derivatives = rng.standard_normal(shape) if draw(st.booleans()) else None
    ds = Dataset(grid=grid, states=rng.standard_normal(shape), derivatives=derivatives)
    return ds, method, d


class TestOneDerivativePath:
    """``differentiate_dataset``, the request function behind PDE blocks and
    the fit targets equal their former separate implementations."""

    @given(case=derivative_cases(), data=st.data())
    @settings(max_examples=120)
    def test_differentiate_dataset_equals_former(self, case, data):
        ds, method, d = case
        axis_id = data.draw(st.sampled_from(["t", *"xyz", "w", "x3"]))
        expected = outcome(lambda: oracle_differentiate_dataset(ds, method, axis_id, d))
        got = outcome(lambda: differentiate_dataset(ds, method, axis_id, d))
        assert_same_field(got, expected, ds)

    @given(case=derivative_cases(), data=st.data())
    @settings(max_examples=120)
    def test_request_equals_former_block_fields(self, case, data):
        ds, method, _ = case
        letters = data.draw(st.lists(st.sampled_from("xyzt"), min_size=1, max_size=4,
                                     unique=True).map(tuple))
        order = data.draw(st.integers(1, 3 if len(letters) <= 2 else 2))
        spec = PDE(order, letters)
        block = SimpleNamespace(spec=spec, mus=spec.multiindices())

        def former():
            axes = {ax: oracle_axis_info(ds, ax) for ax in letters}
            return oracle_derivative_fields(ds, block, axes, method)

        expected = outcome(former)
        got = outcome(lambda: _derivative_fields(ds, letters, block.mus, method))
        if expected is DataError or got is DataError:
            assert got is expected
            return
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_field(g, e, ds)

    @given(case=derivative_cases())
    @settings(max_examples=40)
    def test_regression_targets_equal_former_time_derivative(self, case):
        ds, method, _ = case
        expected = oracle_differentiate_dataset(ds, method).reshape(-1, ds.n_states)
        targets = design(ds, Polynomial(1, include_bias=False), method).targets
        np.testing.assert_array_equal(targets, expected)

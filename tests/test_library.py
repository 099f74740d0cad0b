import tracemalloc
from dataclasses import replace
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsedyn import library, optimize
from sparsedyn.data import Dataset, Grid, flatten
from sparsedyn.diff import FiniteDifference, SavitzkyGolay, Spectral, differentiate
from sparsedyn.errors import SpecError
from sparsedyn.library import (
    AXIS_LETTERS,
    CUSTOM_REGISTRY,
    Concat,
    Custom,
    Fourier,
    GridPlan,
    InputSubset,
    PDE,
    Polynomial,
    Tensor,
    WeakPDE,
    _bump_polynomials,
    _subdomain_bytes,
    _weak_axis_vectors,
    _weak_columns,
    evaluate_pointwise,
    validate,
)
from sparsedyn.model import design
from sparsedyn.systems import KS, canonical_library

FD = FiniteDifference(order=2)


def library_design(spec, ds, diff=FD):
    """The design of ``spec`` on ``ds``; a weak library's targets are its
    left-hand side."""
    return design(ds, spec, diff, targets=isinstance(spec, WeakPDE))


def pointwise_dataset(X, controls=None):
    """Wrap an (m, n) sample matrix as a zero-spatial-axis dataset."""
    m = X.shape[0]
    grid = Grid(np.arange(float(m)))
    return Dataset(grid=grid, states=X, controls=controls)


class TestWidths:
    def test_polynomial(self):
        assert len(GridPlan(Polynomial(degree=2), 2).names) == 6

    def test_fourier(self):
        assert len(GridPlan(Fourier(n_frequencies=2), 1).names) == 4

    def test_tensor_product_rule(self):
        spec = Tensor(Polynomial(1), InputSubset(Fourier(1), (0,)))
        assert len(GridPlan(Polynomial(1), 2).names) == 3
        assert len(GridPlan(InputSubset(Fourier(1), (0,)), 2).names) == 2
        assert len(GridPlan(spec, 2).names) == 6

    def test_polynomial_no_interactions(self):
        assert len(GridPlan(Polynomial(3, include_interactions=False), 2).names) == 7

    def test_pde(self):
        spec = PDE(4, ("x",), Polynomial(2, include_bias=False))
        # 4 derivative orders x 1 state x (1 + 2 functions) + 2 functions
        assert len(GridPlan(spec, 1).names) == 14

    @pytest.mark.parametrize(
        "spec",
        [
            Polynomial(3),
            Polynomial(2, include_bias=False, include_interactions=False),
            Fourier(2, include_cos=False),
            Custom((("exp", np.exp), ("abs", np.abs))),
            Concat((Polynomial(1), Fourier(1))),
            Tensor(Polynomial(1, include_bias=False), Fourier(1)),
            InputSubset(Polynomial(2), (1,)),
        ],
    )
    def test_width_matches_evaluation(self, spec):
        rng = np.random.default_rng(3)
        ds = pointwise_dataset(rng.standard_normal((7, 2)))
        got = library_design(spec, ds, FD)
        assert got.n_features == len(GridPlan(spec, 2).names)
        assert len(set(got.feature_names)) == got.n_features


class TestPointwise:
    def test_polynomial_row(self):
        row = evaluate_pointwise(Polynomial(2), np.array([2.0, 3.0]))
        np.testing.assert_array_equal(row, [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])

    def test_polynomial_names(self):
        ds = pointwise_dataset(np.array([[2.0, 3.0], [2.0, 3.0]]))
        got = library_design(Polynomial(2), ds, FD)
        assert got.feature_names == ("1", "q0", "q1", "q0^2", "q0 q1", "q1^2")
        np.testing.assert_array_equal(got.theta[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])

    def test_poly_on_unit_vector(self):
        row = evaluate_pointwise(Polynomial(2), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(row, [1.0, 1.0, 0.0, 1.0, 0.0, 0.0])

    def test_fourier_at_half_pi(self):
        row = evaluate_pointwise(Fourier(1), np.array([np.pi / 2]))
        assert abs(row[0] - 1.0) < 1e-12
        assert abs(row[1]) < 1e-12

    def test_agreement_with_evaluate(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((100, 3))
        spec = Concat((Polynomial(2), Fourier(2), Custom((("exp", np.exp),))))
        got = library_design(spec, pointwise_dataset(X), FD)
        for i in range(X.shape[0]):
            row = evaluate_pointwise(spec, X[i])
            np.testing.assert_array_equal(row, got.theta[i])

    def test_rejects_derivative_specs(self):
        with pytest.raises(SpecError):
            evaluate_pointwise(PDE(1, ("x",)), np.array([1.0]))

    def test_controls_are_appended_inputs(self):
        row = evaluate_pointwise(
            Polynomial(1), np.array([2.0]), control_row=np.array([5.0])
        )
        np.testing.assert_array_equal(row, [1.0, 2.0, 5.0])


class TestCombinators:
    def test_concat_is_bit_identical_to_parts(self):
        rng = np.random.default_rng(5)
        ds = pointwise_dataset(rng.standard_normal((9, 2)))
        a, b = Polynomial(2), Fourier(1)
        got = library_design(Concat((a, b)), ds, FD)
        fa, fb = library_design(a, ds, FD), library_design(b, ds, FD)
        np.testing.assert_array_equal(got.theta, np.hstack([fa.theta, fb.theta]))
        assert got.feature_names == fa.feature_names + fb.feature_names

    def test_tensor_products(self):
        rng = np.random.default_rng(6)
        ds = pointwise_dataset(rng.standard_normal((8, 2)))
        left, right = Polynomial(1, include_bias=False), Fourier(1)
        got = library_design(Tensor(left, right), ds, FD)
        fl, fr = library_design(left, ds, FD), library_design(right, ds, FD)
        k = 0
        for i in range(fl.n_features):
            for j in range(fr.n_features):
                np.testing.assert_array_equal(
                    got.theta[:, k], fl.theta[:, i] * fr.theta[:, j]
                )
                assert got.feature_names[k] == f"{fl.feature_names[i]} {fr.feature_names[j]}"
                k += 1

    def test_input_subset_equals_restriction(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 3))
        got_sub = library_design(InputSubset(Polynomial(2), (0, 2)), pointwise_dataset(X), FD)
        got_restricted = library_design(Polynomial(2), pointwise_dataset(X[:, [0, 2]]), FD)
        np.testing.assert_array_equal(got_sub.theta, got_restricted.theta)

    def test_subset_of_a_bias_free_polynomial_validates(self):
        # it has no columns on no inputs, and one on the input it picks
        validate(InputSubset(Polynomial(1, include_bias=False), (2,)))

    def test_subset_of_pde_rejected(self):
        with pytest.raises(SpecError):
            InputSubset(PDE(1, ("x",)), (0,)).validate()

    def test_negative_weak_seed_rejected(self):
        # it used to reach numpy's generator as a bare ValueError
        with pytest.raises(SpecError, match="seed must be >= 0, got -1"):
            WeakPDE(inner=Polynomial(1), subdomain_size=5, seed=-1).validate()

    def test_weak_cannot_nest(self):
        weak = WeakPDE(inner=Polynomial(1), subdomain_size=5)
        with pytest.raises(SpecError):
            Concat((weak, Polynomial(1))).validate()


    @pytest.mark.parametrize(
        "spec",
        [
            WeakPDE(inner=WeakPDE(inner=Polynomial(1), subdomain_size=5), subdomain_size=5),
            Tensor(Polynomial(1), WeakPDE(inner=Polynomial(1), subdomain_size=5)),
            WeakPDE(inner=Concat((PDE(1, ("x",)), Polynomial(1))), subdomain_size=5),
            InputSubset(Concat((Polynomial(1), PDE(1, ("x",)))), (0,)),
            PDE(1, ("x",), Tensor(Polynomial(1), InputSubset(Polynomial(1), (0,)))),
        ],
        ids=["weak-in-weak", "weak-in-tensor", "weak-over-concat-pde", "subset-of-pde",
             "bias-product-in-multiply-by"],
    )
    def test_structure_rejected_by_validation(self, spec):
        with pytest.raises(SpecError):
            validate(spec)


class TestDuplicateNames:
    """A spec that repeats a column name is rejected by its plan, before any
    value or derivative is computed."""

    def test_validate(self):
        with pytest.raises(SpecError, match="duplicate feature names"):
            validate(Concat((Polynomial(1), Polynomial(1))))

    def test_grid_plan(self):
        with pytest.raises(SpecError, match=r"duplicate feature names: \['1', 'q0'\]"):
            GridPlan(Concat((Polynomial(1), Polynomial(1))), 1)

    def test_names_that_repeat_only_on_inputs(self):
        spec = Concat((Polynomial(1, include_bias=False), Fourier(1), Polynomial(1, False)))
        validate(spec)  # on no inputs the parts name no columns
        with pytest.raises(SpecError, match="duplicate feature names"):
            GridPlan(spec, 2)


class TestPDELibrary:
    def test_spectral_second_derivative_column(self):
        x = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
        t = np.arange(3.0)
        states = np.repeat(np.sin(x)[:, None], 3, axis=1)[:, :, None]
        ds = Dataset(grid=Grid(t, (x,)), states=states)
        spec = PDE(2, ("x",), Polynomial(1, include_bias=False), diff=Spectral())
        got = library_design(spec, ds, FD)
        col = got.theta[:, got.feature_names.index("q0_xx")]
        expected = np.repeat(-np.sin(x), 3)
        assert np.abs(col - expected).max() <= 1e-8

    def test_column_order_groups_by_derivative_order(self):
        spec = PDE(2, ("x",), Polynomial(1, include_bias=False))
        x = np.linspace(0, 1, 8)
        ds = Dataset(
            grid=Grid(np.arange(2.0), (x,)),
            states=np.random.default_rng(0).standard_normal((8, 2, 1)),
        )
        got = library_design(spec, ds, FD)
        assert got.feature_names == ("q0_x", "q0 q0_x", "q0_xx", "q0 q0_xx", "q0")

    def test_bias_in_multiply_by_rejected(self):
        with pytest.raises(SpecError):
            PDE(1, ("x",), Polynomial(1, include_bias=True)).validate()

    @pytest.mark.parametrize(
        "method", [SavitzkyGolay(7, 1), FiniteDifference(order=3), Spectral(-1.0)],
        ids=["sg-poly-order", "fd-odd-order", "spectral-strength"],
    )
    def test_malformed_diff_override_rejected(self, method):
        with pytest.raises(SpecError):
            validate(PDE(2, ("t",), diff=method))
        with pytest.raises(SpecError):
            GridPlan(PDE(2, ("t",), diff=method), 1)

    def test_diff_override_checked_at_the_block_order(self):
        # a degree-2 fit cannot give the third derivative the block asks for
        with pytest.raises(SpecError, match="derivative order 3"):
            validate(PDE(3, ("x",), diff=SavitzkyGolay(7, 2)))
        validate(PDE(2, ("x",), diff=SavitzkyGolay(7, 2)))

    @pytest.mark.parametrize(
        "multiply_by",
        [
            PDE(1, ("x",)),
            Concat((Polynomial(1, include_bias=False), PDE(1, ("x",)))),
            Tensor(Fourier(1), PDE(2, ("x",))),
        ],
    )
    def test_derivative_multiply_by_rejected_by_validation(self, multiply_by):
        spec = PDE(1, ("x",), multiply_by=multiply_by)
        with pytest.raises(SpecError, match="derivative-free"):
            validate(spec)
        with pytest.raises(SpecError, match="derivative-free"):
            GridPlan(spec, 1)

    def test_time_axis_derivatives_for_implicit_libraries(self):
        t = np.linspace(0.0, 1.0, 50)
        states = (t**2)[:, None]
        ds = Dataset(grid=Grid(t), states=states)
        spec = PDE(1, ("t",))
        got = library_design(spec, ds, FiniteDifference(order=4))
        assert got.feature_names == ("q0_t",)
        np.testing.assert_allclose(got.theta[:, 0], 2 * t, atol=1e-9)

    def test_mixed_axes_names(self):
        x = np.linspace(0, 1, 6)
        y = np.linspace(0, 1, 7)
        ds = Dataset(
            grid=Grid(np.arange(2.0), (x, y)),
            states=np.zeros((6, 7, 2, 1)) + 1.0,
        )
        got = library_design(PDE(2, ("x", "y")), ds, FD)
        assert got.feature_names == ("q0_x", "q0_y", "q0_xx", "q0_xy", "q0_yy")

    def test_missing_spatial_axis(self):
        ds = Dataset(grid=Grid(np.arange(5.0)), states=np.ones((5, 1)))
        with pytest.raises(Exception):
            library_design(PDE(1, ("x",)), ds, FD)


class TestWeakForm:
    def test_constant_field_annihilated(self):
        x = np.linspace(0.0, 1.0, 40)
        t = np.linspace(0.0, 1.0, 30)
        ds = Dataset(grid=Grid(t, (x,)), states=np.full((40, 30, 1), 3.14))
        spec = WeakPDE(
            inner=PDE(2, ("x",), Polynomial(2, include_bias=False)),
            n_subdomains=7,
            test_poly_order=3,
            subdomain_size=(12, 9),
            seed=42,
        )
        got = library_design(spec, ds, FD)
        scale = np.abs(got.theta).max()
        assert np.abs(got.targets).max() <= 1e-12 * max(scale, 1.0)
        for name in got.feature_names:
            col = got.theta[:, got.feature_names.index(name)]
            if "_x" in name:
                assert np.abs(col).max() <= 1e-12 * max(scale, 1.0), name

    def test_integration_by_parts_identity_order_h2(self):
        # -integral(phi_x q) matches integral(phi q_x) to O(h^2): halving the
        # spacing cuts the discrepancy by about 4 (test function order 2
        # keeps the leading trapezoid term alive)
        def discrepancy(nx):
            x = np.linspace(0.0, 1.0, nx)
            q = np.exp(1.3 * x)
            dq = 1.3 * np.exp(1.3 * x)
            _, vecs = _weak_axis_vectors(x, _bump_polynomials(2, 1))
            return abs(-(vecs[1] @ q) - vecs[0] @ dq)

        coarse, fine = discrepancy(101), discrepancy(201)
        assert 3.5 <= coarse / fine <= 4.5

    def test_weak_ode_row_count_and_width(self):
        t = np.linspace(0.0, 10.0, 500)
        states = np.column_stack([np.sin(t), np.cos(t)])
        ds = Dataset(grid=Grid(t), states=states)
        spec = WeakPDE(
            inner=Polynomial(2), n_subdomains=40, subdomain_size=(60,), seed=1
        )
        got = library_design(spec, ds, FD)
        assert got.theta.shape == (40, len(GridPlan(Polynomial(2), 2).names))
        assert got.targets.shape == (40, 2)

    def test_weak_lhs_matches_analytic_integral(self):
        # q(t) = sin(t): -integral(phi_t q) == integral(phi cos(t))
        t = np.linspace(0.0, 2.0, 801)
        ds = Dataset(grid=Grid(t), states=np.sin(t)[:, None])
        spec = WeakPDE(
            inner=Polynomial(1), n_subdomains=5, test_poly_order=4,
            subdomain_size=(401,), seed=3,
        )
        got = library_design(spec, ds, FD)
        # reproduce subdomain draws to integrate the analytic derivative
        rng = np.random.default_rng(3)
        for k in range(5):
            start = int(rng.integers(0, t.size - 401 + 1))
            window = t[start : start + 401]
            _, vecs = _weak_axis_vectors(window, _bump_polynomials(4, 1))
            direct = vecs[0] @ np.cos(window)
            assert abs(got.targets[k, 0] - direct) < 1e-6

    def test_subdomain_too_small(self):
        with pytest.raises(SpecError):
            WeakPDE(inner=Polynomial(1), subdomain_size=2).validate()

    def test_subdomain_exceeding_grid(self):
        t = np.linspace(0, 1, 10)
        ds = Dataset(grid=Grid(t), states=np.ones((10, 1)))
        spec = WeakPDE(inner=Polynomial(1), subdomain_size=(50,))
        with pytest.raises(SpecError):
            library_design(spec, ds, FD)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 5, 200)
        ds = Dataset(grid=Grid(t), states=rng.standard_normal((200, 1)))
        spec = WeakPDE(inner=Polynomial(2), n_subdomains=11, subdomain_size=(31,), seed=9)
        a = library_design(spec, ds, FD)
        b = library_design(spec, ds, FD)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.targets, b.targets)


class TestCustom:
    def test_registry_functions(self):
        X = np.array([[0.5, -1.0], [0.5, -1.0]])
        got = library_design(
            Custom((("exp", np.exp), ("abs", np.abs))), pointwise_dataset(X), FD
        )
        np.testing.assert_allclose(
            got.theta[0], [np.exp(0.5), np.exp(-1.0), 0.5, 1.0]
        )
        assert got.feature_names == ("exp(q0)", "exp(q1)", "abs(q0)", "abs(q1)")

    def test_registry_contents(self):
        assert "tanh" in CUSTOM_REGISTRY

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            Custom(()).validate()


@given(
    degree=st.integers(0, 3),
    bias=st.booleans(),
    interactions=st.booleans(),
    n=st.integers(1, 4),
)
@settings(max_examples=30, deadline=None)
def test_polynomial_width_property(degree, bias, interactions, n):
    spec = Polynomial(degree, include_bias=bias, include_interactions=interactions)
    rng = np.random.default_rng(degree + n)
    ds = pointwise_dataset(rng.standard_normal((5, n)))
    if degree == 0 and not bias:  # no columns on any inputs
        for planned in (lambda: GridPlan(spec, n), lambda: library_design(spec, ds)):
            with pytest.raises(SpecError, match="has no columns"):
                planned()
    else:
        assert library_design(spec, ds).n_features == len(GridPlan(spec, n).names)


# ---------------------------------------------------------------------------
# Planned evaluation against the former column-by-column evaluation
# ---------------------------------------------------------------------------


def oracle_columns(spec, X, names):
    """Pointwise columns as computed before libraries were planned: one
    ``np.prod`` per monomial and a ``column_stack`` per block."""
    m, k = X.shape
    if isinstance(spec, Polynomial):
        cols, out = [], []
        for deg in range(0 if spec.include_bias else 1, spec.degree + 1):
            if deg == 0:
                cols.append(np.ones(m))
                out.append("1")
                continue
            if spec.include_interactions:
                combos = combinations_with_replacement(range(k), deg)
            else:
                combos = ((i,) * deg for i in range(k))
            for combo in combos:
                cols.append(np.prod(X[:, combo], axis=1))
                out.append(" ".join(
                    names[i] if combo.count(i) == 1 else f"{names[i]}^{combo.count(i)}"
                    for i in sorted(set(combo))
                ))
        return np.column_stack(cols) if cols else np.empty((m, 0)), out
    if isinstance(spec, Fourier):
        cols, out = [], []
        for freq in range(1, spec.n_frequencies + 1):
            for i in range(k):
                if spec.include_sin:
                    cols.append(np.sin(freq * X[:, i]))
                    out.append(f"sin({freq} {names[i]})")
                if spec.include_cos:
                    cols.append(np.cos(freq * X[:, i]))
                    out.append(f"cos({freq} {names[i]})")
        return np.column_stack(cols), out
    if isinstance(spec, Custom):
        cols = [fn(X[:, i]) for _, fn in spec.functions for i in range(k)]
        out = [f"{name}({names[i]})" for name, _ in spec.functions for i in range(k)]
        return np.column_stack(cols), out
    if isinstance(spec, Concat):
        blocks = [oracle_columns(p, X, names) for p in spec.parts]
        return np.hstack([b[0] for b in blocks]), [n for b in blocks for n in b[1]]
    if isinstance(spec, Tensor):
        lv, ln = oracle_columns(spec.left, X, names)
        rv, rn = oracle_columns(spec.right, X, names)
        values = (lv[:, :, None] * rv[:, None, :]).reshape(m, -1)
        return values, [f"{a} {b}" for a in ln for b in rn]
    idx = list(spec.indices)
    return oracle_columns(spec.inner, X[:, idx], tuple(names[i] for i in idx))


def oracle_inputs(dataset):
    """Flattened states and controls, and their names."""
    X, U = flatten(dataset)
    inputs = X if U is None else np.hstack([X, U])
    names = tuple([f"q{i}" for i in range(dataset.n_states)]
                  + [f"u{i}" for i in range(dataset.n_controls)])
    return inputs, names


def oracle_field(dataset, axes, mu, method):
    """D^mu of the states: one ``differentiate`` call per axis and order, in
    ``axes`` order; precomputed time derivatives stand in for q_t."""
    if dataset.derivatives is not None and sum(mu) == 1 and axes[mu.index(1)] == "t":
        return dataset.derivatives
    field = dataset.states
    for ax, order in zip(axes, mu):
        if order:
            a = dataset.states.ndim - 2 if ax == "t" else "xyz".index(ax)
            coords = (dataset.grid.time_axis if ax == "t"
                      else dataset.grid.spatial_axes[a])
            field = differentiate(field, coords, method, d=order, axis=a)
    return field


def oracle_pde(spec, dataset, method):
    """PDE block as computed before: one ``differentiate`` call per axis and
    order, products column by column, then ``column_stack``."""
    inputs, names = oracle_inputs(dataset)
    m, n = inputs.shape[0], dataset.n_states
    f_vals, f_names = oracle_columns(spec.multiply_by, inputs, names)
    cols = []
    for mu in spec.multiindices():
        flat = oracle_field(dataset, spec.axes, mu, method).reshape(m, n)
        cols.extend(flat[:, j] for j in range(n))
        cols.extend(f_vals[:, i] * flat[:, j] for i in range(len(f_names)) for j in range(n))
    cols.extend(f_vals[:, i] for i in range(len(f_names)))
    return np.column_stack(cols)


def oracle_weak(spec, dataset, diff_method):
    """Weak columns, names and left-hand side as computed before libraries
    were planned as one tree: the weak form maps PDE axes to array axes and
    builds the column names itself."""
    inner = spec.inner
    grid = dataset.grid
    n = dataset.n_states
    axes_coords = list(grid.spatial_axes) + [grid.time_axis]
    n_axes = len(axes_coords)
    time_pos = n_axes - 1
    sizes = (
        (spec.subdomain_size,) * n_axes
        if isinstance(spec.subdomain_size, int)
        else tuple(spec.subdomain_size)
    )

    if isinstance(inner, PDE):
        method = inner.diff if inner.diff is not None else diff_method
        mus = inner.multiindices()
        mu_axis_orders = []
        for mu in mus:
            per_axis = [0] * n_axes
            for ax_id, order in zip(inner.axes, mu):
                per_axis[time_pos if ax_id == "t" else "xyz".index(ax_id)] = order
            mu_axis_orders.append(tuple(per_axis))
        suffixes = [inner.suffix(mu) for mu in mus]
        multiply_by = inner.multiply_by
    else:
        mus, mu_axis_orders, suffixes = [], [], []
        multiply_by = inner

    sample_shape = grid.sample_shape
    if multiply_by is not None:
        f_vals, f_names = oracle_columns(multiply_by, *oracle_inputs(dataset))
        f_fields = np.ascontiguousarray(f_vals.T).reshape(-1, *sample_shape)
    else:
        f_fields, f_names = np.empty((0, *sample_shape)), []
    n_f = len(f_names)

    if n_f and mus:
        deriv_fields = [oracle_field(dataset, inner.axes, mu, method) for mu in mus]
    else:
        deriv_fields = [None] * len(mus)

    names = []
    for suffix in suffixes:
        names.extend(f"q{j}{suffix}" for j in range(n))
        for fname in f_names:
            names.extend(f"{fname} q{j}{suffix}" for j in range(n))
    names.extend(f_names)

    max_order = max((max(orders) for orders in mu_axis_orders), default=0)
    max_order = max(max_order, 1)
    bumps = _bump_polynomials(spec.test_poly_order, max_order)
    grid_axes = list(range(n_axes))
    t_orders = tuple(1 if a == time_pos else 0 for a in grid_axes)

    rng = np.random.default_rng(spec.seed)
    values = np.empty((spec.n_subdomains, len(names)))
    lhs = np.empty((spec.n_subdomains, n))
    states = dataset.states
    for k in range(spec.n_subdomains):
        starts = [
            int(rng.integers(0, coords.size - size + 1))
            for coords, size in zip(axes_coords, sizes)
        ]
        block = tuple(slice(start, start + size) for start, size in zip(starts, sizes))
        axis_vecs = [
            _weak_axis_vectors(coords[sl], bumps) for coords, sl in zip(axes_coords, block)
        ]

        def weight_field(orders):
            out = np.array(1.0)
            for (_, vectors), r in zip(axis_vecs, orders):
                out = np.multiply.outer(out, vectors[r])
            return out

        w_phi = weight_field((0,) * n_axes)
        state_block = states[block]
        f_block = f_fields[(slice(None), *block)]
        col = 0
        for orders, field in zip(mu_axis_orders, deriv_fields):
            sign = (-1) ** sum(orders)
            values[k, col : col + n] = sign * np.tensordot(
                weight_field(orders), state_block, axes=n_axes
            )
            col += n
            if field is None:
                continue
            integrand = f_block[..., None] * field[block]
            values[k, col : col + n_f * n] = np.tensordot(
                integrand, w_phi, axes=([a + 1 for a in grid_axes], grid_axes)
            ).ravel()
            col += n_f * n
        values[k, col : col + n_f] = np.tensordot(f_block, w_phi, axes=n_axes)
        lhs[k] = -np.tensordot(weight_field(t_orders), state_block, axes=n_axes)
    return values, names, lhs


def oracle_width(spec, n_inputs, n_states):
    """Closed-form column count of ``spec``, as the package computed it
    before widths came from the plan, refusing a polynomial with no
    columns as validation now does."""
    if isinstance(spec, Polynomial):
        if spec.degree == 0 and not spec.include_bias:
            raise SpecError("a polynomial of degree 0 without its bias has no columns")
        if spec.include_interactions:
            width = comb(n_inputs + spec.degree, spec.degree) - 1
        else:
            width = n_inputs * spec.degree
        return width + (1 if spec.include_bias else 0)
    if isinstance(spec, Fourier):
        per = int(spec.include_sin) + int(spec.include_cos)
        return n_inputs * spec.n_frequencies * per
    if isinstance(spec, Custom):
        return n_inputs * len(spec.functions)
    if isinstance(spec, PDE):
        n_der = len(spec.multiindices())
        f_width = (
            0 if spec.multiply_by is None
            else oracle_width(spec.multiply_by, n_inputs, n_states)
        )
        return n_der * n_states * (1 + f_width) + f_width
    if isinstance(spec, WeakPDE):
        return oracle_width(spec.inner, n_inputs, n_states)
    if isinstance(spec, Concat):
        return sum(oracle_width(p, n_inputs, n_states) for p in spec.parts)
    if isinstance(spec, Tensor):
        return (oracle_width(spec.left, n_inputs, n_states)
                * oracle_width(spec.right, n_inputs, n_states))
    if max(spec.indices) >= n_inputs:
        raise SpecError(f"InputSubset index {max(spec.indices)} out of range")
    return oracle_width(spec.inner, len(spec.indices), len(spec.indices))


FUNCTIONS = [(name, CUSTOM_REGISTRY[name]) for name in ("exp", "tanh", "abs", "sin")]

nonpolynomial_leaf_specs = st.one_of(
    st.builds(Fourier, st.integers(1, 3), st.just(True), st.booleans()),
    st.builds(Fourier, st.integers(1, 2), st.just(False), st.just(True)),
    st.lists(st.sampled_from(FUNCTIONS), min_size=1, max_size=2, unique=True).map(
        lambda fns: Custom(tuple(fns))
    ),
)
leaf_specs = (
    st.builds(Polynomial, st.integers(0, 4), st.booleans(), st.booleans())
    | nonpolynomial_leaf_specs
)


# the same leaves without a bias column, as ``multiply_by`` factors need
nobias_leaf_specs = (
    st.builds(Polynomial, st.integers(1, 3), st.just(False), st.booleans())
    | nonpolynomial_leaf_specs
)


def free_specs(k, leaves=leaf_specs):
    """Derivative-free specs over ``k`` inputs, nested up to three leaves."""
    subsets = st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(lambda ps: Concat(tuple(ps))),
            st.builds(Tensor, inner, inner),
            st.builds(InputSubset, inner, subsets.map(tuple)),
        ),
        max_leaves=3,
    )


@st.composite
def pointwise_cases(draw):
    """A derivative-free spec over ``n`` states and ``r`` controls."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    return draw(free_specs(n + r)), n, r, draw(st.integers(0, 10_000))


def plannable(spec, n_inputs, n_states):
    """Whether nested subsets of ``spec`` stay inside the inputs they get and
    each of its polynomials has a column."""
    try:
        oracle_width(spec, n_inputs, n_states)
    except SpecError:
        return False
    return True


class TestPlanParity:
    @given(case=pointwise_cases())
    @settings(max_examples=150)
    def test_rows_equal_grid_and_former_columns(self, case):
        spec, n, r, seed = case
        assume(plannable(spec, n + r, n))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((9, n + r)) * rng.uniform(0.1, 3.0, n + r)
        names = tuple([f"q{i}" for i in range(n)] + [f"u{i}" for i in range(r)])
        expected, expected_names = oracle_columns(spec, X, names)
        assume(len(set(expected_names)) == len(expected_names))
        controls = X[:, n:] if r else None
        got = library_design(spec, pointwise_dataset(X[:, :n], controls), FD)
        assert got.feature_names == tuple(expected_names)
        np.testing.assert_array_equal(got.theta, expected)
        for i in range(X.shape[0]):
            row = evaluate_pointwise(spec, X[i, :n], X[i, n:] if r else None)
            np.testing.assert_array_equal(row, got.theta[i])

    def test_weak_ode_library_plans_its_inner_library(self):
        row = np.array([0.5, -1.5, 2.0])
        inner = Polynomial(2)
        np.testing.assert_array_equal(
            evaluate_pointwise(WeakPDE(inner=inner, subdomain_size=5), row),
            evaluate_pointwise(inner, row),
        )
        with pytest.raises(SpecError):
            evaluate_pointwise(WeakPDE(inner=PDE(1, ("x",)), subdomain_size=5), row)


def periodic_field(nx, nt, n_states, seed):
    """Smooth random states on a periodic x axis, shape (nx, nt, n)."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2 * np.pi, nx, endpoint=False)
    t = np.linspace(0.0, 1.0, nt)
    states = np.zeros((nx, nt, n_states))
    for mode in range(1, 5):
        a = rng.standard_normal((1, nt, n_states))
        states += a * np.sin(mode * x + rng.uniform(0, 6))[:, None, None] / mode
    return x, t, states


class TestPDEParity:
    def test_ks_canonical_library(self):
        x, t, states = periodic_field(64, 20, 1, seed=4)
        ds = Dataset(grid=Grid(t, (x,)), states=states)
        spec = canonical_library(KS())
        got = library_design(spec, ds, FD)
        assert got.theta.flags.c_contiguous
        np.testing.assert_array_equal(got.theta, oracle_pde(spec, ds, spec.diff))

    @pytest.mark.parametrize("method", [FiniteDifference(order=4), Spectral(2.0)])
    def test_mixed_axes_with_precomputed_time_derivatives(self, method):
        # prefixes of mixed derivatives must be differentiated numerically
        # even where a precomputed first time derivative stands in for q_t
        rng = np.random.default_rng(5)
        x = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        y = np.linspace(0, 2 * np.pi, 10, endpoint=False)
        t = np.linspace(0, 1, 9)
        ds = Dataset(
            grid=Grid(t, (x, y)),
            states=rng.standard_normal((12, 10, 9, 2)),
            derivatives=rng.standard_normal((12, 10, 9, 2)),
            controls=rng.standard_normal((12, 10, 9, 1)),
        )
        spec = PDE(3, ("t", "y", "x"), Polynomial(2, include_bias=False), diff=method)
        got = library_design(spec, ds, FD)
        np.testing.assert_array_equal(got.theta, oracle_pde(spec, ds, method))


class TestWeakProperties:
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(3, 60),
        p=st.integers(2, 8),
        max_order=st.integers(1, 3),
    )
    @settings(max_examples=80)
    def test_derivative_weights_annihilate_constants(self, seed, size, p, max_order):
        rng = np.random.default_rng(seed)
        coords = np.cumsum(rng.uniform(0.05, 2.0, size)) + rng.uniform(-5, 5)
        w, vectors = _weak_axis_vectors(coords, _bump_polynomials(p, max_order))
        assert len(vectors) == max_order + 1
        np.testing.assert_allclose(w.sum(), coords[-1] - coords[0], rtol=1e-12)
        for v in vectors[1:]:
            assert abs(v.sum()) <= 1e-12 * np.linalg.norm(v)

    @given(
        value=st.floats(-10.0, 10.0),
        order=st.integers(1, 3),
        p=st.integers(2, 6),
        sizes=st.tuples(st.integers(5, 12), st.integers(3, 8)),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30)
    def test_constant_field_has_zero_derivative_columns_and_lhs(
        self, value, order, p, sizes, seed
    ):
        x = np.cumsum(np.random.default_rng(seed).uniform(0.5, 1.5, 16))
        t = np.linspace(0.0, 1.0, 10)
        ds = Dataset(grid=Grid(t, (x,)), states=np.full((16, 10, 1), value))
        spec = WeakPDE(
            inner=PDE(order, ("x",), Polynomial(2, include_bias=False)),
            n_subdomains=5, test_poly_order=p, subdomain_size=sizes, seed=seed,
        )
        got = library_design(spec, ds, FD)
        scale = max(np.abs(got.theta).max(), 1.0)
        assert np.abs(got.targets).max() <= 1e-12 * scale
        pure = [i for i, name in enumerate(got.feature_names) if " " not in name and "_" in name]
        assert len(pure) == order
        assert np.abs(got.theta[:, pure]).max() <= 1e-12 * scale


def random_dataset(rng, n_spatial, n, r, derivatives):
    """Random states (and controls, precomputed q_t) on ``n_spatial`` axes
    of 6-8 points and a nonuniform time axis of 9 points."""
    spatial = tuple(np.cumsum(rng.uniform(0.5, 1.5, rng.integers(6, 9)))
                    for _ in range(n_spatial))
    t = np.cumsum(rng.uniform(0.5, 1.5, 9))
    shape = tuple(len(ax) for ax in spatial) + (t.size,)
    return Dataset(
        grid=Grid(t, spatial),
        states=rng.standard_normal((*shape, n)),
        controls=rng.standard_normal((*shape, r)) if r else None,
        derivatives=rng.standard_normal((*shape, n)) if derivatives else None,
    )


def pde_specs(k, letters):
    """Single PDE blocks along some of ``letters``, with or without a
    derivative-free ``multiply_by`` over ``k`` inputs."""
    return st.builds(
        PDE,
        st.integers(1, 3),
        st.lists(st.sampled_from(letters), min_size=1, unique=True).map(tuple),
        st.none() | free_specs(k, nobias_leaf_specs),
    )


@st.composite
def weak_cases(draw):
    """A weak-form spec and a random dataset with 0-2 spatial axes."""
    n_spatial, n, r = draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    ds = random_dataset(rng, n_spatial, n, r, derivatives=draw(st.booleans()))
    letters = AXIS_LETTERS[:n_spatial] + ("t",)
    inner = draw(free_specs(n + r) | pde_specs(n + r, letters))
    sizes = tuple(draw(st.integers(3, length)) for length in ds.grid.sample_shape)
    spec = WeakPDE(inner, n_subdomains=draw(st.integers(1, 4)),
                   test_poly_order=draw(st.integers(2, 5)),
                   subdomain_size=sizes, seed=draw(st.integers(0, 100)))
    return spec, ds


class TestWeakParity:
    @given(case=weak_cases())
    @settings(max_examples=120)
    def test_values_names_and_lhs_equal_former_weak_form(self, case):
        spec, ds = case
        assume(plannable(spec, ds.n_states + ds.n_controls, ds.n_states))
        values, names, lhs = oracle_weak(spec, ds, FD)
        assume(len(set(names)) == len(names))
        got = library_design(spec, ds, FD)
        assert got.feature_names == tuple(names)
        np.testing.assert_array_equal(got.theta, values)
        np.testing.assert_array_equal(got.targets, lhs)

    def test_spectral_override_on_two_spatial_axes(self):
        x = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        y = np.linspace(0, 2 * np.pi, 10, endpoint=False)
        t = np.linspace(0, 1, 9)
        rng = np.random.default_rng(8)
        ds = Dataset(grid=Grid(t, (x, y)), states=rng.standard_normal((12, 10, 9, 2)),
                     derivatives=rng.standard_normal((12, 10, 9, 2)))
        inner = PDE(2, ("y", "t", "x"), Polynomial(2, include_bias=False), diff=Spectral(2.0))
        spec = WeakPDE(inner, n_subdomains=6, subdomain_size=(5, 6, 4), seed=2)
        values, names, lhs = oracle_weak(spec, ds, FD)
        got = library_design(spec, ds, FD)
        assert got.feature_names == tuple(names)
        np.testing.assert_array_equal(got.theta, values)
        np.testing.assert_array_equal(got.targets, lhs)


@st.composite
def chunked_weak_cases(draw):
    """A weak case of ``weak_cases`` with 7-12 subdomains, and how many
    subdomains a chunk holds: one to three, or None for the default
    ``BLOCK_BYTES``."""
    spec, ds = draw(weak_cases())
    spec = replace(spec, n_subdomains=draw(st.integers(7, 12)))
    return spec, ds, draw(st.sampled_from([1, 2, 3, None]))


class TestWeakChunks:
    """The weak form is computed a chunk of subdomains at a time; every row
    has the bits of its subdomain computed alone, whatever the chunk."""

    @given(case=chunked_weak_cases())
    @settings(max_examples=120)
    def test_rows_equal_former_weak_form_for_any_chunk(self, case):
        spec, ds, per_chunk = case
        assume(plannable(spec, ds.n_states + ds.n_controls, ds.n_states))
        values, names, lhs = oracle_weak(spec, ds, FD)
        assume(len(set(names)) == len(names))
        plan = GridPlan(spec, ds.n_states, ds.n_controls)
        nbytes = optimize.BLOCK_BYTES
        if per_chunk is not None:
            nbytes = per_chunk * _subdomain_bytes(plan, int(np.prod(spec.subdomain_size)))
        chunks = []
        axis_vectors = library._weak_axis_vectors

        def spy(coords, bumps):
            chunks.append(coords.shape[0])
            return axis_vectors(coords, bumps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "BLOCK_BYTES", nbytes)
            mp.setattr(library, "_weak_axis_vectors", spy)
            got = _weak_columns(plan, ds, FD)
        n_axes = len(spec.subdomain_size)
        assert sum(chunks[::n_axes]) == spec.n_subdomains
        if per_chunk is not None:
            assert max(chunks) == per_chunk
        np.testing.assert_array_equal(got, np.hstack([values, lhs]))

    def test_peak_below_the_rows_and_two_chunks(self):
        # 2000 subdomains of 301 points of a Polynomial(2) weak form on three
        # states: computed at once, their windows would take 72 MB
        t = np.linspace(0.0, 20.0, 2001)
        states = np.column_stack([np.sin(t), np.cos(1.3 * t), np.sin(0.7 * t) ** 2])
        ds = Dataset(grid=Grid(t), states=states)
        spec = WeakPDE(Polynomial(2), n_subdomains=2000, subdomain_size=(301,), seed=4)
        plan = GridPlan(spec, 3)
        assert 2000 * _subdomain_bytes(plan, 301) > 70e6
        rows_bytes = 2000 * (10 + 3) * 8
        _weak_columns(plan, ds, FD)  # first-call set-up is not the design's
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            _weak_columns(plan, ds, FD)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < rows_bytes + 2 * optimize.BLOCK_BYTES


@st.composite
def width_cases(draw):
    """A spec of any kind, derivative factors included, on an x-t grid."""
    n, r = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    free, pde = free_specs(n + r), pde_specs(n + r, ("x", "t"))
    combined = st.recursive(
        free | pde,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(lambda ps: Concat(tuple(ps))),
            st.builds(Tensor, inner, inner),
        ),
        max_leaves=3,
    )
    weak = st.builds(WeakPDE, free | pde, st.just(2), st.just(4), st.just(3))
    spec = draw(combined | weak)
    ds = random_dataset(np.random.default_rng(draw(st.integers(0, 10_000))), 1, n, r,
                        derivatives=False)
    return spec, ds


@given(case=width_cases())
@settings(max_examples=150)
def test_width_equals_closed_form_and_evaluation(case):
    spec, ds = case
    n, k = ds.n_states, ds.n_states + ds.n_controls
    assume(plannable(spec, k, n))
    width = oracle_width(spec, k, n)
    try:
        planned = len(GridPlan(spec, n, k - n).names)
    except SpecError as exc:  # the spec repeats a column
        assume("duplicate feature names" not in str(exc))
        raise
    assert planned == width
    assert width == 0 or library_design(spec, ds, FD).n_features == width

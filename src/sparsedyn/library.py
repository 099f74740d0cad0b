"""Candidate feature libraries: build the regression matrix and column names.

Inputs to a library are the state variables followed by any control variables
(names ``q0..q{n-1}``, ``u0..u{r-1}``).  Derivative columns carry suffixes
built from axis letters (``q0_xx``, ``q0_t``); product names join factors with
a single space (``q0 q0_x``).  Column order is deterministic and documented
per variant, and ``predict_width`` always matches what ``evaluate`` produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iproduct
from math import comb
from typing import Callable, Union

import numpy as np

from .data import Dataset, flatten
from .diff import DiffMethod, _differentiate_orders
from .errors import DataError, SpecError

AXIS_LETTERS = ("x", "y", "z")


@dataclass(frozen=True)
class Polynomial:
    """Monomials up to ``degree``; interactions add cross terms.

    Column order follows the usual convention: degree ascending, and within a
    degree the index-sorted combinations (bias, q0, q1, q0^2, q0 q1, q1^2...).
    """

    degree: int = 2
    include_bias: bool = True
    include_interactions: bool = True

    def validate(self) -> None:
        if self.degree < 0:
            raise SpecError(f"polynomial degree must be >= 0, got {self.degree}")


@dataclass(frozen=True)
class Fourier:
    """sin/cos of integer frequencies 1..n_frequencies per input variable."""

    n_frequencies: int = 1
    include_sin: bool = True
    include_cos: bool = True

    def validate(self) -> None:
        if self.n_frequencies < 1:
            raise SpecError(f"n_frequencies must be >= 1, got {self.n_frequencies}")
        if not (self.include_sin or self.include_cos):
            raise SpecError("Fourier library needs sin or cos enabled")


# Scalar functions available to JSON-configured custom libraries.
CUSTOM_REGISTRY: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.exp,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class Custom:
    """Named scalar functions, each applied to every input variable.

    ``functions`` holds (name, callable) pairs; names from ``CUSTOM_REGISTRY``
    round-trip through JSON, arbitrary callables are code-only.
    """

    functions: tuple[tuple[str, Callable], ...]

    def validate(self) -> None:
        if not self.functions:
            raise SpecError("custom library needs at least one function")


@dataclass(frozen=True)
class PDE:
    """Derivative features: pure derivatives, function-derivative products,
    and the plain ``multiply_by`` functions.

    ``axes`` names the differentiated grid axes ("x", "y", "z" for spatial
    axes 0..2, "t" for time — the latter is what implicit libraries use).
    Columns are grouped by derivative multi-index (total order ascending):
    for each index first the pure derivatives of every state, then the
    products with every ``multiply_by`` function; the ``multiply_by`` columns
    themselves close the library.  ``diff`` optionally overrides the
    differentiation method used for these columns (e.g. spectral space
    derivatives while targets use a smoother).
    """

    derivative_order: int = 1
    axes: tuple[str, ...] = ("x",)
    multiply_by: Union["LibrarySpec", None] = None
    diff: DiffMethod | None = None

    def validate(self) -> None:
        if self.derivative_order < 1:
            raise SpecError(
                f"derivative_order must be >= 1, got {self.derivative_order}"
            )
        if not self.axes:
            raise SpecError("PDE library needs at least one axis")
        for ax in self.axes:
            if ax != "t" and ax not in AXIS_LETTERS:
                raise SpecError(f"unknown axis id {ax!r} (use x, y, z or t)")
        if len(set(self.axes)) != len(self.axes):
            raise SpecError("duplicate axis in PDE library")
        if self.multiply_by is not None:
            validate(self.multiply_by)
            if _has_bias(self.multiply_by):
                raise SpecError(
                    "multiply_by must not include a bias column (it would "
                    "duplicate the pure derivative columns)"
                )

    def multiindices(self) -> list[tuple[int, ...]]:
        D, A = self.derivative_order, len(self.axes)
        out = [
            mu
            for mu in iproduct(*(range(D + 1),) * A)
            if 1 <= sum(mu) <= D
        ]
        # total order ascending; within an order, earlier axes differentiate
        # first (q0_xx, q0_xy, q0_yy)
        out.sort(key=lambda mu: (sum(mu), tuple(-c for c in mu)))
        return out

    def suffix(self, mu: tuple[int, ...]) -> str:
        return "_" + "".join(ax * k for ax, k in zip(self.axes, mu))


@dataclass(frozen=True)
class WeakPDE:
    """Integral (weak) form of an inner library over random subdomains.

    One row per subdomain.  The test function is the separable bump
    ``prod_a (1 - zeta_a^2)^p`` on the subdomain rescaled to [-1, 1] per axis
    (all axes, time included), which vanishes at the subdomain boundary so
    integration by parts drops boundary terms.  Pure derivative columns are
    integrated by parts onto the test function; function-derivative products
    keep the numerically differentiated factor and are smoothed by the
    integral.  Quadrature is the trapezoidal rule on the grid points of the
    subdomain, with derivative weights mean-corrected so that, like the
    continuous operator, they annihilate constant fields exactly.
    Evaluation also produces the matching left-hand side -integral(phi_t q).

    ``subdomain_size`` counts grid points per axis (spatial axes first, then
    time); a single int applies to every axis.
    """

    inner: "LibrarySpec"
    n_subdomains: int = 100
    test_poly_order: int = 4
    subdomain_size: tuple[int, ...] | int = 20
    seed: int = 0

    def validate(self) -> None:
        validate(self.inner)
        if _is_weak(self.inner):
            raise SpecError("weak-form specs cannot be nested")
        if not isinstance(self.inner, PDE) and _has_derivatives(self.inner):
            raise SpecError(
                "weak inner spec must be a single PDE block (with multiply_by "
                "factors) or a derivative-free library"
            )
        if self.n_subdomains < 1:
            raise SpecError(f"n_subdomains must be >= 1, got {self.n_subdomains}")
        if self.test_poly_order < 2:
            raise SpecError(
                f"test_poly_order must be >= 2, got {self.test_poly_order}"
            )
        sizes = (
            (self.subdomain_size,)
            if isinstance(self.subdomain_size, int)
            else tuple(self.subdomain_size)
        )
        if any(s < 3 for s in sizes):
            raise SpecError("subdomains need at least 3 grid points per axis")


@dataclass(frozen=True)
class Concat:
    """Columns of every part, in order."""

    parts: tuple["LibrarySpec", ...]

    def validate(self) -> None:
        if not self.parts:
            raise SpecError("Concat needs at least one part")
        for part in self.parts:
            validate(part)
            if _is_weak(part):
                raise SpecError("weak-form specs cannot be combined; use them top-level")


@dataclass(frozen=True)
class Tensor:
    """All pairwise products: column (i, j) is left_i * right_j (left-major)."""

    left: "LibrarySpec"
    right: "LibrarySpec"

    def validate(self) -> None:
        for part in (self.left, self.right):
            validate(part)
            if _is_weak(part):
                raise SpecError("weak-form specs cannot be combined; use them top-level")


@dataclass(frozen=True)
class InputSubset:
    """Evaluate the inner (non-derivative) spec on a subset of the inputs."""

    inner: "LibrarySpec"
    indices: tuple[int, ...]

    def validate(self) -> None:
        validate(self.inner)
        if _has_derivatives(self.inner):
            raise SpecError("InputSubset only applies to non-derivative libraries")
        if len(set(self.indices)) != len(self.indices) or not self.indices:
            raise SpecError("InputSubset indices must be nonempty and unique")
        if any(i < 0 for i in self.indices):
            raise SpecError("InputSubset indices must be non-negative")


LibrarySpec = Union[Polynomial, Fourier, Custom, PDE, WeakPDE, Concat, Tensor, InputSubset]


@dataclass(frozen=True)
class FeatureMatrix:
    """Evaluated candidate library: values, symbolic names, provenance.

    Weak-form evaluations additionally carry the left-hand-side vector
    (one column per state) matching the rows of ``values``.
    """

    values: np.ndarray
    names: tuple[str, ...]
    provenance: LibrarySpec
    weak_lhs: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        if values.ndim != 2 or values.shape[1] != len(self.names):
            raise SpecError(
                f"feature matrix shape {values.shape} does not match "
                f"{len(self.names)} names"
            )
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in self.names if list(self.names).count(n) > 1})
            raise SpecError(f"duplicate feature names: {dupes}")
        if not np.all(np.isfinite(values)):
            raise DataError("feature matrix contains non-finite entries")

    @property
    def width(self) -> int:
        return self.values.shape[1]


def validate(spec: LibrarySpec) -> None:
    spec.validate()


def _is_weak(spec: LibrarySpec) -> bool:
    return isinstance(spec, WeakPDE)


def _has_derivatives(spec: LibrarySpec) -> bool:
    if isinstance(spec, (PDE, WeakPDE)):
        return True
    if isinstance(spec, Concat):
        return any(_has_derivatives(p) for p in spec.parts)
    if isinstance(spec, Tensor):
        return _has_derivatives(spec.left) or _has_derivatives(spec.right)
    if isinstance(spec, InputSubset):
        return _has_derivatives(spec.inner)
    return False


def _has_bias(spec: LibrarySpec) -> bool:
    if isinstance(spec, Polynomial):
        return spec.include_bias
    if isinstance(spec, Concat):
        return any(_has_bias(p) for p in spec.parts)
    if isinstance(spec, Tensor):
        return _has_bias(spec.left) and _has_bias(spec.right)
    if isinstance(spec, InputSubset):
        return _has_bias(spec.inner)
    return False


# ---------------------------------------------------------------------------
# Width prediction
# ---------------------------------------------------------------------------


def predict_width(spec: LibrarySpec, n_inputs: int, n_states: int | None = None) -> int:
    """Exact number of columns ``evaluate`` will produce.

    ``n_inputs`` counts states plus controls; ``n_states`` (defaults to
    ``n_inputs``) is what derivative features apply to.
    """
    validate(spec)
    if n_states is None:
        n_states = n_inputs
    if isinstance(spec, Polynomial):
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
            0
            if spec.multiply_by is None
            else predict_width(spec.multiply_by, n_inputs, n_states)
        )
        return n_der * n_states * (1 + f_width) + f_width
    if isinstance(spec, WeakPDE):
        return predict_width(spec.inner, n_inputs, n_states)
    if isinstance(spec, Concat):
        return sum(predict_width(p, n_inputs, n_states) for p in spec.parts)
    if isinstance(spec, Tensor):
        return predict_width(spec.left, n_inputs, n_states) * predict_width(
            spec.right, n_inputs, n_states
        )
    if isinstance(spec, InputSubset):
        if max(spec.indices) >= n_inputs:
            raise SpecError(
                f"InputSubset index {max(spec.indices)} out of range for "
                f"{n_inputs} inputs"
            )
        return predict_width(spec.inner, len(spec.indices))
    raise SpecError(f"unknown library spec {spec!r}")


# ---------------------------------------------------------------------------
# Pointwise evaluation on a samples-by-inputs matrix
# ---------------------------------------------------------------------------

# Writes a library's values for an (m, k) input matrix into an (m, width) out.
_Fill = Callable[[np.ndarray, np.ndarray], None]


def _plan(spec: LibrarySpec, names: tuple[str, ...]) -> tuple[list[str], _Fill]:
    """Column names of a derivative-free ``spec`` on inputs ``names``, and
    the function that computes its values."""
    k = len(names)
    if isinstance(spec, Polynomial):
        bias, linear = spec.include_bias, spec.degree >= 1
        out = (["1"] if bias else []) + (list(names) if linear else [])
        # Each degree-d monomial is its degree-(d-1) parent times its last
        # input, the same left-to-right product as np.prod over the combo.
        recipes, level = [], [(i,) for i in range(k)]
        for deg in range(2, spec.degree + 1):
            if spec.include_interactions:
                combos = list(combinations_with_replacement(range(k), deg))
            else:
                combos = [(i,) * deg for i in range(k)]
            parent = {combo: j for j, combo in enumerate(level)}
            recipes.append((
                np.array([parent[c[:-1]] for c in combos]),
                np.array([c[-1] for c in combos]),
            ))
            out += [_monomial_name(c, names) for c in combos]
            level = combos

        def fill(X: np.ndarray, values: np.ndarray) -> None:
            c = int(bias)
            if bias:
                values[:, 0] = 1.0
            if linear:
                prev = values[:, c : c + k]
                prev[...] = X
                c += k
            for parents, last in recipes:
                block = values[:, c : c + parents.size]
                np.multiply(prev[:, parents], X[:, last], out=block)
                prev, c = block, c + parents.size

        return out, fill
    if isinstance(spec, Fourier):
        terms, out = [], []
        for freq in range(1, spec.n_frequencies + 1):
            for i in range(k):
                for on, fn in ((spec.include_sin, np.sin), (spec.include_cos, np.cos)):
                    if on:
                        terms.append((fn, freq, i))
                        out.append(f"{fn.__name__}({freq} {names[i]})")

        def fill(X: np.ndarray, values: np.ndarray) -> None:
            for c, (fn, freq, i) in enumerate(terms):
                values[:, c] = fn(freq * X[:, i])

        return out, fill
    if isinstance(spec, Custom):
        terms = [(fn, i) for _, fn in spec.functions for i in range(k)]

        def fill(X: np.ndarray, values: np.ndarray) -> None:
            for c, (fn, i) in enumerate(terms):
                values[:, c] = fn(X[:, i])

        return [f"{fname}({names[i]})" for fname, _ in spec.functions for i in range(k)], fill
    if isinstance(spec, Concat):
        parts = [_plan(p, names) for p in spec.parts]
        bounds = np.cumsum([0] + [len(n) for n, _ in parts])

        def fill(X: np.ndarray, values: np.ndarray) -> None:
            for (_, part), a, b in zip(parts, bounds[:-1], bounds[1:]):
                part(X, values[:, a:b])

        return [n for part_names, _ in parts for n in part_names], fill
    if isinstance(spec, Tensor):
        (ln, left), (rn, right) = _plan(spec.left, names), _plan(spec.right, names)

        def fill(X: np.ndarray, values: np.ndarray) -> None:
            m = X.shape[0]
            lv, rv = np.empty((m, len(ln))), np.empty((m, len(rn)))
            left(X, lv)
            right(X, rv)
            values[...] = (lv[:, :, None] * rv[:, None, :]).reshape(m, -1)

        return [f"{a} {b}" for a in ln for b in rn], fill
    if isinstance(spec, InputSubset):
        idx = list(spec.indices)
        if max(idx) >= k:
            raise SpecError(f"InputSubset index {max(idx)} out of range for {k} inputs")
        out, inner = _plan(spec.inner, tuple(names[i] for i in idx))
        return out, lambda X, values: inner(X[:, idx], values)
    raise SpecError(f"{type(spec).__name__} cannot be evaluated pointwise")


def _monomial_name(combo: tuple[int, ...], names: tuple[str, ...]) -> str:
    parts = []
    for i in sorted(set(combo)):
        power = combo.count(i)
        parts.append(names[i] if power == 1 else f"{names[i]}^{power}")
    return " ".join(parts)


def _input_names(n_states: int, n_controls: int) -> tuple[str, ...]:
    return tuple(
        [f"q{i}" for i in range(n_states)] + [f"u{i}" for i in range(n_controls)]
    )


class PointwisePlan:
    """A derivative-free library planned once for ``n_states`` states and
    ``n_controls`` controls.

    Construction validates the spec and builds the column names and index
    recipes; ``apply`` only computes values.  Grid evaluation, one-row
    evaluation and the integrator's right-hand side all run ``apply``.  A
    ``WeakPDE`` over a derivative-free library plans that library, whose
    columns are the integrands of the weak columns and carry their names.
    """

    def __init__(self, spec: LibrarySpec, n_states: int, n_controls: int = 0):
        validate(spec)
        if isinstance(spec, WeakPDE) and not _has_derivatives(spec.inner):
            spec = spec.inner
        if _has_derivatives(spec):
            raise SpecError("pointwise evaluation is undefined for derivative features")
        self.n_inputs = n_states + n_controls
        names, self._fill = _plan(spec, _input_names(n_states, n_controls))
        self.names = tuple(names)

    def apply(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Feature values ``(m, width)`` of an ``(m, n_inputs)`` matrix,
        written into ``out`` when given."""
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise SpecError(f"expected (m, {self.n_inputs}) inputs, got {X.shape}")
        shape = (X.shape[0], len(self.names))
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise SpecError(f"output has shape {out.shape}, expected {shape}")
        self._fill(X, out)
        return out


def evaluate_pointwise(
    spec: LibrarySpec,
    state_row: np.ndarray,
    control_row: np.ndarray | None = None,
) -> np.ndarray:
    """One feature row for a single state (and optional control) sample.

    Only valid for libraries without derivative features (a ``WeakPDE``
    gives the row of its derivative-free inner library).  Callers that
    evaluate one library many times should build a ``PointwisePlan`` once.
    """
    rows = [np.atleast_1d(np.asarray(state_row, dtype=float))]
    if control_row is not None:
        rows.append(np.atleast_1d(np.asarray(control_row, dtype=float)))
    X = np.concatenate(rows)[None, :]
    plan = PointwisePlan(spec, rows[0].size, X.shape[1] - rows[0].size)
    return plan.apply(X)[0]


# ---------------------------------------------------------------------------
# Grid-aware evaluation
# ---------------------------------------------------------------------------


def _axis_info(dataset: Dataset, axis_id: str) -> tuple[int, np.ndarray]:
    """(array axis, coordinates) for an axis letter; states layout is
    (*spatial, time, n)."""
    grid = dataset.grid
    if axis_id == "t":
        return dataset.states.ndim - 2, grid.time_axis
    idx = AXIS_LETTERS.index(axis_id)
    if idx >= grid.n_spatial:
        raise DataError(
            f"dataset has {grid.n_spatial} spatial axes, none named {axis_id!r}"
        )
    return idx, grid.spatial_axes[idx]


def _derivative_fields(
    dataset: Dataset, spec: PDE, mus: list[tuple[int, ...]], method: DiffMethod
) -> list[np.ndarray]:
    """D^mu of the state block for each mu, shape (*spatial, time, n_states).

    Axes are differentiated in ``spec.axes`` order, so D^mu is a derivative
    along the last axis mu uses of the field of its prefix (mu with that
    axis zeroed).  All orders taken of one field along one axis come from
    one call, so spectral derivatives share one transform.  A dataset's
    precomputed time derivatives stand in for a plain first time derivative.
    """
    def precomputed(mu: tuple[int, ...]) -> bool:
        return (
            dataset.derivatives is not None
            and sum(mu) == 1
            and spec.axes[mu.index(1)] == "t"
        )

    # (prefix, axis position) -> orders, for every mu computed numerically
    groups: dict[tuple[tuple[int, ...], int], set[int]] = {}
    todo = [mu for mu in mus if not precomputed(mu)]
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
        array_axis, coords = _axis_info(dataset, spec.axes[a])
        orders = tuple(sorted(orders))
        derived = _differentiate_orders(fields[prefix], coords, method, orders, array_axis)
        for order, field in zip(orders, derived):
            fields[prefix[:a] + (order,) + prefix[a + 1 :]] = field
    return [dataset.derivatives if precomputed(mu) else fields[mu] for mu in mus]


def _grid_inputs(dataset: Dataset) -> np.ndarray:
    """Flattened ``(samples, states + controls)`` library inputs."""
    X, U, _ = flatten(dataset)
    return X if U is None else np.hstack([X, U])


def _pde_fill(
    spec: PDE, dataset: Dataset, diff_method: DiffMethod, inputs: np.ndarray,
    out: np.ndarray,
) -> list[str]:
    method = spec.diff if spec.diff is not None else diff_method
    n = dataset.n_states
    m = inputs.shape[0]
    f_names: tuple[str, ...] = ()
    if spec.multiply_by is not None:
        plan = PointwisePlan(spec.multiply_by, n, dataset.n_controls)
        f_names = plan.names
        # the multiply_by columns close the library; products read them there
        f_vals = plan.apply(inputs, out[:, out.shape[1] - len(f_names) :])

    mus = spec.multiindices()
    names, c = [], 0
    for mu, field in zip(mus, _derivative_fields(dataset, spec, mus, method)):
        field_flat = field.reshape(m, n)
        suffix = spec.suffix(mu)
        out[:, c : c + n] = field_flat
        names.extend(f"q{j}{suffix}" for j in range(n))
        c += n
        for i, fname in enumerate(f_names):
            np.multiply(f_vals[:, i : i + 1], field_flat, out=out[:, c : c + n])
            names.extend(f"{fname} q{j}{suffix}" for j in range(n))
            c += n
    return names + list(f_names)


def _grid_fill(
    spec: LibrarySpec, dataset: Dataset, diff_method: DiffMethod,
    inputs: np.ndarray, out: np.ndarray,
) -> list[str]:
    """Write the columns of ``spec`` into ``out`` (exactly as wide) and
    return their names."""
    if not _has_derivatives(spec):
        # derivative-free libraries act on flattened samples
        plan = PointwisePlan(spec, dataset.n_states, dataset.n_controls)
        plan.apply(inputs, out)
        return list(plan.names)
    if isinstance(spec, PDE):
        return _pde_fill(spec, dataset, diff_method, inputs, out)
    k, n = inputs.shape[1], dataset.n_states
    if isinstance(spec, Concat):
        names, c = [], 0
        for part in spec.parts:
            w = predict_width(part, k, n)
            names += _grid_fill(part, dataset, diff_method, inputs, out[:, c : c + w])
            c += w
        return names
    # a Tensor with a derivative factor
    m = out.shape[0]
    lv = np.empty((m, predict_width(spec.left, k, n)))
    rv = np.empty((m, predict_width(spec.right, k, n)))
    ln = _grid_fill(spec.left, dataset, diff_method, inputs, lv)
    rn = _grid_fill(spec.right, dataset, diff_method, inputs, rv)
    out[...] = (lv[:, :, None] * rv[:, None, :]).reshape(m, -1)
    return [f"{a} {b}" for a in ln for b in rn]


def evaluate(
    spec: LibrarySpec, dataset: Dataset, diff_method: DiffMethod
) -> FeatureMatrix:
    """Evaluate a library on a dataset.

    Differential libraries produce one row per flattened sample, written
    into one preallocated C-ordered matrix; weak-form libraries produce one
    row per subdomain and carry the weak left-hand side.  ``diff_method``
    supplies derivatives unless the spec embeds its own override.
    """
    validate(spec)
    expected = predict_width(
        spec, dataset.n_states + dataset.n_controls, dataset.n_states
    )
    if isinstance(spec, WeakPDE):
        values, names, lhs = _weak_columns(spec, dataset, diff_method)
    else:
        inputs = _grid_inputs(dataset)
        values, lhs = np.empty((inputs.shape[0], expected)), None
        names = _grid_fill(spec, dataset, diff_method, inputs, values)
    if len(names) != expected:
        raise SpecError(
            f"evaluation produced {len(names)} columns, predict_width says {expected}"
        )
    return FeatureMatrix(values=values, names=tuple(names), provenance=spec, weak_lhs=lhs)


# ---------------------------------------------------------------------------
# Weak form
# ---------------------------------------------------------------------------


def _trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    w = np.zeros_like(coords)
    dif = np.diff(coords)
    w[:-1] += dif / 2
    w[1:] += dif / 2
    return w


def _bump_polynomials(p: int, max_order: int) -> list[np.polynomial.Polynomial]:
    """The bump (1 - zeta^2)^p and its derivatives up to ``max_order``."""
    poly = np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** p
    return [poly.deriv(r) if r else poly for r in range(max_order + 1)]


def _weak_axis_vectors(
    coords: np.ndarray, bumps: list[np.polynomial.Polynomial]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Trapezoid weights and phi-derivative weight vectors for one axis.

    ``bumps`` comes from ``_bump_polynomials``.  Returns (w, [w*phi, w*phi',
    w*phi'', ...]) with derivative vectors mean-corrected so that a constant
    field integrates to exactly zero, as in the continuous
    integration-by-parts identity.
    """
    a, b = coords[0], coords[-1]
    zeta = 2.0 * (coords - a) / (b - a) - 1.0
    scale = 2.0 / (b - a)
    w = _trapezoid_weights(coords)
    vectors = []
    for r, bump in enumerate(bumps):
        v = w * bump(zeta) * scale**r
        if r >= 1:
            v = v - (v.sum() / w.sum()) * w
        vectors.append(v)
    return w, vectors


def _weak_columns(
    spec: WeakPDE, dataset: Dataset, diff_method: DiffMethod
) -> tuple[np.ndarray, list[str], np.ndarray]:
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
    if len(sizes) != n_axes:
        raise SpecError(
            f"subdomain_size has {len(sizes)} entries for {n_axes} axes "
            "(spatial axes first, then time)"
        )
    for size, coords in zip(sizes, axes_coords):
        if size > coords.size:
            raise SpecError(
                f"subdomain size {size} exceeds axis length {coords.size}"
            )

    # Differentiated axis (array axis, order) pairs per multi-index, plus the
    # inner library's column structure evaluated on the full grid.
    if isinstance(inner, PDE):
        method = inner.diff if inner.diff is not None else diff_method
        mus = inner.multiindices()
        mu_axis_orders = []
        for mu in mus:
            per_axis = [0] * n_axes
            for ax_id, order in zip(inner.axes, mu):
                array_axis, _ = _axis_info(dataset, ax_id)
                per_axis[array_axis] = order
            mu_axis_orders.append(tuple(per_axis))
        suffixes = [inner.suffix(mu) for mu in mus]
        multiply_by = inner.multiply_by
    else:
        mus, mu_axis_orders, suffixes = [], [], []
        multiply_by = inner

    sample_shape = grid.sample_shape
    if multiply_by is not None:
        plan = PointwisePlan(multiply_by, n, dataset.n_controls)
        f_names = plan.names
        # feature-major, so that each feature is one contiguous field
        f_fields = np.empty((len(f_names), grid.n_samples))
        plan.apply(_grid_inputs(dataset), f_fields.T)
        f_fields = f_fields.reshape(-1, *sample_shape)
    else:
        f_fields, f_names = np.empty((0, *sample_shape)), ()
    n_f = len(f_names)

    # The numerically differentiated fields feed only the product columns;
    # pure derivative columns are handled by parts and never need them.
    if n_f and mus:
        deriv_fields = _derivative_fields(dataset, inner, mus, method)
    else:
        deriv_fields = [None] * len(mus)

    names: list[str] = []
    for suffix in suffixes:
        names.extend(f"q{j}{suffix}" for j in range(n))
        for fname in f_names:
            names.extend(f"{fname} q{j}{suffix}" for j in range(n))
    names.extend(f_names)

    max_order = max((max(orders) for orders in mu_axis_orders), default=0)
    max_order = max(max_order, 1)  # phi_t needed for the left-hand side
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
        block = tuple(
            slice(start, start + size) for start, size in zip(starts, sizes)
        )
        axis_vecs = [
            _weak_axis_vectors(coords[sl], bumps)
            for coords, sl in zip(axes_coords, block)
        ]

        def weight_field(orders: tuple[int, ...]) -> np.ndarray:
            out = np.array(1.0)
            for (_, vectors), r in zip(axis_vecs, orders):
                out = np.multiply.outer(out, vectors[r])
            return out

        w_phi = weight_field((0,) * n_axes)
        state_block = states[block]  # (*sizes, n)
        f_block = f_fields[(slice(None), *block)]  # (n_f, *sizes)
        col = 0
        for orders, field in zip(mu_axis_orders, deriv_fields):
            sign = (-1) ** sum(orders)
            w_mu = weight_field(orders)
            # pure derivatives, integrated by parts
            values[k, col : col + n] = sign * np.tensordot(
                w_mu, state_block, axes=n_axes
            )
            col += n
            if field is None:
                continue
            # products keep the numerical derivative, smoothed by phi; all
            # multiply_by fields in one contraction, feature-major
            integrand = f_block[..., None] * field[block]  # (n_f, *sizes, n)
            values[k, col : col + n_f * n] = np.tensordot(
                integrand, w_phi, axes=([a + 1 for a in grid_axes], grid_axes)
            ).ravel()
            col += n_f * n
        values[k, col : col + n_f] = np.tensordot(f_block, w_phi, axes=n_axes)

        lhs[k] = -np.tensordot(weight_field(t_orders), state_block, axes=n_axes)

    return values, names, lhs

"""Candidate feature libraries: build the regression matrix and column names.

Inputs to a library are the state variables followed by any control variables
(names ``q0..q{n-1}``, ``u0..u{r-1}``).  Derivative columns carry suffixes
built from axis letters (``q0_xx``, ``q0_t``); product names join factors with
a single space (``q0 q0_x``).  Column order is deterministic and documented
per variant.  One walk of a spec (``GridPlan``) validates it and builds its
names and fills, so the width of a library is the length of its plan's names.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product as iproduct
from typing import Callable, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import optimize
from .data import AXIS_LETTERS, Dataset, flatten
from .diff import DiffMethod, _derivative_fields
from .errors import SpecError


class _Spec:
    """Base of the library specs: ``validate`` plans the whole tree, and
    ``_check`` holds the checks of a node's own parameters, which the plan
    walk runs on every node."""

    def validate(self) -> None:
        validate(self)

    def _check(self) -> None:
        pass


@dataclass(frozen=True)
class Polynomial(_Spec):
    """Monomials up to ``degree``; interactions add cross terms.

    Column order follows the usual convention: degree ascending, and within a
    degree the index-sorted combinations (bias, q0, q1, q0^2, q0 q1, q1^2...).
    """

    degree: int = 2
    include_bias: bool = True
    include_interactions: bool = True

    def _check(self) -> None:
        if self.degree < 0:
            raise SpecError(f"polynomial degree must be >= 0, got {self.degree}")
        if self.degree == 0 and not self.include_bias:
            raise SpecError("a polynomial of degree 0 without its bias has no columns")


@dataclass(frozen=True)
class Fourier(_Spec):
    """sin/cos of integer frequencies 1..n_frequencies per input variable."""

    n_frequencies: int = 1
    include_sin: bool = True
    include_cos: bool = True

    def _check(self) -> None:
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
class Custom(_Spec):
    """Named scalar functions, each applied to every input variable.

    ``functions`` holds (name, callable) pairs; names from ``CUSTOM_REGISTRY``
    round-trip through JSON, arbitrary callables are code-only.  A function
    must act elementwise: ``fit``, ``score`` and ``predict`` fill the design
    a block of rows at a time, so one whose value in a row depends on other
    rows is unsupported (those calls would disagree with ``design``).
    """

    functions: tuple[tuple[str, Callable], ...]

    def _check(self) -> None:
        if not self.functions:
            raise SpecError("custom library needs at least one function")


@dataclass(frozen=True)
class PDE(_Spec):
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

    def _check(self) -> None:
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
        if self.diff is not None:
            # the highest order a block asks of its method along one axis
            self.diff.validate(self.derivative_order)

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
class WeakPDE(_Spec):
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
    time); a single int applies to every axis.  Subdomain starts are drawn
    from ``seed``, one integer per axis and subdomain, in subdomain order.
    The rows are computed a chunk of subdomains at a time, within
    ``BLOCK_BYTES`` of temporaries, and each has the bits of its subdomain
    computed alone.
    """

    inner: "LibrarySpec"
    n_subdomains: int = 100
    test_poly_order: int = 4
    subdomain_size: tuple[int, ...] | int = 20
    seed: int = 0

    def _check(self) -> None:
        if self.n_subdomains < 1:
            raise SpecError(f"n_subdomains must be >= 1, got {self.n_subdomains}")
        if self.test_poly_order < 2:
            raise SpecError(
                f"test_poly_order must be >= 2, got {self.test_poly_order}"
            )
        if any(s < 3 for s in self.axis_sizes(1)):
            raise SpecError("subdomains need at least 3 grid points per axis")
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")

    def axis_sizes(self, n_axes: int) -> tuple[int, ...]:
        """``subdomain_size`` per axis; a single int stands for ``n_axes``."""
        if isinstance(self.subdomain_size, int):
            return (self.subdomain_size,) * n_axes
        return tuple(self.subdomain_size)


@dataclass(frozen=True)
class Concat(_Spec):
    """Columns of every part, in order."""

    parts: tuple["LibrarySpec", ...]

    def _check(self) -> None:
        if not self.parts:
            raise SpecError("Concat needs at least one part")


@dataclass(frozen=True)
class Tensor(_Spec):
    """All pairwise products: column (i, j) is left_i * right_j (left-major)."""

    left: "LibrarySpec"
    right: "LibrarySpec"


@dataclass(frozen=True)
class InputSubset(_Spec):
    """Evaluate the inner (non-derivative) spec on a subset of the inputs."""

    inner: "LibrarySpec"
    indices: tuple[int, ...]

    def _check(self) -> None:
        if len(set(self.indices)) != len(self.indices) or not self.indices:
            raise SpecError("InputSubset indices must be nonempty and unique")
        if any(i < 0 for i in self.indices):
            raise SpecError("InputSubset indices must be non-negative")


LibrarySpec = Union[Polynomial, Fourier, Custom, PDE, WeakPDE, Concat, Tensor, InputSubset]


def _check_unique(names: tuple[str, ...]) -> None:
    dupes = sorted(name for name, count in Counter(names).items() if count > 1)
    if dupes:
        raise SpecError(f"duplicate feature names: {dupes}")


def validate(spec: LibrarySpec) -> None:
    """Raise ``SpecError`` if ``spec`` is malformed whatever its inputs: it is
    planned on no inputs, so ``InputSubset`` indices into them go unchecked."""
    GridPlan(spec, 0)


# ---------------------------------------------------------------------------
# The plan: names, fills and derivative requests from one walk of the spec
# ---------------------------------------------------------------------------

# Writes a library's values for an (m, k) input matrix into an (m, width)
# out; ``fields`` holds the derivative fields of every PDE block of the plan.
_Fill = Callable[[np.ndarray, list, np.ndarray], None]


@dataclass(frozen=True)
class _Block:
    """The derivative request of one PDE block: the multi-indices ``mus``
    along ``spec.axes``, taken with ``spec.diff`` when set, and the names
    and fill of its ``multiply_by`` factor (``None`` without one)."""

    spec: PDE
    mus: list[tuple[int, ...]]
    f_names: tuple[str, ...]
    f_fill: _Fill | None

    def fields(self, dataset: Dataset, diff_method: DiffMethod) -> list[np.ndarray]:
        """D^mu of the states for each of ``mus``, shape (*spatial, time, n)."""
        method = diff_method if self.spec.diff is None else self.spec.diff
        return _derivative_fields(dataset, self.spec.axes, self.mus, method)


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


def _grid_inputs(dataset: Dataset) -> np.ndarray:
    """Flattened ``(samples, states + controls)`` library inputs."""
    X, U = flatten(dataset)
    return X if U is None else np.hstack([X, U])


class GridPlan:
    """A library planned once for ``n_states`` states and ``n_controls``
    controls.

    One walk of the spec validates it and builds the column ``names`` (which
    must be unique), the fill of every node and the derivative request of
    every PDE block (``blocks``, in column order).  ``apply`` only computes
    values: grid evaluation passes each block's derivative fields, while a
    plan without blocks also evaluates single rows and the integrator's
    right-hand side.
    A ``WeakPDE`` (kept as ``weak``) plans its inner library, whose columns
    are the integrands of the weak columns and carry their names.  A plan on
    no inputs (``validate``) leaves ``InputSubset`` indices into them unchecked.
    """

    def __init__(self, spec: LibrarySpec, n_states: int, n_controls: int = 0):
        self.n_states = n_states
        self.n_inputs = n_states + n_controls
        self.blocks: list[_Block] = []
        self.weak = spec if isinstance(spec, WeakPDE) else None
        if self.weak is not None:
            spec._check()
            spec = spec.inner
        names, self._fill = self._walk(spec, _input_names(n_states, n_controls))
        if self.weak is not None and self.blocks and not isinstance(spec, PDE):
            raise SpecError(
                "weak inner spec must be a single PDE block (with multiply_by "
                "factors) or a derivative-free library"
            )
        self.names = tuple(names)
        _check_unique(self.names)

    def apply(self, X: np.ndarray, fields: list | tuple = (), out: np.ndarray | None = None):
        """Feature values ``(m, width)`` of an ``(m, n_inputs)`` matrix, into
        ``out`` when given; ``fields`` holds each block's derivative fields on
        the same samples."""
        if len(fields) != len(self.blocks):
            raise SpecError("pointwise evaluation is undefined for derivative features")
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise SpecError(f"expected (m, {self.n_inputs}) inputs, got {X.shape}")
        if out is None:
            out = np.empty((X.shape[0], len(self.names)))
        self._fill(X, fields, out)
        return out

    def _walk(self, spec: LibrarySpec, names: tuple[str, ...]) -> tuple[list[str], _Fill]:
        """Column names of ``spec`` on inputs ``names``, and its fill."""
        if isinstance(spec, WeakPDE):
            raise SpecError("weak-form specs cannot be nested or combined; use them top-level")
        if not isinstance(spec, _Spec):
            raise SpecError(f"unknown library spec {spec!r}")
        spec._check()
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

            def fill(X: np.ndarray, fields: list, values: np.ndarray) -> None:
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

            def fill(X: np.ndarray, fields: list, values: np.ndarray) -> None:
                for c, (fn, freq, i) in enumerate(terms):
                    values[:, c] = fn(freq * X[:, i])

            return out, fill
        if isinstance(spec, Custom):
            terms = [(fn, i) for _, fn in spec.functions for i in range(k)]

            def fill(X: np.ndarray, fields: list, values: np.ndarray) -> None:
                for c, (fn, i) in enumerate(terms):
                    values[:, c] = fn(X[:, i])

            return [f"{fname}({names[i]})" for fname, _ in spec.functions for i in range(k)], fill
        if isinstance(spec, PDE):
            n, n_blocks = self.n_states, len(self.blocks)
            f_names, f_fill = [], None
            if spec.multiply_by is not None:
                f_names, f_fill = self._walk(spec.multiply_by, names)
                if len(self.blocks) > n_blocks:
                    raise SpecError("multiply_by must be a derivative-free library")
                # a constant column is named 1, or a product of 1s
                if any(set(name.split(" ")) == {"1"} for name in f_names):
                    raise SpecError(
                        "multiply_by must not include a bias column (it would "
                        "duplicate the pure derivative columns)"
                    )
            mus = spec.multiindices()
            self.blocks.append(_Block(spec, mus, tuple(f_names), f_fill))
            out = []
            for mu in mus:
                suffix = spec.suffix(mu)
                out += [f"q{j}{suffix}" for j in range(n)]
                out += [f"{fname} q{j}{suffix}" for fname in f_names for j in range(n)]
            n_f = len(f_names)

            def fill(X: np.ndarray, fields: list, values: np.ndarray) -> None:
                m = X.shape[0]
                # the multiply_by columns close the block; products read them there
                f_vals = values[:, values.shape[1] - n_f :]
                if n_f:
                    f_fill(X, fields, f_vals)
                c = 0
                for field in fields[n_blocks]:
                    field_flat = field.reshape(m, n)
                    values[:, c : c + n] = field_flat
                    c += n
                    for i in range(n_f):
                        np.multiply(f_vals[:, i : i + 1], field_flat, out=values[:, c : c + n])
                        c += n

            return out + f_names, fill
        if isinstance(spec, Concat):
            parts = [self._walk(p, names) for p in spec.parts]
            bounds = np.cumsum([0] + [len(n) for n, _ in parts])

            def fill(X: np.ndarray, fields: list, values: np.ndarray) -> None:
                for (_, part), a, b in zip(parts, bounds[:-1], bounds[1:]):
                    part(X, fields, values[:, a:b])

            return [n for part_names, _ in parts for n in part_names], fill
        if isinstance(spec, Tensor):
            (ln, left), (rn, right) = self._walk(spec.left, names), self._walk(spec.right, names)

            def fill(X: np.ndarray, fields: list, values: np.ndarray) -> None:
                m = X.shape[0]
                lv, rv = np.empty((m, len(ln))), np.empty((m, len(rn)))
                left(X, fields, lv)
                right(X, fields, rv)
                values[...] = (lv[:, :, None] * rv[:, None, :]).reshape(m, -1)

            return [f"{a} {b}" for a in ln for b in rn], fill
        # InputSubset
        idx = list(spec.indices)
        if max(idx) >= k:
            if k:
                raise SpecError(f"InputSubset index {max(idx)} out of range for {k} inputs")
            names = _input_names(max(idx) + 1, 0)  # validation: no inputs yet
        n_blocks = len(self.blocks)
        out, inner = self._walk(spec.inner, tuple(names[i] for i in idx))
        if len(self.blocks) > n_blocks:
            raise SpecError("InputSubset only applies to non-derivative libraries")
        return out, lambda X, fields, values: inner(X[:, idx], fields, values)


def evaluate_pointwise(
    spec: LibrarySpec,
    state_row: np.ndarray,
    control_row: np.ndarray | None = None,
) -> np.ndarray:
    """One feature row for a single state (and optional control) sample.

    Only valid for libraries without derivative features (a ``WeakPDE``
    gives the row of its derivative-free inner library).  Callers that
    evaluate one library many times should build a ``GridPlan`` once.
    """
    rows = [np.atleast_1d(np.asarray(state_row, dtype=float))]
    if control_row is not None:
        rows.append(np.atleast_1d(np.asarray(control_row, dtype=float)))
    X = np.concatenate(rows)[None, :]
    plan = GridPlan(spec, rows[0].size, X.shape[1] - rows[0].size)
    return plan.apply(X)[0]


# ---------------------------------------------------------------------------
# Weak form
# ---------------------------------------------------------------------------


def _trapezoid_weights(coords: np.ndarray) -> np.ndarray:
    """Trapezoid weights of the nodes along the last axis of ``coords``."""
    w = np.zeros_like(coords)
    dif = np.diff(coords, axis=-1)
    w[..., :-1] += dif / 2
    w[..., 1:] += dif / 2
    return w


def _bump_polynomials(p: int, max_order: int) -> list[np.polynomial.Polynomial]:
    """The bump (1 - zeta^2)^p and its derivatives up to ``max_order``."""
    poly = np.polynomial.Polynomial([1.0, 0.0, -1.0]) ** p
    return [poly.deriv(r) if r else poly for r in range(max_order + 1)]


def _weak_axis_vectors(
    coords: np.ndarray, bumps: list[np.polynomial.Polynomial]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Trapezoid weights and phi-derivative weight vectors along one axis of
    each subdomain, whose nodes are the last axis of ``coords``.

    ``bumps`` comes from ``_bump_polynomials``.  Returns (w, [w*phi, w*phi',
    w*phi'', ...]), each shaped like ``coords``, with derivative vectors
    mean-corrected so that a constant field integrates to exactly zero, as
    in the continuous integration-by-parts identity.  A subdomain's vectors
    have the same bits whichever subdomains share the call.
    """
    a, b = coords[..., :1], coords[..., -1:]
    zeta = 2.0 * (coords - a) / (b - a) - 1.0
    scale = 2.0 / (b - a)
    w = _trapezoid_weights(coords)
    vectors = []
    for r, bump in enumerate(bumps):
        v = w * bump(zeta)  # scale**0 is 1
        if r >= 1:
            # scale**r as each subdomain's scalar power (pow(s, 1) is s): an
            # array power may take another kernel (s*s for r = 2) and round
            # differently
            powers = scale if r == 1 else np.array([s**r for s in scale.flat])
            v = v * powers.reshape(scale.shape)
            v = v - (v.sum(axis=-1, keepdims=True) / w.sum(axis=-1, keepdims=True)) * w
        vectors.append(v)
    return w, vectors


def _windows(field: np.ndarray, sizes: tuple[int, ...], values_last: bool) -> np.ndarray:
    """Every subdomain window of ``field`` ``(*sample_shape, c)``, a view
    indexed by the window's first point: ``(*starts, *sizes, c)``, or
    ``(*starts, c, *sizes)`` without ``values_last``."""
    n_axes = len(sizes)
    view = sliding_window_view(field, sizes, axis=tuple(range(n_axes)))
    return np.moveaxis(view, n_axes, -1) if values_last else view


def _subdomain_bytes(plan: GridPlan, volume: int) -> int:
    """What a subdomain of ``volume`` grid points adds to a chunk of the weak
    form of ``plan``: its windows of the multiply_by fields and the states,
    for products those of one derivative field and its integrands, and two
    weight fields."""
    n = plan.n_states
    if plan.blocks:
        n_f = len(plan.blocks[0].f_names)
        products = n + n_f * n if n_f else 0
    else:
        n_f, products = len(plan.names), 0
    return 8 * volume * (n_f + n + products + 2)


def _weak_columns(plan: GridPlan, dataset: Dataset, diff_method: DiffMethod) -> np.ndarray:
    """The weak form of ``plan`` on ``dataset``, one row per subdomain: its
    library columns, then its left-hand side.

    Subdomains are computed a chunk at a time, as many as keep the chunk's
    temporaries (``_subdomain_bytes`` each) within ``optimize.BLOCK_BYTES``,
    and at least one.  A chunk evaluates its test functions in one pass per
    axis, gathers its windows of each field into one C-ordered array, and
    takes each column group in one batched ``matmul`` whose per-subdomain
    operands have the layout and shapes a per-subdomain ``tensordot`` gives
    ``dot``, so every row has the bits of its subdomain computed alone.
    The rows are returned whole: a fit reads them more than once, and they
    are ``p + n`` values per subdomain.
    """
    spec = plan.weak
    grid = dataset.grid
    n = dataset.n_states
    axes_coords = list(grid.spatial_axes) + [grid.time_axis]
    n_axes = len(axes_coords)

    sizes = spec.axis_sizes(n_axes)
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

    # A PDE inner library is the plan's one block; a derivative-free one is
    # all multiply_by columns.  Orders map array axis -> order per mu.
    if plan.blocks:
        (pde,) = plan.blocks
        mus, n_f, f_fill = pde.mus, len(pde.f_names), pde.f_fill
        mu_orders = [
            {grid.axis(ax)[0]: order for ax, order in zip(pde.spec.axes, mu)} for mu in mus
        ]
    else:
        mus, n_f, f_fill, mu_orders = [], len(plan.names), plan._fill, []

    # feature-major, so that each feature is one contiguous field
    f_fields = np.empty((n_f, grid.n_samples))
    if n_f:
        f_fill(_grid_inputs(dataset), (), f_fields.T)
    f_fields = np.moveaxis(f_fields.reshape(-1, *grid.sample_shape), 0, -1)

    # The numerically differentiated fields feed only the product columns;
    # pure derivative columns are handled by parts and never need them.
    if n_f and mus:
        deriv_fields = pde.fields(dataset, diff_method)
    else:
        deriv_fields = [None] * len(mus)

    max_order = max((max(mu) for mu in mus), default=0)
    max_order = max(max_order, 1)  # phi_t needed for the left-hand side
    bumps = _bump_polynomials(spec.test_poly_order, max_order)

    rng = np.random.default_rng(spec.seed)
    # one scalar draw per axis and subdomain, in subdomain order
    highs = [coords.size - size + 1 for coords, size in zip(axes_coords, sizes)]
    starts = np.array(
        [int(rng.integers(0, high)) for _ in range(spec.n_subdomains) for high in highs]
    ).reshape(spec.n_subdomains, n_axes)

    # read BLOCK_BYTES now, so that tests can shrink it
    volume = int(np.prod(sizes))
    chunk = max(1, optimize.BLOCK_BYTES // _subdomain_bytes(plan, volume))

    p = len(plan.names)
    state_windows = _windows(dataset.states, sizes, True)
    f_windows = _windows(f_fields, sizes, False)
    deriv_windows = [None if f is None else _windows(f, sizes, False) for f in deriv_fields]

    def fill(rows: np.ndarray, at: np.ndarray) -> None:
        """The rows of the subdomains whose first points are the rows of
        ``at``; a chunk's temporaries end with the call."""
        k, index = at.shape[0], tuple(at.T)

        def gather(windows: np.ndarray) -> np.ndarray:
            """The chunk's windows as one C-ordered array."""
            return np.ascontiguousarray(windows[index])

        axis_vecs = [
            _weak_axis_vectors(coords[at[:, a, None] + np.arange(size)], bumps)[1]
            for a, (coords, size) in enumerate(zip(axes_coords, sizes))
        ]

        def weight_field(orders: dict[int, int]) -> np.ndarray:
            """(k, volume): each subdomain's outer product of its axis
            vectors of ``orders``, multiplied left to right."""
            out = axis_vecs[0][orders.get(0, 0)]
            for a in range(1, n_axes):
                vec = axis_vecs[a][orders.get(a, 0)]
                out = out[..., None] * vec.reshape(k, *(1,) * a, sizes[a])
            return out.reshape(k, volume)

        w_phi = weight_field({})[:, :, None]  # (k, volume, 1)
        state_win = gather(state_windows).reshape(k, volume, n)
        f_win = gather(f_windows).reshape(k, n_f, volume)
        col = 0
        for orders, windows in zip(mu_orders, deriv_windows):
            sign = (-1) ** sum(orders.values())
            # pure derivatives, integrated by parts
            rows[:, col : col + n] = sign * np.matmul(
                weight_field(orders)[:, None, :], state_win
            )[:, 0]
            col += n
            if windows is None:
                continue
            # products keep the numerical derivative, smoothed by phi; all
            # multiply_by fields in one contraction, feature-major; no
            # window or integrand outlives its product
            d_win = gather(windows).reshape(k, 1, n, volume)
            integrands = (f_win[:, :, None] * d_win).reshape(k, n_f * n, volume)
            rows[:, col : col + n_f * n] = np.matmul(integrands, w_phi)[..., 0]
            del d_win, integrands
            col += n_f * n
        rows[:, col : col + n_f] = np.matmul(f_win, w_phi)[..., 0]
        rows[:, p:] = -np.matmul(weight_field({n_axes - 1: 1})[:, None, :], state_win)[:, 0]

    values = np.empty((spec.n_subdomains, p + n))
    for first in range(0, spec.n_subdomains, chunk):
        fill(values[first : first + chunk], starts[first : first + chunk])
    return values

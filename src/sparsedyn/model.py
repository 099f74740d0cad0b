"""Fit / predict / simulate / score orchestration.

Every path from data to a solver reads one design, ``[theta Y]``: differential
libraries pair feature rows with numerically computed time derivatives, weak
libraries pair subdomain rows with the integrated left-hand side.  Rows are
stacked across trajectories in input order and never differenced across
trajectory boundaries.  ``fit``, ``score`` and ``predict`` read the design a
block of rows at a time: each block is filled from narrow inputs computed
once (a grid library's states, derivative fields and targets; a weak form's
rows), checked finite, used and dropped, so theta is never held whole.
``design`` fills the same rows into one array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import floor, log10, sqrt

import numpy as np

from .data import Dataset, as_collection, unflatten
from .diff import DiffMethod, FiniteDifference, differentiate_dataset
from .ensemble import EnsembleReport, EnsembleSpec, fit_ensemble
from .errors import DataError, FitError, SpecError
from .library import GridPlan, LibrarySpec, WeakPDE
from .optimize import STLSQ, Coefficients, OptimizerSpec, Problem
from .optimize import PRODUCT_ROWS, _block_rows, _finish, _fit_rows, _non_finite_error, _Rows, _stream

BLOWUP_NORM = 1e8


@dataclass(frozen=True)
class FittedModel:
    """Discovered model: sparse coefficients over a named candidate library."""

    coefficients: Coefficients
    library: LibrarySpec
    diff: DiffMethod
    target_names: tuple[str, ...]
    ensemble: EnsembleReport | None = None

    def __post_init__(self):
        if self.coefficients.xi.shape != (
            len(self.coefficients.names),
            len(self.target_names),
        ):
            raise SpecError("coefficient shape does not match names/targets")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.coefficients.names

    @property
    def xi(self) -> np.ndarray:
        return self.coefficients.xi

    @property
    def diagnostics(self) -> dict:
        return self.coefficients.diagnostics


def _target_names(n_states: int) -> tuple[str, ...]:
    """The names of a fit's targets, the states' first time derivatives."""
    return tuple(f"q{j}_t" for j in range(n_states))


class _Design:
    """The rows ``[theta Y]`` of a design, filled a block at a time.

    The narrow inputs are computed once per trajectory, whole: a grid
    library's states and controls, each PDE block's derivative fields as
    ``(samples, n)`` and, with targets, the first time derivatives; or a weak
    form's rows, one per subdomain, with its left-hand side.  ``design[a:b]``
    fills rows a..b-1 of the stacked trajectories from them into a new
    C-ordered block and checks it finite.  A grid library's value in a row
    depends on that row's inputs alone, so a block holds the bits of the same
    rows of the whole design.
    """

    def __init__(self, data, library: LibrarySpec, diff: DiffMethod, targets: bool = True,
                 names: tuple[str, ...] | None = None):
        """The design of ``library`` on one or more trajectories, planned
        once; ``names``, a model's columns, must be the library's."""
        collection = as_collection(data)
        plan = GridPlan(library, collection.n_states, collection.n_controls)
        if targets:
            diff.validate(1)
        if names is not None and plan.names != names:
            raise SpecError(f"the data give library columns {plan.names}, the model {names}")
        self.plan, self.p = plan, len(plan.names)
        width = self.p + (collection.n_states if targets else 0)
        self.parts, m = [], 0
        for ds in collection:
            if plan.weak is None:
                count, fill = self._grid_part(ds, diff, targets)
            else:
                count, fill = self._weak_part(ds, diff, width, targets)
            self.parts.append((m, count, fill))
            m += count
        self.shape = (m, width)

    def _grid_part(self, ds: Dataset, diff: DiffMethod, targets: bool):
        # the fill refers to the plan, not to the design, so that dropping
        # the design frees its inputs at once
        plan, p = self.plan, self.p
        X, fields = plan.inputs(ds, diff)
        Y = differentiate_dataset(ds, diff).reshape(-1, ds.n_states) if targets else None

        def fill(rows: slice, out: np.ndarray) -> None:
            plan.apply(X[rows], [[f[rows] for f in block] for block in fields], out[:, :p])
            if Y is not None:
                out[:, p:] = Y[rows]

        return X.shape[0], fill

    def _weak_part(self, ds: Dataset, diff: DiffMethod, width: int, targets: bool):
        whole = np.empty((self.plan.weak.n_subdomains, width))
        self.plan.write_weak(ds, diff, whole[:, : self.p], whole[:, self.p :] if targets else None)

        def fill(rows: slice, out: np.ndarray) -> None:
            out[...] = whole[rows]

        return whole.shape[0], fill

    def fill(self, at: slice) -> np.ndarray:
        """Rows ``at`` as a new C-ordered array, unchecked."""
        start, stop, _ = at.indices(self.shape[0])
        out = np.empty((max(stop - start, 0), self.shape[1]))
        for first, count, fill in self.parts:
            lo, hi = max(first, start), min(first + count, stop)
            if lo < hi:
                fill(slice(lo - first, hi - first), out[lo - start : hi - start])
        return out

    def __getitem__(self, at: slice) -> np.ndarray:
        block = self.fill(at)
        if not np.isfinite(block).all():
            # name every bad feature column, as ``Problem`` does
            finite = np.ones(self.shape[1], dtype=bool)
            step = _block_rows(self.shape[1])
            for start in range(0, self.shape[0], step):
                finite &= np.isfinite(self.fill(slice(start, start + step))).all(axis=0)
            bad = np.flatnonzero(~finite[: self.p])
            raise _non_finite_error([self.plan.names[i] for i in bad])
        return block

    def rows(self, normalize_columns: bool) -> _Rows:
        """The solvers' view: every library column in play, then the targets."""
        return _Rows(data=self, n_features=self.p, weights=None, normalize=normalize_columns,
                     names=self.plan.names, features=slice(0, self.p),
                     targets=slice(self.p, None))


def design(data, library: LibrarySpec, diff: DiffMethod = FiniteDifference(), *,
           targets: bool = True, normalize_columns: bool = False,
           names: tuple[str, ...] | None = None) -> Problem:
    """The problem of ``library`` on one or more trajectories, planned once.

    Each trajectory's library columns and (with ``targets``) targets, the
    weak left-hand side of a weak library or else the first time derivatives,
    are written into its rows of one C-ordered ``(m, p + n)`` array; theta
    and targets are its two column blocks (targets has none without
    ``targets``).  ``names``, a model's columns, must be the library's.  The
    array is filled as ``fit`` fills its blocks, so ``fit`` is ``solve`` (or
    ``fit_ensemble``) on this problem, bit for bit.
    """
    source = _Design(data, library, diff, targets, names)
    rows, p = source.fill(slice(None)), source.p
    return Problem(rows[:, :p], rows[:, p:], normalize_columns=normalize_columns,
                   feature_names=source.plan.names)


def fit(
    data,
    library: LibrarySpec,
    diff: DiffMethod = FiniteDifference(),
    opt: OptimizerSpec | None = None,
    ensemble: EnsembleSpec | None = None,
    normalize_columns: bool = False,
) -> FittedModel:
    """Discover sparse dynamics from one or more trajectories: ``solve``, or
    ``fit_ensemble`` with ``ensemble`` given, on the problem of ``design``.

    The design is read a block of rows at a time (the factor, then the
    residuals; an ensemble's members share each block, and SSR members pass
    over their own splits), so a grid library's theta is never held whole;
    the answers are those of ``solve`` on ``design``'s problem.
    ``diff`` computes the time-derivative targets (and any library
    derivatives that lack their own embedded method).  An ensemble's
    aggregated coefficients are returned alongside its full report.
    """
    if opt is None:
        opt = STLSQ()
    source = _Design(data, library, diff)
    rows = source.rows(normalize_columns)
    report = None if ensemble is None else fit_ensemble(rows, opt, ensemble)
    coefficients = _finish(rows, *_fit_rows(rows, opt)) if report is None else report.coefficients
    n_targets = source.shape[1] - source.p
    return FittedModel(coefficients, library, diff, _target_names(n_targets), report)


def _products(source: _Design, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``theta @ xi`` and the targets of the design ``source``, from one pass
    over blocks of whole ``PRODUCT_ROWS`` groups, so that the product has the
    bits of one product over all rows."""
    (m, width), p = source.shape, source.p
    pred, actual = np.empty((m, xi.shape[1])), np.empty((m, width - p))
    for at, block in _stream(source, PRODUCT_ROWS):
        pred[at] = block[:, :p] @ xi
        actual[at] = block[:, p:]
        del block
    return pred, actual


def predict(model: FittedModel, dataset: Dataset) -> np.ndarray:
    """Library-times-coefficients prediction of the targets.

    Differential models return the dataset's sample layout
    ``(*spatial, time, n)``; weak models return one row per subdomain.
    """
    source = _Design(dataset, model.library, model.diff, targets=False, names=model.feature_names)
    pred = _products(source, model.xi)[0]
    if isinstance(model.library, WeakPDE):
        return pred
    return unflatten(pred, dataset.grid.sample_shape)


def _predicted_and_actual(model: FittedModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(rows, n)`` predictions and computed targets of one or more
    trajectories, from one pass over the design's blocks."""
    pred, actual = _products(_Design(data, model.library, model.diff, names=model.feature_names),
                             model.xi)
    if actual.shape[1] != len(model.target_names):
        raise SpecError(f"the data have {actual.shape[1]} states, the model "
                        f"{len(model.target_names)} targets")
    return pred, actual


def _squares(x: np.ndarray) -> np.ndarray:
    """``x ** 2``, in place of the temporary ``x``."""
    return np.multiply(x, x, out=x)


def _metric(pred: np.ndarray, actual: np.ndarray, metric: str) -> float:
    if metric == "rmse":
        return float(np.sqrt(np.mean(_squares(pred - actual))))
    if metric == "r2":
        ss_tot = float(np.sum(_squares(actual - actual.mean())))
        if ss_tot == 0.0:
            raise DataError("r2 is undefined for a constant target")
        ss_res = float(np.sum(_squares(pred - actual)))
        return 1.0 - ss_res / ss_tot
    raise SpecError(f"unknown metric {metric!r} (use r2 or rmse)")


def score(model: FittedModel, data, metric: str = "r2") -> float:
    """Pooled r2 or rmse of predictions against computed targets, over one
    dataset or the stacked rows of several trajectories."""
    return _metric(*_predicted_and_actual(model, data), metric)


@dataclass(frozen=True)
class SimulationResult:
    """Integrated trajectory; truncated at the last step before blow-up."""

    t: np.ndarray
    states: np.ndarray
    blew_up: bool = False
    message: str = ""
    n_rhs_evals: int = 0


def simulate(
    model: FittedModel,
    initial_state: np.ndarray,
    t_eval: np.ndarray,
    controls: np.ndarray | None = None,
) -> SimulationResult:
    """Integrate dq/dt = features(q, u) @ xi with adaptive Runge-Kutta (DOP853).

    Tolerances are rtol 1e-8 / atol 1e-10.  ``controls`` rows align with
    ``t_eval`` and are interpolated linearly in time.  If the state norm
    exceeds 1e8 the trajectory is truncated and flagged.  The library is
    planned once; a weak-form model integrates its derivative-free inner
    library, whose columns its coefficients multiply.
    """
    # imported here so that importing the CLI loads no integrator
    from .integrate import integrate

    t_eval = np.asarray(t_eval, dtype=float)
    # a NaN passes the increasing check, and an infinite end is never reached
    finite = np.isfinite(t_eval).all()
    if t_eval.ndim != 1 or t_eval.size == 0 or not finite or np.any(np.diff(t_eval) <= 0):
        raise SpecError("t_eval must be a non-empty, strictly increasing 1-D array of finite times")
    q0 = np.atleast_1d(np.asarray(initial_state, dtype=float))
    n = len(model.target_names)
    if q0.shape != (n,):
        raise SpecError(f"initial state has shape {q0.shape}, expected ({n},)")
    if not np.isfinite(q0).all():
        raise SpecError("initial state must be finite")
    xi = model.xi

    if controls is not None:
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        if controls.shape[0] != t_eval.size:
            raise SpecError("controls must provide one row per t_eval entry")
        if not np.isfinite(controls).all():
            raise SpecError("controls must be finite")
    plan = GridPlan(model.library, n, 0 if controls is None else controls.shape[1])
    if plan.names != model.feature_names:
        raise SpecError("model coefficients do not match its library's columns")
    if plan.blocks:
        raise SpecError("a model with derivative features cannot be simulated")
    apply = plan.apply
    row = np.empty((1, len(plan.names)))  # the feature row each right-hand side fills

    if controls is None:
        def rhs(t: float, q: np.ndarray) -> np.ndarray:
            return apply(q[None, :], out=row)[0] @ xi
    else:
        def rhs(t: float, q: np.ndarray) -> np.ndarray:
            u = [np.interp(t, t_eval, controls[:, j]) for j in range(controls.shape[1])]
            return apply(np.concatenate([q, u])[None, :], out=row)[0] @ xi

    def blow_up(t: float, q: np.ndarray) -> float:
        return sqrt(q.dot(q)) - BLOWUP_NORM  # the bits of np.linalg.norm(q)

    sol = integrate(rhs, t_eval, q0, rtol=1e-8, atol=1e-10, event=blow_up)
    blew_up = bool(sol.status == 1)
    if sol.status < 0:
        raise FitError(f"integration failed: {sol.message}")
    return SimulationResult(
        t=sol.t,
        states=sol.y,
        blew_up=blew_up,
        message="state norm exceeded 1e8" if blew_up else "",
        n_rhs_evals=int(sol.nfev),
    )


@dataclass(frozen=True)
class ImplicitCandidate:
    """One left-hand-side hypothesis from an implicit identification sweep."""

    lhs_name: str
    model: FittedModel
    residual: float
    degenerate: bool = False


def fit_implicit(
    data,
    library: LibrarySpec,
    opt: OptimizerSpec,
    candidate_lhs: list[str],
    diff: DiffMethod = FiniteDifference(),
) -> list[ImplicitCandidate]:
    """Regress each candidate library column on the remaining columns.

    Feature columns numerically identical to the candidate are excluded from
    its regression (a duplicated column would explain itself); residuals are
    normalized by the candidate's norm and the list is sorted ascending, with
    near-zero residuals flagged as degenerate.  Every candidate is a view of
    the one library design with that column as its target.
    """
    problem = design(data, library, diff, targets=False)
    theta, names = problem.theta, problem.feature_names
    library_rows = _Rows.of(problem)
    first = _first_equal_columns(theta)
    results = []
    for cand in candidate_lhs:
        if cand not in names:
            raise SpecError(f"candidate LHS {cand!r} is not a library column")
        j = names.index(cand)
        keep = np.flatnonzero(first != first[j])
        if not keep.size:
            raise SpecError(f"no features left to explain {cand!r}")
        rows = replace(library_rows, features=keep, targets=np.array([j]))
        coefficients = _finish(rows, *_fit_rows(rows, opt))
        norm = float(np.linalg.norm(theta[:, j]))
        residual = float(coefficients.residuals[0]) / norm if norm > 0 else 0.0
        model = FittedModel(coefficients, library, diff, target_names=(cand,))
        results.append(ImplicitCandidate(cand, model, residual, degenerate=residual < 1e-12))
    results.sort(key=lambda r: r.residual)
    return results


def _first_equal_columns(theta: np.ndarray) -> np.ndarray:
    """For each column, the first column equal to it value for value, in one
    pass that buckets columns by the hash of their bytes (``+ 0.0`` turns
    -0.0 into 0.0, which compares equal)."""
    first, buckets = np.arange(theta.shape[1]), {}
    for i in range(theta.shape[1]):
        bucket = buckets.setdefault(hash((theta[:, i] + 0.0).tobytes()), [])
        first[i] = next((k for k in bucket if np.array_equal(theta[:, k], theta[:, i])), i)
        bucket.append(i)
    return first


def _format_coefficient(value: float, precision: int) -> str:
    value = float(value)
    if value == 0:
        return "0"
    exponent = floor(log10(abs(value)))
    return repr(round(value, precision - 1 - exponent))


def equations(model: FittedModel, precision: int = 3) -> list[str]:
    """Human-readable equations, one per target.

    Coefficients are rounded to ``precision`` significant digits, zero terms
    omitted, and terms ordered by library column index.
    """
    if precision < 1:
        raise SpecError(f"precision must be >= 1, got {precision}")
    out, support = [], model.coefficients.support
    for j, target in enumerate(model.target_names):
        terms = [
            f"{_format_coefficient(model.xi[i, j], precision)} {name}"
            for i, name in enumerate(model.feature_names)
            if support[i, j]
        ]
        rhs = " + ".join(terms) if terms else "0"
        out.append(f"{target} = {rhs}")
    return out


def parse_equation(text: str) -> tuple[str, dict[str, float]]:
    """Inverse of ``equations``: target name and name -> coefficient map."""
    target, _, rhs = text.partition(" = ")
    if not rhs:
        raise SpecError(f"not an equation string: {text!r}")
    rhs = rhs.strip()
    if rhs == "0":
        return target, {}
    terms = {}
    for chunk in rhs.split(" + "):
        coef_str, _, name = chunk.partition(" ")
        terms[name] = float(coef_str)
    return target, terms

"""Fit / predict / simulate / score orchestration.

``fit`` turns trajectories into one stacked regression problem: differential
libraries pair feature rows with numerically computed time derivatives, weak
libraries pair subdomain rows with the integrated left-hand side.  Rows are
stacked across trajectories in input order and never differenced across
trajectory boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import floor, log10

import numpy as np

from .data import Dataset, SampleIndexMap, as_collection, unflatten
from .diff import DiffMethod, FiniteDifference, differentiate_dataset
from .ensemble import EnsembleReport, EnsembleSpec, fit_ensemble
from .errors import DataError, FitError, SpecError
from .library import FeatureMatrix, GridPlan, LibrarySpec, WeakPDE, evaluate, validate
from .optimize import STLSQ, Coefficients, OptimizerSpec, Problem, solve
from .optimize import _finish, _fit_rows, _Rows

BLOWUP_NORM = 1e8


@dataclass(frozen=True)
class FittedModel:
    """Discovered model: sparse coefficients over a named candidate library."""

    coefficients: Coefficients
    library: LibrarySpec
    diff: DiffMethod
    target_names: tuple[str, ...]
    diagnostics: dict = field(default_factory=dict)
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


def _check_target_diff(diff: DiffMethod) -> None:
    """A fit's ``diff`` makes its targets, the first time derivatives."""
    if diff.d != 1:
        raise SpecError(f"fit targets are first time derivatives; {diff!r} has d={diff.d}")


def regression_targets(
    fm: FeatureMatrix, dataset: Dataset, diff: DiffMethod
) -> np.ndarray:
    """The ``(rows, n_states)`` targets of the rows of ``fm``, evaluated on
    ``dataset``: the weak left-hand side of a weak library, else the
    flattened first time derivatives of the states."""
    _check_target_diff(diff)
    if fm.weak_lhs is not None:
        return fm.weak_lhs
    return differentiate_dataset(dataset, diff, "t").reshape(-1, dataset.n_states)


def _assemble(
    collection, library: LibrarySpec, diff: DiffMethod, with_targets: bool = True
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Stacked (theta, targets, names) across trajectories, the targets
    ``(rows, 0)`` without ``with_targets``; a single trajectory's blocks are
    returned as they are."""
    blocks, targets, names = [], [], None
    for ds in collection:
        fm = evaluate(library, ds, diff)
        if names is None:
            names = fm.names
        elif names != fm.names:
            raise SpecError("trajectories disagree on library feature names")
        blocks.append(fm.values)
        targets.append(regression_targets(fm, ds, diff) if with_targets else fm.values[:, :0])
    if len(blocks) == 1:
        return blocks[0], targets[0], names
    return np.vstack(blocks), np.vstack(targets), names


def fit(
    data,
    library: LibrarySpec,
    diff: DiffMethod = FiniteDifference(),
    opt: OptimizerSpec | None = None,
    ensemble: EnsembleSpec | None = None,
    normalize_columns: bool = False,
) -> FittedModel:
    """Discover sparse dynamics from one or more trajectories.

    ``diff`` computes the time-derivative targets (and any library
    derivatives that lack their own embedded method).  With ``ensemble``
    given, the optimizer runs on sub-sampled problems and the aggregated
    coefficients are returned alongside the full ensemble report.
    """
    if opt is None:
        opt = STLSQ()
    collection = as_collection(data)
    validate(library)
    theta, targets, names = _assemble(collection, library, diff)
    problem = Problem(
        theta=theta,
        targets=targets,
        normalize_columns=normalize_columns,
        feature_names=names,
    )
    report = None
    if ensemble is not None:
        report = fit_ensemble(problem, opt, ensemble)
        coefficients = report.coefficients
    else:
        coefficients = solve(problem, opt)
    target_names = tuple(f"q{j}_t" for j in range(collection.n_states))
    return FittedModel(
        coefficients=coefficients,
        library=library,
        diff=diff,
        target_names=target_names,
        diagnostics=dict(coefficients.diagnostics),
        ensemble=report,
    )


def predict(model: FittedModel, dataset: Dataset) -> np.ndarray:
    """Library-times-coefficients prediction of the targets.

    Differential models return the dataset's sample layout
    ``(*spatial, time, n)``; weak models return one row per subdomain.
    """
    fm = evaluate(model.library, dataset, model.diff)
    pred = fm.values @ model.xi
    if isinstance(model.library, WeakPDE):
        return pred
    return unflatten(pred, SampleIndexMap(dataset.grid.sample_shape))


def _predicted_and_actual(
    model: FittedModel, dataset: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(rows, n)`` predictions and computed targets of one dataset,
    from a single library evaluation."""
    fm = evaluate(model.library, dataset, model.diff)
    return fm.values @ model.xi, regression_targets(fm, dataset, model.diff)


def _metric(pred: np.ndarray, actual: np.ndarray, metric: str) -> float:
    if metric == "rmse":
        return float(np.sqrt(np.mean((pred - actual) ** 2)))
    if metric == "r2":
        ss_tot = float(np.sum((actual - actual.mean()) ** 2))
        if ss_tot == 0.0:
            raise DataError("r2 is undefined for a constant target")
        ss_res = float(np.sum((pred - actual) ** 2))
        return 1.0 - ss_res / ss_tot
    raise SpecError(f"unknown metric {metric!r} (use r2 or rmse)")


def score(model: FittedModel, dataset: Dataset, metric: str = "r2") -> float:
    """Pooled r2 or rmse of predictions against computed target derivatives."""
    return _metric(*_predicted_and_actual(model, dataset), metric)


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
    """Integrate dq/dt = features(q, u) @ xi with adaptive Runge-Kutta (4/5).

    Tolerances are rtol 1e-8 / atol 1e-10.  ``controls`` rows align with
    ``t_eval`` and are interpolated linearly in time.  If the state norm
    exceeds 1e8 the trajectory is truncated and flagged.  The library is
    planned once; a weak-form model integrates its derivative-free inner
    library, whose columns its coefficients multiply.
    """
    # imported here so that importing the package never loads scipy
    from scipy.integrate import solve_ivp

    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or np.any(np.diff(t_eval) <= 0):
        raise SpecError("t_eval must be strictly increasing")
    q0 = np.atleast_1d(np.asarray(initial_state, dtype=float))
    n = len(model.target_names)
    if q0.shape != (n,):
        raise SpecError(f"initial state has shape {q0.shape}, expected ({n},)")
    xi = model.xi

    if controls is not None:
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        if controls.shape[0] != t_eval.size:
            raise SpecError("controls must provide one row per t_eval entry")
    plan = GridPlan(model.library, n, 0 if controls is None else controls.shape[1])
    if plan.names != model.feature_names:
        raise SpecError("model coefficients do not match its library's columns")
    if plan.blocks:
        raise SpecError("a model with derivative features cannot be simulated")
    apply = plan.apply

    if controls is None:
        def rhs(t: float, q: np.ndarray) -> np.ndarray:
            return apply(q[None, :])[0] @ xi
    else:
        def rhs(t: float, q: np.ndarray) -> np.ndarray:
            u = [np.interp(t, t_eval, controls[:, j]) for j in range(controls.shape[1])]
            return apply(np.concatenate([q, u])[None, :])[0] @ xi

    def blow_up(t: float, q: np.ndarray) -> float:
        return float(np.linalg.norm(q)) - BLOWUP_NORM

    blow_up.terminal = True

    sol = solve_ivp(
        rhs,
        (t_eval[0], t_eval[-1]),
        q0,
        method="RK45",
        t_eval=t_eval,
        rtol=1e-8,
        atol=1e-10,
        events=blow_up,
        dense_output=False,
    )
    blew_up = bool(sol.status == 1)
    if sol.status < 0:
        raise FitError(f"integration failed: {sol.message}")
    return SimulationResult(
        t=sol.t,
        states=sol.y.T,
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
    the one assembled library with that column as its target.
    """
    collection = as_collection(data)
    validate(library)
    theta, _, names = _assemble(collection, library, diff, with_targets=False)
    library_rows = _Rows.of(Problem(theta=theta, targets=theta[:, :0], feature_names=names))
    results = []
    for cand in candidate_lhs:
        if cand not in names:
            raise SpecError(f"candidate LHS {cand!r} is not a library column")
        j = names.index(cand)
        target = theta[:, j]
        keep = [
            i
            for i in range(theta.shape[1])
            if i != j and not np.array_equal(theta[:, i], target)
        ]
        if not keep:
            raise SpecError(f"no features left to explain {cand!r}")
        rows = replace(library_rows, features=np.array(keep), targets=np.array([j]))
        coefficients = _finish(rows, *_fit_rows(rows, opt))
        norm = float(np.linalg.norm(target))
        residual = float(coefficients.residuals[0]) / norm if norm > 0 else 0.0
        model = FittedModel(
            coefficients=coefficients,
            library=library,
            diff=diff,
            target_names=(cand,),
        )
        results.append(
            ImplicitCandidate(
                lhs_name=cand,
                model=model,
                residual=residual,
                degenerate=residual < 1e-12,
            )
        )
    results.sort(key=lambda r: r.residual)
    return results


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
    out = []
    for j, target in enumerate(model.target_names):
        terms = [
            f"{_format_coefficient(model.xi[i, j], precision)} {name}"
            for i, name in enumerate(model.feature_names)
            if model.coefficients.support[i, j]
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

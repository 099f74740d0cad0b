"""Bagging-style ensembles of sparse regression fits.

Each member solves on a compressed factor of its resampled rows: the bootstrap
draws become row counts C, and the member's factor has R'R = [theta Y]' C W
[theta Y] (W the sample weights).  No member builds its own problem or copies
its rows.  All members read ``[theta Y]`` in one pass of blocks of at most
``optimize.BLOCK_BYTES``, so a model's design fills each block once for them
all; from each block every member gathers its drawn rows over the feature
columns it keeps (a member may drop a few, their coefficients pinned to zero),
scales them by sqrt(count * weight) and adds them to its Gram.  A member holds
its row counts, in the narrowest unsigned type that holds them, and its
(p + n)-square Gram; a member whose Gram is ill conditioned streams its rows
once more for TSQR.  SSR members stream their own passes instead (train
split, holdout and all their rows), one member at a time.  Aggregation is a
per-entry median or mean; inclusion probability is the exact fraction of
members retaining a term.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
import numpy as np

from .errors import FitError, SpecError
from .optimize import SSR, Coefficients, OptimizerSpec, Problem, _finish, _fit_rows, _Rows
from .optimize import _grams, _narrow_counts

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Decorrelated per-member seed (splitmix64 of seed + index * golden)."""
    z = (seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class EnsembleSpec:
    """Sub-sampling ensemble configuration.

    ``row_fraction`` of the rows is drawn per member (with replacement for
    bagging, without for plain sub-sampling); ``n_library_drop`` feature
    columns are removed uniformly at random per member.  Aggregate support
    keeps entries whose inclusion probability reaches ``support_threshold``.
    """

    n_models: int = 20
    row_fraction: float = 0.6
    replace: bool = True
    n_library_drop: int = 0
    aggregator: str = "median"
    support_threshold: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.n_models < 2:
            raise SpecError(f"n_models must be >= 2, got {self.n_models}")
        if not 0.0 < self.row_fraction <= 1.0:
            raise SpecError(f"row_fraction must be in (0, 1], got {self.row_fraction}")
        if self.n_library_drop < 0:
            raise SpecError("n_library_drop must be >= 0")
        if self.aggregator not in ("median", "mean"):
            raise SpecError(f"aggregator must be median or mean, got {self.aggregator}")
        if not 0.0 < self.support_threshold <= 1.0:
            raise SpecError("support_threshold must be in (0, 1]")


@dataclass(frozen=True)
class EnsembleReport:
    """Member coefficients plus aggregated statistics."""

    member_xi: np.ndarray  # (n_ok, p, n)
    coefficients: Coefficients
    inclusion_probability: np.ndarray  # (p, n)
    iqr: np.ndarray  # (p, n)
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def fit_ensemble(
    problem: Problem | _Rows, opt: OptimizerSpec, spec: EnsembleSpec
) -> EnsembleReport:
    """Fit ``spec.n_models`` members and aggregate, on a problem or on the
    rows of a model's design (``model.fit`` passes them).

    Each member solves on the factor of its count-weighted rows (a row drawn
    c times enters the Gram with weight c), so full-fraction sampling without
    replacement reproduces the plain solve exactly, residuals included.
    Fully deterministic given the spec seed: member seeds come from
    ``derive_seed`` and aggregation does not depend on completion order.
    Members whose solve raises are excluded; more than half failing is an
    error.
    """
    spec.validate()
    base = _Rows.of(problem)
    m, p = base.data.shape[0], base.n_features
    if spec.n_library_drop >= p:
        raise SpecError(
            f"cannot drop {spec.n_library_drop} of {p} library columns"
        )
    n_rows = max(1, int(round(spec.row_fraction * m)))
    if n_rows < p:
        warnings.warn(
            f"ensemble members see {n_rows} rows for {p} features; "
            "row_fraction may be too small",
            stacklevel=2,
        )

    draws = []
    for i in range(spec.n_models):
        rng = np.random.default_rng(derive_seed(spec.seed, i))
        # the drawn positions live only while they are counted
        counts = np.bincount(
            rng.integers(0, m, size=n_rows) if spec.replace else rng.permutation(m)[:n_rows],
            minlength=m,
        )
        features = base.features
        if spec.n_library_drop:
            dropped = rng.choice(p, size=spec.n_library_drop, replace=False)
            features = np.setdiff1d(np.arange(p), dropped)
        draws.append(replace(base, counts=_narrow_counts(counts), features=features))
    # one pass sums every member's Gram; SSR members read their own splits
    grams = [None] * len(draws) if isinstance(opt, SSR) else _grams(draws)

    members: list[np.ndarray] = []
    failures: list[str] = []
    for i, (draw, gram) in enumerate(zip(draws, grams)):
        try:
            members.append(_fit_rows(draw, opt, gram)[0])
        except (FitError, SpecError, np.linalg.LinAlgError) as exc:
            failures.append(f"member {i}: {exc}")

    if len(members) <= spec.n_models / 2:
        raise FitError(
            f"{len(failures)} of {spec.n_models} ensemble members failed: "
            + "; ".join(failures[:3])
        )

    stack = np.stack(members)
    xi, inclusion, iqr = aggregate_members(stack, spec)
    diags = {"ensemble_members": len(members), "ensemble_failed": len(failures)}
    return EnsembleReport(
        member_xi=stack,
        coefficients=_finish(base, xi, diags),
        inclusion_probability=inclusion,
        iqr=iqr,
        failures=tuple(failures),
    )


def aggregate_members(
    stack: np.ndarray, spec: EnsembleSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate an (n_members, p, n) coefficient stack.

    Returns (aggregated xi, inclusion probability, interquartile range); the
    aggregate is zeroed wherever inclusion falls below the support threshold.
    """
    inclusion = (stack != 0.0).sum(axis=0) / stack.shape[0]
    if spec.aggregator == "median":
        agg = np.median(stack, axis=0)
    else:
        agg = stack.mean(axis=0)
    xi = np.where(inclusion >= spec.support_threshold, agg, 0.0)
    q75, q25 = np.percentile(stack, [75, 25], axis=0)
    return xi, inclusion, q75 - q25

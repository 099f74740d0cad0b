"""Sparse regression solvers sharing one interface.

All solvers minimize ||targets - theta @ xi||^2 plus a sparsity-promoting
term, differing in how sparsity is reached:

* STLSQ  - ridge regression alternated with hard thresholding;
* SR3    - relaxed coefficients coupled to a sparse auxiliary variable via a
           proximal step, with optional linear equality constraints;
* SSR    - backward elimination of the smallest (normalized) coefficient;
* FROLS  - forward selection by error reduction ratio on an orthogonalized
           residual.

All four read the data only through inner products, so they run on one
compressed factor of ``[theta Y]``: an upper-triangular R of p + n rows with
R'R = [theta Y]' W [theta Y] (W the sample weights), from Cholesky of the Gram
matrix when that is well conditioned and TSQR (blockwise Householder QR) of
the rows otherwise.  Bagging ensembles and SSR's holdout split reuse it with
row counts folded into W.  The factor and the returned residuals read
``[theta Y]`` in blocks of ``BLOCK_BYTES`` of its full rows, one partition
for every pass, and gather and scale by sqrt(W) the rows of nonzero weight of
each block on its own, so a weighted or resampled fit copies no more than one
block of rows.  ``_stream`` makes every block: the rows are an array, whose
blocks are views, or a model's design, which fills each block from its
narrow inputs when a pass reads it, so that no fit of a grid library holds
theta whole.  Each pass names the layout a design fills for it.  A Gram or a
QR has the same bits in either layout, so their passes read column-major
blocks, each column written contiguously, and gather and scale rows along
its columns.  A matrix product does not: its kernel sums in another order
for the other layout, so the residual and prediction (``_products``) passes
read row-major blocks, the layout of an array's rows.  A product pass also
names the columns it reads, those where some coefficient is nonzero and the
targets, and a design fills only these into one zeroed buffer for the pass:
a zero column times a zero coefficient adds an exact zero, so BLAS sums the
same nonzero terms in the same order and every product keeps its bits.
Gram and TSQR passes fill every column.  Row sets that share
the rows (SSR's train split and all its rows, or every ensemble member) sum
their Grams in one pass.  Every solver reports the factor's
``cond_estimate`` and ``rank_deficient``.

Solvers are deterministic given their inputs.  Zero feature columns are
dropped before solving and reported in diagnostics; coefficients keep the
original indexing with zeros in dropped positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, NamedTuple, Union

import numpy as np

from .errors import DataError, FitError, SpecError, check_finite

HOLDOUT_FRACTION = 0.25
HOLDOUT_SEED = 7919
# Relative slack on the smallest holdout residual along an SSR path: each
# target takes the sparsest entry within it.
HOLDOUT_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class Problem:
    """Feature matrix, targets, and row/column conditioning options.

    ``normalize_columns`` solves in column-2-norm-scaled feature space
    (thresholds then act on normalized coefficients, making support selection
    invariant to column rescaling) and rescales the coefficients back
    afterwards.  Note that ridge penalties then also act on normalized-scale
    coefficients, which are larger by the column norms; prefer a small or
    zero ridge when normalizing.
    """

    theta: np.ndarray
    targets: np.ndarray
    sample_weights: np.ndarray | None = None
    normalize_columns: bool = False
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        targets = np.asarray(self.targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if theta.shape[0] != targets.shape[0]:
            raise SpecError(
                f"theta has {theta.shape[0]} rows, targets {targets.shape[0]}"
            )
        if theta.shape[0] < 1 or theta.shape[1] < 1:
            raise SpecError("problem needs at least one row and one feature")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "targets", targets)
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            if len(names) != theta.shape[1]:
                raise SpecError(
                    f"{len(names)} feature names for {theta.shape[1]} columns"
                )
            object.__setattr__(self, "feature_names", names)
        if not np.isfinite(theta).all():
            bad = np.flatnonzero(~np.isfinite(theta).all(axis=0))
            raise _non_finite_error([self.names()[i] for i in bad])
        if not np.isfinite(targets).all():
            raise _non_finite_error([])
        if self.sample_weights is not None:
            w = np.asarray(self.sample_weights, dtype=float)
            if w.shape != (theta.shape[0],) or np.any(w < 0):
                raise SpecError("sample_weights must be non-negative, one per row")
            if not np.isfinite(w).all():
                raise DataError("non-finite sample_weights")
            object.__setattr__(self, "sample_weights", w)

    @property
    def n_features(self) -> int:
        return self.theta.shape[1]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[1]

    def names(self) -> tuple[str, ...]:
        if self.feature_names is not None:
            return self.feature_names
        return tuple(f"f{i}" for i in range(self.n_features))


def _non_finite_error(columns: list[str]) -> DataError:
    """The error of a problem with non-finite values: in the feature
    ``columns`` named, or, if there are none, in the targets."""
    if columns:
        return DataError(f"non-finite values in feature columns {columns}")
    return DataError("non-finite values in targets")


@dataclass(frozen=True)
class Coefficients:
    """Sparse coefficient matrix (features x targets) with bookkeeping."""

    xi: np.ndarray
    names: tuple[str, ...]
    residuals: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))

    @property
    def support(self) -> np.ndarray:
        """The nonzero entries of ``xi``."""
        return self.xi != 0.0

    @property
    def n_terms(self) -> int:
        return int(self.support.sum())


@dataclass(frozen=True)
class STLSQ:
    threshold: float = 0.1
    ridge: float = 0.05
    max_iter: int = 20

    def validate(self) -> None:
        check_finite(self)
        if self.threshold < 0 or self.ridge < 0 or self.max_iter < 1:
            raise SpecError(f"invalid STLSQ spec {self}")


@dataclass(frozen=True)
class SR3:
    threshold: float = 0.1
    relaxation: float = 1.0
    regularizer: Literal["l0", "l1"] = "l0"
    max_iter: int = 30
    tol: float = 1e-5
    # C vec(xi) = d as (rows of C, d), tuples of floats: specs are plain values
    constraints: tuple[tuple[tuple[float, ...], ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.constraints is not None:
            try:
                C, d = (np.asarray(part, dtype=float) for part in self.constraints)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"malformed SR3 constraints: {exc}") from None
            if C.ndim != 2 or d.ndim != 1 or C.size == 0:
                raise SpecError(f"malformed SR3 constraints: shapes {C.shape}, {d.shape}")
            rows = tuple(map(tuple, C.tolist()))
            object.__setattr__(self, "constraints", (rows, tuple(d.tolist())))

    def validate(self) -> None:
        check_finite(self, "threshold", "relaxation", "max_iter", "tol")
        if self.threshold < 0 or self.relaxation <= 0 or self.max_iter < 1:
            raise SpecError(f"invalid SR3 spec {self}")
        if self.regularizer not in ("l0", "l1"):
            raise SpecError(f"SR3 regularizer must be l0 or l1, got {self.regularizer}")
        if self.constraints is not None:
            C, d = self.constraints
            if len(C) != len(d):
                raise SpecError("constraint matrix and rhs row counts differ")
            if not (np.isfinite(C).all() and np.isfinite(d).all()):
                raise SpecError("SR3 constraints must be finite")
            if len(C) > len(C[0]):
                raise SpecError(f"{len(C)} constraints exceed {len(C[0])} coefficients")
            s = np.linalg.svd(np.array(C), compute_uv=False)
            if s[-1] <= 1e-10 * s[0]:
                raise SpecError("constraint matrix is not full row rank (tol 1e-10)")


@dataclass(frozen=True)
class SSR:
    """Backward elimination from the full support to ``min_terms`` terms;
    ``solve`` refits each target's holdout pick, ``solve_path`` gives all."""

    min_terms: int = 1

    def validate(self) -> None:
        if self.min_terms < 1:
            raise SpecError(f"min_terms must be >= 1, got {self.min_terms}")


@dataclass(frozen=True)
class FROLS:
    max_terms: int | None = None
    err_tol: float = 1e-6

    def validate(self) -> None:
        check_finite(self)
        if self.max_terms is not None and self.max_terms < 1:
            raise SpecError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.err_tol < 0:
            raise SpecError(f"err_tol must be >= 0, got {self.err_tol}")


OptimizerSpec = Union[STLSQ, SR3, SSR, FROLS]


class PathEntry(NamedTuple):
    coefficients: Coefficients
    support_size: int
    residual: float


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Closed-form prox of t*||.||_1: shrink toward zero by t."""
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def hard_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Prox of the l0 penalty: zero entries smaller than t in magnitude."""
    return np.where(np.abs(x) >= t, x, 0.0)


# ---------------------------------------------------------------------------
# Shared plumbing: the compressed regression factor
# ---------------------------------------------------------------------------

# Cholesky of the Gram matrix is kept only while every feature column retains
# at least this share of its squared norm once the columns before it are
# projected out (min R_ii^2 / G_ii) ...
CHOLESKY_MIN_PIVOT = 1e-3
# ... and while the 2-norm condition number of the column-normalized feature
# columns, read from the singular values of the factor's feature triangle, is
# at most this.  The normal equations lose about cond^2 * eps, QR cond * eps:
# up to 1e-8 relative here.  The pivot test alone passes designs whose
# condition grows geometrically with their width (a Kahan-type triangle);
# the factor then comes from Householder QR of the rows instead.  The number
# read from Cholesky of the Gram is accurate up to about 1 / sqrt(eps).
CHOLESKY_MAX_COND = 1e4
# A feature column whose diagonal entry |R_ii| is at most this share of its
# norm lies (numerically) in the span of the columns before it.
RANK_RTOL = 1e-10


# A pass over the rows of [theta Y] reads them one block at a time; a block
# holds this many bytes of full rows.
BLOCK_BYTES = 1 << 20


# A matrix product kernel may take rows in groups (OpenBLAS's dgemv takes
# four at a time) and round a last, partial group otherwise; products over
# blocks of whole groups of this many rows have the bits of one product over
# all the rows.  A matrix-matrix product (several targets) can still round
# otherwise: OpenBLAS's products of some sizes differed in the last bit.
PRODUCT_ROWS = 64

# The failure of a fit on rows where every library column is zero (among
# them, a row set with no row of nonzero weight)
NO_FEATURE = "every library column is zero on the rows being fit; there is no feature to fit"


def _block_rows(width: int) -> int:
    """Rows per block of float64 rows ``width`` wide."""
    return max(1, BLOCK_BYTES // (width * 8))


def _stream(data, multiple: int = 1, order: str = "F", columns: np.ndarray | None = None):
    """(row slice, block) for each block of ``data`` in order: the next
    ``BLOCK_BYTES`` of its full float64 rows, whatever columns a reader
    takes, so every pass over the same rows has the same partition.  With
    ``multiple``, a block holds whole multiples of that many rows (at least
    one), and the last one also any rows short of a multiple.  ``data`` is an
    array, whose block is a view of its rows whatever ``order``, or a model's
    design, which fills each block anew in ``order`` ("F": column-major, for
    Grams and QR; "C": row-major, for products) and checks it finite.
    ``columns``, a mask of ``data``'s columns (None: all), names the ones a
    product pass reads: a design then writes only those, into one buffer
    zeroed once for the pass, whose other columns stay zero; a mask of every
    column takes the whole fill.  A reader keeps no block past its turn."""
    m, step = data.shape[0], _block_rows(data.shape[1])
    step, start = max(multiple, step - step % multiple), 0
    if isinstance(data, np.ndarray):
        read = data.__getitem__
    elif columns is None or columns.all():
        def read(at: slice) -> np.ndarray:
            return data.block(at, order)
    else:
        # the largest block: the last one also takes the rows short of a multiple
        buffer = np.zeros((min(m, step + multiple - 1), data.shape[1]), order=order)

        def read(at: slice) -> np.ndarray:
            return data.block(at, order, columns, buffer[: at.stop - at.start])
    while start < m:
        stop = start + step if m - start - step >= multiple else m
        at = slice(start, stop)
        yield at, read(at)
        start = stop


def _used(xis: np.ndarray, width: int, targets) -> np.ndarray:
    """The mask of the ``width`` columns of ``[theta Y]`` that products with
    the ``(k, p, n)`` coefficient matrices ``xis`` read: the library columns
    where some coefficient is nonzero (a zero column times a zero
    coefficient adds an exact zero, so a product keeps its bits) and the
    ``targets``."""
    columns = np.zeros(width, dtype=bool)
    columns[: xis.shape[1]] = (xis != 0.0).any(axis=(0, 2))
    columns[targets] = True
    return columns


def _products(data, p: int, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``theta @ xi`` and the targets of ``data``, rows ``[theta Y]`` with
    ``p`` library columns, from one pass over row-major blocks of whole
    ``PRODUCT_ROWS`` groups, so that the product has the bits of one product
    over all rows.  A design fills only the columns of ``xi``'s support and
    the targets."""
    m, width = data.shape
    pred, actual = np.empty((m, xi.shape[1])), np.empty((m, width - p))
    for at, block in _stream(data, PRODUCT_ROWS, "C", _used(xi[None], width, slice(p, None))):
        pred[at] = block[:, :p] @ xi
        actual[at] = block[:, p:]
        del block  # each block is freed before the next is filled
    return pred, actual


def _cholesky(gram: np.ndarray, n_features: int) -> np.ndarray | None:
    """Upper-triangular R with R'R = ``gram``, or None where Cholesky fails
    or the first ``n_features`` columns are ill conditioned: min R_ii^2 /
    G_ii below ``CHOLESKY_MIN_PIVOT``, or the condition number of their
    column-normalized triangle above ``CHOLESKY_MAX_COND``."""
    try:
        R = np.linalg.cholesky(gram).T
    except np.linalg.LinAlgError:
        return None
    squares = np.diagonal(gram)[:n_features]
    if (np.diagonal(R)[:n_features] ** 2 / squares).min() < CHOLESKY_MIN_PIVOT:
        return None
    s = np.linalg.svd(R[:n_features, :n_features] / np.sqrt(squares), compute_uv=False)
    return R if s[0] <= CHOLESKY_MAX_COND * s[-1] else None


class _Factor:
    """Compressed, zero-column-dropped, optionally normalized view of a problem.

    ``theta`` and ``targets`` are the column blocks of an upper-triangular R
    with R'R = [theta Y]' W [theta Y], W the row weights.  Every solver reads
    the data only through inner products, which R reproduces on its p + n
    rows in place of the problem's m rows.  ``index`` maps each factor column
    to its library column.
    """

    def __init__(
        self,
        R: np.ndarray,
        columns: np.ndarray,
        n_features: int,
        normalize: bool,
        names: tuple[str, ...],
    ):
        """``R`` factors the library columns ``columns`` followed by the
        targets; the view keeps the nonzero ones among ``columns``."""
        k0 = columns.size
        norms = np.linalg.norm(R[:, :k0], axis=0)
        keep = norms > 0.0
        self.n_features = n_features
        self.index = columns[keep]
        self.dropped = columns[~keep]
        k = self.index.size
        if k == 0:
            raise FitError(NO_FEATURE)
        if k < k0:
            kept = np.concatenate((np.flatnonzero(keep), np.arange(k0, R.shape[1])))
            R = np.linalg.qr(R[:, kept], mode="r")
        self.scale = norms[keep] if normalize else np.ones(k)
        self.theta = R[:, :k] / self.scale
        self.targets = R[:, k:]
        diag = np.zeros(k)
        diag[: min(k, R.shape[0])] = np.abs(np.diagonal(self.theta))
        singular = diag <= RANK_RTOL * np.linalg.norm(self.theta, axis=0)
        self.diagnostics: dict = {
            "cond_estimate": (
                float(diag.max() / diag.min()) if diag.min() > 0.0 else np.inf
            ),
            "rank_deficient": bool(singular.any()),
        }
        if self.dropped.size:
            self.diagnostics["dropped_columns"] = [names[i] for i in self.dropped]

    def embed(self, xi_n: np.ndarray) -> np.ndarray:
        """Reduced normalized coefficients in the original indexing and scale."""
        xi = np.zeros((self.n_features, xi_n.shape[1]))
        xi[self.index] = xi_n / self.scale[:, None]
        return xi


@dataclass(frozen=True)
class _Rows:
    """A weighted multiset of rows of library columns and targets.

    ``data[:, features]`` are the library columns in play and
    ``data[:, targets]`` the targets: a problem's ``[theta Y]``, or the
    library alone with one of its columns as the target of an implicit
    candidate.  ``data`` is an array, or a model's design, which fills each
    block a pass reads (``_stream``).  ``n_features`` is the library's
    width.  A row takes part with weight count * sample weight (``counts``:
    None, every row once); rows of weight 0 are left out.
    Variants (ensemble members, holdout splits, candidates) share ``data``;
    factors and residuals read it one block at a time, and gather from each
    block the rows they weigh, so none copies more than a block of it.
    """

    data: np.ndarray
    n_features: int
    weights: np.ndarray | None
    normalize: bool
    names: tuple[str, ...]
    features: np.ndarray | slice
    targets: np.ndarray | slice
    counts: np.ndarray | None = None

    @classmethod
    def of(cls, problem: "Problem | _Rows") -> "_Rows":
        """The rows of ``problem``, read in place when its theta and targets
        are the first p and last n columns of one C-ordered array (the
        layout of ``design``'s problems), else copied into one; rows are
        themselves."""
        if isinstance(problem, _Rows):
            return problem
        theta, targets, p = problem.theta, problem.targets, problem.n_features
        data = theta.base
        views = (theta.__array_interface__, targets.__array_interface__)
        if not (isinstance(data, np.ndarray) and data.flags.c_contiguous
                and data.shape == (theta.shape[0], p + problem.n_targets)
                and views == (data[:, :p].__array_interface__, data[:, p:].__array_interface__)):
            # C order whatever theta's layout: members gather whole rows of it
            data = np.empty((theta.shape[0], p + problem.n_targets))
            data[:, :p] = theta
            data[:, p:] = targets
        return cls(
            data=data,
            n_features=p,
            weights=problem.sample_weights,
            normalize=problem.normalize_columns,
            names=problem.names(),
            features=slice(0, p),
            targets=slice(p, None),
        )

    def _gather(self, at: slice, part: np.ndarray, columns: np.ndarray | None = None):
        """The rows of nonzero weight of ``part``, the block of ``data``'s
        rows ``at``, over ``columns`` (None: all), and their sqrt(weight)
        (None where every weight is 1); both None if no row has weight.
        Weighted rows are gathered copies in ``part``'s layout, row-major or
        column-major; unweighted ones may be ``part``."""
        nz, weight = self._weight(at)
        if nz is None:
            return (part if columns is None else part[:, columns]), None
        if not nz.size:
            return None, None
        if part.flags.c_contiguous:
            rows = np.take(part, nz, axis=0) if columns is None else part[np.ix_(nz, columns)]
        else:  # a design's column-major block: gather along each column
            rows = (np.take(part.T, nz, axis=1) if columns is None
                    else part.T[np.ix_(columns, nz)]).T
        return rows, np.sqrt(weight)

    def _scaled(self, at: slice, part: np.ndarray, columns: np.ndarray | None):
        """``_gather``'s rows, each scaled by sqrt(weight); None if none."""
        rows, root = self._gather(at, part, columns)
        if root is not None:
            rows *= root[:, None]
        return rows

    def _weight(self, rows: slice) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The positions in ``rows`` of the rows of nonzero count and sample
        weight, found from a boolean mask, and their count * sample weight
        (both None: every weight is 1); the narrow counts are taken as
        float64, so their square roots are."""
        counts = None if self.counts is None else self.counts[rows]
        weights = None if self.weights is None else self.weights[rows]
        if counts is None and weights is None:
            return None, None
        if counts is None:
            nz = np.flatnonzero(weights != 0)
            return nz, weights[nz]
        nz = np.flatnonzero(counts != 0 if weights is None else (counts != 0) & (weights != 0))
        weight = counts[nz].astype(np.float64)
        return nz, weight if weights is None else weight * weights[nz]

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The library columns in play; the factor's columns, they and then
        the targets; and the latter as a gather (None: every column)."""
        every = np.arange(self.data.shape[1])
        features = every[self.features]
        columns = np.concatenate((features, every[self.targets]))
        return features, columns, None if np.array_equal(columns, every) else columns

    def _factor(self, gram: np.ndarray | None) -> _Factor:
        """The factor of these rows, given their Gram from ``_grams`` (None:
        there are no rows): Cholesky of ``gram`` while that is well
        conditioned, else TSQR, which streams the rows once more and takes
        Householder QR of each block stacked under the R of the blocks
        before it."""
        features, columns, gather = self._columns()
        R = np.zeros((0, columns.size)) if gram is None else _cholesky(gram, features.size)
        if R is None:
            for at, part in _stream(self.data):
                rows = self._scaled(at, part, gather)
                del part  # each block is freed before the next is filled
                if rows is not None:
                    # the gathered block is freed once stacked: only the stack
                    # and qr's copy of it are held
                    rows = rows if R is None else np.vstack((R, rows))
                    R = np.linalg.qr(rows, mode="r")
                del rows
        return _Factor(R, features, self.n_features, self.normalize, self.names)

    def factor(self) -> _Factor:
        """Factor of the rows of nonzero weight, scaled by sqrt(weight), over
        the library columns in play and the targets."""
        return self._factor(_grams([self])[0])

    def split(self) -> tuple["_Rows", "_Rows"]:
        """Seeded (train, holdout) split of the row multiset."""
        m = self.data.shape[0]
        size = m if self.counts is None else int(self.counts.sum())
        # the holdout's prefix is copied, so that the permutation of all
        # ``size`` draws is freed at once
        drawn = np.random.default_rng(HOLDOUT_SEED).permutation(size)[:_holdout_rows(size)].copy()
        if self.counts is not None:
            drawn = np.repeat(np.arange(m), self.counts)[drawn]
        hold = _narrow_counts(np.bincount(drawn, minlength=m))
        # a row is held out at most as often as it is counted: the train
        # counts are formed in the narrow types, without wrapping
        total = 1 if self.counts is None else self.counts
        return replace(self, counts=_narrow_counts(total - hold)), replace(self, counts=hold)

    def residual_norms(self, xis: np.ndarray) -> np.ndarray:
        """Per-target residual norms over the rows of nonzero weight, each
        scaled by sqrt(weight), of every (p, n) coefficient matrix in ``xis``
        (library indexing); returns (len(xis), n).  Squares are summed block
        by block, as ``np.linalg.norm`` sums them, with one square root.  A
        design fills only the library columns some matrix uses and the
        targets."""
        xis_in_play = xis[:, self.features]
        total = np.zeros((len(xis), xis.shape[2]))
        columns = _used(xis, self.data.shape[1], self.targets)
        for at, part in _stream(self.data, order="C", columns=columns):
            rows, root = self._gather(at, part)
            del part  # each block is freed before the next is filled
            if rows is None:
                continue
            resid = rows[:, self.targets] - rows[:, self.features] @ xis_in_play
            if root is not None:
                resid *= root[:, None]
            total += np.add.reduce(resid * resid, axis=1)
            del rows, root, resid
        return np.sqrt(total)


def _holdout_rows(size: int) -> int:
    """The holdout's share of a split of ``size`` rows, leaving at least one
    to train on."""
    n_hold = max(1, int(round(HOLDOUT_FRACTION * size)))
    if size - n_hold < 1:
        raise SpecError(f"{size} rows are too few for a holdout split")
    return n_hold


def _narrow_counts(counts: np.ndarray) -> np.ndarray:
    """Row counts in the narrowest unsigned integer type that holds them."""
    return counts.astype(np.min_scalar_type(counts.max()))


def _grams(row_sets: list[_Rows]) -> list:
    """The Gram of each row set's rows of nonzero weight, scaled by
    sqrt(weight), over its factor's columns (None: no rows), from one pass
    over the rows they share: each block is read (a design fills it) once."""
    gathers = [rows._columns()[2] for rows in row_sets]
    grams = [None] * len(row_sets)
    for at, part in _stream(row_sets[0].data):
        for k, (rows, gather) in enumerate(zip(row_sets, gathers)):
            scaled = rows._scaled(at, part, gather)
            if scaled is None:
                continue
            if grams[k] is None:
                grams[k] = scaled.T @ scaled
            else:
                grams[k] += scaled.T @ scaled
            del scaled
        del part  # each block is freed before the next is filled
    return grams


def _finish(rows: _Rows, xi: np.ndarray, diags: dict,
            residuals: np.ndarray | None = None) -> Coefficients:
    """Coefficients in library indexing, with ``residuals`` on all of
    ``rows`` (None: taken here, in a pass of their own); ``diags`` gains the
    indices of all-zero targets, if any."""
    empty = np.flatnonzero(~(xi != 0.0).any(axis=0))
    if empty.size:
        diags = {**diags, "empty_support_targets": empty.tolist()}
    return Coefficients(
        xi=xi,
        names=rows.names,
        residuals=rows.residual_norms(xi[None])[0] if residuals is None else residuals,
        diagnostics=diags,
    )


def _ridge(theta: np.ndarray, targets: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 0.0:
        return np.linalg.lstsq(theta, targets, rcond=None)[0]
    p = theta.shape[1]
    gram = theta.T @ theta + alpha * np.eye(p)
    rhs = theta.T @ targets
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _refit(
    theta: np.ndarray, Y: np.ndarray, support: np.ndarray, ridge: float = 0.0,
    xi: np.ndarray | None = None, targets=None,
) -> np.ndarray:
    """Per-target (ridge) least squares of ``Y`` on the columns of ``theta``
    in each column of the ``(k, n)`` mask ``support``; zeros off it.  With
    ``xi`` and ``targets``, only those columns of ``xi`` are refit, in place."""
    if xi is None:
        xi, targets = np.zeros(support.shape), range(Y.shape[1])
    for j in targets:
        act = support[:, j]
        xi[:, j] = 0.0
        if act.any():
            xi[act, j] = _ridge(theta[:, act], Y[:, j : j + 1], ridge).ravel()
    return xi


# ---------------------------------------------------------------------------
# STLSQ
# ---------------------------------------------------------------------------


def _solve_stlsq(fac: _Factor, spec: STLSQ) -> tuple[np.ndarray, dict]:
    """Threshold, then refit each target on its support.  After the first
    refit of every target, only the targets whose support the threshold
    changed are refit: another on the same support has the same bits."""
    theta, Y = fac.theta, fac.targets
    xi = _ridge(theta, Y, spec.ridge)
    support = np.ones(xi.shape, dtype=bool)
    history: list[dict] = []
    converged = False
    for _ in range(spec.max_iter):
        new_support = support & (np.abs(xi) >= spec.threshold)
        r_thresh = float(np.linalg.norm(Y - theta @ np.where(new_support, xi, 0.0)))
        changed = (new_support != support).any(axis=0)
        support = new_support
        if not history:
            xi = _refit(theta, Y, support, spec.ridge)
        elif changed.any():
            _refit(theta, Y, support, spec.ridge, xi, np.flatnonzero(changed))
        history.append(
            {
                "residual_thresholded": r_thresh,
                "residual_refit": float(np.linalg.norm(Y - theta @ xi)),
            }
        )
        if not changed.any():
            converged = True
            break
    diags: dict = {
        "converged": converged,
        "iterations": len(history),
        "residual_history": history,
    }
    return xi, diags


# ---------------------------------------------------------------------------
# SR3
# ---------------------------------------------------------------------------


def _sr3_prox(xi: np.ndarray, spec: SR3) -> np.ndarray:
    lam, nu = spec.threshold, spec.relaxation
    if spec.regularizer == "l0":
        return hard_threshold(xi, np.sqrt(2.0 * lam * nu))
    return soft_threshold(xi, lam * nu)


def _constrained_quadratic(
    H: np.ndarray, rhs_vec: np.ndarray, C: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Minimize x'Hx/2 - rhs'x subject to Cx = d via the KKT system."""
    k = C.shape[0]
    kkt = np.block([[H, C.T], [C, np.zeros((k, k))]])
    rhs = np.concatenate([rhs_vec, d])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[: rhs_vec.size]


def _solve_sr3(fac: _Factor, spec: SR3) -> tuple[np.ndarray, dict]:
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    diags: dict = {}
    nu = spec.relaxation

    constrained = spec.constraints is not None
    if constrained:
        if fac.dropped.size:
            raise SpecError(
                "equality constraints require the original column indexing; "
                "remove zero columns first"
            )
        C, d = (np.array(part) for part in spec.constraints)
        thY = theta.T @ Y
        H_big = np.kron(np.eye(n), theta.T @ theta + np.eye(p) / nu)
    else:
        # The relaxed update minimizes |theta Xi - Y|^2 + |Xi - W|^2 / nu, a
        # least-squares problem in [theta; I/sqrt(nu)].  One QR of that stack
        # turns each iteration into a triangular solve, without squaring the
        # condition number the way the normal equations do.
        Q, R_s = np.linalg.qr(np.vstack((theta, np.eye(p) / np.sqrt(nu))))
        fit_part = Q[: theta.shape[0]].T @ Y
        coupling = Q[theta.shape[0] :].T / np.sqrt(nu)

    W = np.zeros((p, n))
    Xi = W
    converged = False
    for it in range(spec.max_iter):
        if constrained:
            rhs = thY + W / nu
            vec = _constrained_quadratic(H_big, rhs.T.ravel(), C, d)
            Xi = vec.reshape(n, p).T
        else:
            Xi = np.linalg.solve(R_s, fit_part + coupling @ W)
        W_new = _sr3_prox(Xi, spec)
        gap = float(np.linalg.norm(Xi - W_new) / np.sqrt(p * n))
        # with relaxation the gap stays finite at the fixed point; a W that
        # repeats exactly repeats every later iterate, so the loop may stop
        repeated = np.array_equal(W_new, W)
        W = W_new
        if gap < spec.tol or repeated:
            converged = True
            break
    diags["converged"] = converged
    diags["iterations"] = it + 1
    diags["xi_relaxed"] = fac.embed(Xi)
    xi = W
    if constrained:
        # Debias on the sparse support while honoring the constraints
        # (off-support entries are pinned to zero, so the constraint rhs is
        # unchanged); if the support cannot satisfy them, fall back to the
        # dense constrained solve.
        mask = (W != 0.0).T.ravel()
        C_s = C[:, mask]
        aug_rank = np.linalg.matrix_rank(np.column_stack([C_s, d]), tol=1e-10)
        if C_s.size and aug_rank == np.linalg.matrix_rank(C_s, tol=1e-10):
            H_s = np.kron(np.eye(n), theta.T @ theta)[np.ix_(mask, mask)]
            rhs_s = thY.T.ravel()[mask]
            vec = np.zeros(p * n)
            vec[mask] = _constrained_quadratic(H_s, rhs_s, C_s, d)
            xi = vec.reshape(n, p).T
        else:
            diags["constrained_support_infeasible"] = True
            xi = Xi
    return xi, diags


# ---------------------------------------------------------------------------
# SSR
# ---------------------------------------------------------------------------


def _ssr_path(fac: _Factor, spec: SSR) -> tuple[list[tuple[int, np.ndarray]], dict]:
    """Elimination path as (support size, reduced coefficients) pairs."""
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    support = np.ones((p, n), dtype=bool)
    entries: list[tuple[int, np.ndarray]] = []
    for size in range(p, min(spec.min_terms, p) - 1, -1):
        xi = _refit(theta, Y, support)
        entries.append((size, xi))
        # drop each target's smallest active coefficient
        drop = np.argmin(np.where(support, np.abs(xi), np.inf), axis=0)
        support[drop, np.arange(n)] = False
    return entries, {}


def _ssr_holdout(
    rows: _Rows, spec: SSR, gram: np.ndarray | None
) -> tuple[_Factor, np.ndarray, dict]:
    """Path on the train rows, per-target selection by holdout residual, and
    a refit of the selected supports on the factor of all rows, whose Gram
    is ``gram`` (None: summed in the train rows' pass).

    Each target takes the sparsest path entry whose holdout residual is
    within ``HOLDOUT_TIE_RTOL`` of the smallest."""
    train, hold = rows.split()
    train_gram, gram = _grams([train, rows]) if gram is None else (_grams([train])[0], gram)
    train_fac = train._factor(train_gram)
    path = np.stack([train_fac.embed(xi_n) for _, xi_n in _ssr_path(train_fac, spec)[0]])
    hold_res = hold.residual_norms(path)
    near_min = hold_res <= hold_res.min(axis=0) * (1.0 + HOLDOUT_TIE_RTOL)
    # entries run from dense to sparse: take the last near-minimal one
    pick = len(path) - 1 - np.argmax(near_min[::-1], axis=0)
    n = path.shape[2]
    selected = path[pick, :, np.arange(n)].T != 0.0
    fac = rows._factor(gram)
    xi = _refit(fac.theta, fac.targets, selected[fac.index])
    return fac, xi, {"holdout_rows": int(hold.counts.sum())}


# ---------------------------------------------------------------------------
# FROLS
# ---------------------------------------------------------------------------


def _frols_order(theta: np.ndarray, y: np.ndarray, max_terms: int, err_tol: float):
    """Greedy selection order and ERR values for one target."""
    m, p = theta.shape
    sigma = float(y @ y)
    if sigma == 0.0:
        return [], []
    A = theta.copy()
    r = y.copy()
    selected: list[int] = []
    errs: list[float] = []
    active = np.ones(p, dtype=bool)
    energy = np.einsum("ij,ij->j", A, A)  # pre-deflation column energy
    for _ in range(max_terms):
        denom = np.einsum("ij,ij->j", A, A)
        # columns nearly exhausted by the selected span are collinear
        usable = active & (denom > 1e-13 * energy)
        if not usable.any():
            break
        err = np.zeros(p)
        proj = A.T @ r
        err[usable] = proj[usable] ** 2 / (denom[usable] * sigma)
        j = int(np.argmax(err))
        if err[j] < err_tol:
            break
        selected.append(j)
        errs.append(float(err[j]))
        q = A[:, j].copy()
        qq = float(q @ q)
        r = r - q * float(q @ r) / qq
        A = A - np.outer(q, (q @ A) / qq)
        active[j] = False
    return selected, errs


def _frols_path(
    fac: _Factor, spec: FROLS
) -> tuple[list[tuple[int, np.ndarray]], dict]:
    """Forward path as (size, reduced coefficients) pairs, plus diagnostics."""
    theta, Y = fac.theta, fac.targets
    p, n = theta.shape[1], Y.shape[1]
    max_terms = p if spec.max_terms is None else min(spec.max_terms, p)
    orders = [
        _frols_order(theta, Y[:, j], max_terms, spec.err_tol) for j in range(n)
    ]
    depth = max((len(sel) for sel, _ in orders), default=0)
    if depth == 0:
        raise FitError("FROLS selected no features (err_tol too large?)")
    # rank[i, j]: when target j selected column i (p: never)
    rank = np.full((p, n), p)
    for j, (sel, _) in enumerate(orders):
        rank[sel, j] = np.arange(len(sel))
    entries = [(size, _refit(theta, Y, rank < size)) for size in range(1, depth + 1)]
    return entries, {"err_values": [errs for _, errs in orders]}


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


# Each solver on a factor returns its coefficients (a greedy solver: its
# path, as (support size, coefficients) pairs) and its diagnostics.
_SOLVERS = {STLSQ: _solve_stlsq, SR3: _solve_sr3, SSR: _ssr_path, FROLS: _frols_path}


def _checked_solver(spec: OptimizerSpec, rows: _Rows, n_dropped: int = 0,
                    n_drawn: int | None = None):
    """The solver of ``spec`` once the spec is known, valid and fits
    ``rows`` less ``n_dropped`` of their library columns, or draws of
    ``n_drawn`` of them, as ensemble members do: the one spec check of every
    fit, made before any row is read."""
    solver = _SOLVERS.get(type(spec))
    if solver is None:
        raise SpecError(f"unknown optimizer spec {spec!r}")
    spec.validate()
    if isinstance(spec, SSR) and n_drawn is not None:
        _holdout_rows(n_drawn)  # a plain fit splits its rows before reading them
    if isinstance(spec, SR3) and spec.constraints is not None:
        if rows.normalize:
            raise SpecError(
                "equality constraints require the original column indexing; "
                "disable normalization first"
            )
        features, columns, _ = rows._columns()
        p, n = features.size - n_dropped, columns.size - features.size
        width = len(spec.constraints[0][0])
        if width != p * n:
            raise SpecError(
                f"constraint matrix has {width} columns, expected p*n = {p * n} "
                "(vec(xi) in column-major / target-major order)"
            )
        if n_dropped:
            # each member would read the matrix in its own column indexing
            raise SpecError(
                "equality constraints require every library column in every fit; "
                "set n_library_drop to 0"
            )
    return solver


def _fit_rows(rows: _Rows, spec: OptimizerSpec, gram: np.ndarray | None = None):
    """Validate ``spec`` and fit one model on the factor of ``rows``, for
    ``solve``, ensemble members and implicit candidates: SSR's holdout pick,
    FROLS's last path entry, else the solver's coefficients.  Returns them in
    library indexing with the diagnostics, the factor's included.  ``gram``,
    when given, is the Gram of ``rows`` from a pass shared with other row
    sets."""
    solver = _checked_solver(spec, rows)
    if isinstance(spec, SSR):
        fac, xi_n, diags = _ssr_holdout(rows, spec, gram)
    else:
        fac = rows.factor() if gram is None else rows._factor(gram)
        xi_n, diags = solver(fac, spec)
        if isinstance(spec, FROLS):
            xi_n = xi_n[-1][1]
    return fac.embed(xi_n), {**fac.diagnostics, **diags}


def solve(problem: Problem, spec: OptimizerSpec) -> Coefficients:
    """Fit one sparse model.  SSR refits on all rows each target's sparsest
    path entry within a whisker of the least residual on a seeded 25% holdout
    split; FROLS fits the last entry of its forward path."""
    rows = _Rows.of(problem)
    return _finish(rows, *_fit_rows(rows, spec))


def solve_path(problem: Problem, spec: SSR | FROLS) -> list[PathEntry]:
    """Whole model path of a greedy algorithm on one factor of all rows:
    SSR's from every term down to ``min_terms``, FROLS's from one term up."""
    if not isinstance(spec, (SSR, FROLS)):
        raise SpecError(f"solve_path requires SSR or FROLS, got {type(spec).__name__}")
    rows = _Rows.of(problem)
    solver = _checked_solver(spec, rows)
    fac = rows.factor()
    path, diags = solver(fac, spec)
    diags = {**fac.diagnostics, **diags}
    xis = np.stack([fac.embed(xi) for _, xi in path])
    entries = []
    for (size, _), xi, residuals in zip(path, xis, rows.residual_norms(xis)):
        c = _finish(rows, xi, diags, residuals)
        entries.append(PathEntry(c, size, float(np.linalg.norm(residuals))))
    return entries

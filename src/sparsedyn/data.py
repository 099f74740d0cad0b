"""Measured trajectories and spatiotemporal fields on sampling grids.

State arrays are stored with shape ``(*spatial, time, n_states)``.  Flattening
to regression rows is C-ordered: spatial points are the slow indices (ordered
lexicographically by axis), time is the fast index within each spatial point.
That ordering is part of the public contract and is relied on by the feature
libraries and the dataset directory format.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

UNIFORMITY_RTOL = 1e-10


def _is_uniform(axis: np.ndarray) -> bool:
    spacing = np.diff(axis)
    mean = spacing.mean()
    return bool(np.abs(spacing - mean).max() <= UNIFORMITY_RTOL * abs(mean))


def _check_axis(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise DataError(f"axis {name!r} must be a 1-d vector with at least 2 samples")
    if not np.all(np.diff(values) > 0):
        raise DataError(f"axis {name!r} must be strictly increasing")
    return values


@dataclass(frozen=True)
class Grid:
    """Sampling grid: one time axis plus zero or more spatial axes.

    Axes must be strictly increasing.  ``time_uniform`` / ``spatial_uniform``
    flag axes whose spacing is constant to relative tolerance 1e-10; several
    differentiation methods are cheaper (or only valid) on uniform axes.
    """

    time_axis: np.ndarray
    spatial_axes: tuple[np.ndarray, ...] = ()
    time_uniform: bool = field(init=False)
    spatial_uniform: tuple[bool, ...] = field(init=False)

    def __post_init__(self):
        time = _check_axis(self.time_axis, "t")
        spatial = tuple(
            _check_axis(ax, f"x{i}") for i, ax in enumerate(self.spatial_axes)
        )
        object.__setattr__(self, "time_axis", time)
        object.__setattr__(self, "spatial_axes", spatial)
        object.__setattr__(self, "time_uniform", _is_uniform(time))
        object.__setattr__(
            self, "spatial_uniform", tuple(_is_uniform(ax) for ax in spatial)
        )

    @property
    def n_spatial(self) -> int:
        return len(self.spatial_axes)

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Shape of the sample block: spatial lengths followed by time length."""
        return tuple(len(ax) for ax in self.spatial_axes) + (len(self.time_axis),)

    @property
    def n_samples(self) -> int:
        return int(np.prod(self.sample_shape))


@dataclass(frozen=True)
class Dataset:
    """States (and optional controls / precomputed time derivatives) on a grid.

    ``states`` has shape ``(*spatial, time, n_states)``; ``controls`` and
    ``derivatives`` share the sample dimensions.  All entries must be finite
    unless loaded with an explicit allow-missing flag, in which case NaN rows
    are dropped during flattening (see ``load_dataset``).
    """

    grid: Grid
    states: np.ndarray
    controls: np.ndarray | None = None
    derivatives: np.ndarray | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        expected = self.grid.sample_shape
        if states.ndim != len(expected) + 1 or states.shape[:-1] != expected:
            raise DataError(
                f"states shape {states.shape} does not match grid sample shape "
                f"{expected} + (n_states,)"
            )
        if states.shape[-1] == 0:
            raise DataError("states need at least one variable")
        object.__setattr__(self, "states", states)
        if self.controls is not None:
            controls = np.asarray(self.controls, dtype=float)
            if controls.shape[:-1] != expected:
                raise DataError(
                    f"controls shape {controls.shape} does not share sample "
                    f"dimensions {expected}"
                )
            object.__setattr__(self, "controls", controls)
        if self.derivatives is not None:
            derivs = np.asarray(self.derivatives, dtype=float)
            if derivs.shape != states.shape:
                raise DataError(
                    f"derivatives shape {derivs.shape} must equal states shape "
                    f"{states.shape}"
                )
            object.__setattr__(self, "derivatives", derivs)
        for label, arr in (
            ("states", self.states),
            ("controls", self.controls),
            ("derivatives", self.derivatives),
        ):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DataError(f"{label} contain non-finite entries")

    @property
    def n_states(self) -> int:
        return self.states.shape[-1]

    @property
    def n_controls(self) -> int:
        return 0 if self.controls is None else self.controls.shape[-1]

    @property
    def n_samples(self) -> int:
        return self.grid.n_samples


@dataclass(frozen=True)
class TrajectoryCollection:
    """Nonempty list of datasets agreeing on state and control dimensions."""

    datasets: tuple[Dataset, ...]

    def __post_init__(self):
        datasets = tuple(self.datasets)
        if not datasets:
            raise DataError("trajectory collection must be nonempty")
        n = datasets[0].n_states
        r = datasets[0].n_controls
        for i, ds in enumerate(datasets):
            if ds.n_states != n or ds.n_controls != r:
                raise DataError(
                    f"trajectory {i} has (n={ds.n_states}, r={ds.n_controls}), "
                    f"expected (n={n}, r={r})"
                )
        object.__setattr__(self, "datasets", datasets)

    def __iter__(self):
        return iter(self.datasets)

    def __len__(self):
        return len(self.datasets)

    @property
    def n_states(self) -> int:
        return self.datasets[0].n_states

    @property
    def n_controls(self) -> int:
        return self.datasets[0].n_controls


@dataclass(frozen=True)
class SampleIndexMap:
    """Inverse of `flatten`: maps flat row indices back to grid indices."""

    sample_shape: tuple[int, ...]

    def grid_indices(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """Grid indices (spatial..., time) for the given flat row numbers."""
        return np.unravel_index(np.asarray(rows), self.sample_shape)

    def row(self, grid_index: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(grid_index, self.sample_shape))


def flatten(
    dataset: Dataset,
) -> tuple[np.ndarray, np.ndarray | None, SampleIndexMap]:
    """Stack a dataset into regression rows.

    Returns ``(samples, controls, index_map)`` where ``samples`` is
    ``(m, n_states)`` with ``m`` the product of spatial and time lengths.
    Rows are time-major within each spatial point; spatial points are ordered
    lexicographically by axis index (plain C-order raveling).
    """
    shape = dataset.grid.sample_shape
    m = int(np.prod(shape))
    samples = dataset.states.reshape(m, dataset.n_states)
    controls = None
    if dataset.controls is not None:
        controls = dataset.controls.reshape(m, dataset.n_controls)
    return samples, controls, SampleIndexMap(shape)


def unflatten(rows: np.ndarray, index_map: SampleIndexMap) -> np.ndarray:
    """Reshape flattened rows back into the ``(*spatial, time, k)`` layout."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows.reshape(*index_map.sample_shape, rows.shape[-1])


def split_train_test(dataset: Dataset, fraction: float) -> tuple[Dataset, Dataset]:
    """Split along the time axis: first ``floor(fraction*T)`` samples train.

    Both sides must keep at least 2 time samples; spatial axes are untouched.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"train fraction must lie in (0, 1), got {fraction}")
    T = len(dataset.grid.time_axis)
    n_train = int(np.floor(fraction * T))
    n_test = T - n_train
    if n_train < 2 or n_test < 2:
        raise DataError(
            f"fraction {fraction} on {T} time samples leaves a degenerate side "
            f"(train {n_train}, test {n_test}; both need >= 2)"
        )

    time_axis = dataset.grid.time_axis

    def take(sl: slice) -> Dataset:
        grid = Grid(time_axis[sl], dataset.grid.spatial_axes)
        sel = (Ellipsis, sl, slice(None))
        return Dataset(
            grid=grid,
            states=dataset.states[sel],
            controls=None if dataset.controls is None else dataset.controls[sel],
            derivatives=(
                None if dataset.derivatives is None else dataset.derivatives[sel]
            ),
        )

    return take(slice(0, n_train)), take(slice(n_train, T))


def add_noise(
    dataset: Dataset,
    level: float,
    seed: int,
    relative: bool = True,
) -> Dataset:
    """Add i.i.d. zero-mean Gaussian noise to the states.

    With ``relative=True`` (the common benchmarking convention) the noise
    standard deviation is ``level * RMS(states)``; otherwise ``level`` is the
    absolute standard deviation.  Deterministic given ``seed``.  Grid and
    controls are unchanged; precomputed derivatives are discarded for
    ``level > 0`` because they no longer describe the perturbed states.
    """
    if level < 0:
        raise DataError(f"noise level must be >= 0, got {level}")
    if level == 0:
        return dataset
    sigma = level * float(np.sqrt(np.mean(dataset.states**2))) if relative else level
    rng = np.random.default_rng(seed)
    noisy = dataset.states + sigma * rng.standard_normal(dataset.states.shape)
    return Dataset(grid=dataset.grid, states=noisy, controls=dataset.controls)


# ---------------------------------------------------------------------------
# Dataset directory format
#
# meta.json     {"schema": 1, "n_states", "n_controls",
#                "axes": [{"name", "values" | {"start","step","count"}}, ...],
#                "dtype": "f64", "order": "time-major",
#                optional "periodic": [bool per axis]}
# states.f64    raw little-endian float64, C-order (*spatial, time, n_states)
# controls.f64  optional, same sample dims x n_controls
# derivs.f64    optional, same shape as states
#
# The axes list is in storage order: spatial axes first, the time axis
# (named "t") last.  Small ODE datasets may instead be a single CSV with
# header t,q1..qn[,u1..ur].
# ---------------------------------------------------------------------------


def _axis_to_json(name: str, values: np.ndarray) -> dict:
    if _is_uniform(values):
        step = float((values[-1] - values[0]) / (len(values) - 1))
        return {
            "name": name,
            "start": float(values[0]),
            "step": step,
            "count": int(len(values)),
        }
    return {"name": name, "values": [float(v) for v in values]}


def _axis_from_json(entry: dict) -> tuple[str, np.ndarray]:
    name = entry.get("name")
    if name is None:
        raise DataError("axis entry missing 'name'")
    if "values" in entry:
        return name, np.asarray(entry["values"], dtype=float)
    try:
        start, step, count = entry["start"], entry["step"], entry["count"]
    except KeyError as exc:
        raise DataError(f"axis {name!r} needs 'values' or start/step/count") from exc
    return name, start + step * np.arange(int(count))


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write the dataset directory format; returns the directory path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    letters = ("x", "y", "z")
    axes = [
        _axis_to_json(letters[i] if i < 3 else f"x{i}", ax)
        for i, ax in enumerate(dataset.grid.spatial_axes)
    ]
    axes.append(_axis_to_json("t", dataset.grid.time_axis))
    meta = {
        "schema": 1,
        "n_states": dataset.n_states,
        "n_controls": dataset.n_controls,
        "axes": axes,
        "dtype": "f64",
        "order": "time-major",
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    dataset.states.astype("<f8").tofile(directory / "states.f64")
    if dataset.controls is not None:
        dataset.controls.astype("<f8").tofile(directory / "controls.f64")
    if dataset.derivatives is not None:
        dataset.derivatives.astype("<f8").tofile(directory / "derivs.f64")
    return directory


def _load_raw(path: Path, shape: tuple[int, ...], label: str) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f8")
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise DataError(
            f"{label} holds {raw.size} float64 values, expected {expected} "
            f"for shape {shape}"
        )
    return raw.reshape(shape)


def load_dataset(path: str | Path, allow_missing: bool = False) -> Dataset:
    """Read a dataset directory or a CSV file.

    ``allow_missing=True`` drops time samples containing NaN instead of
    rejecting the file (dropping happens uniformly across spatial points so
    the grid stays rectangular).
    """
    path = Path(path)
    if path.is_file() and path.suffix.lower() == ".csv":
        return _load_csv(path, allow_missing)
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise DataError(f"{path} is not a dataset directory (missing meta.json)")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid meta.json: {exc}") from exc

    axes = [_axis_from_json(entry) for entry in meta.get("axes", [])]
    if not axes or axes[-1][0] != "t":
        raise DataError("axes must end with the time axis named 't'")
    time_axis = axes[-1][1]
    spatial = tuple(values for _, values in axes[:-1])
    n = int(meta["n_states"])
    r = int(meta.get("n_controls", 0))
    grid = Grid(time_axis, spatial)
    shape = grid.sample_shape

    states = _load_raw(path / "states.f64", shape + (n,), "states.f64")
    controls = None
    if r > 0:
        controls = _load_raw(path / "controls.f64", shape + (r,), "controls.f64")
    derivs = None
    if (path / "derivs.f64").is_file():
        derivs = _load_raw(path / "derivs.f64", shape + (n,), "derivs.f64")

    if allow_missing:
        return _drop_missing(grid, states, controls, derivs)
    return Dataset(grid=grid, states=states, controls=controls, derivatives=derivs)


def _drop_missing(grid, states, controls, derivs) -> Dataset:
    """Drop time samples with any NaN across states/controls/derivatives."""
    bad = np.isnan(states).any(axis=tuple(range(states.ndim - 2)) + (-1,))
    for arr in (controls, derivs):
        if arr is not None:
            bad |= np.isnan(arr).any(axis=tuple(range(arr.ndim - 2)) + (-1,))
    keep = ~bad
    if keep.sum() < 2:
        raise DataError("fewer than 2 complete time samples after dropping NaNs")
    new_grid = Grid(grid.time_axis[keep], grid.spatial_axes)
    sel = (Ellipsis, keep, slice(None))
    return Dataset(
        grid=new_grid,
        states=states[sel],
        controls=None if controls is None else controls[sel],
        derivatives=None if derivs is None else derivs[sel],
    )


def _load_csv(path: Path, allow_missing: bool) -> Dataset:
    """Parse `t,[x,...],q1..qn[,u1..ur]` sample rows into a gridded dataset.

    With spatial columns present the rows must cover the full tensor grid
    (every coordinate combination exactly once, in any order).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path} is empty")
        rows = [[float(v) if v != "" else np.nan for v in row] for row in reader]
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    header = [h.strip() for h in header]
    if header[0] != "t":
        raise DataError("CSV header must start with column 't'")
    spatial_cols = [i for i, h in enumerate(header) if h in ("x", "y", "z")]
    state_cols = [i for i, h in enumerate(header) if h.startswith("q")]
    control_cols = [i for i, h in enumerate(header) if h.startswith("u")]
    if not state_cols:
        raise DataError("CSV must contain at least one state column q1..qn")
    table = np.asarray(rows, dtype=float)

    if not spatial_cols:
        order = np.argsort(table[:, 0], kind="stable")
        table = table[order]
        t = table[:, 0]
        if np.any(np.diff(t) <= 0):
            raise DataError("CSV time column has duplicate or non-increasing entries")
        grid = Grid(t)
        states = table[:, state_cols]
        controls = table[:, control_cols] if control_cols else None
        if allow_missing:
            return _drop_missing(grid, states, controls, None)
        return Dataset(grid=grid, states=states, controls=controls)

    # Spatial data: sort rows into flatten order (spatial lexicographic,
    # time fastest) and verify the tensor grid is complete.
    axes = [np.unique(table[:, c]) for c in spatial_cols]
    t_axis = np.unique(table[:, 0])
    shape = tuple(len(ax) for ax in axes) + (len(t_axis),)
    if table.shape[0] != int(np.prod(shape)):
        raise DataError(
            f"CSV has {table.shape[0]} rows; a complete "
            f"{' x '.join(map(str, shape))} grid needs {int(np.prod(shape))}"
        )
    order = np.lexsort([table[:, 0]] + [table[:, c] for c in reversed(spatial_cols)])
    table = table[order]
    expected = np.stack(
        [g.ravel() for g in np.meshgrid(*axes, t_axis, indexing="ij")], axis=1
    )
    got = table[:, spatial_cols + [0]]
    if not np.array_equal(got, expected):
        raise DataError("CSV rows do not form a complete tensor grid")
    grid = Grid(t_axis, tuple(axes))
    states = table[:, state_cols].reshape(*shape, len(state_cols))
    controls = None
    if control_cols:
        controls = table[:, control_cols].reshape(*shape, len(control_cols))
    if allow_missing:
        return _drop_missing(grid, states, controls, None)
    return Dataset(grid=grid, states=states, controls=controls)


def save_csv(dataset: Dataset, path: str | Path) -> Path:
    """Write an ODE dataset (no spatial axes) as t,q1..qn[,u1..ur] CSV."""
    if dataset.grid.n_spatial:
        raise DataError("CSV export only supports datasets without spatial axes")
    path = Path(path)
    n, r = dataset.n_states, dataset.n_controls
    header = ["t"] + [f"q{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(r)]
    table = np.column_stack([dataset.grid.time_axis, dataset.states] + (
        [dataset.controls] if r else []
    ))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())
    return path


def as_collection(data) -> TrajectoryCollection:
    """Coerce a Dataset or iterable of Datasets into a TrajectoryCollection."""
    if isinstance(data, TrajectoryCollection):
        return data
    if isinstance(data, Dataset):
        return TrajectoryCollection((data,))
    return TrajectoryCollection(tuple(data))

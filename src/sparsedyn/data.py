"""Measured trajectories and spatiotemporal fields on sampling grids.

State arrays are stored with shape ``(*spatial, time, n_states)``.  Flattening
to regression rows is C-ordered: spatial points are the slow indices (ordered
lexicographically by axis), time is the fast index within each spatial point.
That ordering is part of the public contract and is relied on by the feature
libraries and the dataset directory format.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

UNIFORMITY_RTOL = 1e-10
AXIS_LETTERS = ("x", "y", "z")


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

    Axes must be strictly increasing.
    """

    time_axis: np.ndarray
    spatial_axes: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        time = _check_axis(self.time_axis, "t")
        spatial = tuple(
            _check_axis(ax, name) for ax, name in zip(self.spatial_axes, self.axis_names)
        )
        object.__setattr__(self, "time_axis", time)
        object.__setattr__(self, "spatial_axes", spatial)

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

    @property
    def axis_names(self) -> tuple[str, ...]:
        """Axis names in storage order: x, y, z (then x3, x4, ...) and t."""
        return (*(AXIS_LETTERS[i] if i < 3 else f"x{i}" for i in range(self.n_spatial)), "t")

    def axis(self, name: str) -> tuple[int, np.ndarray]:
        """(array axis, coordinates) of the axis ``name`` ("x", "y", "z" or
        "t"); array axes follow the storage order (*spatial, time)."""
        if name not in self.axis_names:
            raise DataError(f"grid has {self.n_spatial} spatial axes, none named {name!r}")
        index = self.axis_names.index(name)
        return index, (*self.spatial_axes, self.time_axis)[index]


@dataclass(frozen=True)
class Dataset:
    """States (and optional controls / precomputed time derivatives) on a grid.

    ``states`` has shape ``(*spatial, time, n_states)``; ``controls`` and
    ``derivatives`` share the sample dimensions.  All entries must be finite;
    ``load_dataset(allow_missing=True)`` drops the time samples that hold a
    NaN when it loads them.
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


def flatten(dataset: Dataset) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack a dataset into regression rows.

    Returns ``(samples, controls)`` where ``samples`` is ``(m, n_states)``
    with ``m`` the product of spatial and time lengths.  Rows are time-major
    within each spatial point; spatial points are ordered lexicographically by
    axis index (plain C-order raveling).
    """
    m = dataset.n_samples
    samples = dataset.states.reshape(m, dataset.n_states)
    controls = None
    if dataset.controls is not None:
        controls = dataset.controls.reshape(m, dataset.n_controls)
    return samples, controls


def unflatten(rows: np.ndarray, sample_shape: tuple[int, ...]) -> np.ndarray:
    """Reshape flattened rows back into the ``(*spatial, time, k)`` layout of
    a grid's ``sample_shape``."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    return rows.reshape(*sample_shape, rows.shape[-1])


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
    fields = (dataset.states, dataset.controls, dataset.derivatives)
    return (_at_times(dataset.grid, slice(0, n_train), *fields),
            _at_times(dataset.grid, slice(n_train, T), *fields))


def _at_times(grid: Grid, times, states, controls, derivs) -> Dataset:
    """The samples at the time indices ``times``, a slice or a mask."""

    def take(values):
        return None if values is None else values[..., times, :]

    return Dataset(grid=Grid(grid.time_axis[times], grid.spatial_axes),
                   states=take(states), controls=take(controls), derivatives=take(derivs))


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
#                "dtype": "f64", "order": "time-major"}
# states.f64    raw little-endian float64, C-order (*spatial, time, n_states)
# controls.f64  optional, same sample dims x n_controls
# derivs.f64    optional, same shape as states
#
# The axes list is in storage order, named by ``Grid.axis_names``: spatial
# axes first (x, y, z, then x3, ...), the time axis t last.  Small datasets
# may instead be a single CSV with header t[,x[,y[,z]]],q1..qn[,u1..ur].
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(obj: dict, key: str, where: str, minimum: int = 0, default=None) -> int:
    """``obj[key]`` as an integer >= ``minimum``."""
    value = obj.get(key, default)
    if value is None:
        raise DataError(f"{where} is missing {key!r}")
    if type(value) is not int or value < minimum:
        raise DataError(f"{where}: {key} must be an integer >= {minimum}, got {value!r}")
    return value


def _axis_from_json(entry) -> tuple[str, np.ndarray]:
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise DataError(f"axis entry {entry!r} is not an object with a string 'name'")
    name = entry["name"]
    if "values" in entry:
        values = entry["values"]
        if not isinstance(values, list) or not all(map(_is_number, values)):
            raise DataError(f"axis {name!r}: values must be a list of numbers")
        return name, np.asarray(values, dtype=float)
    if not ("start" in entry and "step" in entry):
        raise DataError(f"axis {name!r} needs 'values' or start/step/count")
    start, step = entry["start"], entry["step"]
    if not (_is_number(start) and _is_number(step)):
        raise DataError(f"axis {name!r}: start and step must be numbers")
    return name, start + step * np.arange(_count(entry, "count", f"axis {name!r}"))


def save_dataset(dataset: Dataset, directory: str | Path) -> Path:
    """Write the dataset directory format; returns the directory path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = dataset.grid
    axes = [
        _axis_to_json(name, ax)
        for name, ax in zip(grid.axis_names, (*grid.spatial_axes, grid.time_axis))
    ]
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


def _read(path: Path, read):
    """``read(path)``; a file that cannot be read or is not UTF-8 text is a
    ``DataError`` naming it."""
    try:
        return read(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_raw(path: Path, shape: tuple[int, ...], label: str) -> np.ndarray:
    raw = _read(path, lambda p: np.fromfile(p, dtype="<f8"))
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
        meta = json.loads(_read(meta_path, lambda p: p.read_bytes().decode("utf-8")))
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid meta.json: {exc}") from exc

    if not isinstance(meta, dict):
        raise DataError("meta.json must hold a JSON object")
    for key, known in (("schema", 1), ("dtype", "f64"), ("order", "time-major")):
        value = meta.get(key, known)
        if type(value) is not type(known) or value != known:
            raise DataError(f"meta.json: {key} {value!r} is not {known!r}")
    if not isinstance(meta.get("axes", []), list):
        raise DataError("meta.json axes must be a list")
    axes = [_axis_from_json(entry) for entry in meta.get("axes", [])]
    if not axes:
        raise DataError("meta.json axes must hold at least the time axis 't'")
    grid = Grid(axes[-1][1], tuple(values for _, values in axes[:-1]))
    names = [name for name, _ in axes]
    if tuple(names) != grid.axis_names:
        raise DataError(f"meta.json axes are named {names}, expected {list(grid.axis_names)}")
    n = _count(meta, "n_states", "meta.json", minimum=1)
    r = _count(meta, "n_controls", "meta.json", default=0)
    shape = grid.sample_shape

    states = _load_raw(path / "states.f64", shape + (n,), "states.f64")
    controls = None
    if r > 0:
        controls = _load_raw(path / "controls.f64", shape + (r,), "controls.f64")
    derivs = None
    if (path / "derivs.f64").exists():
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
    return _at_times(grid, keep, states, controls, derivs)


def _load_csv(path: Path, allow_missing: bool) -> Dataset:
    """Parse `t[,x[,y[,z]]],q1..qn[,u1..ur]` sample rows into a gridded
    dataset.  The rows must hold every point of the tensor grid of their
    coordinates exactly once, in any order; an empty cell reads as NaN.
    """
    text = _read(path, lambda p: p.read_bytes().decode("utf-8"))
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path} is empty")
    header = [h.strip() for h in header]
    n_spatial = sum(h in AXIS_LETTERS for h in header)
    n = sum(h.startswith("q") for h in header)
    r = sum(h.startswith("u") for h in header)
    expected = ["t", *AXIS_LETTERS[:n_spatial]] + [f"q{i + 1}" for i in range(n)]
    expected += [f"u{i + 1}" for i in range(r)]
    if header != expected:
        raise DataError(
            f"CSV header {','.join(header)!r} is not t[,x[,y[,z]]],q1..qn[,u1..ur]"
        )
    if not n:
        raise DataError("CSV must contain at least one state column q1..qn")
    rows = []
    for row in reader:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} values for {len(header)} columns")
            rows.append([float(v) if v != "" else np.nan for v in row])
        except ValueError as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path} has a header but no data rows")
    table = np.asarray(rows, dtype=float)
    # Sort the rows into flatten order (spatial lexicographic, time fastest)
    # and check that they hold each point of their coordinates' grid once.
    coords = [*range(1, 1 + n_spatial), 0]
    axes = [np.unique(table[:, c]) for c in coords]
    shape = tuple(len(ax) for ax in axes)
    table = table[np.lexsort(table[:, coords[::-1]].T)]
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    if not np.array_equal(table[:, coords], points):
        raise DataError(
            f"CSV rows do not hold each point of a {' x '.join(map(str, shape))} "
            "grid exactly once"
        )
    grid = Grid(axes[-1], tuple(axes[:-1]))
    states = table[:, 1 + n_spatial : 1 + n_spatial + n].reshape(*shape, n)
    controls = table[:, 1 + n_spatial + n :].reshape(*shape, r) if r else None
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

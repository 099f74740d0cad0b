"""JSON codec for every spec plus the discovery configuration.

One codec, driven by the dataclass fields, moves every spec to and from
JSON.  A spec is an object holding its fields in declaration order; members
of a spec union (diff methods, libraries, optimizers, benchmark systems) lead
with a tag from ``_TAGS``.  Decoding checks each value against its field's
declared type and rejects unknown fields, so a malformed spec raises
``SpecError`` naming its path (``config.library.degree: expected int``).

Diff, optimizer and ensemble specs may also be given as compact strings::

    diff        fd:<order> | sg:<window>,<poly> | spectral[:<filter>]
    optimizer   stlsq:<threshold>,<ridge> | sr3:<threshold>,<nu>,<l0|l1>
                | ssr | frols
    ensemble    n=20,rows=0.6,drop=0,agg=median,seed=0

Top-level documents carry ``"schema": 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from . import diff as diffmod
from . import library as libmod
from . import optimize as optmod
from .ensemble import EnsembleSpec
from .errors import SpecError
from .model import _check_target_diff
from .systems import KS, BenchmarkSpec, Lorenz

SCHEMA_VERSION = 1


def check_schema(obj: dict, what: str) -> None:
    """Reject documents declaring a schema version we do not understand."""
    version = obj.get("schema", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SpecError(
            f"{what} declares schema {version}; this build reads schema "
            f"{SCHEMA_VERSION}"
        )


@dataclass(frozen=True, kw_only=True)
class DiscoveryConfig:
    """Declarative description of one discovery run."""

    data_path: str | None = None
    benchmark: BenchmarkSpec | None = None
    train_fraction: float = 0.6
    diff: diffmod.DiffMethod = diffmod.FiniteDifference()
    library: libmod.LibrarySpec
    optimizer: optmod.OptimizerSpec = optmod.STLSQ()
    ensemble: EnsembleSpec | None = None
    output_dir: str = "."
    seed: int = 0
    precision: int = 3
    normalize_columns: bool = False

    def validate(self) -> None:
        if (self.data_path is None) == (self.benchmark is None):
            raise SpecError("config needs exactly one of data.path or data.benchmark")
        if not 0.0 < self.train_fraction < 1.0:
            raise SpecError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.precision < 1:
            raise SpecError(f"precision must be >= 1, got {self.precision}")
        _check_target_diff(self.diff)
        libmod.validate(self.library)
        self.optimizer.validate()
        if self.ensemble is not None:
            self.ensemble.validate()
        if self.benchmark is not None:
            self.benchmark.validate()


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------

# The wire name of every member of a spec union: class -> (tag key, tag).
_TAGS = {
    diffmod.FiniteDifference: ("method", "fd"),
    diffmod.SavitzkyGolay: ("method", "sg"),
    diffmod.Spectral: ("method", "spectral"),
    libmod.Polynomial: ("type", "polynomial"),
    libmod.Fourier: ("type", "fourier"),
    libmod.Custom: ("type", "custom"),
    libmod.PDE: ("type", "pde"),
    libmod.WeakPDE: ("type", "weak"),
    libmod.Concat: ("type", "concat"),
    libmod.Tensor: ("type", "tensor"),
    libmod.InputSubset: ("type", "subset"),
    optmod.STLSQ: ("type", "stlsq"),
    optmod.SR3: ("type", "sr3"),
    optmod.SSR: ("type", "ssr"),
    optmod.FROLS: ("type", "frols"),
    Lorenz: ("name", "lorenz"),
    KS: ("name", "ks"),
}

# Compact strings: ``<tag>[:<field>,...]`` gives all listed fields or none;
# ensembles take ``key=value`` items and ``norepl``.
_FLAG_FIELDS = {
    "fd": ("order",),
    "sg": ("window", "poly_order"),
    "spectral": ("filter_strength",),
    "stlsq": ("threshold", "ridge"),
    "sr3": ("threshold", "relaxation", "regularizer"),
    "ssr": (),
    "frols": (),
}
_ENSEMBLE_KEYS = {
    "n": "n_models",
    "rows": "row_fraction",
    "drop": "n_library_drop",
    "agg": "aggregator",
    "seed": "seed",
}

# Fields whose default applies in code but which a JSON spec must give.
_REQUIRED = {(libmod.WeakPDE, "subdomain_size")}


def _encode_functions(functions) -> list[str]:
    for name, fn in functions:
        if libmod.CUSTOM_REGISTRY.get(name) is not fn:
            raise SpecError(
                f"custom function {name!r} is not from the registry and "
                "cannot be serialized"
            )
    return [name for name, _ in functions]


def _decode_functions(value, where: str):
    names = from_json(tuple[str, ...], value, where)
    for name in names:
        if name not in libmod.CUSTOM_REGISTRY:
            raise SpecError(
                f"{where}: unknown custom function {name!r}; available: "
                f"{sorted(libmod.CUSTOM_REGISTRY)}"
            )
    return tuple((name, libmod.CUSTOM_REGISTRY[name]) for name in names)


def _encode_constraints(constraints) -> dict:
    C, d = constraints
    return {
        "matrix": np.asarray(C, dtype=float).tolist(),
        "rhs": np.asarray(d, dtype=float).tolist(),
    }


def _decode_constraints(value, where: str):
    if value is None:
        return None
    if not isinstance(value, dict) or set(value) != {"matrix", "rhs"}:
        raise SpecError(f"{where}: expected an object with matrix and rhs, got {value!r}")
    matrix = from_json(tuple[tuple[float, ...], ...], value["matrix"], f"{where}.matrix")
    if len({len(row) for row in matrix}) > 1:
        raise SpecError(f"{where}.matrix: rows differ in length")
    rhs = from_json(tuple[float, ...], value["rhs"], f"{where}.rhs")
    return np.array(matrix, dtype=float), np.array(rhs, dtype=float)


# (class, field) -> (encode, decode) for fields the type-driven codec cannot
# express.  An overridden field holding None is left out of the JSON.
_OVERRIDES = {
    (libmod.Custom, "functions"): (_encode_functions, _decode_functions),
    (optmod.SR3, "constraints"): (_encode_constraints, _decode_constraints),
}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _encode(value):
    if dataclasses.is_dataclass(value):
        return to_json(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def to_json(spec) -> dict:
    """Encode a spec or ``DiscoveryConfig``: its tag, then each field in
    declaration order."""
    cls = type(spec)
    out = dict([_TAGS[cls]]) if cls in _TAGS else {}
    values = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    if cls is DiscoveryConfig:
        path, benchmark = values.pop("data_path"), values.pop("benchmark")
        out["schema"] = SCHEMA_VERSION
        out["data"] = {"path": path} if path is not None else {"benchmark": to_json(benchmark)}
    for name, value in values.items():
        override = _OVERRIDES.get((cls, name))
        if override is None:
            out[name] = _encode(value)
        elif value is not None:
            out[name] = override[0](value)
    return out


def _flag_value(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text.strip()


def _parse_flag(kind, text: str, where: str):
    """Turn a compact string into the JSON object it abbreviates, then decode
    that, so flags are checked like any other spec."""
    obj: dict = {}
    if kind is EnsembleSpec:
        for item in filter(None, (item.strip() for item in text.split(","))):
            key, _, value = item.partition("=")
            if item == "norepl":
                obj["replace"] = False
            elif key in _ENSEMBLE_KEYS:
                obj[_ENSEMBLE_KEYS[key]] = _flag_value(value)
            else:
                raise SpecError(f"{where}: unknown ensemble flag key {key!r} in {text!r}")
        return from_json(kind, obj, where)
    name, _, args = text.partition(":")
    name = name.strip().lower()
    values = args.split(",") if args else []
    if name not in _FLAG_FIELDS or len(values) not in (0, len(_FLAG_FIELDS[name])):
        raise SpecError(f"{where}: cannot parse flag {text!r}")
    obj[_TAGS[typing.get_args(kind)[0]][0]] = name
    obj.update(zip(_FLAG_FIELDS[name], map(_flag_value, values)))
    return from_json(kind, obj, where)


def from_json(kind, obj, where: str = "spec"):
    """Decode ``obj`` as ``kind``: a spec class, a union of spec classes, or
    a field type.  Raises ``SpecError`` naming the path of a value that is
    missing, unknown, or not of its declared type."""
    if isinstance(obj, str) and kind in (
        diffmod.DiffMethod, optmod.OptimizerSpec, EnsembleSpec
    ):
        return _parse_flag(kind, obj, where)
    if dataclasses.is_dataclass(kind):
        return _decode_spec(kind, obj, where)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (Union, types.UnionType):
        if obj is None and type(None) in args:
            return None
        rest = tuple(a for a in args if a is not type(None))
        if len(rest) < len(args):
            return from_json(Union[rest], obj, where)
        if all(a in _TAGS for a in args):
            key = _TAGS[args[0]][0]
            by_tag = {_TAGS[cls][1]: cls for cls in args}
            tag = obj.get(key) if isinstance(obj, dict) else None
            if not isinstance(tag, str) or tag not in by_tag:
                raise SpecError(
                    f"{where}: expected an object with {key} one of "
                    f"{sorted(by_tag)}, got {obj!r}"
                )
            return _decode_spec(by_tag[tag], obj, where)
        for arm in args:
            try:
                return from_json(arm, obj, where)
            except SpecError:
                pass
    elif origin is tuple:
        if isinstance(obj, (list, tuple)):
            if args[-1] is Ellipsis:
                args = (args[0],) * len(obj)
            if len(args) == len(obj):
                return tuple(
                    from_json(a, v, f"{where}[{i}]")
                    for i, (a, v) in enumerate(zip(args, obj))
                )
    elif origin is Literal:
        if any(obj == a and type(obj) is type(a) for a in args):
            return obj
    elif kind is float:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return float(obj)
    elif kind is int:
        if isinstance(obj, int) and not isinstance(obj, bool):
            return obj
    elif isinstance(obj, kind):  # bool, str
        return obj
    expected = kind.__name__ if isinstance(kind, type) else str(kind).replace("typing.", "")
    raise SpecError(f"{where}: expected {expected}, got {obj!r}")


def _decode_spec(cls, obj, where: str):
    if not isinstance(obj, dict):
        raise SpecError(f"{where}: expected an object, got {obj!r}")
    obj = dict(obj)
    if cls in _TAGS:
        key, tag = _TAGS[cls]
        got = obj.pop(key, tag)
        if got != tag:
            raise SpecError(f"{where}: expected {key} {tag!r}, got {got!r}")
    if cls in (BenchmarkSpec, DiscoveryConfig):
        check_schema(obj, where)
        obj.pop("schema", None)
    kwargs = {}
    if cls is DiscoveryConfig:
        if "data" not in obj:
            raise SpecError(f"{where}: missing required field 'data'")
        data = obj.pop("data")
        if not isinstance(data, dict) or not set(data) <= {"path", "benchmark"}:
            raise SpecError(f"{where}.data: expected an object with path or benchmark, got {data!r}")
        kwargs["data_path"] = from_json(str | None, data.get("path"), f"{where}.data.path")
        kwargs["benchmark"] = from_json(
            BenchmarkSpec | None, data.get("benchmark"), f"{where}.data.benchmark"
        )
    hints = _hints(cls)
    wire = [name for name in hints if name not in kwargs]
    for name, value in obj.items():
        if name not in wire:
            raise SpecError(
                f"{where}: unknown field {name!r}; {cls.__name__} takes {', '.join(wire)}"
            )
        override = _OVERRIDES.get((cls, name))
        decode = override[1] if override else functools.partial(from_json, hints[name])
        kwargs[name] = decode(value, f"{where}.{name}")
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and (
            f.default is dataclasses.MISSING or (cls, f.name) in _REQUIRED
        ):
            raise SpecError(f"{where}: missing required field {f.name!r}")
    spec = cls(**kwargs)
    if cls is DiscoveryConfig:
        spec.validate()
    return spec


def jsonable(value):
    """Recursively convert numpy containers for deterministic JSON output."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value

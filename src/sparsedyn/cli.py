"""Command-line front end: generate benchmark data, fit models, score reports.

Exit codes: 0 success, 2 configuration/spec errors, 3 data errors,
4 fit errors (a fit whose every target is empty is one).  Output files are
written to a temporary name and atomically renamed, so failures never leave
partial files behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    SCHEMA_VERSION,
    DiscoveryConfig,
    check_schema,
    from_json,
    jsonable,
    to_json,
)
from .data import load_dataset, save_csv, save_dataset, split_train_test
from .diff import DiffMethod
from .errors import DataError, FitError, SpecError
from .library import LibrarySpec
from .model import FittedModel, _metric, _predicted_and_actual, _target_names
from .model import equations, fit
from .optimize import Coefficients
from .systems import BenchmarkSpec, canonical_library, generate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FIT = 4


def _log(verbose: bool, message: str) -> None:
    if verbose:
        print(message, file=sys.stderr)


def _write_atomic(path: Path, text) -> None:
    """Write ``text``, a string or an iterable of them, to a temporary name
    and rename it to ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        f.writelines([text] if isinstance(text, str) else text)
    os.replace(tmp, path)


def _dump_json(obj) -> str:
    return json.dumps(jsonable(obj), indent=2) + "\n"


def _load_json(path: Path, what: str) -> dict:
    try:
        obj = json.loads(path.read_bytes().decode("utf-8"))
    except FileNotFoundError as exc:
        raise SpecError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise SpecError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{what} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecError(f"{what}: expected an object, got {obj!r}")
    return obj


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    obj = _load_json(Path(args.config), "benchmark spec")
    output_dir = from_json(
        str | None, obj.pop("output_dir", None), "benchmark spec.output_dir"
    )
    spec = from_json(BenchmarkSpec, obj, "benchmark spec")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    out = Path(args.out or output_dir or "dataset")
    _log(args.verbose, f"generating {type(spec.system).__name__} dataset -> {out}")

    dataset, truth = generate(spec)
    save_dataset(dataset, out)
    if dataset.grid.n_spatial == 0:
        save_csv(dataset, out / "samples.csv")
    truth_doc = {
        "schema": SCHEMA_VERSION,
        "feature_names": list(truth.names),
        "target_names": list(_target_names(dataset.n_states)),
        "coefficients": truth.xi,
        "library": to_json(canonical_library(spec.system)),
    }
    _write_atomic(out / "truth.json", _dump_json(truth_doc))
    _log(
        args.verbose,
        f"wrote {dataset.states.shape} states and truth.json",
    )
    print(str(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _resolve_config(args):
    obj = _load_json(Path(args.config), "config")
    if args.diff:
        obj["diff"] = args.diff
    if args.optimizer:
        obj["optimizer"] = args.optimizer
    if args.ensemble:
        obj["ensemble"] = args.ensemble
    cfg = from_json(DiscoveryConfig, obj, "config")
    if args.seed is not None:
        replacements = {"seed": args.seed}
        if cfg.benchmark is not None:
            replacements["benchmark"] = dataclasses.replace(
                cfg.benchmark, seed=args.seed
            )
        cfg = dataclasses.replace(cfg, **replacements)
    if args.out:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


# prediction_vs_truth.csv is formatted this many rows at a time
CSV_ROWS = 4096


def _prediction_csv(target_names: tuple[str, ...], pred: np.ndarray, actual: np.ndarray):
    """The text of prediction_vs_truth.csv, its header and then a chunk per
    ``CSV_ROWS`` rows: one row per sample, its index, then predicted and
    computed values of each target, as shortest round-trip floats."""
    header = ["sample"]
    for name in target_names:
        header += [f"predicted_{name}", f"computed_{name}"]
    yield ",".join(header) + "\n"
    for start in range(0, pred.shape[0], CSV_ROWS):
        rows = slice(start, start + CSV_ROWS)
        columns = [map(str, range(start, start + pred[rows].shape[0]))]
        for j in range(len(target_names)):
            columns += [map(repr, pred[rows, j].tolist()), map(repr, actual[rows, j].tolist())]
        yield "".join(",".join(row) + "\n" for row in zip(*columns))


def cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    out = Path(cfg.output_dir)

    if cfg.benchmark is not None:
        _log(args.verbose, "generating benchmark data")
        dataset, _ = generate(cfg.benchmark)
    else:
        _log(args.verbose, f"loading dataset from {cfg.data_path}")
        dataset = load_dataset(cfg.data_path)

    train, test = split_train_test(dataset, cfg.train_fraction)
    _log(
        args.verbose,
        f"train {len(train.grid.time_axis)} / test {len(test.grid.time_axis)} "
        "time samples",
    )

    model = fit(
        train,
        cfg.library,
        diff=cfg.diff,
        opt=cfg.optimizer,
        ensemble=cfg.ensemble,
        normalize_columns=cfg.normalize_columns,
    )
    if not model.coefficients.support.any():
        raise FitError("the fitted model is all zero: every target has an empty support")
    pred, actual = _predicted_and_actual(model, test)
    test_score = _metric(pred, actual, "r2")
    _log(args.verbose, f"test r2 = {test_score:.6f}")

    eq_lines = equations(model, precision=cfg.precision)
    report = {
        "schema": SCHEMA_VERSION,
        "equations": eq_lines,
        "coefficients": model.xi,
        "feature_names": list(model.feature_names),
        "target_names": list(model.target_names),
        "score": test_score,
        "diagnostics": {
            "score_metric": "r2",
            "train_fraction": cfg.train_fraction,
            "seed": cfg.seed,
            **{k: v for k, v in model.diagnostics.items()},
        },
        "library": to_json(cfg.library),
        "diff": to_json(cfg.diff),
    }
    if model.ensemble is not None:
        report["ensemble"] = {
            "inclusion_probability": model.ensemble.inclusion_probability,
            "iqr": model.ensemble.iqr,
            "n_failed": model.ensemble.n_failed,
        }

    out.mkdir(parents=True, exist_ok=True)
    _write_atomic(out / "report.json", _dump_json(report))
    _write_atomic(out / "equations.txt", "\n".join(eq_lines) + "\n")
    _write_atomic(
        out / "prediction_vs_truth.csv",
        _prediction_csv(model.target_names, pred, actual),
    )
    print("\n".join(eq_lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def model_from_report(report: dict) -> FittedModel:
    """Rebuild a fitted model from a report.json document."""
    check_schema(report, "report")
    for key in ("coefficients", "feature_names", "target_names", "library", "diff"):
        if key not in report:
            raise SpecError(f"report is missing field {key!r}")
    try:
        # non-finite entries are written as "nan"/"inf" strings, which this reads
        xi = np.asarray(report["coefficients"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"report.coefficients: {exc}") from exc
    names = from_json(tuple[str, ...], report["feature_names"], "report.feature_names")
    targets = from_json(tuple[str, ...], report["target_names"], "report.target_names")
    if xi.shape != (len(names), len(targets)):
        raise SpecError(
            f"report coefficients shape {xi.shape} does not match "
            f"{len(names)} features x {len(targets)} targets"
        )
    coefficients = Coefficients(xi=xi, names=names, residuals=np.zeros(len(targets)))
    return FittedModel(
        coefficients=coefficients,
        library=from_json(LibrarySpec, report["library"], "report.library"),
        diff=from_json(DiffMethod, report["diff"], "report.diff"),
        target_names=targets,
    )


def cmd_score(args) -> int:
    report = _load_json(Path(args.config), "report")
    model = model_from_report(report)
    dataset = load_dataset(args.data)
    pred, actual = _predicted_and_actual(model, dataset)
    result = {
        "schema": SCHEMA_VERSION,
        "r2": _metric(pred, actual, "r2"),
        "rmse": _metric(pred, actual, "rmse"),
        "n_samples": pred.shape[0],
    }
    text = _dump_json(result)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_atomic(out / "score.json", text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedyn",
        description="Sparse discovery of governing equations from data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help):
        p.add_argument("--config", required=True, help="JSON spec/config path")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help=seed_help)
        p.add_argument("--verbose", action="store_true")

    gen = sub.add_parser("generate", help="write a benchmark dataset directory")
    common(gen, "replaces the benchmark spec's seed")
    gen.set_defaults(func=cmd_generate)

    fit_p = sub.add_parser("fit", help="fit a model per a discovery config")
    common(fit_p, "reseeds a data.benchmark and sets the report's diagnostics.seed; "
           "ensemble and weak-form seeds are unchanged, and with data.path "
           "nothing computed changes")
    fit_p.add_argument("--diff", help="override: fd:<order> | sg:<w>,<p> | spectral[:<f>]")
    fit_p.add_argument(
        "--optimizer", help="override: stlsq:<l>,<a> | sr3:<l>,<nu>,<reg> | ssr | frols"
    )
    fit_p.add_argument("--ensemble", help="override: n=20,rows=0.6,drop=0,agg=median,seed=0")
    fit_p.set_defaults(func=cmd_fit)

    score_p = sub.add_parser("score", help="score a saved report against a dataset")
    common(score_p, "ignored")
    score_p.add_argument("--data", required=True, help="dataset directory or CSV")
    score_p.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())

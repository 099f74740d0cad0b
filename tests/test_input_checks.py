"""Input checks across the package: each bad input raises the documented
error class with a message that names the fault."""

import json

import numpy as np
import pytest

from sparsedyn.cli import main, model_from_report
from sparsedyn.config import from_json, to_json
from sparsedyn.data import (Dataset, Grid, load_dataset, save_csv, save_dataset,
                            split_train_test)
from sparsedyn.diff import FiniteDifference, differentiate, fd_weights
from sparsedyn.errors import DataError, SpecError
from sparsedyn.integrate import integrate
from sparsedyn.library import Custom, GridPlan, InputSubset, Polynomial, WeakPDE
from sparsedyn.model import design, equations, fit, fit_implicit, score, simulate
from sparsedyn.optimize import SR3, SSR, STLSQ, Problem, solve


def decay_dataset():
    """Two decaying states on 40 uniform times."""
    t = np.linspace(0.0, 1.0, 40)
    return Dataset(grid=Grid(t), states=np.column_stack([np.exp(-t), np.exp(-2.0 * t)]))


@pytest.fixture(scope="module")
def model():
    return fit(decay_dataset(), Polynomial(1))


def spatial_dataset():
    return Dataset(grid=Grid(np.linspace(0.0, 1.0, 6), (np.linspace(0.0, 1.0, 8),)),
                   states=np.ones((8, 6, 1)))


def problem(**options):
    rng = np.random.default_rng(0)
    return Problem(theta=rng.standard_normal((20, 2)), targets=rng.standard_normal(20),
                   **options)


def empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return load_dataset(path)


def load_with_meta(tmp_path, edit):
    """Load the decay dataset saved under ``tmp_path`` after ``edit`` turned
    its meta.json object into another object or into text."""
    directory = save_dataset(decay_dataset(), tmp_path / "d")
    meta = edit(json.loads((directory / "meta.json").read_text()))
    (directory / "meta.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))
    return load_dataset(directory)


def load_csv(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    return load_dataset(path)


def report(model, **fields):
    """``model`` as a report document, with ``fields`` replaced."""
    return {"schema": 1, "coefficients": model.xi.tolist(),
            "feature_names": list(model.feature_names),
            "target_names": list(model.target_names),
            "library": to_json(model.library), "diff": to_json(model.diff), **fields}


def twin_states_implicit():
    """An implicit fit whose candidate q0 equals the only other column, q1."""
    t = np.linspace(0.0, 1.0, 40)
    twins = Dataset(grid=Grid(t), states=np.column_stack([np.exp(-t), np.exp(-t)]))
    return fit_implicit(twins, Polynomial(1, include_bias=False), STLSQ(), ["q0"])


T40 = np.linspace(0.0, 1.0, 40)
PAIR = (np.eye(1, 2), np.ones(1))
WITH_ZERO_COLUMN = np.column_stack([np.arange(5.0), np.zeros(5)])

# (call on (tmp_path, model), error class, regex the message starts with)
INPUT_CHECKS = [
    pytest.param(lambda tmp, m: Problem(theta=np.zeros((0, 2)), targets=np.zeros(0)),
                 SpecError, "problem needs at least one row and one feature", id="problem-no-rows"),
    pytest.param(lambda tmp, m: Problem(theta=np.zeros((3, 0)), targets=np.zeros(3)),
                 SpecError, "problem needs at least one row and one feature",
                 id="problem-no-features"),
    pytest.param(lambda tmp, m: problem(feature_names=("a",)),
                 SpecError, "1 feature names for 2 columns", id="problem-feature-names"),
    pytest.param(lambda tmp, m: problem(sample_weights=np.ones(3)),
                 SpecError, "sample_weights must be non-negative, one per row",
                 id="problem-weight-shape"),
    pytest.param(lambda tmp, m: problem(sample_weights=-np.ones(20)),
                 SpecError, "sample_weights must be non-negative, one per row",
                 id="problem-weight-sign"),
    pytest.param(lambda tmp, m: solve(Problem(theta=np.ones((1, 1)), targets=np.ones(1)), SSR()),
                 SpecError, "1 rows are too few for a holdout split", id="ssr-holdout-rows"),
    pytest.param(lambda tmp, m: solve(problem(normalize_columns=True), SR3(constraints=PAIR)),
                 SpecError, "equality constraints require the original column indexing",
                 id="sr3-constraints-normalized"),
    pytest.param(lambda tmp, m: solve(Problem(theta=WITH_ZERO_COLUMN, targets=np.arange(5.0)),
                                      SR3(constraints=PAIR)),
                 SpecError, "equality constraints require the original column indexing",
                 id="sr3-constraints-dropped-column"),
    pytest.param(lambda tmp, m: integrate(lambda t, y: -y, np.linspace(0.0, 1.0, 3), [np.nan]),
                 ValueError, "All components of the initial state must be finite",
                 id="integrate-initial-state"),
    pytest.param(lambda tmp, m: GridPlan(Polynomial(2), 2).apply(np.zeros((3, 3))),
                 SpecError, r"expected \(m, 2\) inputs, got \(3, 3\)", id="plan-input-shape"),
    pytest.param(lambda tmp, m: GridPlan(InputSubset(Polynomial(1), (5,)), 2),
                 SpecError, "InputSubset index 5 out of range for 2 inputs",
                 id="subset-index"),
    pytest.param(lambda tmp, m: design(decay_dataset(), WeakPDE(Polynomial(1), subdomain_size=(5, 5))),
                 SpecError, "subdomain_size has 2 entries for 1 axes", id="weak-size-count"),
    pytest.param(lambda tmp, m: design(decay_dataset(), Custom((("inf", lambda x: x * np.inf),))),
                 DataError, r"non-finite values in feature columns \['inf\(q0\)', 'inf\(q1\)'\]",
                 id="design-non-finite-column"),
    pytest.param(lambda tmp, m: score(m, decay_dataset(), metric="mae"),
                 SpecError, "unknown metric 'mae'", id="score-metric"),
    pytest.param(lambda tmp, m: simulate(m, [1.0], np.linspace(0.0, 1.0, 5)),
                 SpecError, r"initial state has shape \(1,\), expected \(2,\)",
                 id="simulate-initial-state"),
    pytest.param(lambda tmp, m: simulate(m, [1.0, 1.0], np.linspace(0.0, 1.0, 5),
                                         controls=np.zeros((4, 1))),
                 SpecError, "controls must provide one row per t_eval entry",
                 id="simulate-control-rows"),
    pytest.param(lambda tmp, m: equations(m, precision=0),
                 SpecError, "precision must be >= 1, got 0", id="equations-precision"),
    pytest.param(lambda tmp, m: split_train_test(decay_dataset(), 1.0),
                 DataError, r"train fraction must lie in \(0, 1\), got 1.0",
                 id="split-fraction"),
    pytest.param(lambda tmp, m: save_csv(spatial_dataset(), tmp / "d.csv"),
                 DataError, "CSV export only supports datasets without spatial axes",
                 id="csv-spatial"),
    pytest.param(lambda tmp, m: empty_csv(tmp),
                 DataError, r".*empty\.csv is empty$", id="csv-empty"),
    pytest.param(lambda tmp, m: Dataset(grid=Grid(T40), states=np.ones((40, 2)),
                                        derivatives=np.ones((40, 1))),
                 DataError, r"derivatives shape \(40, 1\) must equal states shape \(40, 2\)",
                 id="dataset-derivatives-shape"),
    pytest.param(lambda tmp, m: load_with_meta(tmp, lambda meta: {**meta, "axes": [
                     {"name": "t", "count": 40}]}),
                 DataError, "axis 't' needs 'values' or start/step/count",
                 id="meta-axis-without-values"),
    pytest.param(lambda tmp, m: load_with_meta(tmp, lambda meta: {**meta, "axes": [
                     {"name": "t", "start": "0", "step": 0.1, "count": 40}]}),
                 DataError, "axis 't': start and step must be numbers",
                 id="meta-axis-start"),
    pytest.param(lambda tmp, m: load_with_meta(tmp, lambda meta: "{"),
                 DataError, "invalid meta.json: ", id="meta-not-json"),
    pytest.param(lambda tmp, m: load_with_meta(tmp, lambda meta: {**meta, "axes": {}}),
                 DataError, "meta.json axes must be a list", id="meta-axes-not-a-list"),
    pytest.param(lambda tmp, m: load_csv(tmp, "t,u1\n0.0,1.0\n1.0,2.0\n"),
                 DataError, r"CSV must contain at least one state column q1\.\.qn",
                 id="csv-no-state-column"),
    pytest.param(lambda tmp, m: differentiate(np.exp(T40), T40[:5], FiniteDifference()),
                 DataError, r"axis values \(len 5\) do not match data axis -1 of shape \(40,\)",
                 id="differentiate-axis-length"),
    pytest.param(lambda tmp, m: differentiate(np.exp(T40), T40[::-1], FiniteDifference()),
                 DataError, "axis values must be strictly increasing",
                 id="differentiate-axis-order"),
    pytest.param(lambda tmp, m: differentiate(np.exp(T40), T40, FiniteDifference(), d=0),
                 SpecError, "derivative order must be >= 1, got 0", id="differentiate-d0"),
    pytest.param(lambda tmp, m: fd_weights(np.array([0.0, 1.0]), 0.0, 2),
                 SpecError, "need at least 3 nodes for derivative 2, got 2",
                 id="fd-weights-nodes"),
    pytest.param(lambda tmp, m: model_from_report(report(m, feature_names=["1", "q0"])),
                 SpecError,
                 r"report coefficients shape \(3, 2\) does not match 2 features x 2 targets",
                 id="report-coefficient-shape"),
    pytest.param(lambda tmp, m: twin_states_implicit(),
                 SpecError, "no features left to explain 'q0'", id="implicit-no-features"),
    pytest.param(lambda tmp, m: solve(problem(), SR3(constraints=(np.eye(1, 3), np.ones(1)))),
                 SpecError, r"constraint matrix has 3 columns, expected p\*n = 2",
                 id="sr3-constraint-columns"),
    pytest.param(lambda tmp, m: SR3(constraints=(np.ones(3), np.ones(1))),
                 SpecError, r"malformed SR3 constraints: shapes \(3,\), \(1,\)",
                 id="sr3-constraints-malformed"),
    pytest.param(lambda tmp, m: GridPlan("polynomial", 1),
                 SpecError, "unknown library spec 'polynomial'", id="plan-non-spec"),
    pytest.param(lambda tmp, m: from_json(STLSQ, 3),
                 SpecError, "spec: expected an object, got 3", id="from-json-non-object"),
]


@pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
def test_bad_input_is_rejected(tmp_path, model, call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call(tmp_path, model)


@pytest.mark.parametrize(
    "content, message",
    [(None, "config not found: "), ("[1, 2]", "config: expected an object, got [1, 2]")],
    ids=["missing", "not-an-object"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    capsys.readouterr()
    assert main(["fit", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_config_directory_exits_2(tmp_path, capsys):
    capsys.readouterr()
    assert main(["fit", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {tmp_path}: ") and err.count("\n") == 1

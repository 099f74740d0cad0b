"""Input checks across the package: each bad input raises the documented
error class with a message that names the fault."""

import numpy as np
import pytest

from sparsedyn.cli import main
from sparsedyn.data import Dataset, Grid, load_dataset, save_csv, split_train_test
from sparsedyn.diff import FiniteDifference
from sparsedyn.errors import DataError, SpecError
from sparsedyn.integrate import integrate
from sparsedyn.library import GridPlan, InputSubset, Polynomial, WeakPDE, evaluate
from sparsedyn.model import equations, fit, parse_equation, score, simulate
from sparsedyn.optimize import SR3, SSR, Problem, solve


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
    pytest.param(lambda tmp, m: evaluate(WeakPDE(Polynomial(1), subdomain_size=(5, 5)),
                                         decay_dataset(), FiniteDifference()),
                 SpecError, "subdomain_size has 2 entries for 1 axes", id="weak-size-count"),
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
    pytest.param(lambda tmp, m: parse_equation("q0_t"),
                 SpecError, "not an equation string: 'q0_t'", id="parse-equation"),
    pytest.param(lambda tmp, m: split_train_test(decay_dataset(), 1.0),
                 DataError, r"train fraction must lie in \(0, 1\), got 1.0",
                 id="split-fraction"),
    pytest.param(lambda tmp, m: save_csv(spatial_dataset(), tmp / "d.csv"),
                 DataError, "CSV export only supports datasets without spatial axes",
                 id="csv-spatial"),
    pytest.param(lambda tmp, m: empty_csv(tmp),
                 DataError, r".*empty\.csv is empty$", id="csv-empty"),
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

import json
from pathlib import Path

import numpy as np
import pytest

from sparsedyn.cli import _prediction_csv, main, model_from_report
from sparsedyn.data import Dataset, Grid, load_dataset, save_dataset, split_train_test
from sparsedyn.diff import differentiate_dataset
from sparsedyn.library import WeakPDE, evaluate
from sparsedyn.model import predict, score


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture
def lorenz_dataset(tmp_path):
    spec = write_json(
        tmp_path / "spec.json",
        {
            "schema": 1,
            "system": {"name": "lorenz", "t_span": 4.0, "dt": 0.004},
            "noise_level": 0.0,
            "seed": 1,
        },
    )
    out = tmp_path / "data"
    assert main(["generate", "--config", str(spec), "--out", str(out)]) == 0
    return out


def fit_config(tmp_path, data_dir, out_name="fit_out", **overrides):
    obj = {
        "schema": 1,
        "data": {"path": str(data_dir)},
        "train_fraction": 0.6,
        "diff": {"method": "fd", "order": 2},
        "library": {"type": "polynomial", "degree": 2},
        "optimizer": {"type": "stlsq", "threshold": 0.1, "ridge": 0.05},
        "output_dir": str(tmp_path / out_name),
        "seed": 0,
        "precision": 4,
    }
    obj.update(overrides)
    return write_json(tmp_path / f"{out_name}.json", obj)


class TestGenerate:
    def test_lorenz_writes_csv_compatible_dataset(self, lorenz_dataset):
        assert (lorenz_dataset / "meta.json").is_file()
        assert (lorenz_dataset / "states.f64").is_file()
        assert (lorenz_dataset / "samples.csv").is_file()
        assert (lorenz_dataset / "truth.json").is_file()
        ds = load_dataset(lorenz_dataset)
        assert ds.states.shape == (1001, 3)

    def test_ks_shape(self, tmp_path):
        spec = write_json(
            tmp_path / "ks.json",
            {
                "schema": 1,
                "system": {
                    "name": "ks",
                    "n_grid": 256,
                    "length": 50.0,
                    "t_span": 8.0,
                    "dt_save": 0.4,
                    "dt": 0.05,
                    "burn_in": 5.0,
                },
                "seed": 2,
            },
        )
        out = tmp_path / "ks_data"
        assert main(["generate", "--config", str(spec), "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.states.shape == (256, 21, 1)

    def test_default_ks_spec_grid_counts(self, tmp_path):
        spec = write_json(tmp_path / "ks_full.json", {"schema": 1, "system": {"name": "ks"}})
        out = tmp_path / "ks_full"
        assert main(["generate", "--config", str(spec), "--out", str(out)]) == 0
        ds = load_dataset(out)
        assert ds.states.shape == (1024, 251, 1)

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_unknown_system_exits_2(self, tmp_path):
        spec = write_json(tmp_path / "s.json", {"system": {"name": "rossler"}})
        assert main(["generate", "--config", str(spec), "--out", str(tmp_path / "x")]) == 2


class TestFit:
    def test_end_to_end_outputs(self, tmp_path, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset)
        assert main(["fit", "--config", str(cfg)]) == 0
        out = tmp_path / "fit_out"
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["score"] > 0.99
        # canonical Lorenz support in a quadratic library: 2 + 3 + 2 terms
        xi = np.asarray(report["coefficients"])
        assert int((xi != 0.0).sum()) == 7
        eq_text = (out / "equations.txt").read_text()
        assert "q0_t" in eq_text
        header = (out / "prediction_vs_truth.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["sample", "predicted_q0_t", "computed_q0_t"]

    def test_deterministic_reports(self, tmp_path, lorenz_dataset):
        cfg_a = fit_config(tmp_path, lorenz_dataset, out_name="out_a")
        cfg_b = fit_config(tmp_path, lorenz_dataset, out_name="out_b")
        assert main(["fit", "--config", str(cfg_a)]) == 0
        assert main(["fit", "--config", str(cfg_b)]) == 0
        a = (tmp_path / "out_a" / "report.json").read_bytes()
        b = (tmp_path / "out_b" / "report.json").read_bytes()
        assert a == b

    def test_missing_dataset_exits_3(self, tmp_path):
        cfg = fit_config(tmp_path, tmp_path / "nonexistent")
        assert main(["fit", "--config", str(cfg)]) == 3

    def test_empty_dataset_exits_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("t,q1\n")
        cfg = fit_config(tmp_path, empty)
        assert main(["fit", "--config", str(cfg)]) == 3

    def test_invalid_config_exits_2(self, tmp_path, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset, train_fraction=2.0)
        assert main(["fit", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"library": {"type": "polynomial", "degre": 3}},
            {"library": {"type": "polynomial", "include_bias": "false"}},
            {"library": {"type": "polynomial", "degree": 2.7}},
            {"library": {"type": "pde", "axes": "xy"}},
            {
                "library": {
                    "type": "weak",
                    "inner": {"type": "polynomial"},
                    "subdomain_size": [10.5],
                }
            },
            {"library": {"type": "polynomial", "degree": "two"}},
            {"optimizer": {"type": "stlsq", "threshold": "abc"}},
            {"data": "x"},
        ],
        ids=[
            "unknown-field",
            "string-bool",
            "float-int",
            "string-axes",
            "float-size",
            "string-int",
            "string-float",
            "string-data",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, lorenz_dataset, capsys, overrides):
        cfg = fit_config(tmp_path, lorenz_dataset, **overrides)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "fit_out").exists()

    def test_derivative_multiply_by_exits_2_before_reading_data(self, tmp_path, capsys):
        # the data path does not exist: a config rejected at load time exits 2,
        # where reading the data first would exit 3
        library = {"type": "pde", "axes": ["x"], "multiply_by": {"type": "pde", "axes": ["x"]}}
        cfg = fit_config(tmp_path, tmp_path / "missing", library=library)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        assert "multiply_by must be a derivative-free library" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"diff": {"method": "fd", "order": 4, "d": 2}}, "d=2"),
            ({"library": {"type": "concat", "parts": [{"type": "polynomial", "degree": 1},
                                                      {"type": "polynomial", "degree": 1}]}},
             "duplicate feature names"),
        ],
        ids=["target-derivative-order", "duplicate-names"],
    )
    def test_exits_2_at_config_load(self, tmp_path, capsys, overrides, message):
        # the data path does not exist, so reading the data first would exit 3
        cfg = fit_config(tmp_path, tmp_path / "missing", **overrides)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "fit_out").exists()

    def test_fit_failure_exits_4_without_partial_files(self, tmp_path, lorenz_dataset):
        cfg = fit_config(
            tmp_path,
            lorenz_dataset,
            out_name="failed",
            optimizer={"type": "frols", "err_tol": 2.0},
        )
        assert main(["fit", "--config", str(cfg)]) == 4
        out = tmp_path / "failed"
        assert not (out / "report.json").exists()
        assert not (out / "equations.txt").exists()
        assert not list(out.glob("*.tmp")) if out.exists() else True

    def test_cli_overrides(self, tmp_path, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset, out_name="ovr")
        assert (
            main(
                [
                    "fit",
                    "--config",
                    str(cfg),
                    "--diff",
                    "sg:11,3",
                    "--optimizer",
                    "stlsq:0.1,0.0",
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "ovr" / "report.json").read_text())
        assert report["diff"]["method"] == "sg"

    def test_ensemble_block_in_report(self, tmp_path, lorenz_dataset):
        cfg = fit_config(
            tmp_path,
            lorenz_dataset,
            out_name="ens",
            ensemble="n=6,rows=0.7,seed=2",
        )
        assert main(["fit", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "ens" / "report.json").read_text())
        incl = np.asarray(report["ensemble"]["inclusion_probability"])
        assert incl.shape == (10, 3)
        assert incl.min() >= 0.0 and incl.max() <= 1.0


def per_cell_csv(names, pred, actual):
    """The CSV writer as a per-cell loop: the reference the column-wise
    writer must reproduce byte for byte."""
    header = ["sample"]
    for name in names:
        header += [f"predicted_{name}", f"computed_{name}"]
    rows = [",".join(header)]
    for i in range(pred.shape[0]):
        cells = [str(i)]
        for j in range(pred.shape[1]):
            cells += [repr(float(pred[i, j])), repr(float(actual[i, j]))]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def computed_targets(model, dataset):
    if isinstance(model.library, WeakPDE):
        return evaluate(model.library, dataset, model.diff).weak_lhs
    return differentiate_dataset(dataset, model.diff, "t").reshape(-1, dataset.n_states)


class TestPredictionCsv:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {
                "library": {
                    "type": "weak",
                    "inner": {"type": "polynomial", "degree": 2},
                    "n_subdomains": 40,
                    "test_poly_order": 4,
                    "subdomain_size": [101],
                    "seed": 3,
                },
            },
        ],
        ids=["lorenz", "weak"],
    )
    def test_body_matches_predict_and_targets(self, tmp_path, lorenz_dataset, overrides):
        cfg = fit_config(tmp_path, lorenz_dataset, **overrides)
        assert main(["fit", "--config", str(cfg)]) == 0
        out = tmp_path / "fit_out"
        report = json.loads((out / "report.json").read_text())
        model = model_from_report(report)
        _, test = split_train_test(load_dataset(lorenz_dataset), 0.6)
        pred = predict(model, test).reshape(-1, 3)
        actual = computed_targets(model, test)

        lines = (out / "prediction_vs_truth.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "sample",
            "predicted_q0_t", "computed_q0_t",
            "predicted_q1_t", "computed_q1_t",
            "predicted_q2_t", "computed_q2_t",
        ]
        table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert table.shape == (pred.shape[0], 7)
        np.testing.assert_array_equal(table[:, 0], np.arange(pred.shape[0]))
        np.testing.assert_array_equal(table[:, 1::2], pred)
        np.testing.assert_array_equal(table[:, 2::2], actual)
        assert report["score"] == score(model, test)

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_writer_matches_per_cell_loop(self, n_targets):
        rng = np.random.default_rng(n_targets)
        pred = rng.standard_normal((200, n_targets)) * 10.0 ** rng.integers(
            -310, 300, (200, n_targets)
        )
        actual = rng.standard_normal((200, n_targets))
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 123.0]
        pred[: len(special), 0] = special
        actual[-len(special) :, -1] = special
        names = tuple(f"q{j}_t" for j in range(n_targets))
        assert _prediction_csv(names, pred, actual) == per_cell_csv(names, pred, actual)


class TestScore:
    def test_round_trips_serialized_coefficients(self, tmp_path, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset)
        assert main(["fit", "--config", str(cfg)]) == 0
        report_path = tmp_path / "fit_out" / "report.json"
        out = tmp_path / "scored"
        assert (
            main(
                [
                    "score",
                    "--config",
                    str(report_path),
                    "--data",
                    str(lorenz_dataset),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        result = json.loads((out / "score.json").read_text())
        assert result["r2"] > 0.99
        assert result["rmse"] >= 0.0

        # exact round trip: reconstructed coefficients match the report
        from sparsedyn.cli import model_from_report

        report = json.loads(report_path.read_text())
        model = model_from_report(report)
        np.testing.assert_array_equal(
            model.xi, np.asarray(report["coefficients"], dtype=float)
        )

    @pytest.mark.parametrize("diff", ["fd:2", "sg:41,3"])
    def test_score_json_matches_score(self, tmp_path, lorenz_dataset, diff):
        cfg = fit_config(tmp_path, lorenz_dataset, diff=diff)
        assert main(["fit", "--config", str(cfg)]) == 0
        report_path = tmp_path / "fit_out" / "report.json"
        out = tmp_path / "scored"
        argv = ["score", "--config", str(report_path), "--data", str(lorenz_dataset)]
        assert main([*argv, "--out", str(out)]) == 0
        result = json.loads((out / "score.json").read_text())
        model = model_from_report(json.loads(report_path.read_text()))
        dataset = load_dataset(lorenz_dataset)
        assert list(result) == ["schema", "r2", "rmse", "n_samples"]
        assert result["r2"] == score(model, dataset, "r2")
        assert result["rmse"] == score(model, dataset, "rmse")
        assert result["n_samples"] == dataset.n_samples

    def test_mismatched_state_count_exits_2(self, tmp_path, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset)
        assert main(["fit", "--config", str(cfg)]) == 0
        report_path = tmp_path / "fit_out" / "report.json"
        wrong = tmp_path / "wrong.csv"
        wrong.write_text("t,q1\n0.0,1.0\n1.0,2.0\n2.0,3.0\n")
        assert (
            main(["score", "--config", str(report_path), "--data", str(wrong)]) == 2
        )

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("library", "degree"), "two", "report.library.degree: expected int, got 'two'"),
            (("coefficients", 0, 0), "x", "report.coefficients: could not convert"),
            (("feature_names",), "abc", "report.feature_names: expected tuple[str, ...]"),
        ],
        ids=["library-degree", "coefficients", "feature-names"],
    )
    def test_ill_typed_report_exits_2(
        self, tmp_path, lorenz_dataset, capsys, path, value, message
    ):
        cfg = fit_config(tmp_path, lorenz_dataset)
        assert main(["fit", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "fit_out" / "report.json").read_text())
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = write_json(tmp_path / "bad_report.json", report)
        capsys.readouterr()
        assert main(["score", "--config", str(bad), "--data", str(lorenz_dataset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message) and err.count("\n") == 1, err

    def test_corrupt_report_exits_2(self, tmp_path, lorenz_dataset):
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps({"schema": 1, "coefficients": [[1.0]]}))
        assert main(["score", "--config", str(bad), "--data", str(lorenz_dataset)]) == 2


def test_malformed_meta_exits_3(tmp_path, lorenz_dataset, capsys):
    meta_path = lorenz_dataset / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["n_states"]
    meta_path.write_text(json.dumps(meta))
    cfg = fit_config(tmp_path, lorenz_dataset)
    assert main(["fit", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def test_misnamed_axis_exits_3(tmp_path, capsys):
    x, t = np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 20)
    states = np.sin(np.add.outer(x, t))[:, :, None]
    directory = save_dataset(Dataset(grid=Grid(t, (x,)), states=states), tmp_path / "d")
    meta = json.loads((directory / "meta.json").read_text())
    meta["axes"][0]["name"] = "banana"
    (directory / "meta.json").write_text(json.dumps(meta))
    cfg = fit_config(tmp_path, directory, library={"type": "polynomial", "degree": 1})
    assert main(["fit", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "banana" in err
    assert not (tmp_path / "fit_out").exists()

import json
from pathlib import Path

import numpy as np
import pytest

from sparsedyn.cli import CSV_ROWS, _prediction_csv, _write_atomic, main, model_from_report
from sparsedyn.data import Dataset, Grid, load_dataset, save_dataset, split_train_test
from sparsedyn.diff import differentiate_dataset
from sparsedyn.library import WeakPDE
from sparsedyn.model import design, predict, score


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


# a small KS field: 256 points in space, 21 in time
SMALL_KS = {"schema": 1, "seed": 2,
            "system": {"name": "ks", "n_grid": 256, "length": 50.0, "t_span": 8.0,
                       "dt_save": 0.4, "dt": 0.05, "burn_in": 5.0}}

# report.json of a fit on SMALL_KS (SG(5,3) in time, a spectral PDE block in
# space) and its score.json, written while diff specs stored a derivative
# order: both of its diff objects hold "d": 1
LEGACY_REPORT = Path(__file__).with_name("legacy_report")


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
        spec = write_json(tmp_path / "ks.json", SMALL_KS)
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

    @pytest.mark.parametrize(
        "spec",
        [
            {"system": {"name": "lorenz"}, "noise_level": float("nan")},
            {"system": {"name": "lorenz", "dt": float("inf")}},
            {"system": {"name": "ks", "burn_in": float("nan")}},
        ],
        ids=["noise-nan", "lorenz-dt-inf", "ks-burn-in-nan"],
    )
    def test_non_finite_spec_exits_2(self, tmp_path, capsys, spec):
        path = write_json(tmp_path / "s.json", {"schema": 1, **spec})
        out = tmp_path / "x"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "system, message",
        [
            ({"name": "ks", "length": 0.0}, "KS length must be positive"),
            ({"name": "ks", "length": -50.0}, "KS length must be positive"),
            ({"name": "ks", "t_span": 0.2, "dt_save": 0.4}, "must be >= dt_save"),
        ],
        ids=["ks-length-zero", "ks-length-negative", "ks-t-span-below-dt-save"],
    )
    def test_invalid_ks_grid_exits_2(self, tmp_path, capsys, system, message):
        path = write_json(tmp_path / "s.json", {"schema": 1, "system": system})
        out = tmp_path / "x"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_nan_threshold_exits_2(self, tmp_path, capsys, lorenz_dataset):
        # it used to exit 0 with an all-zero model
        cfg = fit_config(tmp_path, lorenz_dataset,
                         optimizer={"type": "stlsq", "threshold": float("nan")})
        assert "NaN" in cfg.read_text()
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config.optimizer: STLSQ threshold must be finite, got nan\n"
        assert not (tmp_path / "fit_out").exists()

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
        "overrides, where, message",
        [
            *[({"diff": {"method": "fd", "order": 4, "d": d}}, "config.diff",
               "unknown field 'd'; FiniteDifference takes order") for d in (2, 3, True, 1.0)],
            ({"library": {"type": "pde", "derivative_order": 2, "axes": ["x"],
                          "diff": {"method": "spectral", "d": 2}}},
             "config.library.diff", "unknown field 'd'; Spectral takes filter_strength"),
            *[({"library": library}, "config.library", "has no columns") for library in (
                {"type": "polynomial", "degree": 0, "include_bias": False},
                {"type": "concat", "parts": [{"type": "polynomial", "degree": 1},
                                             {"type": "polynomial", "degree": 0,
                                              "include_bias": False}]},
                {"type": "tensor", "left": {"type": "polynomial", "degree": 1},
                 "right": {"type": "polynomial", "degree": 0, "include_bias": False}},
            )],
            ({"library": {"type": "concat", "parts": [{"type": "polynomial", "degree": 1},
                                                      {"type": "polynomial", "degree": 1}]}},
             "config.library", "duplicate feature names"),
            ({"diff": "fd:3"}, "config.diff", "finite-difference order must be even"),
            ({"library": {"type": "pde", "derivative_order": 2, "axes": ["t"],
                          "diff": {"method": "sg", "window": 7, "poly_order": 1}}},
             "config.library", "poly_order must be >= 2"),
            ({"optimizer": {"type": "stlsq", "threshold": -1.0}}, "config.optimizer",
             "invalid STLSQ spec"),
            ({"optimizer": {"type": "sr3", "constraints": {"matrix": [[1.0, 1.0], [2.0, 2.0]],
                                                           "rhs": [0.0, 0.0]}}},
             "config.optimizer", "constraint matrix is not full row rank"),
            ({"ensemble": {"n_models": 1}}, "config.ensemble", "n_models must be >= 2"),
            ({"data": {"benchmark": {"system": {"name": "ks", "n_grid": 100}}}},
             "config.data.benchmark", "n_grid must be a power of two"),
        ],
        ids=["target-derivative-order", "diff-d-3", "diff-d-true", "diff-d-float",
             "pde-diff-d-2", "no-columns", "concat-no-columns", "tensor-no-columns",
             "duplicate-names", "diff-parameters", "pde-diff-parameters", "optimizer",
             "sr3-rank-deficient", "ensemble", "benchmark"],
    )
    def test_exits_2_at_config_load(self, tmp_path, capsys, overrides, where, message):
        # the data path does not exist, so reading the data first would exit 3;
        # the error names where the bad value sits
        cfg = fit_config(tmp_path, tmp_path / "missing", **overrides)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "fit_out").exists()

    def test_ssr_selection_exits_2(self, tmp_path, capsys):
        # SSR has one selection rule and no option naming it
        optimizer = {"type": "ssr", "selection": "holdout"}
        cfg = fit_config(tmp_path, tmp_path / "missing", optimizer=optimizer)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config.optimizer: unknown field 'selection'; SSR takes min_terms" in err
        assert not (tmp_path / "fit_out").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"diff": "fd:3"},
            {"library": {"type": "pde", "derivative_order": 2, "axes": ["t"],
                         "diff": {"method": "sg", "window": 7, "poly_order": 1}}},
        ],
        ids=["diff-parameters", "pde-diff-parameters"],
    )
    def test_malformed_diff_exits_2_before_generating(self, tmp_path, capsys, monkeypatch,
                                                      overrides):
        def generate(spec):
            raise AssertionError("benchmark data generated for a malformed config")

        monkeypatch.setattr("sparsedyn.cli.generate", generate)
        data = {"benchmark": {"system": {"name": "ks", "n_grid": 64, "t_span": 4.0}}}
        cfg = fit_config(tmp_path, None, data=data, **overrides)
        capsys.readouterr()
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "fit_out").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"optimizer": {"type": "frols", "err_tol": 2.0}},
            # thresholds far above every coefficient fit an all-zero model
            {"optimizer": "stlsq:1000000,0.05"},
            {"optimizer": {"type": "sr3", "threshold": 1e6}},
            {"optimizer": "stlsq:1000000,0.05", "ensemble": "n=3,seed=0"},
        ],
        ids=["frols", "stlsq", "sr3", "stlsq-ensemble"],
    )
    def test_fit_failure_exits_4_without_partial_files(self, tmp_path, capsys,
                                                       lorenz_dataset, overrides):
        cfg = fit_config(tmp_path, lorenz_dataset, out_name="failed", **overrides)
        assert main(["fit", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("fit error: ")
        assert not (tmp_path / "failed").exists()

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


LORENZ_BENCHMARK = {"system": {"name": "lorenz", "t_span": 2.0, "dt": 0.004},
                    "noise_level": 0.01, "seed": 1}
FIT_FILES = ("report.json", "equations.txt", "prediction_vs_truth.csv")


class TestCommandLineOverrides:
    """``--seed``, ``--out``, ``--ensemble`` and ``--verbose``, and a fit on
    an inline ``data.benchmark``."""

    def run(self, capsys, *argv):
        capsys.readouterr()
        assert main(list(argv)) == 0
        return capsys.readouterr()

    def test_seed_reseeds_the_benchmark_data_and_the_report(self, tmp_path, capsys):
        def config(name, seed):
            return fit_config(tmp_path, None, out_name=name, seed=seed,
                              data={"benchmark": {**LORENZ_BENCHMARK, "seed": seed}})

        self.run(capsys, "fit", "--config", str(config("plain", 0)))
        self.run(capsys, "fit", "--config", str(config("seeded", 0)), "--seed", "5")
        self.run(capsys, "fit", "--config", str(config("five", 5)))
        plain, seeded, five = (json.loads((tmp_path / name / "report.json").read_text())
                               for name in ("plain", "seeded", "five"))
        assert plain["diagnostics"]["seed"] == 0 and seeded["diagnostics"]["seed"] == 5
        # other noise, so other coefficients: those of the config seeded with 5
        assert seeded["coefficients"] != plain["coefficients"]
        assert seeded == five

    def test_out_redirects_every_file(self, tmp_path, capsys, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset, out_name="configured")
        self.run(capsys, "fit", "--config", str(cfg), "--out", str(tmp_path / "elsewhere"))
        assert not (tmp_path / "configured").exists()
        assert sorted(p.name for p in (tmp_path / "elsewhere").iterdir()) == sorted(FIT_FILES)

    def test_ensemble_adds_the_report_block(self, tmp_path, capsys, lorenz_dataset):
        cfg = fit_config(tmp_path, lorenz_dataset, out_name="plain")
        self.run(capsys, "fit", "--config", str(cfg))
        self.run(capsys, "fit", "--config", str(cfg), "--out", str(tmp_path / "ens"),
                 "--ensemble", "n=3,seed=0")
        plain = json.loads((tmp_path / "plain" / "report.json").read_text())
        ens = json.loads((tmp_path / "ens" / "report.json").read_text())
        assert "ensemble" not in plain
        assert set(ens["ensemble"]) == {"inclusion_probability", "iqr", "n_failed"}
        assert ens["diagnostics"]["ensemble_members"] == 3

    def test_verbose_writes_only_to_stderr(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, None, out_name="quiet", data={"benchmark": LORENZ_BENCHMARK})
        quiet = self.run(capsys, "fit", "--config", str(cfg))
        loud = self.run(capsys, "fit", "--config", str(cfg), "--out", str(tmp_path / "loud"),
                        "--verbose")
        assert quiet.err == "" and loud.out == quiet.out
        assert "generating benchmark data" in loud.err and "test r2 = " in loud.err
        for name in FIT_FILES:
            loud_file, quiet_file = tmp_path / "loud" / name, tmp_path / "quiet" / name
            assert loud_file.read_bytes() == quiet_file.read_bytes()

    def test_generate_seed_overrides_the_spec(self, tmp_path, capsys):
        def generate(name, seed, *argv):
            spec = write_json(tmp_path / f"{name}.json",
                              {"schema": 1, **LORENZ_BENCHMARK, "seed": seed})
            self.run(capsys, "generate", "--config", str(spec), "--out", str(tmp_path / name),
                     *argv)
            return (tmp_path / name / "states.f64").read_bytes()

        seeded = generate("seeded", 1, "--seed", "7")
        assert seeded == generate("seven", 7)
        assert seeded != generate("one", 1)

    @pytest.mark.parametrize("optimizer, diagnostic", [("ssr", "holdout_rows"),
                                                       ("frols", "err_values")])
    def test_optimizer_override_fits_a_greedy_solver(self, tmp_path, capsys, lorenz_dataset,
                                                     optimizer, diagnostic):
        cfg = fit_config(tmp_path, lorenz_dataset, out_name="greedy")
        self.run(capsys, "fit", "--config", str(cfg), "--optimizer", optimizer)
        report = json.loads((tmp_path / "greedy" / "report.json").read_text())
        assert diagnostic in report["diagnostics"]

    def test_score_takes_no_seed(self, tmp_path, capsys):
        # score reads no randomness, so a seed is a usage error
        out = tmp_path / "scored"
        with pytest.raises(SystemExit) as exit_info:
            main(["score", "--config", str(tmp_path / "report.json"), "--data",
                  str(tmp_path / "data"), "--out", str(out), "--seed", "5"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()


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


def whole_table_csv(target_names, pred, actual):
    """The writer that formatted the whole table into one string."""
    header = ["sample"]
    columns = [map(str, range(pred.shape[0]))]
    for j, name in enumerate(target_names):
        header += [f"predicted_{name}", f"computed_{name}"]
        columns += [map(repr, pred[:, j].tolist()), map(repr, actual[:, j].tolist())]
    rows = [",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(rows) + "\n"


def column_chunks_csv(target_names, pred, actual):
    """The writer that joined each chunk of ``CSV_ROWS`` rows from per-column
    ``repr`` maps."""
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


def computed_targets(model, dataset):
    if isinstance(model.library, WeakPDE):
        return design(dataset, model.library, model.diff).targets
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
        assert "".join(_prediction_csv(names, pred, actual)) == per_cell_csv(names, pred, actual)

    @pytest.mark.parametrize("n_targets", [2, 3])
    @pytest.mark.parametrize("m", [0, 1, 9, CSV_ROWS + 3])
    def test_one_format_per_chunk_writes_the_former_text(self, n_targets, m):
        rng = np.random.default_rng(10 * m + n_targets)
        pred = rng.standard_normal((m, n_targets)) * 10.0 ** rng.integers(-320, 300, (m, n_targets))
        actual = rng.standard_normal((m, n_targets))
        special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.0, -5e-324])
        # the special values in every target column, at both ends of the table
        for j in range(n_targets):
            cells = np.roll(special, j)[: m]
            pred[: cells.size, j], actual[m - cells.size :, j] = cells, cells[::-1]
        names = tuple(f"q{j}_t" for j in range(n_targets))
        chunks = list(_prediction_csv(names, pred, actual))
        assert chunks == list(column_chunks_csv(names, pred, actual))
        assert len(chunks) == 1 + -(-m // CSV_ROWS)

    @pytest.mark.parametrize("n_targets", [1, 3])
    @pytest.mark.parametrize("m", [0, 1, 7, CSV_ROWS, 2 * CSV_ROWS + 17])
    def test_file_written_in_blocks_holds_the_whole_table(self, tmp_path, n_targets, m):
        rng = np.random.default_rng(m + n_targets)
        pred = rng.standard_normal((m, n_targets)) * 10.0 ** rng.integers(-300, 300, (m, n_targets))
        actual = rng.standard_normal((m, n_targets))
        if m:
            pred[0, 0], actual[-1, -1] = -0.0, np.nan
        names = tuple(f"q{j}_t" for j in range(n_targets))
        path = tmp_path / "prediction_vs_truth.csv"
        _write_atomic(path, _prediction_csv(names, pred, actual))
        assert path.read_bytes() == whole_table_csv(names, pred, actual).encode()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


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

    def test_report_with_legacy_diff_orders_scores_unchanged(self, tmp_path):
        data = tmp_path / "ks_data"
        spec = write_json(tmp_path / "ks.json", SMALL_KS)
        assert main(["generate", "--config", str(spec), "--out", str(data)]) == 0
        legacy = json.loads((LEGACY_REPORT / "report.json").read_text())
        assert legacy["diff"]["d"] == legacy["library"]["diff"]["d"] == 1
        plain = json.loads(json.dumps(legacy))
        del plain["diff"]["d"], plain["library"]["diff"]["d"]
        scored = {}
        for name, report in (("legacy", LEGACY_REPORT / "report.json"),
                             ("plain", write_json(tmp_path / "plain.json", plain))):
            argv = ["score", "--config", str(report), "--data", str(data)]
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            scored[name] = (tmp_path / name / "score.json").read_bytes()
        assert scored["legacy"] == scored["plain"]
        # the score written with the report, to the corpus's 1e-10 relative
        # (the KS data are regenerated, and FFT rounding may differ by platform)
        got, recorded = json.loads(scored["legacy"]), json.loads(
            (LEGACY_REPORT / "score.json").read_text())
        assert list(got) == list(recorded) and got["n_samples"] == recorded["n_samples"]
        for key in ("r2", "rmse"):
            assert got[key] == pytest.approx(recorded[key], rel=1e-10, abs=0.0)

    def test_weak_score_counts_the_scored_subdomains(self, tmp_path, lorenz_dataset):
        weak = {"type": "weak", "inner": {"type": "polynomial", "degree": 2},
                "n_subdomains": 40, "subdomain_size": [101], "seed": 3}
        cfg = fit_config(tmp_path, lorenz_dataset, library=weak)
        assert main(["fit", "--config", str(cfg)]) == 0
        report_path = tmp_path / "fit_out" / "report.json"
        out = tmp_path / "scored"
        argv = ["score", "--config", str(report_path), "--data", str(lorenz_dataset)]
        assert main([*argv, "--out", str(out)]) == 0
        result = json.loads((out / "score.json").read_text())
        model = model_from_report(json.loads(report_path.read_text()))
        assert result["r2"] == score(model, load_dataset(lorenz_dataset), "r2")
        assert result["n_samples"] == 40  # the rows scored, not the 1001 samples

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


def command_argv(command, lorenz_dataset, config, out):
    """The argv of ``command`` run on ``config`` (for ``score``, a report)
    and the Lorenz dataset, writing into ``out``."""
    if command == "score":
        return ["score", "--config", str(config), "--data", str(lorenz_dataset),
                "--out", str(out)]
    return [command, "--config", str(config), "--out", str(out)]


@pytest.mark.parametrize("command", ["fit", "score"])
@pytest.mark.parametrize(
    "damage, name",
    [("no-states", "states.f64"), ("states-directory", "states.f64"),
     ("no-controls", "controls.f64"), ("derivs-directory", "derivs.f64")],
)
def test_unreadable_dataset_file_exits_3(tmp_path, lorenz_dataset, capsys, command,
                                         damage, name):
    config = fit_config(tmp_path, lorenz_dataset)
    if command == "score":
        assert main(["fit", "--config", str(config)]) == 0
        config = tmp_path / "fit_out" / "report.json"
    if damage == "no-controls":
        meta = json.loads((lorenz_dataset / "meta.json").read_text())
        write_json(lorenz_dataset / "meta.json", {**meta, "n_controls": 1})
    elif damage == "derivs-directory":  # not skipped as if there were no file
        (lorenz_dataset / "derivs.f64").mkdir()
    else:
        (lorenz_dataset / "states.f64").unlink()
        if damage == "states-directory":
            (lorenz_dataset / "states.f64").mkdir()
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(command_argv(command, lorenz_dataset, config, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read ") and err.count("\n") == 1, err
    assert name in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, spoiled, code",
    [
        ("fit", "data/meta.json", 3),
        ("fit", "data/samples.csv", 3),
        ("fit", "fit_out.json", 2),
        ("generate", "spec.json", 2),
        ("score", "fit_out/report.json", 2),
    ],
    ids=["meta", "csv", "config", "spec", "report"],
)
def test_non_utf8_byte_exits_with_its_error_class(tmp_path, lorenz_dataset, capsys,
                                                  command, spoiled, code):
    data = lorenz_dataset / "samples.csv" if spoiled.endswith(".csv") else lorenz_dataset
    config = fit_config(tmp_path, data)
    if command == "score":
        assert main(["fit", "--config", str(config)]) == 0
    path = tmp_path / spoiled
    path.write_bytes(b"\xff" + path.read_bytes())
    if command != "fit":
        config = path
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(command_argv(command, lorenz_dataset, config, out)) == code
    err = capsys.readouterr().err
    assert err.startswith("data error: " if code == 3 else "error: ") and err.count("\n") == 1
    assert "is not UTF-8 text: invalid start byte at byte 0" in err, err
    assert not out.exists()

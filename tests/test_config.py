import json
import typing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsedyn.config import (
    _TAGS,
    DiscoveryConfig,
    from_json,
    to_json,
)
from sparsedyn.diff import DiffMethod, FiniteDifference, SavitzkyGolay, Spectral
from sparsedyn.ensemble import EnsembleSpec
from sparsedyn.errors import SpecError
from sparsedyn.library import (
    Concat,
    Custom,
    Fourier,
    InputSubset,
    LibrarySpec,
    PDE,
    Polynomial,
    Tensor,
    WeakPDE,
    CUSTOM_REGISTRY,
)
from sparsedyn.optimize import FROLS, SR3, SSR, STLSQ, OptimizerSpec
from sparsedyn.systems import KS, BenchmarkSpec, Lorenz


class TestDiffRoundTrip:
    @pytest.mark.parametrize(
        "method",
        [
            FiniteDifference(order=4),
            SavitzkyGolay(window=9, poly_order=4, d=2),
            Spectral(filter_strength=0.5),
        ],
    )
    def test_round_trip(self, method):
        assert from_json(DiffMethod, to_json(method)) == method

    def test_compact_flags(self):
        assert from_json(DiffMethod, "fd:4") == FiniteDifference(order=4)
        assert from_json(DiffMethod, "sg:11,3") == SavitzkyGolay(window=11, poly_order=3)
        assert from_json(DiffMethod, "spectral") == Spectral()
        assert from_json(DiffMethod, "spectral:2.5") == Spectral(filter_strength=2.5)
        with pytest.raises(SpecError):
            from_json(DiffMethod, "fd:nope")


LIBRARY_EXAMPLES = [
    Polynomial(3, include_bias=False),
    Fourier(2, include_cos=False),
    Custom((("exp", CUSTOM_REGISTRY["exp"]), ("tanh", CUSTOM_REGISTRY["tanh"]))),
    PDE(4, ("x",), Polynomial(2, include_bias=False), diff=Spectral()),
    WeakPDE(
        inner=PDE(2, ("x",), Polynomial(1, include_bias=False)),
        n_subdomains=50,
        test_poly_order=3,
        subdomain_size=(11, 7),
        seed=4,
    ),
    Concat((Polynomial(1), Fourier(1))),
    Tensor(Polynomial(1), Fourier(1)),
    InputSubset(Polynomial(2), (0, 2)),
]


class TestLibraryRoundTrip:
    @pytest.mark.parametrize("spec", LIBRARY_EXAMPLES, ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        assert from_json(LibrarySpec, to_json(spec)) == spec

    def test_unknown_custom_function(self):
        with pytest.raises(SpecError):
            from_json(LibrarySpec, {"type": "custom", "functions": ["frobnicate"]})

    def test_non_registry_callable_not_serializable(self):
        spec = Custom((("mine", lambda x: x),))
        with pytest.raises(SpecError):
            to_json(spec)

    def test_unknown_type(self):
        with pytest.raises(SpecError):
            from_json(LibrarySpec, {"type": "wavelets"})


class TestOptimizerRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            STLSQ(threshold=0.2, ridge=0.0, max_iter=5),
            SR3(threshold=0.3, relaxation=2.0, regularizer="l1"),
            SSR(min_terms=2, selection="path"),
            FROLS(max_terms=4, err_tol=1e-4),
        ],
        ids=["stlsq", "sr3", "ssr", "frols"],
    )
    def test_round_trip(self, spec):
        assert from_json(OptimizerSpec, to_json(spec)) == spec

    def test_sr3_constraints_round_trip(self):
        C = np.eye(2, 6)
        d = np.array([1.0, 2.0])
        spec = SR3(constraints=(C, d))
        back = from_json(OptimizerSpec, to_json(spec))
        np.testing.assert_array_equal(back.constraints[0], C)
        np.testing.assert_array_equal(back.constraints[1], d)

    def test_compact_flags(self):
        assert from_json(OptimizerSpec, "stlsq:0.2,0.01") == STLSQ(threshold=0.2, ridge=0.01)
        assert from_json(OptimizerSpec, "sr3:0.1,2.0,l1") == SR3(
            threshold=0.1, relaxation=2.0, regularizer="l1"
        )
        assert from_json(OptimizerSpec, "ssr") == SSR()
        assert from_json(OptimizerSpec, "frols") == FROLS()
        with pytest.raises(SpecError):
            from_json(OptimizerSpec, "lasso:0.1")


class TestEnsembleRoundTrip:
    def test_round_trip(self):
        spec = EnsembleSpec(n_models=12, row_fraction=0.8, replace=False, seed=7)
        assert from_json(EnsembleSpec, to_json(spec)) == spec

    def test_compact_flag(self):
        spec = from_json(EnsembleSpec, "n=12,rows=0.8,drop=1,agg=mean,seed=7,norepl")
        assert spec == EnsembleSpec(
            n_models=12,
            row_fraction=0.8,
            replace=False,
            n_library_drop=1,
            aggregator="mean",
            seed=7,
        )
        with pytest.raises(SpecError):
            from_json(EnsembleSpec, "bogus=1")


class TestBenchmarkRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            BenchmarkSpec(system=Lorenz(t_span=5.0), noise_level=0.01, seed=3),
            BenchmarkSpec(system=KS(n_grid=256, t_span=8.0), seed=9),
        ],
        ids=["lorenz", "ks"],
    )
    def test_round_trip(self, spec):
        assert from_json(BenchmarkSpec, to_json(spec)) == spec


class TestDiscoveryConfig:
    def base(self):
        return {
            "schema": 1,
            "data": {"benchmark": {"system": {"name": "lorenz", "t_span": 2.0}}},
            "library": {"type": "polynomial", "degree": 2},
        }

    def test_minimal_config_defaults(self):
        cfg = from_json(DiscoveryConfig, self.base())
        assert cfg.train_fraction == 0.6
        assert cfg.diff == FiniteDifference(order=2)
        assert cfg.optimizer == STLSQ()
        assert cfg.ensemble is None
        cfg.validate()

    def test_round_trip(self):
        cfg = from_json(DiscoveryConfig, self.base())
        assert from_json(DiscoveryConfig, to_json(cfg)) == cfg

    def test_compact_strings_accepted(self):
        obj = self.base()
        obj["diff"] = "sg:11,3"
        obj["optimizer"] = "frols"
        obj["ensemble"] = "n=8,rows=0.5"
        cfg = from_json(DiscoveryConfig, obj)
        assert cfg.diff == SavitzkyGolay(window=11, poly_order=3)
        assert cfg.optimizer == FROLS()
        assert cfg.ensemble.n_models == 8

    def test_diff_of_another_derivative_order_rejected(self):
        with pytest.raises(SpecError, match="d=2"):
            from_json(DiscoveryConfig, {**self.base(), "diff": {"method": "fd", "d": 2}})

    def test_exactly_one_data_source(self):
        obj = self.base()
        obj["data"]["path"] = "somewhere"
        with pytest.raises(SpecError):
            from_json(DiscoveryConfig, obj)
        with pytest.raises(SpecError):
            from_json(DiscoveryConfig, {**self.base(), "data": {}})

    def test_missing_library_rejected(self):
        obj = self.base()
        del obj["library"]
        with pytest.raises(SpecError):
            from_json(DiscoveryConfig, obj)

    def test_bad_train_fraction(self):
        obj = self.base()
        obj["train_fraction"] = 1.5
        with pytest.raises(SpecError):
            from_json(DiscoveryConfig, obj)


# One instance of every tagged class plus the untagged specs, each with its
# JSON exactly as written to disk (key order included).  report.json stores
# the library and diff blocks, so ``score`` reads old reports only while
# these stay fixed.
WIRE_FORMAT = [
    (FiniteDifference(order=4), {"method": "fd", "order": 4, "d": 1}),
    (
        SavitzkyGolay(window=9, poly_order=4, d=2),
        {"method": "sg", "window": 9, "poly_order": 4, "d": 2},
    ),
    (Spectral(0.5), {"method": "spectral", "filter_strength": 0.5, "d": 1}),
    (
        Polynomial(3, include_bias=False),
        {"type": "polynomial", "degree": 3, "include_bias": False,
         "include_interactions": True},
    ),
    (
        Fourier(2, include_cos=False),
        {"type": "fourier", "n_frequencies": 2, "include_sin": True,
         "include_cos": False},
    ),
    (
        Custom((("exp", CUSTOM_REGISTRY["exp"]), ("tanh", CUSTOM_REGISTRY["tanh"]))),
        {"type": "custom", "functions": ["exp", "tanh"]},
    ),
    (
        PDE(4, ("x",), Polynomial(2, include_bias=False), diff=Spectral()),
        {"type": "pde", "derivative_order": 4, "axes": ["x"],
         "multiply_by": {"type": "polynomial", "degree": 2, "include_bias": False,
                         "include_interactions": True},
         "diff": {"method": "spectral", "filter_strength": 0.0, "d": 1}},
    ),
    (
        WeakPDE(inner=PDE(2, ("x", "t")), n_subdomains=50, test_poly_order=3,
                subdomain_size=(11, 7), seed=4),
        {"type": "weak",
         "inner": {"type": "pde", "derivative_order": 2, "axes": ["x", "t"],
                   "multiply_by": None, "diff": None},
         "n_subdomains": 50, "test_poly_order": 3, "subdomain_size": [11, 7],
         "seed": 4},
    ),
    (
        WeakPDE(inner=Fourier(1), subdomain_size=20),
        {"type": "weak",
         "inner": {"type": "fourier", "n_frequencies": 1, "include_sin": True,
                   "include_cos": True},
         "n_subdomains": 100, "test_poly_order": 4, "subdomain_size": 20, "seed": 0},
    ),
    (
        Concat((Polynomial(1), Fourier(1))),
        {"type": "concat", "parts": [
            {"type": "polynomial", "degree": 1, "include_bias": True,
             "include_interactions": True},
            {"type": "fourier", "n_frequencies": 1, "include_sin": True,
             "include_cos": True}]},
    ),
    (
        Tensor(Polynomial(1), Fourier(1)),
        {"type": "tensor",
         "left": {"type": "polynomial", "degree": 1, "include_bias": True,
                  "include_interactions": True},
         "right": {"type": "fourier", "n_frequencies": 1, "include_sin": True,
                   "include_cos": True}},
    ),
    (
        InputSubset(Polynomial(2), (0, 2)),
        {"type": "subset",
         "inner": {"type": "polynomial", "degree": 2, "include_bias": True,
                   "include_interactions": True},
         "indices": [0, 2]},
    ),
    (
        STLSQ(threshold=0.2, ridge=0.0, max_iter=5),
        {"type": "stlsq", "threshold": 0.2, "ridge": 0.0, "max_iter": 5},
    ),
    (
        SR3(threshold=0.3, relaxation=2.0, regularizer="l1"),
        {"type": "sr3", "threshold": 0.3, "relaxation": 2.0, "regularizer": "l1",
         "max_iter": 30, "tol": 1e-5},
    ),
    (
        SR3(constraints=(np.eye(1, 3), np.array([1.5]))),
        {"type": "sr3", "threshold": 0.1, "relaxation": 1.0, "regularizer": "l0",
         "max_iter": 30, "tol": 1e-5,
         "constraints": {"matrix": [[1.0, 0.0, 0.0]], "rhs": [1.5]}},
    ),
    (SSR(min_terms=2, selection="path"), {"type": "ssr", "min_terms": 2, "selection": "path"}),
    (FROLS(), {"type": "frols", "max_terms": None, "err_tol": 1e-6}),
    (
        EnsembleSpec(n_models=12, row_fraction=0.8, replace=False, seed=7),
        {"n_models": 12, "row_fraction": 0.8, "replace": False, "n_library_drop": 0,
         "aggregator": "median", "support_threshold": 0.5, "seed": 7},
    ),
    (
        BenchmarkSpec(system=Lorenz(t_span=5.0), noise_level=0.01, seed=3),
        {"system": {"name": "lorenz", "sigma": 10.0, "rho": 28.0,
                    "beta": 8.0 / 3.0, "initial_state": [-8.0, 8.0, 27.0],
                    "t_span": 5.0, "dt": 0.002},
         "noise_level": 0.01, "seed": 3},
    ),
    (
        BenchmarkSpec(system=KS(n_grid=256, t_span=8.0), seed=9),
        {"system": {"name": "ks", "length": 100.0, "n_grid": 256, "t_span": 8.0,
                    "dt_save": 0.4, "dt": 0.05, "burn_in": 50.0, "n_init_modes": 4,
                    "init_amplitude": 0.5},
         "noise_level": 0.0, "seed": 9},
    ),
    (
        DiscoveryConfig(
            data_path="ks_data",
            diff=SavitzkyGolay(window=5, poly_order=3),
            library=Polynomial(2),
            optimizer=FROLS(max_terms=3),
            ensemble=EnsembleSpec(n_models=8),
            output_dir="out",
            normalize_columns=True,
        ),
        {"schema": 1, "data": {"path": "ks_data"}, "train_fraction": 0.6,
         "diff": {"method": "sg", "window": 5, "poly_order": 3, "d": 1},
         "library": {"type": "polynomial", "degree": 2, "include_bias": True,
                     "include_interactions": True},
         "optimizer": {"type": "frols", "max_terms": 3, "err_tol": 1e-6},
         "ensemble": {"n_models": 8, "row_fraction": 0.6, "replace": True,
                      "n_library_drop": 0, "aggregator": "median",
                      "support_threshold": 0.5, "seed": 0},
         "output_dir": "out", "seed": 0, "precision": 3, "normalize_columns": True},
    ),
]


class TestWireFormat:
    @pytest.mark.parametrize(
        "spec, expected", WIRE_FORMAT, ids=[type(s).__name__ for s, _ in WIRE_FORMAT]
    )
    def test_encoding_is_pinned(self, spec, expected):
        # json.dumps compares key order too
        assert json.dumps(to_json(spec)) == json.dumps(expected)

    def test_benchmark_config_encoding_is_pinned(self):
        cfg = DiscoveryConfig(
            benchmark=BenchmarkSpec(system=KS(n_grid=128)), library=Polynomial(1)
        )
        out = to_json(cfg)
        assert list(out) == [
            "schema", "data", "train_fraction", "diff", "library", "optimizer",
            "ensemble", "output_dir", "seed", "precision", "normalize_columns",
        ]
        assert out["data"] == {"benchmark": to_json(cfg.benchmark)}

    @pytest.mark.parametrize(
        "union",
        [
            DiffMethod,
            LibrarySpec,
            OptimizerSpec,
            typing.get_type_hints(BenchmarkSpec)["system"],
        ],
        ids=["diff", "library", "optimizer", "system"],
    )
    def test_every_union_member_has_a_wire_name(self, union):
        members = typing.get_args(union)
        assert set(members) <= set(_TAGS)
        # one tag key per union, and no two members share a tag
        assert len({_TAGS[cls][0] for cls in members}) == 1
        assert len({_TAGS[cls][1] for cls in members}) == len(members)


class TestDecodeChecks:
    def test_ints_accepted_as_floats(self):
        spec = from_json(OptimizerSpec, {"type": "stlsq", "threshold": 1, "ridge": 0})
        assert spec == STLSQ(threshold=1.0, ridge=0.0)
        assert isinstance(spec.threshold, float)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"type": "polynomial", "degree": True}, r"\.degree: expected int"),
            ({"type": "polynomial", "degree": None}, r"\.degree: expected int"),
            ({"type": "fourier", "include_sin": 1}, r"\.include_sin: expected bool"),
            ({"type": "subset", "inner": {"type": "polynomial"}, "indices": [0, "1"]},
             r"\.indices\[1\]: expected int"),
            ({"type": "pde", "multiply_by": {"type": "polynomial", "degree": "two"}},
             r"\.multiply_by\.degree: expected int"),
            ({"type": "pde", "diff": {"method": "fd", "order": 4, "smooth": 1}},
             r"\.diff: unknown field 'smooth'"),
            ({"type": "weak", "inner": {"type": "polynomial"}},
             r"missing required field 'subdomain_size'"),
            ({"type": "concat"}, r"missing required field 'parts'"),
            ({"degree": 2}, r"expected an object with type one of"),
            ({"type": 3}, r"expected an object with type one of"),
            ("polynomial", r"expected an object with type one of"),
            ({"type": "custom", "functions": "exp"}, r"\.functions: expected tuple"),
        ],
    )
    def test_malformed_library_rejected(self, obj, message):
        with pytest.raises(SpecError, match=message):
            from_json(LibrarySpec, obj, "library spec")

    def test_error_names_the_path(self):
        with pytest.raises(SpecError) as info:
            from_json(LibrarySpec, {"type": "polynomial", "degree": "two"}, "library spec")
        assert str(info.value) == "library spec.degree: expected int, got 'two'"

    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "sr3", "regularizer": "l2"},
            {"type": "sr3", "constraints": {"matrix": [[1.0, 2.0]]}},
            {"type": "sr3", "constraints": {"matrix": [1.0, 2.0], "rhs": [1.0]}},
            {"type": "sr3", "constraints": {"matrix": [[1.0], [1.0, 2.0]], "rhs": [1, 2]}},
            {"type": "ssr", "selection": "best"},
            {"type": "frols", "max_terms": 2.5},
            "stlsq:abc,0.1",
        ],
    )
    def test_malformed_optimizer_rejected(self, obj):
        with pytest.raises(SpecError):
            from_json(OptimizerSpec, obj)

    @pytest.mark.parametrize(
        "kind, text",
        [
            (DiffMethod, "sg:11"),
            (DiffMethod, "fd:4.5"),
            (DiffMethod, "fd:4,2"),
            (DiffMethod, "stlsq"),
            (OptimizerSpec, "stlsq:0.1"),
            (OptimizerSpec, "sr3:0.1,1.0,l2"),
            (OptimizerSpec, "ssr:3"),
            (EnsembleSpec, "n="),
            (EnsembleSpec, "n=8,agg=3"),
            (EnsembleSpec, "seed=-"),
        ],
    )
    def test_malformed_flags_rejected(self, kind, text):
        with pytest.raises(SpecError):
            from_json(kind, text)

    def test_flags_decode_like_objects(self):
        assert from_json(DiffMethod, " FD:6") == FiniteDifference(order=6)
        assert from_json(OptimizerSpec, "stlsq:1,0") == STLSQ(threshold=1.0, ridge=0.0)
        assert from_json(OptimizerSpec, "sr3:.5,2, l1") == SR3(
            threshold=0.5, relaxation=2.0, regularizer="l1"
        )
        with pytest.raises(SpecError, match=r"config\.diff\.order: expected int"):
            from_json(DiffMethod, "fd:x", "config.diff")

    def test_single_class_checks_its_tag(self):
        assert from_json(Polynomial, {"degree": 3}) == Polynomial(3)
        with pytest.raises(SpecError, match="expected type 'polynomial'"):
            from_json(Polynomial, {"type": "fourier"})

    def test_fixed_length_tuple(self):
        with pytest.raises(SpecError, match=r"initial_state: expected tuple"):
            from_json(BenchmarkSpec, {"system": {"name": "lorenz", "initial_state": [1, 2]}})

    def test_config_data_block(self):
        base = {"library": {"type": "polynomial"}}
        for data in ("x", {"path": 3}, {"path": "a", "url": "b"}):
            with pytest.raises(SpecError, match=r"config\.data"):
                from_json(DiscoveryConfig, {**base, "data": data}, "config")
        with pytest.raises(SpecError, match="unknown field 'data_path'"):
            from_json(DiscoveryConfig, {**base, "data": {"path": "a"}, "data_path": "a"})
        with pytest.raises(SpecError, match="missing required field 'data'"):
            from_json(DiscoveryConfig, base)
        with pytest.raises(SpecError, match="schema 2"):
            from_json(DiscoveryConfig, {**base, "data": {"path": "a"}, "schema": 2})


# ---------------------------------------------------------------------------
# round-trip property
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
small = st.integers(0, 50)
diffs = st.one_of(
    st.builds(FiniteDifference, order=small, d=small),
    st.builds(SavitzkyGolay, window=small, poly_order=small, d=small),
    st.builds(Spectral, filter_strength=finite, d=small),
)
leaves = st.one_of(
    st.builds(Polynomial, degree=small, include_bias=st.booleans(),
              include_interactions=st.booleans()),
    st.builds(Fourier, n_frequencies=small, include_sin=st.booleans(),
              include_cos=st.booleans()),
    st.lists(st.sampled_from(sorted(CUSTOM_REGISTRY)), max_size=3).map(
        lambda names: Custom(tuple((n, CUSTOM_REGISTRY[n]) for n in names))
    ),
)
int_tuples = st.lists(small, max_size=3).map(tuple)


def combinators(inner):
    return st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda parts: Concat(tuple(parts))),
        st.builds(Tensor, inner, inner),
        st.builds(InputSubset, inner, int_tuples),
        st.builds(PDE, derivative_order=small,
                  axes=st.lists(st.sampled_from("xyzt"), max_size=3).map(tuple),
                  multiply_by=st.none() | inner, diff=st.none() | diffs),
        st.builds(WeakPDE, inner=inner, n_subdomains=small, test_poly_order=small,
                  subdomain_size=small | int_tuples, seed=st.integers(0, 2**63)),
    )


libraries = st.recursive(leaves, combinators, max_leaves=8)
optimizers = st.one_of(
    st.builds(STLSQ, threshold=finite, ridge=finite, max_iter=small),
    st.builds(SR3, threshold=finite, relaxation=finite,
              regularizer=st.sampled_from(["l0", "l1"]), max_iter=small, tol=finite),
    st.builds(SSR, min_terms=small, selection=st.sampled_from(["holdout", "path"])),
    st.builds(FROLS, max_terms=st.none() | small, err_tol=finite),
)
ensembles = st.builds(
    EnsembleSpec, n_models=small, row_fraction=finite, replace=st.booleans(),
    n_library_drop=small, aggregator=st.text(max_size=8),
    support_threshold=finite, seed=small,
)
systems = st.one_of(
    st.builds(Lorenz, sigma=finite, rho=finite, beta=finite,
              initial_state=st.tuples(finite, finite, finite), t_span=finite,
              dt=finite),
    st.builds(KS, length=finite, n_grid=small, t_span=finite, dt_save=finite,
              dt=finite, burn_in=finite, n_init_modes=small, init_amplitude=finite),
)
benchmarks = st.builds(BenchmarkSpec, system=systems, noise_level=finite, seed=small)


@pytest.mark.parametrize(
    "kind, specs",
    [
        (LibrarySpec, libraries),
        (DiffMethod, diffs),
        (OptimizerSpec, optimizers),
        (EnsembleSpec, ensembles),
        (BenchmarkSpec, benchmarks),
    ],
    ids=["library", "diff", "optimizer", "ensemble", "benchmark"],
)
@given(data=st.data())
def test_round_trip_property(kind, specs, data):
    spec = data.draw(specs)
    assert from_json(kind, json.loads(json.dumps(to_json(spec)))) == spec

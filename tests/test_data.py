import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedyn.data import (
    Dataset,
    Grid,
    TrajectoryCollection,
    add_noise,
    flatten,
    load_dataset,
    save_csv,
    save_dataset,
    split_train_test,
    unflatten,
)
from sparsedyn.errors import DataError


def make_dataset(spatial_shape, T, n, fill=None, seed=0):
    rng = np.random.default_rng(seed)
    axes = tuple(np.linspace(0.0, 1.0, s) for s in spatial_shape)
    grid = Grid(np.linspace(0.0, 2.0, T), axes)
    shape = spatial_shape + (T, n)
    states = rng.standard_normal(shape) if fill is None else np.full(shape, fill)
    return Dataset(grid=grid, states=states)


class TestGrid:
    def test_uniform_flags(self):
        g = Grid(np.linspace(0, 1, 11), (np.array([0.0, 0.1, 0.4]),))
        assert g.time_uniform
        assert g.spatial_uniform == (False,)

    def test_rejects_non_increasing(self):
        with pytest.raises(DataError):
            Grid(np.array([0.0, 1.0, 1.0]))

    def test_rejects_short_axis(self):
        with pytest.raises(DataError):
            Grid(np.array([0.0]))


class TestDatasetInvariants:
    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            Dataset(grid=Grid(np.arange(3.0)), states=np.zeros((4, 1)))

    def test_rejects_zero_states(self):
        with pytest.raises(DataError):
            Dataset(grid=Grid(np.arange(5.0)), states=np.zeros((5, 0)))

    def test_rejects_nan(self):
        states = np.zeros((3, 1))
        states[1] = np.nan
        with pytest.raises(DataError):
            Dataset(grid=Grid(np.arange(3.0)), states=states)

    def test_controls_share_sample_dims(self):
        with pytest.raises(DataError):
            Dataset(
                grid=Grid(np.arange(3.0)),
                states=np.zeros((3, 1)),
                controls=np.zeros((4, 1)),
            )

    def test_collection_requires_matching_dims(self):
        a = make_dataset((), 5, 2)
        b = make_dataset((), 7, 3)
        with pytest.raises(DataError):
            TrajectoryCollection((a, b))
        with pytest.raises(DataError):
            TrajectoryCollection(())


class TestFlatten:
    def test_single_spatial_point(self):
        ds = Dataset(
            grid=Grid(np.array([0.0, 1.0, 2.0])),
            states=np.array([[5.0], [6.0], [7.0]]),
        )
        X, U, _ = flatten(ds)
        assert U is None
        np.testing.assert_array_equal(X, [[5.0], [6.0], [7.0]])

    def test_declared_row_ordering(self):
        # states[x, t] = 10 x + t: rows (0,0),(0,1),(1,0),(1,1)
        states = np.array([[[0.0], [1.0]], [[10.0], [11.0]]])
        ds = Dataset(
            grid=Grid(np.array([0.0, 1.0]), (np.array([0.0, 1.0]),)), states=states
        )
        X, _, index_map = flatten(ds)
        np.testing.assert_array_equal(X.ravel(), [0.0, 1.0, 10.0, 11.0])
        assert index_map.row((1, 0)) == 2
        xs, ts = index_map.grid_indices(np.arange(4))
        np.testing.assert_array_equal(xs, [0, 0, 1, 1])
        np.testing.assert_array_equal(ts, [0, 1, 0, 1])

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_3x4x2(self, seed):
        ds = make_dataset((3,), 4, 2, seed=seed)
        X, _, index_map = flatten(ds)
        np.testing.assert_array_equal(unflatten(X, index_map), ds.states)

    @given(
        spatial=st.lists(st.integers(2, 4), min_size=0, max_size=2),
        T=st.integers(2, 5),
        n=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_all_shapes(self, spatial, T, n):
        ds = make_dataset(tuple(spatial), T, n, seed=1)
        X, _, index_map = flatten(ds)
        assert X.shape == (np.prod(tuple(spatial) + (T,), dtype=int), n)
        np.testing.assert_array_equal(unflatten(X, index_map), ds.states)


class TestSplit:
    def test_60_percent_of_251(self):
        ds = make_dataset((4,), 251, 1)
        train, test = split_train_test(ds, 0.6)
        assert len(train.grid.time_axis) == 150
        assert len(test.grid.time_axis) == 101

    def test_even_split(self):
        ds = make_dataset((), 10, 1)
        train, test = split_train_test(ds, 0.5)
        assert len(train.grid.time_axis) == 5
        assert len(test.grid.time_axis) == 5

    def test_degenerate_side_rejected(self):
        ds = make_dataset((), 4, 1)
        with pytest.raises(DataError):
            split_train_test(ds, 0.9)

    @given(T=st.integers(4, 60), frac=st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_partition(self, T, frac):
        ds = make_dataset((2,), T, 2, seed=2)
        n_train = int(np.floor(frac * T))
        if n_train < 2 or T - n_train < 2:
            with pytest.raises(DataError):
                split_train_test(ds, frac)
            return
        train, test = split_train_test(ds, frac)
        np.testing.assert_array_equal(
            np.concatenate([train.grid.time_axis, test.grid.time_axis]),
            ds.grid.time_axis,
        )
        np.testing.assert_array_equal(
            np.concatenate([train.states, test.states], axis=-2), ds.states
        )


class TestAddNoise:
    def test_zero_level_identical(self):
        ds = make_dataset((), 10, 2)
        assert add_noise(ds, 0.0, seed=1) is ds

    def test_empirical_std(self):
        # unit-RMS signal, 10^4 samples: sample std of the injected noise
        ds = Dataset(grid=Grid(np.arange(10_000.0)), states=np.ones((10_000, 1)))
        noisy = add_noise(ds, 0.1, seed=42)
        std = (noisy.states - ds.states).std()
        assert abs(std - 0.1) / 0.1 < 0.05

    def test_deterministic(self):
        ds = make_dataset((3,), 20, 2)
        a = add_noise(ds, 0.3, seed=9)
        b = add_noise(ds, 0.3, seed=9)
        np.testing.assert_array_equal(a.states, b.states)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            add_noise(make_dataset((), 5, 1), -0.1, seed=0)

    def test_absolute_mode(self):
        ds = Dataset(
            grid=Grid(np.arange(20_000.0)), states=np.full((20_000, 1), 100.0)
        )
        noisy = add_noise(ds, 0.5, seed=3, relative=False)
        std = (noisy.states - ds.states).std()
        assert abs(std - 0.5) / 0.5 < 0.05

    def test_grid_and_controls_unchanged(self):
        base = make_dataset((), 50, 1)
        ds = Dataset(grid=base.grid, states=base.states, controls=np.ones((50, 1)))
        noisy = add_noise(ds, 0.1, seed=0)
        assert noisy.grid is ds.grid
        np.testing.assert_array_equal(noisy.controls, ds.controls)


class TestStorage:
    def test_directory_round_trip(self, tmp_path):
        ds = make_dataset((4, 3), 5, 2, seed=7)
        ds = Dataset(
            grid=ds.grid,
            states=ds.states,
            controls=np.random.default_rng(1).standard_normal((4, 3, 5, 1)),
            derivatives=np.random.default_rng(2).standard_normal(ds.states.shape),
        )
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        np.testing.assert_array_equal(back.states, ds.states)
        np.testing.assert_array_equal(back.controls, ds.controls)
        np.testing.assert_array_equal(back.derivatives, ds.derivatives)
        np.testing.assert_allclose(back.grid.time_axis, ds.grid.time_axis)

    def test_wrong_payload_size(self, tmp_path):
        ds = make_dataset((), 5, 1)
        save_dataset(ds, tmp_path / "d")
        raw = np.fromfile(tmp_path / "d" / "states.f64")
        raw[:-1].tofile(tmp_path / "d" / "states.f64")
        with pytest.raises(DataError):
            load_dataset(tmp_path / "d")

    def test_csv_round_trip(self, tmp_path):
        ds = make_dataset((), 8, 2, seed=4)
        save_csv(ds, tmp_path / "d.csv")
        back = load_dataset(tmp_path / "d.csv")
        np.testing.assert_allclose(back.states, ds.states)

    def test_csv_allow_missing_drops_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,q1\n0.0,1.0\n1.0,\n2.0,3.0\n3.0,4.0\n")
        with pytest.raises(DataError):
            load_dataset(path)
        ds = load_dataset(path, allow_missing=True)
        np.testing.assert_array_equal(ds.grid.time_axis, [0.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.states.ravel(), [1.0, 3.0, 4.0])

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,q1\n")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_spatial_csv(self, tmp_path):
        # rows in scrambled order still assemble the (x, t) tensor grid
        lines = ["t,x,q1"]
        for x in (0.0, 1.0, 2.0):
            for t in (0.0, 0.5):
                lines.append(f"{t},{x},{10 * x + t}")
        lines[1:] = lines[:0:-1]
        path = tmp_path / "field.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_dataset(path)
        assert ds.states.shape == (3, 2, 1)
        np.testing.assert_array_equal(ds.grid.spatial_axes[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(
            ds.states[:, :, 0], [[0.0, 0.5], [10.0, 10.5], [20.0, 20.5]]
        )

    def test_incomplete_spatial_csv_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("t,x,q1\n0.0,0.0,1.0\n0.5,0.0,2.0\n0.0,1.0,3.0\n")
        with pytest.raises(DataError):
            load_dataset(path)


def one_line_data_error(path, **kwargs) -> str:
    with pytest.raises(DataError) as info:
        load_dataset(path, **kwargs)
    message = str(info.value)
    assert "\n" not in message
    return message


def edited_meta(tmp_path, edit):
    """A saved (3 x 6 x 2) dataset directory whose meta.json went through
    ``edit`` (a function of the parsed document returning the new one)."""
    directory = save_dataset(make_dataset((3,), 6, 2, seed=1), tmp_path / "d")
    meta = json.loads((directory / "meta.json").read_text())
    (directory / "meta.json").write_text(json.dumps(edit(meta)))
    return directory


def with_item(key, value):
    return lambda meta: {**meta, key: value}


def with_axis(index, **changes):
    def edit(meta):
        axes = list(meta["axes"])
        axes[index] = {**axes[index], **changes}
        return {**meta, "axes": axes}

    return edit


class TestMalformedMeta:
    def test_valid_meta_loads(self, tmp_path):
        ds = load_dataset(edited_meta(tmp_path, lambda meta: meta))
        assert ds.states.shape == (3, 6, 2)

    def test_missing_n_states(self, tmp_path):
        def drop(meta):
            del meta["n_states"]
            return meta

        assert "n_states" in one_line_data_error(edited_meta(tmp_path, drop))

    def test_meta_is_a_list(self, tmp_path):
        one_line_data_error(edited_meta(tmp_path, lambda meta: [meta]))

    def test_axis_entry_is_a_number(self, tmp_path):
        def edit(meta):
            return {**meta, "axes": [3, *meta["axes"][1:]]}

        one_line_data_error(edited_meta(tmp_path, edit))

    def test_count_is_a_string(self, tmp_path):
        assert "count" in one_line_data_error(
            edited_meta(tmp_path, with_axis(-1, count="five"))
        )

    def test_values_are_a_string(self, tmp_path):
        def edit(meta):
            axes = [{"name": "x", "values": "0,1,2"}, meta["axes"][1]]
            return {**meta, "axes": axes}

        assert "values" in one_line_data_error(edited_meta(tmp_path, edit))

    def test_values_hold_a_string(self, tmp_path):
        def edit(meta):
            axes = [{"name": "x", "values": [0.0, "0.5", 1.0]}, meta["axes"][1]]
            return {**meta, "axes": axes}

        assert "values" in one_line_data_error(edited_meta(tmp_path, edit))

    def test_n_states_is_a_string(self, tmp_path):
        assert "n_states" in one_line_data_error(
            edited_meta(tmp_path, with_item("n_states", "one"))
        )

    def test_n_states_is_fractional(self, tmp_path):
        assert "n_states" in one_line_data_error(
            edited_meta(tmp_path, with_item("n_states", 1.7))
        )

    def test_n_controls_is_negative(self, tmp_path):
        assert "n_controls" in one_line_data_error(
            edited_meta(tmp_path, with_item("n_controls", -1))
        )

    def test_unknown_schema(self, tmp_path):
        assert "schema" in one_line_data_error(
            edited_meta(tmp_path, with_item("schema", 2))
        )

    def test_unknown_dtype(self, tmp_path):
        assert "dtype" in one_line_data_error(
            edited_meta(tmp_path, with_item("dtype", "f32"))
        )

    def test_unknown_order(self, tmp_path):
        assert "order" in one_line_data_error(
            edited_meta(tmp_path, with_item("order", "space-major"))
        )


class TestAxisNames:
    """``meta.json`` names its axes as ``save_dataset`` writes them: x, y, z
    (then x3, ...) in storage order and t last."""

    def test_every_saved_grid_loads(self, tmp_path):
        for n_spatial in range(5):
            ds = make_dataset((3,) * n_spatial, 4, 1, seed=n_spatial)
            directory = save_dataset(ds, tmp_path / f"d{n_spatial}")
            names = [a["name"] for a in json.loads((directory / "meta.json").read_text())["axes"]]
            assert tuple(names) == ds.grid.axis_names
            loaded = load_dataset(directory)
            np.testing.assert_array_equal(loaded.states, ds.states)
            assert loaded.grid.axis_names == ds.grid.axis_names

    def test_swapped_names(self, tmp_path):
        directory = save_dataset(make_dataset((3, 4), 5, 1), tmp_path / "d")
        meta = json.loads((directory / "meta.json").read_text())
        meta["axes"][0]["name"], meta["axes"][1]["name"] = "y", "x"
        (directory / "meta.json").write_text(json.dumps(meta))
        assert "['y', 'x', 't']" in one_line_data_error(directory)

    def test_unknown_name(self, tmp_path):
        assert "banana" in one_line_data_error(
            edited_meta(tmp_path, with_axis(0, name="banana"))
        )

    def test_time_axis_not_last(self, tmp_path):
        def edit(meta):
            return {**meta, "axes": meta["axes"][::-1]}

        assert "['t', 'x']" in one_line_data_error(edited_meta(tmp_path, edit))

    def test_no_axes(self, tmp_path):
        one_line_data_error(edited_meta(tmp_path, with_item("axes", [])))


class TestMalformedCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return path

    def test_short_row(self, tmp_path):
        path = self.write(tmp_path, "t,q1,q2\n0.0,1.0,2.0\n1.0,3.0\n2.0,5.0,6.0\n")
        assert "line 3" in one_line_data_error(path)

    def test_long_row(self, tmp_path):
        # every row long: the extra column used to be dropped silently
        path = self.write(tmp_path, "t,q1\n0.0,1.0,9.0\n1.0,3.0,9.0\n2.0,5.0,9.0\n")
        assert "line 2" in one_line_data_error(path)

    def test_non_numeric_cell(self, tmp_path):
        path = self.write(tmp_path, "t,q1\n0.0,1.0\n1.0,abc\n2.0,5.0\n")
        assert "line 3" in one_line_data_error(path)

    def test_unknown_column(self, tmp_path):
        path = self.write(tmp_path, "t,q1,w\n0.0,1.0,7.0\n1.0,3.0,7.0\n2.0,5.0,7.0\n")
        one_line_data_error(path)

    def test_columns_out_of_order(self, tmp_path):
        path = self.write(tmp_path, "t,q2,q1\n0.0,1.0,2.0\n1.0,3.0,4.0\n2.0,5.0,6.0\n")
        one_line_data_error(path)

    def test_spatial_column_after_states(self, tmp_path):
        path = self.write(
            tmp_path, "t,q1,x\n0.0,1.0,0.0\n0.5,2.0,0.0\n0.0,3.0,1.0\n0.5,4.0,1.0\n"
        )
        one_line_data_error(path)

    def test_empty_cell_still_reads_as_missing(self, tmp_path):
        path = self.write(
            tmp_path, "t,q1,u1\n0.0,1.0,0.5\n1.0,,0.5\n2.0,3.0,0.5\n3.0,4.0,\n"
        )
        ds = load_dataset(path, allow_missing=True)
        np.testing.assert_array_equal(ds.grid.time_axis, [0.0, 2.0])
        np.testing.assert_array_equal(ds.controls.ravel(), [0.5, 0.5])

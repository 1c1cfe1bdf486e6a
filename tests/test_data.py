"""Tests for CSV ingestion, cleaning and class weights."""

import hashlib
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit.data import (
    Dataset,
    IngestError,
    class_weights,
    load_dataset,
    save_dataset,
)
from leakaudit.synth import SynthSpec, synth_dataset
from oracles import same_dataset


def load_logged(path, caplog):
    """The dataset at ``path`` and the (exact duplicates, conflicting-label records) of each cleaning log line."""
    with caplog.at_level(logging.INFO, logger="leakaudit.data"):
        ds = load_dataset(path)
    pattern = re.compile(r"removed (\d+) exact duplicates, (\d+) conflicting-label records")
    return ds, [tuple(map(int, m.groups())) for r in caplog.records if (m := pattern.search(r.getMessage()))]


def make_dataset(n=10, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        [f"s{i}" for i in range(n)],
        rng.normal(size=(n, dim)),
        [i % 2 for i in range(n)],
        {"size": np.arange(n, dtype=float)},
    )


def write_csv(path, rows, header="id,label,meta_size,f_0,f_1"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


class TestDataset:
    def test_basic_properties(self):
        ds = make_dataset(n=7)
        assert len(ds) == 7
        assert ds.dimension == 3
        assert np.bincount(ds.y).tolist() == [4, 3]
        assert ds.ids == tuple(f"s{i}" for i in range(7))
        assert "s3" in ds.ids and "zzz" not in ds.ids
        assert ds.y[ds.rows(["s3"])[0]] == 1

    def test_features_read_only(self):
        ds = make_dataset(n=3)
        for column in (ds.X, ds.y, ds.meta["size"]):
            with pytest.raises(ValueError):
                column[0] = 5

    def test_constructor_copies_its_input(self):
        X = np.ones((2, 1))
        ds = Dataset(["a", "b"], X, [0, 1])
        X[0, 0] = 7.0
        assert ds.X[0, 0] == 1.0

    def test_rejects_bad_label(self):
        with pytest.raises(IngestError):
            Dataset(["a"], [[1.0]], [2])

    def test_rejects_non_finite(self):
        with pytest.raises(IngestError, match="'b'"):
            Dataset(["a", "b"], [[1.0], [np.nan]], [0, 0])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(IngestError, match="duplicate id 'a'"):
            Dataset(["a", "b", "a"], np.ones((3, 1)), [0, 0, 0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(IngestError):
            Dataset(["a", "b"], np.ones((3, 2)), [0, 0])
        with pytest.raises(IngestError):
            Dataset(["a", "b"], np.ones(2), [0, 0])
        with pytest.raises(IngestError):
            Dataset(["a", "b"], np.ones((2, 2)), [0, 0], {"size": [1.0]})

    def test_rejects_empty(self):
        with pytest.raises(IngestError):
            Dataset([], np.zeros((0, 1)), [])

    def test_subset_preserves_order(self):
        ds = make_dataset(n=6)
        sub = ds.subset(["s4", "s1"])
        assert sub.ids == ("s1", "s4")
        assert np.array_equal(sub.X, ds.X[[1, 4]])
        assert sub.meta["size"].tolist() == [1.0, 4.0]

    def test_take_keeps_given_order(self):
        ds = make_dataset(n=6)
        rows = ds.rows(["s4", "s1"])
        assert rows.tolist() == [4, 1]
        sub = ds.take(rows)
        assert sub.ids == ("s4", "s1")
        assert np.array_equal(sub.y, ds.y[[4, 1]])

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            make_dataset(n=3).subset(["s1", "zzz"])

    def test_arrays_align(self):
        ds = make_dataset(n=5)
        X = ds.features_array()
        y = ds.labels_array()
        assert X.shape == (5, 3)
        assert list(y) == [0, 1, 0, 1, 0]

    def test_equality(self):
        assert same_dataset(make_dataset(seed=1), make_dataset(seed=1))
        assert not same_dataset(make_dataset(seed=1), make_dataset(seed=2))


class TestIngest:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(n=8)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        assert same_dataset(load_dataset(path), ds)

    def test_save_is_byte_stable(self, tmp_path):
        ds = make_dataset(n=8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_exact_duplicates_collapse_keeping_first(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        write_csv(path, [
            "a,1,0.0,1.0,2.0",
            "b,1,5.0,1.0,2.0",  # same features, same label: dropped
            "c,0,0.0,3.0,4.0",
        ])
        ds, removed = load_logged(path, caplog)
        assert ds.ids == ("a", "c")
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]] and ds.y.tolist() == [1, 0]
        assert removed == [(1, 0)]

    def test_conflicting_labels_all_removed(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        write_csv(path, [
            "a,1,0.0,1.0,2.0",
            "b,0,0.0,1.0,2.0",  # same features, other label: both dropped
            "c,0,0.0,3.0,4.0",
        ])
        ds, removed = load_logged(path, caplog)
        assert ds.ids == ("c",)
        assert removed == [(0, 2)]

    @pytest.mark.parametrize("label_b,kept,n_dup,n_conflict", [
        (1, ("a", "c"), 1, 0),  # same label: the first row stays
        (0, ("c",), 0, 2),  # conflicting labels: both go
    ])
    def test_negative_zero_is_a_duplicate_of_zero(self, tmp_path, caplog, label_b, kept, n_dup, n_conflict):
        path = tmp_path / "d.csv"
        write_csv(path, ["a,1,0.0,0.0,1.0", f"b,{label_b},0.0,-0.0,1.0", "c,0,0.0,3.0,4.0"])
        ds, removed = load_logged(path, caplog)
        assert ds.ids == kept
        assert removed == [(n_dup, n_conflict)]

    def test_metadata_parsed(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        write_csv(path, ["a,1,7.5,1.0,2.0"])
        ds, removed = load_logged(path, caplog)
        assert list(ds.meta) == ["size"] and ds.meta["size"].tolist() == [7.5]
        assert removed == []  # nothing removed, nothing logged

    def test_synthetic_csv_bytes_pinned(self, tmp_path):
        # the benchmark generates its inputs with these two functions
        path = tmp_path / "d.csv"
        save_dataset(synth_dataset(SynthSpec(n=50, dim=4, positive_fraction=0.3, separation=2.0, seed=7)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "6b1afd0968465f728f10ef95b8ea039bf6a633c57dcfaf2642390fc20557a54c"

    @pytest.mark.parametrize("rows,header", [
        (["a,1,0.0,1.0,2.0"], "wrong,label,meta_size,f_0,f_1"),
        (["a,3,0.0,1.0,2.0"], "id,label,meta_size,f_0,f_1"),
        (["a,x,0.0,1.0,2.0"], "id,label,meta_size,f_0,f_1"),
        (["a,1,0.0,oops,2.0"], "id,label,meta_size,f_0,f_1"),
        (["a,1,0.0,inf,2.0"], "id,label,meta_size,f_0,f_1"),
        (["a,1,inf,1.0,2.0"], "id,label,meta_size,f_0,f_1"),
        (["a,1,nan,1.0,2.0"], "id,label,meta_size,f_0,f_1"),
        (["a,1,0.0,1.0"], "id,label,meta_size,f_0,f_1"),
        (["a,1,0.0,1.0,2.0", "a,1,0.0,9.0,9.0"], "id,label,meta_size,f_0,f_1"),
    ])
    def test_malformed_input_raises(self, tmp_path, rows, header):
        path = tmp_path / "d.csv"
        write_csv(path, rows, header=header)
        with pytest.raises(IngestError):
            load_dataset(path)

    def test_non_finite_metadata_names_its_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a,1,1.0,1.0,2.0", "b,0,nan,3.0,4.0"])
        with pytest.raises(IngestError, match="row 3: non-finite meta value"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_dataset(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError):
            load_dataset(path)


class TestClassWeights:
    def test_known_values(self):
        # 3 negatives, 1 positive: w = (4/6, 4/2)
        w0, w1 = class_weights([0, 0, 0, 1])
        assert (w0, w1) == pytest.approx((2.0 / 3.0, 2.0))

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            class_weights([1, 1, 1])

    @given(st.lists(st.integers(0, 1), min_size=2).filter(lambda l: 0 < sum(l) < len(l)))
    @settings(max_examples=50, deadline=None)
    def test_weighted_masses_balance(self, labels):
        w0, w1 = class_weights(labels)
        n1 = sum(labels)
        n0 = len(labels) - n1
        assert w0 * n0 == pytest.approx(w1 * n1)

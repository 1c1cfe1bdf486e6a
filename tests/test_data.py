"""Tests for CSV ingestion, cleaning and class weights."""

import hashlib
import logging
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakaudit.data import (
    Dataset,
    IngestError,
    _deduplicate,
    class_weights,
    load_dataset,
    save_dataset,
)
from leakaudit.synth import SynthSpec, synth_dataset
from oracles import deduplicate, same_dataset


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

    @pytest.mark.parametrize("text,ids,X,y,size", [
        pytest.param("#a,1,0.0,1.0,2.0\nb,0,1.0,3.0,4.0\n", ("#a", "b"), [[1.0, 2.0], [3.0, 4.0]], [1, 0],
                     [0.0, 1.0], id="id-starting-with-hash"),
        pytest.param('"a,b",1,0.0,1.0,2.0\n"c""d",0,1.0,3.0,4.0\n"e\nf",1,2.0,5.0,6.0\n"g\r\nh",0,3.0,7.0,8.0\n',
                     ("a,b", 'c"d', "e\nf", "g\r\nh"), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
                     [1, 0, 1, 0], [0.0, 1.0, 2.0, 3.0], id="quoted-ids"),
        pytest.param('a"x,1,0.0,1.0,2.0\n"p"q,0,1.0,3.0,4.0\n', ('a"x', "pq"), [[1.0, 2.0], [3.0, 4.0]], [1, 0],
                     [0.0, 1.0], id="stray-quotes"),
        pytest.param("a,1,0.0,1.0,2.0\r\n\r\nb,0,1.0,3.0,4.0\r\n", ("a", "b"), [[1.0, 2.0], [3.0, 4.0]], [1, 0],
                     [0.0, 1.0], id="crlf"),
        pytest.param("a,1,0.0,1.0,2.0\rb,0,1.0,3.0,4.0\r", ("a", "b"), [[1.0, 2.0], [3.0, 4.0]], [1, 0],
                     [0.0, 1.0], id="lone-cr"),
        pytest.param("a, 1,0.0,1.0,2.0\n", ("a",), [[1.0, 2.0]], [1], [0.0], id="label-with-space"),
        pytest.param("a,1,0.0,1_0,2.0\n", ("a",), [[10.0, 2.0]], [1], [0.0], id="underscore-in-feature"),
    ])
    def test_accepted_edge_cases(self, tmp_path, text, ids, X, y, size):
        path = tmp_path / "d.csv"
        line_end = "\r\n" if "\r\n" in text else "\r" if "\r" in text else "\n"
        path.write_bytes(("id,label,meta_size,f_0,f_1" + line_end + text).encode("utf-8"))
        ds = load_dataset(path)
        assert ds.ids == ids
        assert ds.X.tolist() == X and ds.y.tolist() == y
        assert list(ds.meta) == ["size"] and ds.meta["size"].tolist() == size

    @pytest.mark.parametrize("text,message", [
        ("id,label,meta_size,f_0,f_1\na,1,0.0,1.0,2.0\nb,0,1.0,3.0,4.0,5.0\n",
         "{path}: row 3: expected 5 columns, got 6"),
        ("id,label,meta_size,f_0,f_1\na,1,0.0,1.0,2.0\n\n\nb,0,1.0,3.0,4.0\nc,0,1.0,nan,4.0\n",
         "{path}: row 6: non-finite feature value"),
        ("id,label,meta_size,f_0,f_1\na,1.0,0.0,1.0,2.0\n", "{path}: row 2: non-integer label '1.0'"),
        ("id,label,meta_size,f_0,f_1\na,1,0.0,\x1c1.0,2.0\n", "{path}: row 2: non-numeric value"),
        ("﻿id,label,meta_size,f_0,f_1\na,1,0.0,1.0,2.0\n",
         "header must start with 'id','label', got ['\\ufeffid', 'label']"),
        ("id,label,meta_size,f_0,f_1\n", "{path}: no samples remain after cleaning"),
        ("id,label,meta_size,f_0,f_1\n\n\n", "{path}: no samples remain after cleaning"),
        # the control character of row 5 sends the file to the scan, where csv refuses row 4's 140,000-character id
        ("id,label,meta_size,f_0,f_1\na,1,0.0,1.0,2.0\n\n" + "x" * 140_000 + ",0,1.0,3.0,4.0\nb,0,0.0,\x1c5.0,6.0\n",
         "{path}: row 4: field larger than field limit (131072)"),
        ("id,label,meta_size,f_0," + "f" * 200_000 + "\na,1,0.0,1.0,2.0\n",
         "{path}: row 1: field larger than field limit (131072)"),
    ], ids=["extra-column", "blank-lines-then-nan", "float-label", "control-char-in-feature", "bom",
            "header-only", "header-and-blank-lines", "field-over-csv-limit", "column-name-over-csv-limit"])
    def test_refused_edge_cases(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(IngestError) as exc:
            load_dataset(path)
        assert str(exc.value) == message.format(path=path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            load_dataset(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError):
            load_dataset(path)


# cells of a CSV row: mostly well-formed, with the odd quoting, spacing and literals the two parsers must agree on
_ID_TEXT = st.text(alphabet='ab#", \r\n\x00\x1c', max_size=2)
_VALUE = st.sampled_from(["0.0", "1.0", "-0.0", "2.5", "0", "1"])
_ODD = st.sampled_from(["", " ", " 1", "1 ", "1.0", "2", "+1", "1_0", "1e400", "inf", "-nan", "x", "0x1", '"3"',
                        '"1,5"', '"2"x', "\x1c1", "1\x1f", "\xa01", "1\x85", "\u0661", "1\r", '"1\n"'])


def load_outcome(path):
    """What load_dataset makes of ``path``: the dataset's columns, or the error it raises."""
    try:
        ds = load_dataset(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ds.ids, ds.X.tobytes(), ds.X.shape, ds.y.tolist(), {key: col.tobytes() for key, col in ds.meta.items()}


class TestParsers:
    """The C parse must accept and refuse what the Python scan does, with the same values."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_c_parse_matches_the_scan(self, data):
        eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        rows = []
        for i in range(data.draw(st.integers(0, 4))):
            text = data.draw(_ID_TEXT) + str(i)  # the row index keeps the ids apart
            sample_id = '"' + text.replace('"', '""') + '"' if data.draw(st.booleans()) else text
            rows.append([sample_id, data.draw(st.sampled_from(["0", "1"])),
                         *data.draw(st.lists(_VALUE, min_size=3, max_size=3))])
        # now and then an odd cell, a cell too many or too few, a blank line or a repeated row
        for _ in range(data.draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
            row = data.draw(st.sampled_from([row for row in rows if row]))
            action = data.draw(st.sampled_from(["replace", "append", "pop", "blank", "repeat"]))
            if action == "replace":
                row[data.draw(st.integers(1, len(row) - 1))] = data.draw(_ODD)
            elif action == "append":
                row.append(data.draw(_VALUE))
            elif action == "pop":
                row.pop()
            elif action == "blank":
                rows.insert(rows.index(row), [])
            else:
                rows.append(list(row))
        text = eol.join(["id,label,meta_size,f_0,f_1", *(",".join(row) for row in rows)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes((text + data.draw(st.sampled_from(["", eol]))).encode("utf-8"))
            parsed = load_outcome(path)
            with mock.patch("leakaudit.data._parse_rows", return_value=None):
                assert load_outcome(path) == parsed


class TestDeduplicate:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_grouping_the_rows_by_value(self, data):
        """Planted duplicates, some with a conflicting label or a zero of the other sign, or none at all."""
        dim = data.draw(st.integers(1, 3))
        value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e308]) | st.floats(allow_nan=False)
        rows = data.draw(st.lists(st.tuples(*[value] * dim), min_size=1, max_size=10))
        for _ in range(data.draw(st.integers(0, 4))):
            row = data.draw(st.sampled_from(rows))
            if data.draw(st.booleans()):
                row = tuple(-v if v == 0.0 else v for v in row)
            rows.insert(data.draw(st.integers(0, len(rows))), row)
        X = np.array(rows, dtype=float)
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        block = data.draw(st.sampled_from([1, 8, 24, 1 << 18]))  # a row or more a block, or one block
        with mock.patch("leakaudit.data._HASH_BLOCK_BYTES", block):
            keep, n_dup, n_conflict = _deduplicate(X, labels)
        assert keep.dtype == np.intp
        assert (keep.tolist(), n_dup, n_conflict) == deduplicate(X, labels)


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

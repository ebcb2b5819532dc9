import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svcreject import dataset
from svcreject.dataset import (
    DatasetError,
    FeatureSpace,
    LabeledDataset,
    ScalingParams,
    apply_scaling,
    fit_scaling,
    load_csv,
    stratified_split_indices,
)


def write_csv(path, text):
    path.write_text(text, newline="")
    return path


def outcome(path, *args, **kwargs):
    """What load_csv makes of a file, bit for bit: the shape and bytes of the
    matrix and labels and the names, or the DatasetError message."""
    try:
        raw, labels, names = load_csv(path, *args, **kwargs)
    except DatasetError as exc:
        return str(exc)
    return raw.shape, raw.tobytes(), None if labels is None else labels.tobytes(), names


def row_loop_outcome(path, *args, **kwargs):
    """``outcome`` with the C-reader path switched off, so only the row loop
    reads the file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_read_fast", lambda *a: None)
        return outcome(path, *args, **kwargs)


def float_repr(bits: int) -> str:
    return repr(struct.unpack("<d", struct.pack("<Q", bits))[0])


# Cells for the differential test: every float64 bit pattern's repr, decimals
# longer than any float has digits, and tokens float and loadtxt may read
# differently (underscores, non-ASCII digits and spaces, NUL, hex, Fortran
# exponents) or that csv.reader tokenizes specially (quotes).
NUMBER_CELLS = st.one_of(
    st.integers(0, 2**64 - 1).map(float_repr),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
              st.integers(1, 9), st.integers(10**23, 10**24 - 1), st.integers(-340, 300)),
    st.builds("{}e{}".format, st.integers(10**29, 10**30 - 1), st.integers(-340, 300)),
)
ODD_CELLS = st.sampled_from([
    "", " ", "\t", " 1 ", "\xa02", "\u20003", "\x1c4", "1_0", "1__0", "_1", "\u0661",
    "1\x00", "0x10", "1d5", "1e400", "-1e400", "nan", "-nan", "inf", "-Infinity",
    "+.5", "5.", "-0", "abc", '"3"', '"1,5"', '"a""b"', 'x"y', '"7"8', ' "2"', '"4\n5"',
])
LABEL_CELLS = st.sampled_from(["pos", " pos ", '"pos"', "neg", "neg ", '"n,g"', '"p""s"'])
CELLS = st.one_of(NUMBER_CELLS, ODD_CELLS)
LINES = st.one_of(
    st.tuples(NUMBER_CELLS, NUMBER_CELLS, LABEL_CELLS).map(",".join),
    st.tuples(CELLS, CELLS, st.one_of(LABEL_CELLS, CELLS)).map(",".join),
    st.lists(st.one_of(CELLS, LABEL_CELLS), max_size=4).map(",".join),
)
# (label column, positive label, features) as train, calibrate and explain
# read, plus the label column named as a feature
READS = st.sampled_from([
    ("y", "pos", None), ("y", " pos ", ["b", "a"]), (None, None, ["a", "b"]),
    (None, None, ["b"]), ("b", "3", None), ("y", "pos", ["a", "y"]),
])


class TestLoadCsv:
    def test_binarizes_positive_label_against_the_rest(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b,species\n1,2,setosa\n3,4,versicolor\n5,6,setosa\n")
        raw, labels, names = load_csv(p, "species", "setosa")
        assert names == ["a", "b"]
        assert labels.tolist() == [1.0, -1.0, 1.0]
        assert raw.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,x\n1,abc,y\n3,4,x\n")
        with pytest.raises(DatasetError, match=r"row 2.*'b'"):
            load_csv(p, "y", "x")
        # named features, as calibrate reads them
        with pytest.raises(DatasetError, match=r"row 2, column 'b': cannot parse 'abc'"):
            load_csv(p, "y", "x", features=["a", "b"])
        # short and long rows in a feature-only read, as explain reads them
        p = write_csv(tmp_path / "f.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DatasetError, match=r"row 2 has 1 cells, expected 2"):
            load_csv(p, features=["a", "b"])
        p = write_csv(tmp_path / "g.csv", "a,b\n1,2,3\n")
        with pytest.raises(DatasetError, match=r"row 1 has 3 cells, expected 2"):
            load_csv(p, features=["a", "b"])

    def test_single_class_file_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,y\n1,setosa\n2,setosa\n")
        with pytest.raises(DatasetError, match="one class"):
            load_csv(p, "y", "setosa")

    def test_label_column_alone_rejected(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "y\npos\nneg\n")
        with pytest.raises(DatasetError, match=r"t\.csv: no feature columns to read$"):
            load_csv(p, "y", "pos")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "y", "x")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="label column"):
            load_csv(p, "y", "x")

    def test_iris_fixture_loads(self, iris_csv):
        raw, labels, names = load_csv(iris_csv, "species", "setosa")
        assert raw.shape == (150, 4)
        assert int((labels == 1).sum()) == 50
        assert names[0] == "sepal_length"

    @pytest.mark.parametrize("text", [
        # quoted cells, CRLF and lone CR line ends
        'a,b,y\r\n"1",2,"pos"\r\n3,"4.5",neg\r\n',
        'a,b,y\r1,2,pos\r3,4.5,neg\r',
        # blank lines, whitespace-only lines and rows of blank cells are skipped
        "a,b,y\n\n1,2,pos\n \n , , \n,,\n\t\n3,4.5,neg\n\n",
        # header cells keep no surrounding whitespace
        " a ,b\t, y \n1,2,pos\n3,4.5,neg\n",
        # labels are compared after strip, cells parse as float reads them
        "a,b,y\n 1 ,\t2,  pos \n3,4.5,neg\n",
    ])
    def test_accepted_spellings_read_alike(self, tmp_path, text):
        raw, labels, names = load_csv(write_csv(tmp_path / "t.csv", text), "y", "pos")
        assert names == ["a", "b"]
        assert raw.tolist() == [[1.0, 2.0], [3.0, 4.5]]
        assert labels.tolist() == [1.0, -1.0]

    def test_float_spellings_loadtxt_reads_otherwise(self, tmp_path):
        # float accepts digit-group underscores and non-ASCII digits
        p = write_csv(tmp_path / "t.csv", "a,y\n1_0,pos\n\u0661,neg\n")
        raw, labels, _ = load_csv(p, "y", "pos")
        assert raw.tolist() == [[10.0], [1.0]]
        assert labels.tolist() == [1.0, -1.0]
        # float rejects the information separators U+001C..U+001F around a
        # number, which loadtxt strips as whitespace
        for sep in "\x1c\x1d\x1e\x1f":
            p = write_csv(tmp_path / "u.csv", f"a,y\n1,pos\n2{sep},neg\n")
            with pytest.raises(DatasetError, match=r"row 2, column 'a': cannot parse '2'"):
                load_csv(p, "y", "pos")

    def test_quoted_label_with_delimiter_and_doubled_quote(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", 'a,y\n1,"p,""q"""\n2,"p,q"\n')
        _, labels, _ = load_csv(p, "y", 'p,"q"')
        assert labels.tolist() == [1.0, -1.0]

    def test_header_only_file(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", "a,b,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw, labels, names = load_csv(p, features=["a", "b"])
        assert raw.shape == (0, 2) and labels is None and names == ["a", "b"]
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(p, "y", "pos")

    def test_label_column_named_as_feature(self, tmp_path):
        # the label cells must then parse as numbers, and still binarize
        p = write_csv(tmp_path / "t.csv", "a,y\n1,2\n3, 4\n")
        raw, labels, names = load_csv(p, "y", "4", features=["a", "y"])
        assert names == ["a", "y"]
        assert raw.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert labels.tolist() == [-1.0, 1.0]
        p = write_csv(tmp_path / "u.csv", "a,y\n1,2\n3,pos\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'y': cannot parse 'pos'"):
            load_csv(p, "y", "pos", features=["a", "y"])

    def test_repeated_feature_column_rejected(self, tmp_path):
        # as calibrate and explain read a CSV: by feature name
        p = write_csv(tmp_path / "t.csv", "f1,f2,f1,y\n1,2,3,a\n4,5,6,b\n")
        with pytest.raises(DatasetError, match=r"t\.csv: column 'f1' appears more than once"):
            load_csv(p, features=["f1", "f2"])
        with pytest.raises(DatasetError, match=r"column 'f1' appears more than once"):
            load_csv(p, "y", "a", features=["f1", "f2"])
        # a repeated column that is not read is no error
        raw, _, names = load_csv(p, features=["f2"])
        assert names == ["f2"] and raw.tolist() == [[2.0], [5.0]]

    def test_repeated_label_column_rejected(self, tmp_path):
        # as train reads a CSV: every column but the label is a feature
        p = write_csv(tmp_path / "t.csv", "f1,y,f2,y\n1,a,2,b\n3,b,4,a\n")
        with pytest.raises(DatasetError, match=r"t\.csv: column 'y' appears more than once"):
            load_csv(p, "y", "a")

    def test_undecodable_byte_raises_the_decoders_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,y\n1,pos\n2,\xff\n3,neg\n")
        with pytest.raises(UnicodeDecodeError, match="position 12"):
            load_csv(p, "y", "pos")

    @pytest.mark.parametrize("text", [
        "a,b,y\r\n1,2,pos\r\n3,4.5,neg\r\n",
        'a,b,y\n"1",2,"pos"\n3,"4.5","n,g"\n',
        "a,b,y\n\n1,2,pos\n\n3,4.5,neg\n\n",
    ])
    def test_well_formed_files_skip_the_row_loop(self, tmp_path, iris_csv, monkeypatch, text):
        # the row loop is the fallback; a file it has to read loses the
        # C reader's speed without changing any result
        def row_loop(*args):
            raise AssertionError("row loop called")

        monkeypatch.setattr(dataset, "_read_rows", row_loop)
        raw, labels, _ = load_csv(write_csv(tmp_path / "t.csv", text), "y", "pos")
        assert raw.tolist() == [[1.0, 2.0], [3.0, 4.5]]
        assert labels.tolist() == [1.0, -1.0]
        raw, _, _ = load_csv(iris_csv, features=["petal_width", "sepal_length"])
        assert raw.shape == (150, 2)
        assert load_csv(iris_csv, "species", "setosa")[0].shape == (150, 4)

    @given(st.lists(LINES, max_size=6), st.sampled_from(["\n", "\r\n", "\r"]),
           st.booleans(), READS)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_row_loop(self, tmp_path_factory, lines, newline, last, read):
        text = newline.join(["a,b,y", *lines]) + (newline if last else "")
        p = write_csv(tmp_path_factory.getbasetemp() / "differential.csv", text)
        label_column, positive, features = read
        assert outcome(p, label_column, positive, features=features) == \
            row_loop_outcome(p, label_column, positive, features=features)


class TestScaling:
    def test_fit_captures_column_min_max(self):
        params = fit_scaling(np.array([[2.0], [4.0], [6.0]]))
        assert params.mins.tolist() == [2.0] and params.maxs.tolist() == [6.0]

    def test_fit_identity_range(self):
        params = fit_scaling(np.array([[0.0], [1.0]]))
        assert (params.mins[0], params.maxs[0]) == (0.0, 1.0)

    def test_constant_column_rejected(self):
        with pytest.raises(DatasetError, match="constant"):
            fit_scaling(np.array([[5.0], [5.0], [5.0]]))

    def test_apply_maps_to_unit_interval(self):
        params = ScalingParams(np.array([2.0]), np.array([6.0]))
        scaled = apply_scaling(np.array([[2.0], [4.0], [6.0]]), params)
        assert scaled.ravel().tolist() == [0.0, 0.5, 1.0]

    def test_out_of_range_value_flagged_not_clamped(self):
        params = ScalingParams(np.array([2.0]), np.array([6.0]))
        scaled = apply_scaling(np.array([[8.0]]), params)
        assert scaled[0, 0] == 1.5
        assert not FeatureSpace.unit(["a"]).rows_inside(scaled)[0]

    def test_empty_table_gives_empty_dataset(self):
        params = ScalingParams(np.array([2.0]), np.array([6.0]))
        scaled = apply_scaling(np.empty((0, 1)), params)
        assert scaled.shape == (0, 1)

    def test_shape_mismatch_rejected(self):
        params = ScalingParams(np.array([2.0]), np.array([6.0]))
        with pytest.raises(DatasetError, match="columns"):
            apply_scaling(np.ones((2, 3)), params)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_within_relative_tolerance(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1e6, 1e6, (rows, cols))
        raw[0] += 1.0  # make constant columns vanishingly unlikely, then check
        if np.any(raw.max(axis=0) <= raw.min(axis=0)):
            return
        params = fit_scaling(raw)
        back = apply_scaling(raw, params) * (params.maxs - params.mins) + params.mins
        assert np.allclose(back, raw, rtol=1e-9, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_self_fitted_scaling_lands_in_unit_box(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(0.0, 50.0, (rng.integers(2, 30), rng.integers(1, 5)))
        if np.any(raw.max(axis=0) <= raw.min(axis=0)):
            return
        scaled = apply_scaling(raw, fit_scaling(raw))
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0


class TestStratifiedSplit:
    @staticmethod
    def labels(n_pos, n_neg):
        return np.array([1.0] * n_pos + [-1.0] * n_neg)

    def test_preserves_class_proportions(self):
        y = self.labels(100, 50)
        train, test = stratified_split_indices(y, 0.7, seed=0)
        assert int((y[train] == 1).sum()) == 70
        assert int((y[train] == -1).sum()) == 35
        assert len(train) + len(test) == 150

    def test_same_seed_reproduces_split(self):
        y = self.labels(20, 10)
        a = stratified_split_indices(y, 0.7, seed=42)
        b = stratified_split_indices(y, 0.7, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_move_members_not_counts(self):
        y = self.labels(10, 10)
        idx1 = stratified_split_indices(y, 0.7, seed=1)
        idx2 = stratified_split_indices(y, 0.7, seed=2)
        for train_idx, _ in (idx1, idx2):
            assert int((y[train_idx] == 1).sum()) == 7
            assert int((y[train_idx] == -1).sum()) == 7
        assert idx1[0].tolist() != idx2[0].tolist()

    def test_tiny_class_rejected(self):
        with pytest.raises(DatasetError, match="fewer than 2"):
            stratified_split_indices(self.labels(1, 5), 0.7, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(DatasetError, match="fraction"):
            stratified_split_indices(self.labels(5, 5), 1.0, seed=0)

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=60),
           st.integers(min_value=2, max_value=60),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=150, deadline=None)
    def test_split_partitions_and_keeps_proportions(self, seed, n_pos, n_neg, fraction):
        y = np.array([1.0] * n_pos + [-1.0] * n_neg)
        train_idx, test_idx = stratified_split_indices(y, fraction, seed)
        merged = np.sort(np.concatenate([train_idx, test_idx]))
        assert merged.tolist() == list(range(n_pos + n_neg))
        for cls, count in ((1.0, n_pos), (-1.0, n_neg)):
            got = int((y[train_idx] == cls).sum())
            assert abs(got - round(fraction * count)) <= 1
            assert 1 <= got <= count - 1


class TestDomainTypes:
    def test_feature_space_rejects_inverted_bounds(self):
        with pytest.raises(DatasetError, match="degenerate"):
            FeatureSpace(("a",), np.array([1.0]), np.array([0.0]))

    def test_feature_space_rejects_duplicate_names(self):
        with pytest.raises(DatasetError, match="unique"):
            FeatureSpace(("a", "a"), np.zeros(2), np.ones(2))

    def test_labeled_dataset_rejects_bad_labels(self):
        with pytest.raises(DatasetError, match="-1 or \\+1"):
            LabeledDataset(np.ones((2, 1)), np.array([1.0, 2.0]))

    def test_labeled_dataset_rejects_length_mismatch(self):
        with pytest.raises(DatasetError, match="lengths"):
            LabeledDataset(np.ones((2, 1)), np.array([1.0]))

    def test_labeled_dataset_rejects_non_2d_instances(self):
        with pytest.raises(DatasetError, match=r"2-d.*\(6,\)"):
            LabeledDataset(np.arange(6.0), np.array([1.0, -1.0, 1.0]))

    def test_rows_inside_enforces_domain(self):
        space = FeatureSpace.unit(["a", "b"])
        rows = np.array([[0.0, 1.0], [0.5, 1.01], [-0.01, 0.5], [np.nan, 0.5]])
        assert space.rows_inside(rows).tolist() == [True, False, False, False]

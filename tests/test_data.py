"""Dataset loading, validation, subsets, and train/test splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from cstree.data import Dataset, load_csv, split_train_test


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_sample_shape(self, sample):
        assert sample.num_instances == 24
        assert sample.num_attributes == 8
        assert sample.num_classes == 2
        assert sample.attribute_names == tuple(f"a{i}" for i in range(1, 9))

    def test_sample_class_histogram(self, sample):
        assert support.histogram(sample).tolist() == [15, 9]

    def test_first_appearance_class_order(self, sample):
        assert sample.class_names == ("0", "1")

    def test_spot_values(self, sample):
        assert sample.features[0, 1] == 100.0
        assert sample.features[1, 6] == 0.153
        assert sample.features[12, 4] == 220.0
        assert sample.features[23, 0] == 3.0

    def test_label_column_by_name_matches_default(self, sample_path, sample):
        named = load_csv(sample_path, label_column="class")
        assert named.class_names == sample.class_names
        assert np.array_equal(named.features, sample.features)
        assert np.array_equal(named.labels, sample.labels)

    def test_label_column_in_the_middle(self, tmp_path):
        path = write(tmp_path, "x,grade,y\n1,good,2\n3,bad,4\n")
        ds = load_csv(path, label_column="grade")
        assert ds.attribute_names == ("x", "y")
        assert ds.class_names == ("good", "bad")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_string_class_names_first_appearance(self, tmp_path):
        path = write(tmp_path, "x,cls\n1,yes\n2,no\n3,yes\n")
        ds = load_csv(path)
        assert ds.class_names == ("yes", "no")
        assert ds.labels.tolist() == [0, 1, 0]

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "x,y\n1,0\n2,1\n")
        with pytest.raises(ValueError, match="nope"):
            load_csv(path, label_column="nope")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "x,y,cls\n1,2,0\n3,4,1\n5,abc,0\n")
        with pytest.raises(ValueError, match=r"row 3.*'y'.*'abc'"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write(tmp_path, "x,cls\ninf,0\n2,1\n")
        with pytest.raises(ValueError, match="not finite"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "x,y,cls\n1,2,0\n3,1\n")
        with pytest.raises(ValueError, match="row 2 has 2 cells"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, "x,cls\n"))

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "x,cls\n1,0\n2,0\n")
        with pytest.raises(ValueError, match="single class"):
            load_csv(path)

    def test_blank_label_rejected(self, tmp_path):
        path = write(tmp_path, "x,cls\n1,0\n2,\n")
        with pytest.raises(ValueError, match="row 2.*blank label"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), ("x",), ("a", "b"))

    def test_single_class_name(self):
        with pytest.raises(ValueError, match="two classes"):
            Dataset(np.zeros((2, 1)), np.array([0, 0]), ("x",), ("a",))

    def test_non_finite_feature(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.nan]]), np.array([0]), ("x",), ("a", "b"))

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="attribute_names"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]), ("x",), ("a", "b"))

    def test_arrays_are_readonly(self, sample):
        with pytest.raises(ValueError):
            sample.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            sample.labels[0] = 1

    def test_from_arrays_invents_names(self):
        ds = Dataset.from_arrays([[1.0, 2.0]], [0], class_names=("a", "b"))
        assert ds.attribute_names == ("a1", "a2")


class TestInstanceSubset:
    """A subset of a dataset's instances is a Dataset made by take."""

    def test_partition_is_le_left(self, sample):
        left, right = support.partition(sample, 1, 125.5)
        assert len(left) == 15 and len(right) == 9
        assert (left.features[:, 1] <= 125.5).all()
        assert (right.features[:, 1] > 125.5).all()
        # each side keeps the rows in their order in the sample
        goes_left = sample.features[:, 1] <= 125.5
        assert left.features.tolist() == sample.features[goes_left].tolist()
        assert right.labels.tolist() == sample.labels[~goes_left].tolist()

    def test_partition_histograms(self, sample):
        left, right = support.partition(sample, 1, 125.5)
        assert support.histogram(left).tolist() == [13, 2]
        assert support.histogram(right).tolist() == [2, 7]
        goes_left = sample.features[:, 1] <= 125.5
        assert left.labels.tolist() == sample.labels[goes_left].tolist()

    def test_nested_partition_is_one_class(self, sample):
        left, _ = support.partition(sample, 1, 125.5)
        inner, _ = support.partition(left, 4, 56.0)
        assert support.histogram(inner).tolist() == [9, 0]
        # the absent class keeps its name and its index
        assert inner.class_names == ("0", "1")
        assert inner.attribute_names == sample.attribute_names

    def test_values_follow_subset_order(self, sample):
        subset = sample.take(np.array([5, 2, 9]))
        assert subset.features.tolist() == sample.features[[5, 2, 9]].tolist()
        assert subset.labels.tolist() == sample.labels[[5, 2, 9]].tolist()

    def test_duplicate_indices_repeat_rows(self, sample):
        twice = sample.take([7, 0, 7])
        assert twice.features.tolist() == sample.features[[7, 0, 7]].tolist()
        assert twice.labels.tolist() == sample.labels[[7, 0, 7]].tolist()

    def test_out_of_range_indices_rejected(self, sample):
        # numpy would raise IndexError for these, and for positions that
        # are not integers at all
        for rows in ([24], [0, 24], [10**12], [1.0], np.ones(24, dtype=bool), [[0, 1]]):
            with pytest.raises(ValueError, match=r"integers in \[0, 23\]"):
                sample.take(rows)

    def test_negative_indices_rejected(self, sample):
        # numpy would read -1 as the last row
        for rows in ([-1], [3, -24], np.array([-1], dtype=np.int8)):
            with pytest.raises(ValueError, match=r"integers in \[0, 23\]"):
                sample.take(rows)

    def test_empty_selection_rejected(self, sample):
        for rows in ([], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="at least one instance"):
                sample.take(rows)


def numbered(dataset: Dataset) -> Dataset:
    """``dataset`` with the row number as a new first column."""
    n = len(dataset)
    return Dataset.from_arrays(
        np.column_stack([np.arange(n), dataset.features]), dataset.labels,
        class_names=dataset.class_names,
    )


def row_numbers(subset: Dataset) -> list[int]:
    return subset.features[:, 0].astype(int).tolist()


class TestSplitTrainTest:
    def test_sample_sizes(self, sample):
        train, test = split_train_test(sample, 0.6, np.random.default_rng(0))
        assert len(train) == 14 and len(test) == 10

    def test_round_half_up(self, sample):
        ds = Dataset.from_arrays(np.zeros((25, 1)), [0, 1] * 12 + [0],
                                 class_names=("a", "b"))
        train, test = split_train_test(ds, 0.5, np.random.default_rng(1))
        assert len(train) == 13 and len(test) == 12

    def test_disjoint_and_exhaustive(self, sample):
        train, test = split_train_test(numbered(sample), 0.6, np.random.default_rng(3))
        combined = set(row_numbers(train)) | set(row_numbers(test))
        assert combined == set(range(24))
        assert not set(row_numbers(train)) & set(row_numbers(test))
        # each side keeps the rows in their original order
        assert row_numbers(train) == sorted(row_numbers(train))
        assert row_numbers(test) == sorted(row_numbers(test))

    def test_same_seed_reproduces(self, sample):
        a = split_train_test(numbered(sample), 0.6, np.random.default_rng(42))
        b = split_train_test(numbered(sample), 0.6, np.random.default_rng(42))
        assert row_numbers(a[0]) == row_numbers(b[0])
        assert row_numbers(a[1]) == row_numbers(b[1])

    def test_different_seeds_differ(self, sample):
        draws = {
            tuple(row_numbers(split_train_test(numbered(sample), 0.6, np.random.default_rng(s))[0]))
            for s in range(8)
        }
        assert len(draws) > 1
        assert all(len(d) == 14 for d in draws)

    def test_values_survive_split_bit_exactly(self, sample):
        train, test = split_train_test(numbered(sample), 0.6, np.random.default_rng(9))
        for subset in (train, test):
            rows = row_numbers(subset)
            assert np.array_equal(subset.features[:, 1:], sample.features[rows])
            assert np.array_equal(subset.labels, sample.labels[rows])
            assert subset.class_names == sample.class_names

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.4])
    def test_fraction_bounds(self, sample, fraction):
        with pytest.raises(ValueError, match="between 0 and 1"):
            split_train_test(sample, fraction, np.random.default_rng(0))

    def test_degenerate_split_rejected(self):
        ds = Dataset.from_arrays(np.zeros((3, 1)), [0, 1, 0], class_names=("a", "b"))
        with pytest.raises(ValueError, match="empty"):
            split_train_test(ds, 0.01, np.random.default_rng(0))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 80), fraction=st.floats(0.2, 0.8), seed=st.integers(0, 999))
    def test_partition_property(self, n, fraction, seed):
        ds = Dataset.from_arrays(
            np.arange(n, dtype=float).reshape(n, 1),
            [i % 2 for i in range(n)],
            class_names=("a", "b"),
        )
        train, test = split_train_test(ds, fraction, np.random.default_rng(seed))
        assert len(train) + len(test) == n
        assert len(train) == int(np.floor(fraction * n + 0.5))
        merged = np.sort(row_numbers(train) + row_numbers(test))
        assert np.array_equal(merged, np.arange(n))


# Inputs at the edges of the CSV dialect, each with what load_csv made of
# it when these were recorded: either the dataset (features as the int64
# view of their bits, labels, attribute names, class names) or the exact
# ValueError text, with "{path}" for the file's path. A faster parse must
# reproduce every one of them.
LOADER_INPUTS = {
    # name: (file contents, label column)
    "quoted cells": ('x,"y",cls\n"1","2",a\n3," 4",b\n', None),
    "quoted comma in a label": ('x,cls\n1,"a,b"\n2,c\n', None),
    "quoted newline in a label": ('x,cls\n1,"a\nb"\n2,c\n', None),
    "quoted blank line": ('x,cls\n1,"\n\n"\n2,c\n', None),
    "CRLF": ("x,cls\r\n1,a\r\n2,b\r\n", None),
    "lone CR line ends": ("x,cls\r1,a\r2,b\r", None),
    "lone CR in a cell": ("x,cls\n1\r,a\n2,b\n", None),
    "UTF-8 BOM": ("\ufeffx,cls\n1,a\n2,b\n", None),
    "UTF-8 BOM on the named label": ("\ufeffx,y,cls\n1,2,a\n3,4,b\n", "x"),
    "blank line in the middle": ("x,cls\n1,a\n\n2,b\n", None),
    "trailing blank line": ("x,cls\n1,a\n2,b\n\n", None),
    "no final newline": ("x,cls\n1,a\n2,b", None),
    "header only": ("x,cls\n", None),
    "header only, no newline": ("x,cls", None),
    "empty file": ("", None),
    "one newline": ("\n", None),
    "one column": ("x\n1\n2\n", None),
    "no such label column": ("x,cls\n1,a\n2,b\n", "nope"),
    "NUL in a label": ("x,cls\n1,a\x00\n2,b\n", None),
    "NUL in a cell": ("x,cls\n1\x00,a\n2,b\n", None),
    "200,000-character field": ("x,cls\n1" + " " * 199_999 + ",a\n2,b\n", None),
    "200,000-character line of short fields": ("x,cls\n" + "1," * 100_000 + "a\n2,b\n", None),
    "cell 1_0": ("x,cls\n1_0,a\n2,b\n", None),
    "Arabic-Indic digits": ("x,cls\n\u0661\u0662,a\n2,b\n", None),
    "cell -0": ("x,cls\n-0,a\n2,b\n", None),
    "cell ' 1e3 '": ("x,cls\n 1e3 ,a\n2,b\n", None),
    "cell nan": ("x,cls\nnan,a\n2,b\n", None),
    "cell inf": ("x,cls\n2,a\ninf,b\n", None),
    "cell 0x10": ("x,cls\n0x10,a\n2,b\n", None),
    "empty cell": ("x,cls\n,a\n2,b\n", None),
    "float spellings": ("x,y,z,cls\n+1,.5,5.,a\n1E3,-.0,1e-400,b\n", None),
    "extreme floats": ("x,y,cls\n1e308,5e-324,a\n-1.7976931348623157e308,4.9e-324,b\n", None),
    "overflowing float": ("x,cls\n1,a\n1e309,b\n", None),
    "whitespace that splitlines breaks on": ("x,cls\n1\x0c,a\n2 ,b\x0b\n3\x85,\x1ca\n", None),
    "padded header and labels": (" x , cls \n1, a \n2,b c\n", None),
    "label in the middle": ("x,cls,y\n1,a,2\n3,b,4\n", "cls"),
    "duplicate header names": ("x,x,cls\n1,2,a\n3,4,b\n", "x"),
    "short row": ("x,y,cls\n1,2,a\n3,b\n", None),
    "long row": ("x,y,cls\n1,2,a\n3,4,5,b\n", None),
    "blank label": ("x,y,cls\n1,2,a\n3,4, \n", None),
    "single class": ("x,cls\n1,a\n2,a\n", None),
    "first fault in row order": ("x,y,cls\n1,2,a\n3,4,\nq,6,b\n7,8\n", None),
    "number fault before the blank label of its row": ("x,y,cls\n1,2,a\n3,q,\n", None),
    "not-finite fault before a later number fault": ("x,y,cls\n1,2,a\ninf,q,b\n", None),
    "invalid UTF-8": (b"x,cls\n1,a\n\xff,b\n", None),
    "invalid UTF-8 past the first read": (b"x,cls\n" + b"1,a\n" * 3000 + b"2\xff,b\n", None),
    "invalid UTF-8 after a blank line": (b"x,cls\n1,a\n\n\xff,b\n", None),
}

ONE, TWO = 4607182418800017408, 4611686018427387904  # the bits of 1.0 and 2.0
ONE_TWO = ([[ONE], [TWO]], [0, 1], ("x",), ("a", "b"))
LOADER_RECORDED = {
    "quoted cells": (
        [[ONE, TWO], [4613937818241073152, 4616189618054758400]], [0, 1], ("x", "y"), ("a", "b")
    ),
    "quoted comma in a label": ([[ONE], [TWO]], [0, 1], ("x",), ("a,b", "c")),
    "quoted newline in a label": ([[ONE], [TWO]], [0, 1], ("x",), ("a\nb", "c")),
    "quoted blank line": "{path}: row 1: blank label cell",
    "CRLF": ONE_TWO,
    "lone CR line ends": ONE_TWO,
    "lone CR in a cell": "{path}: row 1 has 1 cells, expected 2",
    "UTF-8 BOM": ([[ONE], [TWO]], [0, 1], ("\ufeffx",), ("a", "b")),
    "UTF-8 BOM on the named label": "{path}: no column named 'x'",
    "blank line in the middle": "{path}: row 2 has 0 cells, expected 2",
    "trailing blank line": "{path}: row 3 has 0 cells, expected 2",
    "no final newline": ONE_TWO,
    "header only": "{path}: no data rows after the header",
    "header only, no newline": "{path}: no data rows after the header",
    "empty file": "{path}: file is empty",
    "one newline": "{path}: no data rows after the header",
    "one column": "{path}: need at least one feature column and a label column",
    "no such label column": "{path}: no column named 'nope'",
    "NUL in a label": ([[ONE], [TWO]], [0, 1], ("x",), ("a\x00", "b")),
    "NUL in a cell": "{path}: row 1, column 'x': '1\\x00' is not a number",
    "200,000-character field": "{path}: row 1: field larger than field limit (131072)",
    "200,000-character line of short fields": "{path}: row 1 has 100001 cells, expected 2",
    "cell 1_0": ([[4621819117588971520], [TWO]], [0, 1], ("x",), ("a", "b")),
    "Arabic-Indic digits": ([[4622945017495814144], [TWO]], [0, 1], ("x",), ("a", "b")),
    "cell -0": ([[-9223372036854775808], [TWO]], [0, 1], ("x",), ("a", "b")),
    "cell ' 1e3 '": ([[4652007308841189376], [TWO]], [0, 1], ("x",), ("a", "b")),
    "cell nan": "{path}: row 1, column 'x': 'nan' is not finite",
    "cell inf": "{path}: row 2, column 'x': 'inf' is not finite",
    "cell 0x10": "{path}: row 1, column 'x': '0x10' is not a number",
    "empty cell": "{path}: row 1, column 'x': '' is not a number",
    "float spellings": (
        [[ONE, 4602678819172646912, 4617315517961601024],
         [4652007308841189376, -9223372036854775808, 0]],
        [0, 1], ("x", "y", "z"), ("a", "b"),
    ),
    "extreme floats": (
        [[9214871658872686752, 1], [-4503599627370497, 1]], [0, 1], ("x", "y"), ("a", "b")
    ),
    "overflowing float": "{path}: row 2, column 'x': '1e309' is not finite",
    "whitespace that splitlines breaks on": (
        [[ONE], [TWO], [4613937818241073152]], [0, 1, 0], ("x",), ("a", "b")
    ),
    "padded header and labels": ([[ONE], [TWO]], [0, 1], ("x",), ("a", "b c")),
    "label in the middle": (
        [[ONE, TWO], [4613937818241073152, 4616189618054758400]], [0, 1], ("x", "y"), ("a", "b")
    ),
    "duplicate header names": "{path}: row 1, column 'cls': 'a' is not a number",
    "short row": "{path}: row 2 has 2 cells, expected 3",
    "long row": "{path}: row 2 has 4 cells, expected 3",
    "blank label": "{path}: row 2: blank label cell",
    "single class": "{path}: found a single class 'a'; need at least two",
    "first fault in row order": "{path}: row 2: blank label cell",
    "number fault before the blank label of its row": (
        "{path}: row 2, column 'y': 'q' is not a number"
    ),
    "not-finite fault before a later number fault": (
        "{path}: row 2, column 'x': 'inf' is not finite"
    ),
    # the decoder counts positions from the start of the chunk it was given
    "invalid UTF-8": "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
    "invalid UTF-8 past the first read": (
        "'utf-8' codec can't decode byte 0xff in position 3815: invalid start byte"
    ),
    "invalid UTF-8 after a blank line": (
        "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"
    ),
}


@pytest.mark.parametrize("name", list(LOADER_INPUTS))
def test_loader_matches_recorded_contract(tmp_path, name):
    content, label_column = LOADER_INPUTS[name]
    path = tmp_path / "data.csv"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    try:
        ds = load_csv(path, label_column)
    except ValueError as exc:
        got = str(exc).replace(str(path), "{path}")
    else:
        got = (ds.features.view(np.int64).tolist(), ds.labels.tolist(),
               ds.attribute_names, ds.class_names)
    assert got == LOADER_RECORDED[name]

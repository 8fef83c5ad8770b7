import numpy as np
import pytest

from covsel.data import Dataset, SuffStats, center_columns, concat, load_csv, suff_stats
from covsel.errors import CsvParseError, EmptyDatasetError
from covsel.specialfn import cholesky_pd


@pytest.fixture
def csv_file(tmp_path):
    def write(text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    return write


class TestLoadCsv:
    def test_with_header(self, csv_file):
        ds = load_csv(csv_file("x,y\n1,0\n0,1\n"))
        assert (ds.n, ds.d) == (2, 2)
        assert ds.columns == ("x", "y")
        np.testing.assert_allclose(ds.rows, [[1, 0], [0, 1]])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        path = tmp_path / "bom.csv"
        path.write_text("a,b\n1,0\n0,1\n", encoding="utf-8-sig")
        ds = load_csv(path, columns=["a", "b"])
        assert ds.columns == ("a", "b")
        np.testing.assert_array_equal(ds.rows, [[1, 0], [0, 1]])

    def test_parse_error_location(self, csv_file):
        with pytest.raises(CsvParseError) as err:
            load_csv(csv_file("x,y\n1,a\n"))
        assert err.value.row == 1
        assert err.value.column == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_location(self, csv_file, cell):
        with pytest.raises(CsvParseError) as err:
            load_csv(csv_file(f"x,y\n1,2\n3,{cell}\n"))
        assert (err.value.row, err.value.column) == (2, 2)

    def test_column_subset_by_name(self, csv_file):
        ds = load_csv(csv_file("x,y\n1,0\n0,1\n"), columns=["y"])
        assert (ds.n, ds.d) == (2, 1)
        np.testing.assert_allclose(ds.rows[:, 0], [0, 1])

    def test_column_subset_by_index_without_header(self, csv_file):
        ds = load_csv(csv_file("1,2\n3,4\n"), has_header=False, columns=[1])
        np.testing.assert_allclose(ds.rows[:, 0], [2, 4])

    @pytest.mark.parametrize(
        "text, has_header, columns, want",
        [
            ("1,2\n3,4\n", False, ["1", "0"], [[2, 1], [4, 3]]),  # indices as argv has them
            ("x,1\n1,2\n3,4\n", True, ["1"], [[2], [4]]),  # a header name wins
            ("x,1\n1,2\n3,4\n", True, ["0", "x"], [[1, 1], [3, 3]]),
        ],
    )
    def test_decimal_strings_are_indices_unless_names(self, csv_file, text, has_header, columns, want):
        ds = load_csv(csv_file(text), has_header=has_header, columns=columns)
        np.testing.assert_array_equal(ds.rows, want)

    @pytest.mark.parametrize("columns", [["-1"], ["2"], ["z"]])
    def test_bad_string_selector_rejected(self, csv_file, columns):
        with pytest.raises(CsvParseError):
            load_csv(csv_file("1,2\n3,4\n"), has_header=False, columns=columns)

    def test_selection_from_an_iterator(self, csv_file):
        # the selection is read once, so an iterator selects its columns
        path = csv_file("x,y,z\n1,2,3\n4,5,6\n")
        names = ["z", "x"]
        for ds in (load_csv(path, columns=iter(names)), load_csv(path).select(iter(names))):
            assert ds.columns == ("z", "x")
            np.testing.assert_array_equal(ds.rows, [[3, 1], [6, 4]])
        with pytest.raises(CsvParseError, match="empty column selection"):
            load_csv(path).select(iter([]))

    def test_a_str_is_one_column(self, csv_file):
        ds = Dataset(np.arange(6.0).reshape(3, 2), columns=("xy", "z")).select("xy")
        assert ds.columns == ("xy",)
        np.testing.assert_array_equal(ds.rows[:, 0], [0, 2, 4])
        ds = load_csv(csv_file("xy,z\n1,2\n3,4\n"), columns="xy")
        assert ds.columns == ("xy",)
        np.testing.assert_array_equal(ds.rows[:, 0], [1, 3])

    def test_empty_selection_rejected(self, csv_file):
        with pytest.raises(CsvParseError):
            load_csv(csv_file("x,y\n1,2\n"), columns=[])

    def test_ragged_rejected(self, csv_file):
        with pytest.raises(CsvParseError):
            load_csv(csv_file("x,y\n1,2\n3\n"))

    @pytest.mark.parametrize(
        "text, row, column, message",
        [
            # several faults: the first in reading order is reported
            ("x,y\n1,2\n3,inf\n4\n", 2, 2, "row 2, column 2: not a finite number: 'inf'"),
            ("x,y\n1,2\n3\n4,nan\n", 2, None, "row 2 has 1 fields, expected 2"),
            ("x,y\n1,a\n3,nan\n", 1, 2, "row 1, column 2: not a finite number: 'a'"),
            ("x,y\nnan,a\n", 1, 1, "row 1, column 1: not a finite number: 'nan'"),
            ("x,y\n1,2,3\n", 1, None, "row 1 has 3 fields, expected 2"),
            ("x,y\n1, \n", 1, 2, "row 1, column 2: not a finite number: ' '"),
        ],
    )
    def test_first_fault_in_reading_order(self, csv_file, text, row, column, message):
        with pytest.raises(CsvParseError) as err:
            load_csv(csv_file(text))
        assert (str(err.value), err.value.row, err.value.column) == (message, row, column)

    def test_values_and_blank_rows(self, csv_file):
        ds = load_csv(csv_file("x,y\n 1.5 ,-0.0\n\n , \n1e-300,2E3\n"))
        np.testing.assert_array_equal(ds.rows, [[1.5, -0.0], [1e-300, 2000.0]])
        assert np.signbit(ds.rows[0, 1])
        assert load_csv(csv_file("x,y\n")).rows.shape == (0, 2)


class TestInputChecks:
    @pytest.mark.parametrize(
        "rows, columns, message",
        [
            (np.ones(3), None, "rows must be 2-d"),
            (np.array([[1.0, np.nan]]), None, "entries must be finite"),
            (np.ones((2, 2)), ("a",), "column name count"),
        ],
        ids=["1-d", "non-finite", "column-names"],
    )
    def test_dataset(self, rows, columns, message):
        with pytest.raises(ValueError, match=message):
            Dataset(rows, columns)

    @pytest.mark.parametrize(
        "n, d, s, message",
        [
            (-1, 2, np.zeros((2, 2)), "need n >= 0 and d >= 1"),
            (1, 0, np.zeros((0, 0)), "need n >= 0 and d >= 1"),
            (1, 2, np.eye(3), "scatter shape"),
        ],
        ids=["negative-n", "zero-d", "scatter-shape"],
    )
    def test_suff_stats(self, n, d, s, message):
        with pytest.raises(ValueError, match=message):
            SuffStats(n, d, s)

    def test_concat_widths(self):
        with pytest.raises(ValueError, match="different widths"):
            concat(Dataset(np.ones((1, 2))), Dataset(np.ones((1, 3))))


class TestSuffStats:
    def test_single_row(self):
        st = suff_stats(Dataset(np.array([[1.0, 2.0]])))
        np.testing.assert_allclose(st.s, [[1, 2], [2, 4]])
        np.testing.assert_allclose(st.s_diag, [1, 4])
        assert st.s_total == 5

    def test_orthonormal_rows(self):
        st = suff_stats(Dataset(np.array([[1.0, 0.0], [0.0, 1.0]])))
        np.testing.assert_allclose(st.s, np.eye(2))
        assert st.s_total == 2

    def test_empty_dataset(self):
        st = suff_stats(Dataset(np.empty((0, 3))))
        assert st.n == 0
        np.testing.assert_allclose(st.s, np.zeros((3, 3)))
        assert st.s_total == 0

    def test_additivity(self):
        rng = np.random.default_rng(3)
        a = Dataset(rng.standard_normal((11, 4)))
        b = Dataset(rng.standard_normal((7, 4)))
        lhs = suff_stats(concat(a, b)).s
        rhs = suff_stats(a).s + suff_stats(b).s
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((20, 3))
        st1 = suff_stats(Dataset(rows))
        st2 = suff_stats(Dataset(rows[rng.permutation(20)]))
        np.testing.assert_allclose(st1.s, st2.s, atol=1e-12)

    def test_scatter_is_psd(self):
        rng = np.random.default_rng(5)
        for n, d in [(1, 4), (3, 3), (50, 5), (0, 2)]:
            st = suff_stats(Dataset(rng.standard_normal((n, d))))
            cholesky_pd(st.s + 1e-12 * np.eye(d))


class TestCenterColumns:
    def test_two_values(self):
        out = center_columns(Dataset(np.array([[1.0], [3.0]])))
        np.testing.assert_allclose(out.rows, [[-1.0], [1.0]])

    def test_idempotent_on_centered(self):
        rng = np.random.default_rng(6)
        rows = rng.standard_normal((13, 2))
        once = center_columns(Dataset(rows))
        twice = center_columns(once)
        np.testing.assert_allclose(once.rows, twice.rows, atol=1e-12)
        assert np.abs(once.rows.mean(axis=0)).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            center_columns(Dataset(np.empty((0, 2))))

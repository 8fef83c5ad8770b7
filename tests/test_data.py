import numpy as np
import pytest

from covsel.data import Dataset, center_columns, concat, load_csv, suff_stats
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

    def test_empty_selection_rejected(self, csv_file):
        with pytest.raises(CsvParseError):
            load_csv(csv_file("x,y\n1,2\n"), columns=[])

    def test_ragged_rejected(self, csv_file):
        with pytest.raises(CsvParseError):
            load_csv(csv_file("x,y\n1,2\n3\n"))


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

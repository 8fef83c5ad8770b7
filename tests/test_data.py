import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covsel import data
from covsel.data import Dataset, SuffStats, center_columns, concat, load_csv, suff_stats
from covsel.errors import CsvParseError, EmptyDatasetError, SupportError
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
            ("x,y\n1,2,3\n4\n", 1, None, "row 1 has 3 fields, expected 2"),  # 4 cells in all
            ("x,y\n1, \n", 1, 2, "row 1, column 2: not a finite number: ' '"),
        ],
    )
    def test_first_fault_in_reading_order(self, csv_file, text, row, column, message):
        assert data._read_plain(text, True) is None  # the reference reader reports it
        with pytest.raises(CsvParseError) as err:
            load_csv(csv_file(text))
        assert (str(err.value), err.value.row, err.value.column) == (message, row, column)

    def test_values_and_blank_rows(self, csv_file):
        ds = load_csv(csv_file("x,y\n 1.5 ,-0.0\n\n , \n1e-300,2E3\n"))
        np.testing.assert_array_equal(ds.rows, [[1.5, -0.0], [1e-300, 2000.0]])
        assert np.signbit(ds.rows[0, 1])
        assert load_csv(csv_file("x,y\n")).rows.shape == (0, 2)

    @pytest.mark.parametrize("columns", [["a"], "a", ["b", "a"]])
    def test_a_repeated_header_name_is_not_selected(self, csv_file, columns):
        path = csv_file("a,a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(CsvParseError, match="column 'a' is named 2 times in the header"):
            load_csv(path, columns=columns)
        with pytest.raises(CsvParseError, match="column 'a'"):
            load_csv(path).select(columns)

    def test_a_repeated_header_name_leaves_other_selections(self, csv_file):
        ds = load_csv(csv_file("a,a,b\n1,2,3\n4,5,6\n"))
        assert ds.columns == ("a", "a", "b")
        assert ds.select(["b"]).columns == ("b",)
        np.testing.assert_array_equal(ds.select([1, "0"]).rows, [[2, 1], [5, 4]])
        assert ds.select([1, "b"]).columns == ("a", "b")


def _outcome(read):
    """A reader's Dataset as (header, shape, value bits), or its error as
    (message, row, column)."""
    try:
        ds = read()
    except CsvParseError as exc:
        return str(exc), exc.row, exc.column
    return ds.columns, ds.rows.shape, ds.rows.view(np.int64).tolist()


# cells that float() reads, as a CSV might spell them
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e308, 0.1]
)
_SPELLINGS = st.sampled_from(
    [repr, "{:.3e}".format, "{:+.17g}".format, " {!r}\t".format, lambda v: f"{v:.0f}"]
)
# whitespace that str.strip drops, inside and around blank rows
_SPACE = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\u2028"), max_size=2)


@st.composite
def _csv_texts(draw):
    """A numeric CSV text in one of the spellings real files use, and whether
    it has a header: blank and whitespace-only rows between rows, a trailing
    newline or none, and, in about half of the texts, CRLF or CR line ends,
    quoted cells or a NUL."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    has_header = draw(st.booleans())
    rows = [[draw(_SPELLINGS)(draw(_NUMBERS)) for _ in range(width)] for _ in range(n)]
    if has_header:
        rows.insert(0, [draw(st.sampled_from(["x", " y ", "z1", "\u00e9"])) for _ in range(width)])
    other = draw(st.sampled_from(["", "", "", "crlf", "cr", "quoted", "nul"]))
    lines = []
    for row in rows:
        lines += [
            draw(_SPACE) + "," * draw(st.integers(0, width)) + draw(_SPACE)
            for _ in range(draw(st.integers(0, 1)))
        ]  # a blank row: every cell strips to nothing
        quoted = other == "quoted" and draw(st.booleans())
        lines.append(",".join(f'"{c}"' if quoted else c for c in row))
    end = {"crlf": "\r\n", "cr": "\r"}.get(other, "\n")
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    if other == "nul":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\x00" + text[at:]
    return text, has_header


class TestOnePassRead:
    """`load_csv` reads a CSV without quotes, carriage returns or NULs in one
    pass, and every other text with `csv.reader`: both give the same Dataset,
    or the same error, as the reference reader."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_csv_texts(), bom=st.booleans())
    def test_matches_the_reference_reader(self, tmp_path_factory, case, bom):
        text, has_header = case
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
            fh.write(text)
        want = _outcome(lambda: data._read_csv(text, has_header))
        assert _outcome(lambda: load_csv(path, has_header)) == want
        if not any(c in text for c in '"\r\0'):
            plain = data._read_plain(text, has_header)
            if isinstance(want[0], str):  # a fault: the one-pass reader leaves it to the reference
                assert plain is None
            else:
                assert _outcome(lambda: plain) == want

    @pytest.mark.parametrize(
        "text",
        ["x,y\r\n1,2\r\n", "x,y\r1,2\r", 'x,y\n"1",2\n', "x,y\n1,2\n\x00\n"],
        ids=["crlf", "cr", "quoted", "nul"],
    )
    def test_other_texts_take_the_reference_reader(self, csv_file, monkeypatch, text):
        want = _outcome(lambda: data._read_csv(text, True))
        monkeypatch.setattr(data, "_read_plain", None)  # never called
        assert _outcome(lambda: load_csv(csv_file(text))) == want

    def test_signed_zero_and_spellings_are_kept(self, csv_file):
        text = "x,y\n-0.0, 1_0 \n+1e-320,-0\n"
        assert data._read_plain(text, True) is not None
        ds = load_csv(csv_file(text))
        assert ds.rows.tolist() == [[-0.0, 10.0], [1e-320, -0.0]]
        assert np.signbit(ds.rows[:, 0]).tolist() == [True, False]
        assert np.signbit(ds.rows[1, 1])


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

    def test_overflowing_scatter_is_a_support_error(self):
        # 1e200^2 overflows a float; a RuntimeWarning would fail the test
        with pytest.raises(SupportError, match="scatter matrix of the data overflows"):
            suff_stats(Dataset(np.array([[1e200, 1.0], [2.0, 3.0]])))
        st = suff_stats(Dataset(np.array([[1e154, 1.0], [2.0, 3.0]])))
        assert st.s[0, 0] == 1e154 * 1e154 and np.isfinite(st.s).all()

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

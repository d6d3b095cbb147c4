from itertools import zip_longest

import numpy as np
import pytest

from qdiscord import tables
from qdiscord.errors import DimensionMismatchError
from qdiscord.tables import _BLOCK_ROWS, Coded, Columns, format_number, write_csv


def written(tmp_path, rows, header=("a", "b")):
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    return path.read_bytes().decode("utf-8")


class TestCellRules:
    @pytest.mark.parametrize("cell", [True, False])
    def test_bool_cell_raises(self, tmp_path, cell):
        with pytest.raises(TypeError, match="booleans"):
            format_number(cell)
        with pytest.raises(TypeError, match="booleans"):
            written(tmp_path, [(1, cell)])

    @pytest.mark.parametrize("cell", [np.bool_(True), np.bool_(False)])
    def test_numpy_bool_cell_raises(self, tmp_path, cell):
        with pytest.raises(TypeError, match="booleans"):
            format_number(cell)
        with pytest.raises(TypeError, match="booleans"):
            written(tmp_path, [(1, 0.5), (cell, 0.5)])

    @pytest.mark.parametrize(
        "cell, text",
        [(0, "0"), (-7, "-7"), (2**64, "18446744073709551616"),
         (12345678901234567, "12345678901234567"),
         (np.int64(-9223372036854775808), "-9223372036854775808")],
    )
    def test_ints_print_verbatim(self, tmp_path, cell, text):
        assert format_number(cell) == text
        assert written(tmp_path, [(cell,)], ("a",)) == f"a\n{text}\n"

    @pytest.mark.parametrize(
        "cell, text",
        [(0.1, "0.1"), (1 / 3, "0.333333333333"), (-0.0, "-0"), (0.0, "0"),
         (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
         (5e-324, "4.94065645841e-324"), (1e22, "1e+22"),
         (np.float64(2 / 3), "0.666666666667")],
    )
    def test_floats_print_at_twelve_digits(self, tmp_path, cell, text):
        assert format_number(cell) == text
        assert written(tmp_path, [(cell,)], ("a",)) == f"a\n{text}\n"

    def test_other_cells_print_through_str(self, tmp_path):
        cells = ("012", "a%sb", np.float32(0.1), None)
        assert [format_number(c) for c in cells] == [str(c) for c in cells]
        assert written(tmp_path, [cells], ("a", "b", "c", "d")) == "a,b,c,d\n" + ",".join(map(str, cells)) + "\n"


class TestWriteCsv:
    def test_row_containers(self, tmp_path):
        expected = "a,b\n1,0.5\n2,0.25\n"
        assert written(tmp_path, [[1, 0.5], [2, 0.25]]) == expected
        assert written(tmp_path, ((1, 0.5), (2, 0.25))) == expected
        assert written(tmp_path, zip([1, 2], [0.5, 0.25])) == expected

    def test_empty_rows_write_only_the_header(self, tmp_path):
        assert written(tmp_path, []) == "a,b\n"
        assert written(tmp_path, iter(())) == "a,b\n"

    def test_line_endings_are_lf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a",), [(1,), (2,)])
        assert path.read_bytes() == b"a\n1\n2\n"

    def test_mixed_column_types_match_per_cell_format(self, tmp_path):
        rows = [(1, 2.5, "x"), (1.5, 2, "y"), (np.int64(3), np.float64(0.1), 4),
                (2**70, -0.0, 1e-300), (1, 2.5, "z")]
        lines = written(tmp_path, rows, ("a", "b", "c")).split("\n")
        assert lines[0] == "a,b,c"
        assert lines[1:] == [",".join(map(format_number, row)) for row in rows] + [""]

    def test_rows_span_several_blocks(self, tmp_path):
        rows = [(i, i / 7) for i in range(10_000)]
        lines = written(tmp_path, rows).split("\n")
        assert len(lines) == len(rows) + 2
        assert lines[1:-1] == [",".join(map(format_number, row)) for row in rows]

    def test_ragged_rows_raise(self, tmp_path):
        with pytest.raises(DimensionMismatchError, match="needs 3 cells"):
            written(tmp_path, [(1, 2.0, 3), (1, 2.0), (1, 2.0, 3, 4)], ("a", "b", "c"))
        with pytest.raises(DimensionMismatchError, match="needs 2 cells"):
            written(tmp_path, [(1, 2.0)] * _BLOCK_ROWS + [(1, 2.0, 3)])

    def test_empty_header_raises_before_opening(self, tmp_path):
        path = tmp_path / "t.csv"
        for rows in ([], [(), ()]):
            with pytest.raises(DimensionMismatchError, match="header"):
                write_csv(path, (), rows)
            assert not path.exists()

    def test_type_signature_changes_mid_block_and_at_block_boundary(self, tmp_path):
        # New cell types appear inside the first block and again exactly at
        # the first row of the second, so each block's template differs.
        rows = [(i, i / 7, "x") for i in range(1000)]
        rows += [(i / 3, np.int64(i), i) for i in range(1000, _BLOCK_ROWS)]
        rows += [(np.float64(i), str(i), np.float32(i) / 3) for i in range(_BLOCK_ROWS, 5000)]
        rows += [(i, -i / 9, None) for i in range(5000, 9000)]
        lines = written(tmp_path, rows, ("a", "b", "c")).split("\n")
        assert len(lines) == len(rows) + 2
        assert lines[1:-1] == [",".join(map(format_number, row)) for row in rows]


def first_difference(tmp_path, header, rows):
    """First (line number, written, expected) where ``write_csv`` differs
    from a per-cell ``format_number`` reference, or None. Large tables are
    not compared with a bare ``==``, whose failure report diffs them whole."""
    lines = [",".join(header)] + [",".join(map(format_number, row)) for row in rows] + [""]
    got = written(tmp_path, rows, header).split("\n")
    return next(((i, a, b) for i, (a, b) in enumerate(zip_longest(got, lines)) if a != b), None)


class TestSharedTexts:
    """A table of coded columns formats each listed value once; its bytes must
    equal the per-cell rule's on the same rows."""

    HEADER = ("a", "b", "c", "d")
    # Equal under == but printed differently, or printed alike but unequal.
    PATTERN = [
        (0.0, -0.0, "0.1", 0.1),
        (-0.0, 0.0, "1e+12", 1e12),
        (float("nan"), float("inf"), float("-inf"), "nan"),
        (16777216.0, 2.0 ** 53, "16777216", 0.0),
        (1e12, 0.1, -0.0, "-0"),
    ]

    @staticmethod
    def table(count, *extra):
        # Column k lists the pattern's k-th cells plus ``extra``; rows cycle through the
        # pattern across _BLOCK_ROWS and end in a partial block.
        pattern = TestSharedTexts.PATTERN
        codes = [i % len(pattern) for i in range(count)]
        return Columns(*(Coded(codes, [row[k] for row in pattern] + list(extra)) for k in range(4)))

    def counting_format(self, monkeypatch):
        calls = []

        def counted(value):
            calls.append(value)
            return format_number(value)

        monkeypatch.setattr(tables, "format_number", counted)
        return calls

    def test_repeated_floats_and_strs_share_texts(self, tmp_path, monkeypatch):
        table = self.table(2 * _BLOCK_ROWS + 123)
        calls = self.counting_format(monkeypatch)
        assert first_difference(tmp_path, self.HEADER, table) is None
        # One call per listed value, zeros and NaNs included, over the file's three blocks.
        assert len(calls) == sum(len(column.values) for column in table.columns)

    @pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_keep_their_text_across_blocks(self, tmp_path, first, later):
        # Equal values listed apart: each keeps its own text on either side of a block edge.
        codes = [0] * _BLOCK_ROWS + [1] * _BLOCK_ROWS
        table = Columns(Coded(codes, [first, later]), [0.5] * len(codes), Coded(codes, ["x", "y"]))
        assert first_difference(tmp_path, ("a", "b", "c"), table) is None
        table = Columns(Coded(codes, [first, later]), Coded(codes, [0.5, 0.5]), Coded(codes, ["x", "x"]))
        assert first_difference(tmp_path, ("a", "b", "c"), table) is None

    @pytest.mark.parametrize(
        "cell",
        [np.float64(16777216.0), np.float32(16777216.0), np.float32(0.1), 2**53, 10**12,
         np.int64(10**12), 0],
        ids=repr,
    )
    def test_other_cell_types_keep_their_own_text(self, tmp_path, cell):
        # One value of another type, equal to a float listed beside it (16777216.0 and
        # 2.0**53; 1e12 and 0.0 recur), listed in every column and coded in one row of
        # the second of three blocks (the columns share their codes).
        table = self.table(2 * _BLOCK_ROWS + 123, cell)
        table.columns[0].codes[_BLOCK_ROWS + 7] = len(self.PATTERN)
        assert first_difference(tmp_path, self.HEADER, table) is None

    def test_mostly_distinct_floats_take_the_template(self, tmp_path, monkeypatch):
        rows = [(i / 7, -i / 9, 0.5, 0.25) for i in range(101)]
        calls = self.counting_format(monkeypatch)
        assert first_difference(tmp_path, self.HEADER, rows) is None
        assert calls == []

    @pytest.mark.parametrize("cell", [True, np.bool_(False)], ids=repr)
    def test_bool_in_a_shared_block_raises(self, tmp_path, cell):
        with pytest.raises(TypeError, match="booleans"):
            written(tmp_path, self.table(_BLOCK_ROWS + 123, cell), self.HEADER)

    def test_short_row_in_a_shared_block_raises(self, tmp_path):
        rows = list(self.table(_BLOCK_ROWS + 123))
        rows[_BLOCK_ROWS + 5] = rows[_BLOCK_ROWS + 5][:3]
        with pytest.raises(DimensionMismatchError, match="needs 4 cells"):
            written(tmp_path, rows, self.HEADER)


class TestColumns:
    # Every case of TestCellRules but the bools, with -0.0 and 0.0 listed apart.
    VALUES = [0, -7, 2**64, 12345678901234567, np.int64(-9223372036854775808),
              0.1, 1 / 3, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
              1e22, np.float64(2 / 3), np.float32(0.1), "012", "a%sb", None]

    @staticmethod
    def codes(seed, count=2 * _BLOCK_ROWS + 123):
        # Seeded codes over every value, with -0.0 (index 7) ending the first block and
        # 0.0 (index 8) starting the second.
        codes = np.random.default_rng(seed).integers(len(TestColumns.VALUES), size=count).tolist()
        codes[_BLOCK_ROWS - 1:_BLOCK_ROWS + 1] = [7, 8]
        return codes

    def test_coded_and_plain_columns_write_the_bytes_of_rows(self, tmp_path):
        values, header = self.VALUES, ("a", "b", "c")
        cells = [[values[k] for k in self.codes(seed)] for seed in (1, 2, 3)]
        coded = [Coded(self.codes(seed), values) for seed in (1, 2, 3)]
        rows = list(zip(*cells))
        for table in (Columns(*coded), Columns(coded[0], coded[1], cells[2]),
                      Columns(cells[0], coded[1], coded[2])):
            assert len(table) == len(rows) and list(table) == rows
            assert first_difference(tmp_path, header, table) is None
            assert written(tmp_path, table, header) == written(tmp_path, rows, header)

    def test_empty_table_writes_only_the_header(self, tmp_path):
        assert len(Columns(Coded([], [0.5]), [])) == 0
        assert written(tmp_path, Columns(Coded([], [0.5]), [])) == "a,b\n"

    @pytest.mark.parametrize("cell", [True, False, np.bool_(True)], ids=repr)
    def test_bool_among_values_raises(self, tmp_path, cell):
        # Formatted once whether or not a code refers to it.
        for codes in ([0, 1, 0], [0, 0, 0]):
            with pytest.raises(TypeError, match="booleans"):
                written(tmp_path, Columns(Coded(codes, [0.5, cell]), Coded(codes, ["x", "y"])))

    def test_unequal_columns_raise_before_opening(self, tmp_path):
        path = tmp_path / "t.csv"
        for columns in ((Coded([0, 0], [1.0]), Coded([0], ["x"])), (Coded([0, 0], [1.0]), [1, 2, 3]),
                        ([1, 2], [1])):
            with pytest.raises(DimensionMismatchError, match="needs 2 equal-length columns"):
                write_csv(path, ("a", "b"), Columns(*columns))
            assert not path.exists()

    def test_column_count_other_than_the_header_raises_before_opening(self, tmp_path):
        path = tmp_path / "t.csv"
        for header in (("a",), ("a", "b", "c")):
            for table in (Columns(Coded([0], [1.0]), Coded([0], ["x"])), Columns([1.0], ["x"])):
                with pytest.raises(DimensionMismatchError, match="needs [13] equal-length columns"):
                    write_csv(path, header, table)
                assert not path.exists()

from itertools import zip_longest

import numpy as np
import pytest

from qdiscord import tables
from qdiscord.errors import DimensionMismatchError
from qdiscord.tables import _BLOCK_ROWS, format_number, write_csv


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
    """A block of exact floats and strs that mostly repeat formats each
    distinct cell once; its bytes must equal the per-cell rule's."""

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
    def rows(count):
        # Repeats cross _BLOCK_ROWS and end in a partial block; NaNs are fresh
        # objects, so they never hit the memo by identity.
        pattern = TestSharedTexts.PATTERN
        return [tuple(float("nan") if c != c else c for c in pattern[i % len(pattern)])
                for i in range(count)]

    def counting_format(self, monkeypatch):
        calls = []

        def counted(value):
            calls.append(value)
            return format_number(value)

        monkeypatch.setattr(tables, "format_number", counted)
        return calls

    def test_repeated_floats_and_strs_share_texts(self, tmp_path, monkeypatch):
        rows = self.rows(2 * _BLOCK_ROWS + 123)
        calls = self.counting_format(monkeypatch)
        assert first_difference(tmp_path, self.HEADER, rows) is None
        # The file formats each distinct nonzero cell once, over its three blocks, and each
        # zero and NaN cell on its own.
        cells = [cell for row in rows for cell in row]
        distinct = {cell for cell in cells if cell and cell == cell}
        assert len(calls) == len(distinct) + sum(1 for cell in cells if not cell or cell != cell)

    @pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zeros_keep_their_text_across_blocks(self, tmp_path, first, later):
        # Each zero appears in one block only, so a memo kept for the file must not
        # hand the first block's zero text to the later block's.
        rows = [(first, 0.5, "x")] * _BLOCK_ROWS + [(later, 0.5, "x")] * _BLOCK_ROWS
        assert first_difference(tmp_path, ("a", "b", "c"), rows) is None

    def test_memo_is_bounded(self, tmp_path, monkeypatch):
        # Slowly drifting values: each block mostly repeats, but no value comes back in a
        # later block, so a memo that never started afresh would grow with the file.
        memos = []

        class Recorded(tables._CellTexts):
            def __init__(self):
                memos.append(self)

        monkeypatch.setattr(tables, "_CellTexts", Recorded)
        rows = [(i // 4 * 1e-3, "x", float("nan")) for i in range(10 * _BLOCK_ROWS)]
        assert first_difference(tmp_path, ("a", "b", "c"), rows) is None
        assert len(memos) > 1
        # Over _BLOCK_ROWS texts it starts afresh, so it holds at most one block's distinct
        # cells more: 1,025 here, as no NaN is stored.
        assert max(map(len, memos)) <= _BLOCK_ROWS + 1025
        assert all(cell == cell for memo in memos for cell in memo)

    @pytest.mark.parametrize(
        "cell",
        [np.float64(16777216.0), np.float32(16777216.0), np.float32(0.1), 2**53, 10**12,
         np.int64(10**12), 0],
        ids=repr,
    )
    def test_other_cell_types_keep_their_own_text(self, tmp_path, cell):
        # One cell of another type, equal to a float of the block (the row
        # holds 16777216.0 and 2.0**53; 1e12 and 0.0 recur), in the second of
        # three blocks: that block takes the per-cell template, while the shared
        # blocks on either side read one memo that holds the equal float's text.
        rows = self.rows(2 * _BLOCK_ROWS + 123)
        rows[_BLOCK_ROWS + 7] = (cell, *rows[_BLOCK_ROWS + 7][1:])
        assert first_difference(tmp_path, self.HEADER, rows) is None

    def test_mostly_distinct_floats_take_the_template(self, tmp_path, monkeypatch):
        rows = [(i / 7, -i / 9, 0.5, 0.25) for i in range(101)]
        calls = self.counting_format(monkeypatch)
        assert first_difference(tmp_path, self.HEADER, rows) is None
        assert calls == []

    @pytest.mark.parametrize("cell", [True, np.bool_(False)], ids=repr)
    def test_bool_in_a_shared_block_raises(self, tmp_path, cell):
        rows = self.rows(_BLOCK_ROWS + 123)
        rows[_BLOCK_ROWS + 5] = (*rows[_BLOCK_ROWS + 5][:3], cell)
        with pytest.raises(TypeError, match="booleans"):
            written(tmp_path, rows, self.HEADER)

    def test_short_row_in_a_shared_block_raises(self, tmp_path):
        rows = self.rows(_BLOCK_ROWS + 123)
        rows[_BLOCK_ROWS + 5] = rows[_BLOCK_ROWS + 5][:3]
        with pytest.raises(DimensionMismatchError, match="needs 4 cells"):
            written(tmp_path, rows, self.HEADER)

"""CSV and run-metadata output shared by the scan and figure pipelines.

Files are written with LF newlines so that a repeated run with the same
configuration is byte-identical. One per-type rule renders every cell:
``bool`` and ``np.bool_`` raise :class:`TypeError`, floats (``np.float64``
too) print at 12 significant digits (``%.12g``: ``-0``, ``nan``, ``inf``),
and any other cell prints through ``str``, so integers print verbatim.

A table is a :class:`Columns` of :class:`Coded` columns, whose listed values
are formatted once each (``-0.0`` and ``0.0`` listed apart print apart), and
plain ones, formatted ``_BLOCK_ROWS`` cells at a time by each cell's type.
"""

import json
import os
from itertools import chain, islice
from operator import index

import numpy as np

from .errors import DimensionMismatchError
from .version import __version__

SIGNIFICANT_DIGITS = 12

_FLOAT_CELL = f"%.{SIGNIFICANT_DIGITS}g"

#: Cells formatted per ``%`` and lines per ``write``; bounded so a large
#: table is never held in memory as one string.
_BLOCK_ROWS = 4096


def _cell_format(kind: type) -> str:
    """The ``%`` directive for cells of type ``kind``."""
    if issubclass(kind, (bool, np.bool_)):
        raise TypeError("booleans are not table cells")
    return _FLOAT_CELL if issubclass(kind, float) else "%s"


def format_number(value) -> str:
    """Render one cell by the module's per-type rule."""
    return _cell_format(type(value)) % (value,)


class Coded:
    """A table column whose cell r is ``values[codes[r]]``, for int codes."""

    def __init__(self, codes, values):
        self.codes, self.values = codes, values

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return map(self.values.__getitem__, self.codes)

    def __getitem__(self, r):
        return self.values[self.codes[r]]


class Columns:
    """A table given column by column, each :class:`Coded` or a plain sequence of
    cells: ``len`` is its row count, iterating gives its rows, and ``table[r]`` is
    row r, negative r from the end (:class:`IndexError` past either end, :class:`TypeError`
    for a slice). Unequal columns raise :class:`DimensionMismatchError`."""

    def __init__(self, *columns):
        lengths = list(map(len, columns))
        if lengths != lengths[:1] * len(columns):
            raise DimensionMismatchError(f"a table's columns need equal lengths, got {lengths}")
        self.columns, self._rows = columns, lengths[0] if lengths else 0

    def __len__(self):
        return self._rows

    def __iter__(self):
        return zip(*self.columns)

    def __getitem__(self, r):
        r = range(self._rows)[index(r)]
        return tuple(column[r] for column in self.columns)


def _texts(cells) -> list:
    """The texts of ``cells`` by the per-type rule, from one template and one ``%``.
    A text holding a line break raises :class:`ValueError`."""
    cells = tuple(cells)
    if not cells:
        return []
    kinds = list(map(type, cells))
    directives = {kind: _cell_format(kind) for kind in set(kinds)}
    texts = ("\n".join(map(directives.__getitem__, kinds)) % cells).split("\n")
    if len(texts) != len(cells):
        raise ValueError("a table cell's text holds a line break")
    return texts


def _column_texts(column):
    """An iterator over a column's cell texts: a coded column's values are
    formatted here, once each; a plain column's cells ``_BLOCK_ROWS`` at a time."""
    if isinstance(column, Coded):
        return map(_texts(column.values).__getitem__, column.codes)
    cells = iter(column)
    return chain.from_iterable(iter(lambda: _texts(islice(cells, _BLOCK_ROWS)), []))


def write_csv(path, header, rows) -> None:
    """Write a header line plus one comma-joined line per row of ``rows``, a
    :class:`Columns` table; anything else raises :class:`TypeError`.

    An empty header, or a table of other than ``len(header)`` columns, raises
    :class:`DimensionMismatchError` before the file is opened; a cell whose
    text holds a line break, which would split its row, raises :class:`ValueError`.
    Whatever raises once the file is open first removes it, if it is a regular
    file and not a link, so no partial CSV is left.
    """
    if not isinstance(rows, Columns):
        raise TypeError(f"write_csv takes a Columns table, got {type(rows).__name__}")
    width = len(header)
    if not width:
        raise DimensionMismatchError("a CSV header needs at least one column")
    if len(rows.columns) != width:
        raise DimensionMismatchError(f"a {width}-column header needs {width} columns, got {len(rows.columns)}")
    lines = map(",".join, zip(*map(_column_texts, rows.columns)))
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            while block := list(islice(lines, _BLOCK_ROWS)):
                fh.write("\n".join(block) + "\n")
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):  # never a device, pipe or link
            os.remove(path)
        raise


def write_sidecar(csv_path, payload: dict) -> str:
    """Write run metadata next to a CSV as ``<csv_path>.json``: ``payload``
    plus the package ``version``, which is set here and nowhere else.

    Keys are sorted so the sidecar is as reproducible as the table itself.
    Returns the sidecar path.
    """
    sidecar = f"{csv_path}.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({**payload, "version": __version__}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar

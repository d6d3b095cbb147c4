"""CSV and run-metadata output shared by the scan and figure pipelines.

Files are written with LF newlines so that a repeated run with the same
configuration is byte-identical. One per-type rule renders every cell:

* ``bool`` and ``np.bool_`` are rejected with :class:`TypeError`;
* ``float`` and its subclasses (``np.float64`` included) print at 12
  significant digits (``%.12g``: ``-0``, ``nan``, ``inf``);
* any other cell prints through ``str``, so Python and numpy integers
  print verbatim.

:func:`write_csv` formats a block of up to ``_BLOCK_ROWS`` rows with one
template and one ``%``: the template holds a directive per cell, chosen by
that cell's type, so mixed types within a column still follow the rule.

A :class:`Columns` table whose columns are all :class:`Coded` (fig2's grid
values and labels) formats each listed value once, by the same rule, and joins
its lines from those texts: ``-0.0``, ``0.0`` and NaN listed apart print apart.
"""

import json
from itertools import chain, islice

import numpy as np

from .errors import DimensionMismatchError
from .version import __version__

SIGNIFICANT_DIGITS = 12

_FLOAT_CELL = f"%.{SIGNIFICANT_DIGITS}g"

#: Rows formatted per ``%`` and ``write``; bounded so a large table is
#: never held in memory as one string.
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


class Columns:
    """A table given column by column, each :class:`Coded` or a plain sequence
    of cells: ``len`` is its row count, and iterating gives its rows."""

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self):
        return min(map(len, self.columns), default=0)

    def __iter__(self):
        return zip(*self.columns)


def write_csv(path, header, rows) -> None:
    """Write a header line plus one comma-joined line per row of ``rows``, an
    iterable of rows or a :class:`Columns` table (one whose columns are all
    coded is joined from one text per listed value).

    An empty header, a table of other than ``len(header)`` equal-length columns,
    or a row of other than ``len(header)`` cells raises
    :class:`DimensionMismatchError`, all but the last before the file is opened.
    """
    width = len(header)
    if not width:
        raise DimensionMismatchError("a CSV header needs at least one column")
    if isinstance(rows, Columns) and (lengths := list(map(len, rows.columns))) != lengths[:1] * width:
        raise DimensionMismatchError(f"a table needs {width} equal-length columns, got lengths {lengths}")
    if coded := isinstance(rows, Columns) and all(isinstance(c, Coded) for c in rows.columns):
        # One text per listed value; each line is joined from its cells' texts.
        texts = [map(list(map(format_number, c.values)).__getitem__, c.codes) for c in rows.columns]
        rows = map(",".join, zip(*texts))
    inner, last = {}, {}  # cell type -> directive + "," (inner cell) or + "\n" (row end)
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            if coded:
                fh.write("\n".join(block) + "\n")
                continue
            lengths = set(map(len, block))
            if lengths != {width}:
                raise DimensionMismatchError(
                    f"every row needs {width} cells, one per header column; "
                    f"got rows of {sorted(lengths - {width})} cells"
                )
            cells = tuple(chain.from_iterable(block))
            kinds = list(map(type, cells))
            for kind in set(kinds).difference(inner):
                directive = _cell_format(kind)
                inner[kind], last[kind] = directive + ",", directive + "\n"
            template = list(map(inner.__getitem__, kinds))
            template[width - 1::width] = map(last.__getitem__, kinds[width - 1::width])
            fh.write("".join(template) % cells)


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

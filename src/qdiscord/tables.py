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

Equal float cells are formatted once per file: a block whose cells are all
exact ``float`` or ``str`` and mostly repeat (fig2's grid values and labels)
reads their texts from one memo per file, started afresh once it holds over
``_BLOCK_ROWS`` texts, so its bytes follow the same per-type rule. Cells that
compare equal but print differently never share a text: ``-0.0``, ``0.0``
and NaN are formatted cell by cell, and cells of different types (``1`` and
``1.0``, ``np.float32(0.5)`` and ``0.5``) take the per-cell template.
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

#: Cell types whose equal values always print alike, zeros apart.
_SHARED_KINDS = frozenset({float, str})


def _cell_format(kind: type) -> str:
    """The ``%`` directive for cells of type ``kind``."""
    if issubclass(kind, (bool, np.bool_)):
        raise TypeError("booleans are not table cells")
    return _FLOAT_CELL if issubclass(kind, float) else "%s"


def format_number(value) -> str:
    """Render one cell by the module's per-type rule."""
    return _cell_format(type(value)) % (value,)


class _CellTexts(dict):
    """Text of each distinct cell of a file, by :func:`format_number` on first
    use. A zero is never stored, as ``0.0 == -0.0`` would share it, nor a NaN,
    which no later cell equals."""

    def __missing__(self, cell):
        text = format_number(cell)
        if cell and cell == cell:
            self[cell] = text
        return text


def write_csv(path, header, rows) -> None:
    """Write a header line plus one comma-joined line per row.

    Every row must have one cell per header column; a row of another length,
    or an empty header, raises :class:`DimensionMismatchError`, the header
    before the file is opened.
    """
    width = len(header)
    if not width:
        raise DimensionMismatchError("a CSV header needs at least one column")
    inner, last = {}, {}  # cell type -> directive + "," (inner cell) or + "\n" (row end)
    rows, memo = iter(rows), _CellTexts()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, _BLOCK_ROWS)):
            lengths = set(map(len, block))
            if lengths != {width}:
                raise DimensionMismatchError(
                    f"every row needs {width} cells, one per header column; "
                    f"got rows of {sorted(lengths - {width})} cells"
                )
            cells = tuple(chain.from_iterable(block))
            # Mostly repeats: one text per distinct cell of the file, the rule's text. The
            # type test stops at the first cell of another type, such as fig1's int seed.
            if _SHARED_KINDS.issuperset(map(type, cells)) and 2 * len(set(cells)) < len(cells):
                memo = memo if len(memo) <= _BLOCK_ROWS else _CellTexts()  # bounded
                texts = map(memo.__getitem__, cells)
                fh.write("\n".join(map(",".join, zip(*[texts] * width))) + "\n")
                continue
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

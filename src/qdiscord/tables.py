"""CSV and run-metadata output shared by the scan and figure pipelines.

Files are written with LF newlines so that a repeated run with the same
configuration is byte-identical. One per-type rule renders every cell:

* ``bool`` is rejected with :class:`TypeError`;
* ``float`` and its subclasses (``np.float64`` included) print at 12
  significant digits (``%.12g``: ``-0``, ``nan``, ``inf``);
* any other cell prints through ``str``, so Python and numpy integers
  print verbatim.

:func:`write_csv` turns each distinct tuple of cell types into one row
template, so a row is a single ``%`` format.
"""

import json
from itertools import islice

SIGNIFICANT_DIGITS = 12

_FLOAT_CELL = f"%.{SIGNIFICANT_DIGITS}g"

#: Rows formatted per ``"".join`` and ``write``; bounded so a large table is
#: never held in memory as one string.
_BLOCK_ROWS = 4096


def _cell_format(kind: type) -> str:
    """The ``%`` directive for cells of type ``kind``."""
    if issubclass(kind, bool):
        raise TypeError("booleans are not table cells")
    return _FLOAT_CELL if issubclass(kind, float) else "%s"


def format_number(value) -> str:
    """Render one cell by the module's per-type rule."""
    return _cell_format(type(value)) % (value,)


def _format_rows(rows):
    """Yield one LF-terminated line per row, one template per type signature."""
    templates = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
        yield template % row


def write_csv(path, header, rows) -> None:
    """Write a header line plus one comma-joined line per row."""
    lines = _format_rows(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while block := "".join(islice(lines, _BLOCK_ROWS)):
            fh.write(block)


def write_sidecar(csv_path, payload: dict) -> str:
    """Write run metadata next to a CSV as ``<csv_path>.json``.

    Keys are sorted so the sidecar is as reproducible as the table itself.
    Returns the sidecar path.
    """
    sidecar = f"{csv_path}.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar

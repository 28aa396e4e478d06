"""Point data ingestion: CSV rows of x, y, label.

The file is read in blocks of lines.  A block without quotes is cut into
records and cells with ``str.split``, which on such text is exactly the
``csv`` module's rule; from the first block that holds a quote on, records
come from one ``csv.reader``.  A block whose records all have three cells is
converted column by column: one ``np.array(..., dtype=float)`` call for the
coordinates (it parses like ``float()``) and one ``np.where`` for the labels.
Only a block that fails there (a blank row, a bad cell count or coordinate,
a label outside the two classes) is read again row by row, which finds the
first offending record and reports it by its line number.
"""

from __future__ import annotations

import csv
from itertools import chain, islice, repeat

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError, ParseError
from .geometry import LabeledPointSet

# characters of lines per block pulled with ``readlines``
_BLOCK_CHARS = 1 << 16
# records per block once ``csv.reader`` has taken over
_BLOCK_ROWS = 1 << 13


class _Columns:
    """Coordinates and class codes of the data rows read so far, one array
    per block (``(rows, 2)``, so that they join into the points without a
    further copy), and the label -> class mapping that coded them."""

    def __init__(self, mapping: dict[str, int], pinned: bool):
        self.mapping = mapping
        self.pinned = pinned
        self.points: list[np.ndarray] = []
        self.labels: list[np.ndarray] = []

    def add(self, first: int, rows, cells: list[str] | None) -> None:
        """Append a block of records, the first of which is line ``first``.

        ``rows`` iterates over the records as cell lists; ``cells`` is their
        flat x, y, label cell list when every record has three cells.
        """
        if cells is None or not self._add_columns(cells):
            self._add_rows(first, rows)

    def _add_columns(self, cells: list[str]) -> bool:
        labs = list(map(str.strip, cells[2::3]))
        try:
            pts = np.array([cells[0::3], cells[1::3]], dtype=float)
        except ValueError:
            return False
        seen = dict.fromkeys(labs)
        if self.pinned:
            if not seen.keys() <= self.mapping.keys():
                return False
        else:
            new = [lab for lab in seen if lab not in self.mapping]
            if len(self.mapping) + len(new) > 2:
                return False
            for lab in new:
                self.mapping[lab] = len(self.mapping) + 1
        class_1 = next(iter(self.mapping))  # first seen, or classes[0]
        self.points.append(pts.T.copy())
        self.labels.append(np.where(np.array(labs, dtype=object) == class_1, 1, 2))
        return True

    def _add_rows(self, first: int, rows) -> None:
        mapping = self.mapping
        xs: list[float] = []
        ys: list[float] = []
        codes: list[int] = []
        for lineno, row in enumerate(rows, start=first):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise ParseError(f"line {lineno}: expected 3 columns, got {len(row)}")
            sx, sy, lab = (cell.strip() for cell in row)
            try:
                x, y = float(sx), float(sy)
            except ValueError:
                raise ParseError(f"line {lineno}: cannot parse coordinates {sx!r}, {sy!r}")
            if lab not in mapping:
                if self.pinned:
                    raise ParseError(f"line {lineno}: unexpected class {lab!r}")
                if len(mapping) == 2:
                    raise InvalidInputError(
                        f"more than two classes: {sorted(mapping)} and {lab!r} (line {lineno})"
                    )
                mapping[lab] = len(mapping) + 1
            xs.append(x)
            ys.append(y)
            codes.append(mapping[lab])
        if codes:
            self.points.append(np.array([xs, ys], dtype=float).T.copy())
            self.labels.append(np.array(codes))


def _csv_records(lines: list[str], fh, delimiter: str, failure: list):
    """Records of ``lines`` and the rest of ``fh`` from one ``csv.reader``;
    a ``csv.Error`` ends them and is put in ``failure``."""
    try:
        yield from csv.reader(chain(lines, fh), delimiter=delimiter)
    except csv.Error as e:
        failure.append(e)


def _read(fh, path: str, delimiter: str, has_header: bool, cols: _Columns) -> None:
    """Feed every record of ``fh`` but the header to ``cols``."""
    lineno = 0  # records read so far
    limit = csv.field_size_limit()
    while lines := fh.readlines(_BLOCK_CHARS):
        text = "".join(lines)
        # quotes, NULs and fields over the csv size limit are csv.reader's
        if '"' in text or "\0" in text or max(map(len, lines)) > limit:
            break
        recs = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not recs[-1]:  # the block's last line ends in a line break
            del recs[-1]
        first = lineno + 1
        lineno += len(recs)
        if has_header and first == 1:
            del recs[0]
            first = 2
        if recs:
            flat = set(map(str.count, recs, repeat(delimiter))) == {2}
            cells = delimiter.join(recs).split(delimiter) if flat else None
            cols.add(first, map(str.split, recs, repeat(delimiter)), cells)
    else:  # end of file, and no block needed csv.reader
        return

    failure: list[csv.Error] = []
    records = _csv_records(lines, fh, delimiter, failure)
    while rows := list(islice(records, _BLOCK_ROWS)):
        first = lineno + 1
        lineno += len(rows)
        if has_header and first == 1:
            del rows[0]
            first = 2
        if rows:
            flat = set(map(len, rows)) == {3}
            cols.add(first, rows, list(chain.from_iterable(rows)) if flat else None)
    if failure:
        raise ParseError(f"{path}: line {lineno + 1}: {failure[0]}")


def _undecodable(path: str) -> ParseError:
    """The error for a file that is not valid UTF-8, located by byte offset."""
    with open(path, "rb") as fb:
        data = fb.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        return ParseError(f"{path}: byte {e.start}: not valid UTF-8 ({e.reason})")
    return ParseError(f"{path}: not valid UTF-8")


def ingest(
    path: str,
    has_header: bool = True,
    delimiter: str = ",",
    classes: tuple[str, str] | None = None,
) -> LabeledPointSet:
    """Read a two-class point file.

    Each data row is ``x,y,label`` in UTF-8 CSV.  Blank rows are skipped;
    the header, if any, is the first record.  Labels map to classes 1 and 2
    in first-seen order unless ``classes`` pins the mapping explicitly.

    Raises
    ------
    ParseError
        Empty or undecodable file, malformed row (with its line number), or
        a label not in ``classes`` when the override is given.
    InvalidArgumentError
        A delimiter that is not one character other than a quote, CR or LF,
        or ``classes`` that are not two distinct labels; raised before the
        file is opened.
    InvalidInputError
        Not exactly two distinct classes in the file, or bad coordinates.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n':
        raise InvalidArgumentError(
            f"delimiter must be one character other than '\"', CR and LF, got {delimiter!r}"
        )
    mapping: dict[str, int] = {}
    if classes is not None:
        if len(classes) != 2 or classes[0] == classes[1]:
            raise InvalidArgumentError(f"--classes needs two distinct labels, got {classes}")
        mapping = {str(classes[0]): 1, str(classes[1]): 2}
    cols = _Columns(mapping, pinned=classes is not None)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    with fh:
        try:
            _read(fh, path, delimiter, has_header, cols)
        except UnicodeDecodeError:
            raise _undecodable(path) from None
    if not cols.labels:
        raise ParseError(f"{path}: no data rows")
    labels = np.concatenate(cols.labels)
    if labels.min() == labels.max():
        raise InvalidInputError("input has fewer than 2 classes")
    return LabeledPointSet(np.concatenate(cols.points), labels)

"""Point data ingestion: CSV rows of x, y, label.

The file is read in blocks of characters, each completed to the end of its
last line, so that no record and no CRLF spans two blocks.  A block without
quotes has its CRs turned into LFs, and one ``bytes.translate`` pass over
its UTF-8 bytes tests that every record's separators run delimiter,
delimiter, LF.  Such a block is cut into its cells by one ``str.split``,
which on quote-free text is exactly the ``csv`` module's rule.  From the
first block that holds a quote on, records come from one ``csv.reader``,
which streams the rest of the file.  A block whose records all have three
cells is converted column by column: one ``np.array(..., dtype=float)`` call
for the coordinates (it parses like ``float()``) and one ``np.where`` for
the labels.  Only a block that fails there (a blank row, a bad cell count or
coordinate, a label outside the two classes) is read again row by row, which
finds the first offending record and reports it by its line number.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, count, islice, repeat

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError, ParseError
from .geometry import LabeledPointSet

# characters per block read with ``read``, before its last line is completed
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

    def add_columns(self, cells: list[str]) -> bool:
        """Append a block from the flat x, y, label cell list of its
        records, or return False, appending nothing, if a record is not a
        data row of the two classes."""
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

    def add_rows(self, linenos, rows) -> None:
        """Append a block from its records as cell lists, which start on
        lines ``linenos``, or raise on the first one that is not blank and
        not a data row of the two classes."""
        mapping = self.mapping
        xs: list[float] = []
        ys: list[float] = []
        codes: list[int] = []
        for lineno, row in zip(linenos, rows):
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


def _read(fh, path: str, delimiter: str, has_header: bool, cols: _Columns) -> None:
    """Feed every record of ``fh`` but the header to ``cols``."""
    lineno = 0  # lines read so far
    limit = csv.field_size_limit()
    # A block's record shape is read from its UTF-8 bytes with all but the
    # delimiters and LFs deleted.  No byte of another character equals an
    # ASCII delimiter or LF; a delimiter that is not ASCII is first replaced
    # by NUL, which no quote-free block holds.
    mark = delimiter if delimiter.isascii() else "\0"
    others = bytes(set(range(256)) - {ord(mark), ord("\n")})
    shape = (mark + mark + "\n").encode()
    while block := fh.read(_BLOCK_CHARS) + fh.readline():
        # quotes and NULs are csv.reader's
        if '"' in block or "\0" in block:
            break
        text = block.replace("\r\n", "\n").replace("\r", "\n") if "\r" in block else block
        if text[-1] != "\n":  # the file's last line has no line break
            text += "\n"
        # so is a field over the csv size limit, which only a line that long holds
        if len(text) > limit and max(map(len, text.split("\n"))) > limit:
            break
        first = lineno + 1
        lineno += text.count("\n")
        if has_header and first == 1:
            text = text.partition("\n")[2]
            first = 2
        if not text:
            continue
        probe = text if mark == delimiter else text.replace(delimiter, mark)
        if probe.encode().translate(None, others) == shape * (lineno - first + 1):
            # every record's separators are delimiter, delimiter, LF
            cells = text.replace("\n", delimiter).split(delimiter)
            del cells[-1]  # the empty one after the last LF
            if cols.add_columns(cells):
                continue
        cols.add_rows(count(first), map(str.split, text[:-1].split("\n"), repeat(delimiter)))
    else:  # end of file, and no block needed csv.reader
        return

    # the block's lines, split like the file's, then the rest of the file
    reader = csv.reader(chain(io.StringIO(block, newline=""), fh), delimiter=delimiter)
    del block
    before, failure = lineno, None
    while failure is None:
        starts, rows = [], []  # a batch of records and the lines they start on
        try:
            for row in islice(reader, _BLOCK_ROWS):
                starts.append(lineno + 1)
                rows.append(row)
                lineno = before + reader.line_num
        except csv.Error as e:
            failure = ParseError(f"{path}: line {lineno + 1}: {e}")
        if not rows:
            break
        if has_header and starts[0] == 1:
            del starts[0], rows[0]
        if set(map(len, rows)) == {3} and cols.add_columns(list(chain.from_iterable(rows))):
            continue
        cols.add_rows(starts, rows)
    if failure:
        raise failure


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

    Each data row is ``x,y,label`` in UTF-8 CSV; a leading byte-order mark
    is skipped.  Blank rows are skipped; the header, if any, is the first
    record.  Labels map to classes 1 and 2 in first-seen order unless
    ``classes`` pins the mapping explicitly.

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
        fh = open(path, newline="", encoding="utf-8-sig")
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

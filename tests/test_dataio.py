"""Point-file reader: differential tests against a plain row-by-row reader."""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nnct import InvalidInputError, LabeledPointSet, ParseError, ingest
from nnct import dataio
from nnct.cli import main


def reference_ingest(path, has_header=True, delimiter=",", classes=None):
    """One ``csv.reader`` record at a time: strip, ``float()``, map the label.

    The blockwise reader must match it byte for byte, error for error.  An
    error names the line its record starts on, counting the lines that
    quoted fields span; a ``csv.Error`` becomes a ``ParseError``.
    """
    mapping = {}
    if classes is not None:
        mapping = {str(classes[0]): 1, str(classes[1]): 2}
    xs, ys, labels = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        end = 0  # the last line of the records read so far
        try:
            for row in reader:
                lineno, end = end + 1, reader.line_num
                if has_header and lineno == 1:
                    continue
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != 3:
                    raise ParseError(f"line {lineno}: expected 3 columns, got {len(row)}")
                sx, sy, slab = (cell.strip() for cell in row)
                try:
                    x, y = float(sx), float(sy)
                except ValueError:
                    raise ParseError(f"line {lineno}: cannot parse coordinates {sx!r}, {sy!r}")
                lab = slab
                if classes is not None:
                    if lab not in mapping:
                        raise ParseError(f"line {lineno}: unexpected class {lab!r}")
                elif lab not in mapping:
                    if len(mapping) == 2:
                        raise InvalidInputError(
                            f"more than two classes: {sorted(mapping)} and {lab!r} "
                            f"(line {lineno})"
                        )
                    mapping[lab] = len(mapping) + 1
                xs.append(x)
                ys.append(y)
                labels.append(mapping[lab])
        except csv.Error as e:
            raise ParseError(f"{path}: line {end + 1}: {e}")
    if not labels:
        raise ParseError(f"{path}: no data rows")
    if len(set(labels)) < 2:
        raise InvalidInputError("input has fewer than 2 classes")
    return LabeledPointSet(np.column_stack([xs, ys]), np.array(labels))


def outcome(reader, path, **kw):
    try:
        pts = reader(path, **kw)
    except (ParseError, InvalidInputError) as e:
        return type(e), str(e)
    return pts.points.tobytes(), pts.labels.tolist()


def write_bytes(tmp_path, data, name="pts.csv"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# -- generated files ---------------------------------------------------------

NUMBERS = ["0", "1", "-2.5", "3e-1", " 4 ", "1_000", "nan", "inf", "-inf", "1e500",
           " 5 ", "١٢", "\x1c6", "abc", "1__0", "", " ", "0x10"]
LABELS = ["a", "b", "c", " a ", "b ", "", " ", "é", "a\x00"]
DELIMITERS = [",", ";", "\t", " "]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def cell(draw, delimiter):
    text = draw(st.sampled_from(NUMBERS + LABELS) | st.text("0123456789.-e_ ab", max_size=4))
    if draw(st.integers(0, 9)) == 0:
        # a quoted field, perhaps holding the delimiter, a line break or a quote
        extra = draw(st.sampled_from(["", delimiter, "\n", "\r\n", '""', "x"]))
        return '"' + text + extra + '"'
    return text


@st.composite
def structured_file(draw):
    delimiter = draw(st.sampled_from(DELIMITERS))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rec = delimiter * draw(st.integers(0, 3))  # blank: [], [''], ['', ''] ...
        elif kind == 1:
            rec = delimiter.join(draw(st.lists(cell(delimiter), max_size=4)))
        elif kind == 2:
            rec = delimiter.join(draw(st.sampled_from([" ", "\t", ""])) for _ in range(3))
        else:
            x, y = draw(st.sampled_from(NUMBERS[:8])), draw(st.sampled_from(NUMBERS[:8]))
            lab = draw(st.sampled_from(LABELS[:5]))
            rec = delimiter.join(draw(cell(delimiter)) if kind == 3 else v
                                 for v in (x, y, lab))
        records.append(rec)
    ends = [draw(st.sampled_from(ENDINGS)) for _ in records]
    text = "".join(r + e for r, e in zip(records, ends))
    if records and draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no final line break
    return text, delimiter


@st.composite
def raw_file(draw):
    delimiter = draw(st.sampled_from(DELIMITERS))
    text = draw(st.text("01.5e-_ abéc" + delimiter + '"\r\n\x00\x1c', max_size=60))
    return text, delimiter


read_options = st.fixed_dictionaries({
    "has_header": st.booleans(),
    "classes": st.sampled_from([None, None, ("a", "b"), ("b", "a")]),
})


@pytest.mark.parametrize("block", [None, 1, 7],
                         ids=["default_blocks", "one_char_one_row", "seven_char_blocks"])
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file=structured_file() | raw_file(), options=read_options,
       field_limit=st.sampled_from([None, None, 3]))
def test_ingest_matches_reference(tmp_path, block, file, options, field_limit):
    text, delimiter = file
    path = write_bytes(tmp_path, text.encode("utf-8"))
    kw = dict(options, delimiter=delimiter)
    old_limit = csv.field_size_limit()
    with mock.patch.object(dataio, "_BLOCK_CHARS", block or dataio._BLOCK_CHARS), \
         mock.patch.object(dataio, "_BLOCK_ROWS", block or dataio._BLOCK_ROWS):
        try:
            if field_limit is not None:
                csv.field_size_limit(field_limit)
            got = outcome(ingest, path, **kw)
            want = outcome(reference_ingest, path, **kw)
        finally:
            csv.field_size_limit(old_limit)
    assert got == want


def test_large_file_is_byte_identical(tmp_path):
    rng = np.random.default_rng(11)
    n = 200_000
    pts = rng.random((n, 2)) * 1e3
    labs = np.where(rng.random(n) < 0.5, "p", "q")
    text = "x,y,label\n" + "".join(
        f"{x!r},{y:.6f},{lab}\n" for (x, y), lab in zip(pts.tolist(), labs.tolist())
    )
    path = write_bytes(tmp_path, text.encode("utf-8"))
    got, want = ingest(path), reference_ingest(path)
    assert got.points.tobytes() == want.points.tobytes()
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.points[:, 0], pts[:, 0])


# -- fixed cases -------------------------------------------------------------

class TestFormat:
    def test_python_float_rules(self, tmp_path):
        path = write_bytes(tmp_path, b"x,y,label\n 1_000 ,\xc2\xa02 ,a\n1e0,-0.5,b\n")
        assert ingest(path).points.tolist() == [[1000.0, 2.0], [1.0, -0.5]]
        for bad in (b"nan", b"inf", b"1e500"):
            path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n" + bad + b",1,b\n")
            with pytest.raises(InvalidInputError, match="finite"):
                ingest(path)

    def test_line_ends_blank_rows_and_quotes(self, tmp_path):
        data = b'x,y,label\r\n0,0,a\r\r\n , ,\n1,0,"b\nc"\r2,"0",a'
        pts = ingest(write_bytes(tmp_path, data))
        assert pts.points.tolist() == [[0, 0], [1, 0], [2, 0]]
        assert pts.labels.tolist() == [1, 2, 1]

    def test_blank_first_record_is_the_header(self, tmp_path):
        pts = ingest(write_bytes(tmp_path, b"\n0,0,a\n1,0,b\n"))
        assert pts.n == 2
        with pytest.raises(ParseError, match="line 3: cannot parse"):
            ingest(write_bytes(tmp_path, b"\n0,0,a\nx,0,b\n"))

    def test_first_error_in_file_order(self, tmp_path):
        data = b"x,y,label\n0,0,a\n1,0,b\n2,0,c\n3,zz,a\n"
        with pytest.raises(InvalidInputError, match=r"line 4\)"):
            ingest(write_bytes(tmp_path, data))
        with pytest.raises(ParseError, match="line 4: expected 3 columns"):
            ingest(write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0,b\n2,0\n3,0,c\n"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        pts = ingest(write_bytes(tmp_path, b"\xef\xbb\xbf0.1,0,a\n1,0,b\n"), has_header=False)
        assert pts.points.tolist() == [[0.1, 0.0], [1.0, 0.0]]
        assert pts.labels.tolist() == [1, 2]


class TestBlockBoundaries:
    """Files cut into reads of a few characters: each read is completed to
    its line end, so records, CRLFs and line numbers do not see the cuts."""

    @staticmethod
    def both(path, chars, **kw):
        with mock.patch.object(dataio, "_BLOCK_CHARS", chars):
            got = outcome(ingest, path, **kw)
        assert got == outcome(reference_ingest, path, **kw)
        return got

    def test_crlf_split_across_two_reads(self, tmp_path):
        data = b"x,y,label\r\n0,0,a\r\n1,0,b\r\n2,zz,a\r\n"
        path = write_bytes(tmp_path, data)
        for chars in (10, 17):  # each read ends just after a CR
            assert data.decode()[:chars].endswith("\r")
            assert self.both(path, chars) == (ParseError, "line 4: cannot parse coordinates '2', 'zz'")
        assert self.both(path, 1) == self.both(path, 1 << 16)

    def test_lone_cr_file_without_lf(self, tmp_path):
        path = write_bytes(tmp_path, b"x,y,label\r0,0,a\r\r1,0.5,b\r2,0,a\r")
        for chars in (1, 4, 9, 10, 1 << 16):
            pts, labels = self.both(path, chars)
            assert np.frombuffer(pts).tolist() == [0, 0, 1, 0.5, 2, 0]
            assert labels == [1, 2, 1]

    def test_no_final_line_break(self, tmp_path):
        path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0,b")
        for chars in (1, 6, 16, 1 << 16):
            assert self.both(path, chars)[1] == [1, 2]
        path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0")
        for chars in (1, 6, 16, 1 << 16):
            assert self.both(path, chars) == (ParseError, "line 3: expected 3 columns, got 2")

    def test_first_quote_in_a_later_block_keeps_line_numbers(self, tmp_path):
        rows = [f"{i},0,{'ab'[i % 2]}" for i in range(20)]
        rows[12] = '12,"0        \n",a'  # one record over two lines
        rows[15] = "15,0"
        path = write_bytes(tmp_path, ("x,y,l\n" + "\n".join(rows) + "\n").encode())
        # row 15 is the file's 17th record, on line 18
        for chars in (1, 16, 64, 1 << 16):
            assert self.both(path, chars) == (ParseError, "line 18: expected 3 columns, got 2")
        old_limit = csv.field_size_limit(8)
        try:
            for chars in (16, 64):
                assert self.both(path, chars) == (
                    ParseError, f"{path}: line 14: field larger than field limit (8)"
                )
        finally:
            csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_errors_after_a_field_over_two_lines_name_their_line(self, tmp_path, ending):
        # the label "a<line break>b" takes lines 2 and 3
        head = ending.join(["x,y,label", '0,0,"a', 'b"', "1,0,c", ""])
        limit = csv.field_size_limit()
        path = str(tmp_path / "pts.csv")
        for bad, error in [
            ("2,x,c", "line 5: cannot parse coordinates '2', 'x'"),
            ("2,x", "line 5: expected 3 columns, got 2"),
            ("2,0," + "c" * (limit + 1), f"{path}: line 5: field larger than field limit ({limit})"),
        ]:
            write_bytes(tmp_path, (head + bad + ending).encode())
            for chars in (1, 16, 1 << 16):
                assert self.both(path, chars) == (ParseError, error)

    @pytest.mark.parametrize("delimiter", ["§", "\u2192", ";"])
    def test_non_ascii_delimiter_and_labels(self, tmp_path, delimiter):
        rows = ["x", "y", "label"], ["0", "0", "é"], ["1", " 2 ", "日本"], ["2", "0", " é"]
        text = "\n".join(delimiter.join(r) for r in rows) + "\n"
        path = write_bytes(tmp_path, text.encode())
        for chars in (1, 5, 1 << 16):
            pts, labels = self.both(path, chars, delimiter=delimiter)
            assert np.frombuffer(pts).tolist() == [0, 0, 1, 2, 2, 0]
            assert labels == [1, 2, 1]
        # the block's shape is recognized: no record is read row by row
        with mock.patch.object(dataio._Columns, "add_rows", side_effect=AssertionError):
            assert ingest(path, delimiter=delimiter).n == 3
        bad = text + delimiter.join(["3", "0", "é", "x"]) + "\n"
        path = write_bytes(tmp_path, bad.encode())
        for chars in (1, 5, 1 << 16):
            assert self.both(path, chars, delimiter=delimiter) == (
                ParseError, "line 5: expected 3 columns, got 4"
            )


class TestBadInput:
    def test_undecodable_byte(self, tmp_path, capsys):
        path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0,\xe9\n2,0,b\n")
        with pytest.raises(ParseError, match=r"pts\.csv: byte 20: not valid UTF-8"):
            ingest(path)
        assert main(["analyze", path]) == 3
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_oversized_field(self, tmp_path, capsys):
        label = b"b" * (csv.field_size_limit() + 1)
        path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0," + label + b"\n2,0,b\n")
        with pytest.raises(ParseError, match=r"pts\.csv: line 3: field larger"):
            ingest(path)
        assert main(["analyze", path]) == 3
        assert "field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("delimiter", [";;", "", '"', "\n", "\r", None])
    def test_bad_delimiter(self, tmp_path, delimiter):
        path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0,b\n")
        with pytest.raises(InvalidInputError, match="delimiter"):
            ingest(path, delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", [";;", "", '"'])
    def test_bad_delimiter_is_a_usage_error(self, tmp_path, capsys, delimiter):
        path = write_bytes(tmp_path, b"x,y,label\n0,0,a\n1,0,b\n")
        assert main(["analyze", path, "--delimiter", delimiter]) == 2
        assert "usage error: delimiter" in capsys.readouterr().err

"""Reading and writing the package's text files.

Every reader of an outside file (spectrum and calibration CSVs, their
.meta.json sidecars, cube files, configs) goes through these helpers: an
unreadable, non-UTF-8 or malformed file, or a bad or non-finite number,
raises the reader's error class with a message that begins with the file
path, plus ":<line>" when one line is at fault.  An output path that
cannot be written raises DataFormatError "<path>: cannot write: ...".

Every input is read once, in bytes, by read_text (a cube's header in
capped lines) and refused past its cap: MAX_JSON_BYTES for a config or
sidecar, a cap from its dims for a cube.  Spectrum and calibration CSVs
are read by read_table: a file of plain numbers in one np.loadtxt pass,
any other file or a pipe one line and one float() at a time, with the
same values and messages either way.  A table past MAX_TABLE_BYTES
bytes or MAX_TABLE_ROWS rows is refused before it is read whole.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from array import array
from contextlib import contextmanager, nullcontext
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataFormatError

if TYPE_CHECKING:  # numpy loads only where a table or a cube body is parsed
    from ._numpy import np

# The most rows a table holds (the most samples simulate writes), and the
# most bytes: a header and that many of write_table's longest rows, three
# 24-character float reprs, two commas and a newline
MAX_TABLE_ROWS = 1_000_000
MAX_TABLE_BYTES = (MAX_TABLE_ROWS + 1) * 75
MAX_JSON_BYTES = 1 << 20  # a config or a sidecar, each under 1 KB
_PLAIN = b"0123456789+-.eE, \t\r\n"  # what np.loadtxt may see below a header


def sidecar_path(path) -> Path:
    """The .meta.json sidecar that rides along with a table."""
    return Path(path).with_suffix(".meta.json")


@contextmanager
def open_input(path, error):
    """A file's binary stream; a failure to open, read or decode it as UTF-8 raises error."""
    try:
        with open(path, "rb") as stream:
            yield stream
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's strerror omits the path
        raise error(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def read_text(path, error, limit=MAX_TABLE_BYTES, kind="a table", stream=None) -> str:
    """The UTF-8 text of a file or the rest of its open stream, refused past limit bytes."""
    with open_input(path, error) if stream is None else nullcontext(stream) as stream:
        data = bytearray()
        while chunk := stream.read(1 << 20):
            data += chunk
            _past_limit(path, len(data), limit, "bytes", kind, error)
        return data.decode("utf-8")


def read_json(path, error):
    """The JSON value a file holds; malformed JSON raises error."""
    text = read_text(path, error, MAX_JSON_BYTES, "a JSON file")
    try:  # line ends translated, as json counts lines and columns at \n only
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (ValueError, RecursionError) as exc:  # ValueError: also over-long integers
        raise error(f"{path}: not valid JSON: {exc}") from exc


def numbers(path, lineno: int, tokens, error) -> list[float]:
    """The finite floats the tokens of one line spell."""
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise error(f"{path}:{lineno}: bad number {token!r}") from None
        if not math.isfinite(values[-1]):
            raise error(f"{path}:{lineno}: non-finite number {token!r}")
    return values


def number_block(path, first_lineno: int, text: str, error) -> np.ndarray:
    """The finite floats of the lines of text as one array; numbers() walks them only to name a fault."""
    from ._numpy import np
    # np.fromstring parses the text in one C pass, but reads a blank text
    # as [-1.], may stop early at a NUL, and rejects some tokens float()
    # accepts ("1_0", non-ASCII digits); at a bad token older NumPy only
    # warns (DeprecationWarning) and returns the values before it.  Those
    # texts, a bad token and a non-finite value take the token path,
    # which sets every value and message
    if text.isascii() and text.strip() and "\0" not in text:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            pass
        else:
            if np.isfinite(values).all():
                return values
    return np.array([value for lineno, line in enumerate(text.splitlines(), start=first_lineno)
                     for value in numbers(path, lineno, line.split(), error)])


def _lines(text: str):
    """(number, line) of each line of text as str.splitlines() counts them, one at a time."""
    pieces = (match.group() for match in re.finditer(r"[^\n]*\n?", text))
    return enumerate((line for piece in pieces for line in piece.splitlines()), start=1)


def _rows(text: str):
    """(line number, line) of each non-blank line of a table below its header."""
    return ((lineno, line) for lineno, line in _lines(text) if lineno > 1 and line.strip())


def _past_limit(path, count: int, limit: int, unit: str, kind="a table", error=DataFormatError):
    if count > limit:
        raise error(f"{path}: more than {limit:,} {unit}, the limit for {kind}")


def _blank_or_float(cell: str) -> float:
    return float(cell) if cell.strip() else math.nan


def _refusal(table, names, checks) -> tuple[int | None, str, str] | None:
    """(row, column name, rule) of the first rule a parsed table breaks, or None.

    row is None where no one row is at fault: a column blank in some rows only.
    """
    from ._numpy import np
    for j, name in enumerate(names):
        blank = np.isnan(table[:, j])
        if blank.any() and not blank.all():
            return None, name, "must be given for all rows or none"
        if name in checks and not blank.any() and not (ok := checks[name][0](table[:, j])).all():
            return int(np.argmin(ok)), name, checks[name][1]
    return None


def _c_pass(path, headers, required: int, checks) -> np.ndarray | None:
    """read_table's array in one np.loadtxt pass, or None for a file only the walk may read."""
    import lzma
    from ._numpy import np
    # np.loadtxt breaks lines and strips cells at other characters than
    # str.splitlines() and float() do, so it sees only a header line that
    # matches as it stands and a body of _PLAIN bytes.  It is given a path,
    # as on a file object it reads line by line in Python; an absolute one,
    # which numpy takes for no URL.  numpy picks a decompressor by suffix,
    # which fails on a text file
    try:
        with open(path, "rb") as stream:
            header = stream.readline().rstrip(b"\r\n").strip(b" \t").decode("latin-1")
            if header not in headers or any(chunk.translate(None, _PLAIN) for chunk in
                                            iter(lambda: stream.read(1 << 20), b"")):
                return None
        names = header.split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows; a blank line
            table = np.loadtxt(os.path.abspath(path), delimiter=",", comments=None, skiprows=1,
                               ndmin=2, encoding="utf-8", max_rows=MAX_TABLE_ROWS + 1,
                               converters=dict.fromkeys(range(required, len(names)),
                                                        _blank_or_float))
    except (OSError, ValueError, lzma.LZMAError):
        return None
    _past_limit(path, len(table), MAX_TABLE_ROWS, "rows")
    # a NaN is a blank cell, as _PLAIN spells no nan
    if table.shape[1] != len(names) or np.isinf(table).any() or _refusal(table, names, checks):
        return None
    return table


def _walk(path, headers, required: int, checks) -> np.ndarray:
    """read_table's array one line and one float() at a time; it names every fault."""
    from ._numpy import np
    # read once, as path may be a pipe; str.splitlines() breaks at \r, \r\n too
    text = read_text(path, DataFormatError)
    header = next(_lines(text), (1, ""))[1].strip()
    if header not in headers:
        raise DataFormatError(f"{path}:1: expected header {' or '.join(map(repr, headers))}")
    names = header.split(",")
    values, fault = array("d"), None
    for nrows, (lineno, line) in enumerate(_rows(text), start=1):
        cells = line.split(",")
        if len(cells) != len(names):  # a wrong row comes before any bad number
            raise DataFormatError(f"{path}:{lineno}: expected {len(names)} columns, "
                                  f"got {len(cells)}")
        _past_limit(path, nrows, MAX_TABLE_ROWS, "rows")
        kept = [j for j, cell in enumerate(cells) if j < required or cell.strip()]
        try:
            row = dict(zip(kept, numbers(path, lineno, [cells[j] for j in kept], DataFormatError)))
        except DataFormatError as exc:
            fault, row = fault or exc, {}
        values.extend(row.get(j, math.nan) for j in range(len(names)))
    if fault:
        raise fault
    table = np.array(values).reshape(-1, len(names))
    if refusal := _refusal(table, names, checks):
        row, name, rule = refusal
        where = "" if row is None else f":{next(islice(_rows(text), row, None))[0]}"
        raise DataFormatError(f"{path}{where}: {name} {rule}")
    return table


def read_table(path, headers, checks=None) -> np.ndarray:
    """The (rows, columns) floats of a CSV below one of headers, NaN for a blank cell.

    Blank lines are skipped.  A column that not every header has may be
    blank in every row or in none; any other cell is a finite number.
    checks maps a column name to (test, rule): test takes the column's
    values and tells which keep the rule, and the first that does not is
    refused at its line as "<name> <rule>".  A file past MAX_TABLE_BYTES
    bytes or MAX_TABLE_ROWS rows is refused before it is read whole.
    """
    checks = checks or {}
    required = min(header.count(",") for header in headers) + 1
    if os.path.isfile(path):  # a pipe cannot be read twice, nor sized
        _past_limit(path, os.path.getsize(path), MAX_TABLE_BYTES, "bytes")
        table = _c_pass(path, headers, required, checks)
        if table is not None:
            return table
    return _walk(path, headers, required, checks)


def read_sidecar(path, types) -> dict | None:
    """The fields of a table's sidecar named in types, or None without a sidecar.

    types maps a field to (the types json.loads may give it, their
    description); a JSON true/false is no number.
    """
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        return None
    data = read_json(sidecar, DataFormatError)
    if not isinstance(data, dict):
        raise DataFormatError(f"{sidecar}: expected a JSON object")
    fields = {key: data[key] for key in types if key in data}
    for key, value in fields.items():
        kinds, what = types[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise DataFormatError(f"{sidecar}: {key} must be {what}")
    return fields


def write_lines(path, lines) -> Path:
    """Write lines as UTF-8 text, each ended by a newline."""
    path = Path(path)
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot write: {exc.strerror or exc}") from exc
    return path


def write_json(path, data) -> None:
    """data as sorted, two-space-indented JSON; to stdout when path is None."""
    text = json.dumps(data, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        write_lines(path, [text])


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(float(value))


def write_table(path, header: str, rows, meta: dict | None = None) -> Path:
    """A CSV (numbers as repr, None as a blank cell) and, unless meta is None, its sidecar."""
    path = write_lines(path, [header, *(",".join(map(_cell, row)) for row in rows)])
    if meta is not None:
        write_json(sidecar_path(path), meta)
    return path

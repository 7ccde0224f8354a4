"""Reading and writing the package's text files.

Every reader of an outside file (spectrum and calibration CSVs, their
.meta.json sidecars, cube files, configs) goes through these helpers: an
unreadable, non-UTF-8 or malformed file, or a bad or non-finite number,
raises the reader's error class with a message that begins with the file
path, plus ":<line>" when one line is at fault.  An output path that
cannot be written raises DataFormatError "<path>: cannot write: ...".

Every input is read once, in bytes, by read_bytes (a cube's header in
capped lines) and refused past its cap: MAX_JSON_BYTES for a config or
sidecar, a cap from its dims for a cube.  Spectrum and calibration CSVs
are read by read_table: a file of plain numbers in one np.loadtxt pass,
any other file or a pipe one line and one float() at a time, with the
same values and messages either way.  A table past MAX_TABLE_BYTES
bytes or MAX_TABLE_ROWS rows is refused before it is read whole.  A cube
body is parsed by number_block: a body whose numbers share one exponent
layout in one vectorized pass that gives float()'s value for each, any
other body or a faulty one line and one float() at a time.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from array import array
from contextlib import contextmanager, nullcontext
from functools import cache
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


def read_bytes(path, error, limit=MAX_TABLE_BYTES, kind="a table", stream=None) -> bytes:
    """The UTF-8 bytes of a file or the rest of its open stream, refused past limit bytes."""
    with open_input(path, error) if stream is None else nullcontext(stream) as stream:
        # a regular file's rest comes in one read, the bytes of a pipe or a
        # device (whose size reads 0) and any past the size 1 MiB at a time
        rest = os.fstat(stream.fileno()).st_size - stream.tell() if stream.seekable() else 0
        chunks, size = [], 0
        while chunk := stream.read(min(max(rest + 1 - size, 1 << 20), limit + 1 - size)):
            chunks.append(chunk)
            size += len(chunk)
            _past_limit(path, size, limit, "bytes", kind, error)
        data = b"".join(chunks)
        if not data.isascii():
            data.decode("utf-8")  # a fault raises in open_input
        return data


def read_text(path, error, limit=MAX_TABLE_BYTES, kind="a table", stream=None) -> str:
    """The UTF-8 text of a file or the rest of its open stream, refused past limit bytes."""
    return read_bytes(path, error, limit, kind, stream).decode("utf-8")


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


def number_block(path, first_lineno: int, body: bytes, error) -> np.ndarray:
    """The finite floats of the lines of UTF-8 body bytes as one array.

    _exact_pass reads a body in exponent notation; any other body, and a
    faulty one, is walked by numbers() line by line, which names the fault.
    """
    from ._numpy import np
    if (values := _exact_pass(body)) is not None:
        return values
    return np.array([value for lineno, line in enumerate(body.decode("utf-8").splitlines(),
                                                         start=first_lineno)
                     for value in numbers(path, lineno, line.split(), error)])


# _exact_pass reads a body _WINDOW bytes at a time, each window cut after a
# space byte, and takes a window whose bytes are all _BODY_BYTES: there a
# line break is a space, and str.split() and bytes.split() agree
_WINDOW = 1 << 15
_BODY_BYTES = bytes(range(32, 127)) + b"\t\r\n"
_POWERS = range(-270, 271)  # the powers of ten the pass scales by
_token_float = float  # float() of a token the pass leaves undecided


def _exact_pass(body: bytes):
    """float(token) of every token of body, or None where the walk must read it: each
    token of a window has its first token's layout, [+-]d.ddd[eE][+-]d{1,3} with f < 15
    digits after the point (%17.9e and %13.5E among them), and a finite value."""
    from ._numpy import np
    out, pos = array("d"), 0
    while pos < len(body):
        stop = pos + _WINDOW
        if stop < len(body):
            stop = max(body.rfind(space, pos, stop) for space in b" \t\r\n") + 1
            if stop <= pos:
                return None
        window = b"".join((b" ", memoryview(body)[pos:stop], b" " * 24))  # spaces around
        pos = stop
        if window.translate(None, _BODY_BYTES):
            return None
        if tokens := window.split(None, 1):
            values = _window_values(np.frombuffer(window, np.uint8),
                                    tokens[0].lower().find(b"e") - tokens[0].find(b".") - 1)
            if values is None:
                return None
            out.frombytes(values.tobytes())
    return np.frombuffer(out)


def _window_values(buf, f: int):
    """float(token) of each token of buf, spaces around; None if one is off layout f or infinite."""
    from ._numpy import np
    if not 0 <= f < 15:
        return None
    solid = buf > 32
    starts = np.flatnonzero(solid[1:] > solid[:-1]) + 1
    lead = buf[starts]
    first = starts + ((lead == 43) | (lead == 45))  # each token's leading digit
    # row j holds byte j of every token from its leading digit, gathered
    # through a view whose row i is the f + 8 bytes from offset i
    rows = np.ndarray((buf.size - f - 7, f + 8), np.uint8, buf, strides=(1, 1))[first].T.copy()
    digits = rows - 48  # wraps below "0": a digit is below 10
    space = rows[f + 5:] <= 32  # after the exponent's first, second or third digit
    mantissa = digits[[0, *range(2, f + 2)]]
    if not ((mantissa < 10).all(axis=0) & (digits[f + 4] < 10) & (rows[1] == 46)
            & ((rows[f + 2] | 32) == 101) & ((rows[f + 3] == 43) | (rows[f + 3] == 45))
            & (space[0] | ((digits[f + 5] < 10) & (space[1] | ((digits[f + 6] < 10) & space[2]))))
            ).all():
        return None
    # exact: each product and partial sum is an integer below 2**53
    mantissa = np.array([10 ** j for j in range(f, -1, -1)], float) @ mantissa
    exponent = digits[f + 4].astype(np.int64)
    exponent = np.where(space[0], exponent, exponent * 10 + digits[f + 5])
    exponent = np.where(space[0] | space[1], exponent, exponent * 10 + digits[f + 6])
    values, exact = _times_power_of_ten(
        mantissa, np.where(rows[f + 3] == 45, -exponent, exponent) - f)
    np.negative(values, out=values, where=lead == 45)
    for i in np.flatnonzero(~exact):
        values[i] = _token_float(buf[starts[i]:first[i] + f + 8].tobytes().split()[0])
        if not math.isfinite(values[i]):
            return None
    return values


def _split(a):
    """Dekker's split of floats a into halves of 26 bits each, a = hi + lo exactly."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


@cache
def _powers_of_ten():
    """Rows (hi, lo, hi's two halves) over _POWERS: hi + lo is 10**k within 10**k * 2**-106."""
    from ._numpy import np
    pairs = []
    for k in _POWERS:  # an int / int rounds to the nearest float
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        a, b = (num / den).as_integer_ratio()
        pairs.append((num / den, (num * b - a * den) / (den * b)))
    hi, lo = np.array(pairs).T
    return np.stack([hi, lo, *_split(hi)])


def _times_power_of_ten(mantissa, k):
    """(m * 10**k, exact): the product is float()'s where exact, for integers m below 2**53.

    Dekker's two-product gives m * (hi + lo) as r + t within |r| * 2**-103,
    so r is m * 10**k correctly rounded (Clinger 1990; Lemire 2021) for k
    in _POWERS, unless r is a power of two or |t| comes within |r| * 2**-98
    of half r's ulp, as at an exact tie such as 1e23.  A zero m is exact.
    """
    from ._numpy import np
    row = np.clip(k - _POWERS[0], 0, len(_POWERS) - 1)
    hi, lo, hi_a, hi_b = _powers_of_ten()[:, row]
    m_a, m_b = _split(mantissa)
    p = mantissa * hi
    e = ((m_a * hi_a - p) + m_a * hi_b + m_b * hi_a) + m_b * hi_b + mantissa * lo
    r = p + e
    t = (p - r) + e
    exact = ((row == k - _POWERS[0]) & ((r.view(np.int64) & ((1 << 52) - 1)) != 0)
             & (np.abs(t) < np.spacing(r) / 2 - r * 2.0 ** -98)) | (mantissa == 0)
    return r, exact


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

"""Reading and writing the package's text files.

Every reader of an outside file (spectrum and calibration CSVs, their
.meta.json sidecars, cube files, configs) goes through these helpers: an
unreadable, non-UTF-8 or malformed file, or a bad or non-finite number,
raises the reader's error class with a message that begins with the file
path, plus ":<line>" when one line is at fault.  An output path that
cannot be written raises DataFormatError "<path>: cannot write: ...".
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataFormatError


def sidecar_path(path) -> Path:
    """The .meta.json sidecar that rides along with a table."""
    return Path(path).with_suffix(".meta.json")


@contextmanager
def open_text(path, error):
    """A file's UTF-8 text stream; a failure to open or read it raises error."""
    try:
        with open(path, encoding="utf-8") as stream:
            yield stream
    except (OSError, UnicodeDecodeError) as exc:  # an OSError's strerror omits the path
        raise error(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from exc


def read_text(path, error) -> str:
    """The UTF-8 text of a file; a file that cannot be read raises error."""
    with open_text(path, error) as stream:
        return stream.read()


def read_json(path, error):
    """The JSON value a file holds; malformed JSON raises error."""
    text = read_text(path, error)
    try:
        return json.loads(text)
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


def read_rows(path, headers) -> list[tuple[int, list[str]]]:
    """(line number, cells) of each non-blank row below one of headers."""
    lines = read_text(path, DataFormatError).splitlines()
    header = lines[0].strip() if lines else ""
    if header not in headers:
        raise DataFormatError(f"{path}:1: expected header {' or '.join(map(repr, headers))}")
    ncols = header.count(",") + 1
    rows = [(n, line.split(",")) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    for lineno, cells in rows:
        if len(cells) != ncols:
            raise DataFormatError(f"{path}:{lineno}: expected {ncols} columns, got {len(cells)}")
    return rows


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

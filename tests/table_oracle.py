"""Line-by-line oracle for the spectrum and calibration CSV readers.

The library reads a table in one np.loadtxt pass where it can and walks
it one line and one float() at a time where it cannot.  This module
keeps the plain form as the reference the tests compare both against:
the whole text split into lines, every row's column count checked before
any cell is parsed, then each row's cells through float() in order, so
it fixes which values load and which fault each file is refused for.
It reads the whole file at once: small files only.
"""

import math

import numpy as np

from odmrsense import CalibrationSeries, DataFormatError, InvalidParameterError, Spectrum
from odmrsense.calibration import _SIGMA_RULE, _sigma_ok
from odmrsense.spectra import _SIDECAR_TYPES, SpectrumMeta
from odmrsense.textio import read_sidecar, read_text, sidecar_path


def numbers(path, lineno, tokens):
    """The finite floats the tokens of one line spell."""
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: bad number {token!r}") from None
        if not math.isfinite(values[-1]):
            raise DataFormatError(f"{path}:{lineno}: non-finite number {token!r}")
    return values


def read_rows(path, headers):
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


def read_spectrum(path):
    rows = [numbers(path, lineno, cells)
            for lineno, cells in read_rows(path, ("frequency_mhz,signal",))]
    meta = read_sidecar(path, _SIDECAR_TYPES)
    try:
        meta = None if meta is None else SpectrumMeta(**meta)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{sidecar_path(path)}: {exc}") from exc
    try:
        return Spectrum([row[0] for row in rows], [row[1] for row in rows], meta)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def read_calibration(path):
    # only a blank cell means "no sigma"
    headers = ("control_value,frequency_mhz,sigma_mhz", "control_value,frequency_mhz")
    lines = read_rows(path, headers)
    rows = [numbers(path, lineno, cells[:2] + [c for c in cells[2:] if c.strip()])
            for lineno, cells in lines]
    sigma = [row[2] for row in rows if len(row) == 3]
    if 0 < len(sigma) < len(rows):
        raise DataFormatError(f"{path}: sigma_mhz must be given for all rows or none")
    if sigma and not (ok := _sigma_ok(np.array(sigma))).all():
        raise DataFormatError(f"{path}:{lines[int(np.argmin(ok))][0]}: sigma_mhz {_SIGMA_RULE}")
    meta = read_sidecar(path, {"control_unit": (str, "a string"),
                               "label": (str, "a string")}) or {}
    try:
        return CalibrationSeries([row[0] for row in rows], [row[1] for row in rows],
                                 sigma or None, meta.get("control_unit", ""),
                                 meta.get("label", ""))
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

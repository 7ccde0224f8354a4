"""Readers of outside files fail only with the package's own errors.

Whatever bytes a spectrum, calibration, cube or config file (or a
spectrum or calibration sidecar) holds, its reader returns or raises an
OdmrSenseError subclass whose message begins with the path of the
file at fault, which the CLI turns into exit 2 with one `error:` line.  Examples start either from nothing or from a valid
prefix, so they reach the row, header and field parsers as well as the
decoder.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import odmrsense
from odmrsense import (CalibrationSeries, OdmrSenseError, Spectrum, SpectrumMeta, load_cube,
                       read_calibration, read_spectrum, write_calibration, write_spectrum)
from odmrsense.cli import load_config
from odmrsense.errors import ConfigError, CubeParseError
from odmrsense import textio, volumetric
from odmrsense.textio import number_block, numbers

SPECTRUM = "frequency_mhz,signal\n" + "".join(f"{100 + i},0.0\n" for i in range(8))
CALIBRATION = "control_value,frequency_mhz\n" + "".join(
    f"{i},{1400 - i}\n" for i in range(4))
CUBE_HEADER = "c\nc\n0 0 0 0\n2 0.5 0 0\n2 0 0.5 0\n2 0 0 0.5\n"

# name: (reader, file it is given, valid companion files, file the
# example goes to, valid prefix for the example)
CASES = {
    "spectrum": (read_spectrum, "s.csv", {}, "s.csv", "frequency_mhz,signal\n"),
    "spectrum-sidecar": (read_spectrum, "s.csv", {"s.csv": SPECTRUM},
                         "s.meta.json", '{"control_value": '),
    "calibration": (read_calibration, "c.csv", {}, "c.csv",
                    "control_value,frequency_mhz,sigma_mhz\n"),
    "calibration-sidecar": (read_calibration, "c.csv", {"c.csv": CALIBRATION},
                            "c.meta.json", '{"label": '),
    "cube": (load_cube, "o.cube", {}, "o.cube", CUBE_HEADER),
    "config": (load_config, "run.json", {}, "run.json", '{"simulate": {"step": '),
}

TOKENS = ["0", "1", "9", "-", ".", "e", "_", ",", " ", "\n", "\r", "nan", "inf",
          "NaN", "Infinity", "{", "}", "[", "]", '"', ":", "null", "\x85", " "]
CONTENT = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=300).map(str.encode),
    st.lists(st.sampled_from(TOKENS), max_size=80).map(lambda t: "".join(t).encode()),
)


@pytest.mark.parametrize("case", sorted(CASES))
# tmp_path is shared by the examples of one case; each rewrites its files
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prefixed=st.booleans(), content=CONTENT)
def test_reader_raises_only_package_errors(tmp_path, case, prefixed, content):
    reader, given_name, companions, target, prefix = CASES[case]
    for name, text in companions.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    data = (prefix.encode() if prefixed else b"") + content
    (tmp_path / target).write_bytes(data)
    try:
        reader(tmp_path / given_name)
    except OdmrSenseError as exc:
        # the message leads with the file at fault, as "<path>: ..." or "<path>:<line>: ..."
        assert str(exc).startswith(f"{tmp_path / target}:")


def _token_path(text):
    """The cube body parsed one float() token at a time, or its error text."""
    try:
        return [value for lineno, line in enumerate(text.splitlines(), start=7)
                for value in numbers("o.cube", lineno, line.split(), CubeParseError)], None
    except CubeParseError as exc:
        return None, str(exc)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
BODY_TOKEN = st.one_of(
    FLOATS.map(repr), FLOATS.map("%17.9e".__mod__),
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "0x10", "1,5", "\u0661\u0662", "\0",
                     "1\0", "-", "."]))
BODY_LINE = st.one_of(
    st.just(""), st.just("  \t"),
    st.lists(BODY_TOKEN, max_size=6).flatmap(
        lambda tokens: st.sampled_from([" ", "  ", "\t"]).map(lambda sep: sep.join(tokens))))
# what ends a body line: a newline, nothing (the last line), or another
# character str.splitlines() breaks at, which the file reader keeps
LINE_END = st.sampled_from(["\n", "\n", "", "\x0b", "\x0c", "\x1c", "\x1e", "\x85"])
BODY = st.lists(st.tuples(BODY_LINE, LINE_END), max_size=8).map(
    lambda pairs: "".join(line + end for line, end in pairs))


@settings(max_examples=300, deadline=None)
@given(text=BODY)
def test_number_block_matches_token_path(text):
    want, message = _token_path(text)
    try:
        got = number_block("o.cube", 7, text, CubeParseError)
    except CubeParseError as exc:
        assert str(exc) == message
    else:
        assert message is None
        assert got.dtype == np.float64
        assert got.tolist() == want


_FROMSTRING = np.fromstring


def _older_fromstring(text, sep):
    """np.fromstring as NumPy 1.x has it: at a bad token it warns and returns the values before it."""
    tokens = text.split()
    for stop in range(len(tokens), -1, -1):
        try:
            values = _FROMSTRING(" ".join(tokens[:stop]) or "0", sep=sep)[:stop]
        except ValueError:
            continue
        if stop < len(tokens):
            warnings.warn("string or file could not be read to its end due to unmatched data",
                          DeprecationWarning, stacklevel=2)
        return values


@pytest.mark.parametrize("body, where", [("1 2 3 4 5 6 7 8 x\n", ":7: bad number 'x'"),
                                         ("1 2 3 4\nx 5 6 7 8\n", ":8: bad number 'x'")],
                         ids=["trailing", "inner"])
@pytest.mark.parametrize("fromstring", [_FROMSTRING, _older_fromstring],
                         ids=["numpy", "older-numpy"])
def test_bad_token_names_its_line(tmp_path, monkeypatch, fromstring, body, where):
    # the C pass must not return the numbers before a bad token, whether
    # NumPy raises there or only warns (with the warning hidden); textio
    # takes numpy.fromstring as it parses, so the patch is numpy's own
    monkeypatch.setattr(np, "fromstring", fromstring)
    path = tmp_path / "o.cube"
    path.write_text(CUBE_HEADER + body)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(CubeParseError) as info:
            load_cube(path)
    assert str(info.value) == f"{path}{where}"


# The writers' bytes, pinned: CSV cells are float reprs and a blank cell
# is a missing sigma; sidecars are sorted, two-space-indented JSON.
SPECTRUM_CSV = """frequency_mhz,signal
100.0,0.0
100.5,0.1
101.0,-0.25
101.5,1e-05
102.0,0.3333333333333333
102.5,-1.5e-07
103.0,12.0
103.5,0.0
"""
SPECTRUM_META = """{
  "control_unit": "K",
  "control_value": 77.0,
  "noise_sigma": 0.001,
  "seed": 8
}
"""
CALIBRATION_CSV = """control_value,frequency_mhz,sigma_mhz
1.0,1400.5,{}
2.0,1400.25,{}
3.0,1400.0,{}
4.0,1399.75,{}
"""


@pytest.mark.parametrize("meta", [None, SpectrumMeta(0.001, 8, 77.0, "K")],
                         ids=["no-sidecar", "sidecar"])
def test_write_spectrum_bytes(tmp_path, meta):
    signal = [0.0, 0.1, -0.25, 1e-5, 1 / 3, -1.5e-7, 12, 0.0]
    path = write_spectrum(Spectrum(np.arange(8) / 2 + 100, signal, meta), tmp_path / "s.csv")
    assert path.read_bytes() == SPECTRUM_CSV.encode()
    sidecar = tmp_path / "s.meta.json"
    if meta is None:
        assert not sidecar.exists()
    else:
        assert sidecar.read_bytes() == SPECTRUM_META.encode()


@pytest.mark.parametrize("sigma, unit, label, cells, meta", [
    (None, "", "", ("",) * 4, '{\n  "control_unit": "",\n  "label": ""\n}\n'),
    ([0.1, 0.2, 0.3, 1 / 3], "K", "f_xz vs T", ("0.1", "0.2", "0.3", "0.3333333333333333"),
     '{\n  "control_unit": "K",\n  "label": "f_xz vs T"\n}\n'),
], ids=["no-sigma", "sigma"])
def test_write_calibration_bytes(tmp_path, sigma, unit, label, cells, meta):
    series = CalibrationSeries([1, 2, 3, 4], [1400.5, 1400.25, 1400.0, 1399.75], sigma,
                               unit, label)
    path = write_calibration(series, tmp_path / "c.csv")
    assert path.read_bytes() == CALIBRATION_CSV.format(*cells).encode()
    assert (tmp_path / "c.meta.json").read_bytes() == meta.encode()


# Inputs with no end, or with more bytes than their kind may hold, each
# run through cli.main in a child process held to 1 GB of address space:
# a reader that reads them whole fails there fast (MemoryError, exit 1)
# instead of taking the test machine's memory.
BOUNDED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from odmrsense.cli import main
sys.exit(main(sys.argv[1:]))
"""
LINE = f"{volumetric.MAX_LINE_BYTES:,} bytes, the limit for a header line"
JSON_FILE = f"{textio.MAX_JSON_BYTES:,} bytes, the limit for a JSON file"


def zero_sidecar(tmp, name, text):
    """A table written to tmp whose sidecar is a link to /dev/zero."""
    (tmp / f"{name}.csv").write_text(text)
    os.symlink("/dev/zero", tmp / f"{name}.meta.json")
    return f"{name}.csv"


def cube_past_its_header(tmp, text, size=None):
    """A cube of text written to tmp, its size then set to size."""
    (tmp / "o.cube").write_text(text)
    if size is not None:
        os.truncate(tmp / "o.cube", size)  # a sparse tail of NULs
    return ["--homo", "o.cube", "--lumo", "o.cube"]


@pytest.mark.parametrize("command, inputs, message", [
    ("zfs", lambda tmp: ["--homo", "/dev/zero", "--lumo", "/dev/zero"],
     f"/dev/zero:1: more than {LINE}"),
    ("sensitivity", lambda tmp: ["--config", "/dev/zero"], f"/dev/zero: more than {JSON_FILE}"),
    ("fit", lambda tmp: ["--input", zero_sidecar(tmp, "s", SPECTRUM)],
     f"s.meta.json: more than {JSON_FILE}"),
    ("calibrate", lambda tmp: ["--input", zero_sidecar(tmp, "c", CALIBRATION)],
     f"c.meta.json: more than {JSON_FILE}"),
    ("zfs", lambda tmp: cube_past_its_header(tmp, CUBE_HEADER, 4 << 30),
     f"o.cube: more than {64 * 8 + (1 << 20):,} bytes, the limit for this cube"),
    ("zfs", lambda tmp: cube_past_its_header(
        tmp, "c" * volumetric.MAX_LINE_BYTES + "\n" + CUBE_HEADER[2:] + "1 2 3 4 5 6 7 8\n"),
     f"o.cube:1: more than {LINE}"),
], ids=["cube-dev-zero", "config-dev-zero", "spectrum-sidecar-dev-zero",
        "calibration-sidecar-dev-zero", "cube-sparse-tail", "cube-long-comment"])
def test_endless_or_oversize_input_exits_2(tmp_path, command, inputs, message):
    src = str(Path(odmrsense.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",  # few thread stacks under the limit
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", BOUNDED, command, *inputs(tmp_path),
                            "--out", "out.json"],
                           cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (2, f"error: {message}\n")


@pytest.mark.parametrize("line", [2, 1])
def test_header_line_cap(tmp_path, line):
    # a header line of the cap's bytes, its newline counted, is read; one
    # byte more is refused at that line's number
    path = tmp_path / "o.cube"
    lines = CUBE_HEADER.splitlines(keepends=True)
    lines[line - 1] = "c" * (volumetric.MAX_LINE_BYTES - 1) + "\n"
    path.write_text("".join(lines) + "1 2 3 4 5 6 7 8\n")
    assert load_cube(path).values.ravel().tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    lines[line - 1] = "c" + lines[line - 1]
    path.write_text("".join(lines) + "1 2 3 4 5 6 7 8\n")
    with pytest.raises(CubeParseError) as info:
        load_cube(path)
    assert str(info.value) == f"{path}:{line}: more than {LINE}"


def test_body_cap_follows_the_dims(tmp_path):
    # a 2 x 2 x 2 body may hold 64 bytes a sample plus 1 MiB, and no more
    path = tmp_path / "o.cube"
    cap = 64 * 8 + (1 << 20)
    values = "1 2 3 4 5 6 7 8"
    path.write_text(CUBE_HEADER + values + " " * (cap - len(values)))
    assert load_cube(path).values.ravel().tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    path.write_text(CUBE_HEADER + values + " " * (cap + 1 - len(values)))
    with pytest.raises(CubeParseError) as info:
        load_cube(path)
    assert str(info.value) == f"{path}: more than {cap:,} bytes, the limit for this cube"


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_json_fault_position_ignores_line_ends(tmp_path, newline):
    # json counts lines and columns at \n alone; a config or sidecar with
    # CR or CRLF line ends names the same position as with LF
    text = '{\n  "simulate": {\n    "step": 0.5,\n    "seed": x\n  }\n}\n'
    messages = []
    for name, ends in (("lf.json", "\n"), ("other.json", newline)):
        (tmp_path / name).write_bytes(text.replace("\n", ends).encode())
        with pytest.raises(ConfigError) as info:
            load_config(tmp_path / name)
        messages.append(str(info.value).partition(": ")[2])
    assert messages[0] == messages[1] == (
        "not valid JSON: Expecting value: line 4 column 13 (char 47)")

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
# tokens in save_cube's %17.9e layout that the exact pass must leave to
# float(): powers of ten past 1e22 (1e23 is an exact tie), its exponent
# edges, subnormals, an overflow; and a signed zero and a leading +
EDGE_TOKENS = ([f"1.000000000e+{k}" for k in range(22, 31)]
               + [f"{m}e{sign}{k}" for m in ("1.000000000", "9.876543210")
                  for sign in "+-" for k in (269, 270, 271)]
               + ["1.000000000e-320", "4.900000000e-324", "1.800000000e+308",
                  "-0.000000000e+00", "+1.500000000e+00"])
BODY_TOKEN = st.one_of(
    FLOATS.map(repr), FLOATS.map("%17.9e".__mod__), FLOATS.map("%13.5E".__mod__),
    st.sampled_from(EDGE_TOKENS),
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "0x10", "1,5", "\u0661\u0662", "\0",
                     "1\0", "-", ".", "1e-320", "4.9e-324", "1.8e+308"]))


def bodies(tokens, ends=("\n",)):
    """Lines of 0 to 6 tokens, split by runs of spaces, each ended by one of ends."""
    line = st.one_of(st.just(""), st.just("  \t"), st.lists(tokens, max_size=6).flatmap(
        lambda tokens: st.sampled_from([" ", "  ", "\t"]).map(lambda sep: sep.join(tokens))))
    return st.lists(st.tuples(line, st.sampled_from(ends)), max_size=8).map(
        lambda pairs: "".join(line + end for line, end in pairs))


# what ends a body line: a newline, CRLF, nothing (the last line), or
# another character str.splitlines() breaks at, which the file reader keeps
LINE_ENDS = ("\n", "\n", "\r\n", "", "\x0b", "\x0c", "\x1c", "\x1e", "\x85")
# bodies of one layout, which the exact pass reads, with LF or CRLF lines
LAYOUT = st.sampled_from(["%17.9e", "%13.5E", "%+.3e"]).flatmap(
    lambda layout: bodies(st.one_of(FLOATS.map(layout.__mod__),
                                    *[st.sampled_from(EDGE_TOKENS)] * (layout == "%17.9e")),
                          ("\n", "\r\n")))


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(bodies(BODY_TOKEN, LINE_ENDS), LAYOUT))
def test_number_block_matches_token_path(text):
    want, message = _token_path(text)
    try:
        got = number_block("o.cube", 7, text.encode(), CubeParseError)
    except CubeParseError as exc:
        assert str(exc) == message
    else:
        assert message is None
        assert got.dtype == np.float64
        # bit for bit, so a zero keeps its sign
        assert got.view(np.int64).tolist() == np.array(want, float).view(np.int64).tolist()


@pytest.mark.parametrize("layout", ["%17.9e", "%13.5E"])
def test_exact_pass_reads_a_gaussian_body_alone(monkeypatch, layout):
    # a cube body of save_cube's or Gaussian's layout takes no float() per
    # token and no walk, so the exact pass cannot go quietly unused
    dims = (48, 48, 48)
    origin, axes = volumetric.make_grid(dims, (18.0, 18.0, 18.0))
    flat = volumetric.gaussian_orbital(origin, axes, dims, (0.0, 0.0, 5.0), 0.75,
                                       node_axis=0).values.ravel().tolist()
    text = "".join(" ".join([layout] * 6) % tuple(flat[i:i + 6]) + "\n"
                   for i in range(0, len(flat), 6))
    fallbacks = []
    token_float = textio._token_float
    monkeypatch.setattr(textio, "_token_float", lambda token: fallbacks.append(token)
                        or token_float(token))
    monkeypatch.setattr(textio, "numbers", None)  # the walk fails if it runs
    got = number_block("o.cube", 7, text.encode(), CubeParseError)
    assert fallbacks == []
    want = np.array([float(token) for token in text.split()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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


@pytest.mark.parametrize("body, where", [
    ("1 2 3 4 5 6 7 8 x\n", ":7: bad number 'x'"),
    ("1 2 3 4\nx 5 6 7 8\n", ":8: bad number 'x'"),
    ("1.0e+00 " * 8 + "x\n", ":7: bad number 'x'"),
    ("1.0e+00 " * 4 + "\nx" + " 1.0e+00" * 4 + "\n", ":8: bad number 'x'"),
], ids=["trailing", "inner", "exponent-trailing", "exponent-inner"])
@pytest.mark.parametrize("fromstring", [_FROMSTRING, _older_fromstring],
                         ids=["numpy", "older-numpy"])
def test_bad_token_names_its_line(tmp_path, monkeypatch, fromstring, body, where):
    # in exponent notation the exact pass returns no values before a bad token;
    # nor does any pass lean on numpy.fromstring, whether NumPy raises at a bad
    # token or only warns (with the warning hidden) and returns those before it
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

"""The spectrum and calibration readers against the line-by-line oracle.

textio.read_table parses a table in one np.loadtxt pass where that pass
reads what a line-by-line walk would, and walks the file otherwise.  The
values (bit for bit), the C-contiguous arrays and every message must be
the oracle's, whichever path a file takes; a table past the row or byte
limit is refused before it is read whole.
"""

import os
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from odmrsense import (CalibrationSeries, DataFormatError, cli, read_calibration, read_spectrum,
                       textio, write_calibration)

import table_oracle

SPECTRUM = "frequency_mhz,signal"
CALIBRATION = "control_value,frequency_mhz,sigma_mhz"
READERS = {"spectrum": (read_spectrum, table_oracle.read_spectrum),
           "calibration": (read_calibration, table_oracle.read_calibration)}

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# cells float() and np.loadtxt may read differently, or that either refuses
ODD_CELLS = st.sampled_from([
    "", " ", "\t", "nan", "inf", "-Infinity", "1e400", "-1e400", "1e-400", "1_0",
    "\u0661\u0662", "0x10", "1\x0b5", "2\x1c", "\x0c3", "4\x85", "6\u2028", "5 ", " 6", "7\0",
    "+.5", "1e", ".", "-", "1 2", " 3 ", "\t4\t", "5.", "6E+2", "-0.0", "1e-320", "\ufeff1",
    "\xa07"])
# what ends a line other than the file's newline: a break str.splitlines()
# knows, or none
ODD_ENDS = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", " ", ""])


def good_cell(column, row):
    """A cell write_table could have written: rising controls and frequencies, positive sigmas."""
    if column == 0:
        return st.sampled_from([repr(100.0 + row), str(100 + row), f" {100 + row}.25 "])
    return FLOATS.map(repr) if column == 1 else st.floats(1e-3, 1e3).map(repr)


def rarely(draw, one_in):
    return draw(st.integers(1, one_in)) == 1


@st.composite
def tables(draw, header):
    """The bytes of a table below header, mostly clean, with at most a few faults."""
    if rarely(draw, 8):
        header = draw(st.sampled_from([
            header.rsplit(",", 1)[0], f" {header}\t", header + ",x", header.upper(), "",
            "\x0b" + header, "\ufeff" + header, header + "\x0b1,2"]))
    width = header.count(",") + 1
    if rarely(draw, 10):
        width = draw(st.integers(1, 4))  # every row a column short or long, say
    blank_last = width == 3 and draw(st.booleans())  # write_calibration without sigmas
    newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    rows = draw(st.sampled_from([0, 1, 4, 7] + [8, 9, 10, 12] * 3))
    lines = [header]
    for row in range(rows):
        if rarely(draw, 20):
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0b", "\u3000"])))
        cells = [draw(good_cell(j, row)) for j in range(width)]
        if blank_last:
            cells[-1] = "" if not rarely(draw, 25) else draw(st.sampled_from([" ", "0.5"]))
        if rarely(draw, 25):
            cells[draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
        if rarely(draw, 40):
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1.0"]
        lines.append(",".join(cells))
    text = "".join(line + (draw(ODD_ENDS) if rarely(draw, 30) else newline) for line in lines)
    data = text.encode()
    if rarely(draw, 25):  # a byte that is not UTF-8, anywhere
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data[:-len(newline)] if rarely(draw, 4) else data  # no newline at the end


def outcome(reader, path):
    try:
        return reader(path), None
    except DataFormatError as exc:
        return None, str(exc)


def arrays(result):
    if isinstance(result, CalibrationSeries):
        return [result.control, result.freq_mhz, result.freq_sigma]
    return [result.freqs_mhz, result.signal]


@pytest.mark.parametrize("kind, header", [("spectrum", SPECTRUM), ("calibration", CALIBRATION),
                                          ("calibration", "control_value,frequency_mhz")])
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@example(data=None)
def test_reader_matches_oracle(tmp_path, kind, header, data):
    # data=None: the header-only file
    content = (header + "\n").encode() if data is None else data.draw(tables(header))
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    reader, oracle = READERS[kind]
    want, message = outcome(oracle, path)
    got, got_message = outcome(reader, path)
    assert got_message == message
    if want is not None:
        for ours, theirs in zip(arrays(got), arrays(want)):
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()
                assert ours.flags.c_contiguous


@pytest.mark.parametrize("text, message", [
    (f"{CALIBRATION}\n1,2,3,4\n5,6\n", ":2: expected 3 columns, got 4"),
    (f"{SPECTRUM}\n" + "".join(f"{k},0.5,0\n" for k in range(10)),
     ":2: expected 2 columns, got 3"),
    (f"{SPECTRUM}\n1,2\n1\x0b,2\n", ":3: expected 2 columns, got 1"),
    (f"{CALIBRATION}\n" + "".join(f"{k},{k},\n" for k in range(4)) + "9,9,0.1\n",
     ": sigma_mhz must be given for all rows or none"),
], ids=["short-row-after-long", "every-row-too-wide", "vertical-tab", "sigma-mixed"])
def test_where_one_pass_and_the_walk_part_ways(tmp_path, text, message):
    # a short row after a long one (no total count tells it from full
    # rows); every row too wide, which np.loadtxt reads as a wider table;
    # a vertical tab, whitespace to np.loadtxt; sigmas in some rows only,
    # where the one pass reads NaN for the blanks
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    reader = read_spectrum if text.startswith(SPECTRUM) else read_calibration
    with pytest.raises(DataFormatError) as info:
        reader(path)
    assert str(info.value) == f"{path}{message}"


def test_plain_tables_take_one_c_pass(tmp_path, monkeypatch):
    # a write_table file, with or without sigmas, never reaches the walk
    path = tmp_path / "cal.csv"
    write_calibration(CalibrationSeries([1, 2, 3, 4], [10.0, 20.5, 30.0, 40.0]), path)
    want = table_oracle.read_calibration(path)
    monkeypatch.setattr(textio, "_walk", None)
    got = read_calibration(path)
    assert got.freq_sigma is None and got.freq_mhz.tobytes() == want.freq_mhz.tobytes()
    path.write_text(f"{CALIBRATION}\n" + "".join(f"{k},{k}.5,0.{k}\n" for k in range(1, 5)))
    assert read_calibration(path).freq_sigma.tolist() == [0.1, 0.2, 0.3, 0.4]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".zip"])
def test_name_that_looks_compressed_is_read_as_text(tmp_path, suffix):
    # numpy picks a decompressor by suffix, which a text file fails
    path = tmp_path / f"cal.csv{suffix}"
    write_calibration(CalibrationSeries([1, 2, 3, 4], [10.0, 20.5, 30.0, 40.0], [1, 2, 3, 4]),
                      path)
    want, got = table_oracle.read_calibration(path), read_calibration(path)
    assert got.freq_sigma.tobytes() == want.freq_sigma.tobytes()


def test_read_spectrum_peak_is_below_four_times_the_file(tmp_path):
    # the line-by-line reader held near twelve times the file
    path = tmp_path / "spec.csv"
    assert cli.main(["simulate", "--fmin", "50", "--fmax", "1550", "--step", "0.005",
                     "--out", str(path)]) == 0
    tracemalloc.start()
    try:
        spectrum = read_spectrum(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spectrum) == 300_001
    assert peak <= 4 * path.stat().st_size, f"{peak / path.stat().st_size:.2f} x the file"


def rows_past_the_limit(path, header, row):
    """A table of one row more than textio.MAX_TABLE_ROWS."""
    with open(path, "wb") as stream:
        stream.write(header.encode() + b"\n")
        stream.writelines(row % k for k in range(textio.MAX_TABLE_ROWS + 1))


@pytest.mark.parametrize("command, header, row", [
    ("fit", SPECTRUM, b"%d,0\n"),
    ("calibrate", CALIBRATION, b"%d,0,1\n"),
    ("calibrate", CALIBRATION, b"%d,0,\n"),
], ids=["spectrum", "calibration", "calibration-no-sigma"])
def test_table_past_the_row_limit_exits_2(tmp_path, capsys, command, header, row):
    path = tmp_path / "big.csv"
    rows_past_the_limit(path, header, row)
    tracemalloc.start()
    try:
        assert cli.main([command, "--input", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        f"error: {path}: more than {textio.MAX_TABLE_ROWS:,} rows, the limit for a table\n")
    # about the limit's rows as float64, never the whole file's lines as strings
    assert peak < 40e6, f"peaked at {peak / 1e6:.1f} MB"


def test_walk_refuses_past_the_row_limit(tmp_path, monkeypatch):
    # a file only the walk reads stops there too, holding no more than the
    # text it checks for UTF-8 (as bytes, then as str) and the limit's rows
    monkeypatch.setattr(textio, "MAX_TABLE_ROWS", 1000)
    path = tmp_path / "cal.csv"
    path.write_text(f"{CALIBRATION}\n" + "".join(f"{k}_0,{k},\n" for k in range(100_000)))
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="more than 1,000 rows"):
            read_calibration(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


@pytest.mark.parametrize("command, header", [("fit", SPECTRUM), ("calibrate", CALIBRATION)])
def test_table_past_the_byte_limit_exits_2_unread(tmp_path, capsys, command, header):
    path = tmp_path / "huge.csv"
    path.write_text(header + "\n")
    os.truncate(path, textio.MAX_TABLE_BYTES + 1)  # a sparse tail of NULs
    tracemalloc.start()
    try:
        assert cli.main([command, "--input", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == (
        f"error: {path}: more than {textio.MAX_TABLE_BYTES:,} bytes, the limit for a table\n")
    assert peak < 1e6


def test_fit_reads_every_grid_simulate_writes(tmp_path, monkeypatch):
    # one limit for both: simulate writes a grid of MAX_TABLE_ROWS samples,
    # which fit reads, and refuses one more
    monkeypatch.setattr(textio, "MAX_TABLE_ROWS", 1000)
    path = tmp_path / "spec.csv"
    grid = ["simulate", "--fmin", "1300", "--step", "0.125", "--out", str(path)]
    assert cli.main([*grid, "--fmax", "1425"]) == 2
    assert cli.main([*grid, "--fmax", "1424.875"]) == 0
    assert len(read_spectrum(path)) == 1000
    assert cli.main(["fit", "--input", str(path), "--out", str(tmp_path / "fit.json")]) == 0


def through_a_pipe(text):
    """A path that reads text once, as a shell's <(...) does."""
    read, write = os.pipe()
    os.write(write, text.encode())  # below the pipe's buffer
    os.close(write)
    return f"/dev/fd/{read}"


@pytest.mark.parametrize("reader, text", [
    (read_spectrum, f"{SPECTRUM}\n" + "".join(f"{k},0.{k}\n" for k in range(1, 9))),
    (read_calibration, f"{CALIBRATION}\n" + "".join(f"{k},{k},\n" for k in range(1, 5))),
    (read_calibration, f"{CALIBRATION}\n" + "".join(f"{k},{k},{s}\n"
                                                      for k, s in enumerate("1101", start=1))),
    (read_spectrum, f"{SPECTRUM}\n1,2\n\n1,x\n"),
], ids=["spectrum", "calibration", "calibration-bad-sigma", "spectrum-bad-number"])
def test_pipe_is_read_once(tmp_path, reader, text):
    # no second pass over a pipe: the same values, and the same fault at the same line
    path = tmp_path / "t.csv"
    path.write_text(text)
    oracle = {read_spectrum: table_oracle.read_spectrum,
              read_calibration: table_oracle.read_calibration}[reader]
    want, message = outcome(oracle, path)
    pipe = through_a_pipe(text)
    try:
        got, got_message = outcome(reader, pipe)
    finally:
        os.close(int(pipe.rsplit("/", 1)[1]))
    assert got_message == (None if message is None else message.replace(str(path), pipe))
    if want is not None:
        assert [a.tobytes() for a in arrays(got)[:2]] == [a.tobytes() for a in arrays(want)[:2]]


def test_endless_device_is_refused_past_the_byte_limit():
    # no size to check up front: the walk stops reading past the limit
    with pytest.raises(DataFormatError, match="more than 75,000,075 bytes"):
        read_spectrum("/dev/zero")

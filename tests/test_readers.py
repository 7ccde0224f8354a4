"""Readers of outside files fail only with the package's own errors.

Whatever bytes a spectrum, calibration, cube or config file (or a
spectrum or calibration sidecar) holds, its reader returns or raises an
OdmrSenseError subclass, which the CLI turns into exit 2 with one
`error:` line.  Examples start either from nothing or from a valid
prefix, so they reach the row, header and field parsers as well as the
decoder.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from odmrsense import OdmrSenseError, load_cube, read_calibration, read_spectrum
from odmrsense.cli import load_config

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
    except OdmrSenseError:
        pass

"""The declared numeric range, end to end: property tests at its edges.

Every input magnitude is at most 2**100, and every quantity that must be
non-zero (a spread, a step, a sigma, a grid step, a non-zero cube's
largest amplitude, a non-zero sensitivity input) at least 2**-100
(constants.MAX_MAGNITUDE).  Each test draws the binary exponents of its
inputs uniformly over [-110, 110], so that magnitudes are log-uniform
across the range and a little past it, writes them exactly (repr), and
runs one subcommand through cli.main with warnings as errors.  It
classifies the written numbers by the range rule, independently of the
library: inside the range the run exits 0 with an empty stderr and every
JSON number finite, or null only where the output documents it; outside
it exits 2 with one error line.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from odmrsense.cli import main
from odmrsense.constants import MAX_MAGNITUDE

TINY = 1.0 / MAX_MAGNITUDE
EXPONENT = st.floats(-110.0, 110.0)
SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def magnitude_ok(values) -> bool:
    return bool(np.all(np.abs(values) <= MAX_MAGNITUDE))


def nonzero_ok(values) -> bool:
    """Every entry within [2**-100, 2**100] in magnitude."""
    return bool(np.all((np.abs(values) >= TINY) & (np.abs(values) <= MAX_MAGNITUDE)))


def run_cli(capsys, argv, inside):
    """Exit 0 with an empty stderr inside the range, else exit 2 and one
    error line; nothing warns either way."""
    event("inside the range" if inside else "past the range")
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    if inside:
        assert (code, captured.err) == (0, "")
    else:
        assert code == 2
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    return captured.out


def nulls(data, path=()):
    """Paths of the nulls in parsed JSON; a non-finite number cannot parse."""
    if data is None:
        return [path]
    if isinstance(data, dict):
        return [p for key, value in data.items() for p in nulls(value, (*path, key))]
    if isinstance(data, list):
        return [p for i, value in enumerate(data) for p in nulls(value, (*path, i))]
    return []


def strict_json(path):
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, **SETTINGS)
@given(n=st.integers(6, 30), segments=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       control_exp=EXPONENT, freq_exp=EXPONENT, offset_exp=EXPONENT, sigma_exp=EXPONENT,
       offset=st.booleans(), weighted=st.booleans())
def test_calibrate(tmp_path, capsys, n, segments, seed, control_exp, freq_exp, offset_exp,
                   sigma_exp, offset, weighted):
    """A kinked log, its controls, frequencies and sigmas scaled by 2**exponent
    and its controls perhaps offset; a one-segment fit also reads out the
    frequency at its middle sample.  Only a segment of two unweighted
    samples may write its sigmas and covariance as null."""
    rng = np.random.default_rng(seed)
    u = np.cumsum(rng.uniform(0.5, 2.0, n))
    control = u * 2.0 ** control_exp + (2.0 ** offset_exp if offset else 0.0)
    freq = (1445.0 - 0.1 * u - 0.4 * np.maximum(u - u[n // 2], 0.0)
            + rng.normal(0.0, 0.05, n)) * 2.0 ** freq_exp
    sigma = rng.uniform(0.5, 2.0, n) * 2.0 ** sigma_exp if weighted else None
    steps, spread = np.abs(np.diff(control)), freq.max() - freq.min()
    inside = (magnitude_ok(control) and magnitude_ok(freq) and nonzero_ok(steps)
              and (spread == 0 or spread >= TINY) and (sigma is None or nonzero_ok(sigma))
              and np.all(np.diff(control) > 0))
    path, out = tmp_path / "cal.csv", tmp_path / "cal.json"
    cells = [""] * n if sigma is None else [repr(v) for v in sigma.tolist()]
    path.write_text("control_value,frequency_mhz,sigma_mhz\n" + "".join(
        f"{c!r},{f!r},{s}\n" for c, f, s in zip(control.tolist(), freq.tolist(), cells)))
    out.unlink(missing_ok=True)
    readout = ["--invert-frequency", repr(float(freq[n // 2]))] if segments == 1 else []
    run_cli(capsys, ["calibrate", "--input", path, "--segments", segments, "--out", out,
                     *readout], inside)
    if not inside:
        assert not out.exists()
        return
    payload = strict_json(out)
    for where in nulls(payload):
        assert where[0] == "segments" and where[2] in (
            "slope_sigma", "intercept_sigma", "cov_slope_intercept"), where
        a, b = payload["segments"][where[1]]["index_range"]
        assert (b - a, sigma) == (2, None), where


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, **SETTINGS)
@given(seed=st.integers(0, 2 ** 32 - 1), freq_exp=EXPONENT, signal_exp=EXPONENT,
       centers=st.booleans())
def test_fit(tmp_path, capsys, seed, freq_exp, signal_exp, centers):
    """Two noisy lines on a 1330-1455 MHz grid, frequencies and signal scaled
    by 2**exponent, fitted from auto guesses or from given centres."""
    rng = np.random.default_rng(seed)
    f = np.linspace(1330.0, 1455.0, 200)
    s = np.zeros_like(f)
    for c, a in ((1339.0, 0.01), (1445.0, -0.01)):
        s += a / (1.0 + ((f - c) / 2.0) ** 2)
    freqs, signal = f * 2.0 ** freq_exp, (s + rng.normal(0.0, 5e-4, f.size)) * 2.0 ** signal_exp
    inside = magnitude_ok(freqs) and magnitude_ok(signal) and freqs[-1] - freqs[0] >= TINY
    path, out = tmp_path / "spec.csv", tmp_path / "fit.json"
    path.write_text("frequency_mhz,signal\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(freqs.tolist(), signal.tolist())))
    out.unlink(missing_ok=True)
    guesses = ["--centers", f"{1339.0 * 2.0 ** freq_exp!r},{1445.0 * 2.0 ** freq_exp!r}",
               "--fwhm-guess", repr(4.0 * 2.0 ** freq_exp)] if centers else []
    run_cli(capsys, ["fit", "--input", path, "--out", out, *guesses], inside)
    if inside:
        assert nulls(strict_json(out)) == []
    else:
        assert not out.exists()


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, **SETTINGS)
@given(exps=st.lists(EXPONENT, min_size=4, max_size=4))
def test_sensitivity(capsys, exps):
    inputs = [2.0 ** e for e in exps]
    out = run_cli(capsys, ["sensitivity", "--sigma", repr(inputs[0]), "--tau", repr(inputs[1]),
                           "--signal-slope", repr(inputs[2]), "--calib-slope", repr(inputs[3])],
                  nonzero_ok(inputs))
    if nonzero_ok(inputs):
        assert 0.0 < json.loads(out)["eta"] < math.inf


def write_cube(path, origin, axes, values):
    """A cube file in angstrom (negative atom count), every number exact."""
    def record(count, vector):
        return " ".join([str(count), *(repr(float(v)) for v in vector)])
    lines = ["cube", "drawn", record(-1, origin),
             *(record(n, axis) for n, axis in zip(values.shape, axes)),
             record(1, [0.0, *origin]), *map(repr, values.ravel().tolist())]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.filterwarnings("error")
@settings(max_examples=50, **SETTINGS)
@given(seed=st.integers(0, 2 ** 32 - 1), step_exps=st.lists(EXPONENT, min_size=3, max_size=3),
       origin_exp=EXPONENT, value_exps=st.lists(EXPONENT, min_size=2, max_size=2),
       skew=st.booleans())
def test_zfs(tmp_path, capsys, seed, step_exps, origin_exp, value_exps, skew):
    """Two 6^3 cubes of random amplitudes on one lattice: steps, origin and
    each cube's largest amplitude scaled by 2**exponent, the axes perhaps
    sheared.  The single-phase output writes comparison and
    cutoff_angstrom as null."""
    rng = np.random.default_rng(seed)
    axes = np.diag([2.0 ** e for e in step_exps])
    if skew:
        axes += np.triu(rng.uniform(-0.5, 0.5, (3, 3)), 1) * np.diag(axes)[:, None]
    origin = rng.uniform(-1.0, 1.0, 3) * 2.0 ** origin_exp
    cubes, inside = [], (magnitude_ok(origin) and magnitude_ok(axes)
                         and nonzero_ok(np.linalg.norm(axes, axis=1))
                         and abs(np.linalg.det(axes)) >= TINY ** 3)
    for name, exp in zip(("homo", "lumo"), value_exps):
        values = rng.normal(size=(6, 6, 6))
        values *= 2.0 ** exp / np.abs(values).max()
        inside = inside and nonzero_ok([np.abs(values).max()])
        cubes.append(tmp_path / f"{name}.cube")
        write_cube(cubes[-1], origin, axes, values)
    out = tmp_path / "zfs.json"
    out.unlink(missing_ok=True)
    run_cli(capsys, ["zfs", "--homo", cubes[0], "--lumo", cubes[1], "--out", out], inside)
    if inside:
        assert sorted(nulls(strict_json(out))) == [("comparison",), ("cutoff_angstrom",)]
    else:
        assert not out.exists()

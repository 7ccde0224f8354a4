"""End-to-end command line tests.

Every invocation goes through main(argv) so exit codes and output files
are exercised exactly as a shell user would see them.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator

from odmrsense import (CalibrationSeries, LineModel, OrbitalGrid, cli, dipolar,
                       gaussian_orbital, make_grid, save_cube, synthesize, volumetric,
                       write_calibration)
from odmrsense.cli import CONFIG_SCHEMA, _plain, build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity tokens RFC 8259 leaves out."""
    def refuse(token):
        raise ValueError(f"{path.name} holds {token}")
    return json.loads(path.read_text(), parse_constant=refuse)


def write_cubes(tmp_path, shifted=False):
    dims = (20, 16, 12)
    origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
    homo = gaussian_orbital(origin, axes, dims, (0.0, 0.0, 0.0),
                            (1.5, 0.8, 0.5))
    center = (0.04, 0.0, 0.0) if shifted else (0.0, 0.0, 0.0)
    lumo = gaussian_orbital(origin, axes, dims, center,
                            (1.5, 0.8, 0.5), node_axis=0)
    hp = tmp_path / ("homo_b.cube" if shifted else "homo.cube")
    lp = tmp_path / ("lumo_b.cube" if shifted else "lumo.cube")
    save_cube(homo, hp)
    save_cube(lumo, lp)
    return hp, lp


class TestSimulate:
    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--seed", 3, "--noise", "0.001",
                       "--windows", "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.meta.json").exists()

    def test_svg_output(self, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        assert run("simulate", "--seed", 1, "--windows",
                   "--out", out, "--svg", svg) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_bad_amplitudes(self, tmp_path):
        code = run("simulate", "--amplitudes", "1,2", "--windows",
                   "--out", tmp_path / "x.csv")
        assert code == 2


class TestFit:
    def simulate_windows(self, tmp_path):
        out = tmp_path / "spec.csv"
        # explicit amplitudes: the default low-field line contrast is
        # below this noise floor and unfittable by design
        assert run("simulate", "--seed", 4, "--noise", "0.0005",
                   "--amplitudes", "0.01,-0.01,0.01",
                   "--windows", "--out", out) == 0
        return out

    def test_fit_pipeline(self, tmp_path):
        spec = self.simulate_windows(tmp_path)
        out = tmp_path / "fit.json"
        code = run("fit", "--input", spec,
                   "--centers", "106,1339,1445", "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        centers = sorted(p["center"] for p in payload["peaks"])
        assert centers == pytest.approx([106.0, 1339.0, 1445.0], abs=0.3)
        assert payload["n_samples"] > 0

    def test_auto_guess_fit(self, tmp_path):
        spec = self.simulate_windows(tmp_path)
        out = tmp_path / "fit.json"
        assert run("fit", "--input", spec, "--out", out) == 0
        assert len(json.loads(out.read_text())["peaks"]) == 3

    @pytest.mark.parametrize("guesses", [("--centers", "1339,1445"), ()], ids=["centers", "auto"])
    @pytest.mark.parametrize("column, row, value", [
        ("signal", 200, 2.0 ** 500), ("signal", 200, -2.0 ** 500),
        ("signal", 200, math.nextafter(2.0 ** 500, math.inf)), ("signal", 200, 1e300),
        ("freqs_mhz", 399, 2.0 ** 500), ("freqs_mhz", 399, math.nextafter(2.0 ** 500, math.inf))],
        ids=["signal-at-bound", "signal-at-minus-bound", "signal-past-bound", "signal-1e300",
             "frequency-at-bound", "frequency-past-bound"])
    def test_sample_magnitude_bound(self, tmp_path, capsys, guesses, column, row, value):
        """A sample past 2**500 ends in one error line; one at the bound fits quietly."""
        lines = [LineModel.symmetric(c, 2.0, a) for c, a in ((1339.0, 0.01), (1445.0, -0.01))]
        spectrum = synthesize(lines, np.linspace(1330.0, 1455.0, 400), noise_sigma=5e-4, seed=7)
        table = np.column_stack([spectrum.freqs_mhz, spectrum.signal])
        table[row, ("freqs_mhz", "signal").index(column)] = value
        path, out = tmp_path / "spec.csv", tmp_path / "fit.json"
        path.write_text("frequency_mhz,signal\n"
                        + "".join(f"{f!r},{s!r}\n" for f, s in table.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", "--input", path, *guesses, "--out", out)
        err = capsys.readouterr().err
        if abs(value) <= 2.0 ** 500:
            assert (code, err) == (0, "")
            payload = strict_json(out)
            assert payload["peaks"]
            assert None not in [p[key] for p in payload["peaks"]
                                for key in ("center_sigma", "residual_rms")]
        else:
            assert (code, err) == (2, f"error: {path}: {column} entries must be at most "
                                      f"2**500 in magnitude\n")
            assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-150, 1e-160])
    def test_frequency_span_floor(self, tmp_path, capsys, scale):
        """The default spectrum at frequencies x 1e-150 fits quietly; at x 1e-160 its span
        is below 2**-500 and ends in one error line."""
        spec, path, out = tmp_path / "spec.csv", tmp_path / "scaled.csv", tmp_path / "fit.json"
        assert run("simulate", "--out", spec) == 0
        table = np.loadtxt(spec, delimiter=",", skiprows=1)
        path.write_text("frequency_mhz,signal\n"
                        + "".join(f"{f * scale!r},{s!r}\n" for f, s in table.tolist()))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("fit", "--input", path, "--out", out)
        err = capsys.readouterr().err
        if scale == 1e-150:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: {path}: frequency grid must span at least "
                                      f"2**-500 MHz\n")
            assert not out.exists()

    def test_flat_spectrum_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{100.0 + 0.5 * i},0.0" for i in range(64))
        path.write_text("frequency_mhz,signal\n" + rows + "\n")
        assert run("fit", "--input", path) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_zero_amplitude_line_not_converged(self, tmp_path, capsys):
        # a line that fits at zero amplitude has no centre: its sigma is
        # undefined, not zero, and the fit does not count as converged
        path = tmp_path / "zero.csv"
        rows = "\n".join(f"{100.0 + 0.5 * i},0.0" for i in range(40))
        path.write_text("frequency_mhz,signal\n" + rows + "\n")
        out = tmp_path / "fit.json"
        assert run("fit", "--input", path, "--centers", 110, "--out", out) == 1
        assert "did not converge" in capsys.readouterr().err
        (peak,) = strict_json(out)["peaks"]
        assert peak["amplitude"] == 0.0
        assert peak["center_sigma"] is None
        assert peak["converged"] is False

    def test_broken_csv(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("frequency_mhz,signal\n1.0,zap\n")
        assert run("fit", "--input", path) == 2

    def test_infinite_sigma_written_as_null(self, tmp_path, monkeypatch):
        spec = self.simulate_windows(tmp_path)

        def singular(_):
            raise np.linalg.LinAlgError("SVD did not converge")

        # fit_peaks then reports center_sigma = inf and an unconverged fit
        monkeypatch.setattr(np.linalg, "pinv", singular)
        out = tmp_path / "fit.json"
        assert run("fit", "--input", spec, "--centers", "106,1339,1445", "--out", out) == 1
        assert [p["center_sigma"] for p in strict_json(out)["peaks"]] == [None] * 3


class TestCalibrate:
    def write_series(self, tmp_path):
        t = np.arange(0.0, 30.0, 1.0)
        f = np.where(t < 15, 1400.0 - 0.5 * t, 1392.5 - 2.0 * (t - 15.0))
        path = tmp_path / "cal.csv"
        lines = ["control_value,frequency_mhz"]
        lines += [f"{float(ti)!r},{float(fi)!r}" for ti, fi in zip(t, f)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_two_segment_fit(self, tmp_path):
        out = tmp_path / "cal.json"
        code = run("calibrate", "--input", self.write_series(tmp_path),
                   "--segments", 2, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        slopes = [s["slope"] for s in payload["segments"]]
        assert slopes == pytest.approx([-0.5, -2.0], abs=1e-9)

    def test_invert_frequency(self, tmp_path):
        out = tmp_path / "cal.json"
        code = run("calibrate", "--input", self.write_series(tmp_path),
                   "--segments", 2, "--invert-frequency", "1398.0",
                   "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["readout"]["control"] == pytest.approx(4.0, abs=1e-9)

    def test_missing_file(self, tmp_path):
        assert run("calibrate", "--input", tmp_path / "nope.csv") == 2

    @pytest.mark.parametrize("sigma", ["1e-153", "1e-76", "1e85", "1e100", "1e153", "1.2e154"])
    def test_uniform_sigma_of_any_magnitude(self, tmp_path, capsys, sigma):
        """One sigma on every row leaves the breakpoints and the readout where
        sigma = 1 puts them, and scales the slope and intercept sigmas with it."""
        t = np.geomspace(77.0, 330.0, 12)
        f = np.where(t <= 200.0, 1445.0 - 0.04 * (t - 77.0), 1440.08 - 0.2 * (t - 200.0))
        f += np.random.default_rng(0).normal(0.0, 0.05, t.size)
        fits = []
        for cell in ("1", sigma):
            path, out = tmp_path / f"cal_{cell}.csv", tmp_path / f"cal_{cell}.json"
            path.write_text("control_value,frequency_mhz,sigma_mhz\n" + "".join(
                f"{c!r},{v!r},{cell}\n" for c, v in zip(t.tolist(), f.tolist())))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run("calibrate", "--input", path, "--segments", 2,
                           "--invert-frequency", 1443, "--out", out)
            assert (code, capsys.readouterr().err) == (0, "")
            assert "null" not in out.read_text()
            fits.append(strict_json(out))
        unit, scaled = fits
        assert scaled["breakpoints"] == unit["breakpoints"]
        assert scaled["readout"]["control"] == pytest.approx(unit["readout"]["control"],
                                                             rel=1e-12)
        for a, b in zip(unit["segments"], scaled["segments"]):
            for key in ("slope_sigma", "intercept_sigma"):
                assert b[key] / float(sigma) == pytest.approx(a[key], rel=1e-9)

    def test_sse_past_float_range_is_null_without_warning(self, tmp_path, capsys):
        """sigma = 1e-154 on a 3,000-point three-region log: each weighted SSE
        tops 1e308 and is written null, the fit itself is found, and nothing
        warns."""
        t = np.linspace(77.0, 330.0, 3000)
        v1 = 1445.0 - 0.040 * (193.0 - 77.0)
        v2 = v1 + 2.0 - 0.247 * (260.0 - 193.0)
        f = np.where(t <= 193.0, 1445.0 - 0.040 * (t - 77.0),
                     np.where(t <= 260.0, v1 + 2.0 - 0.247 * (t - 193.0),
                              v2 - 0.101 * (t - 260.0)))
        f += np.random.default_rng(7).normal(0.0, 0.05, t.size)
        path, out = tmp_path / "cal.csv", tmp_path / "cal.json"
        write_calibration(CalibrationSeries(t, f, np.full(t.size, 1e-154)), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("calibrate", "--input", path, "--segments", 3, "--out", out)
        assert (code, capsys.readouterr().err) == (0, "")
        payload = strict_json(out)
        assert payload["total_sse"] is None
        assert [seg["sse"] for seg in payload["segments"]] == [None] * 3
        assert all(0.0 < seg[key] < 1e-150 for seg in payload["segments"]
                   for key in ("slope_sigma", "intercept_sigma"))
        assert payload["breakpoints"] == pytest.approx([193.0, 260.0], abs=2.0)

    def test_ambiguous_frequency_names_segments(self, tmp_path, capsys):
        assert run(*write_overlapping_calibration(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == "error: 1412.0 MHz falls in overlapping segments [0, 1]\n"


class TestZfs:
    @pytest.mark.parametrize("scale", [1e60, 1e-60])
    def test_tensor_past_float_range_one_error_line(self, tmp_path, capsys, scale):
        """A grid whose pair phase overflows is refused with one error line and no warning."""
        dims = (12, 10, 8)
        origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
        paths = []
        for name, node in (("homo", None), ("lumo", 0)):
            grid = gaussian_orbital(origin, axes, dims, (0, 0, 0), (1.5, 0.8, 0.5),
                                    node_axis=node)
            paths.append(save_cube(OrbitalGrid(grid.origin * scale, grid.axes * scale,
                                               grid.values), tmp_path / f"{name}.cube"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("zfs", "--homo", paths[0], "--lumo", paths[1],
                       "--out", tmp_path / "zfs.json")
        err = capsys.readouterr().err
        assert (code, err) == (2, "error: tensor contains non-finite entries\n")

    def test_single_phase_json(self, tmp_path):
        homo, lumo = write_cubes(tmp_path)
        out = tmp_path / "zfs.json"
        code = run("zfs", "--homo", homo, "--lumo", lumo, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["comparison"] is None
        assert payload["phases"]["a"]["d_mhz"] > 0

    def test_two_phase_threads_identical(self, tmp_path):
        homo, lumo = write_cubes(tmp_path)
        homo_b, lumo_b = write_cubes(tmp_path, shifted=True)
        outs = []
        for name, threads in (("one.json", 1), ("two.json", 2)):
            out = tmp_path / name
            table = tmp_path / (name + ".csv")
            code = run("zfs", "--homo", homo, "--lumo", lumo,
                       "--homo-b", homo_b, "--lumo-b", lumo_b,
                       "--threads", threads, "--out", out, "--table", table)
            assert code == 0
            outs.append((out.read_bytes(), table.read_bytes()))
        assert outs[0] == outs[1]
        payload = json.loads(outs[0][0])
        assert set(payload["comparison"]) == {"eigenvalues_a", "eigenvalues_b", "delta_mhz",
                                              "dominant_axis", "params_a", "params_b"}
        for name in ("a", "b"):
            phase = payload["phases"][name]
            assert payload["comparison"][f"params_{name}"] == {"D": phase["d_mhz"],
                                                               "E": phase["e_mhz"]}
            assert payload["comparison"][f"eigenvalues_{name}"] == phase["eigenvalues_mhz"]
        table_text = outs[0][1].decode()
        assert table_text.splitlines()[0].startswith("phase,eig_x_mhz")

    def test_kernel_built_once_per_mesh(self, tmp_path, monkeypatch):
        homo, lumo = write_cubes(tmp_path)
        homo_b, lumo_b = write_cubes(tmp_path, shifted=True)
        builds = []
        kernel_table = dipolar._kernel_table
        monkeypatch.setattr(dipolar, "_kernel_table",
                            lambda *a: builds.append(a) or kernel_table(*a))
        dipolar._kernel_transforms.cache_clear()
        two_phase = ("zfs", "--homo", homo, "--lumo", lumo,
                     "--homo-b", homo_b, "--lumo-b", lumo_b,
                     "--out", tmp_path / "zfs.json")
        # the thread count is no part of the kernel's cache key
        for threads in (1, 2, 1):
            assert run(*two_phase, "--threads", threads) == 0
        assert len(builds) == 1
        assert run(*two_phase, "--cutoff", "0.8") == 0
        assert len(builds) == 2
        dims = (8, 8, 8)
        origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
        small = tmp_path / "small.cube"
        save_cube(gaussian_orbital(origin, axes, dims, (0, 0, 0), (1, 1, 1)), small)
        assert run("zfs", "--homo", small, "--lumo", small,
                   "--out", tmp_path / "small.json") == 0
        assert len(builds) == 3

    @pytest.mark.parametrize("flag, config", [(("--threads", "0"), None),
                                              ((), {"zfs": {"threads": 0}})],
                             ids=["flag", "config"])
    def test_bad_threads_refused_before_reading_cubes(self, tmp_path, monkeypatch, capsys,
                                                      flag, config):
        homo, lumo = write_cubes(tmp_path)
        loads = []
        monkeypatch.setattr(volumetric, "load_cube", lambda path: loads.append(path))
        if config is not None:
            flag = write_config(tmp_path, config)
        assert run("zfs", "--homo", homo, "--lumo", lumo, *flag) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert loads == []

    def test_unpaired_phase_b(self, tmp_path):
        homo, lumo = write_cubes(tmp_path)
        assert run("zfs", "--homo", homo, "--lumo", lumo,
                   "--homo-b", homo) == 2

    def test_mismatched_grids(self, tmp_path):
        homo, lumo = write_cubes(tmp_path)
        dims = (8, 8, 8)
        origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
        other = gaussian_orbital(origin, axes, dims, (0, 0, 0), (1, 1, 1))
        small = tmp_path / "small.cube"
        save_cube(other, small)
        assert run("zfs", "--homo", homo, "--lumo", small) == 2


def spoil_line(path, lineno, token="x"):
    """Replace the first number on one line of a cube file by token."""
    lines = path.read_text().splitlines()
    lines[lineno - 1] = " ".join([token] + lines[lineno - 1].split()[1:])
    path.write_text("\n".join(lines) + "\n")


# a 1000^3 header, past volumetric.MAX_CUBE_SAMPLES, with no body
OVERSIZE_HEADER = "a\nb\n0 0 0 0\n1000 1 0 0\n1000 0 1 0\n1000 0 0 1\n"


class TestZfsCubePairs:
    """Each phase's HOMO and LUMO cubes are parsed in turn: a cube error is the first
    cube's in that order."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the usable CPU count and counts forks; no child may outlive the test."""
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def usable(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                raising=False)
            forks.clear()
            return forks
        yield usable
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # two usable CPUs (id "forked") or one (id "in-turn"): no child is forked either way
    @pytest.mark.parametrize("n_cpus", [2, 1], ids=["forked", "in-turn"])
    @pytest.mark.parametrize("spoil, message", [
        (lambda homo, lumo: spoil_line(lumo, 10), "lumo.cube:10: bad number 'x'"),
        (lambda homo, lumo: (spoil_line(homo, 12), spoil_line(lumo, 10)),
         "homo.cube:12: bad number 'x'"),
        (lambda homo, lumo: lumo.write_text(OVERSIZE_HEADER),
         f"lumo.cube: cube of 1000 x 1000 x 1000 samples exceeds the limit of "
         f"{volumetric.MAX_CUBE_SAMPLES:,}"),
        (lambda homo, lumo: (lumo.write_text(OVERSIZE_HEADER), spoil_line(homo, 12, "nan")),
         "homo.cube:12: non-finite number 'nan'"),
    ], ids=["lumo-bad-token", "both-bad-homo-first", "lumo-oversize", "homo-first-over-oversize"])
    def test_cube_faults_exit_2_with_the_in_turn_message(self, tmp_path, capsys, cpus,
                                                         n_cpus, spoil, message):
        homo, lumo = write_cubes(tmp_path)
        spoil(homo, lumo)
        forks = cpus(n_cpus)
        assert run("zfs", "--homo", homo, "--lumo", lumo) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}{os.sep}{message}\n"
        assert forks == []

    @pytest.mark.parametrize("phase_b, message", [
        (("--homo-b", "", "--lumo-b", ""), "error: : cannot read: "),
        (("--lumo-b", ""), "error: --homo-b and --lumo-b must come together"),
    ], ids=["both-empty", "lumo-empty"])
    def test_empty_phase_b_paths_refused(self, tmp_path, capsys, phase_b, message):
        """An empty phase-b path counts as given, not absent, and is refused."""
        homo, lumo = write_cubes(tmp_path)
        out = tmp_path / "zfs.json"
        assert run("zfs", "--homo", homo, "--lumo", lumo, *phase_b, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and len(err.splitlines()) == 1
        assert not out.exists()


class TestSensitivity:
    def test_value(self, tmp_path, capsys):
        code = run("sensitivity", "--sigma", "2e-4", "--tau", "1.0",
                   "--signal-slope", "1.6e-3", "--calib-slope", "1.8",
                   "--unit", "bar/sqrt(Hz)")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta"] == pytest.approx(0.0694444444, rel=1e-6)
        assert payload["unit"] == "bar/sqrt(Hz)"

    def test_missing_inputs(self, capsys):
        assert run("sensitivity", "--sigma", "2e-4") == 2
        assert "tau" in capsys.readouterr().err

    def test_threads_flag_belongs_to_zfs(self):
        with pytest.raises(SystemExit) as exc:
            run("sensitivity", "--threads", "0")
        assert exc.value.code == 2


def write_spectrum_with_sidecar(tmp_path, sidecar):
    path = tmp_path / "spec.csv"
    rows = "\n".join(f"{100.0 + 0.5 * i},0.0" for i in range(16))
    path.write_text("frequency_mhz,signal\n" + rows + "\n")
    (tmp_path / "spec.meta.json").write_text(sidecar)
    return ("fit", "--input", path)


def write_calibration_with_sidecar(tmp_path, sidecar):
    path = tmp_path / "cal.csv"
    rows = "\n".join(f"{float(i)},{1400.0 - i}" for i in range(8))
    path.write_text("control_value,frequency_mhz\n" + rows + "\n")
    (tmp_path / "cal.meta.json").write_text(sidecar)
    return ("calibrate", "--input", path)


def write_sigma_calibration(tmp_path, cells):
    path = tmp_path / "cal.csv"
    rows = "\n".join(f"{float(i)},{1400.0 - i},{cell}" for i, cell in enumerate(cells))
    path.write_text("control_value,frequency_mhz,sigma_mhz\n" + rows + "\n")
    return ("calibrate", "--input", path)


def write_overlapping_calibration(tmp_path):
    """A rising then falling log: 1412 MHz lies on both of its two segments."""
    path = tmp_path / "cal.csv"
    rows = "\n".join(f"{float(i)},{1400.0 + 2.0 * i if i < 10 else 1420.0 - 1.5 * (i - 10)}"
                     for i in range(20))
    path.write_text("control_value,frequency_mhz\n" + rows + "\n")
    return ("calibrate", "--input", path, "--segments", "2", "--invert-frequency", "1412")


def write_narrow_calibration(tmp_path, scale):
    """The 12-point 77-330 K log with every control multiplied by scale."""
    t = np.geomspace(77.0, 330.0, 12) * scale
    path = tmp_path / "cal.csv"
    path.write_text("control_value,frequency_mhz\n" + "".join(
        f"{c!r},{1445.0 - 0.1 * i!r}\n" for i, c in enumerate(t.tolist())))
    return ("calibrate", "--input", path, "--segments", "2")


def write_fit_centers(tmp_path, centers):
    path = tmp_path / "spec.csv"
    rows = "\n".join(f"{100.0 + 0.5 * i},0.0" for i in range(16))
    path.write_text("frequency_mhz,signal\n" + rows + "\n")
    return ("fit", "--input", path, "--centers", centers)


def write_config(tmp_path, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))  # NaN and Infinity go in as JSON literals
    return ("--config", cfg)


def cube_flags(tmp_path):
    homo, lumo = write_cubes(tmp_path)
    return ("--homo", homo, "--lumo", lumo)


def overwrite(tmp_path, argv, name, data=b"\xff\xfe not UTF-8\n"):
    """Replace one input of an invocation with raw bytes (default: not UTF-8)."""
    (tmp_path / name).write_bytes(data)
    return argv


SENSITIVITY = ("sensitivity", "--sigma", "2e-4", "--tau", "1.0")
BIG = 10 ** 400  # a JSON integer no float can hold


@pytest.mark.parametrize("argv", [
    lambda tmp: ("simulate", "--amplitudes", "0.01,x,0.01", "--windows",
                 "--out", tmp / "x.csv"),
    lambda tmp: ("simulate", "--step", "0", "--out", tmp / "x.csv"),
    lambda tmp: write_spectrum_with_sidecar(tmp, "[1, 2]"),
    lambda tmp: write_spectrum_with_sidecar(tmp, '"seed"'),
    lambda tmp: write_calibration_with_sidecar(tmp, "[1, 2]"),
    lambda tmp: write_calibration_with_sidecar(tmp, '"label"'),
    lambda tmp: ("zfs", *write_config(tmp, {"zfs": {"method": "direct"}}),
                 *cube_flags(tmp)),
    lambda tmp: write_fit_centers(tmp, "1339,abc"),
    lambda tmp: write_fit_centers(tmp, ",,"),
    lambda tmp: ("simulate", "--fmin", "0", "--fmax", "1e9", "--step", "1e-9",
                 "--out", tmp / "x.csv"),
    lambda tmp: ("simulate", "--windows", "--step", "1e-9", "--out", tmp / "x.csv"),
    lambda tmp: overwrite(tmp, write_spectrum_with_sidecar(tmp, "{}"), "spec.csv"),
    lambda tmp: overwrite(tmp, write_spectrum_with_sidecar(tmp, "{}"), "spec.meta.json"),
    lambda tmp: overwrite(tmp, write_calibration_with_sidecar(tmp, "{}"), "cal.csv"),
    lambda tmp: overwrite(tmp, write_calibration_with_sidecar(tmp, "{}"), "cal.meta.json"),
    lambda tmp: overwrite(tmp, ("zfs", "--homo", tmp / "o.cube", "--lumo", tmp / "o.cube"),
                      "o.cube"),
    lambda tmp: overwrite(tmp, ("sensitivity", *write_config(tmp, {})), "run.json"),
    lambda tmp: overwrite(tmp, ("zfs", "--homo", tmp / "o.cube", "--lumo", tmp / "o.cube"),
                          "o.cube", OVERSIZE_HEADER.encode()),
    lambda tmp: ("zfs", *cube_flags(tmp), "--cutoff", "nan"),
    lambda tmp: ("zfs", *cube_flags(tmp), "--cutoff", "inf"),
    lambda tmp: ("zfs", *write_config(tmp, {"zfs": {"cutoff_angstrom": float("nan")}}),
                 *cube_flags(tmp)),
    lambda tmp: ("simulate", "--step", "inf", "--out", tmp / "x.csv"),
    lambda tmp: ("simulate", *write_config(tmp, {"simulate": {"step": float("inf")}}),
                 "--out", tmp / "x.csv"),
    lambda tmp: ("simulate", "--windows", "--control-value", "nan", "--out", tmp / "x.csv"),
    lambda tmp: ("simulate", *write_config(tmp, {"simulate": {"control_value": float("nan")}}),
                 "--windows", "--out", tmp / "x.csv"),
    lambda tmp: write_spectrum_with_sidecar(tmp, '{"control_value": NaN}'),
    lambda tmp: (*SENSITIVITY, "--signal-slope", "0", "--calib-slope", "1.8"),
    lambda tmp: (*SENSITIVITY, "--signal-slope", "1.6e-3", "--calib-slope", "0"),
    lambda tmp: ("sensitivity", "--sigma", "1e300", "--tau", "1e300",
                 "--signal-slope", "1e-300", "--calib-slope", "1e-300"),
    lambda tmp: ("sensitivity", "--sigma", "1", "--tau", "1",
                 "--signal-slope", "1e-200", "--calib-slope", "1e-200"),
    lambda tmp: ("sensitivity", "--sigma", "1e-300", "--tau", "1e-300",
                 "--signal-slope", "1e300", "--calib-slope", "1e300"),
    lambda tmp: overwrite(tmp, ("sensitivity", *write_config(tmp, {})), "run.json",
                          b"[" * 100_000),
    lambda tmp: ("simulate", *write_config(tmp, {"simulate": {"d_mhz": BIG}}),
                 "--windows", "--out", tmp / "x.csv"),
    lambda tmp: (*write_calibration_with_sidecar(tmp, "{}"),
                 *write_config(tmp, {"calibrate": {"invert_frequency": BIG}})),
    lambda tmp: ("simulate", *write_config(tmp, {"kinetics": {"pump_rate": BIG}}),
                 "--windows", "--out", tmp / "x.csv"),
    lambda tmp: ("sensitivity", *write_config(tmp, {"sensitivity": {"sigma": BIG}}),
                 "--tau", "1.0", "--signal-slope", "1.6e-3", "--calib-slope", "1.8"),
    lambda tmp: overwrite(tmp, ("sensitivity", *write_config(tmp, {})), "run.json",
                          b'{"seed": 1' + b"0" * 5000 + b"}"),
    lambda tmp: ("simulate", "--seed", "-1", "--noise", "0.001", "--windows",
                 "--out", tmp / "x.csv"),
    write_overlapping_calibration,
    lambda tmp: write_sigma_calibration(tmp, ["nan"] * 8),
    lambda tmp: write_sigma_calibration(tmp, ["0.1"] * 7 + ["inf"]),
    lambda tmp: write_sigma_calibration(tmp, ["1e-155"] * 8),
    lambda tmp: write_sigma_calibration(tmp, ["1.4e154"] * 8),
    lambda tmp: write_calibration_with_sidecar(tmp, '{"control_unit": null}'),
    lambda tmp: write_spectrum_with_sidecar(tmp, '{"seed": [1]}'),
    lambda tmp: write_spectrum_with_sidecar(tmp, '{"noise_sigma": NaN, "seed": 5}'),
    lambda tmp: write_spectrum_with_sidecar(tmp, '{"noise_sigma": -1e999}'),
    lambda tmp: write_spectrum_with_sidecar(tmp, '{"noise_sigma": -0.001}'),
    lambda tmp: write_spectrum_with_sidecar(tmp, '{"seed": -5}'),
    lambda tmp: write_narrow_calibration(tmp, 1e-200),
    lambda tmp: write_narrow_calibration(tmp, 1e-160),
], ids=["amplitudes-not-a-number", "step-zero", "spectrum-sidecar-list",
        "spectrum-sidecar-string", "calibration-sidecar-list",
        "calibration-sidecar-string", "zfs-method-config",
        "centers-not-a-number", "centers-empty", "grid-too-large",
        "window-grid-too-large", "spectrum-not-utf8", "spectrum-sidecar-not-utf8",
        "calibration-not-utf8", "calibration-sidecar-not-utf8", "cube-not-utf8",
        "config-not-utf8", "cube-oversize", "cutoff-nan", "cutoff-inf", "cutoff-config-nan", "step-inf",
        "step-config-inf", "control-value-nan", "control-value-config-nan",
        "spectrum-sidecar-control-value-nan", "signal-slope-zero", "calib-slope-zero",
        "eta-overflows", "eta-slopes-underflow", "eta-underflows",
        "config-nested-too-deep", "d-mhz-config-too-big", "invert-frequency-config-too-big",
        "pump-rate-config-too-big", "sigma-config-too-big", "config-int-too-many-digits",
        "seed-negative", "invert-frequency-ambiguous", "sigma-all-nan", "sigma-one-inf",
        "sigma-weight-overflows", "sigma-weight-underflows",
        "calibration-sidecar-unit-null", "spectrum-sidecar-seed-list",
        "spectrum-sidecar-noise-nan", "spectrum-sidecar-noise-minus-inf",
        "spectrum-sidecar-noise-negative", "spectrum-sidecar-seed-negative",
        "control-spread-squared-zero", "control-spread-squared-subnormal"])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    assert run(*argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    lambda tmp: (*SENSITIVITY, "--signal-slope", "1.6e-3", "--calib-slope", "1.8", "--out"),
    lambda tmp: ("simulate", "--windows", "--out", tmp / "x.csv", "--svg"),
    lambda tmp: ("zfs", *cube_flags(tmp), "--out", tmp / "zfs.json", "--table"),
], ids=["out", "svg", "table"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir" / "output"
    assert run(*argv(tmp_path), missing) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: cannot write: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "simulate": {"seed": 5, "noise_sigma": 0.001, "windows": True},
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", cfg, "--out", a) == 0
        assert run("simulate", "--seed", 5, "--noise", "0.001",
                   "--windows", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    # seed and threads live in the simulate and zfs sections; simulate
    # always sets the kinetics microwave rate and pair itself
    @pytest.mark.parametrize("config", [{"seed": 5}, {"threads": 2},
                                        {"kinetics": {"mw_rate": 7.0}},
                                        {"kinetics": {"mw_pair": "xz"}}],
                             ids=["seed", "threads", "mw_rate", "mw_pair"])
    def test_removed_key_rejected(self, tmp_path, capsys, config):
        (key,) = config.get("kinetics", config)
        assert run("simulate", *write_config(tmp_path, config), "--windows",
                   "--out", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{key}' was unexpected" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"simulate": {"nois": 0.001}}))
        assert run("simulate", "--config", cfg,
                   "--out", tmp_path / "x.csv") == 2

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run("simulate", "--config", cfg,
                   "--out", tmp_path / "x.csv") == 2

    def test_flag_overrides_config(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", *write_config(tmp_path, {"simulate": {"noise_sigma": 0.001}}),
                   "--noise", "0", "--windows", "--out", a) == 0
        assert run("simulate", "--windows", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


SECTIONS = CONFIG_SCHEMA["properties"]

# any JSON value: null, bools, strings, numbers and nested containers
JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=3) | st.integers() | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4)


def numbers_near(spec):
    """Numbers at and just past a slot's bounds, integral floats, NaN and infinities."""
    edges = [spec[k] for k in ("minimum", "maximum", "exclusiveMinimum") if k in spec]
    near = [e + d for e in edges for d in (-1, 0, 1)]
    near += [math.nextafter(e, side) for e in edges for side in (-math.inf, math.inf)]
    near += [0, 1, 1.0, 2.0, -1.0, 0.5, math.nan, math.inf, -math.inf, 10 ** 400, True, False]
    return st.sampled_from(near) | st.integers() | st.floats()


def near_valid(spec):
    """A value of one of the slot's types, drawn near its bounds and lengths."""
    kinds = spec["type"] if isinstance(spec["type"], list) else [spec["type"]]
    items = spec.get("items", {})
    length = st.integers(max(spec.get("minItems", 0) - 1, 0), spec.get("maxItems", 4) + 1)
    draw = {
        "number": numbers_near(spec), "integer": numbers_near(spec),
        "array": length.flatmap(lambda n: st.lists(numbers_near(items) | JSON,
                                                    min_size=n, max_size=n)),
        "boolean": st.booleans(), "string": st.text(max_size=3), "null": st.none(),
    }
    return st.one_of([draw[kind] for kind in kinds])


@st.composite
def configs(draw):
    """Near-valid sections with up to two faults: an extra key or any JSON value."""
    config = {}
    for section in draw(st.lists(st.sampled_from(sorted(SECTIONS)), unique=True)):
        props = SECTIONS[section]["properties"]
        keys = draw(st.lists(st.sampled_from(sorted(props)), unique=True))
        config[section] = {key: draw(near_valid(props[key])) for key in keys}
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([config, *(v for v in config.values()
                                                  if isinstance(v, dict))]))
        key = draw(st.sampled_from(sorted(target)) | st.text(max_size=3) if target
                   else st.text(max_size=3))
        target[key] = draw(JSON)
    return draw(st.just(config) | JSON)


REFERENCE = Draft202012Validator(CONFIG_SCHEMA)


class TestSchemaCheck:
    """cli._schema_error against jsonschema, the reference implementation."""

    @settings(max_examples=300, deadline=None)
    @given(config=configs())
    # each named fault once for certain: a bool where an integer or a
    # number belongs, 1.0 as an integer, arrays one short and one long,
    # non-numbers in an array, NaN, values on and just past each kind of
    # bound, one and two extra keys, and a root that is no object
    @example({"calibrate": {"segments": True}})
    @example({"simulate": {"shape_mix": False}})
    @example({"calibrate": {"segments": 1.0}})
    @example({"calibrate": {"segments": 1.5}})
    @example({"simulate": {"amplitudes": [0.01, 0.02]}})
    @example({"kinetics": {"triplet_decay": [1, 2, 3, 4]}})
    @example({"fit": {"centers": [1.0, [2.0], None, "3"]}})
    @example({"simulate": {"noise_sigma": math.nan, "d_mhz": math.inf}})
    @example({"simulate": {"shape_mix": 1, "linewidth_fwhm": 0}})
    @example({"simulate": {"shape_mix": math.nextafter(1.0, 2.0)}})
    @example({"simulate": {"noise_sigma": -1e-300}})
    @example({"zfs": {"threads": 0, "bogus": 1}})
    @example({"seed": 5, "threads": 2})
    @example([])
    def test_same_verdict_and_first_error_as_jsonschema(self, config):
        errors = list(REFERENCE.iter_errors(config))
        got = cli._schema_error(config, CONFIG_SCHEMA)
        if not errors:
            assert got is None
        else:
            # validate() raises the first error iter_errors yields, so a
            # config with one fault gets that fault's message and path
            assert got == (errors[0].message, tuple(errors[0].absolute_path))

    def test_schema_uses_only_implemented_keywords(self):
        checked = {"type", "items", "properties", "additionalProperties", *cli._BOUNDS}
        annotations = {"default", "description", "flag"}

        def walk(schema, where):
            unknown = set(schema) - checked - annotations
            assert not unknown, (where, unknown)
            kinds = schema.get("type", [])
            assert set(kinds if isinstance(kinds, list) else [kinds]) <= set(cli._TYPES), where
            # only additionalProperties: false is implemented
            assert schema.get("additionalProperties", False) is False, where
            for key, spec in schema.get("properties", {}).items():
                walk(spec, f"{where}/{key}")
            if "items" in schema:
                walk(schema["items"], f"{where}/items")

        walk(CONFIG_SCHEMA, "")

    def test_error_lines_name_message_and_path(self, tmp_path, capsys):
        config = {"simulate": {"amplitudes": [0.01, "x", 0.01]}}
        assert run("simulate", *write_config(tmp_path, config), "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / 'run.json'}: 'x' is not of type "
                                           "'number' (at simulate/amplitudes/1)\n")
        assert run("simulate", "--amplitudes", "0.01,0.02", "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == ("error: flag for simulate.amplitudes: [0.01, 0.02] "
                                           "is too short\n")


# flags that name files, not a key of the subcommand's config section
NOT_SECTION_FLAGS = {"help", "config", "out", "svg", "input", "table",
                     "homo", "lumo", "homo_b", "lumo_b"}


# every subcommand's flags as (flag, dest, required), as perfbench, CI and
# the README spell them: the flags built from CONFIG_SCHEMA must not drift
FLAGS = {
    "simulate": {
        ("--config", "config", False), ("--seed", "seed", False),
        ("--d-mhz", "d_mhz", False), ("--e-mhz", "e_mhz", False),
        ("--linewidth", "linewidth_fwhm", False), ("--shape-mix", "shape_mix", False),
        ("--amplitudes", "amplitudes", False), ("--mw-rate", "mw_rate", False),
        ("--noise", "noise_sigma", False), ("--fmin", "fmin", False),
        ("--fmax", "fmax", False), ("--step", "step", False),
        ("--windows", "windows", False), ("--window-half", "window_half", False),
        ("--control-value", "control_value", False),
        ("--control-unit", "control_unit", False),
        ("--out", "out", True), ("--svg", "svg", False),
    },
    "fit": {
        ("--config", "config", False), ("--input", "input", True),
        ("--centers", "centers", False), ("--fwhm-guess", "fwhm_guess", False),
        ("--mix-guess", "mix_guess", False), ("--out", "out", False),
    },
    "calibrate": {
        ("--config", "config", False), ("--input", "input", True),
        ("--segments", "segments", False),
        ("--invert-frequency", "invert_frequency", False),
        ("--out", "out", False), ("--svg", "svg", False),
    },
    "zfs": {
        ("--config", "config", False), ("--homo", "homo", True), ("--lumo", "lumo", True),
        ("--homo-b", "homo_b", False), ("--lumo-b", "lumo_b", False),
        ("--threads", "threads", False), ("--cutoff", "cutoff_angstrom", False),
        ("--out", "out", False), ("--table", "table", False),
    },
    "sensitivity": {
        ("--config", "config", False), ("--sigma", "sigma", False),
        ("--tau", "tau_s", False), ("--signal-slope", "signal_slope", False),
        ("--calib-slope", "calib_slope", False), ("--unit", "unit", False),
        ("--out", "out", False),
    },
}


def test_flags_keep_their_spellings():
    subparsers = next(a for a in build_parser()._actions if a.choices)
    found = {command: {(*a.option_strings, a.dest, a.required)
                       for a in parser._actions if a.dest != "help"}
             for command, parser in subparsers.choices.items()}
    assert found == FLAGS
    assert sum(map(len, FLAGS.values())) == 46


def test_every_flag_is_a_schema_key():
    subparsers = next(a for a in build_parser()._actions if a.choices)
    for command, parser in subparsers.choices.items():
        keys = CONFIG_SCHEMA["properties"][command]["properties"]
        dests = {a.dest for a in parser._actions} - NOT_SECTION_FLAGS
        assert dests <= set(keys), f"{command}: {sorted(dests - set(keys))}"
        assert dests, command


@dataclass
class _Inner:
    value: float
    span: tuple


@dataclass
class _Outer:
    inner: _Inner
    values: np.ndarray
    label: str


class TestPlain:
    def test_non_finite_floats_become_null(self):
        assert _plain([np.nan, np.inf, -np.inf, np.float64(-np.inf), 1.5, 0]) == [
            None, None, None, None, 1.5, 0]

    def test_numpy_scalars_become_python_numbers(self):
        out = _plain([np.int64(3), np.float64(0.25), np.bool_(True)])
        assert out == [3, 0.25, True]
        assert [type(v) for v in out] == [int, float, bool]

    def test_tuples_and_arrays_become_lists(self):
        assert _plain((1, (2.0, "x"))) == [1, [2.0, "x"]]
        assert _plain(np.array([[1.0, np.nan], [3.0, 4.0]])) == [[1.0, None], [3.0, 4.0]]

    def test_nested_dataclass(self):
        obj = _Outer(_Inner(np.float64(np.inf), (np.int64(1), 2)), np.arange(2.0), "k")
        out = _plain({"result": obj, "n": None})
        assert out == {"result": {"inner": {"value": None, "span": [1, 2]},
                                  "values": [0.0, 1.0], "label": "k"}, "n": None}
        assert type(out["result"]["inner"]["span"][0]) is int


def test_outputs_are_strict_json(tmp_path):
    """The criterion-9 pipelines, two-phase zfs and sensitivity write no NaN or Infinity."""
    spec = tmp_path / "spec.csv"
    assert run("simulate", "--seed", 11, "--noise", "0.0005", "--amplitudes",
               "0.01,-0.01,0.01", "--windows", "--out", spec) == 0
    assert run("fit", "--input", spec, "--centers", "106,1339,1445",
               "--out", tmp_path / "fit.json") == 0
    cal = tmp_path / "cal.csv"
    t = np.arange(80.0, 320.0, 2.0)
    f = np.where(t <= 193.0, 1440.36 + 0.04 * (193.0 - t), 1442.36 - 0.247 * (t - 193.0))
    f = f + np.random.default_rng(5).normal(0, 0.05, t.size)
    cal.write_text("control_value,frequency_mhz\n"
                   + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, f)))
    assert run("calibrate", "--input", cal, "--segments", 2, "--invert-frequency", "1420.0",
               "--out", tmp_path / "cal.json") == 0
    # the last segment has two points and no residual degrees of freedom
    short = tmp_path / "short.csv"
    short.write_text("control_value,frequency_mhz\n0,1400\n1,1401\n2,1402.5\n3,1390\n4,1385\n")
    assert run("calibrate", "--input", short, "--segments", 2,
               "--out", tmp_path / "short.json") == 0
    assert strict_json(tmp_path / "short.json")["segments"][1]["slope_sigma"] is None
    homo, lumo = write_cubes(tmp_path)
    homo_b, lumo_b = write_cubes(tmp_path, shifted=True)
    assert run("zfs", "--homo", homo, "--lumo", lumo, "--homo-b", homo_b, "--lumo-b", lumo_b,
               "--out", tmp_path / "zfs.json", "--table", tmp_path / "zfs.csv") == 0
    assert run(*SENSITIVITY, "--signal-slope", "1.6e-3", "--calib-slope", "1.8",
               "--out", tmp_path / "sens.json") == 0
    written = sorted(tmp_path.glob("*.json"))
    assert [p.name for p in written] == ["cal.json", "fit.json", "sens.json", "short.json",
                                         "spec.meta.json", "zfs.json"]
    for path in written:
        strict_json(path)

"""End-to-end command line tests.

Every invocation goes through main(argv) so exit codes and output files
are exercised exactly as a shell user would see them.
"""

import json

import numpy as np
import pytest

from odmrsense import dipolar, gaussian_orbital, make_grid, save_cube, volumetric
from odmrsense.cli import CONFIG_SCHEMA, build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        monkeypatch.setenv("ODMRSENSE_SEED", "9")
        run("simulate", "--noise", "0.001", "--windows", "--out", a)
        run("simulate", "--noise", "0.001", "--windows", "--out", b)
        # explicit flag wins over the environment
        run("simulate", "--noise", "0.001", "--windows", "--seed", "10",
            "--out", c)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


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

    def test_flat_spectrum_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{100.0 + 0.5 * i},0.0" for i in range(64))
        path.write_text("frequency_mhz,signal\n" + rows + "\n")
        assert run("fit", "--input", path) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_broken_csv(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("frequency_mhz,signal\n1.0,zap\n")
        assert run("fit", "--input", path) == 2


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

    def test_ambiguous_frequency_names_segments(self, tmp_path, capsys):
        assert run(*write_overlapping_calibration(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == "error: 1412.0 MHz falls in overlapping segments [0, 1]\n"


class TestZfs:
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
        assert "comparison" in payload
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
        assert run(*two_phase) == 0
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

    @pytest.mark.parametrize("flag, env", [(("--threads", "0"), None), ((), "0")],
                             ids=["flag", "env"])
    def test_bad_threads_refused_before_reading_cubes(self, tmp_path, monkeypatch, capsys,
                                                      flag, env):
        homo, lumo = write_cubes(tmp_path)
        loads = []
        monkeypatch.setattr(volumetric, "load_cube", lambda path: loads.append(path))
        if env is not None:
            monkeypatch.setenv("ODMRSENSE_THREADS", env)
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


def write_overlapping_calibration(tmp_path):
    """A rising then falling log: 1412 MHz lies on both of its two segments."""
    path = tmp_path / "cal.csv"
    rows = "\n".join(f"{float(i)},{1400.0 + 2.0 * i if i < 10 else 1420.0 - 1.5 * (i - 10)}"
                     for i in range(20))
    path.write_text("control_value,frequency_mhz\n" + rows + "\n")
    return ("calibrate", "--input", path, "--segments", "2", "--invert-frequency", "1412")


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
], ids=["amplitudes-not-a-number", "step-zero", "spectrum-sidecar-list",
        "spectrum-sidecar-string", "calibration-sidecar-list",
        "calibration-sidecar-string", "zfs-method-config",
        "centers-not-a-number", "centers-empty", "grid-too-large",
        "window-grid-too-large", "spectrum-not-utf8", "spectrum-sidecar-not-utf8",
        "calibration-not-utf8", "calibration-sidecar-not-utf8", "cube-not-utf8",
        "config-not-utf8", "cutoff-nan", "cutoff-inf", "cutoff-config-nan", "step-inf",
        "step-config-inf", "control-value-nan", "control-value-config-nan",
        "spectrum-sidecar-control-value-nan", "signal-slope-zero", "calib-slope-zero",
        "config-nested-too-deep", "d-mhz-config-too-big", "invert-frequency-config-too-big",
        "pump-rate-config-too-big", "sigma-config-too-big", "config-int-too-many-digits",
        "seed-negative", "invert-frequency-ambiguous"])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    assert run(*argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "seed": 5,
            "simulate": {"noise_sigma": 0.001, "windows": True},
        }))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", cfg, "--out", a) == 0
        assert run("simulate", "--seed", 5, "--noise", "0.001",
                   "--windows", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

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


# flags that name files or resolve outside a subcommand's config section
NOT_SECTION_FLAGS = {"help", "config", "seed", "threads", "out", "svg", "input", "table",
                     "homo", "lumo", "homo_b", "lumo_b"}


def test_every_flag_is_a_schema_key():
    subparsers = next(a for a in build_parser()._actions if a.choices)
    for command, parser in subparsers.choices.items():
        keys = CONFIG_SCHEMA["properties"][command]["properties"]
        dests = {a.dest for a in parser._actions} - NOT_SECTION_FLAGS
        assert dests <= set(keys), f"{command}: {sorted(dests - set(keys))}"
        assert dests, command

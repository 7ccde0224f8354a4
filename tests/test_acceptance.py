"""Acceptance suite.

Each criterion below is a self-contained check with its own tolerance
and runtime budget, and prints exactly one PASS or FAIL line (run with
-s or read the captured output).  These are the release gates; the unit
test modules cover the same code at finer grain.
"""

from time import perf_counter

import numpy as np
import pytest

from odmrsense import (
    CalibrationSeries,
    KineticsParams,
    LineModel,
    PopulationState,
    ZfsParameters,
    compare_phases,
    delta_d_estimate,
    evolve,
    fit_peaks,
    gaussian_orbital,
    make_grid,
    odmr_contrast,
    ordered_eigensystem,
    point_dipole_tensor,
    save_cube,
    segmented_fit,
    sensitivity,
    steady_state,
    synthesize,
    transitions_from_zfs,
    zfs_from_transitions,
    zfs_pair_tensor,
)
from odmrsense.cli import main

from dipolar_oracle import direct_pair_tensor


def _criterion(capsys, number: int, label: str, budget_s: float, body):
    start = perf_counter()
    try:
        body()
        elapsed = perf_counter() - start
        ok = elapsed < budget_s
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number} ({label}): {verdict} "
              f"[{elapsed:.2f} s, budget {budget_s:g} s]")
    assert ok, f"criterion {number} runtime {elapsed:.2f} s over budget {budget_s} s"


def test_criterion_1_zero_field_transitions(capsys):
    def body():
        t = transitions_from_zfs(ZfsParameters(1392.0, 53.0))
        for got, want in ((t.f_xy, 106.0), (t.f_yz, 1339.0), (t.f_xz, 1445.0)):
            assert abs(got - want) <= 1e-9 * want
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = rng.uniform(500.0, 3000.0)
            e = rng.uniform(0.0, d / 3.0)
            t = transitions_from_zfs(ZfsParameters(d, e))
            assert abs(t.f_xz - (t.f_xy + t.f_yz)) <= 1e-9 * t.f_xz

    _criterion(capsys, 1, "zero-field transitions and closure", 1.0, body)


def test_criterion_2_kinetics_sign_structure(capsys):
    def body():
        params = KineticsParams()  # 35/166/500 us lifetimes, 0.76/0.16/0.08
        steady = steady_state(params)
        assert steady.n_tz > steady.n_ty
        assert abs(steady.as_array().sum() - 1.0) <= 1e-10
        c_xy = odmr_contrast(params.with_microwave(0.05, "xy"))
        c_yz = odmr_contrast(params.with_microwave(0.05, "yz"))
        assert np.sign(c_yz) != np.sign(c_xy)

        rng = np.random.default_rng(1)
        for _ in range(20):
            b = rng.uniform(0.05, 1.0, 3)
            b /= b.sum()
            b[2] = 1.0 - b[0] - b[1]
            p = KineticsParams(
                pump_rate=rng.uniform(0.01, 0.1),
                radiative_rate=rng.uniform(0.02, 0.2),
                isc_rate=rng.uniform(0.02, 0.2),
                isc_branching=tuple(b),
                triplet_decay=tuple(1.0 / rng.uniform(20.0, 400.0, 3)),
            )
            target = steady_state(p).as_array()
            assert abs(target.sum() - 1.0) <= 1e-10
            relaxed = evolve(p, PopulationState.ground(), 1.0e4).as_array()
            assert np.max(np.abs(relaxed - target)) <= 1e-8

    _criterion(capsys, 2, "triplet kinetics sign structure", 5.0, body)


def test_criterion_3_spectrum_round_trip(capsys):
    def body():
        centers = (106.0, 1339.0, 1445.0)
        amplitudes = (0.01, -0.01, 0.01)
        lines = [LineModel.symmetric(c, 4.3, a)
                 for c, a in zip(centers, amplitudes)]
        freqs = np.concatenate([
            np.arange(c - 25.0, c + 25.0 + 1e-9, 0.05) for c in centers])
        noise = 0.1 * abs(amplitudes[0])
        hits = 0
        for seed in range(100):
            spectrum = synthesize(lines, freqs, noise_sigma=noise, seed=seed)
            guesses = [LineModel.symmetric(c + 0.8, 6.0, 0.7 * a, shape_mix=0.5)
                       for c, a in zip(centers, amplitudes)]
            fits = fit_peaks(spectrum, guesses)
            got = sorted(f.center for f in fits)
            if all(abs(g - c) <= 0.2 for g, c in zip(got, centers)):
                hits += 1
                params = zfs_from_transitions(got[2], got[1], f_xy=got[0])[0]
                assert abs(params.D - 1392.0) <= 0.3
                assert abs(params.E - 53.0) <= 0.3
        assert hits >= 95, f"only {hits}/100 trials recovered all centers"

    _criterion(capsys, 3, "three-line spectrum round trip", 30.0, body)


def test_criterion_4_calibration_recovery(capsys):
    def temperature_series(seed):
        t = np.arange(77.0, 331.0, 1.0)
        v1 = 1445.0 - 0.040 * (193.0 - 77.0)
        v2 = v1 + 2.0 - 0.247 * (260.0 - 193.0)
        f = np.where(t <= 193.0, 1445.0 - 0.040 * (t - 77.0),
                     np.where(t <= 260.0, v1 + 2.0 - 0.247 * (t - 193.0),
                              v2 - 0.101 * (t - 260.0)))
        rng = np.random.default_rng(seed)
        return CalibrationSeries(t, f + rng.normal(0.0, 0.05, t.size),
                                 control_unit="K")

    def body():
        slopes_true = (-0.040, -0.247, -0.101)
        hits = 0
        for seed in range(100):
            fit = segmented_fit(temperature_series(seed), 3)
            bp_ok = abs(fit.breakpoints[0] - 193.0) <= 2.0
            slope_ok = all(
                abs(seg.slope - want) <= 0.05 * abs(want)
                for seg, want in zip(fit.segments, slopes_true))
            hits += bp_ok and slope_ok
        assert hits >= 90, f"only {hits}/100 temperature trials recovered"

        sses = [segmented_fit(temperature_series(7), k).total_sse
                for k in range(1, 6)]
        for a, b in zip(sses, sses[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12

        p = np.arange(1.0, 8.0 + 1e-9, 0.1)
        f = np.where(p <= 2.5, 1445.0 - 1.8 * (p - 1.0),
                     1445.0 - 1.8 * 1.5 - 0.35 * (p - 2.5))
        rng = np.random.default_rng(3)
        series = CalibrationSeries(p, f + rng.normal(0.0, 0.02, p.size),
                                   control_unit="bar")
        fit = segmented_fit(series, 2)
        assert abs(fit.segments[0].slope - (-1.8)) <= 0.05 * 1.8
        assert abs(fit.segments[1].slope - (-0.35)) <= 0.05 * 0.35

    _criterion(capsys, 4, "piecewise calibration recovery", 60.0, body)


def test_criterion_5_dipolar_integrator_oracle(capsys):
    def pair(dims):
        n = (dims,) * 3
        origin, axes = make_grid(n, (18.0,) * 3)
        a = gaussian_orbital(origin, axes, n, (0, 0, +5.0), (0.75,) * 3)
        b = gaussian_orbital(origin, axes, n, (0, 0, -5.0), (0.75,) * 3)
        return a, b

    def body():
        want, _ = ordered_eigensystem(point_dipole_tensor((0.0, 0.0, 10.0)))

        tensor = zfs_pair_tensor(*pair(48))
        got, _ = ordered_eigensystem(tensor)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 0.02
        t = tensor.tensor
        scale = np.max(np.abs(t))
        assert np.max(np.abs(t - t.T)) <= 1e-6 * scale
        assert abs(np.trace(t)) <= 1e-6 * scale

        a, b = pair(16)
        conv = zfs_pair_tensor(a, b).tensor
        direct = direct_pair_tensor(a, b).tensor
        assert (np.linalg.norm(conv - direct)
                <= 1e-6 * np.linalg.norm(conv))

        errors = []
        for dims in (16, 24, 32):
            eig, _ = ordered_eigensystem(zfs_pair_tensor(*pair(dims)))
            errors.append(np.max(np.abs(eig - want)))
        assert errors[0] > errors[1] > errors[2]

    _criterion(capsys, 5, "dipolar integrator vs point-dipole oracle", 300.0, body)


def test_criterion_6_phase_comparison_scale(capsys):
    def orbitals(lumo_shift, width_delta):
        dims = (48, 32, 24)
        origin, axes = make_grid(dims, (24.0, 12.0, 8.0))
        w_homo = np.array([3.0, 1.2, 0.5]) - width_delta
        w_lumo = np.array([3.0, 1.2, 0.5]) + width_delta
        homo = gaussian_orbital(origin, axes, dims, (0, 0, 0), w_homo)
        lumo = gaussian_orbital(origin, axes, dims, lumo_shift, w_lumo,
                                node_axis=0)
        return homo, lumo

    def body():
        # phase B perturbs phase A by picometre-scale centroid and
        # width changes: +(4, 1, 0.5) pm shift, +-(2, 5, 1) pm widths
        homo_a, lumo_a = orbitals((0.0, 0.0, 0.0), 0.0)
        homo_b, lumo_b = orbitals((0.04, 0.01, 0.005),
                                  np.array([0.02, 0.05, 0.01]))
        tensor_a = zfs_pair_tensor(homo_a, lumo_a)
        tensor_b = zfs_pair_tensor(homo_b, lumo_b)
        comp = compare_phases(tensor_a, tensor_b)
        assert comp.dominant_axis == "x"
        # order-of-magnitude agreement with a 4 MHz target
        assert 4.0 / 3.0 <= comp.max_abs_delta <= 12.0

    _criterion(capsys, 6, "pm-scale phase shift lands at MHz scale", 120.0, body)


def test_criterion_7_delta_d_estimate(capsys):
    def body():
        value = delta_d_estimate(4.0, 3.7)
        assert 0.3 <= value <= 10.0

    _criterion(capsys, 7, "single-distance shift estimate band", 1.0, body)


def test_criterion_8_sensitivity_arithmetic(capsys):
    def body():
        scenarios = (
            (2.0e-4, 1.0, 1.6e-3, 1.8),    # pressure readout, ~0.07
            (1.0e-3, 0.25, 2.0e-3, 0.247),  # temperature readout
            (2.0e-3, 1.0e-2, 1.6e-3, 0.35),
        )
        for sigma, tau, s_slope, c_slope in scenarios:
            expected = sigma * np.sqrt(tau) / (s_slope * c_slope)
            assert sensitivity(sigma, tau, s_slope, c_slope).eta == expected
        assert sensitivity(*scenarios[0]).eta == pytest.approx(0.07, abs=0.001)

        rng = np.random.default_rng(8)
        for _ in range(50):
            sigma, tau, a, b = rng.uniform(0.1, 10.0, 4)
            lam = rng.uniform(0.5, 2.0)
            base = sensitivity(sigma, tau, a, b).eta
            assert sensitivity(lam * sigma, tau, a, b).eta == pytest.approx(
                lam * base, rel=1e-12)
            assert sensitivity(sigma, lam ** 2 * tau, a, b).eta == pytest.approx(
                lam * base, rel=1e-12)
            assert sensitivity(sigma, tau, lam * a, b).eta == pytest.approx(
                base / lam, rel=1e-12)
            assert sensitivity(sigma, tau, a, lam * b).eta == pytest.approx(
                base / lam, rel=1e-12)

    _criterion(capsys, 8, "sensitivity arithmetic and homogeneity", 5.0, body)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    def simulate_fit_calibrate(workdir):
        workdir.mkdir()
        spec = workdir / "spec.csv"
        run("simulate", "--seed", 11, "--noise", "0.0005",
            "--amplitudes", "0.01,-0.01,0.01", "--windows",
            "--out", spec, "--svg", workdir / "spec.svg")
        run("fit", "--input", spec, "--centers", "106,1339,1445",
            "--out", workdir / "fit.json")

        cal = workdir / "cal.csv"
        t = np.arange(80.0, 320.0, 2.0)
        f = np.where(t <= 193.0, 1440.36 + 0.04 * (193.0 - t),
                     1442.36 - 0.247 * (t - 193.0))
        rng = np.random.default_rng(5)
        rows = ["control_value,frequency_mhz"]
        rows += [f"{float(a)!r},{float(b)!r}"
                 for a, b in zip(t, f + rng.normal(0, 0.05, t.size))]
        cal.write_text("\n".join(rows) + "\n")
        run("calibrate", "--input", cal, "--segments", 2,
            "--invert-frequency", "1420.0", "--out", workdir / "cal.json")
        return [
            (p.name, p.read_bytes()) for p in sorted(workdir.iterdir())
            if p.suffix in (".csv", ".json", ".svg")
        ]

    def zfs_outputs(workdir, threads):
        workdir.mkdir()
        dims = (20, 16, 12)
        origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
        save_cube(gaussian_orbital(origin, axes, dims, (0, 0, 0),
                                   (1.5, 0.8, 0.5)), workdir / "homo.cube")
        save_cube(gaussian_orbital(origin, axes, dims, (0, 0, 0),
                                   (1.5, 0.8, 0.5), node_axis=0),
                  workdir / "lumo.cube")
        save_cube(gaussian_orbital(origin, axes, dims, (0.04, 0, 0),
                                   (1.5, 0.8, 0.5)), workdir / "homo_b.cube")
        save_cube(gaussian_orbital(origin, axes, dims, (0.04, 0, 0),
                                   (1.5, 0.8, 0.5), node_axis=0),
                  workdir / "lumo_b.cube")
        run("zfs", "--homo", workdir / "homo.cube",
            "--lumo", workdir / "lumo.cube",
            "--homo-b", workdir / "homo_b.cube",
            "--lumo-b", workdir / "lumo_b.cube",
            "--threads", threads,
            "--out", workdir / "zfs.json", "--table", workdir / "zfs_table.csv")
        return [(p.name, p.read_bytes())
                for p in sorted(workdir.iterdir()) if p.suffix != ".cube"]

    def body():
        first = simulate_fit_calibrate(tmp_path / "run1")
        second = simulate_fit_calibrate(tmp_path / "run2")
        assert first == second
        zfs_one = zfs_outputs(tmp_path / "zfs1", 1)
        zfs_two = zfs_outputs(tmp_path / "zfs2", 2)
        zfs_rerun = zfs_outputs(tmp_path / "zfs3", 2)
        assert zfs_one == zfs_two == zfs_rerun

    _criterion(capsys, 9, "CLI pipelines byte-identical", 60.0, body)

"""The four benchmark workloads: seeded inputs, operations, output checks.

Each workload draws every input from ``numpy.random.default_rng(seed)`` in
``setup`` and hands the package only generated files or arrays.  ``rounds``
yields lists of operations without end; the timed loop always finishes the
round it started, so every run holds whole rounds.  An operation is either
a CLI invocation (``argv``) or a library call (``call``); ``check`` turns
its outcome into a list of failure messages, empty when the output is
correct.

Library calls go through module attributes (``spectra.fit_peaks``), never
through names bound at import, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from odmrsense import calibration, dipolar, spectra, spin, volumetric

# criterion-4 temperature response: breakpoints at 193 K and 260 K
BREAKPOINTS_K = (193.0, 260.0)
BREAKPOINT_TOL_K = 2.0


def temperature_response(t):
    """Transition frequency (MHz) of the three-region temperature scene."""
    t = np.asarray(t, dtype=float)
    v1 = 1445.0 - 0.040 * (193.0 - 77.0)
    v2 = v1 + 2.0 - 0.247 * (260.0 - 193.0)
    return np.where(t <= 193.0, 1445.0 - 0.040 * (t - 77.0),
                    np.where(t <= 260.0, v1 + 2.0 - 0.247 * (t - 193.0),
                             v2 - 0.101 * (t - 260.0)))


def breakpoint_failures(breakpoints) -> list[str]:
    bps = [float(b) for b in breakpoints]
    if len(bps) != len(BREAKPOINTS_K):
        return [f"expected {len(BREAKPOINTS_K)} breakpoints, got {len(bps)}"]
    return [f"breakpoint {got:.3f} K not within {BREAKPOINT_TOL_K} K of {want} K"
            for got, want in zip(bps, BREAKPOINTS_K)
            if abs(got - want) > BREAKPOINT_TOL_K]


# A fitted centre passes when it lies within CENTER_Z of its own 1-sigma
# (the Gauss-Newton centre sigma, which scales with the residual noise)
# and within half the true linewidth.  Over 1,200 full-scan auto-guess
# centres at SNR 10 the largest error was 5.2 sigma (1.1 MHz), over 4,400
# fit_batch cases 4.4 sigma; a fit that lands on the wrong feature misses
# by many linewidths.
CENTER_Z = 8.0


def center_failures(fitted, truth, fwhm_true: float) -> list[str]:
    out = []
    for (center, sigma), want in zip(fitted, truth):
        tol = min(CENTER_Z * sigma, 0.5 * fwhm_true)
        if not abs(center - want) <= tol:
            out.append(f"centre {center:.4f} MHz misses {want:.4f} MHz "
                       f"(tolerance {tol:.4f} MHz, sigma {sigma:.4f})")
    return out


@dataclass
class Op:
    label: str
    check: Callable[[object], list[str]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


def _exit_failures(label: str, code) -> list[str]:
    return [] if code == 0 else [f"{label} exited with {code}"]


def _arg(value: float) -> str:
    return repr(float(value))


class DeskCli:
    """One round of the README desk workflow, one subcommand per op."""

    name = "desk_cli"
    cli = True
    FWHM = 4.3       # the simulate default linewidth
    NOISE = 0.003    # about 10 % of the weaker fitted (yz) line's contrast

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)
        self.out = self.dir / "round"
        self.reference: dict[str, bytes] = {}

    def setup(self) -> None:
        rng = self.rng
        self.out.mkdir(parents=True, exist_ok=True)
        self.sim_seed = int(rng.integers(2 ** 31))
        self.d_mhz = 1392.0 + rng.uniform(-1.0, 1.0)
        self.e_mhz = 53.0 + rng.uniform(-0.5, 0.5)
        lines = spin.transitions_from_zfs(spin.ZfsParameters(self.d_mhz, self.e_mhz))
        self.truth = (lines.f_yz, lines.f_xz)

        temps = np.arange(77.0, 331.0, 1.0)
        freqs = temperature_response(temps) + rng.normal(0.0, 0.05, temps.size)
        self.cal_csv = self.dir / "temp_cal.csv"
        calibration.write_calibration(
            calibration.CalibrationSeries(temps, freqs, control_unit="K"), self.cal_csv)
        # a frequency that only the middle segment covers
        self.invert_mhz = float(temperature_response(rng.uniform(205.0, 250.0)))

        n = (32, 32, 32)
        origin, axes = volumetric.make_grid(n, (18.0,) * 3)
        width = rng.uniform(0.72, 0.78)
        self.cubes = (self.dir / "homo.cube", self.dir / "lumo.cube")
        for path, z in zip(self.cubes, (5.0, -5.0)):
            volumetric.save_cube(
                volumetric.gaussian_orbital(origin, axes, n, (0.0, 0.0, z), width), path)

        self.sens = (rng.uniform(1e-4, 1e-3), rng.uniform(0.1, 2.0),
                     rng.uniform(1e-3, 3e-3), rng.uniform(0.04, 2.0))

    def _same_bytes(self, names) -> list[str]:
        out = []
        for name in names:
            data = (self.out / name).read_bytes()
            first = self.reference.setdefault(name, data)
            if data != first:
                out.append(f"{name} differs from the first invocation with this seed")
        return out

    def _cli_op(self, argv, outputs, extra=None) -> Op:
        """A subcommand whose output files must repeat the first invocation's bytes."""
        label = argv[0]

        def check(code):
            failures = _exit_failures(label, code)
            if failures:
                return failures
            if extra is not None:
                failures += extra()
            return failures + self._same_bytes(outputs)
        return Op(label, check, argv=argv)

    def _check_fit(self) -> list[str]:
        peaks = json.loads((self.out / "fit.json").read_text())["peaks"]
        fitted = sorted((p["center"], p["center_sigma"]) for p in peaks)
        if len(fitted) != 2:
            return [f"fit returned {len(fitted)} peaks, expected 2"]
        return center_failures(fitted, self.truth, self.FWHM)

    def _check_calibrate(self) -> list[str]:
        return breakpoint_failures(
            json.loads((self.out / "cal.json").read_text())["breakpoints"])

    def _check_sensitivity(self) -> list[str]:
        sigma, tau, s_signal, s_cal = self.sens
        want = float(sigma * np.sqrt(tau) / (s_signal * s_cal))
        got = json.loads((self.out / "sens.json").read_text())["eta"]
        if abs(got - want) > 1e-12 * abs(want):
            return [f"sensitivity eta {got!r} differs from {want!r}"]
        return []

    def rounds(self):
        o = self.out
        sigma, tau, s_signal, s_cal = self.sens
        ops = [
            self._cli_op(["simulate", "--seed", str(self.sim_seed),
                          "--d-mhz", _arg(self.d_mhz), "--e-mhz", _arg(self.e_mhz),
                          "--noise", _arg(self.NOISE), "--windows",
                          "--out", str(o / "spec.csv"), "--svg", str(o / "spec.svg")],
                         ("spec.csv", "spec.meta.json", "spec.svg")),
            self._cli_op(["fit", "--input", str(o / "spec.csv"), "--centers", "1339,1445",
                          "--out", str(o / "fit.json")],
                         ("fit.json",), self._check_fit),
            self._cli_op(["calibrate", "--input", str(self.cal_csv), "--segments", "3",
                          "--invert-frequency", _arg(self.invert_mhz),
                          "--out", str(o / "cal.json")],
                         ("cal.json",), self._check_calibrate),
            self._cli_op(["zfs", "--homo", str(self.cubes[0]), "--lumo", str(self.cubes[1]),
                          "--threads", "1", "--out", str(o / "zfs.json")],
                         ("zfs.json",)),
            self._cli_op(["sensitivity", "--sigma", _arg(sigma), "--tau", _arg(tau),
                          "--signal-slope", _arg(s_signal), "--calib-slope", _arg(s_cal),
                          "--unit", "K/sqrt(Hz)", "--out", str(o / "sens.json")],
                         ("sens.json",), self._check_sensitivity),
        ]
        while True:
            yield ops


@dataclass
class FitCase:
    spectrum: spectra.Spectrum
    guesses: list | None
    truth: tuple[float, float, float]
    fwhm: float


class FitBatch:
    """Library loop of fit_peaks calls over pre-synthesized spectra."""

    name = "fit_batch"
    cli = False
    # more distinct cases than a 20 s run fits, so the mean cost of a run
    # does not hinge on a few cases; every fourth case is a full scan
    POOL = 400
    AMPLITUDES = (0.01, -0.01, 0.01)
    NOISE = 0.001        # 10 % of the line amplitude

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def _case(self, full_scan: bool) -> FitCase:
        rng = self.rng
        lines_at = spin.transitions_from_zfs(
            spin.ZfsParameters(rng.uniform(1385.0, 1400.0), rng.uniform(50.0, 56.0)))
        truth = (lines_at.f_xy, lines_at.f_yz, lines_at.f_xz)
        fwhm = 4.3
        mix = float(rng.choice([1.0, 0.5]))
        skew = rng.uniform(0.8, 1.25) if rng.random() < 0.5 else 1.0
        lines = [spectra.LineModel(c, 0.5 * fwhm * skew, 0.5 * fwhm / skew, a, mix)
                 for c, a in zip(truth, self.AMPLITUDES)]
        if full_scan:
            freqs = np.arange(50.0, 1500.0 + 0.25, 0.5)
            guesses = None
        else:
            freqs = np.concatenate([np.arange(c - 25.0, c + 25.0 + 1e-9, 0.05)
                                    for c in truth])
            guesses = [spectra.LineModel.symmetric(
                c + rng.uniform(-0.8, 0.8), rng.uniform(3.5, 6.0),
                a * rng.uniform(0.6, 1.3), 0.5) for c, a in zip(truth, self.AMPLITUDES)]
        spectrum = spectra.synthesize(lines, freqs, noise_sigma=self.NOISE,
                                      seed=int(rng.integers(2 ** 31)))
        return FitCase(spectrum, guesses, truth, lines[0].fwhm)

    def setup(self) -> None:
        self.cases = [self._case(full_scan=(k % 4 == 3)) for k in range(self.POOL)]

    @staticmethod
    def _fit(case: FitCase):
        fits = spectra.fit_peaks(case.spectrum, case.guesses)
        centers = sorted(f.center for f in fits)
        params = None
        if len(centers) == 3:
            params = spin.zfs_from_transitions(centers[2], centers[1], f_xy=centers[0])
        return fits, params

    @staticmethod
    def _check(case: FitCase):
        def check(result):
            fits, _ = result
            if len(fits) != 3:
                return [f"found {len(fits)} lines, expected 3"]
            fitted = sorted((f.center, f.center_sigma) for f in fits)
            return center_failures(fitted, case.truth, case.fwhm)
        return check

    def rounds(self):
        k = 0
        while True:
            case = self.cases[k % self.POOL]
            label = "full_scan" if case.guesses is None else "windows"
            yield [Op(label, self._check(case), call=lambda case=case: self._fit(case))]
            k += 1


class ZfsTwoPhase:
    """Fresh-process two-phase zfs on four 64^3 cube files."""

    name = "zfs_two_phase"
    cli = True
    DIMS = (64, 64, 64)
    BOX_ANGSTROM = 18.0
    SEPARATION_A = 10.0
    EIG_RTOL = 0.02

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)

    def setup(self) -> None:
        rng = self.rng
        origin, axes = volumetric.make_grid(self.DIMS, (self.BOX_ANGSTROM,) * 3)
        width = rng.uniform(0.72, 0.78)
        shift_pm = rng.uniform(2.0, 6.0) * rng.choice([-1.0, 1.0])
        self.separation = {"a": self.SEPARATION_A,
                           "b": self.SEPARATION_A + shift_pm / 100.0}
        self.cubes = []
        for phase in ("a", "b"):
            half = self.separation[phase] / 2.0
            for orbital, z in (("homo", half), ("lumo", -half)):
                path = self.dir / f"{orbital}_{phase}.cube"
                volumetric.save_cube(volumetric.gaussian_orbital(
                    origin, axes, self.DIMS, (0.0, 0.0, z), width), path)
                self.cubes.append(str(path))
        self.reference = {
            phase: spin.ordered_eigensystem(dipolar.point_dipole_tensor((0.0, 0.0, sep)))[0]
            for phase, sep in self.separation.items()}
        self.out = self.dir / "zfs.json"

    def _check(self, code) -> list[str]:
        failures = _exit_failures("zfs", code)
        if failures:
            return failures
        payload = json.loads(self.out.read_text())
        for phase, want in self.reference.items():
            ph = payload["phases"][phase]
            got = np.asarray(ph["eigenvalues_mhz"])
            worst = float(np.max(np.abs(got - want) / np.abs(want)))
            if worst > self.EIG_RTOL:
                failures.append(f"phase {phase} eigenvalues off the point dipole "
                                f"by {worst:.2%}")
            tensor = np.asarray(ph["tensor_mhz"])
            if abs(np.trace(tensor)) > 1e-6 * np.max(np.abs(tensor)):
                failures.append(f"phase {phase} tensor trace {np.trace(tensor):.3e}")
        axis = payload["comparison"]["dominant_axis"]
        if axis != "z":
            failures.append(f"dominant axis {axis!r}, expected 'z'")
        return failures

    def rounds(self):
        homo_a, lumo_a, homo_b, lumo_b = self.cubes
        op = Op("zfs", self._check,
                argv=["zfs", "--homo", homo_a, "--lumo", lumo_a,
                      "--homo-b", homo_b, "--lumo-b", lumo_b, "--threads", "2",
                      "--out", str(self.out), "--table", str(self.dir / "eig.csv")])
        while True:
            yield [op]


@dataclass
class CalibJob:
    series: calibration.CalibrationSeries
    controls: np.ndarray
    freqs: np.ndarray
    segments: np.ndarray


class CalibLong:
    """Library loop: segmented_fit on a ~3,000-point log, then readouts."""

    name = "calib_long"
    cli = False
    POOL = 8             # jobs alternate weighted and unweighted fits
    N_POINTS = 3000
    N_READOUTS = 1000
    READOUT_SIGMA = 0.01  # MHz, per readout
    # readout controls stay 3 K clear of each breakpoint and 2 K inside
    # the logged range, so each frequency belongs to one segment
    READOUT_RANGES = ((81.0, 190.0), (196.0, 257.0), (263.0, 327.0))
    # a readout passes when it inverts to its generating control within
    # READOUT_Z times the propagated control sigma
    READOUT_Z = 6.0

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)

    def _job(self, weighted: bool) -> CalibJob:
        rng = self.rng
        temps = np.linspace(rng.uniform(75.0, 79.0), rng.uniform(329.0, 333.0),
                            self.N_POINTS)
        sigma = rng.uniform(0.03, 0.08, temps.size) if weighted else np.full(temps.size, 0.05)
        freqs = temperature_response(temps) + rng.normal(0.0, sigma)
        series = calibration.CalibrationSeries(
            temps, freqs, sigma if weighted else None, control_unit="K")
        lengths = np.array([hi - lo for lo, hi in self.READOUT_RANGES])
        segments = rng.choice(len(lengths), size=self.N_READOUTS, p=lengths / lengths.sum())
        lows = np.array([lo for lo, _ in self.READOUT_RANGES])[segments]
        controls = lows + rng.uniform(0.0, 1.0, self.N_READOUTS) * lengths[segments]
        readouts = temperature_response(controls) + rng.normal(
            0.0, self.READOUT_SIGMA, self.N_READOUTS)
        return CalibJob(series, controls, readouts, segments)

    def setup(self) -> None:
        self.jobs = [self._job(weighted=(k % 2 == 0)) for k in range(self.POOL)]

    def _run(self, job: CalibJob):
        fit = calibration.segmented_fit(job.series, 3)
        readouts = [calibration.invert_readout(fit, float(f), segment=int(s),
                                               frequency_sigma=self.READOUT_SIGMA)
                    for f, s in zip(job.freqs, job.segments)]
        return fit, np.asarray(readouts)

    def _check(self, job: CalibJob):
        def check(result):
            fit, readouts = result
            failures = breakpoint_failures(fit.breakpoints)
            z = np.abs(readouts[:, 0] - job.controls) / readouts[:, 1]
            bad = int(np.sum(~(z <= self.READOUT_Z)))
            if bad:
                failures.append(f"{bad} readouts miss their control by more than "
                                f"{self.READOUT_Z} sigma (worst {np.nanmax(z):.2f})")
            return failures
        return check

    def rounds(self):
        k = 0
        while True:
            job = self.jobs[k % self.POOL]
            label = "weighted" if job.series.freq_sigma is not None else "unweighted"
            yield [Op(label, self._check(job), call=lambda job=job: self._run(job))]
            k += 1


WORKLOADS = {cls.name: cls for cls in (DeskCli, FitBatch, ZfsTwoPhase, CalibLong)}

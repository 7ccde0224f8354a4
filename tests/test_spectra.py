"""Lineshape, synthesis, noise-estimation, peak-finding and fitting tests."""

import json
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from odmrsense import (
    DataFormatError,
    FitConvergenceError,
    InvalidParameterError,
    LineModel,
    Spectrum,
    SpectrumMeta,
    ZfsParameters,
    auto_guesses,
    evaluate_lines,
    fit_peaks,
    read_spectrum,
    robust_noise_sigma,
    spectra,
    synthesize,
    transitions_from_zfs,
    write_spectrum,
)
from odmrsense.constants import MAX_MAGNITUDE
from odmrsense.spectra import _find_peaks, _profile, _profile_work


class TestLineModel:
    def test_peak_and_half_maximum(self):
        for mix in (0.0, 0.37, 1.0):
            line = LineModel(100.0, 2.0, 3.0, -0.04, mix)
            assert line.evaluate([100.0])[0] == pytest.approx(-0.04)
            assert line.evaluate([98.0])[0] == pytest.approx(-0.02)
            assert line.evaluate([103.0])[0] == pytest.approx(-0.02)

    def test_fwhm(self):
        assert LineModel(0.0, 2.0, 3.0, 1.0).fwhm == 5.0
        assert LineModel.symmetric(0.0, 4.3, 1.0).width_left == pytest.approx(2.15)

    def test_asymmetric_sides(self):
        line = LineModel(10.0, 1.0, 4.0, 1.0)
        left = line.evaluate([9.0])[0]
        right = line.evaluate([11.0])[0]
        assert left == pytest.approx(0.5)
        assert right > 0.5  # wider right side falls off slower

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LineModel(0.0, -1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            LineModel(0.0, 1.0, 1.0, 1.0, shape_mix=1.5)


def reference_line(line, f):
    """Per-line pseudo-Voigt in the operation order synthesized spectra pin."""
    width = np.where(f < line.center, line.width_left, line.width_right)
    u2 = ((f - line.center) / width) ** 2
    profile = (line.shape_mix / (1.0 + u2)
               + (1.0 - line.shape_mix) * np.exp(-np.log(2.0) * u2))
    return line.amplitude * profile


def reference_profile(params, f):
    """Summed profile and (lines, 5, samples) Jacobian of the rows of params,
    each column in the fresh-array expression chain the buffered evaluation
    must reproduce bit for bit."""
    c, wl, wr, a, m = (col[:, None] for col in params.T)
    left = f < c
    width = np.where(left, wl, wr)
    u = (f - c) / width
    u2 = u ** 2
    gauss = np.exp(-np.log(2.0) * u2)
    profile = m / (1.0 + u2) + (1.0 - m) * gauss
    lor = 1.0 / (1.0 + u2)
    g = a * (m * lor ** 2 + (1.0 - m) * np.log(2.0) * gauss) * (2.0 / width)
    d_width = g * u2
    columns = (g * u, np.where(left, d_width, 0.0), np.where(left, 0.0, d_width),
               profile, a * (lor - gauss))
    return (a * profile).sum(axis=0), np.stack(columns, axis=1)


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def random_lines(rng, n_lines, mix):
    """(n_lines, 5) parameters on a 0-200 MHz grid, widths set per side."""
    mixes = rng.uniform(0.0, 1.0, n_lines) if mix is None else np.full(n_lines, mix)
    return np.column_stack([rng.uniform(0.0, 200.0, n_lines), rng.uniform(0.05, 20.0, n_lines),
                            rng.uniform(0.05, 20.0, n_lines), rng.uniform(-1.0, 1.0, n_lines),
                            mixes])


def exp_edge_cases():
    """Lines and grids whose lanes sit where _profile stops calling exp:
    arguments -ln2 u^2 either side of -745.2, Gaussian tails (mix 0)
    through exp's subnormal range, u^2 and u overflowing to inf beside
    lines of width 1e-300 and 1e-307, and a NaN sample."""
    assert np.exp(-745.2) == 0.0
    # for a line at 0 of width 1, u = f; no double u gives -ln2 u^2 =
    # -745.2 exactly, so the nearest arguments either side stand in for it
    u = np.sqrt(745.2 / np.log(2.0)) + np.arange(-40, 41) * np.spacing(32.0)
    arg = np.multiply(-np.log(2.0), np.square(u))
    assert not np.any(arg == -745.2) and arg.min() < -745.2 < arg.max()
    # exp from 1e-188 down to 0, finely where it falls from 5e-324 to 0
    tail = np.r_[np.linspace(25.0, 40.0, 3001), np.linspace(32.78, 32.79, 201)]
    return [(np.array([[0.0, 1.0, 1.0, 0.7, 0.0], [0.0, 1.0, 1.0, -0.2, 0.5]]),
             np.sort(np.concatenate([u, -u, tail, -tail]))),
            (np.array([[100.0, 1e-300, 1e-300, 0.5, 0.0], [150.0, 1e-307, 2e-300, -0.3, 0.6]]),
             np.linspace(0.0, 200.0, 101)),
            (np.array([[100.0, 1.3, 2.9, 0.8, 0.0]]), np.r_[np.linspace(90.0, 110.0, 50), np.nan])]


class TestProfile:
    @pytest.mark.parametrize("mix", [0.0, 0.37, 1.0])
    def test_jacobian_matches_central_differences(self, mix):
        params = np.array([[100.0, 1.3, 2.9, 0.8, mix],
                           [104.5, 2.2, 0.7, -0.45, mix],
                           [111.0, 1.0, 1.6, 0.3, mix]])
        # the appended centres put a sample exactly on each line centre
        f = np.concatenate([np.linspace(90.0, 120.0, 601) + 0.013, params[:, 0]])
        _, jac = _profile(params, f, jac=True)
        assert jac.shape == (f.size, params.size)
        flat = params.ravel()
        numeric = np.empty_like(jac)
        h = 1e-7
        for k in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[k] += h
            down[k] -= h
            numeric[:, k] = (_profile(up.reshape(-1, 5), f)
                             - _profile(down.reshape(-1, 5), f)) / (2.0 * h)
        # relative to each column's largest entry
        scale = np.abs(numeric).max(axis=0)
        assert np.all(scale > 0)
        assert np.all(np.abs(jac - numeric) <= 1e-6 * scale)

    def test_bit_identical_to_per_line_formula(self):
        rng = np.random.default_rng(2000)
        for _ in range(300):
            f = np.sort(rng.uniform(0.0, 200.0, int(rng.integers(8, 2000))))
            lines = [LineModel(rng.uniform(0.0, 200.0), rng.uniform(0.1, 10.0),
                               rng.uniform(0.1, 10.0), rng.uniform(-1.0, 1.0),
                               float(rng.choice([0.0, 1.0, rng.uniform()])))
                     for _ in range(int(rng.integers(1, 5)))]
            total = np.zeros_like(f)
            for line in lines:
                expected = reference_line(line, f)
                assert np.array_equal(line.evaluate(f), expected)
                total += expected
            assert np.array_equal(evaluate_lines(lines, f), total)

    @pytest.mark.parametrize("seed", range(6))
    def test_buffered_jacobian_bits_match_expression_chain(self, seed):
        # fresh arrays, fresh buffers, and buffers last filled for other lines
        # (other centres move every sample's side): the same bits each time
        rng = np.random.default_rng(seed)
        cases = [(np.array([[100.0, 1.3, 2.9, 0.8, 0.37]]), np.linspace(90.0, 110.0, 8)),
                 (np.array([[100.0, 2.0, 2.0, -0.5, 1.0], [150.0, 0.7, 3.1, 0.25, 0.0]]),
                  np.linspace(0.0, 200.0, 3000)), *exp_edge_cases()]
        for k in range(40):
            n_lines = k % 5 + 1
            params = random_lines(rng, n_lines, (0.0, 1.0, None)[k % 3])
            # samples that fall exactly on each centre
            f = np.sort(np.concatenate([rng.uniform(0.0, 200.0, int(rng.integers(8, 3001))),
                                        params[:, 0]]))
            cases.append((params, f))
        # the edge cases' inf and NaN lanes overflow and make NaNs
        with np.errstate(over="ignore", invalid="ignore"):
            for params, f in cases:
                n_lines, n = params.shape[0], f.size
                want_total, want_jac = reference_profile(params, f)
                assert np.array_equal(np.isnan(want_total), np.isnan(f))
                work, jac_out = _profile_work(n_lines, n), np.empty((n_lines, 5, n))
                other = random_lines(rng, n_lines, None)
                calls = [_profile(params, f, jac=True), _profile(params, f, True, work, jac_out)]
                calls[1] = tuple(v.copy(order="K") for v in calls[1])
                _profile(other, f, True, work, jac_out)
                calls.append(_profile(params, f, True, work, jac_out))
                for total, jac in calls:
                    assert same_bits(total, want_total)
                    # the Jacobian is the (samples, 5 * lines) transpose of a C-ordered stack
                    assert jac.T.flags.c_contiguous
                    assert same_bits(jac.T.reshape(n_lines, 5, n), want_jac)
                _profile(other, f, False, work)
                assert same_bits(_profile(params, f, False, work), want_total)
                # exp keeps a NaN argument NaN (lor carries it to the outputs too)
                gauss = work[1][2]
                assert np.all(np.isnan(gauss) == np.isnan(f))
                assert same_bits(_profile(params, f), want_total)


class TestSynthesis:
    def test_deterministic_given_seed(self):
        lines = [LineModel.symmetric(50.0, 4.0, 1.0)]
        f = np.linspace(30, 70, 200)
        a = synthesize(lines, f, noise_sigma=0.1, seed=42)
        b = synthesize(lines, f, noise_sigma=0.1, seed=42)
        assert np.array_equal(a.signal, b.signal)
        c = synthesize(lines, f, noise_sigma=0.1, seed=43)
        assert not np.array_equal(a.signal, c.signal)

    def test_noiseless(self):
        lines = [LineModel.symmetric(50.0, 4.0, 1.0)]
        f = np.linspace(30, 70, 200)
        s = synthesize(lines, f, noise_sigma=0.0, seed=7)
        assert np.array_equal(s.signal, evaluate_lines(lines, f))

    def test_meta_recorded(self):
        s = synthesize([], np.linspace(0, 1, 10), noise_sigma=0.5, seed=3,
                       control_value=293.0, control_unit="K")
        assert s.meta.noise_sigma == 0.5
        assert s.meta.seed == 3
        assert s.meta.control_value == 293.0

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.1])
    def test_negative_seed_refused(self, noise_sigma):
        # the package's own error with or without noise, never numpy's plain
        # ValueError from default_rng (InvalidParameterError's base class)
        f = np.linspace(30, 70, 200)
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            synthesize([LineModel.symmetric(50.0, 4.0, 1.0)], f, noise_sigma=noise_sigma,
                       seed=-5)

    def test_spectrum_validation(self):
        with pytest.raises(InvalidParameterError):
            Spectrum([1, 2, 3], [0, 0, 0])  # too short
        with pytest.raises(InvalidParameterError):
            Spectrum(np.zeros(10), np.zeros(10))  # not increasing
        bound, grid = MAX_MAGNITUDE, np.linspace(0.1, 1.0, 10)
        Spectrum(grid * bound, np.full(10, -bound))  # a frequency and signals at the bound
        past = np.nextafter(bound, np.inf)
        with pytest.raises(InvalidParameterError,
                           match=r"^freqs_mhz entries must be finite and at most"):
            Spectrum(grid * past, np.zeros(10))
        with pytest.raises(InvalidParameterError,
                           match=r"^signal entries must be finite and at most"):
            Spectrum(grid, np.full(10, -past))
        # a grid spanning exactly 2**-100 MHz, and one spanning an ulp less
        span = np.linspace(0.0, 1.0, 10) / bound
        Spectrum(span, np.zeros(10))
        with pytest.raises(InvalidParameterError,
                           match=r"^frequency grid span must be at least 2\*\*-100"):
            Spectrum(np.nextafter(span, 0.0), np.zeros(10))


class TestFitting:
    def test_clean_single_line_recovery(self):
        truth = LineModel(100.0, 1.8, 2.6, -0.03, 0.7)
        f = np.arange(80.0, 120.0, 0.05)
        s = synthesize([truth], f)
        guess = LineModel.symmetric(100.5, 5.0, -0.02, 0.5)
        fit = fit_peaks(s, [guess])[0]
        assert fit.converged
        assert fit.center == pytest.approx(100.0, abs=1e-6)
        assert fit.width == pytest.approx(4.4, abs=1e-5)
        assert fit.amplitude == pytest.approx(-0.03, abs=1e-7)
        assert fit.line.shape_mix == pytest.approx(0.7, abs=1e-4)

    def test_noisy_three_lines(self):
        centers = (106.0, 1339.0, 1445.0)
        amps = (0.01, -0.01, 0.01)
        f = np.unique(np.concatenate(
            [np.arange(c - 25.0, c + 25.0 + 0.025, 0.05) for c in centers]))
        lines = [LineModel.symmetric(c, 4.3, a) for c, a in zip(centers, amps)]
        s = synthesize(lines, f, noise_sigma=0.001, seed=12)
        guesses = [LineModel.symmetric(c + 0.8, 6.0, 0.7 * a, 0.5)
                   for c, a in zip(centers, amps)]
        fits = fit_peaks(s, guesses)
        assert all(p.converged for p in fits)
        for p, c in zip(fits, centers):
            assert p.center == pytest.approx(c, abs=0.2)
            assert p.center_sigma < 0.2

    def test_center_sigma_tracks_scatter(self):
        # the reported 1-sigma should match the seed-to-seed scatter scale
        truth = LineModel.symmetric(50.0, 4.3, 0.01)
        f = np.arange(25.0, 75.0, 0.05)
        centers, sigmas = [], []
        for seed in range(30):
            s = synthesize([truth], f, noise_sigma=0.001, seed=seed)
            p = fit_peaks(s, [LineModel.symmetric(50.3, 5.0, 0.008, 0.5)])[0]
            centers.append(p.center)
            sigmas.append(p.center_sigma)
        scatter = np.std(centers)
        assert np.median(sigmas) == pytest.approx(scatter, rel=0.6)

    def test_full_scan_fits_the_line_between_opposite_lines(self):
        # the negative line's prominence reaches down to its positive
        # neighbours' troughs: measured at half of it, its width guess was
        # 99 MHz, and the fit settled on a 31 MHz-wide line 15 MHz off
        wl, wr = 2.1842225985528407, 2.1163136042373347
        centers = (102.66812822727513, 1343.729692943642, 1446.398)
        lines = [LineModel(c, wl, wr, a, 0.5) for c, a in zip(centers, (0.01, -0.01, 0.01))]
        s = synthesize(lines, np.arange(50.0, 1500.25, 0.5), noise_sigma=0.001, seed=554400772)
        guesses = auto_guesses(s)
        assert len(guesses) == 3
        assert all(0.7 <= g.fwhm / (wl + wr) <= 1.6 for g in guesses), guesses
        fits = fit_peaks(s)
        assert len(fits) == 3
        for fit, want in zip(fits, centers):
            assert abs(fit.center - want) <= min(8.0 * fit.center_sigma, 0.5 * (wl + wr)), fit

    def test_guess_outside_range_rejected(self):
        s = synthesize([LineModel.symmetric(50.0, 4.0, 1.0)],
                       np.linspace(30, 70, 100))
        with pytest.raises(InvalidParameterError):
            fit_peaks(s, [LineModel.symmetric(500.0, 4.0, 1.0)])

    def test_nonconvergence_flag_not_exception(self):
        truth = LineModel.symmetric(50.0, 4.3, 0.01)
        f = np.arange(25.0, 75.0, 0.1)
        s = synthesize([truth], f, noise_sigma=0.002, seed=0)
        fits = fit_peaks(s, [LineModel.symmetric(52.0, 8.0, 0.005, 0.5)],
                         max_iter=1)
        assert len(fits) == 1
        assert not fits[0].converged


def three_line_case(seed):
    """Seeded three-line spectrum: windows with guesses, or (every fourth
    seed) a full scan left to auto_guesses."""
    rng = np.random.default_rng(seed)
    t = transitions_from_zfs(ZfsParameters(rng.uniform(1385.0, 1400.0), rng.uniform(50.0, 56.0)))
    centers, amps = (t.f_xy, t.f_yz, t.f_xz), (0.01, -0.01, 0.01)
    mix = float(rng.choice([1.0, 0.5]))
    skew = rng.uniform(0.8, 1.25)
    lines = [LineModel(c, 2.15 * skew, 2.15 / skew, a, mix) for c, a in zip(centers, amps)]
    if seed % 4 == 3:
        f, guesses = np.arange(50.0, 1500.25, 0.5), None
    else:
        f = np.concatenate([np.arange(c - 25.0, c + 25.0 + 1e-9, 0.05) for c in centers])
        guesses = [LineModel.symmetric(c + rng.uniform(-0.8, 0.8), rng.uniform(3.5, 6.0),
                                       a * rng.uniform(0.6, 1.3), 0.5)
                   for c, a in zip(centers, amps)]
    return synthesize(lines, f, noise_sigma=0.001, seed=seed), guesses


class TestSolver:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_least_squares(self, seed, monkeypatch):
        # the same box problem handed to SciPy's bounded trust-region solver,
        # with residuals and Jacobian from _profile on the case's spectrum
        from scipy.optimize import least_squares

        problems = []
        solve = spectra._solve_box

        def recording(cost_at, normal_equations, x0, lower, upper, max_nfev, tol):
            problems.append((x0, lower, upper, max_nfev, tol))
            return solve(cost_at, normal_equations, x0, lower, upper, max_nfev, tol)

        monkeypatch.setattr(spectra, "_solve_box", recording)
        spectrum, guesses = three_line_case(seed)
        fits = fit_peaks(spectrum, guesses)
        x0, lower, upper, max_nfev, tol = problems[0]
        f, s = spectrum.freqs_mhz, spectrum.signal
        ref = least_squares(lambda v: _profile(v.reshape(-1, 5), f) - s, x0,
                            jac=lambda v: _profile(v.reshape(-1, 5), f, jac=True)[1],
                            bounds=(lower, upper), method="trf", xtol=tol, ftol=tol,
                            gtol=tol, max_nfev=max_nfev)
        assert ref.success and all(p.converged for p in fits)
        cov = np.linalg.pinv(ref.jac.T @ ref.jac) * (2.0 * ref.cost / (ref.fun.size - x0.size))
        ref_sigma = np.sqrt(np.diag(cov))[0::5]
        got = np.array([p.center for p in fits])
        sigma = np.array([p.center_sigma for p in fits])
        assert np.all(np.abs(got - ref.x[0::5]) <= 0.05 * ref_sigma)
        assert np.allclose(sigma, ref_sigma, rtol=1e-2, atol=0.0)

    def test_box_solver_matches_scipy_lsq_linear(self):
        # the normal equations of a linear least-squares problem whose
        # unconstrained optimum puts the third variable above its bound
        from scipy.optimize import lsq_linear

        rng = np.random.default_rng(4)
        a = rng.normal(size=(40, 4))
        b = a @ np.array([0.5, -1.0, 2.0, 0.3]) + rng.normal(0.0, 0.01, 40)
        lower, upper = np.full(4, -5.0), np.array([5.0, 5.0, 1.0, 5.0])
        assert np.linalg.lstsq(a, b, rcond=None)[0][2] > upper[2]
        point = []

        def cost_at(x):
            point[:] = [x, a @ x - b]
            return 0.5 * (point[1] @ point[1])

        def normal_equations():
            return a.T @ point[1], a.T @ a

        x, hess, converged = spectra._solve_box(cost_at, normal_equations, np.zeros(4),
                                                lower, upper, max_nfev=100, tol=1e-8)
        ref = lsq_linear(a, b, bounds=(lower, upper), tol=1e-12)
        assert converged and ref.success
        assert x[2] == upper[2] and ref.active_mask[2] == 1
        # ftol stops the search once the cost is within tol of its minimum,
        # which leaves x within about sqrt(tol) of it
        assert cost_at(x) - ref.cost <= 1e-8 * ref.cost
        assert np.allclose(x, ref.x, rtol=0.0, atol=1e-6)
        assert np.array_equal(hess, a.T @ a)

    def test_lorentzian_pinned_at_mix_one(self, monkeypatch):
        calls = []
        profile = spectra._profile

        def counting(*args, **kwargs):
            calls.append(1)
            return profile(*args, **kwargs)

        monkeypatch.setattr(spectra, "_profile", counting)
        truth = LineModel.symmetric(100.0, 4.3, 0.01, 1.0)
        f = np.arange(80.0, 120.0, 0.05)
        mixes = []
        for seed in range(8):
            calls.clear()
            s = synthesize([truth], f, noise_sigma=0.001, seed=seed)
            (fit,) = fit_peaks(s, [LineModel.symmetric(100.6, 6.0, 0.007, 0.5)])
            assert fit.converged
            assert len(calls) < 30
            mixes.append(fit.line.shape_mix)
        # the noise pushes shape_mix past 1 for some seeds: the bound holds it
        assert mixes.count(1.0) >= 2

    def test_full_scan_evaluation_count(self, monkeypatch):
        # auto-guessed widths near the true ones save the search from first
        # pinning a too-wide line at its lower width bound: 16.0 evaluations
        # per fit with widths at half prominence, 9.4 at half height less
        # the smoothing
        cases = [three_line_case(seed) for seed in (3, 7, 11, 15, 19)]
        assert all(guesses is None for _, guesses in cases)
        calls = []
        profile = spectra._profile

        def counting(*args, **kwargs):
            calls.append(1)
            return profile(*args, **kwargs)

        monkeypatch.setattr(spectra, "_profile", counting)
        for spectrum, _ in cases:
            assert all(p.converged for p in fit_peaks(spectrum))
        assert len(calls) / len(cases) <= 12.0, len(calls) / len(cases)

    def test_zero_amplitude_line_not_converged(self):
        # an all-zero signal pins the amplitude at 0, where the centre moves
        # no sample and so has no defined uncertainty
        s = Spectrum(100.0 + 0.5 * np.arange(40), np.zeros(40))
        (fit,) = fit_peaks(s, [LineModel.symmetric(110.0, 4.0, 1e-6, 0.5)])
        assert fit.amplitude == 0.0
        assert fit.center_sigma == np.inf
        assert not fit.converged

    def test_fit_statistics_are_the_returned_lines(self, monkeypatch):
        # residual_rms and center_sigma match those recomputed from a fresh
        # _profile at the returned lines, bit for bit.  The last case's guess
        # overshoots and its budget ends after five rejected trials, so the
        # buffers hold a trial step when the search returns its start
        truth = LineModel.symmetric(50.0, 4.3, 0.01)
        overshoot = (synthesize([truth], np.arange(25.0, 75.0, 0.1), noise_sigma=0.002, seed=0),
                     [LineModel.symmetric(53.7, 9.9, 0.001, 1.0)], 1)
        cases = [(*three_line_case(seed), 200) for seed in range(20)] + [overshoot]
        costs = []  # the overshoot fit's evaluations, the starting point first
        solve = spectra._solve_box

        def recording(cost_at, *args, **kwargs):
            def counting(x):
                costs.append(cost_at(x))
                return costs[-1]
            costs.clear()
            return solve(counting, *args, **kwargs)

        monkeypatch.setattr(spectra, "_solve_box", recording)
        for spectrum, guesses, max_iter in cases:
            fits = fit_peaks(spectrum, guesses, max_iter)
            f, s = spectrum.freqs_mhz, spectrum.signal
            params = spectra._pack([p.line for p in fits])
            total, jac = _profile(params, f, jac=True)
            r = total - s
            cov = np.linalg.pinv(jac.T @ jac) * ((r @ r) / max(f.size - params.size, 1))
            sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))[0::5]
            sigmas[~jac[:, 0::5].any(axis=0)] = np.inf
            assert [p.residual_rms for p in fits] == [float(np.sqrt(np.mean(r ** 2)))] * len(fits)
            assert [p.center_sigma for p in fits] == sigmas.tolist()
        # accepted costs only fall, so a trial costing at least the starting
        # point's was rejected
        start, *trials = costs
        assert len(trials) == 5 and all(cost >= start for cost in trials)

    def test_fit_memory_is_its_buffers(self):
        # a windowed 3-line, 3,003-sample fit: its peak is the per-fit buffers
        # (one Jacobian and residual vector, five (lines, samples) scratch
        # arrays, their side and exp masks and the summed profile) plus
        # 256 KiB, which a second Jacobian (360,360 B) or a fresh one per
        # evaluation exceeds
        spectrum, guesses = three_line_case(0)
        n_lines, n = len(guesses), len(spectrum)
        assert (n_lines, n) == (3, 3003)
        buffers = 8 * (5 * n_lines * n + n + 5 * n_lines * n + n) + 2 * n_lines * n
        assert buffers == 786_786
        fit_peaks(spectrum, guesses)
        tracemalloc.start()
        try:
            fits = fit_peaks(spectrum, guesses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.converged for p in fits)
        assert peak <= buffers + 256 * 1024, (peak, buffers)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc's heap trim")
    def test_fits_reuse_the_freed_heap(self):
        # in a fresh process, so no earlier test has raised malloc's mmap and
        # trim thresholds: with the scratch floats and the Jacobian allocated
        # apart, each 3,003-sample fit faulted about 160 pages back in
        code = ("import resource, sys; sys.path[:0] = sys.argv[1:]\n"
                "from test_spectra import three_line_case\n"
                "from odmrsense import fit_peaks\n"
                "spectrum, guesses = three_line_case(0)\n"
                "for _ in range(3): fit_peaks(spectrum, guesses)\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "for _ in range(20): fit_peaks(spectrum, guesses)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        here = Path(__file__).resolve().parent
        done = subprocess.run([sys.executable, "-c", code, str(here), str(here.parent / "src")],
                              capture_output=True, text=True, timeout=120, check=True)
        assert int(done.stdout) < 20 * 20, done.stdout


class TestAutoGuesses:
    def test_finds_lines_of_both_polarities(self):
        centers = (106.0, 1339.0, 1445.0)
        amps = (0.01, -0.01, 0.01)
        f = np.unique(np.concatenate(
            [np.arange(c - 25.0, c + 25.0 + 0.025, 0.05) for c in centers]))
        lines = [LineModel.symmetric(c, 4.3, a) for c, a in zip(centers, amps)]
        s = synthesize(lines, f, noise_sigma=0.0005, seed=5)
        guesses = auto_guesses(s)
        found = sorted(g.center for g in guesses)
        assert len(found) == 3
        for got, want in zip(found, sorted(centers)):
            assert got == pytest.approx(want, abs=0.5)
        assert sorted(g.amplitude for g in guesses)[0] < 0

    def test_flat_spectrum_yields_nothing(self):
        s = Spectrum(np.linspace(0, 10, 64), np.full(64, 0.3))
        assert auto_guesses(s) == []
        with pytest.raises(FitConvergenceError):
            fit_peaks(s)

    def test_valley_between_lines_is_not_a_line(self):
        # the gap between two positive lines has line-depth prominence
        # on the negated trace; the baseline height test must reject it
        f = np.arange(1300.0, 1480.0, 0.05)
        lines = [LineModel.symmetric(1339.0, 4.3, 0.032),
                 LineModel.symmetric(1445.0, 4.3, 0.056)]
        for seed in range(5):
            s = synthesize(lines, f, noise_sigma=1e-4, seed=seed)
            got = sorted(g.center for g in auto_guesses(s))
            assert got == pytest.approx([1339.0, 1445.0], abs=0.5)

    def test_noise_estimate(self):
        rng = np.random.default_rng(9)
        s = Spectrum(np.linspace(0, 10, 4000), rng.normal(0, 0.02, 4000))
        assert robust_noise_sigma(s) == pytest.approx(0.02, rel=0.1)


def scipy_peaks(x, height, prominence):
    """SciPy's peaks, each width taken at half of min(prominence, height
    over zero) for a peak above zero and at half prominence otherwise."""
    from scipy.signal import find_peaks, peak_widths

    idx, props = find_peaks(x, height=height, prominence=prominence)
    if not idx.size:
        return idx, np.empty(0)
    prom = props["prominences"]
    half = np.where(x[idx] > 0, np.minimum(prom, x[idx]), prom)
    widths = peak_widths(x, idx, rel_height=0.5,
                         prominence_data=(half, props["left_bases"], props["right_bases"]))[0]
    return idx, widths


class TestFindPeaks:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 400),
           levels=st.sampled_from([0, 2, 5, 40]), sign=st.sampled_from([1.0, -1.0]),
           smooth=st.booleans(), height=st.floats(-2.0, 2.0),
           prominence=st.floats(0.0, 2.0))
    def test_matches_scipy_on_noisy_lines(self, seed, n, levels, sign, smooth, height,
                                          prominence):
        rng = np.random.default_rng(seed)
        u = (np.arange(n) - rng.uniform(0, n)) / rng.uniform(1.0, 30.0)
        x = sign * (rng.uniform(0.0, 3.0) / (1.0 + u ** 2) + rng.normal(0.0, 0.3, n))
        if smooth:
            x = np.convolve(x, np.full(5, 0.2), mode="same")
        if levels:
            # quantising the trace makes plateaus, flat tops and tied bases
            x = np.round(x * levels) / levels
        self.check(x, height, prominence)

    @settings(max_examples=300, deadline=None)
    @given(trace=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
           height=st.integers(-3, 3), prominence=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def test_matches_scipy_on_plateaus(self, trace, height, prominence):
        self.check(np.asarray(trace, dtype=float), float(height), prominence)

    @staticmethod
    def check(x, height, prominence):
        want_idx, want_widths = scipy_peaks(x, height, prominence)
        got = _find_peaks(x, height, prominence)
        assert [p for p, _ in got] == want_idx.tolist()
        widths = np.array([w for _, w in got])
        assert np.allclose(widths, want_widths, rtol=1e-12, atol=0.0)


class TestSpectrumIO:
    def test_round_trip(self, tmp_path):
        lines = [LineModel.symmetric(50.0, 4.0, 0.01)]
        f = np.arange(30.0, 70.0, 0.25)
        s = synthesize(lines, f, noise_sigma=0.001, seed=8,
                       control_value=77.0, control_unit="K")
        path = tmp_path / "spec.csv"
        write_spectrum(s, path)
        assert (tmp_path / "spec.meta.json").exists()
        back = read_spectrum(path)
        assert np.array_equal(back.freqs_mhz, s.freqs_mhz)
        assert np.array_equal(back.signal, s.signal)
        assert back.meta == s.meta == SpectrumMeta(0.001, 8, 77.0, "K")

    @pytest.mark.parametrize("field, value, kind", [
        ("noise_sigma", "abc", "a number"), ("seed", [1], "an integer"),
        ("seed", 1.5, "an integer"), ("control_value", True, "a number"),
        ("control_unit", 5, "a string")])
    def test_sidecar_field_types(self, tmp_path, field, value, kind):
        path = write_spectrum(synthesize([LineModel.symmetric(50.0, 4.0, 0.01)],
                                         np.arange(40.0, 60.0, 0.5)), tmp_path / "spec.csv")
        (tmp_path / "spec.meta.json").write_text(json.dumps({field: value}))
        with pytest.raises(DataFormatError,
                           match=rf"spec\.meta\.json: {field} must be {kind} or null"):
            read_spectrum(path)

    @pytest.mark.parametrize("meta, message", [
        ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0"),
        ({"noise_sigma": -float("inf")}, "noise_sigma must be finite and >= 0"),
        ({"noise_sigma": -1e-3}, "noise_sigma must be finite and >= 0"),
        ({"seed": -5}, "seed must be >= 0"),
        ({"control_value": float("inf")}, "control_value must be finite")],
        ids=["noise-nan", "noise-minus-inf", "noise-negative", "seed-negative",
             "control-value-inf"])
    def test_meta_refuses_bad_provenance(self, meta, message):
        with pytest.raises(InvalidParameterError, match=message):
            SpectrumMeta(**meta)

    def test_meta_takes_integers_too_large_for_a_float(self):
        big = 10 ** 400
        assert SpectrumMeta(noise_sigma=big, seed=big, control_value=-big).seed == big

    def test_sidecar_bad_provenance_names_sidecar(self, tmp_path):
        path = write_spectrum(synthesize([LineModel.symmetric(50.0, 4.0, 0.01)],
                                         np.arange(40.0, 60.0, 0.5)), tmp_path / "spec.csv")
        (tmp_path / "spec.meta.json").write_text('{"noise_sigma": NaN, "seed": -5}')
        with pytest.raises(DataFormatError, match=r"spec\.meta\.json: noise_sigma must be"):
            read_spectrum(path)

    def test_sidecar_nulls_and_missing_fields_load(self, tmp_path):
        path = write_spectrum(synthesize([LineModel.symmetric(50.0, 4.0, 0.01)],
                                         np.arange(40.0, 60.0, 0.5)), tmp_path / "spec.csv")
        (tmp_path / "spec.meta.json").write_text('{"seed": null, "control_value": 3}')
        assert read_spectrum(path).meta == SpectrumMeta(control_value=3)

    def test_header_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(DataFormatError, match=r":1:"):
            read_spectrum(path)

    def test_column_count_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_mhz,signal\n1.0,2.0\n3.0,4.0,5.0\n")
        with pytest.raises(DataFormatError, match=r":3:"):
            read_spectrum(path)

    def test_bad_number_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency_mhz,signal\n1.0,abc\n")
        with pytest.raises(DataFormatError, match=r":2:"):
            read_spectrum(path)

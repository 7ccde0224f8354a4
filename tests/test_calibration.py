"""Segmented calibration fit, readout inversion and sensitivity tests.

The dynamic-programming fit claims global optimality; the oracle for
that is exhaustive enumeration of every breakpoint placement on a small
series.  Per-segment uncertainties are checked against
scipy.stats.linregress, an independent implementation of the same
regression formulas.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import linregress

from odmrsense import (
    CalibrationSeries,
    DataFormatError,
    DivisionDomainError,
    InvalidParameterError,
    PiecewiseLinearFit,
    ReadoutAmbiguityError,
    ReadoutRangeError,
    SegmentFit,
    invert_readout,
    read_calibration,
    segmented_fit,
    sensitivity,
    write_calibration,
)


def brute_force_sse(x, y, n_segments, sigma=None):
    """Oracle: minimum SSE over all breakpoint placements (>= 2 pts each).

    With per-point sigmas the SSE is weighted by 1/sigma^2.  Spans follow
    the order given, so a descending control needs no sorting: reversing
    a series maps its partitions onto each other one to one.
    """
    n = len(x)
    inv = np.ones(n) if sigma is None else 1.0 / np.asarray(sigma)

    def span_sse(i, j):
        xs, ys, ws = x[i:j + 1], y[i:j + 1], inv[i:j + 1]
        slope, intercept = np.polyfit(xs, ys, 1, w=ws)
        return float(np.sum((ws * (ys - intercept - slope * xs)) ** 2))

    best = np.inf
    # choose segment start indices (first is always 0)
    for starts in itertools.combinations(range(2, n - 1), n_segments - 1):
        bounds = [0, *starts, n]
        if any(b - a < 2 for a, b in zip(bounds[:-1], bounds[1:])):
            continue
        total = sum(span_sse(a, b - 1) for a, b in zip(bounds[:-1], bounds[1:]))
        best = min(best, total)
    return best


def temperature_series(seed: int, noise: float = 0.05) -> CalibrationSeries:
    t = np.arange(77.0, 331.0, 1.0)
    v1 = 1445.0 - 0.040 * (193.0 - 77.0)
    v2 = v1 + 2.0 - 0.247 * (260.0 - 193.0)
    f = np.where(t <= 193.0, 1445.0 - 0.040 * (t - 77.0),
                 np.where(t <= 260.0, v1 + 2.0 - 0.247 * (t - 193.0),
                          v2 - 0.101 * (t - 260.0)))
    rng = np.random.default_rng(seed)
    return CalibrationSeries(t, f + rng.normal(0.0, noise, t.size),
                             control_unit="K", label="f_xz vs T")


class TestSeriesValidation:
    def test_monotone_required(self):
        with pytest.raises(InvalidParameterError):
            CalibrationSeries([1, 2, 2, 3], [0, 1, 2, 3])

    def test_decreasing_allowed(self):
        s = CalibrationSeries([4, 3, 2, 1], [0, 1, 2, 3])
        asc = s.ascending()
        assert asc.control[0] == 1 and asc.freq_mhz[0] == 3

    def test_sigma_positive(self):
        with pytest.raises(InvalidParameterError):
            CalibrationSeries([1, 2, 3, 4], [0, 0, 0, 0], [1, 1, 0, 1])

    def test_min_length(self):
        with pytest.raises(InvalidParameterError):
            CalibrationSeries([1, 2, 3], [0, 0, 0])


class TestSegmentedFit:
    def test_noiseless_exact_recovery(self):
        x = np.arange(0.0, 20.0, 1.0)
        y = np.where(x < 10, 5.0 + 2.0 * x, 45.0 - 2.0 * (x - 10.0))
        fit = segmented_fit(CalibrationSeries(x, y), 2)
        assert fit.breakpoints[0] == pytest.approx(9.5)
        assert fit.segments[0].slope == pytest.approx(2.0, abs=1e-10)
        assert fit.segments[1].slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.total_sse == pytest.approx(0.0, abs=1e-16)

    def test_single_segment_matches_linregress(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0, 10, 40)
        y = 3.0 - 0.5 * x + rng.normal(0, 0.3, 40)
        fit = segmented_fit(CalibrationSeries(x, y), 1)
        ref = linregress(x, y)
        seg = fit.segments[0]
        assert seg.slope == pytest.approx(ref.slope, rel=1e-10)
        assert seg.intercept == pytest.approx(ref.intercept, rel=1e-10)
        assert seg.slope_sigma == pytest.approx(ref.stderr, rel=1e-9)
        assert seg.intercept_sigma == pytest.approx(ref.intercept_stderr, rel=1e-9)

    def test_dp_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 14)
        y = rng.normal(0, 1, 14)
        sigma = rng.uniform(0.05, 2.0, 14)
        for ctrl in (x, x[::-1]):
            for sig in (None, sigma):
                for k in (1, 2, 3, 4):
                    fit = segmented_fit(CalibrationSeries(ctrl, y, sig), k)
                    oracle = brute_force_sse(ctrl, y, k, sig)
                    assert fit.total_sse == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_memory_linear_in_length(self):
        # one span-cost column at a time: a 2,000-point fit allocates
        # kilobytes per column, where a full cost matrix is 32 MB per array
        t = np.linspace(77.0, 330.0, 2000)
        rng = np.random.default_rng(5)
        series = CalibrationSeries(t, 1445.0 - 0.1 * t + rng.normal(0, 0.05, t.size))
        tracemalloc.start()
        try:
            segmented_fit(series, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"segmented_fit peaked at {peak / 1e6:.1f} MB"

    def test_single_segment_skips_the_search(self):
        # k = 1 is one line through every sample: no O(n^2) breakpoint
        # search, so a 20,000-point log fits in milliseconds
        t = np.linspace(77.0, 330.0, 20_000)
        rng = np.random.default_rng(6)
        series = CalibrationSeries(t, 1445.0 - 0.1 * t + rng.normal(0, 0.05, t.size))
        start = time.perf_counter()
        fit = segmented_fit(series, 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"k = 1 at n = 20,000 took {elapsed:.2f} s"
        assert fit.segments[0].index_range == (0, 20_000)
        assert fit.breakpoints.size == 0

    def test_sse_monotone_in_segments(self):
        series = temperature_series(seed=1)
        sses = [segmented_fit(series, k).total_sse for k in range(1, 6)]
        for a, b in zip(sses, sses[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12

    def test_temperature_step_recovery(self):
        series = temperature_series(seed=2)
        fit = segmented_fit(series, 3)
        assert fit.breakpoints[0] == pytest.approx(193.0, abs=2.0)
        slopes = [s.slope for s in fit.segments]
        for got, want in zip(slopes, (-0.040, -0.247, -0.101)):
            assert got == pytest.approx(want, rel=0.05)
        # the structural step at the first breakpoint is preserved
        jump = fit.segments[1].predict(193.5) - fit.segments[0].predict(193.5)
        assert jump == pytest.approx(2.0, abs=0.3)

    def test_weighted_fit_downweights_flagged_points(self):
        x = np.arange(0.0, 12.0, 1.0)
        y = 1.0 + 0.5 * x
        y_out = y.copy()
        y_out[5] += 50.0
        sig = np.full(12, 0.1)
        sig[5] = 1e4
        fit = segmented_fit(CalibrationSeries(x, y_out, sig), 1)
        assert fit.segments[0].slope == pytest.approx(0.5, abs=1e-3)

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            segmented_fit(CalibrationSeries([1, 2, 3, 4], [0, 1, 2, 3]), 3)

    def test_json_round_trip(self):
        fit = segmented_fit(temperature_series(seed=4), 3)
        back = PiecewiseLinearFit.from_dict(fit.to_dict())
        assert back.n_segments == fit.n_segments
        assert np.allclose(back.breakpoints, fit.breakpoints)
        for a, b in zip(back.segments, fit.segments):
            assert a.slope == b.slope and a.intercept == b.intercept

    def test_predict_and_segment_index(self):
        x = np.arange(0.0, 20.0, 1.0)
        y = np.where(x < 10, x, 20.0 - x)
        fit = segmented_fit(CalibrationSeries(x, y), 2)
        assert fit.segment_index(3.0) == 0
        assert fit.segment_index(15.0) == 1
        assert fit.predict(4.0) == pytest.approx(4.0, abs=1e-9)
        assert fit.predict(np.array([15.0]))[0] == pytest.approx(5.0, abs=1e-9)


class TestInvertReadout:
    @staticmethod
    def two_segment_fit():
        x = np.arange(0.0, 20.0, 1.0)
        # rising then falling branch; the two frequency ranges overlap
        # on [106.5, 118] so a bare frequency there is ambiguous
        y = np.where(x < 10, 100.0 + 2.0 * x, 120.0 - 1.5 * (x - 10.0))
        return segmented_fit(CalibrationSeries(x, y), 2)

    def test_round_trip(self):
        fit = self.two_segment_fit()
        for ctrl in (2.5, 7.0):
            freq = float(fit.segments[0].predict(ctrl))
            got, _ = invert_readout(fit, freq, segment=0)
            assert got == pytest.approx(ctrl, abs=1e-9)

    def test_measurement_sigma_propagation(self):
        fit = self.two_segment_fit()
        seg = fit.segments[0]
        freq = float(seg.predict(5.0))
        _, sigma0 = invert_readout(fit, freq, segment=0)
        _, sigma1 = invert_readout(fit, freq, segment=0, frequency_sigma=0.4)
        # noiseless calibration: segment sigmas are ~0, so the measurement
        # term dominates: sigma = f_sigma / |slope|
        assert sigma1 == pytest.approx(
            np.sqrt(sigma0 ** 2 + (0.4 / abs(seg.slope)) ** 2), rel=1e-6)

    def test_ambiguity_without_segment(self):
        fit = self.two_segment_fit()
        with pytest.raises(ReadoutAmbiguityError):
            invert_readout(fit, 112.0)

    def test_unique_match_needs_no_segment(self):
        fit = self.two_segment_fit()
        got, _ = invert_readout(fit, 101.0)
        assert got == pytest.approx(0.5, abs=1e-6)

    def test_out_of_range(self):
        fit = self.two_segment_fit()
        with pytest.raises(ReadoutRangeError):
            invert_readout(fit, 500.0)

    def test_zero_slope(self):
        seg = SegmentFit(0.0, 100.0, 0.0, 0.0, 0.0, (0, 4), (0.0, 3.0), 0.0)
        fit = PiecewiseLinearFit([seg], np.array([]), 0.0, 4)
        with pytest.raises(DivisionDomainError):
            invert_readout(fit, 100.0, segment=0)

    def test_bad_segment_index(self):
        fit = self.two_segment_fit()
        with pytest.raises(InvalidParameterError):
            invert_readout(fit, 101.0, segment=5)


class TestSensitivity:
    def test_pressure_scenario(self):
        report = sensitivity(2.0e-4, 1.0, 1.6e-3, 1.8, unit="bar/sqrt(Hz)")
        assert report.eta == 2.0e-4 * 1.0 / (1.6e-3 * 1.8)
        assert report.eta == pytest.approx(0.07, abs=0.001)

    def test_consistency_residual(self):
        report = sensitivity(1.3e-3, 0.5, 2.2e-3, 0.247)
        assert report.consistency_residual() < 1e-18

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s, t, a, b = rng.uniform(0.1, 10.0, size=4)
            lam = rng.uniform(0.5, 2.0)
            base = sensitivity(s, t, a, b).eta
            assert sensitivity(lam * s, t, a, b).eta == pytest.approx(lam * base)
            assert sensitivity(s, lam ** 2 * t, a, b).eta == pytest.approx(lam * base)
            assert sensitivity(s, t, lam * a, b).eta == pytest.approx(base / lam)
            assert sensitivity(s, t, a, lam * b).eta == pytest.approx(base / lam)

    def test_zero_slope(self):
        with pytest.raises(DivisionDomainError):
            sensitivity(1.0, 1.0, 0.0, 1.0)

    def test_negative_inputs(self):
        with pytest.raises(InvalidParameterError):
            sensitivity(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            sensitivity(1.0, 1.0, -2.0, 1.0)


class TestCalibrationIO:
    def test_round_trip(self, tmp_path):
        series = temperature_series(seed=9)
        path = tmp_path / "cal.csv"
        write_calibration(series, path)
        back = read_calibration(path)
        assert np.array_equal(back.control, series.control)
        assert np.array_equal(back.freq_mhz, series.freq_mhz)
        assert back.freq_sigma is None
        assert back.control_unit == "K"
        assert back.label == "f_xz vs T"

    def test_round_trip_with_sigma(self, tmp_path):
        series = CalibrationSeries([1, 2, 3, 4], [10, 20, 30, 40],
                                   [0.1, 0.2, 0.3, 0.4], control_unit="bar")
        path = tmp_path / "cal.csv"
        write_calibration(series, path)
        back = read_calibration(path)
        assert np.array_equal(back.freq_sigma, series.freq_sigma)

    def test_header_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataFormatError, match=r":1:"):
            read_calibration(path)

    def test_partial_sigma_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("control_value,frequency_mhz,sigma_mhz\n"
                        "1,10,0.1\n2,20,\n3,30,0.1\n4,40,0.1\n")
        with pytest.raises(DataFormatError):
            read_calibration(path)

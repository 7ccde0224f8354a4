"""Segmented calibration fit, readout inversion and sensitivity tests.

The dynamic-programming fit claims global optimality; the oracle for
that is exhaustive enumeration of every breakpoint placement on a small
series.  The tiled DP over the full triangle and the float readout must
equal the per-end forms in calibration_oracle bit for bit, and the DP on
the three-segment search's tiles must give the full triangle's fit.  Per-segment uncertainties are checked against scipy.stats.linregress,
an independent implementation of the same regression formulas.
"""

import dataclasses
import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import linregress

import calibration_oracle

from odmrsense import (
    CalibrationSeries,
    DataFormatError,
    DivisionDomainError,
    InvalidParameterError,
    OdmrSenseError,
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
from odmrsense import calibration
from odmrsense.calibration import _MIN_TILE_ENDS, _TILE_SPANS
from odmrsense.constants import MAX_MAGNITUDE

TINY = 1.0 / MAX_MAGNITUDE
PAST = math.nextafter(MAX_MAGNITUDE, math.inf)  # one ulp past the range
SHORT = math.nextafter(TINY, 0.0)  # one ulp short of it


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


def temperature_series(seed: int, noise: float = 0.05, n: int | None = None) -> CalibrationSeries:
    """The three-regime temperature log: 1 K steps, or n points over 77-330 K."""
    t = np.arange(77.0, 331.0, 1.0) if n is None else np.linspace(77.0, 330.0, n)
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

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    def test_sigma_positive(self):
        # 0, and sigmas whose weight 1/sigma^2 would overflow or underflow
        for sigma in (0.0, 1e-155, 1.4e154):
            with pytest.raises(InvalidParameterError):
                CalibrationSeries([1, 2, 3, 4], [0, 0, 0, 0], [1, 1, sigma, 1])

    def test_control_spread_square_must_not_underflow(self):
        # the fit squares control offsets: steps of at least 2**-100 keep
        # every span's squares and determinant normal numbers
        y = [0.0, 1.0, 0.0, 1.0]
        for scale in (1e-200, 1e-160, 1e-150, SHORT):
            with pytest.raises(InvalidParameterError,
                               match=r"^control steps must be at least 2\*\*-100 in magnitude$"):
                CalibrationSeries(np.arange(4.0) * scale, y)
        CalibrationSeries(np.arange(4.0) * TINY, y)

    @pytest.mark.filterwarnings("error")
    def test_control_spread_must_fit_the_float_range(self):
        y = [0.0, 1.0, 0.0, 1.0]
        for controls in ([-1.7e308, -1e308, 1e308, 1.7e308], [-0.8e308, -1e307, 1e307, 0.8e308]):
            with pytest.raises(InvalidParameterError, match=r"^control entries must be finite "
                                                            r"and at most 2\*\*100 in magnitude$"):
                CalibrationSeries(controls, y)
        CalibrationSeries(MAX_MAGNITUDE * np.array([-1.0, -0.5, 0.5, 1.0]), y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("control, freq, sigma, message", [
        ([0.0, 1.0, 2.0, PAST], [0.0, 1.0, 0.0, 1.0], None,
         "control entries must be finite and at most"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, -PAST], None,
         "freq_mhz entries must be finite and at most"),
        ([0.0, SHORT, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0], None, "control steps must be at least"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, SHORT, SHORT], None,
         "a non-zero freq_mhz spread must be at least"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], [1.0, SHORT, 1.0, 1.0],
         "freq_sigma entries must be positive and between"),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0], [1.0, PAST, 1.0, 1.0],
         "freq_sigma entries must be finite and at most"),
    ], ids=["control", "freq", "step", "freq-spread", "sigma-short", "sigma-past"])
    def test_one_ulp_past_the_range_refused(self, control, freq, sigma, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}"):
            CalibrationSeries(control, freq, sigma)

    @pytest.mark.filterwarnings("error")
    def test_range_edges_accepted(self):
        # every quantity exactly at its edge, and a flat frequency log
        CalibrationSeries([-MAX_MAGNITUDE, 0.0, TINY, MAX_MAGNITUDE], [0.0, MAX_MAGNITUDE,
                          -MAX_MAGNITUDE, TINY], [TINY, MAX_MAGNITUDE, 1.0, 1.0])
        CalibrationSeries([0.0, 1.0, 2.0, 3.0], [1e-300] * 4)
        CalibrationSeries([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, TINY, TINY])

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

    @staticmethod
    def peak_bytes(n):
        t = np.linspace(77.0, 330.0, n)
        rng = np.random.default_rng(5)
        series = CalibrationSeries(t, 1445.0 - 0.1 * t + rng.normal(0, 0.05, t.size))
        tracemalloc.start()
        try:
            segmented_fit(series, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_linear_in_length(self):
        # no n x n array: a full cost matrix at n = 2,000 is 32 MB per array
        peak = self.peak_bytes(2000)
        assert peak < 16e6, f"segmented_fit peaked at {peak / 1e6:.1f} MB"

    def test_span_costs_in_one_tile_buffer(self):
        # the span costs of one tile at a time in a 1 MB work buffer, beside
        # the O(k n) tables: 1.6 MB in all measured at n = 3,000
        peak = self.peak_bytes(3000)
        assert peak < 2.5e6, f"segmented_fit peaked at {peak / 1e6:.1f} MB"

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

    def test_two_segments_search_one_end(self):
        # k = 2 reads the DP's last row at the final sample only: one row
        # of span costs, not the O(n^2) triangle
        t = np.linspace(77.0, 330.0, 20_000)
        rng = np.random.default_rng(6)
        series = CalibrationSeries(t, 1445.0 - 0.1 * t + np.where(t > 193.0, 2.0, 0.0)
                                   + rng.normal(0, 0.05, t.size))
        start = time.perf_counter()
        fit = segmented_fit(series, 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"k = 2 at n = 20,000 took {elapsed:.2f} s"
        assert fit.breakpoints[0] == pytest.approx(193.0, abs=0.5)

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

    def test_predict_and_segment_index(self):
        x = np.arange(0.0, 20.0, 1.0)
        y = np.where(x < 10, x, 20.0 - x)
        fit = segmented_fit(CalibrationSeries(x, y), 2)
        assert fit.segment_index(3.0) == 0
        assert fit.segment_index(15.0) == 1
        assert fit.predict(4.0) == pytest.approx(4.0, abs=1e-9)
        assert fit.predict(np.array([15.0]))[0] == pytest.approx(5.0, abs=1e-9)

    def test_searched_path_in_one_tile_buffer(self):
        # the twin of the bound above on a kinked log, whose three-segment
        # search leaves the DP only its tiles: its boxes, O(n) vectors and
        # tiles share the DP's buffer and stay in the same budget
        with pytest.MonkeyPatch.context() as patch:
            searches = spy(patch, "_three_segment_tiles")
            tracemalloc.start()
            try:
                segmented_fit(temperature_series(seed=3, n=3000), 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert searches[0][1] is not None, "the search on the kinked log gave up"
        assert peak < 2.5e6, f"segmented_fit peaked at {peak / 1e6:.1f} MB"

    def test_index_ranges_are_python_ints(self):
        # the starts after the first come from the DP's integer parent table
        fit = segmented_fit(temperature_series(seed=2), 3)
        ranges = [seg.index_range for seg in fit.segments]
        assert [type(i) for r in ranges for i in r] == [int] * 6
        assert [r[1] for r in ranges[:-1]] == [r[0] for r in ranges[1:]]


def drawn_series(n, seed, weighted=False, descending=False, shape="noisy"):
    """A three-regime series of n points.

    shape "rounded" rounds frequencies and sigmas to one decimal and "flat"
    makes every frequency equal, so span costs and candidate sums tie.
    """
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, 2.0, n)) if seed % 2 else np.arange(float(n))
    k1, k2 = np.sort(rng.uniform(x[0], x[-1], 2))
    slopes = rng.normal(0.0, 1.0, 3)
    y = (slopes[0] * x + np.where(x > k1, 2.0 + slopes[1] * (x - k1), 0.0)
         + np.where(x > k2, slopes[2] * (x - k2), 0.0) + rng.normal(0.0, 0.3, n))
    sigma = rng.uniform(0.1, 2.0, n) if weighted else None
    if shape == "rounded":
        y = np.round(y, 1)
        sigma = None if sigma is None else np.round(sigma, 1)
    elif shape == "flat":
        y = np.full(n, 1445.0)
    return CalibrationSeries(x[::-1] if descending else x, y, sigma)


def assert_same_bits(got, want):
    assert (np.asarray(got, dtype=float).tobytes()
            == np.asarray(want, dtype=float).tobytes()), (got, want)


def readout_outcome(invert, *args):
    try:
        return invert(*args)
    except OdmrSenseError as exc:
        return type(exc), str(exc)


def assert_same_readout(fit, oracle_fit, *args):
    """The oracle's (control, sigma) bit for bit, or its error type and text."""
    got = readout_outcome(invert_readout, fit, *args)
    want = readout_outcome(calibration_oracle.invert_readout, oracle_fit, *args)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert_same_bits(got, want)


def triangle_dp(x, y, w, n_segments):
    """_segment_dp on the full triangle, with the three-segment search off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "_three_segment_tiles", lambda *args: None)
        return calibration._segment_dp(x, y, w, n_segments)


def assert_matches_oracle(series, n_segments):
    """The DP tables, segmented_fit and invert_readout equal the oracle's bit for bit.

    The tables come from the full triangle.  The DP's last row is compared
    at the final sample and the others at every sample but that one: the
    entries the library evaluates.
    """
    asc = series.ascending()
    w = np.ones(len(asc)) if asc.freq_sigma is None else 1.0 / asc.freq_sigma ** 2
    tables = triangle_dp(asc.control, asc.freq_mhz, w, n_segments)
    oracle_tables = calibration_oracle.segment_dp(asc.control, asc.freq_mhz, w, n_segments)
    for table, oracle_table in zip(tables, oracle_tables):
        assert_same_bits(table[:n_segments, :-1], oracle_table[:n_segments, :-1])
        assert_same_bits(table[n_segments, -1], oracle_table[n_segments, -1])

    got = segmented_fit(series, n_segments)
    want = calibration_oracle.segmented_fit(series, n_segments)
    assert_same_bits(got.breakpoints, want.breakpoints)
    assert_same_bits(got.total_sse, want.total_sse)
    assert len(got.segments) == len(want.segments)
    for seg_got, seg_want in zip(got.segments, want.segments):
        for field in dataclasses.fields(SegmentFit):
            assert_same_bits(getattr(seg_got, field.name), getattr(seg_want, field.name))

    freqs = [float("nan"), float("inf"), 1e300]
    for seg in want.segments:
        lo, hi = calibration_oracle.freq_range(seg)
        pad = 1e-9 * max(abs(lo), abs(hi), 1.0)
        freqs += [lo, hi, 0.5 * (lo + hi), lo - 0.5 * pad, lo - 2.0 * pad, hi + 2.0 * pad]
    for freq in freqs:
        for segment in (None, -1, *range(want.n_segments + 1)):
            for sigma in (0.0, 0.01):
                assert_same_readout(got, want, freq, segment, sigma)
    for sigma in (-1.0, float("nan"), float("inf")):
        assert_same_readout(got, want, freqs[-1], None, sigma)


# The tiled DP against the per-end oracle, with the shipped tiles and with
# small ones (48 spans, at least 2 ends) that give short series blocks of
# several start tiles and a row 1 of several chunks.  Past the first few
# blocks a tile is width = spans // min_ends starts wide, and the last
# block has n - 3 starts, so n = width + 3 fills one tile exactly; row 1
# fills one chunk at n = spans + 1.
SMALL_TILES = (48, 2)
SMALL_WIDTH = SMALL_TILES[0] // SMALL_TILES[1]
SMALL_EDGES = (SMALL_WIDTH + 2, SMALL_WIDTH + 3, SMALL_WIDTH + 4, 2 * SMALL_WIDTH + 4,
               SMALL_TILES[0], SMALL_TILES[0] + 1, SMALL_TILES[0] + 2)
SHIPPED_WIDTH = _TILE_SPANS // _MIN_TILE_ENDS


class TestOracleEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(4, 120) | st.sampled_from(SMALL_EDGES),
           n_segments=st.integers(1, 5), small_tiles=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), weighted=st.booleans(),
           descending=st.booleans(), shape=st.sampled_from(["noisy", "rounded", "flat"]))
    # a flat series whose one-sample "spans" would cost 0, below the
    # rounding left in the valid spans' costs
    @example(n=9, n_segments=3, small_tiles=False, seed=153,
             weighted=True, descending=False, shape="flat")
    @example(n=SHIPPED_WIDTH + 2, n_segments=3, small_tiles=False, seed=1,
             weighted=True, descending=False, shape="noisy")
    @example(n=SHIPPED_WIDTH + 3, n_segments=2, small_tiles=False, seed=2,
             weighted=False, descending=True, shape="rounded")
    @example(n=SHIPPED_WIDTH + 4, n_segments=4, small_tiles=False, seed=3,
             weighted=False, descending=False, shape="noisy")
    def test_fit_and_readout_match_oracle(self, n, n_segments, small_tiles, seed,
                                          weighted, descending, shape):
        series = drawn_series(n, seed, weighted, descending, shape)
        n_segments = min(n_segments, n // 2)
        if not small_tiles:
            assert_matches_oracle(series, n_segments)
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calibration, "_TILE_SPANS", SMALL_TILES[0])
            patch.setattr(calibration, "_MIN_TILE_ENDS", SMALL_TILES[1])
            assert_matches_oracle(series, n_segments)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("control_exp, freq_exp, sigma", [
        (100, 0, None), (-95, 0, None), (0, 98, None), (0, -100, None),
        (0, 0, TINY), (0, 0, MAX_MAGNITUDE), (100, -100, TINY), (-95, 98, MAX_MAGNITUDE)],
        ids=["control-2^100", "control-2^-95", "freq-2^98", "freq-2^-100", "sigma-2^-100",
             "sigma-2^100", "corner-1", "corner-2"])
    def test_range_corners_match_oracle(self, control_exp, freq_exp, sigma):
        # logs scaled by powers of two to the corners of the declared range
        # (largest controls, smallest steps, largest frequencies, smallest
        # spread, extreme uniform sigmas): the moment sums stay finite
        # unscaled, and the segments are the unscaled log's
        x = np.ldexp(np.linspace(-1.0, 1.0, 40), control_exp)
        y = np.ldexp(np.random.default_rng(1).normal(0.0, 1.0, 40), freq_exp)
        series = CalibrationSeries(x, y, None if sigma is None else np.full(40, sigma))
        for n_segments in (2, 3, 4):
            assert_matches_oracle(series, n_segments)
            ranges = [seg.index_range for seg in segmented_fit(series, n_segments).segments]
            unscaled = segmented_fit(CalibrationSeries(np.linspace(-1.0, 1.0, 40), y),
                                     n_segments)
            assert ranges == [seg.index_range for seg in unscaled.segments]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("slope, intercept", [(0.0, 100.0), (np.nan, 100.0),
                                                  (np.inf, 100.0), (-np.inf, 0.0),
                                                  (2.0, np.nan), (1e-13, 100.0)])
    def test_hand_built_segments_match_oracle(self, slope, intercept):
        seg = SegmentFit(slope, intercept, 0.1, 0.2, 0.01, (0, 4), (0.0, 3.0), 0.0)
        fit = PiecewiseLinearFit([seg], np.array([]), 0.0, 4)
        for freq in (100.0, 103.0, 0.0, 1e300):
            for segment in (None, 0):
                assert_same_readout(fit, fit, freq, segment)


def structured_series(n, seed, shape, weighted, ties, sigma_scale):
    """A kinked or curved n-point log that the three-segment search fits
    without the DP.

    ties gives each pair of neighbouring rows one frequency, rounded to
    0.01 MHz, so span costs and candidate sums tie; sigma_scale multiplies
    every sigma (or sets a uniform one), reaching the weights at the
    corners of the declared range.
    """
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, 2.0, n)) if seed % 2 else np.linspace(77.0, 330.0, n)
    u = (x - x[0]) / (x[-1] - x[0])
    if shape == "kinked":
        k1 = rng.uniform(0.2, 0.45)
        k2 = rng.uniform(k1 + 0.15, 0.8)
        slopes = np.cumsum(rng.choice([-1.0, 1.0], 3) * rng.uniform(1.0, 3.0, 3))
        y = (slopes[0] * u + np.where(u > k1, rng.uniform(-0.2, 0.2)
                                      + (slopes[1] - slopes[0]) * (u - k1), 0.0)
             + np.where(u > k2, (slopes[2] - slopes[1]) * (u - k2), 0.0))
    else:
        y = (rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 5.0) * u ** 2
             + rng.uniform(-3.0, 3.0) * u ** 3)
    y = 1445.0 + y + rng.normal(0.0, 0.01, n)
    if ties:
        y = np.round(np.repeat(y[::2], 2)[:n], 2)
    sigma = rng.uniform(0.005, 0.02, n) if weighted else np.full(n, 0.01)
    if not weighted and sigma_scale == 1.0:
        sigma = None
    return CalibrationSeries(x, y, None if sigma is None else sigma * sigma_scale)


# sigma scales that take structured_series' sigmas (0.005-0.02) and
# drawn_series' (0.1-2.0) to the corners of the declared range
SIGMA_SCALES = (1.0, 2.0 ** -92, 2.0 ** 99)


def spy(patch, name):
    """Record each (args, result) of calibration's function name in the list returned."""
    real, calls = getattr(calibration, name), []

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    patch.setattr(calibration, name, wrapper)
    return calls


def parent_walk(parent, n_segments):
    """Segment bounds from the DP's parent table."""
    bounds, j = [parent.shape[1]], parent.shape[1] - 1
    for k in range(n_segments, 1, -1):
        bounds.append(int(parent[k, j]))
        j = bounds[-1] - 1
    return [0, *bounds[::-1]]


def fit_both_ways(series):
    """(searched, triangle, tiles): the three-segment DP's last total, its
    parent walk and segmented_fit, on the search's tiles and on the full
    triangle, and the tiles the search returned."""
    runs, tiles = [], []
    for search_on in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not search_on:
                patch.setattr(calibration, "_three_segment_tiles", lambda *args: None)
            searches, dps = spy(patch, "_three_segment_tiles"), spy(patch, "_segment_dp")
            fit = segmented_fit(series, 3)
        [(_, result)], [(_, (dp, parent))] = searches, dps
        runs.append((dp[3, -1], parent_walk(parent, 3), fit))
        tiles.append(result)
    return runs[0], runs[1], tiles[0]


def assert_same_fit(got, want):
    assert_same_bits(got.breakpoints, want.breakpoints)
    assert_same_bits(got.total_sse, want.total_sse)
    assert len(got.segments) == len(want.segments)
    for seg_got, seg_want in zip(got.segments, want.segments):
        assert seg_got.index_range == seg_want.index_range
        for field in dataclasses.fields(SegmentFit):
            assert_same_bits(getattr(seg_got, field.name), getattr(seg_want, field.name))


def tile_pairs(tiles):
    return sum((j1 - j0) * (s1 - s0) for j0, j1, s0, s1 in tiles)


class TestThreeSegmentSearch:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(150, 2500), seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["kinked", "curved"]), weighted=st.booleans(),
           ties=st.booleans(), sigma_scale=st.sampled_from(SIGMA_SCALES))
    @example(n=2500, seed=1, shape="curved", weighted=True, ties=True, sigma_scale=SIGMA_SCALES[2])
    @example(n=150, seed=2, shape="kinked", weighted=False, ties=True, sigma_scale=SIGMA_SCALES[1])
    def test_search_matches_dp(self, n, seed, shape, weighted, ties, sigma_scale):
        # on structured logs the search prunes to within its budget, and the
        # DP on its tiles walks the full triangle's parents; ordinary sigmas
        # also match the per-end oracle
        series = structured_series(n, seed, shape, weighted, ties, sigma_scale)
        searched, triangle, tiles = fit_both_ways(series)
        assert tiles is not None, "the search gave up"
        assert tile_pairs(tiles) <= calibration._search_budget(n)
        assert searched[1] == triangle[1]
        fit = searched[2]
        assert [seg.index_range for seg in fit.segments] == list(
            zip(searched[1][:-1], searched[1][1:]))
        if sigma_scale == 1.0:
            want = calibration_oracle.segmented_fit(series, 3)
            assert_same_bits(fit.breakpoints, want.breakpoints)
            assert_same_bits(fit.total_sse, want.total_sse)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(6, 400), seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from(["kinked", "curved", "noisy", "rounded", "flat"]),
           weighted=st.booleans(), ties=st.booleans(),
           sigma_scale=st.sampled_from(SIGMA_SCALES), small_tiles=st.booleans())
    @example(n=9, seed=153, shape="flat", weighted=True, ties=False, sigma_scale=1.0,
             small_tiles=False)
    @example(n=40, seed=6, shape="flat", weighted=False, ties=False, sigma_scale=1.0,
             small_tiles=True)
    @example(n=300, seed=4, shape="kinked", weighted=True, ties=True, sigma_scale=SIGMA_SCALES[1],
             small_tiles=True)
    @example(n=301, seed=5, shape="curved", weighted=False, ties=True, sigma_scale=SIGMA_SCALES[2],
             small_tiles=False)
    def test_search_tiles_and_triangle_agree(self, n, seed, shape, weighted, ties,
                                             sigma_scale, small_tiles):
        # the differential: the DP on the search's tiles and on the full
        # triangle reach the same last total by the same parent walk, and
        # segmented_fit gives the same bits, tied and duplicated rows
        # included; small tiles split each end's starts over several tiles
        if shape in ("kinked", "curved"):
            series = structured_series(n, seed, shape, weighted, ties, sigma_scale)
        else:
            series = drawn_series(n, seed, weighted, seed % 3 == 0, shape)
            if ties:
                series = CalibrationSeries(series.control, np.repeat(
                    series.freq_mhz[::2], 2)[:n], series.freq_sigma)
            if series.freq_sigma is not None:
                series = CalibrationSeries(series.control, series.freq_mhz,
                                           series.freq_sigma * sigma_scale)
        with pytest.MonkeyPatch.context() as patch:
            if small_tiles:
                patch.setattr(calibration, "_TILE_SPANS", SMALL_TILES[0])
                patch.setattr(calibration, "_MIN_TILE_ENDS", SMALL_TILES[1])
            searched, triangle, _ = fit_both_ways(series)
        assert_same_bits(searched[0], triangle[0])
        assert searched[1] == triangle[1]
        assert_same_fit(searched[2], triangle[2])

    @pytest.mark.parametrize("n", [60, 90, 150])
    def test_exact_ties_across_tiles(self, n):
        # a noiseless log of three integer lines that meet at samples: moving
        # the second start across a meeting point ties exactly, and small
        # tiles put the tied starts in different tiles, which the DP must
        # visit in the triangle's order to keep the first
        x = np.arange(float(n))
        a, b = n // 3, 2 * n // 3
        y = np.where(x <= a, x, np.where(x <= b, a - 2 * (x - a), a - 2 * (b - a) + 3 * (x - b)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calibration, "_TILE_SPANS", SMALL_TILES[0])
            patch.setattr(calibration, "_MIN_TILE_ENDS", SMALL_TILES[1])
            searched, triangle, tiles = fit_both_ways(CalibrationSeries(x, y))
        assert tiles is not None, "the search gave up"
        assert searched[1] == triangle[1]
        assert_same_fit(searched[2], triangle[2])

    def test_noise_falls_back_within_budget(self):
        # pure noise leaves too many boxes to prune: the search gives up
        # before its tiles pass the budget.  Counted: every span cost formed
        # on the full prefix sums before the DP takes the full triangle
        n = 3000
        t = np.linspace(77.0, 330.0, n)
        series = CalibrationSeries(t, 1445.0 + np.random.default_rng(5).normal(0, 0.05, n))
        span_costs = calibration._span_costs
        searched = []

        def counting_span_costs(sums, j0, j1, s0, s1, scratch):
            if sums.shape[1] == n + 1 and not triangles:
                searched.append((j1 - j0) * (s1 - s0))
            return span_costs(sums, j0, j1, s0, s1, scratch)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calibration, "_span_costs", counting_span_costs)
            triangles, searches = spy(patch, "_triangle_tiles"), spy(patch, "_three_segment_tiles")
            fit = segmented_fit(series, 3)
        assert [tiles for _, tiles in searches] == [None]
        assert [args for args, _ in triangles] == [(n, 3)]
        assert 0 < sum(searched) <= calibration._search_budget(n)
        want = calibration_oracle.segmented_fit(series, 3)
        assert_same_bits(fit.breakpoints, want.breakpoints)


class TestInputScale:
    """Inside the declared range breakpoints do not depend on the scale of
    frequencies or controls; a log scaled past it is refused."""

    @staticmethod
    def kinked_log():
        series = temperature_series(seed=4, n=60)
        return series.control, series.freq_mhz

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_segments", [2, 3])
    @pytest.mark.parametrize("freq_exp, control_exp", [
        (700, 0), (-700, 0), (0, 520), (0, -480), (89, 0), (-104, 0), (0, 91), (0, -102),
        (90, 0), (-105, 0), (0, 92), (0, -103)],
        ids=["freq-2^700", "freq-2^-700", "control-2^520", "control-2^-480",
             "freq-2^89", "freq-2^-104", "control-2^91", "control-2^-102",
             "freq-2^90", "freq-2^-105", "control-2^92", "control-2^-103"])
    def test_power_of_two_scale_keeps_bits(self, n_segments, freq_exp, control_exp):
        # an exact rescaling: the same index ranges, and breakpoints that are
        # the unscaled log's times the same power of two, up to the scales
        # that bring the log to the range's edges (largest frequency, least
        # frequency spread, largest control, least step); one power of two
        # further, the log is refused
        t, f = self.kinked_log()
        want = segmented_fit(CalibrationSeries(t, f), n_segments)
        if not (-104 <= freq_exp <= 89 and -102 <= control_exp <= 91):
            with pytest.raises(InvalidParameterError, match=r"2\*\*-?100 in magnitude$"):
                CalibrationSeries(np.ldexp(t, control_exp), np.ldexp(f, freq_exp))
            return
        got = segmented_fit(CalibrationSeries(np.ldexp(t, control_exp), np.ldexp(f, freq_exp)),
                            n_segments)
        assert ([seg.index_range for seg in got.segments]
                == [seg.index_range for seg in want.segments])
        assert_same_bits(np.ldexp(got.breakpoints, -control_exp), want.breakpoints)
        # and lines whose slopes and slope sigmas carry 2^-control_exp, and
        # all four the frequency scale
        for seg_got, seg_want in zip(got.segments, want.segments):
            assert_same_bits(
                np.ldexp([seg_got.slope, seg_got.slope_sigma], control_exp - freq_exp),
                [seg_want.slope, seg_want.slope_sigma])
            assert_same_bits(np.ldexp([seg_got.intercept, seg_got.intercept_sigma], -freq_exp),
                             [seg_want.intercept, seg_want.intercept_sigma])

    @pytest.mark.filterwarnings("error")
    def test_every_power_of_two_control_scale_keeps_line_bits(self):
        # every k whose controls CalibrationSeries accepts, on the 12-point
        # log-spaced probe log: its steps reach 2**-100 at k = -103 and its
        # controls 2**100 at k = 91
        i = np.arange(12)
        t = np.geomspace(77.0, 330.0, 12)
        f = 1445.0 - 0.1 * i - 0.5 * np.maximum(i - 8, 0) + 0.01 * np.sin(7 * i)
        want = [(seg.index_range, seg.slope, seg.slope_sigma, seg.intercept, seg.intercept_sigma)
                for seg in segmented_fit(CalibrationSeries(t, f), 2).segments]
        for k in range(-103, 92):
            got = [(seg.index_range, math.ldexp(seg.slope, k), math.ldexp(seg.slope_sigma, k),
                    seg.intercept, seg.intercept_sigma)
                   for seg in segmented_fit(CalibrationSeries(np.ldexp(t, k), f), 2).segments]
            assert got == want, k
        with pytest.raises(InvalidParameterError, match="control steps must be at least"):
            CalibrationSeries(np.ldexp(t, -104), f)
        with pytest.raises(InvalidParameterError, match="control entries must be finite"):
            CalibrationSeries(np.ldexp(t, 92), f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_segments", [2, 3])
    @pytest.mark.parametrize("freq_scale", [1e297, 1e-300, 1e26, 1e-29])
    def test_extreme_frequencies_keep_breakpoints(self, n_segments, freq_scale):
        # frequencies x 1e26 reach 1.4e29 and x 1e-29 spread 2.6e-28, inside
        # the range; x 1e297 and x 1e-300 lie past it and are refused
        t, f = self.kinked_log()
        if freq_scale in (1e297, 1e-300):
            with pytest.raises(InvalidParameterError, match="freq_mhz"):
                CalibrationSeries(t, f * freq_scale)
            return
        want = segmented_fit(CalibrationSeries(t, f), n_segments)
        got = segmented_fit(CalibrationSeries(t, f * freq_scale), n_segments)
        assert_same_bits(got.breakpoints, want.breakpoints)
        assert ([seg.index_range for seg in got.segments]
                == [seg.index_range for seg in want.segments])


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

    def test_control_past_float_range(self):
        # a slope too small for the frequency offset is refused, not inf
        seg = SegmentFit(5e-324, 0.0, 0.0, 0.0, 0.0, (0, 4), (0.0, 3.0), 0.0)
        fit = PiecewiseLinearFit([seg], np.array([]), 0.0, 4)
        with pytest.raises(DivisionDomainError, match="leaves the range"):
            invert_readout(fit, 1e-10, segment=0)

    def test_range_edges(self):
        # frequency, its sigma and the control at 2**100 are read out; one
        # ulp past, each is refused
        seg = SegmentFit(0.5, 0.0, 0.0, 0.0, 0.0, (0, 4), (0.0, 2 * PAST), 0.0)
        fit = PiecewiseLinearFit([seg], np.array([]), 0.0, 4)
        half = MAX_MAGNITUDE / 2
        assert invert_readout(fit, half, 0, MAX_MAGNITUDE) == (MAX_MAGNITUDE, MAX_MAGNITUDE / 0.5)
        with pytest.raises(DivisionDomainError,
                           match=r"leaves the range: it must be at most 2\*\*100 in magnitude$"):
            invert_readout(fit, math.nextafter(half, math.inf), 0)
        with pytest.raises(InvalidParameterError,
                           match=r"^frequency_sigma must be >= 0 and at most 2\*\*100"):
            invert_readout(fit, half, 0, PAST)
        seg = SegmentFit(2.0, 0.0, 0.0, 0.0, 0.0, (0, 4), (0.0, MAX_MAGNITUDE), 0.0)
        fit = PiecewiseLinearFit([seg], np.array([]), 0.0, 4)
        assert invert_readout(fit, MAX_MAGNITUDE, 0) == (MAX_MAGNITUDE / 2, 0.0)
        with pytest.raises(InvalidParameterError,
                           match=r"^frequency_mhz must be at most 2\*\*100 in magnitude$"):
            invert_readout(fit, PAST, 0)

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
        assert type(report.consistency_residual()) is float

    @pytest.mark.parametrize("position", range(4))
    def test_integer_past_float_range_refused(self, position):
        inputs = [1, 1, 1, 1]
        inputs[position] = 10 ** 400
        with pytest.raises(InvalidParameterError, match="must be positive and between"):
            sensitivity(*inputs)

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

    @pytest.mark.filterwarnings("error")  # refused without a RuntimeWarning
    @pytest.mark.parametrize("inputs", [(1e300, 1e300, 1e-300, 1e-300),
                                        (1.0, 1.0, 1e-200, 1e-200),
                                        (1e-300, 1e-300, 1e300, 1e300)],
                             ids=["overflows", "slopes-underflow", "underflows"])
    def test_eta_out_of_float_range(self, inputs):
        # inputs whose eta would leave the float range lie past the
        # declared range, and are refused before any arithmetic
        with pytest.raises(InvalidParameterError, match=r"between 2\*\*-100 and 2\*\*100"):
            sensitivity(*inputs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("position", range(4))
    def test_range_edges(self, position):
        # each input at 2**-100 or 2**100 gives a finite eta; one ulp past
        # either edge it is refused
        for edge, past in ((TINY, SHORT), (MAX_MAGNITUDE, PAST)):
            inputs = [1.0] * 4
            inputs[position] = edge
            assert 0.0 < sensitivity(*inputs).eta < math.inf
            inputs[position] = past
            with pytest.raises(InvalidParameterError, match="must be positive and between"):
                sensitivity(*inputs)


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

    @pytest.mark.parametrize("cells, line", [(("nan",) * 4, 2),
                                             (("0.1", "inf", "0.1", "0.1"), 3)],
                             ids=["all-nan", "one-inf"])
    def test_written_nonfinite_sigma_rejected(self, tmp_path, cells, line):
        # only a blank cell means "no sigma": nan must not load as unweighted
        path = tmp_path / "bad.csv"
        path.write_text("control_value,frequency_mhz,sigma_mhz\n" + "".join(
            f"{k},{10 * k},{cell}\n" for k, cell in enumerate(cells, start=1)))
        with pytest.raises(DataFormatError, match=rf"bad\.csv:{line}: non-finite number"):
            read_calibration(path)

    @pytest.mark.parametrize("sigma", ["0", "1e-155"])
    def test_bad_sigma_names_its_line(self, tmp_path, sigma):
        path = tmp_path / "bad.csv"
        cells = ["0.1"] * 3 + [sigma] + ["0.1"] * 4
        path.write_text("control_value,frequency_mhz,sigma_mhz\n" + "".join(
            f"{k},{10 * k},{cell}\n" for k, cell in enumerate(cells, start=1)))
        with pytest.raises(DataFormatError, match=r"bad\.csv:5: sigma_mhz must be positive"):
            read_calibration(path)

    @pytest.mark.parametrize("field, value", [("control_unit", None), ("label", [1, 2]),
                                              ("label", 5)])
    def test_sidecar_field_types(self, tmp_path, field, value):
        path = tmp_path / "cal.csv"
        write_calibration(CalibrationSeries([1, 2, 3, 4], [10, 20, 30, 40]), path)
        path.with_suffix(".meta.json").write_text(json.dumps({field: value}))
        with pytest.raises(DataFormatError,
                           match=rf"cal\.meta\.json: {field} must be a string"):
            read_calibration(path)

    def test_partial_sigma_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("control_value,frequency_mhz,sigma_mhz\n"
                        "1,10,0.1\n2,20,\n3,30,0.1\n4,40,0.1\n")
        with pytest.raises(DataFormatError):
            read_calibration(path)

"""Per-end oracle for the segmented fit and the readout inversion.

The library forms span costs tile by tile and inverts readouts on
Python floats.  This module keeps the plain forms as the reference the
tests compare them against: one span-cost column and one numpy argmin
per end index and segment count, and a readout that takes each
segment's frequency range from SegmentFit.predict.  Both do the same
floating-point operations in the same order as the library, so the
comparison is exact.  Each segment's line comes from the library's own
_segment_line; exact_line is the reference for that, in rational
arithmetic.  Quadratic cost in calls as well as arithmetic: modest
lengths only.
"""

from fractions import Fraction

import numpy as np

from odmrsense import (
    DivisionDomainError,
    InvalidParameterError,
    PiecewiseLinearFit,
    ReadoutAmbiguityError,
    ReadoutRangeError,
    SegmentFit,
)
from odmrsense.calibration import _segment_line
from odmrsense.constants import AT_MOST, MAX_MAGNITUDE


def segment_dp(x, y, w, n_segments):
    """(dp, parent) of the segmentation DP, filled one end index at a time.

    dp[k, j] is the best SSE covering samples 0..j with k segments and
    parent[k, j] the first sample of the last of them.
    """
    n = x.size
    xc = x - np.average(x, weights=w)
    yc = y - np.average(y, weights=w)
    sums = np.zeros((6, n + 1))
    np.cumsum([w, w * xc, w * yc, w * xc * xc, w * xc * yc, w * yc * yc],
              axis=1, out=sums[:, 1:])
    dp = np.full((n_segments + 1, n), np.inf)
    parent = np.zeros((n_segments + 1, n), dtype=int)
    for j in range(1, n) if n_segments > 1 else ():
        # cost[i]: weighted SSE of the best line on samples i..j, for i < j
        sw, sx, sy, sxx, sxy, syy = sums[:, j + 1, None] - sums[:, :j]
        with np.errstate(divide="ignore", invalid="ignore"):
            det = sw * sxx - sx * sx
            slope = (sw * sxy - sx * sy) / det
            intercept = (sy - slope * sx) / sw
            cost = np.maximum(syy - intercept * sy - slope * sxy, 0.0)
        cost[np.isnan(cost)] = np.inf
        dp[1, j] = cost[0]
        for k in range(2, min(n_segments, (j + 1) // 2) + 1):
            lo = 2 * (k - 1)
            cand = dp[k - 1, lo - 1:j - 1] + cost[lo:j]
            best = int(np.argmin(cand))
            dp[k, j] = cand[best]
            parent[k, j] = lo + best
    return dp, parent


def segmented_fit(series, n_segments):
    """odmrsense.segmented_fit with the DP of segment_dp."""
    if n_segments < 1:
        raise InvalidParameterError("n_segments must be >= 1")
    asc = series.ascending()
    n = len(asc)
    if n < 2 * n_segments:
        raise InvalidParameterError(
            f"{n_segments} segments need at least {2 * n_segments} points, got {n}")
    x = asc.control
    y = asc.freq_mhz
    known_sigma = asc.freq_sigma is not None
    w = 1.0 / asc.freq_sigma ** 2 if known_sigma else np.ones(n)
    _, parent = segment_dp(x, y, w, n_segments)

    bounds = [n]
    j = n - 1
    for k in range(n_segments, 1, -1):
        start = parent[k, j]
        bounds.append(start)
        j = start - 1
    bounds.append(0)
    bounds.reverse()

    segments = []
    total_sse = 0.0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        line = _segment_line(x[start:stop], y[start:stop], w[start:stop], known_sigma)
        total_sse += line["sse"]
        segments.append(SegmentFit(**line, index_range=(start, stop),
                                   control_range=(float(x[start]), float(x[stop - 1]))))
    breakpoints = np.array([
        0.5 * (x[b - 1] + x[b]) for b in bounds[1:-1]
    ])
    return PiecewiseLinearFit(segments, breakpoints, total_sse, n,
                              asc.control_unit, asc.label)


def exact_line(x, y):
    """The unweighted least-squares line of float samples, in exact rational
    arithmetic: a dict of Fractions slope, intercept and sse, the means
    xbar and ybar, and the variances var_slope = s2 / Sxx and var_intercept
    = s2 (1 / n + xbar^2 / Sxx), s2 = sse / (n - 2) (None for n = 2).
    """
    x, y = ([Fraction(float(v)) for v in vs] for vs in (x, y))
    n = len(x)
    xbar, ybar = sum(x) / n, sum(y) / n
    sxx = sum((a - xbar) ** 2 for a in x)
    slope = sum((a - xbar) * (b - ybar) for a, b in zip(x, y)) / sxx
    intercept = ybar - slope * xbar
    sse = sum((b - intercept - slope * a) ** 2 for a, b in zip(x, y))
    s2 = sse / (n - 2) if n > 2 else None
    return {"slope": slope, "intercept": intercept, "sse": sse, "xbar": xbar, "ybar": ybar,
            "var_slope": s2 and s2 / sxx,
            "var_intercept": s2 and s2 * (Fraction(1, n) + xbar ** 2 / sxx)}


def freq_range(seg):
    """A segment's calibrated frequency range through numpy's predict."""
    ends = seg.predict(np.asarray(seg.control_range))
    return (float(ends.min()), float(ends.max()))


def invert_readout(fit, frequency_mhz, segment=None, frequency_sigma=0.0):
    """odmrsense.invert_readout with numpy scalars throughout."""
    if not abs(frequency_mhz) <= MAX_MAGNITUDE:
        raise InvalidParameterError(f"frequency_mhz must be {AT_MOST}")
    if not 0 <= frequency_sigma <= MAX_MAGNITUDE:
        raise InvalidParameterError(f"frequency_sigma must be >= 0 and {AT_MOST}")

    def in_range(seg: SegmentFit) -> bool:
        lo, hi = freq_range(seg)
        pad = 1e-9 * max(abs(lo), abs(hi), 1.0)
        return lo - pad <= frequency_mhz <= hi + pad

    if segment is None:
        hits = [k for k, seg in enumerate(fit.segments) if in_range(seg)]
        if not hits:
            raise ReadoutRangeError(
                f"{frequency_mhz} MHz lies outside every calibrated segment")
        if len(hits) > 1:
            raise ReadoutAmbiguityError(
                f"{frequency_mhz} MHz falls in overlapping segments {hits}")
        segment = hits[0]
    elif not 0 <= segment < fit.n_segments:
        raise InvalidParameterError(f"segment index {segment} out of range")
    seg = fit.segments[segment]
    if not in_range(seg):
        raise ReadoutRangeError(
            f"{frequency_mhz} MHz is outside segment {segment}'s calibrated range")
    if seg.slope == 0:
        raise DivisionDomainError("segment slope is zero; readout is undefined")
    control = (frequency_mhz - seg.intercept) / seg.slope
    if not abs(control) <= MAX_MAGNITUDE:
        raise DivisionDomainError(f"readout control {control} leaves the range: it must be "
                                  f"{AT_MOST}")
    var = frequency_sigma ** 2
    cov = seg.cov_slope_intercept
    if np.isfinite(seg.slope_sigma) and np.isfinite(seg.intercept_sigma) and np.isfinite(cov):
        var += (seg.intercept_sigma ** 2
                + (abs(control) * seg.slope_sigma) ** 2
                + 2.0 * control * cov)
    sigma = float(np.sqrt(max(var, 0.0))) / abs(seg.slope)
    return float(control), sigma

"""Calibration of transition frequency against a control parameter.

A calibration series maps a strictly monotone control parameter
(temperature, pressure) to a measured transition frequency.  The central
tool is an exact dynamic-programming segmented linear fit: for a given
number of segments it minimizes the total (weighted) squared error over
all possible breakpoint placements, which makes the optimum reproducible
and the residual provably non-increasing in the segment count.

On top of that sit inversion of a piecewise fit back to the control
parameter with uncertainty propagation, and the shot-noise sensitivity
figure eta = sigma sqrt(tau) / (signal_slope * calib_slope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataFormatError,
    DivisionDomainError,
    InvalidParameterError,
    ReadoutAmbiguityError,
    ReadoutRangeError,
)
from .textio import read_sidecar, read_table, write_table


def _validated_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be 1-D")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite values")
    return arr


_SIGMA_RULE = "must be positive, with 1/sigma^2 finite and non-zero"


def _sigma_ok(sig: np.ndarray) -> np.ndarray:
    """Per entry, whether a 1-sigma uncertainty keeps _SIGMA_RULE."""
    with np.errstate(over="ignore", divide="ignore"):
        weight = 1.0 / sig ** 2  # as segmented_fit weighs the points
    return (sig > 0) & (weight > 0) & (weight < np.inf)


@dataclass(frozen=True)
class CalibrationSeries:
    """Frequency response of one transition to a control parameter.

    control must be strictly monotone (either direction); freq_sigma, when
    given, holds per-point 1-sigma frequency uncertainties in MHz and
    turns downstream fits into weighted fits.
    """

    control: np.ndarray
    freq_mhz: np.ndarray
    freq_sigma: np.ndarray | None = None
    control_unit: str = ""
    label: str = ""

    def __init__(self, control, freq_mhz, freq_sigma=None,
                 control_unit: str = "", label: str = ""):
        ctrl = _validated_1d(control, "control")
        freq = _validated_1d(freq_mhz, "freq_mhz")
        if ctrl.size != freq.size:
            raise InvalidParameterError("control and freq_mhz lengths differ")
        if ctrl.size < 4:
            raise InvalidParameterError("calibration series needs at least 4 points")
        steps = np.diff(ctrl)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise InvalidParameterError("control must be strictly monotone")
        sig = None
        if freq_sigma is not None:
            sig = _validated_1d(freq_sigma, "freq_sigma")
            if sig.size != freq.size:
                raise InvalidParameterError("freq_sigma length differs from freq_mhz")
            if not np.all(_sigma_ok(sig)):
                raise InvalidParameterError(f"freq_sigma entries {_SIGMA_RULE}")
        object.__setattr__(self, "control", ctrl)
        object.__setattr__(self, "freq_mhz", freq)
        object.__setattr__(self, "freq_sigma", sig)
        object.__setattr__(self, "control_unit", str(control_unit))
        object.__setattr__(self, "label", str(label))

    def __len__(self) -> int:
        return self.control.size

    def ascending(self) -> "CalibrationSeries":
        """Copy with control sorted ascending (no-op when already so)."""
        if self.control[0] < self.control[-1]:
            return self
        sig = None if self.freq_sigma is None else self.freq_sigma[::-1].copy()
        return CalibrationSeries(self.control[::-1].copy(), self.freq_mhz[::-1].copy(),
                                 sig, self.control_unit, self.label)


@dataclass(frozen=True)
class SegmentFit:
    """One straight-line segment: freq = intercept + slope * control.

    index_range is the half-open [start, stop) into the ascending series;
    sigmas follow the usual linear-regression covariance (scaled by the
    residual variance when no per-point sigmas were supplied; nan when the
    segment has no residual degrees of freedom).
    """

    slope: float
    intercept: float
    slope_sigma: float
    intercept_sigma: float
    cov_slope_intercept: float
    index_range: tuple[int, int]
    control_range: tuple[float, float]
    sse: float

    def predict(self, control):
        return self.intercept + self.slope * np.asarray(control, dtype=float)

    @property
    def freq_range(self) -> tuple[float, float]:
        # on Python floats: the same operations as predict, without the
        # numpy call overhead that dominates one readout
        start, stop = self.control_range
        a = self.intercept + self.slope * start
        b = self.intercept + self.slope * stop
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PiecewiseLinearFit:
    """Optimal piecewise-linear calibration with k segments.

    breakpoints are the k-1 control values separating segments, placed
    midway between the last sample of one segment and the first of the
    next.  Continuity across breakpoints is not enforced: genuinely
    discontinuous responses (structural phase steps) keep their jump.
    """

    segments: tuple[SegmentFit, ...]
    breakpoints: np.ndarray
    total_sse: float
    n_points: int
    control_unit: str = ""
    label: str = ""

    def __init__(self, segments, breakpoints, total_sse, n_points,
                 control_unit: str = "", label: str = ""):
        segs = tuple(segments)
        bps = _validated_1d(breakpoints, "breakpoints")
        if len(segs) == 0 or bps.size != len(segs) - 1:
            raise InvalidParameterError("need exactly one breakpoint between segments")
        if bps.size > 1 and np.any(np.diff(bps) <= 0):
            raise InvalidParameterError("breakpoints must be strictly increasing")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "total_sse", float(total_sse))
        object.__setattr__(self, "n_points", int(n_points))
        object.__setattr__(self, "control_unit", str(control_unit))
        object.__setattr__(self, "label", str(label))

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def segment_index(self, control: float) -> int:
        return int(np.searchsorted(self.breakpoints, control, side="left"))

    def predict(self, control):
        ctrl = np.asarray(control, dtype=float)
        idx = np.searchsorted(self.breakpoints, ctrl, side="left")
        slopes = np.array([s.slope for s in self.segments])
        intercepts = np.array([s.intercept for s in self.segments])
        out = intercepts[idx] + slopes[idx] * ctrl
        return out if out.ndim else float(out)


def _weighted_line_fit(x, y, w, known_sigma: bool):
    """Slope/intercept with covariance for one segment (lstsq refit)."""
    sqw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x]) * sqw[:, None]
    target = y * sqw
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    resid = y - (intercept + slope * x)
    sse = float(np.sum(w * resid * resid))
    gram_inv = np.linalg.inv(design.T @ design)
    if known_sigma:
        cov = gram_inv
    else:
        dof = x.size - 2
        cov = gram_inv * (sse / dof) if dof > 0 else np.full((2, 2), np.nan)
    return slope, intercept, cov, sse


# Span costs are formed in tiles of _TILE_SPANS (end, start) pairs: small
# enough that a tile's eight work arrays (1 MB) stay in a core's cache,
# large enough that numpy's per-call overhead does not dominate.  A block
# of ends is sized so that one tile holds all their starts, down to
# _MIN_TILE_ENDS ends; past that, its starts are split over several tiles.
# Few long rows beat many short ones: numpy pays per row for the
# broadcast operands.
_TILE_SPANS = 16384
_MIN_TILE_ENDS = 4


def _span_costs(sums, j0, j1, s0, s1, scratch):
    """(cost, spare): cost[e, s] is the weighted SSE of the best line on
    samples s0 + s .. j0 + e.

    Both are views into scratch, which holds eight tiles; spare is a
    tile of the same shape free for the caller.  Spans of fewer than two
    samples and degenerate spans (NaN) cost inf.  Callers ignore divide
    and invalid floating-point errors.
    """
    shape = (j1 - j0, s1 - s0)
    work = scratch[:8 * shape[0] * shape[1]].reshape(8, *shape)
    sw, sx, sy, sxx, sxy, syy, a, b = work
    np.subtract(sums[:, j0 + 1:j1 + 1, None], sums[:, None, s0:s1], out=work[:6])
    # det = sw * sxx - sx * sx, into sxx
    np.multiply(sw, sxx, out=sxx)
    np.multiply(sx, sx, out=a)
    np.subtract(sxx, a, out=sxx)
    # slope = (sw * sxy - sx * sy) / det, into b
    np.multiply(sw, sxy, out=b)
    np.multiply(sx, sy, out=a)
    np.subtract(b, a, out=b)
    np.divide(b, sxx, out=b)
    # intercept = (sy - slope * sx) / sw, into a
    np.multiply(b, sx, out=a)
    np.subtract(sy, a, out=a)
    np.divide(a, sw, out=a)
    # cost = max(syy - intercept * sy - slope * sxy, 0), into a
    np.multiply(a, sy, out=a)
    np.subtract(syy, a, out=a)
    np.multiply(b, sxy, out=b)
    np.subtract(a, b, out=a)
    np.maximum(a, 0.0, out=a)
    np.copyto(a, np.inf, where=np.isnan(a))
    if s1 > j0:  # the tile reaches spans that start at or after their end
        c0 = max(j0 - s0, 0)
        np.copyto(a[:, c0:], np.inf, where=np.arange(s0 + c0, s1) >= np.arange(j0, j1)[:, None])
    return a, b


def _segment_dp(x, y, w, n_segments):
    """(dp, parent) of the exact segmentation dynamic program.

    dp[k, j] is the best SSE covering samples 0..j with k segments of at
    least two samples each, and parent[k, j] the first sample of the last
    of them (inf and 0 where no such split exists).  The last row is
    evaluated at the final sample only, the one entry the fit reads, so
    k = 2 searches a single end.
    """
    n = x.size
    # prefix sums of the centred, weighted moments make every span sum
    # O(1); centring keeps them well conditioned even when the raw second
    # moments dwarf the residuals
    xc = x - np.average(x, weights=w)
    yc = y - np.average(y, weights=w)
    sums = np.zeros((6, n + 1))
    np.cumsum([w, w * xc, w * yc, w * xc * xc, w * xc * yc, w * yc * yc],
              axis=1, out=sums[:, 1:])
    dp = np.full((n_segments + 1, n), np.inf)
    parent = np.zeros((n_segments + 1, n), dtype=int)
    # one segment spans every sample, so k = 1 has no breakpoint to search
    if n_segments == 1:
        return dp, parent
    scratch = np.empty(8 * _TILE_SPANS)
    with np.errstate(divide="ignore", invalid="ignore"):
        # row 1 is the span from sample 0
        for j0 in range(1, n, _TILE_SPANS):
            j1 = min(j0 + _TILE_SPANS, n)
            dp[1, j0:j1] = _span_costs(sums, j0, j1, 0, 1, scratch)[0][:, 0]
        # Row k takes the first start of the least candidate sum: tiles of
        # an end block come by ascending start, and a tile's np.argmin
        # replaces the running best only when strictly less.  Rows of inf
        # sums keep the first start, set here.
        for k in range(2, n_segments + 1):
            parent[k, 2 * k - 1:] = 2 * k - 2
        # Row k of a tile reads row k - 1 at ends before the tile's last
        # start; their own starts lie in this tile or earlier ones, and the
        # rows go in ascending order, so what row k reads is final.
        j0 = 3 if n_segments > 2 else n - 1
        while j0 < n:
            # as many ends as leave room for their j0 + ends starts
            ends = min(j0, max(_MIN_TILE_ENDS, _TILE_SPANS // (j0 + _TILE_SPANS // j0)))
            j1 = min(j0 + ends, n)
            width = _TILE_SPANS // ends
            for s0 in range(2, j1 - 1, width):
                s1 = min(s0 + width, j1 - 1)
                cost, cand = _span_costs(sums, j0, j1, s0, s1, scratch)
                for k in range(2, n_segments + 1):
                    lo = max(2 * k - 2, s0)
                    if k < n_segments:  # the ends with room for k segments
                        e0, e1 = max(2 * k - 1 - j0, 0), j1 - j0
                    elif j1 == n:
                        e0, e1 = n - 1 - j0, n - j0
                    else:
                        continue
                    if lo >= s1 or e0 >= e1:
                        continue
                    sums_k = cand[e0:e1, lo - s0:]
                    np.add(dp[k - 1, lo - 1:s1 - 1], cost[e0:e1, lo - s0:], out=sums_k)
                    best = np.argmin(sums_k, axis=1)
                    value = sums_k[np.arange(e1 - e0), best]
                    running = slice(j0 + e0, j0 + e1)
                    better = value < dp[k, running]
                    np.copyto(dp[k, running], value, where=better)
                    np.copyto(parent[k, running], best + lo, where=better)
            j0 = j1
    return dp, parent


def segmented_fit(series: CalibrationSeries, n_segments: int) -> PiecewiseLinearFit:
    """Globally optimal piecewise-linear fit with n_segments pieces.

    Dynamic programming over all breakpoint placements (each segment gets
    at least two samples), so the returned SSE is the exact minimum for
    the requested segment count.  O(k n^2) time and O(k n) memory for
    k >= 3 segments of an n-point series: at k = 3 about 0.10 s for
    n = 3,000 and 3.8 s for n = 20,000 on a 2-vCPU machine.  One or two
    segments skip the full triangle of span costs and take O(n) time.
    No size is refused.
    """
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
    # Weights far from 1 over- or underflow the weighted moments, so the fit
    # runs on them scaled by an even power of two: exact, and exact for their
    # square roots too, so the optimum cannot move.  Ordinary weights stay.
    e = math.frexp(w.max())[1]
    shift = e - e % 2 if abs(e) > 200 else 0
    w = np.ldexp(w, -shift)
    _, parent = _segment_dp(x, y, w, n_segments)

    # recover segment start indices
    bounds = [n]
    j = n - 1
    for k in range(n_segments, 1, -1):
        start = int(parent[k, j])
        bounds.append(start)
        j = start - 1
    bounds.append(0)
    bounds.reverse()

    segments = []
    total_sse = 0.0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        slope, intercept, cov, sse = _weighted_line_fit(
            x[start:stop], y[start:stop], w[start:stop], known_sigma)
        cov, sse = np.ldexp(cov, -shift), float(np.ldexp(sse, shift))
        total_sse += sse
        segments.append(SegmentFit(
            slope=slope,
            intercept=intercept,
            slope_sigma=float(np.sqrt(cov[1, 1])),
            intercept_sigma=float(np.sqrt(cov[0, 0])),
            cov_slope_intercept=float(cov[0, 1]),
            index_range=(start, stop),
            control_range=(float(x[start]), float(x[stop - 1])),
            sse=sse,
        ))
    breakpoints = np.array([
        0.5 * (x[b - 1] + x[b]) for b in bounds[1:-1]
    ])
    return PiecewiseLinearFit(segments, breakpoints, total_sse, n,
                              asc.control_unit, asc.label)


def invert_readout(
    fit: PiecewiseLinearFit,
    frequency_mhz: float,
    segment: int | None = None,
    frequency_sigma: float = 0.0,
) -> tuple[float, float]:
    """Map a measured frequency back to the control parameter.

    Returns (control, control_sigma).  The sigma combines the measurement
    uncertainty with the segment's slope/intercept covariance.  Without an
    explicit segment index the frequency must fall in exactly one
    segment's calibrated frequency range; zero matches raise
    ReadoutRangeError and multiple matches ReadoutAmbiguityError.
    """
    if not math.isfinite(frequency_mhz):
        raise InvalidParameterError("frequency_mhz must be finite")
    if frequency_sigma < 0 or not math.isfinite(frequency_sigma):
        raise InvalidParameterError("frequency_sigma must be finite and >= 0")

    def in_range(seg: SegmentFit) -> bool:
        lo, hi = seg.freq_range
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
    if abs(seg.slope) < 1e-12:
        raise DivisionDomainError("segment slope is zero; readout is undefined")

    control = (frequency_mhz - seg.intercept) / seg.slope
    var = frequency_sigma ** 2
    if math.isfinite(seg.slope_sigma) and math.isfinite(seg.intercept_sigma):
        var += (seg.intercept_sigma ** 2
                + control ** 2 * seg.slope_sigma ** 2
                + 2.0 * control * seg.cov_slope_intercept)
    sigma = math.sqrt(max(var, 0.0)) / abs(seg.slope)
    return float(control), sigma


@dataclass(frozen=True)
class SensitivityReport:
    """Shot-noise-limited sensitivity of a frequency-readout sensor."""

    eta: float
    sigma: float
    tau_s: float
    signal_slope: float
    calib_slope: float
    unit: str = ""

    def consistency_residual(self) -> float:
        """|eta * slopes - sigma sqrt(tau)|; zero by construction."""
        return abs(self.eta * self.signal_slope * self.calib_slope
                   - self.sigma * np.sqrt(self.tau_s))


def sensitivity(
    sigma: float,
    tau_s: float,
    signal_slope: float,
    calib_slope: float,
    unit: str = "",
) -> SensitivityReport:
    """eta = sigma sqrt(tau) / (signal_slope * calib_slope).

    sigma is the per-shot signal noise, tau_s the shot duration in
    seconds, signal_slope the signal change per MHz of detuning, and
    calib_slope the MHz shift per control unit.  eta then carries
    control-units per sqrt(Hz).  Slopes enter as magnitudes.
    """
    for name, val in (("sigma", sigma), ("tau_s", tau_s)):
        if not np.isfinite(val) or val <= 0:
            raise InvalidParameterError(f"{name} must be finite and positive")
    for name, val in (("signal_slope", signal_slope), ("calib_slope", calib_slope)):
        if not np.isfinite(val) or val < 0:
            raise InvalidParameterError(f"{name} must be finite and >= 0")
        if val == 0:
            raise DivisionDomainError(f"{name} is zero; sensitivity diverges")
    # on Python floats: the IEEE operations of numpy's, but an overflow or
    # underflow raises no warning and is refused below
    slopes = float(signal_slope) * float(calib_slope)
    eta = float(sigma) * math.sqrt(tau_s) / slopes if slopes else math.inf
    if not 0.0 < eta < math.inf:
        raise InvalidParameterError(
            f"eta = sigma sqrt(tau) / (signal_slope * calib_slope) is {eta}: "
            "the inputs' magnitudes leave the float range")
    return SensitivityReport(eta, sigma, tau_s, signal_slope, calib_slope, unit)


def write_calibration(series: CalibrationSeries, path) -> Path:
    """control_value,frequency_mhz,sigma_mhz CSV plus .meta.json sidecar."""
    sigma = [None] * len(series) if series.freq_sigma is None else series.freq_sigma
    return write_table(path, "control_value,frequency_mhz,sigma_mhz",
                       zip(series.control, series.freq_mhz, sigma),
                       {"control_unit": series.control_unit, "label": series.label})


def read_calibration(path) -> CalibrationSeries:
    """Read a calibration CSV written by write_calibration."""
    # the sigma column is optional so hand-written two-column files load too;
    # only a blank cell means "no sigma", a written nan or inf is refused
    headers = ("control_value,frequency_mhz,sigma_mhz", "control_value,frequency_mhz")
    columns = read_table(path, headers, {"sigma_mhz": (_sigma_ok, _SIGMA_RULE)}).T.copy()
    sigma = columns[2] if len(columns) > 2 and not np.isnan(columns[2]).any() else None
    meta = read_sidecar(path, {"control_unit": (str, "a string"),
                               "label": (str, "a string")}) or {}
    try:
        return CalibrationSeries(columns[0], columns[1], sigma, meta.get("control_unit", ""),
                                 meta.get("label", ""))
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

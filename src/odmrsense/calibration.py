"""Calibration of transition frequency against a control parameter.

A calibration series maps a strictly monotone control parameter
(temperature, pressure) to a measured transition frequency.  The central
tool is an exact segmented linear fit: for a given number of segments it
minimizes the total (weighted) squared error over all possible breakpoint
placements, which makes the optimum reproducible and the residual
provably non-increasing in the segment count.  A dynamic program over
span costs finds the optimum for any segment count.  For three segments
a branch-and-bound search prunes the breakpoint pairs and the program
evaluates what is left, or every pair when pruning fails.

On top of that sits inversion of a piecewise fit back to the control
parameter with uncertainty propagation.  The shot-noise sensitivity
figure (SensitivityReport, sensitivity) lives in the numpy-free
shotnoise module and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
from .constants import AT_LEAST, AT_MOST, MAX_MAGNITUDE, WITHIN
from .errors import (
    DataFormatError,
    DivisionDomainError,
    InvalidParameterError,
    ReadoutAmbiguityError,
    ReadoutRangeError,
)
from .shotnoise import SensitivityReport, sensitivity  # noqa: F401 (re-exported)
from .textio import read_sidecar, read_table, write_table


def _validated_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be 1-D")
    # the comparison refuses NaN and infinities too
    if not max(arr.max(initial=0.0), -arr.min(initial=0.0)) <= MAX_MAGNITUDE:
        raise InvalidParameterError(f"{name} entries must be finite and {AT_MOST}")
    return arr


_SIGMA_RULE = f"must be positive and {WITHIN}"


def _sigma_ok(sig: np.ndarray) -> np.ndarray:
    """Per entry, whether a 1-sigma uncertainty keeps _SIGMA_RULE."""
    return (sig >= 1.0 / MAX_MAGNITUDE) & (sig <= MAX_MAGNITUDE)


@dataclass(frozen=True)
class CalibrationSeries:
    """Frequency response of one transition to a control parameter.

    control must be strictly monotone (either direction); freq_sigma, when
    given, holds per-point 1-sigma frequency uncertainties in MHz and
    turns downstream fits into weighted fits.  In the declared range
    (constants.MAX_MAGNITUDE) every entry is at most 2**100 in magnitude,
    and control steps, sigmas and a non-zero frequency spread are at least
    2**-100.
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
        if np.abs(steps).min() < 1.0 / MAX_MAGNITUDE:
            raise InvalidParameterError(f"control steps must be {AT_LEAST}")
        if 0.0 < freq.max() - freq.min() < 1.0 / MAX_MAGNITUDE:
            raise InvalidParameterError(f"a non-zero freq_mhz spread must be {AT_LEAST}")
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


# Span costs are formed in tiles of _TILE_SPANS (end, start) pairs: small
# enough that a tile's eight work arrays (1 MB) stay in a core's cache,
# large enough that numpy's per-call overhead does not dominate.  A block
# of ends is sized so that one tile holds all their starts, down to
# _MIN_TILE_ENDS ends; past that, its starts are split over several tiles.
# Few long rows beat many short ones: numpy pays per row for the
# broadcast operands.
_TILE_SPANS = 16384
_MIN_TILE_ENDS = 4


def _centred(v, w):
    """(mean, v - mean), mean v's weighted mean: sums of products of the
    centred values stay well conditioned, and in CalibrationSeries'
    declared range inside the normal float range, so nothing is scaled.

    Weights 1/sigma^2 lie within 2**±200 and centred values within 2**101,
    so a moment sum over n rows is at most n 2**402, below 2**422 for the
    2**20 rows a table may hold.  A span's det = sw sxx - sx^2 is then
    below 2**642 and at least w_i w_j (x_i - x_j)^2 >= 2**-600 for any two
    of its samples, as control steps are at least 2**-100.  Its slope, a
    weighted mean of pairwise slopes, is at most 2**201, and its SSE at
    most its moment sum.  A non-zero frequency spread of at least 2**-100
    keeps the largest weighted square of a centred frequency >= 2**-402.
    """
    mean = np.average(v, weights=w)
    return mean, v - mean


def _moment_sums(x, y, w):
    """(sums, xc, yc): (6, n + 1) prefix sums of the weighted moments w,
    w xc, w yc, w xc^2, w xc yc and w yc^2 of the _centred samples xc, yc:
    column b minus column a sums samples a..b-1, so every span sum is O(1)."""
    (_, xc), (_, yc) = _centred(x, w), _centred(y, w)
    sums = np.zeros((6, x.size + 1))
    np.cumsum([w, w * xc, w * yc, w * xc * xc, w * xc * yc, w * yc * yc],
              axis=1, out=sums[:, 1:])
    return sums, xc, yc


def _segment_line(x, y, w, known_sigma):
    """SegmentFit's slope, intercept, sigmas, covariance and SSE for one
    segment.  On the _centred samples the slope takes the span costs'
    formula, the value at the centred origin absorbs the rounding of the
    means, and the SSE sums residuals (two passes)."""
    (xbar, xc), (ybar, yc) = _centred(x, w), _centred(y, w)
    sw, sx, sy, sxx, sxy = (np.sum(w * v) for v in (1.0, xc, yc, xc * xc, xc * yc))
    det = sw * sxx - sx * sx
    slope = (sw * sxy - sx * sy) / det
    centre = (sy - slope * sx) / sw
    sse = np.sum(w * (yc - (centre + slope * xc)) ** 2)
    # var(slope) = Sw/det, var(intercept) = (Sxx + 2 m Sx + m^2 Sw)/det and
    # their covariance -(Sx + m Sw)/det, m the mean control, each times the
    # residual variance when unweighted
    factor = 1.0 if known_sigma else sse / (x.size - 2) if x.size > 2 else np.nan
    return {"slope": float(slope),
            "intercept": float(ybar + centre - slope * xbar),
            "slope_sigma": float(np.sqrt(factor * sw / det)),
            "intercept_sigma": float(np.sqrt(factor * (sxx + xbar * (2.0 * sx + xbar * sw)) / det)),
            "cov_slope_intercept": float(-factor * (sx + xbar * sw) / det),
            "sse": float(sse)}


def _line_costs(upper, lower, work):
    """(cost, spare): the weighted SSE of the best line on each span whose
    six moment sums are upper - lower, broadcast to the shape of a row of work.

    Both are views into work, eight arrays of that shape; spare is free
    for the caller, and work[0] and work[3] keep the spans' weight sums
    and determinants sw sxx - sx^2.  Degenerate spans (NaN) cost inf.
    Callers ignore divide and invalid floating-point errors.
    """
    sw, sx, sy, sxx, sxy, syy, a, b = work
    np.subtract(upper, lower, out=work[:6])
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
    return a, b


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
    a, b = _line_costs(sums[:, j0 + 1:j1 + 1, None], sums[:, None, s0:s1], work)
    if s1 > j0:  # the tile reaches spans that start at or after their end
        c0 = max(j0 - s0, 0)
        np.copyto(a[:, c0:], np.inf, where=np.arange(s0 + c0, s1) >= np.arange(j0, j1)[:, None])
    return a, b


def _triangle_tiles(n, n_segments):
    """(j0, j1, s0, s1) tiles of the spans the DP's rows between the first
    and the last read: blocks of ends j0..j1-1 before the final sample by
    ascending end, each in tiles of starts s0..s1-1 by ascending start."""
    j0 = 3 if n_segments > 2 else n
    while j0 < n - 1:
        # as many ends as leave room for their j0 + ends starts
        ends = min(j0, max(_MIN_TILE_ENDS, _TILE_SPANS // (j0 + _TILE_SPANS // j0)))
        j1 = min(j0 + ends, n - 1)
        width = _TILE_SPANS // ends
        for s0 in range(2, j1 - 1, width):
            yield j0, j1, s0, min(s0 + width, j1 - 1)
        j0 = j1


def _segment_dp(x, y, w, n_segments):
    """(dp, parent) of the exact segmentation dynamic program.

    dp[k, j] is the best SSE covering samples 0..j with k segments of at
    least two samples each, and parent[k, j] the first sample of the last
    of them (inf and 0 where no such split exists or none is evaluated).
    The last row is evaluated at the final sample only, the one entry the
    fit reads, and the rows between everywhere else; so k = 2 is O(n).
    The search prunes, the program evaluates: at k = 3 the rows between
    take the tiles of span costs that _three_segment_tiles leaves, else
    the full triangle's, in one relaxation loop and to the same last-row
    argmin.
    """
    n = x.size
    sums, xc, yc = _moment_sums(x, y, w)
    dp = np.full((n_segments + 1, n), np.inf)
    parent = np.zeros((n_segments + 1, n), dtype=int)
    # one segment spans every sample, so k = 1 has no breakpoint to search
    if n_segments == 1:
        return dp, parent
    scratch = np.empty(8 * _TILE_SPANS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # row 1 is the span from sample 0, and last[s] the span from s on
        last = np.full(n, np.inf)
        for a in range(0, n - 1, _TILE_SPANS):
            b = min(a + _TILE_SPANS, n - 1)
            dp[1, a + 1:b + 1] = _span_costs(sums, a + 1, b + 1, 0, 1, scratch)[0][:, 0]
            last[a:b] = _span_costs(sums, n - 1, n, a, b, scratch)[0][0]
        tiles = None
        if n_segments == 3:
            tiles = _three_segment_tiles(sums, dp[1], last, xc, yc, scratch)
        # Row k takes the first start of the least candidate sum: the tiles
        # that reach an end come by ascending start, and a tile's np.argmin
        # replaces the running best only when strictly less.  Rows of inf
        # sums keep the first start, set here.
        for k in range(2, n_segments):
            parent[k, 2 * k - 1:] = 2 * k - 2
        # Row k of a tile reads row k - 1 at ends before the tile's last
        # start; their own starts lie in this tile or earlier ones, and the
        # rows go in ascending order, so what row k reads is final.
        for j0, j1, s0, s1 in _triangle_tiles(n, n_segments) if tiles is None else tiles:
            cost, cand = _span_costs(sums, j0, j1, s0, s1, scratch)
            for k in range(2, n_segments):
                # the ends with room for k segments
                lo, e0, e1 = max(2 * k - 2, s0), max(2 * k - 1 - j0, 0), j1 - j0
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
        # the last row at the final sample, by the same first-start rule
        lo = 2 * n_segments - 2
        sums_k = dp[n_segments - 1, lo - 1:n - 2] + last[lo:n - 1]
        best = int(np.argmin(sums_k))
        dp[n_segments, n - 1], parent[n_segments, n - 1] = sums_k[best], lo + best
    return dp, parent


# The three-segment search splits boxes of breakpoint pairs down to
# _LEAF_SIDE on a side.  It gives up when its leaves would hold more pairs
# than _search_budget allows, or when a level would hold more than
# _MAX_BOXES_PER_POINT boxes per sample, which keeps its memory O(n).
_LEAF_SIDE = 16
_BUDGET_SHARE = 20
_MIN_BUDGET = 1 << 16
_MAX_BOXES_PER_POINT = 1


def _search_budget(n):
    """Pairs the three-segment search may leave on an n-point series: one
    in _BUDGET_SHARE of the (i, j) with 2 <= i, i + 2 <= j <= n - 2, and
    never fewer than _MIN_BUDGET."""
    return max((n - 4) * (n - 5) // 2 // _BUDGET_SHARE, _MIN_BUDGET)


def _three_segment_tiles(sums, row1, last, xc, yc, scratch):
    """The DP's row-2 tiles (j0, j1, s0, s1) for three segments, or None.

    Branch and bound over the second and third segment starts (i, j).
    With C(a, b) the cost of samples a..b-1, which cannot fall as its span
    grows, every pair of a box i0 <= i < i1, j0 <= j < j1 costs at least
    C(0, i0) + C(i1 - 1, j0) + C(j1 - 1, n).  The outer terms are running
    minima of the DP's row 1 and last spans, so they bound the computed
    costs exactly.  The inner term is lowered by a first-order bound on its
    rounding, 64 n u W Y^2 (1 + W^2 X^2 / det): prefix sums of n terms err
    by n u (the unit roundoff) times their magnitudes, set by the total
    weight W, the centred control range X and the largest |yc| Y, and a
    span's determinant det = sw sxx - sx^2 amplifies the error.

    The first upper bound is the best pair of a grid of starts; boxes whose
    bound exceeds it go, the others split four ways.  A run of leaves left,
    i in [r0, r1) and j in [e0, e1), becomes tiles (e0 - 1, e1 - 1, s0, s1)
    by ascending j and i, the triangle's order.  The grid's best pair
    survives its own box's bound, so the DP's last row finds a finite total.
    None leaves the DP the full triangle: when the grid has no finite
    total, the leaves would exceed _search_budget(n) pairs, or a level
    would hold more than _MAX_BOXES_PER_POINT n boxes.
    """
    n = xc.size
    # every pair of an m-cell grid of starts, from one tile of the spans
    # between grid points: total[r, c] is the cost at i = grid[c + 1],
    # j = grid[r + 1] (inf where a span would cover a single cell)
    m = min(math.isqrt(_TILE_SPANS), n)
    grid = np.arange(m + 1) * n // m
    cost, total = _span_costs(sums[:, grid], 0, m, 0, m, scratch)
    total = total[:m - 1, :m - 1]
    np.add(cost[None, :m - 1, 0], cost[:m - 1, 1:], out=total)
    np.add(total, cost[m - 1, 1:, None], out=total)
    best = total.min()
    if not best < np.inf:
        return None

    row1_floor = np.minimum.accumulate(row1[::-1])[::-1]  # at i - 1: least C(0, i') for i' >= i
    last_floor = np.minimum.accumulate(last)  # least C(j', n) for j' <= j
    weight = sums[0, n]
    slack = 2.0 ** -47 * n * weight * np.abs(yc).max() ** 2
    amplified = slack * (weight * (xc[-1] - xc[0])) ** 2
    # boxes per bound pass, whose two gathers of six moments each stay
    # within one and a half tiles
    chunk = max(_TILE_SPANS // 8, 1)

    def box_ranges(p, q, side):
        i0, j0 = np.maximum(p * side, 2), np.maximum(q * side, 4)
        return i0, np.minimum(p * side + side, n - 3), j0, np.minimum(q * side + side, n - 1)

    side = _LEAF_SIDE
    while side < n:
        side *= 2
    p = q = np.zeros(1, dtype=np.int64)
    while True:
        i0, i1, j0, j1 = box_ranges(p, q, side)
        valid = (i0 < i1) & (j0 < j1) & (i0 + 2 < j1)  # some j >= i + 2
        p, q, i0, i1, j0, j1 = (a[valid] for a in (p, q, i0, i1, j0, j1))
        keep = np.empty(p.size, dtype=bool)
        for b in range(0, p.size, chunk):
            box = slice(b, b + chunk)
            bi1, bj0 = i1[box], j0[box]
            # the inner span [i1 - 1, j0), where it has two samples
            work = scratch[:8 * bi1.size].reshape(8, bi1.size)
            mid, _ = _line_costs(sums[:, bj0], sums[:, np.minimum(bi1 - 1, bj0)], work)
            np.subtract(mid, slack + amplified / work[3], out=mid)
            mid[~((mid > 0) & (mid < np.inf) & (work[3] > 0) & (bj0 > bi1))] = 0.0
            keep[box] = row1_floor[i0[box] - 1] + mid + last_floor[j1[box] - 1] <= best
        p, q = p[keep], q[keep]
        if side == _LEAF_SIDE:
            break
        if 4 * p.size > _MAX_BOXES_PER_POINT * n:
            return None
        side //= 2
        p = (2 * p[:, None] + (0, 1, 0, 1)).ravel()
        q = (2 * q[:, None] + (0, 0, 1, 1)).ravel()

    # leaves of one row that touch merge into runs of starts
    order = np.lexsort((p, q))
    p, q = p[order], q[order]
    new_run = np.ones(p.size, dtype=bool)
    new_run[1:] = (q[1:] != q[:-1]) | (p[1:] != p[:-1] + 1)
    heads = np.flatnonzero(new_run)
    tails = np.append(heads[1:], p.size) - 1
    i0, _, j0, j1 = box_ranges(p[heads], q[heads], side)
    i1 = np.minimum(np.minimum(p[tails] * side + side, n - 3), j1 - 2)
    if np.sum((j1 - j0) * np.maximum(i1 - i0, 0)) > _search_budget(n):
        return None
    tiles = []
    for r0, r1, e0, e1 in zip(i0.tolist(), i1.tolist(), j0.tolist(), j1.tolist()):
        width = max(_TILE_SPANS // (e1 - e0), 1)
        tiles += ((e0 - 1, e1 - 1, s0, min(s0 + width, r1)) for s0 in range(r0, r1, width))
    return tiles


def segmented_fit(series: CalibrationSeries, n_segments: int) -> PiecewiseLinearFit:
    """Globally optimal piecewise-linear fit with n_segments pieces.

    The returned SSE is the exact minimum over all breakpoint placements
    (each segment gets at least two samples) for the requested segment
    count, found by one dynamic program (_segment_dp) and read back by one
    parent walk; _segment_line fits each segment's line, centred as the
    span costs are.  The series' declared range keeps every moment sum,
    determinant, line, sigma and SSE inside the normal float range (the
    bound is proved at _centred), so no input is scaled.  One or two
    segments skip the full triangle of span costs and take O(n) time.  For
    three segments the search prunes and the program evaluates: branch and
    bound (_three_segment_tiles) rules out all but a small share of the
    breakpoint pairs of a kinked or curved log, and the program evaluates
    the rest, which takes about 2 ms for n = 3,000 on a 2-vCPU machine.
    Where pruning fails, as on pure noise, the search gives up before
    leaving more than about 5 % of the pairs, and the program evaluates the
    full triangle: O(k n^2) time and O(k n) memory, at k = 3 about 0.065 s
    for n = 3,000.  Four or more segments always take the full triangle.
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
    _, parent = _segment_dp(x, y, w, n_segments)
    # recover segment start indices
    bounds = [n]
    for k in range(n_segments, 1, -1):
        bounds.append(int(parent[k, bounds[-1] - 1]))
    bounds = [0, *bounds[::-1]]

    segments = []
    total_sse = 0.0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        line = _segment_line(x[start:stop], y[start:stop], w[start:stop], known_sigma)
        total_sse += line["sse"]
        segments.append(SegmentFit(**line, index_range=(start, stop),
                                   control_range=(float(x[start]), float(x[stop - 1]))))
    breakpoints = np.array([0.5 * (x[b - 1] + x[b]) for b in bounds[1:-1]])
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
    ReadoutRangeError and multiple matches ReadoutAmbiguityError.  The
    frequency, its sigma and the control lie in the declared range, at
    most 2**100 in magnitude; a control past it is a DivisionDomainError.
    """
    if not abs(frequency_mhz) <= MAX_MAGNITUDE:
        raise InvalidParameterError(f"frequency_mhz must be {AT_MOST}")
    if not 0 <= frequency_sigma <= MAX_MAGNITUDE:
        raise InvalidParameterError(f"frequency_sigma must be >= 0 and {AT_MOST}")

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
    if seg.slope == 0:
        raise DivisionDomainError("segment slope is zero; readout is undefined")
    control = (frequency_mhz - seg.intercept) / seg.slope
    if not abs(control) <= MAX_MAGNITUDE:
        raise DivisionDomainError(f"readout control {control} leaves the range: it must be "
                                  f"{AT_MOST}")
    var = frequency_sigma ** 2
    cov = seg.cov_slope_intercept
    if math.isfinite(seg.slope_sigma) and math.isfinite(seg.intercept_sigma) and math.isfinite(cov):
        var += (seg.intercept_sigma ** 2 + (abs(control) * seg.slope_sigma) ** 2
                + 2.0 * control * cov)
    return float(control), math.sqrt(max(var, 0.0)) / abs(seg.slope)


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

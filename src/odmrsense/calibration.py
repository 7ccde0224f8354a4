"""Calibration of transition frequency against a control parameter.

A calibration series maps a strictly monotone control parameter
(temperature, pressure) to a measured transition frequency.  The central
tool is an exact segmented linear fit: for a given number of segments it
minimizes the total (weighted) squared error over all possible breakpoint
placements, which makes the optimum reproducible and the residual
provably non-increasing in the segment count.  A dynamic program over
span costs finds the optimum for any segment count; for three segments
a branch-and-bound search finds the same breakpoints first and falls
back on the program when pruning fails.

On top of that sits inversion of a piecewise fit back to the control
parameter with uncertainty propagation.  The shot-noise sensitivity
figure (SensitivityReport, sensitivity) lives in the numpy-free
shotnoise module and is re-exported here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
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
        # a fit squares control offsets: a spread whose square underflows
        # leaves every segment's normal equations singular or imprecise
        spread = abs(float(ctrl[-1] - ctrl[0]))
        if spread * spread < sys.float_info.min:
            raise InvalidParameterError(
                f"control spread {spread:g} is too narrow: its square underflows")
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


def _moment_sums(x, y, w):
    """(6, n + 1) prefix sums of the centred, weighted moments w, w x, w y,
    w x^2, w x y and w y^2: column b minus column a sums samples a..b-1.

    They make every span sum O(1); centring keeps them well conditioned
    even when the raw second moments dwarf the residuals.
    """
    xc = x - np.average(x, weights=w)
    yc = y - np.average(y, weights=w)
    sums = np.zeros((6, x.size + 1))
    np.cumsum([w, w * xc, w * yc, w * xc * xc, w * xc * yc, w * yc * yc],
              axis=1, out=sums[:, 1:])
    return sums


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


def _segment_dp(x, y, w, n_segments):
    """(dp, parent) of the exact segmentation dynamic program.

    dp[k, j] is the best SSE covering samples 0..j with k segments of at
    least two samples each, and parent[k, j] the first sample of the last
    of them (inf and 0 where no such split exists).  The last row is
    evaluated at the final sample only, the one entry the fit reads, so
    k = 2 searches a single end.
    """
    n = x.size
    sums = _moment_sums(x, y, w)
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


# The three-segment search splits boxes of breakpoint pairs down to
# _LEAF_SIDE on a side and evaluates the leaves left in full.  It hands the
# fit to the DP when its leaves would hold more pairs than _search_budget
# allows, or when a level would hold more than _MAX_BOXES_PER_POINT boxes
# per sample, which keeps its memory O(n).
_LEAF_SIDE = 16
_BUDGET_SHARE = 20
_MIN_BUDGET = 1 << 16
_MAX_BOXES_PER_POINT = 1


def _search_budget(n):
    """Pairs the three-segment search may evaluate on an n-point series:
    one in _BUDGET_SHARE of the (i, j) with 2 <= i, i + 2 <= j <= n - 2,
    and never fewer than _MIN_BUDGET."""
    return max((n - 4) * (n - 5) // 2 // _BUDGET_SHARE, _MIN_BUDGET)


def _three_segment_bounds(x, y, w):
    """Segment bounds [0, i, j, n] of the exact three-segment fit, or None.

    Branch and bound over the second and third segment starts (i, j) that
    returns what _segment_dp's parent walk returns.  With C(a, b) the cost
    of samples a..b-1, which cannot fall as its span grows, every pair of a
    box i0 <= i < i1, j0 <= j < j1 costs at least C(0, i0) + C(i1 - 1, j0)
    + C(j1 - 1, n).  The outer terms come from two O(n) vectors as running
    minima, so they bound the computed costs exactly.  The inner term is
    lowered by a margin that bounds its rounding to first order, 64 n u W
    Y^2 (1 + W^2 X^2 / det): prefix sums of n terms err by n u times their
    magnitudes (u the unit roundoff, W the total weight, X the control
    range, which bounds every centred |x|, and Y the largest centred |y|),
    and a span's determinant det = sw sxx - sx^2 amplifies the error by
    W^2 X^2 / det.

    The first upper bound is the best pair of a grid of starts.  Boxes
    whose bound exceeds it go, the others split four ways, level by level,
    and the leaves left are evaluated with _span_costs, so every cost and
    sum is bitwise the DP's.  Ties fall as in the DP: for each j the first
    i of least C(0, i) + C(i, j), then the first j of least total.  None
    hands the fit to the DP: when the leaves would exceed _search_budget(n)
    pairs, a level would hold more than _MAX_BOXES_PER_POINT n boxes, or no
    total is finite.
    """
    n = x.size
    sums = _moment_sums(x, y, w)
    scratch = np.empty(8 * _TILE_SPANS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # c0[i] = C(0, i), the DP's row 1, and cn[j] = C(j, n)
        c0 = np.full(n + 1, np.inf)
        for j0 in range(1, n, _TILE_SPANS):
            j1 = min(j0 + _TILE_SPANS, n)
            c0[j0 + 1:j1 + 1] = _span_costs(sums, j0, j1, 0, 1, scratch)[0][:, 0]
        cn = np.full(n + 1, np.inf)
        for s0 in range(0, n - 1, _TILE_SPANS):
            s1 = min(s0 + _TILE_SPANS, n - 1)
            cn[s0:s1] = _span_costs(sums, n - 1, n, s0, s1, scratch)[0][0]

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

        c0_floor = np.minimum.accumulate(c0[::-1])[::-1]  # least C(0, i') for i' >= i
        cn_floor = np.minimum.accumulate(cn)  # least C(j', n) for j' <= j
        weight = sums[0, n]
        slack = 2.0 ** -47 * n * weight * np.abs(y - np.average(y, weights=w)).max() ** 2
        amplified = slack * (weight * (x[-1] - x[0])) ** 2
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
                keep[box] = c0_floor[i0[box]] + mid + cn_floor[j1[box] - 1] <= best
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

        # per third start j, the least C(0, i) + C(i, j) found and its first
        # i: runs come by ascending j and i, so as in the DP the running best
        # is replaced only when strictly less
        inner = np.full(n + 1, np.inf)
        start = np.zeros(n + 1, dtype=np.int64)
        for r0, r1, e0, e1 in zip(i0.tolist(), i1.tolist(), j0.tolist(), j1.tolist()):
            width = max(_TILE_SPANS // (e1 - e0), 1)
            for s0 in range(r0, r1, width):
                s1 = min(s0 + width, r1)
                cost, sums_ij = _span_costs(sums, e0 - 1, e1 - 1, s0, s1, scratch)
                np.add(c0[s0:s1], cost, out=sums_ij)
                at = np.argmin(sums_ij, axis=1)
                value = sums_ij[np.arange(e1 - e0), at]
                at += s0
                better = value < inner[e0:e1]
                np.copyto(inner[e0:e1], value, where=better)
                np.copyto(start[e0:e1], at, where=better)
        total = inner[4:n - 1] + cn[4:n - 1]
        j = int(np.argmin(total))
        if not total[j] < np.inf:
            return None
        return [0, int(start[j + 4]), j + 4, n]


def segmented_fit(series: CalibrationSeries, n_segments: int) -> PiecewiseLinearFit:
    """Globally optimal piecewise-linear fit with n_segments pieces.

    The returned SSE is the exact minimum over all breakpoint placements
    (each segment gets at least two samples) for the requested segment
    count.  One or two segments skip the full triangle of span costs and
    take O(n) time.  Three segments are searched by branch and bound
    (_three_segment_bounds), which returns the dynamic program's
    breakpoints bit for bit: on a kinked or curved n-point log it prunes
    all but a small share of the breakpoint pairs, and takes about 3 ms
    for n = 3,000, 10 ms for 20,000 and 65-130 ms for 100,000 on a 2-vCPU
    machine.  Where pruning fails, as on pure noise, it hands the fit to
    the dynamic program (_segment_dp) before evaluating more than about
    5 % of the pairs, so the worst case is the program's own: O(k n^2)
    time and O(k n) memory, at k = 3 about 0.10 s for n = 3,000 and 3.8 s
    for 20,000.  Four or more segments always take the program.  No size
    is refused.
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
    bounds = _three_segment_bounds(x, y, w) if n_segments == 3 else None
    if bounds is None:
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
        # the sigmas are unscaled after their square roots, by half the even
        # shift: exact, and finite where the variances would overflow.  An
        # SSE or a covariance whose true value leaves the float range
        # overflows silently to inf (null in JSON)
        with np.errstate(over="ignore"):
            sigmas = np.ldexp(np.sqrt(cov.diagonal()), -shift // 2)
            sse = float(np.ldexp(sse, shift))
            cov_slope_intercept = float(np.ldexp(cov[0, 1], -shift))
        total_sse += sse
        segments.append(SegmentFit(
            slope=slope,
            intercept=intercept,
            slope_sigma=float(sigmas[1]),
            intercept_sigma=float(sigmas[0]),
            cov_slope_intercept=cov_slope_intercept,
            index_range=(start, stop),
            control_range=(float(x[start]), float(x[stop - 1])),
            sse=sse,
        ))
    breakpoints = np.array([
        0.5 * (x[b - 1] + x[b]) for b in bounds[1:-1]
    ])
    return PiecewiseLinearFit(segments, breakpoints, total_sse, n,
                              asc.control_unit, asc.label)


_SQUARE_SAFE = 2.0 ** 200


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
    f_sigma, i_sigma, s_sigma, cov = (frequency_sigma, seg.intercept_sigma,
                                      seg.slope_sigma, seg.cov_slope_intercept)
    calibrated = math.isfinite(s_sigma) and math.isfinite(i_sigma)
    # The squares of sigmas past 2**200 can leave the float range, so the
    # variance is then summed in units of 2**(2 h): exact for a power of two.
    h = 0
    if (f_sigma > _SQUARE_SAFE
            or calibrated and (i_sigma > _SQUARE_SAFE or s_sigma > _SQUARE_SAFE)):
        h = math.frexp(max(f_sigma, i_sigma, s_sigma) if calibrated else f_sigma)[1]
        f_sigma, i_sigma, s_sigma = (math.ldexp(v, -h) for v in (f_sigma, i_sigma, s_sigma))
        cov = math.ldexp(cov, -2 * h)
    var = f_sigma ** 2
    if calibrated:
        var += (i_sigma ** 2
                + control ** 2 * s_sigma ** 2
                + 2.0 * control * cov)
    sigma = math.sqrt(max(var, 0.0)) / abs(seg.slope)
    if h:
        try:
            sigma = math.ldexp(sigma, h)
        except OverflowError:  # the readout sigma itself leaves the float range
            sigma = math.inf
    return float(control), sigma


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

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

import json
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


def _validated_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError(f"{name} must be 1-D")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite values")
    return arr


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
            if np.any(sig <= 0):
                raise InvalidParameterError("freq_sigma entries must be positive")
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
        ends = self.predict(np.asarray(self.control_range))
        return (float(ends.min()), float(ends.max()))

    def to_dict(self) -> dict:
        def _num(v):
            return float(v) if np.isfinite(v) else None
        return {
            "slope": float(self.slope),
            "intercept": float(self.intercept),
            "slope_sigma": _num(self.slope_sigma),
            "intercept_sigma": _num(self.intercept_sigma),
            "cov_slope_intercept": _num(self.cov_slope_intercept),
            "index_range": [int(v) for v in self.index_range],
            "control_range": [float(v) for v in self.control_range],
            "sse": float(self.sse),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentFit":
        def _num(v):
            return np.nan if v is None else float(v)
        return cls(
            slope=float(data["slope"]),
            intercept=float(data["intercept"]),
            slope_sigma=_num(data["slope_sigma"]),
            intercept_sigma=_num(data["intercept_sigma"]),
            cov_slope_intercept=_num(data["cov_slope_intercept"]),
            index_range=tuple(int(v) for v in data["index_range"]),
            control_range=tuple(float(v) for v in data["control_range"]),
            sse=float(data["sse"]),
        )


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

    def to_dict(self) -> dict:
        return {
            "n_segments": int(self.n_segments),
            "breakpoints": [float(b) for b in self.breakpoints],
            "segments": [s.to_dict() for s in self.segments],
            "total_sse": float(self.total_sse),
            "n_points": int(self.n_points),
            "control_unit": self.control_unit,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseLinearFit":
        return cls(
            segments=[SegmentFit.from_dict(s) for s in data["segments"]],
            breakpoints=np.asarray(data["breakpoints"], dtype=float),
            total_sse=float(data["total_sse"]),
            n_points=int(data["n_points"]),
            control_unit=data.get("control_unit", ""),
            label=data.get("label", ""),
        )


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


def segmented_fit(series: CalibrationSeries, n_segments: int) -> PiecewiseLinearFit:
    """Globally optimal piecewise-linear fit with n_segments pieces.

    Dynamic programming over all breakpoint placements (each segment gets
    at least two samples), so the returned SSE is the exact minimum for
    the requested segment count.  O(k n^2) time and O(k n) memory for k
    segments of an n-point series.
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

    # prefix sums of the centred, weighted moments make every span sum
    # O(1); centring keeps them well conditioned even when the raw second
    # moments dwarf the residuals
    xc = x - np.average(x, weights=w)
    yc = y - np.average(y, weights=w)
    sums = np.zeros((6, n + 1))
    np.cumsum([w, w * xc, w * yc, w * xc * xc, w * xc * yc, w * yc * yc],
              axis=1, out=sums[:, 1:])

    # dp[k, j]: best SSE covering samples 0..j with k segments; parent[k, j]
    # is the first sample of the last of them.  Row k-1 is final for every
    # end before j, so one span-cost column serves all k.
    dp = np.full((n_segments + 1, n), np.inf)
    parent = np.zeros((n_segments + 1, n), dtype=int)
    # one segment spans every sample, so k = 1 has no breakpoint to search
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
        # k segments of at least two samples each need j >= 2k - 1
        for k in range(2, min(n_segments, (j + 1) // 2) + 1):
            lo = 2 * (k - 1)
            cand = dp[k - 1, lo - 1:j - 1] + cost[lo:j]
            best = int(np.argmin(cand))
            dp[k, j] = cand[best]
            parent[k, j] = lo + best

    # recover segment start indices
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
        slope, intercept, cov, sse = _weighted_line_fit(
            x[start:stop], y[start:stop], w[start:stop], known_sigma)
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
    if not np.isfinite(frequency_mhz):
        raise InvalidParameterError("frequency_mhz must be finite")
    if frequency_sigma < 0 or not np.isfinite(frequency_sigma):
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
    if np.isfinite(seg.slope_sigma) and np.isfinite(seg.intercept_sigma):
        var += (seg.intercept_sigma ** 2
                + control ** 2 * seg.slope_sigma ** 2
                + 2.0 * control * seg.cov_slope_intercept)
    sigma = float(np.sqrt(max(var, 0.0))) / abs(seg.slope)
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

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "sigma": self.sigma,
            "tau_s": self.tau_s,
            "signal_slope": self.signal_slope,
            "calib_slope": self.calib_slope,
            "unit": self.unit,
        }


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
    eta = sigma * np.sqrt(tau_s) / (signal_slope * calib_slope)
    return SensitivityReport(float(eta), sigma, tau_s, signal_slope, calib_slope, unit)


def write_calibration(series: CalibrationSeries, path) -> Path:
    """control_value,frequency_mhz,sigma_mhz CSV plus .meta.json sidecar."""
    path = Path(path)
    rows = ["control_value,frequency_mhz,sigma_mhz"]
    for k in range(len(series)):
        sig = "" if series.freq_sigma is None else repr(float(series.freq_sigma[k]))
        rows.append(f"{float(series.control[k])!r},{float(series.freq_mhz[k])!r},{sig}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    sidecar = path.with_suffix(".meta.json")
    meta = {"control_unit": series.control_unit, "label": series.label}
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
    return path


def read_calibration(path) -> CalibrationSeries:
    """Read a calibration CSV written by write_calibration."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    rows = raw.splitlines()
    # the sigma column is optional so hand-written two-column files load too
    headers = ("control_value,frequency_mhz,sigma_mhz",
               "control_value,frequency_mhz")
    if not rows or rows[0].strip() not in headers:
        raise DataFormatError(
            f"{path}:1: expected header 'control_value,frequency_mhz[,sigma_mhz]'")
    ncols = rows[0].strip().count(",") + 1
    ctrl, freq, sig = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        parts = row.split(",")
        if len(parts) != ncols:
            raise DataFormatError(
                f"{path}:{lineno}: expected {ncols} columns, got {len(parts)}")
        try:
            ctrl.append(float(parts[0]))
            freq.append(float(parts[1]))
            sig.append(float(parts[2]) if ncols == 3 and parts[2].strip()
                       else np.nan)
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    sig_arr = np.asarray(sig)
    has_sigma = np.all(np.isfinite(sig_arr))
    if not has_sigma and np.any(np.isfinite(sig_arr)):
        raise DataFormatError(f"{path}: sigma_mhz must be given for all rows or none")
    control_unit, label = "", ""
    sidecar = path.with_suffix(".meta.json")
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
            if not isinstance(meta, dict):
                raise TypeError("expected a JSON object")
        # ValueError: undecodable bytes or malformed JSON
        except (OSError, ValueError, RecursionError, TypeError) as exc:
            raise DataFormatError(f"invalid sidecar {sidecar}: {exc}") from exc
        control_unit = meta.get("control_unit", "")
        label = meta.get("label", "")
    try:
        return CalibrationSeries(ctrl, freq, sig_arr if has_sigma else None,
                                 control_unit, label)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

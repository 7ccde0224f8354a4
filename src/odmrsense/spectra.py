"""Lineshapes, spectrum synthesis, noise estimation and peak fitting.

A resonance line is an asymmetric pseudo-Voigt: independent left/right
half-widths at half maximum and a shape_mix that blends Lorentzian
(mix=1) with Gaussian (mix=0) profiles.  Because both pure profiles fall
to 1/2 at one half-width, the widths remain exact HWHMs for any mix.

Spectra are plain (frequency, signal) arrays; signals are typically
fractional contrast, so lines can point up or down.  Fitting is bounded
trust-region least squares over all line parameters jointly, with
1-sigma center uncertainties taken from the Gauss-Newton covariance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import find_peaks, peak_widths

from .errors import DataFormatError, FitConvergenceError, InvalidParameterError

_LN2 = np.log(2.0)


@dataclass(frozen=True)
class LineModel:
    """One asymmetric pseudo-Voigt line.

    center in MHz, width_left/width_right are the per-side HWHMs in MHz,
    amplitude is the signed peak height, shape_mix in [0, 1] blends
    Lorentzian (1) into Gaussian (0).
    """

    center: float
    width_left: float
    width_right: float
    amplitude: float
    shape_mix: float = 1.0

    def __post_init__(self):
        vals = (self.center, self.width_left, self.width_right, self.amplitude, self.shape_mix)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidParameterError("line parameters must be finite")
        if self.width_left <= 0 or self.width_right <= 0:
            raise InvalidParameterError("widths must be positive")
        if not 0.0 <= self.shape_mix <= 1.0:
            raise InvalidParameterError("shape_mix must lie in [0, 1]")

    @classmethod
    def symmetric(cls, center: float, fwhm: float, amplitude: float,
                  shape_mix: float = 1.0) -> "LineModel":
        """Symmetric line specified by its full width at half maximum."""
        if fwhm <= 0:
            raise InvalidParameterError("fwhm must be positive")
        return cls(center, fwhm / 2.0, fwhm / 2.0, amplitude, shape_mix)

    @property
    def fwhm(self) -> float:
        return self.width_left + self.width_right

    def evaluate(self, freqs_mhz) -> np.ndarray:
        return evaluate_lines([self], freqs_mhz)


def evaluate_lines(lines, freqs_mhz) -> np.ndarray:
    """Sum of line profiles on a frequency grid."""
    f = np.asarray(freqs_mhz, dtype=float)
    return _profile(_pack(lines), f.ravel()).reshape(f.shape)


def _pack(lines) -> np.ndarray:
    """Rows of (center, width_left, width_right, amplitude, shape_mix)."""
    return np.array([[ln.center, ln.width_left, ln.width_right, ln.amplitude, ln.shape_mix]
                     for ln in lines], dtype=float).reshape(-1, 5)


def _profile(params: np.ndarray, f: np.ndarray, jac: bool = False):
    """Summed asymmetric pseudo-Voigt of the lines in the rows of params.

    params is a (n_lines, 5) array in _pack's column order and f a 1-D
    grid.  With jac=True the analytic (f.size, 5 * n_lines) Jacobian with
    respect to params.ravel() is returned too.  The profile keeps the
    operation order m / (1 + u2) + (1 - m) exp(-ln2 u2), times amplitude,
    summed over lines, so synthesized spectra do not change by a bit.
    """
    c, wl, wr, a, m = (col[:, None] for col in params.T)
    left = f < c
    width = np.where(left, wl, wr)
    u = (f - c) / width
    u2 = u ** 2
    gauss = np.exp(-_LN2 * u2)
    profile = m / (1.0 + u2) + (1.0 - m) * gauss
    total = (a * profile).sum(axis=0)
    if not jac:
        return total
    lor = 1.0 / (1.0 + u2)
    # g = -2 (dS/du2) / w, so dS/dcenter = g u and dS/dwidth = g u2
    g = a * (m * lor ** 2 + (1.0 - m) * _LN2 * gauss) * (2.0 / width)
    d_width = g * u2
    columns = (g * u, np.where(left, d_width, 0.0), np.where(left, 0.0, d_width),
               profile, a * (lor - gauss))
    # (n_lines, 5, n_samples) in memory: the transpose is a Fortran-ordered view
    return total, np.stack(columns, axis=1).reshape(-1, f.size).T


@dataclass(frozen=True)
class SpectrumMeta:
    """Provenance sidecar: noise level, RNG seed, control-parameter tag."""

    noise_sigma: float | None = None
    seed: int | None = None
    control_value: float | None = None
    control_unit: str | None = None

    def __post_init__(self):
        # a comparison, unlike np.isfinite, accepts ints too large for a float
        if self.control_value is not None and not -np.inf < self.control_value < np.inf:
            raise InvalidParameterError(
                f"control_value must be finite, got {self.control_value!r}")

    def to_dict(self) -> dict:
        return {
            "noise_sigma": self.noise_sigma,
            "seed": self.seed,
            "control_value": self.control_value,
            "control_unit": self.control_unit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectrumMeta":
        known = {k: data.get(k) for k in
                 ("noise_sigma", "seed", "control_value", "control_unit")}
        return cls(**known)


@dataclass(frozen=True)
class Spectrum:
    """Signal sampled on a strictly increasing frequency grid (MHz)."""

    freqs_mhz: np.ndarray
    signal: np.ndarray
    meta: SpectrumMeta | None = None

    def __init__(self, freqs_mhz, signal, meta: SpectrumMeta | None = None):
        f = np.asarray(freqs_mhz, dtype=float)
        s = np.asarray(signal, dtype=float)
        if f.ndim != 1 or f.shape != s.shape:
            raise InvalidParameterError("freqs and signal must be equal-length 1-D arrays")
        if f.size < 8:
            raise InvalidParameterError("spectrum needs at least 8 samples")
        if not np.all(np.isfinite(f)) or not np.all(np.isfinite(s)):
            raise InvalidParameterError("spectrum contains non-finite values")
        if np.any(np.diff(f) <= 0):
            raise InvalidParameterError("frequency grid must be strictly increasing")
        object.__setattr__(self, "freqs_mhz", f)
        object.__setattr__(self, "signal", s)
        object.__setattr__(self, "meta", meta)

    def __len__(self) -> int:
        return self.freqs_mhz.size


def synthesize(
    lines,
    freqs_mhz,
    noise_sigma: float = 0.0,
    seed: int | None = None,
    control_value: float | None = None,
    control_unit: str | None = None,
) -> Spectrum:
    """Evaluate lines on a grid and add white Gaussian noise.

    The same (lines, grid, noise_sigma, seed) always produces identical
    samples; noise_sigma = 0 is noiseless regardless of seed.
    """
    if noise_sigma < 0 or not np.isfinite(noise_sigma):
        raise InvalidParameterError("noise_sigma must be finite and >= 0")
    signal = evaluate_lines(lines, freqs_mhz)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        signal = signal + rng.normal(0.0, noise_sigma, size=signal.shape)
    meta = SpectrumMeta(noise_sigma=noise_sigma, seed=seed,
                        control_value=control_value, control_unit=control_unit)
    return Spectrum(freqs_mhz, signal, meta)


def robust_noise_sigma(spectrum: Spectrum) -> float:
    """Noise level from the MAD of second differences.

    Double differencing annihilates anything locally linear, so smooth
    spectral structure contributes only through its curvature; white
    noise of std sigma gives second differences of std sqrt(6) sigma.
    """
    # 0.6744897501960817 = Phi^-1(3/4) turns the MAD into a normal std
    d = np.diff(spectrum.signal, n=2)
    return float(np.median(np.abs(d - np.median(d))) / 0.6744897501960817 / np.sqrt(6.0))


def auto_guesses(spectrum: Spectrum) -> list[LineModel]:
    """Detect candidate lines of either polarity.

    Peaks must rise at least 3x the robust noise estimate above their
    surroundings and above the median baseline; the baseline condition
    keeps the valley between two positive lines from registering as a
    wide negative line (its prominence alone is the full line depth).
    Width guesses come from the half-prominence width; amplitudes are
    signed heights above the median baseline.
    """
    sigma = robust_noise_sigma(spectrum)
    # sigma-clipped median: the plain median sits well above the
    # between-line floor once fat-tailed lines cover much of the span
    baseline = float(np.median(spectrum.signal))
    for _ in range(3):
        kept = spectrum.signal[np.abs(spectrum.signal - baseline) < 4.0 * sigma]
        if kept.size < 8:
            break
        baseline = float(np.median(kept))
    step = float(np.median(np.diff(spectrum.freqs_mhz)))
    prominence = max(3.0 * sigma, 1e-300)
    n = len(spectrum)
    smooth_width = min(max(n // 200, 3), 25) | 1
    kernel = np.full(smooth_width, 1.0 / smooth_width)
    guesses: list[tuple[float, LineModel]] = []
    for sign in (1.0, -1.0):
        trace = sign * (spectrum.signal - baseline)
        # detect on a smoothed copy: genuine lines span many samples and
        # keep their prominence, noise wiggles drop well below the
        # 3-sigma bar once averaged
        smooth = np.convolve(trace, kernel, mode="same")
        idx, _ = find_peaks(smooth, prominence=prominence, height=prominence)
        if idx.size == 0:
            continue
        widths_samples = peak_widths(smooth, idx, rel_height=0.5)[0]
        for peak, wsamp in zip(idx, widths_samples):
            center = float(spectrum.freqs_mhz[peak])
            hwhm = max(wsamp * step / 2.0, step / 2.0)
            amplitude = sign * float(trace[peak])
            guesses.append((center, LineModel(center, hwhm, hwhm, amplitude, 0.5)))
    guesses.sort(key=lambda pair: pair[0])
    return [line for _, line in guesses]


@dataclass(frozen=True)
class PeakFit:
    """Fitted line summary.

    width is the full width at half maximum (sum of the two half-widths);
    center_sigma is the 1-sigma center uncertainty from the Gauss-Newton
    covariance.  The complete fitted LineModel rides along in line.
    """

    center: float
    center_sigma: float
    width: float
    amplitude: float
    residual_rms: float
    converged: bool
    line: LineModel = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "center": self.center,
            "center_sigma": self.center_sigma,
            "width": self.width,
            "amplitude": self.amplitude,
            "residual_rms": self.residual_rms,
            "converged": self.converged,
            "line": {
                "center": self.line.center,
                "width_left": self.line.width_left,
                "width_right": self.line.width_right,
                "amplitude": self.line.amplitude,
                "shape_mix": self.line.shape_mix,
            },
        }


def _unpack(vec: np.ndarray) -> list[LineModel]:
    out = []
    for k in range(0, vec.size, 5):
        c, wl, wr, a, m = vec[k:k + 5]
        out.append(LineModel(float(c), max(float(wl), 1e-300), max(float(wr), 1e-300),
                             float(a), float(np.clip(m, 0.0, 1.0))))
    return out


def fit_peaks(
    spectrum: Spectrum,
    guesses=None,
    max_iter: int = 200,
) -> list[PeakFit]:
    """Fit a sum of asymmetric pseudo-Voigt lines to a spectrum.

    guesses is a sequence of LineModel starting points; None triggers
    auto_guesses.  All lines are refined jointly.  Non-convergence is
    reported through the converged flag of every returned PeakFit, not as
    an exception, so partial results stay inspectable.
    """
    if guesses is None:
        guesses = auto_guesses(spectrum)
        if not guesses:
            raise FitConvergenceError("no peaks detected above the noise floor")
    guesses = list(guesses)
    f = spectrum.freqs_mhz
    s = spectrum.signal
    fmin, fmax = float(f[0]), float(f[-1])
    span = fmax - fmin
    step = float(np.median(np.diff(f)))
    amp_bound = 10.0 * max(float(np.max(np.abs(s))), 1e-30)

    lower, upper = [], []
    for ln in guesses:
        if not fmin <= ln.center <= fmax:
            raise InvalidParameterError(
                f"guess center {ln.center} lies outside the sampled range")
        # keep each line near its own guess so neighbours cannot swap
        box = max(4.0 * ln.fwhm, 20.0 * step)
        lower += [max(fmin, ln.center - box), step / 10.0, step / 10.0, -amp_bound, 0.0]
        upper += [min(fmax, ln.center + box), span, span, amp_bound, 1.0]
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    x0 = np.clip(_pack(guesses).ravel(), lower, upper)

    def residuals(vec):
        return _profile(vec.reshape(-1, 5), f) - s

    def jacobian(vec):
        return _profile(vec.reshape(-1, 5), f, jac=True)[1]

    result = least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, upper), method="trf",
        xtol=1e-8, ftol=1e-8, gtol=1e-8,
        max_nfev=max_iter * (x0.size + 1),
    )
    converged = bool(result.success)
    rms = float(np.sqrt(np.mean(result.fun ** 2)))

    dof = max(f.size - x0.size, 1)
    jac = result.jac
    try:
        cov = np.linalg.pinv(jac.T @ jac) * (2.0 * result.cost / dof)
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        sigmas = np.full(x0.size, np.inf)
        converged = False

    fitted = _unpack(result.x)
    fits = []
    for k, ln in enumerate(fitted):
        fits.append(PeakFit(
            center=ln.center,
            center_sigma=float(sigmas[5 * k]),
            width=ln.fwhm,
            amplitude=ln.amplitude,
            residual_rms=rms,
            converged=converged,
            line=ln,
        ))
    return fits


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def write_spectrum(spectrum: Spectrum, path) -> Path:
    """Write frequency_mhz,signal CSV plus a .meta.json sidecar."""
    path = Path(path)
    lines = ["frequency_mhz,signal"]
    for fr, sg in zip(spectrum.freqs_mhz, spectrum.signal):
        lines.append(f"{float(fr)!r},{float(sg)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if spectrum.meta is not None:
        _meta_path(path).write_text(
            json.dumps(spectrum.meta.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    return path


def read_spectrum(path) -> Spectrum:
    """Read a spectrum CSV; picks up the .meta.json sidecar when present."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    rows = raw.splitlines()
    if not rows or rows[0].strip() != "frequency_mhz,signal":
        raise DataFormatError(f"{path}:1: expected header 'frequency_mhz,signal'")
    freqs, signal = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 2 columns, got {len(parts)}")
        try:
            freqs.append(float(parts[0]))
            signal.append(float(parts[1]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    meta = None
    sidecar = _meta_path(path)
    if sidecar.exists():
        try:
            data = json.loads(sidecar.read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                raise TypeError("expected a JSON object")
            meta = SpectrumMeta.from_dict(data)
        # ValueError: undecodable bytes, malformed JSON or an invalid field
        except (OSError, ValueError, RecursionError, TypeError) as exc:
            raise DataFormatError(f"invalid sidecar {sidecar}: {exc}") from exc
    try:
        return Spectrum(freqs, signal, meta)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

"""Lineshapes, spectrum synthesis, noise estimation and peak fitting.

A resonance line is an asymmetric pseudo-Voigt: independent left/right
half-widths at half maximum and a shape_mix that blends Lorentzian
(mix=1) with Gaussian (mix=0) profiles.  Because both pure profiles fall
to 1/2 at one half-width, the widths remain exact HWHMs for any mix.

Spectra are plain (frequency, signal) arrays; signals are typically
fractional contrast, so lines can point up or down.  Fitting is projected
Levenberg-Marquardt least squares on a box over all line parameters
jointly, with 1-sigma center uncertainties taken from the Gauss-Newton
covariance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from ._numpy import np
from .errors import DataFormatError, FitConvergenceError, InvalidParameterError
from .textio import read_sidecar, read_table, sidecar_path, write_table

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


def _profile(params: np.ndarray, f: np.ndarray, jac: bool = False, work=None, jac_out=None):
    """Summed asymmetric pseudo-Voigt of the lines in the rows of params.

    params is a (n_lines, 5) array in _pack's column order and f a 1-D
    grid.  With jac=True the analytic (f.size, 5 * n_lines) Jacobian with
    respect to params.ravel() is returned too.  The profile keeps the
    operation order m / (1 + u2) + (1 - m) exp(-ln2 u2), times amplitude,
    summed over lines, and each Jacobian column the expression that
    reference_profile in tests/test_spectra.py spells out, so synthesized
    spectra and fits do not change by a bit.  exp runs only where its
    argument lies above -745.2: below, it is exactly +0.0 but slow in numpy.

    Every step writes through out= into work, the scratch arrays of
    _profile_work(n_lines, f.size), and the Jacobian columns into jac_out,
    an (n_lines, 5, f.size) array the returned Jacobian is a view of.  Left
    None, both are allocated here and the arrays returned are the caller's;
    given, they are a fit's per-fit buffers, and the profile returned is
    work's, overwritten by the next call.
    """
    if work is None:
        work = _profile_work(params.shape[0], f.size)
    (left, near), (u, u2, gauss, lor, tmp), total = work
    c, wl, wr, a, m = (col[:, None] for col in params.T)
    np.less(f, c, out=left)
    np.copyto(tmp, wr)
    np.copyto(tmp, wl, where=left)  # each sample's half-width
    # far past a narrow line u or u2 overflows to inf: the profile's limit, 0
    with np.errstate(over="ignore"):
        np.subtract(f, c, out=u)
        np.divide(u, tmp, out=u)
        np.square(u, out=u2)
    np.multiply(-_LN2, u2, out=tmp)
    # a NaN argument is not at or below -745.2, so exp keeps it NaN
    np.less_equal(tmp, -745.2, out=near)
    np.logical_not(near, out=near)
    gauss.fill(0.0)
    np.exp(tmp, out=gauss, where=near)
    np.add(1.0, u2, out=lor)
    if jac and jac_out is None:
        jac_out = np.empty((params.shape[0], 5, f.size))
    # the value-only call has no use for u once it is squared
    profile = jac_out[:, 3] if jac else u
    np.divide(m, lor, out=profile)
    np.multiply(1.0 - m, gauss, out=tmp)
    np.add(profile, tmp, out=profile)
    np.multiply(a, profile, out=tmp)
    tmp.sum(axis=0, out=total)
    if not jac:
        return total
    d_c, d_wl, d_wr, _, d_m = (jac_out[:, k] for k in range(5))
    np.divide(1.0, lor, out=lor)
    # g = -2 (dS/du2) / w, so dS/dcenter = g u and dS/dwidth = g u2; g is
    # formed in the d_wr column, and 2 / w picked per side like the width
    g = d_wr
    np.square(lor, out=g)
    np.multiply(m, g, out=g)
    np.multiply((1.0 - m) * _LN2, gauss, out=tmp)
    np.add(g, tmp, out=g)
    np.multiply(a, g, out=g)
    np.copyto(tmp, 2.0 / wr)
    np.copyto(tmp, 2.0 / wl, where=left)
    np.multiply(g, tmp, out=g)
    np.multiply(g, u, out=d_c)
    np.multiply(g, u2, out=d_wr)
    d_wl.fill(0.0)
    np.copyto(d_wl, d_wr, where=left)
    np.copyto(d_wr, 0.0, where=left)
    np.subtract(lor, gauss, out=d_m)
    np.multiply(a, d_m, out=d_m)
    # (n_lines, 5, n_samples) in memory: the transpose is a Fortran-ordered view
    return total, jac_out.reshape(-1, f.size).T


def _profile_work(n_lines: int, n_samples: int, jac: bool = False):
    """_profile's scratch: side and exp masks, five (n_lines, n_samples)
    float arrays and the summed profile; with jac, a jac_out buffer too, in
    one block with the five: as most of a fit's memory, it keeps glibc from
    trimming the heap as each fit ends and the next fit faulting it back in."""
    floats = np.empty((1 + jac, 5, n_lines, n_samples))
    work = (np.empty((2, n_lines, n_samples), dtype=bool), floats[0], np.empty(n_samples))
    return (work, floats[1].reshape(n_lines, 5, n_samples)) if jac else work


@dataclass(frozen=True)
class SpectrumMeta:
    """Provenance sidecar: noise level, RNG seed, control-parameter tag."""

    noise_sigma: float | None = None
    seed: int | None = None
    control_value: float | None = None
    control_unit: str | None = None

    def __post_init__(self):
        # comparisons, unlike np.isfinite, accept ints too large for a float
        if self.noise_sigma is not None and not 0 <= self.noise_sigma < np.inf:
            raise InvalidParameterError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.seed is not None and self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed!r}")
        if self.control_value is not None and not -np.inf < self.control_value < np.inf:
            raise InvalidParameterError(
                f"control_value must be finite, got {self.control_value!r}")


# What a sidecar may hold in each SpectrumMeta field
_SIDECAR_TYPES = {
    "noise_sigma": ((int, float, type(None)), "a number or null"),
    "seed": ((int, type(None)), "an integer or null"),
    "control_value": ((int, float, type(None)), "a number or null"),
    "control_unit": ((str, type(None)), "a string or null"),
}


@dataclass(frozen=True)
class Spectrum:
    """Signal on a strictly increasing grid (MHz) spanning >= 2**-500; every |sample| <= 2**500."""

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
        # 2**500 keeps a sum of squares over any table's rows (fewer than
        # 2**20) below 2**1020, so the fit's costs and covariance stay finite
        for name, values in (("freqs_mhz", f), ("signal", s)):
            if not np.all(np.abs(values) <= 2.0 ** 500):
                raise InvalidParameterError(f"{name} entries must be at most 2**500 in magnitude")
        if np.any(np.diff(f) <= 0):
            raise InvalidParameterError("frequency grid must be strictly increasing")
        # a span of at least 2**-500 does the same for the fit's Jacobian,
        # whose center and width derivatives grow near 1 / span
        if f[-1] - f[0] < 2.0 ** -500:
            raise InvalidParameterError("frequency grid must span at least 2**-500 MHz")
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
    meta = SpectrumMeta(noise_sigma=noise_sigma, seed=seed,
                        control_value=control_value, control_unit=control_unit)
    signal = evaluate_lines(lines, freqs_mhz)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        signal = signal + rng.normal(0.0, noise_sigma, size=signal.shape)
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
    Width guesses are _find_peaks' half-height widths less the smoothing
    boxcar's in quadrature; amplitudes are signed heights above the baseline.
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
        for peak, wsamp in _find_peaks(smooth, prominence, prominence):
            center = float(spectrum.freqs_mhz[peak])
            # the boxcar adds c times its width in quadrature: c = 1 for a
            # Lorentzian, 0.92 for mix 0.5 and 0.85 for a Gaussian on a 0.5 MHz
            # full scan's 8.6-sample lines; c = 1 leaves noisy guesses as small
            # as 0.14x the true FWHM, 0.9 keeps them at 0.77-1.54x
            wsamp = max(wsamp ** 2 - (0.9 * smooth_width) ** 2, 1.0) ** 0.5
            hwhm = wsamp * step / 2.0
            amplitude = sign * float(trace[peak])
            guesses.append((center, LineModel(center, hwhm, hwhm, amplitude, 0.5)))
    guesses.sort(key=lambda pair: pair[0])
    return [line for _, line in guesses]


def _find_peaks(x: np.ndarray, height: float, prominence: float) -> list[tuple[int, float]]:
    """(index, width in samples at half height or prominence) of each peak of x.

    The steps and float operations are those of scipy.signal's
    find_peaks(x, height=, prominence=) followed by peak_widths(x, peaks,
    rel_height=0.5): local maxima, a plateau counting once at its
    midpoint; the height filter; prominences of the survivors only; and
    widths linearly interpolated between the bases at half of min(prominence,
    x[peak]) for a peak above zero (auto_guesses' baseline), so a line whose
    base reaches opposite-sign neighbours' troughs is not measured at their
    depth, and at half prominence otherwise.
    """
    # a run of equal samples is a maximum when both its neighbours are lower
    start = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    end = np.r_[start[1:], x.size] - 1
    inner = (start > 0) & (end < x.size - 1)
    start, end = start[inner], end[inner]
    top = (x[start - 1] < x[start]) & (x[end + 1] < x[end])
    peaks = (start[top] + end[top]) // 2
    out = []
    for p in peaks[x[peaks] >= height]:
        # each base is the lowest sample before a higher one; which of tied
        # minima it is moves neither the prominence nor the width
        higher = np.flatnonzero(x > x[p])
        k = np.searchsorted(higher, p)
        lo = higher[k - 1] + 1 if k else 0
        hi = higher[k] if k < higher.size else x.size
        left_base = lo + int(np.argmin(x[lo:p + 1]))
        right_base = p + int(np.argmin(x[p:hi]))
        prom = x[p] - max(x[left_base], x[right_base])
        if not prom >= prominence:
            continue
        level = x[p] - (min(prom, x[p]) if x[p] > 0 else prom) * 0.5
        below = np.flatnonzero(x[left_base + 1:p + 1] <= level)
        i = left_base + 1 + below[-1] if below.size else left_base
        left = float(i)
        if x[i] < level:
            left += (level - x[i]) / (x[i + 1] - x[i])
        below = np.flatnonzero(x[p:right_base] <= level)
        i = p + below[0] if below.size else right_base
        right = float(i)
        if x[i] < level:
            right -= (level - x[i]) / (x[i - 1] - x[i])
        out.append((int(p), right - left))
    return out


@dataclass(frozen=True)
class PeakFit:
    """Fitted line summary.

    width is the full width at half maximum (sum of the two half-widths);
    center_sigma is the 1-sigma center uncertainty from the Gauss-Newton
    covariance, inf (and the fit not converged) for a line whose center
    moves no sample, such as one of zero amplitude.  The complete fitted
    LineModel rides along in line.
    """

    center: float
    center_sigma: float
    width: float
    amplitude: float
    residual_rms: float
    converged: bool
    line: LineModel = field(repr=False)


def _unpack(vec: np.ndarray) -> list[LineModel]:
    out = []
    for k in range(0, vec.size, 5):
        c, wl, wr, a, m = vec[k:k + 5]
        out.append(LineModel(float(c), float(wl), float(wr), float(a), float(m)))
    return out


def _solve_box(cost_at, normal_equations, x, lower, upper, max_nfev: int, tol: float):
    """Projected Levenberg-Marquardt least squares on the box [lower, upper].

    cost_at(x) evaluates the model at x and returns the cost r.r / 2, and
    normal_equations(), called at the start and after each accepted step,
    returns (J^T r, J^T J) at the point evaluated last: the solver never
    sees r or J (MINPACK's lmstr keeps them apart the same way).  Each step
    freezes the variables that sit on a bound with the cost gradient
    pointing out of the box, solves the Marquardt-scaled damped normal
    equations (J^T J + mu D) h = -J^T r on the others by Cholesky and clips
    x + h onto the box.  mu follows Nielsen's gain-ratio update
    (IMM-REP-1999-05); the ftol, xtol and gtol tests follow MINPACK, all at
    tol.  Returns x, J^T J at x and whether a tolerance test, not the
    max_nfev budget, ended the search; x may not be the point evaluated last.
    """
    cost = cost_at(x)
    nfev = 1
    grad, hess = normal_equations()
    scale = hess.diagonal().copy()
    mu, nu = 1e-3, 2.0
    while True:
        free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))
        # gtol: no free Jacobian column is correlated with the residuals
        norms = np.sqrt(hess.diagonal())[free]
        if np.all(np.abs(grad[free]) <= tol * norms * np.sqrt(2.0 * cost)):
            return x, hess, True
        if nfev >= max_nfev:
            return x, hess, False
        damping = mu * np.where(scale > 0.0, scale, 1.0)[free]
        try:
            chol = np.linalg.cholesky(hess[free][:, free] + np.diag(damping))
        except np.linalg.LinAlgError:
            mu, nu = mu * nu, 2.0 * nu
            continue
        h = np.zeros_like(x)
        h[free] = -np.linalg.solve(chol.T, np.linalg.solve(chol, grad[free]))
        x_new = np.clip(x + h, lower, upper)
        step = x_new - x
        cost_new = cost_at(x_new)
        nfev += 1
        actual = cost - cost_new
        predicted = -(grad @ step + 0.5 * (step @ hess @ step))
        ratio = actual / predicted if predicted > 0.0 else -1.0
        # ftol also wants the model to predict the reduction within 50 %
        # (MINPACK: 100 %): in a flat width/shape_mix valley the Gauss-Newton
        # model undershoots, and a small step there does not mean the end
        done = ((abs(actual) <= tol * cost and predicted <= tol * cost and ratio <= 1.5)
                or np.sqrt(step @ step) <= tol * (tol + np.sqrt(x @ x)))
        if ratio > 0.0:
            x, cost = x_new, cost_new
            grad, hess = normal_equations()
            scale = np.maximum(scale, hess.diagonal())
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            nu = 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
        if done:
            return x, hess, True


def fit_peaks(
    spectrum: Spectrum,
    guesses=None,
    max_iter: int = 200,
) -> list[PeakFit]:
    """Fit a sum of asymmetric pseudo-Voigt lines to a spectrum.

    guesses is a sequence of LineModel starting points; None triggers
    auto_guesses.  All lines are refined jointly, and every evaluation
    overwrites the fit's one residual vector and Jacobian.  Non-convergence is
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
    # an all-zero signal pins every amplitude at 0
    amp_bound = 10.0 * float(np.max(np.abs(s)))

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

    work, jac_out = _profile_work(len(guesses), f.size, jac=True)
    jac = jac_out.reshape(-1, f.size).T  # the view _profile returns
    r = np.empty(f.size)
    evaluated = None

    def cost_at(vec):
        nonlocal evaluated
        np.subtract(_profile(vec.reshape(-1, 5), f, True, work, jac_out)[0], s, out=r)
        evaluated = vec
        return 0.5 * (r @ r)

    x, hess, converged = _solve_box(cost_at, lambda: (jac.T @ r, jac.T @ jac), x0, lower,
                                    upper, max_nfev=max_iter * (x0.size + 1), tol=1e-8)
    if evaluated is not x:  # the buffers hold a rejected trial step
        cost_at(x)
    rms = float(np.sqrt(np.mean(r ** 2)))

    dof = max(f.size - x0.size, 1)
    try:
        cov = np.linalg.pinv(hess) * ((r @ r) / dof)
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        sigmas = np.full(x0.size, np.inf)
        converged = False
    # pinv gives a centre that moves no sample (a zero-amplitude line) zero
    # variance, but such a centre is undetermined
    blind = ~jac[:, 0::5].any(axis=0)
    sigmas[0::5][blind] = np.inf
    converged = converged and not blind.any()

    fitted = _unpack(x)
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


def write_spectrum(spectrum: Spectrum, path) -> Path:
    """Write frequency_mhz,signal CSV plus a .meta.json sidecar."""
    meta = None if spectrum.meta is None else asdict(spectrum.meta)
    return write_table(path, "frequency_mhz,signal",
                       zip(spectrum.freqs_mhz, spectrum.signal), meta)


def read_spectrum(path) -> Spectrum:
    """Read a spectrum CSV; picks up the .meta.json sidecar when present."""
    freqs, signal = read_table(path, ("frequency_mhz,signal",)).T.copy()  # contiguous columns
    meta = read_sidecar(path, _SIDECAR_TYPES)
    try:
        meta = None if meta is None else SpectrumMeta(**meta)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{sidecar_path(path)}: {exc}") from exc
    try:
        return Spectrum(freqs, signal, meta)
    except InvalidParameterError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc

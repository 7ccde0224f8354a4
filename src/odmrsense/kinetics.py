"""Five-level optical pumping and readout kinetics.

Levels, in storage order: S0, S1, Tx, Ty, Tz.  Optical pumping S0 -> S1,
radiative decay S1 -> S0, intersystem crossing S1 -> T with fixed
branching, sublevel-selective triplet decay T_a -> S0, and an optional
incoherent microwave rate that symmetrically exchanges population between
one pair of sublevels.  Rates are in 1/us; populations are fractions that
sum to one.  The steady state is the null vector of the rate generator M,
and evolution over a time t applies exp(M t), computed in numpy by
scaling and squaring a Pade approximant (Higham 2005).

Defaults mimic a photoexcited organic triplet: intersystem crossing
strongly favours Tx, while Tz lives far longer than Tx.  Because the
steady state balances feeding against decay (n_a ~ p_a tau_a), the
long-lived, weakly-fed Tz ends up more populated than Ty, which inverts
the sign of the microwave contrast between the xy and yz transitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._numpy import np
from .errors import DegenerateKineticsError, DivisionDomainError, InvalidParameterError

LEVELS = ("S0", "S1", "Tx", "Ty", "Tz")

# Microwave-addressable sublevel pairs -> storage indices.
MW_PAIRS = {"xy": (2, 3), "yz": (3, 4), "xz": (2, 4)}


@dataclass(frozen=True)
class KineticsParams:
    """Rate-model parameters, all rates in 1/us.

    isc_branching is the (Tx, Ty, Tz) split of intersystem crossing and
    must sum to one; triplet_decay are the sublevel decay rates, i.e. the
    reciprocal lifetimes (35, 166, 500 us by default).
    """

    pump_rate: float = 0.02
    radiative_rate: float = 0.05
    isc_rate: float = 0.05
    isc_branching: tuple[float, float, float] = (0.76, 0.16, 0.08)
    triplet_decay: tuple[float, float, float] = (1.0 / 35.0, 1.0 / 166.0, 1.0 / 500.0)
    mw_rate: float = 0.0
    mw_pair: str = "xy"

    def __post_init__(self):
        scalars = {
            "pump_rate": self.pump_rate,
            "radiative_rate": self.radiative_rate,
            "isc_rate": self.isc_rate,
            "mw_rate": self.mw_rate,
        }
        for name, val in scalars.items():
            if not np.isfinite(val) or val < 0:
                raise InvalidParameterError(f"{name} must be finite and >= 0")
        branching = np.asarray(self.isc_branching, dtype=float)
        decay = np.asarray(self.triplet_decay, dtype=float)
        if branching.shape != (3,) or decay.shape != (3,):
            raise InvalidParameterError("isc_branching and triplet_decay need 3 entries")
        if np.any(branching < 0) or not np.all(np.isfinite(branching)):
            raise InvalidParameterError("isc_branching entries must be finite and >= 0")
        if abs(branching.sum() - 1.0) > 1e-12:
            raise InvalidParameterError("isc_branching must sum to 1")
        if np.any(decay < 0) or not np.all(np.isfinite(decay)):
            raise InvalidParameterError("triplet_decay entries must be finite and >= 0")
        if self.mw_pair not in MW_PAIRS:
            raise InvalidParameterError(f"mw_pair must be one of {sorted(MW_PAIRS)}")

    def with_microwave(self, mw_rate: float, mw_pair: str | None = None) -> "KineticsParams":
        return replace(self, mw_rate=mw_rate, mw_pair=mw_pair or self.mw_pair)


@dataclass(frozen=True)
class PopulationState:
    """Normalized populations of (S0, S1, Tx, Ty, Tz)."""

    n_s0: float
    n_s1: float
    n_tx: float
    n_ty: float
    n_tz: float

    def __post_init__(self):
        vec = self.as_array()
        if not np.all(np.isfinite(vec)):
            raise InvalidParameterError("populations must be finite")
        if np.any(vec < -1e-12):
            raise InvalidParameterError("populations must be non-negative")
        if abs(vec.sum() - 1.0) > 1e-10:
            raise InvalidParameterError("populations must sum to 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.n_s0, self.n_s1, self.n_tx, self.n_ty, self.n_tz])

    @classmethod
    def from_array(cls, vec) -> "PopulationState":
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (5,):
            raise InvalidParameterError("population vector must have 5 entries")
        return cls(*(float(v) for v in arr))

    @classmethod
    def ground(cls) -> "PopulationState":
        return cls(1.0, 0.0, 0.0, 0.0, 0.0)


def rate_matrix(params: KineticsParams) -> np.ndarray:
    """Generator matrix M with dn/dt = M n; every column sums to zero."""
    mat = np.zeros((5, 5))
    # pumping and S1 depletion
    mat[1, 0] += params.pump_rate
    mat[0, 0] -= params.pump_rate
    mat[0, 1] += params.radiative_rate
    total_isc = params.isc_rate
    mat[1, 1] -= params.radiative_rate + total_isc
    for slot, frac in enumerate(params.isc_branching):
        mat[2 + slot, 1] += total_isc * frac
    # triplet decay back to the ground state
    for slot, rate in enumerate(params.triplet_decay):
        mat[2 + slot, 2 + slot] -= rate
        mat[0, 2 + slot] += rate
    # symmetric incoherent microwave drive
    if params.mw_rate > 0:
        i, j = MW_PAIRS[params.mw_pair]
        mat[i, i] -= params.mw_rate
        mat[j, i] += params.mw_rate
        mat[j, j] -= params.mw_rate
        mat[i, j] += params.mw_rate
    return mat


def steady_state(params: KineticsParams) -> PopulationState:
    """Unique stationary distribution of the rate matrix.

    Found as the one-dimensional null space of the generator; a null space
    of higher dimension means disconnected levels and is reported as
    DegenerateKineticsError rather than silently picking a vector.  The
    null space is the right singular vectors whose singular values do not
    exceed max(s) * eps * 5, the rule of scipy.linalg.null_space.
    """
    if params.pump_rate == 0:
        return PopulationState.ground()
    mat = rate_matrix(params)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > s.max() * np.finfo(float).eps * max(mat.shape)))
    kernel = vh[rank:].T
    if kernel.shape[1] != 1:
        raise DegenerateKineticsError(
            f"rate matrix null space has dimension {kernel.shape[1]}, expected 1"
        )
    vec = kernel[:, 0]
    vec = vec / vec.sum()
    # the SVD leaves entries that are zero in exact arithmetic at roundoff
    # size and of either sign; make them non-negative
    vec = np.where(np.abs(vec) < 1e-15, np.abs(vec), vec)
    return PopulationState.from_array(vec)


# Higham's [13/13] Pade coefficients b_0..b_13 and the 1-norm up to which
# that approximant of exp is accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(mat: np.ndarray) -> np.ndarray:
    """exp(mat) by scaling and squaring of the [13/13] Pade approximant.

    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005): mat / 2**s with
    1-norm at most theta_13, r = (v - u)^-1 (v + u) for the odd (u) and
    even (v) parts of the Pade numerator, then s squarings of r.
    """
    norm = np.abs(mat).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = mat / 2.0 ** s
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def evolve(params: KineticsParams, state: PopulationState, duration_us: float) -> PopulationState:
    """Propagate populations for duration_us via the matrix exponential.

    The propagator exp(M t) is _expm's scaling and squaring of the [13/13]
    Pade approximant (Higham 2005); eigenvector and truncated-Taylor
    routes lose accuracy on these stiff, non-normal generators (Moler &
    Van Loan, SIAM Rev. 45, 3, 2003).  A zero duration returns state
    itself, where the Pade solve would leave S0 one rounding below 1.
    """
    if not np.isfinite(duration_us) or duration_us < 0:
        raise InvalidParameterError("duration_us must be finite and >= 0")
    if duration_us == 0:
        return state
    propagator = _expm(rate_matrix(params) * duration_us)
    # a proper generator keeps the sum at 1 to roundoff; do not renormalize,
    # conservation is part of what callers may want to verify
    return PopulationState.from_array(propagator @ state.as_array())


def odmr_contrast(params: KineticsParams, pair: str | None = None) -> float:
    """Relative steady-state fluorescence change when the microwave is on.

    contrast = F_on / F_off - 1 with F proportional to the S1 population.
    The driven pair defaults to params.mw_pair; params.mw_rate must be
    positive for the drive to do anything.
    """
    pair = pair or params.mw_pair
    if pair not in MW_PAIRS:
        raise InvalidParameterError(f"pair must be one of {sorted(MW_PAIRS)}")
    if params.mw_rate <= 0:
        raise InvalidParameterError("odmr_contrast needs mw_rate > 0")
    off = steady_state(replace(params, mw_rate=0.0))
    on = steady_state(replace(params, mw_pair=pair))
    if off.n_s1 <= 0:
        raise DivisionDomainError("reference fluorescence is zero; contrast undefined")
    return on.n_s1 / off.n_s1 - 1.0


def contrast_spectrum_amplitudes(
    params: KineticsParams, mw_rate: float | None = None
) -> dict[str, float]:
    """Contrast of each transition, keyed 'xy', 'yz', 'xz'.

    Convenience for building synthetic spectra whose line amplitudes carry
    the kinetic sign structure.
    """
    drive = params.mw_rate if mw_rate is None else mw_rate
    driven = params.with_microwave(drive)
    return {pair: odmr_contrast(driven, pair) for pair in ("xy", "yz", "xz")}

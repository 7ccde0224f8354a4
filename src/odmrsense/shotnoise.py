"""The shot-noise sensitivity figure eta = sigma sqrt(tau) / (signal_slope * calib_slope).

Python floats and math only, so the sensitivity subcommand runs without
numpy; calibration re-exports both names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivisionDomainError, InvalidParameterError


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
                   - self.sigma * math.sqrt(self.tau_s))


def _finite(value) -> bool:
    """math.isfinite, and False for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
        if not _finite(val) or val <= 0:
            raise InvalidParameterError(f"{name} must be finite and positive")
    for name, val in (("signal_slope", signal_slope), ("calib_slope", calib_slope)):
        if not _finite(val) or val < 0:
            raise InvalidParameterError(f"{name} must be finite and >= 0")
        if val == 0:
            raise DivisionDomainError(f"{name} is zero; sensitivity diverges")
    # an overflow or underflow raises no warning here and is refused below
    slopes = float(signal_slope) * float(calib_slope)
    eta = float(sigma) * math.sqrt(tau_s) / slopes if slopes else math.inf
    if not 0.0 < eta < math.inf:
        raise InvalidParameterError(
            f"eta = sigma sqrt(tau) / (signal_slope * calib_slope) is {eta}: "
            "the inputs' magnitudes leave the float range")
    return SensitivityReport(eta, sigma, tau_s, signal_slope, calib_slope, unit)

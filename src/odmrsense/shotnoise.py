"""The shot-noise sensitivity figure eta = sigma sqrt(tau) / (signal_slope * calib_slope).

Python floats and math only, so the sensitivity subcommand runs without
numpy; calibration re-exports both names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import MAX_MAGNITUDE, WITHIN
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
    control-units per sqrt(Hz).  Slopes enter as magnitudes.  Each input
    lies in the declared range (constants.MAX_MAGNITUDE), between 2**-100
    and 2**100, so eta lies within 2**±350 and is never refused.
    """
    # the comparisons refuse NaN, infinities and integers too large for a
    # float before any arithmetic
    for name, val in (("sigma", sigma), ("tau_s", tau_s), ("signal_slope", signal_slope),
                      ("calib_slope", calib_slope)):
        if val == 0 and name.endswith("slope"):
            raise DivisionDomainError(f"{name} is zero; sensitivity diverges")
        if not 1.0 / MAX_MAGNITUDE <= val <= MAX_MAGNITUDE:
            raise InvalidParameterError(f"{name} must be positive and {WITHIN}")
    eta = float(sigma) * math.sqrt(tau_s) / (float(signal_slope) * float(calib_slope))
    return SensitivityReport(eta, sigma, tau_s, signal_slope, calib_slope, unit)

"""Physical constants and unit conversions used across the package.

CODATA 2018 values throughout.  Internal unit conventions: frequencies in
MHz, times in microseconds, lengths in angstrom.
"""

from __future__ import annotations

import math

# CODATA 2018
G_ELECTRON = 2.00231930436256          # electron g-factor (dimensionless)
BOHR_MAGNETON = 9.2740100783e-24       # J/T
PLANCK = 6.62607015e-34                # J s (exact)
MU0 = 1.25663706212e-6                 # N/A^2
BOHR_RADIUS_ANGSTROM = 0.529177210903  # angstrom per bohr

# (mu0/4pi) (g_e mu_B)^2 / h = 52041.016 MHz A^3; the scale that turns
# 1/r^3 integrals over angstrom-gridded densities into MHz couplings.
# The SI value carries m^3; 1e30 converts to angstrom^3 and 1e-6 Hz to MHz.
DIPOLAR_PREFACTOR_MHZ_A3 = (MU0 / (4.0 * math.pi) * (G_ELECTRON * BOHR_MAGNETON) ** 2
                            / PLANCK * 1e30 * 1e-6)

# The declared numeric range (README, "Numeric range"): every input is at
# most MAX_MAGNITUDE in magnitude and every quantity that must be non-zero
# at least its reciprocal; the data classes refuse anything else.
MAX_MAGNITUDE = 2.0 ** 100
# the range in the words of an error message
_EXPONENT = math.frexp(MAX_MAGNITUDE)[1] - 1
AT_MOST = f"at most 2**{_EXPONENT} in magnitude"
AT_LEAST = f"at least 2**-{_EXPONENT} in magnitude"
WITHIN = f"between 2**-{_EXPONENT} and 2**{_EXPONENT} in magnitude"

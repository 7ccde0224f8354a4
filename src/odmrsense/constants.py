"""Physical constants and unit conversions used across the package.

CODATA 2018 values throughout.  Internal unit conventions: frequencies in
MHz, times in microseconds, magnetic fields in mT, lengths in angstrom.
"""

from __future__ import annotations

import math

# CODATA 2018
G_ELECTRON = 2.00231930436256          # electron g-factor (dimensionless)
BOHR_MAGNETON = 9.2740100783e-24       # J/T
PLANCK = 6.62607015e-34                # J s (exact)
MU0 = 1.25663706212e-6                 # N/A^2
BOHR_RADIUS_ANGSTROM = 0.529177210903  # angstrom per bohr

# Electron gyromagnetic ratio expressed for lab use: MHz per mT.
GAMMA_E_MHZ_PER_MT = G_ELECTRON * BOHR_MAGNETON / PLANCK * 1e-9

# (mu0/4pi) (g_e mu_B)^2 / h = 52041.016 MHz A^3; the scale that turns
# 1/r^3 integrals over angstrom-gridded densities into MHz couplings.
# The SI value carries m^3; 1e30 converts to angstrom^3 and 1e-6 Hz to MHz.
DIPOLAR_PREFACTOR_MHZ_A3 = (MU0 / (4.0 * math.pi) * (G_ELECTRON * BOHR_MAGNETON) ** 2
                            / PLANCK * 1e30 * 1e-6)

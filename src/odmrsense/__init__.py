"""Simulation, fitting and calibration toolkit for photoexcited-triplet
ODMR sensors.

Subpackage map: spin (zero-field levels and fine-structure algebra),
kinetics (five-level optical pumping model), spectra (lineshapes and
peak fitting), calibration (segmented calibration fits and
sensitivity), volumetric (orbital grids and cube files), dipolar
(spin-spin tensor integration), textio (the one text, JSON and number
reader and table writer behind every file format), cli (command-line
front end).

Importing the package first loads numpy with one OpenBLAS thread, unless
numpy is loaded already or OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set; the environment is left as it was.
"""

import os as _os
import sys as _sys

# OpenBLAS sizes its thread pool once, as numpy loads it.  No routine here
# gains from a second thread, which costs each fresh process about 0.1 s of
# CPU, so the caller's choice is kept and otherwise the pool gets one thread.
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .constants import (
    BOHR_RADIUS_ANGSTROM,
    DIPOLAR_PREFACTOR_MHZ_A3,
)
from .errors import (
    ConfigError,
    CubeParseError,
    DataFormatError,
    DegenerateKineticsError,
    DivisionDomainError,
    FitConvergenceError,
    GridMismatchError,
    InvalidParameterError,
    OdmrSenseError,
    ReadoutAmbiguityError,
    ReadoutError,
    ReadoutRangeError,
)
from .spin import (
    TransitionSet,
    ZfsParameters,
    ZfsTensor,
    ordered_eigensystem,
    parameters_to_tensor,
    tensor_to_parameters,
    transitions_from_zfs,
    zfs_from_transitions,
)
from .kinetics import (
    KineticsParams,
    PopulationState,
    contrast_spectrum_amplitudes,
    evolve,
    odmr_contrast,
    rate_matrix,
    steady_state,
)
from .spectra import (
    LineModel,
    PeakFit,
    Spectrum,
    SpectrumMeta,
    auto_guesses,
    evaluate_lines,
    fit_peaks,
    read_spectrum,
    robust_noise_sigma,
    synthesize,
    write_spectrum,
)
from .calibration import (
    CalibrationSeries,
    PiecewiseLinearFit,
    SegmentFit,
    SensitivityReport,
    invert_readout,
    read_calibration,
    segmented_fit,
    sensitivity,
    write_calibration,
)
from .volumetric import (
    OrbitalGrid,
    OrbitalStats,
    assert_commensurate,
    gaussian_orbital,
    homo_lumo_shift,
    load_cube,
    make_grid,
    orbital_stats,
    save_cube,
)
from .dipolar import (
    PhaseComparison,
    compare_phases,
    delta_d_estimate,
    point_dipole_tensor,
    zfs_pair_tensor,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

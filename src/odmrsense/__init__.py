"""Simulation, fitting and calibration toolkit for photoexcited-triplet
ODMR sensors.

Subpackage map: spin (zero-field levels and fine-structure algebra),
kinetics (five-level optical pumping model), spectra (lineshapes and
peak fitting), calibration (segmented calibration fits), shotnoise (the
sensitivity figure, which calibration re-exports), volumetric (orbital
grids and cube files), dipolar (spin-spin tensor integration), textio
(the one text, JSON and number reader and table writer behind every
file format), cli (command-line front end).

Only errors and constants load with the package; every other name in
__all__, a submodule's name included, imports its module on first
access (PEP 562), so a process loads numpy only once it touches a
numeric module.  That first numeric import loads numpy with one OpenBLAS
thread, unless numpy is loaded already or OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set; the environment is left as
it was (see _numpy).
"""

import importlib as _importlib

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

# the public names each lazily loaded module gives the package
_EXPORTS = {
    "spin": (
        "TransitionSet", "ZfsParameters", "ZfsTensor", "ordered_eigensystem",
        "parameters_to_tensor", "tensor_to_parameters", "transitions_from_zfs",
        "zfs_from_transitions"),
    "kinetics": (
        "KineticsParams", "PopulationState", "contrast_spectrum_amplitudes", "evolve",
        "odmr_contrast", "rate_matrix", "steady_state"),
    "spectra": (
        "LineModel", "PeakFit", "Spectrum", "SpectrumMeta", "auto_guesses", "evaluate_lines",
        "fit_peaks", "read_spectrum", "robust_noise_sigma", "synthesize", "write_spectrum"),
    "calibration": (
        "CalibrationSeries", "PiecewiseLinearFit", "SegmentFit", "invert_readout",
        "read_calibration", "segmented_fit", "write_calibration"),
    "shotnoise": ("SensitivityReport", "sensitivity"),
    "volumetric": (
        "OrbitalGrid", "OrbitalStats", "assert_commensurate", "gaussian_orbital",
        "homo_lumo_shift", "load_cube", "make_grid", "orbital_stats", "save_cube"),
    "dipolar": (
        "PhaseComparison", "compare_phases", "delta_d_estimate", "point_dipole_tensor",
        "zfs_pair_tensor"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "textio")

__version__ = "0.1.0"

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_HOMES, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:  # the import binds it here, so this runs once
        return _importlib.import_module(f".{name}", __name__)
    if name in _HOMES:  # bound here too, so this runs once a name
        module = _importlib.import_module(f".{_HOMES[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

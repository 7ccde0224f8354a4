"""Simulation, fitting and calibration toolkit for photoexcited-triplet
ODMR sensors.

Subpackage map: spin (zero-field levels and fine-structure algebra),
kinetics (five-level optical pumping model), spectra (lineshapes and
peak fitting), calibration (segmented calibration fits and
sensitivity), volumetric (orbital grids and cube files), dipolar
(spin-spin tensor integration), textio (the one text, JSON and number
reader and table writer behind every file format), cli (command-line
front end).

SciPy is imported inside the one function that uses it,
kinetics.evolve (its matrix exponential), never at module level: no
subcommand calls it, so neither importing the package or the CLI nor
running a subcommand loads SciPy, which would add up to a second to
every CLI process.
"""

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

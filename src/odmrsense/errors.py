"""Exception hierarchy.

Everything raised deliberately by this package derives from
:class:`OdmrSenseError`, so callers (and the CLI) can distinguish our
failures from genuine bugs.  Input/format problems and computation
failures are separate branches because the CLI maps them to different
exit codes: DataFormatError and InvalidParameterError (with their
subclasses) exit 2, every other package error exits 1.
"""

from __future__ import annotations


class OdmrSenseError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(OdmrSenseError, ValueError):
    """A argument is out of its documented domain."""


class DataFormatError(OdmrSenseError, ValueError):
    """A data file (CSV, JSON sidecar, config) is malformed."""


class CubeParseError(DataFormatError):
    """A volumetric cube file could not be parsed."""


class ConfigError(DataFormatError):
    """Run configuration failed schema validation."""


class GridMismatchError(InvalidParameterError):
    """Two volumetric grids are not defined on commensurate meshes."""


class DegenerateKineticsError(OdmrSenseError):
    """The rate matrix has no unique steady state (null space dim > 1)."""


class FitConvergenceError(OdmrSenseError):
    """An optimizer failed to converge where a result is mandatory."""


class DivisionDomainError(OdmrSenseError, ZeroDivisionError):
    """A ratio is undefined because its denominator vanishes."""


class ReadoutError(OdmrSenseError):
    """Base class for calibration-inversion failures."""


class ReadoutRangeError(ReadoutError):
    """Frequency lies outside every calibrated segment."""


class ReadoutAmbiguityError(ReadoutError, InvalidParameterError):
    """Frequency maps to several segments and none was selected."""

"""Zero-field spin-1 triplet levels and fine-structure tensor algebra.

One convention throughout, the one PyZFS uses (Ma, Govoni & Galli,
JOSS 5, 2160, 2020).  The fine-structure tensor T is a traceless
symmetric 3x3 matrix in MHz; with its eigenvalues in the canonical axis
order |lambda_z| >= |lambda_y| >= |lambda_x|,

    D = 3/2 lambda_z,   E = (lambda_x - lambda_y) / 2,

with both signs flipped when that D is negative, which lands every
tensor on D > 0 and 0 <= E <= D/3.  In the principal frame
parameters_to_tensor gives T = diag(-D/3 + E, -D/3 - E, 2D/3).

The three zero-field sublevels take their energies from that diagonal
through one relabelling,

    E(Tx) = -T_yy = D/3 + E,   E(Ty) = -T_xx = D/3 - E,   E(Tz) = -T_zz = -2D/3,

that is S.T.S in the Cartesian triplet basis (where level Ta sits at
-T_aa) with x and y swapped.  The transition frequencies follow as

    f_xy = 2 E,   f_yz = D - E,   f_xz = D + E.

No magnetic field enters: the sensor is read out at zero field.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .errors import InvalidParameterError

AXIS_LABELS = ("x", "y", "z")

# Transition keys in the fixed reporting order used throughout.
TRANSITION_KEYS = ("xy", "yz", "xz")


@dataclass(frozen=True)
class ZfsParameters:
    """Fine-structure parameters D and E in MHz.

    Any finite pair is accepted; :meth:`canonical` maps to the
    representative with D > 0 and 0 <= E <= D/3.
    """

    D: float
    E: float

    def __post_init__(self):
        if not (np.isfinite(self.D) and np.isfinite(self.E)):
            raise InvalidParameterError("D and E must be finite")

    @property
    def is_canonical(self) -> bool:
        return self.D > 0 and 0.0 <= self.E <= self.D / 3.0 + 1e-12 * abs(self.D)

    def canonical(self) -> "ZfsParameters":
        params, _ = tensor_to_parameters(parameters_to_tensor(self))
        return params


@dataclass(frozen=True)
class TransitionSet:
    """The three inter-sublevel transition frequencies in MHz."""

    f_xy: float
    f_yz: float
    f_xz: float

    def __post_init__(self):
        for key in TRANSITION_KEYS:
            val = getattr(self, "f_" + key)
            if not np.isfinite(val) or val < 0:
                raise InvalidParameterError(f"f_{key} must be finite and >= 0")

    @property
    def closure_residual(self) -> float:
        """|f_xz - f_yz - f_xy|; zero up to rounding for a zero-field triplet."""
        return abs(self.f_xz - self.f_yz - self.f_xy)


@dataclass(frozen=True)
class ZfsTensor:
    """Traceless symmetric fine-structure interaction tensor in MHz."""

    tensor: np.ndarray

    def __init__(self, tensor):
        mat = np.asarray(tensor, dtype=float)
        if mat.shape != (3, 3):
            raise InvalidParameterError(f"tensor must have shape (3, 3), got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise InvalidParameterError("tensor contains non-finite entries")
        # the largest entry, unlike the norm's sum of squares, neither underflows
        # to 0 for tiny tensors nor overflows to inf for huge ones
        scale = np.abs(mat).max()
        if np.abs(mat - mat.T).max() > 1e-12 * max(scale, 1e-300):
            raise InvalidParameterError("tensor is not symmetric")
        if abs(np.trace(mat)) > 1e-9 * max(scale, 1e-300):
            raise InvalidParameterError("tensor is not traceless")
        object.__setattr__(self, "tensor", mat)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))


def _principal_values(zfs: ZfsParameters) -> np.ndarray:
    """(T_xx, T_yy, T_zz) = (-D/3 + E, -D/3 - E, 2D/3) in the principal frame."""
    d, e = zfs.D, zfs.E
    return np.array([-d / 3.0 + e, -d / 3.0 - e, 2.0 * d / 3.0])


def _sublevel_energies(zfs: ZfsParameters) -> np.ndarray:
    """Energies (MHz) of (Tx, Ty, Tz): (-T_yy, -T_xx, -T_zz) of the tensor."""
    return -_principal_values(zfs)[[1, 0, 2]]


def transitions_from_zfs(zfs: ZfsParameters) -> TransitionSet:
    """Zero-field transition frequencies, |E(Ta) - E(Tb)| for each pair."""
    e_x, e_y, e_z = _sublevel_energies(zfs)
    return TransitionSet(f_xy=abs(e_x - e_y), f_yz=abs(e_y - e_z), f_xz=abs(e_x - e_z))


def zfs_from_transitions(
    f_xz: float, f_yz: float, f_xy: float | None = None
) -> ZfsParameters | tuple[ZfsParameters, float]:
    """Invert zero-field transition frequencies to (D, E).

    D = (f_xz + f_yz) / 2 and E = (f_xz - f_yz) / 2.  When f_xy is also
    supplied, returns (parameters, closure_residual) with the residual
    |f_xy - 2E| measuring internal consistency of the three lines.
    """
    for name, val in (("f_xz", f_xz), ("f_yz", f_yz)):
        if not np.isfinite(val) or val <= 0:
            raise InvalidParameterError(f"{name} must be finite and positive")
    if f_xz < f_yz:
        raise InvalidParameterError(
            "f_xz < f_yz: transition labels are swapped (f_xz = D + E is the"
            " higher line for E >= 0)"
        )
    params = ZfsParameters(D=(f_xz + f_yz) / 2.0, E=(f_xz - f_yz) / 2.0)
    if f_xy is None:
        return params
    if not np.isfinite(f_xy) or f_xy < 0:
        raise InvalidParameterError("f_xy must be finite and >= 0")
    return params, abs(f_xy - 2.0 * params.E)


def ordered_eigensystem(tensor: ZfsTensor) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and axes in canonical (x, y, z) order.

    Order is by descending (|lambda|, lambda), assigned to (z, y, x); ties
    in magnitude are broken by signed value so (+a, -a, 0) always orders
    deterministically.  Axis columns get the positive-leading-component
    sign convention.
    """
    lam, vec = np.linalg.eigh(tensor.tensor)
    order = sorted(range(3), key=lambda k: (abs(lam[k]), lam[k]), reverse=True)
    z_idx, y_idx, x_idx = order
    eigenvalues = np.array([lam[x_idx], lam[y_idx], lam[z_idx]])
    axes = vec[:, [x_idx, y_idx, z_idx]].copy()
    for k in range(3):
        lead = np.argmax(np.abs(axes[:, k]))
        if axes[lead, k] < 0:
            axes[:, k] *= -1.0
    return eigenvalues, axes


def tensor_to_parameters(tensor: ZfsTensor) -> tuple[ZfsParameters, np.ndarray]:
    """Extract canonical (D, E) and principal axes from an interaction tensor.

    With eigenvalues (lambda_x, lambda_y, lambda_z) in canonical order,
    D = 3/2 lambda_z and E = (lambda_x - lambda_y) / 2; if that D comes
    out negative both signs are flipped, which lands every traceless
    symmetric tensor on D > 0, 0 <= E <= D/3.
    """
    eigenvalues, axes = ordered_eigensystem(tensor)
    lam_x, lam_y, lam_z = eigenvalues
    d = 1.5 * lam_z
    e = 0.5 * (lam_x - lam_y)
    if d < 0:
        d, e = -d, -e
    return ZfsParameters(D=d, E=e), axes


def parameters_to_tensor(zfs: ZfsParameters) -> ZfsTensor:
    """Principal-frame tensor diag(-D/3 + E, -D/3 - E, 2D/3)."""
    return ZfsTensor(np.diag(_principal_values(zfs)))

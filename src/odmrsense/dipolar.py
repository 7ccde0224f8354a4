"""Spin-spin dipolar coupling tensor from orbital densities.

The fine-structure tensor of a triplet pair is the double integral of
the dipolar kernel

    K_ab(r) = (r^2 delta_ab - 3 r_a r_b) / r^5

over the two unpaired-electron densities, minus the same integral over
the overlap product (the exchange-like correction for indistinguishable
electrons), scaled by (mu0/4pi) (g_e mu_B)^2 / (2 h).

On a regular grid the kernel only depends on the index offset between
voxels, so it is sampled once on the (2n-1)^3 displacement lattice with
a short-range cutoff zeroing the singular voxels, and both sums are
evaluated as FFT convolutions with that table.  The transformed kernel
depends only on the mesh and the cutoff, so it is cached: a second
orbital pair on the same mesh reuses it.  The test suite cross-checks
the convolution against a literal voxel-pair double sum over the same
kernel table.  Tracelessness is exact per displacement, so the result
is traceless to roundoff by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import DIPOLAR_PREFACTOR_MHZ_A3
from .errors import InvalidParameterError
from .spin import AXIS_LABELS, ZfsParameters, ZfsTensor, ordered_eigensystem, tensor_to_parameters
from .volumetric import OrbitalGrid, assert_commensurate

# Independent tensor components in (a, b) index pairs.
_COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _kernel_table(dims, axes: np.ndarray, cutoff: float) -> list[np.ndarray]:
    """Dipolar kernel on the displacement lattice, cutoff-regularized.

    Entry [o + (n-1)] holds K(o . axes) for index offset o; displacements
    shorter than cutoff (always including zero) are set to 0.
    """
    ranges = [np.arange(-(n - 1), n, dtype=float) for n in dims]
    ii, jj, kk = np.meshgrid(*ranges, indexing="ij")
    disp = (ii[..., None] * axes[0] + jj[..., None] * axes[1]
            + kk[..., None] * axes[2])
    r2 = np.sum(disp * disp, axis=-1)
    keep = r2 >= cutoff * cutoff
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r5 = np.where(keep, r2 ** -2.5, 0.0)
    tables = []
    for a, b in _COMPONENTS:
        num = r2 - 3.0 * disp[..., a] * disp[..., b] if a == b \
            else -3.0 * disp[..., a] * disp[..., b]
        tables.append(num * inv_r5)
    return tables


def _padded_shape(dims) -> list[int]:
    from scipy import fft as sp_fft

    return [sp_fft.next_fast_len(2 * n - 1) for n in dims]


@lru_cache(maxsize=1)
def _kernel_transforms(dims: tuple, axes: tuple, cutoff: float,
                       threads: int) -> tuple[np.ndarray, ...]:
    """Real FFTs of the six kernel tables on the padded convolution shape.

    Keyed on the mesh and cutoff (axes as a tuple of row tuples, so the
    key is hashable); the arrays are read-only because they are shared
    between calls.
    """
    from scipy import fft as sp_fft

    shape = _padded_shape(dims)
    transforms = tuple(sp_fft.rfftn(table, s=shape, workers=threads)
                       for table in _kernel_table(dims, np.array(axes), cutoff))
    for table_f in transforms:
        table_f.flags.writeable = False
    return transforms


def _pair_sums_fft(rho_i, rho_j, overlap, transforms, threads) -> tuple[np.ndarray, np.ndarray]:
    """(sum rho_i K rho_j, sum g K g) for all six components via FFT."""
    from scipy import fft as sp_fft

    dims = rho_i.shape
    shape = _padded_shape(dims)
    window = tuple(slice(n - 1, 2 * n - 1) for n in dims)
    rho_j_f = sp_fft.rfftn(rho_j, s=shape, workers=threads)
    overlap_f = sp_fft.rfftn(overlap, s=shape, workers=threads)
    direct = np.zeros(6)
    exchange = np.zeros(6)
    for comp, table_f in enumerate(transforms):
        field = sp_fft.irfftn(table_f * rho_j_f, s=shape, workers=threads)[window]
        direct[comp] = np.sum(rho_i * field)
        field = sp_fft.irfftn(table_f * overlap_f, s=shape, workers=threads)[window]
        exchange[comp] = np.sum(overlap * field)
    return direct, exchange


def zfs_pair_tensor(
    phi_i: OrbitalGrid,
    phi_j: OrbitalGrid,
    cutoff_angstrom: float | None = None,
    threads: int = 1,
) -> ZfsTensor:
    """Dipolar fine-structure tensor (MHz) of two orbitals on one grid.

    Orbitals are normalized internally; the grids must be commensurate.
    cutoff_angstrom regularizes the kernel by zeroing displacements
    shorter than the cutoff and defaults to the smallest grid step;
    anything below one grid step would keep the singular self-terms and
    is rejected.  threads sets the FFT workers and never changes the
    result.
    """
    if threads < 1:
        raise InvalidParameterError("threads must be >= 1")
    assert_commensurate(phi_i, phi_j)
    min_step = float(np.min(np.linalg.norm(phi_i.axes, axis=1)))
    if cutoff_angstrom is None:
        cutoff_angstrom = min_step
    if not np.isfinite(cutoff_angstrom):
        raise InvalidParameterError(f"cutoff must be finite, got {cutoff_angstrom!r}")
    if cutoff_angstrom < min_step * (1.0 - 1e-12):
        raise InvalidParameterError(
            "cutoff below one grid step keeps the kernel singularity")

    phi_i = phi_i.normalized()
    phi_j = phi_j.normalized()
    rho_i = phi_i.values ** 2
    rho_j = phi_j.values ** 2
    overlap = phi_i.values * phi_j.values

    transforms = _kernel_transforms(phi_i.dims, tuple(map(tuple, phi_i.axes)),
                                    float(cutoff_angstrom), threads)
    direct, exchange = _pair_sums_fft(rho_i, rho_j, overlap, transforms, threads)

    dv = phi_i.voxel_volume
    scale = 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * dv * dv
    comps = scale * (direct - exchange)
    tensor = np.empty((3, 3))
    for value, (a, b) in zip(comps, _COMPONENTS):
        tensor[a, b] = value
        tensor[b, a] = value
    return ZfsTensor(tensor)


def point_dipole_tensor(separation_angstrom) -> ZfsTensor:
    """Analytic tensor for two point spins at a fixed separation vector."""
    r_vec = np.asarray(separation_angstrom, dtype=float)
    if r_vec.shape != (3,) or not np.all(np.isfinite(r_vec)):
        raise InvalidParameterError("separation must be a finite 3-vector")
    r2 = float(r_vec @ r_vec)
    if r2 <= 0:
        raise InvalidParameterError("separation must be non-zero")
    kernel = (r2 * np.eye(3) - 3.0 * np.outer(r_vec, r_vec)) / r2 ** 2.5
    return ZfsTensor(0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * kernel)


@dataclass(frozen=True)
class PhaseComparison:
    """Like-labeled eigenvalue differences between two crystal phases.

    Eigenvalues are in canonical (x, y, z) order for each tensor;
    delta_mhz = eigenvalues_b - eigenvalues_a, and dominant_axis names the
    component with the largest magnitude change.
    """

    eigenvalues_a: np.ndarray
    eigenvalues_b: np.ndarray
    delta_mhz: np.ndarray
    dominant_axis: str
    params_a: ZfsParameters
    params_b: ZfsParameters

    @property
    def max_abs_delta(self) -> float:
        return float(np.max(np.abs(self.delta_mhz)))


def compare_phases(tensor_a: ZfsTensor, tensor_b: ZfsTensor) -> PhaseComparison:
    """Difference two fine-structure tensors eigenvalue by eigenvalue."""
    eig_a, _ = ordered_eigensystem(tensor_a)
    eig_b, _ = ordered_eigensystem(tensor_b)
    delta = eig_b - eig_a
    dominant = AXIS_LABELS[int(np.argmax(np.abs(delta)))]
    params_a, _ = tensor_to_parameters(tensor_a)
    params_b, _ = tensor_to_parameters(tensor_b)
    return PhaseComparison(eig_a, eig_b, delta, dominant, params_a, params_b)


def delta_d_estimate(delta_r_pm: float, distance_angstrom: float) -> float:
    """Order-of-magnitude fine-structure shift from a pm-scale bond change.

    Linearizing the 1/r^3 point-dipole coupling, a separation change
    delta_r at distance r shifts the coupling by about
    (prefactor/2) * delta_r / r^4, returned in MHz.
    """
    if not np.isfinite(delta_r_pm):
        raise InvalidParameterError("delta_r_pm must be finite")
    if not np.isfinite(distance_angstrom) or distance_angstrom <= 0:
        raise InvalidParameterError("distance_angstrom must be positive")
    delta_r_angstrom = delta_r_pm * 0.01
    return 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * delta_r_angstrom / distance_angstrom ** 4

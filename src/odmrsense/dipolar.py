"""Spin-spin dipolar coupling tensor from orbital densities.

The fine-structure tensor of a triplet pair is the double integral of
the dipolar kernel

    K_ab(r) = (r^2 delta_ab - 3 r_a r_b) / r^5

over the two unpaired-electron densities, minus the same integral over
the overlap product (the exchange-like correction for indistinguishable
electrons), scaled by (mu0/4pi) (g_e mu_B)^2 / (2 h).

On a regular grid the kernel only depends on the index offset between
voxels, so it is sampled once, with a short-range cutoff zeroing the
singular voxels, on the zero-padded FFT mesh of M points.  It is even in
the offset, so its transform K^ is real and each pair sum is one
frequency-space inner product, sum_k K^ Re(conj(a^) b^) / M (Parseval).
K^ depends only on the mesh and the cutoff, so it is cached: a second
orbital pair on the same mesh reuses it.  The test suite cross-checks
the result against a literal voxel-pair double sum over six kernel
tables built independently.  The kernel is traceless at every
displacement (K_xx + K_yy + K_zz = 0), so the cache keeps five rows (xx,
yy, xy, xz, yz) and the tensor takes zz = -(xx + yy), traceless by
construction.

Memory: each table is built slab by slab into one reused mesh buffer
beside r^-5, and a pair sum keeps at most two density spectra alive.  On
the padded mesh that is about 47 bytes per point while the kernel is
built and 27 once it is cached (numpy buffers at 48^3), 46-51 per point
of process RSS; volumetric.MAX_CUBE_SAMPLES refuses cubes whose mesh
would not fit.  The transforms are numpy's (pocketfft, one thread) on
11-smooth padded lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import DIPOLAR_PREFACTOR_MHZ_A3
from .errors import InvalidParameterError
from .spin import AXIS_LABELS, ZfsParameters, ZfsTensor, ordered_eigensystem, tensor_to_parameters
from .volumetric import OrbitalGrid, assert_commensurate

# Tensor components kept in the kernel spectrum, as (a, b) index pairs;
# zz is -(xx + yy) by the trace identity.
_COMPONENTS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))


def _kernel_table(shape, axes: np.ndarray, cutoff: float):
    """Yield the five cutoff-regularized kernel tables on the FFT mesh.

    Index m along an axis of length N stands for offset m, or m - N past
    the middle, and holds K(o . axes); displacements shorter than cutoff
    (always including zero) are 0.  No in-range mask is needed: the sums
    only reach |o| <= n-1 < N/2, where each table equals its even part,
    and .real of its transform is the transform of that even part.

    Every table is written slab by slab along axis 0 into one buffer
    that is reused for the next, so a caller keeps a table past the next
    step only by copying it.  Beside it only r^-5 lives on the full mesh.
    """
    offsets = [np.arange(n) - n * (np.arange(n) > n // 2) for n in shape]
    # the axis-1 and axis-2 parts of each displacement component
    part1 = [offsets[1][:, None] * axes[1, c] for c in range(3)]
    part2 = [offsets[2][None, :] * axes[2, c] for c in range(3)]

    def disp(i, c):
        """Displacement component c on slab i."""
        return offsets[0][i] * axes[0, c] + part1[c] + part2[c]

    def r2(i):
        d = [disp(i, c) for c in range(3)]
        return d[0] * d[0] + d[1] * d[1] + d[2] * d[2]

    inv_r5 = np.empty(shape)
    with np.errstate(divide="ignore"):
        for i, slab in enumerate(inv_r5):
            r2_i = r2(i)
            slab[:] = np.where(r2_i >= cutoff * cutoff, r2_i ** -2.5, 0.0)
    table = np.empty(shape)
    for a, b in _COMPONENTS:
        for i, slab in enumerate(table):
            np.multiply(-3.0 * disp(i, a), disp(i, b), out=slab)
            if a == b:
                slab += r2(i)
            slab *= inv_r5[i]
        yield table


def _fast_len(n: int) -> int:
    """The smallest 11-smooth integer not below n >= 1: a length the FFT handles fast."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _padded_shape(dims) -> list[int]:
    return [_fast_len(2 * n - 1) for n in dims]


@lru_cache(maxsize=1)
def _kernel_transforms(dims: tuple, axes: tuple, cutoff: float) -> np.ndarray:
    """Real kernel spectra on the rfft half mesh as one (5, M) array.

    Row c is rfftn(table c).real, times 2 where a half-spectrum entry k
    stands for the conjugate pair k, -k (1 where they coincide: at 0 and
    at the Nyquist of an even last axis), over the mesh size, so its dot
    product with Re(conj(a^) b^) is the pair sum.  Keyed on the mesh and
    cutoff alone (axes as a tuple of row tuples, so the key is hashable).
    Read-only because it is shared between calls.
    """
    shape = _padded_shape(dims)
    k = np.arange(shape[-1] // 2 + 1)
    weight = np.where(2 * k % shape[-1] == 0, 1.0, 2.0) / np.prod(shape, dtype=float)
    kernel = np.empty((len(_COMPONENTS), np.prod(shape[:-1]) * k.size))
    # one spectrum buffer for all five transforms (out= needs NumPy >= 2.0)
    spectrum = np.empty((*shape[:-1], k.size), dtype=complex)
    for row, table in zip(kernel, _kernel_table(shape, np.array(axes), cutoff)):
        np.fft.rfftn(table, axes=(0, 1, 2), out=spectrum)
        np.multiply(spectrum.real, weight, out=row.reshape(spectrum.shape))
    kernel.flags.writeable = False
    return kernel


def zfs_pair_tensor(
    phi_i: OrbitalGrid,
    phi_j: OrbitalGrid,
    cutoff_angstrom: float | None = None,
) -> ZfsTensor:
    """Dipolar fine-structure tensor (MHz) of two orbitals on one grid.

    Orbitals are normalized internally; the grids must be commensurate.
    cutoff_angstrom regularizes the kernel by zeroing displacements
    shorter than the cutoff and defaults to the smallest grid step;
    anything below one grid step would keep the singular self-terms and
    is rejected.
    """
    assert_commensurate(phi_i, phi_j)
    min_step = float(np.min(np.linalg.norm(phi_i.axes, axis=1)))
    if cutoff_angstrom is None:
        cutoff_angstrom = min_step
    if not np.isfinite(cutoff_angstrom):
        raise InvalidParameterError(f"cutoff must be finite, got {cutoff_angstrom!r}")
    if cutoff_angstrom < min_step * (1.0 - 1e-12):
        raise InvalidParameterError(
            "cutoff below one grid step keeps the kernel singularity")

    # the kernel first, so its build never overlaps the density spectra
    kernel = _kernel_transforms(phi_i.dims, tuple(map(tuple, phi_i.axes)),
                                float(cutoff_angstrom))
    psi_i, psi_j = phi_i.normalized().values, phi_j.normalized().values
    shape = _padded_shape(phi_i.dims)

    def spectrum(density):
        return np.fft.rfftn(density, s=shape, axes=(0, 1, 2)).ravel()

    # at most two density spectra are alive at once
    f_i, f_j = spectrum(psi_i ** 2), spectrum(psi_j ** 2)
    pair = f_i.real * f_j.real  # Re(conj(f_i) f_j)
    pair += f_i.imag * f_j.imag
    del f_i, f_j
    f_g = spectrum(psi_i * psi_j)
    # the exchange term whole before it is subtracted, formed like the
    # direct one, so that a pair of identical orbitals cancels exactly
    exchange = f_g.real * f_g.real
    exchange += f_g.imag * f_g.imag
    pair -= exchange
    dv = phi_i.voxel_volume
    scale = 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * dv * dv
    comps = scale * np.einsum("cm,m->c", kernel, pair)
    tensor = np.empty((3, 3))
    for value, (a, b) in zip(comps, _COMPONENTS):
        tensor[a, b] = value
        tensor[b, a] = value
    tensor[2, 2] = -(comps[0] + comps[1])
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

"""Direct-sum oracle for the dipolar tensor.

The library evaluates the dipolar pair sums in frequency space only.
This module keeps the literal voxel-pair double sum as the reference the
tests compare it against.  It builds all six kernel tables itself, zz
included, on the whole padded mesh at once, while the library builds
five slab by slab and takes zz from the trace identity; the samples
agree bitwise, so a disagreement comes from the frequency-space
mechanics (padding, transforms, the trace identity).  Quadratic cost:
small grids only.

It also keeps the library's former frequency-space pair phase, one
rfftn(..., s=) per density, as the bitwise reference for the in-place
spectra the library now builds.
"""

import numpy as np

from odmrsense import DIPOLAR_PREFACTOR_MHZ_A3, OrbitalGrid, ZfsTensor
from odmrsense.dipolar import _COMPONENTS, _kernel_transforms, _octant_sums, _padded_shape

# All six independent tensor components in (a, b) index pairs.
COMPONENTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def kernel_tables(shape, axes, cutoff: float) -> list[np.ndarray]:
    """The six cutoff-regularized kernel tables, in COMPONENTS order.

    Same wrap-around offsets and the same operations in the same order as
    the library, but each table on the full mesh at once.
    """
    offsets = np.ix_(*[np.arange(n) - n * (np.arange(n) > n // 2) for n in shape])
    disp = [offsets[0] * axes[0, c] + offsets[1] * axes[1, c] + offsets[2] * axes[2, c]
            for c in range(3)]
    r2 = disp[0] * disp[0] + disp[1] * disp[1] + disp[2] * disp[2]
    with np.errstate(divide="ignore"):
        inv_r5 = np.where(r2 >= cutoff * cutoff, r2 ** -2.5, 0.0)
    tables = []
    for a, b in COMPONENTS:
        table = -3.0 * disp[a] * disp[b]
        if a == b:
            table += r2
        tables.append(table * inv_r5)
    return tables


def _pair_sums_direct(rho_i, rho_j, overlap, tables,
                      chunk: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Same sums as the FFT route by explicit voxel-pair iteration.

    Looks the kernel up through index offsets, taken modulo the table
    shape; quadratic cost, intended for small grids.
    """
    dims = rho_i.shape
    idx = np.indices(dims).reshape(3, -1).T  # (N, 3)
    ri = rho_i.reshape(-1)
    rj = rho_j.reshape(-1)
    ov = overlap.reshape(-1)
    direct = np.zeros(len(tables))
    exchange = np.zeros(len(tables))
    for start in range(0, idx.shape[0], chunk):
        rows = idx[start:start + chunk]
        off = rows[:, None, :] - idx[None, :, :]  # (c, N, 3)
        o0, o1, o2 = (off[..., a] % tables[0].shape[a] for a in range(3))
        for comp, table in enumerate(tables):
            kmat = table[o0, o1, o2]
            direct[comp] += ri[start:start + chunk] @ (kmat @ rj)
            exchange[comp] += ov[start:start + chunk] @ (kmat @ ov)
    return direct, exchange


def direct_pair_tensor(phi_i: OrbitalGrid, phi_j: OrbitalGrid) -> ZfsTensor:
    """zfs_pair_tensor at its default cutoff (one grid step), by direct sum."""
    cutoff = float(np.min(np.linalg.norm(phi_i.axes, axis=1)))
    phi_i = phi_i.normalized()
    phi_j = phi_j.normalized()
    overlap = phi_i.values * phi_j.values
    tables = kernel_tables(_padded_shape(phi_i.dims), phi_i.axes, cutoff)
    direct, exchange = _pair_sums_direct(phi_i.values ** 2, phi_j.values ** 2,
                                         overlap, tables)
    dv = phi_i.voxel_volume
    comps = 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * dv * dv * (direct - exchange)
    tensor = np.empty((3, 3))
    for value, (a, b) in zip(comps, COMPONENTS):
        tensor[a, b] = value
        tensor[b, a] = value
    return ZfsTensor(tensor)


def rfftn_pair_tensor(phi_i: OrbitalGrid, phi_j: OrbitalGrid) -> ZfsTensor:
    """zfs_pair_tensor at its default cutoff, with rfftn's own density spectra.

    The same cached kernel and contraction as the library; each density
    spectrum is a fresh np.fft.rfftn(..., s=) of the whole product.
    """
    cutoff = float(np.min(np.linalg.norm(phi_i.axes, axis=1)))
    kernel = _kernel_transforms(phi_i.dims, tuple(map(tuple, phi_i.axes)), cutoff)
    psi_i, psi_j = phi_i.normalized().values, phi_j.normalized().values
    shape = _padded_shape(phi_i.dims)

    def spectrum(density):
        return np.fft.rfftn(density, s=shape, axes=(0, 1, 2)).ravel()

    f_i, f_j = spectrum(psi_i ** 2), spectrum(psi_j ** 2)
    pair = f_i.real * f_j.real
    pair += np.multiply(f_i.imag, f_j.imag, out=f_i.imag)
    f_g = spectrum(psi_i * psi_j)
    exchange = np.multiply(f_g.real, f_g.real, out=f_g.real)
    exchange += np.multiply(f_g.imag, f_g.imag, out=f_g.imag)
    pair -= exchange
    dv = phi_i.voxel_volume
    scale = 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * dv * dv
    if kernel.ndim == 2:
        comps = scale * np.einsum("cm,m->c", kernel, pair)
    else:
        comps = scale * _octant_sums(kernel, pair.reshape(*shape[:-1], -1))
    tensor = np.empty((3, 3))
    for value, (a, b) in zip(comps, _COMPONENTS):
        tensor[a, b] = value
        tensor[b, a] = value
    tensor[2, 2] = -(comps[0] + comps[1])
    return ZfsTensor(tensor)

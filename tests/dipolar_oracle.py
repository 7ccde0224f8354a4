"""Direct-sum oracle for the dipolar tensor.

The library evaluates the dipolar pair sums in frequency space only.
This module keeps the literal voxel-pair double sum as the reference the
tests compare it against.  It reads the library's own kernel table, so
both routes see bitwise identical kernel samples and any disagreement
comes from the frequency-space mechanics (padding, transforms).
Quadratic cost: small grids only.
"""

import numpy as np

from odmrsense import DIPOLAR_PREFACTOR_MHZ_A3, OrbitalGrid, ZfsTensor
from odmrsense.dipolar import _COMPONENTS, _kernel_table, _padded_shape


def _pair_sums_direct(rho_i, rho_j, overlap, tables,
                      chunk: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Same sums as the FFT route by explicit voxel-pair iteration.

    Looks the kernel up through index offsets, taken modulo the table
    shape, so both routes see bitwise identical kernel samples; quadratic
    cost, intended for small grids.
    """
    dims = rho_i.shape
    idx = np.indices(dims).reshape(3, -1).T  # (N, 3)
    ri = rho_i.reshape(-1)
    rj = rho_j.reshape(-1)
    ov = overlap.reshape(-1)
    direct = np.zeros(6)
    exchange = np.zeros(6)
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
    tables = list(_kernel_table(_padded_shape(phi_i.dims), phi_i.axes, cutoff))
    direct, exchange = _pair_sums_direct(phi_i.values ** 2, phi_j.values ** 2,
                                         overlap, tables)
    dv = phi_i.voxel_volume
    comps = 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * dv * dv * (direct - exchange)
    tensor = np.empty((3, 3))
    for value, (a, b) in zip(comps, _COMPONENTS):
        tensor[a, b] = value
        tensor[b, a] = value
    return ZfsTensor(tensor)

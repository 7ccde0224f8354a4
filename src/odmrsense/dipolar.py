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

The cache has two layouts (see _kernel_transforms), contracted alike by
_pair_sums.  On a lattice with diagonal axes, which every make_grid or
save_cube grid has, each row is even or odd in every axis separately,
so its spectrum is fixed by the octant of non-negative frequencies:
about 5 bytes per padded point.  On any other lattice the rows span the
rfft half mesh: 20 bytes per point.

Memory: every 3-D transform (densities, and kernel tables off diagonal
axes) runs through _half_spectrum, which takes the array as axis-0
slabs, so no zero-padded real copy forms.  Kernel tables come slab by
slab beside r^-5 (on the octant of non-negative offsets for diagonal
axes), and a pair sum runs in two complex half spectra (8 bytes per
padded point each), the products written over spectra that are spent.
In numpy buffers at 48^3 a first call takes about 24 bytes per padded
point with an octant kernel, 39 with a half-mesh one, and 18 once the
kernel is cached.  A fresh process peaks 26-28 (diagonal) or 41-43
(skewed) bytes per point above its bare 30 MB;
volumetric.MAX_CUBE_SAMPLES refuses cubes whose mesh would not fit.  The
transforms are numpy's (pocketfft, one thread) on 11-smooth padded
lengths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from ._numpy import np
from .constants import DIPOLAR_PREFACTOR_MHZ_A3
from .errors import InvalidParameterError
from .spin import AXIS_LABELS, ZfsParameters, ZfsTensor, ordered_eigensystem, tensor_to_parameters
from .volumetric import OrbitalGrid, assert_commensurate

# Tensor components kept in the kernel spectrum, as (a, b) index pairs;
# zz is -(xx + yy) by the trace identity.
_COMPONENTS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))


def _kernel_table(shape, axes: np.ndarray, cutoff: float, octant: bool = False):
    """Yield the five cutoff-regularized kernel tables on the FFT mesh.

    Index m along an axis of length N stands for offset m, or m - N past
    the middle, and holds K(o . axes); displacements shorter than cutoff
    (always including zero) are 0.  No in-range mask is needed: the sums
    only reach |o| <= n-1 < N/2, where each table equals its even part,
    and .real of its transform is the transform of that even part.  With
    octant set, the tables hold only the offsets 0..N//2 of every axis,
    the same samples as the full tables' leading corner.

    Each table comes as an iterator over its axis-0 slabs, each a fresh
    array, so a caller streams it into a transform or stacks it.  Beside
    the slabs only r^-5 lives on the mesh.
    """
    if octant:
        offsets = [np.arange(n // 2 + 1) for n in shape]
    else:
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

    inv_r5 = np.empty([o.size for o in offsets])
    with np.errstate(divide="ignore"):
        for i, slab in enumerate(inv_r5):
            r2_i = r2(i)
            slab[:] = np.where(r2_i >= cutoff * cutoff, r2_i ** -2.5, 0.0)

    def slabs(a, b):
        for i, inv_r5_i in enumerate(inv_r5):
            slab = -3.0 * disp(i, a) * disp(i, b)
            if a == b:
                slab += r2(i)
            slab *= inv_r5_i
            yield slab

    for a, b in _COMPONENTS:
        yield slabs(a, b)


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


def _odd_axes(a: int, b: int) -> tuple:
    """Axes in which kernel row (a, b) is odd on an orthogonal lattice."""
    return () if a == b else (a, b)


def _parity_rfft(values: np.ndarray, n: int, axis: int, odd: bool) -> np.ndarray:
    """Real spectrum along axis of a period-n sequence given on offsets 0..n//2.

    The values are mirrored onto the negative offsets, with a sign flip
    if odd.  An even sequence has a real transform and an odd one i
    times a real one; this returns that real factor (.real or .imag of
    the rfft), on frequencies 0..n//2.  An odd sequence's sample at an
    even n's Nyquist offset drops out of .imag, which the pair sums never
    miss: they only reach offsets below n/2.
    """
    mirror = [slice(None)] * values.ndim
    mirror[axis] = slice(n - values.shape[axis], 0, -1)
    negative = values[tuple(mirror)]
    full = np.concatenate([values, -negative if odd else negative], axis=axis)
    spectrum = np.fft.rfft(full, axis=axis)
    return spectrum.imag if odd else spectrum.real


@lru_cache(maxsize=1)
def _kernel_transforms(dims: tuple, axes: tuple, cutoff: float) -> np.ndarray:
    """Real kernel spectra, over the mesh size and weighted for the rfft half mesh.

    A half-spectrum entry with last-axis frequency k stands for the
    conjugate pair k, -k, so the weight is 2 (1 where they coincide: at 0
    and at the Nyquist of an even last axis).  One (5, h0, h1, N2//2+1)
    array, in one of two layouts, which _pair_sums both contracts:

    - General lattice: h = N, row c being rfftn(table c).real over the
      whole half mesh.  20 bytes per padded point.
    - Diagonal axes (every make_grid or save_cube grid): each row has a
      parity in every axis separately (xx, yy even; xy odd in x and y,
      xz in x and z, yz in y and z), so its spectrum is real, has the
      same parities in frequency, and is fixed by its octant of
      non-negative frequencies: h = N//2+1.  The tables are built on the
      octant of non-negative offsets and transformed one axis at a time
      by _parity_rfft; two odd axes give i^2, so those rows carry a sign
      -1.  About 5 bytes per padded point.

    Keyed on the mesh and cutoff alone (axes as a tuple of row tuples,
    so the key is hashable).  Read-only because it is shared between
    calls.
    """
    shape = _padded_shape(dims)
    axes = np.array(axes)
    k = np.arange(shape[-1] // 2 + 1)
    weight = np.where(2 * k % shape[-1] == 0, 1.0, 2.0) / np.prod(shape, dtype=float)
    octant = not np.any(axes[~np.eye(3, dtype=bool)])  # diagonal axes
    h = [n // 2 + 1 if octant else n for n in shape[:-1]]
    kernel = np.empty((len(_COMPONENTS), *h, k.size))
    tables = _kernel_table(shape, axes, cutoff, octant)
    for row, slabs, (a, b) in zip(kernel, tables, _COMPONENTS):
        if octant:
            table = np.stack(tuple(slabs))
            odd = _odd_axes(a, b)
            for axis, n in enumerate(shape):
                table = _parity_rfft(table, n, axis, axis in odd)
            np.multiply(table, -weight if odd else weight, out=row)
        else:
            np.multiply(_half_spectrum(slabs, shape, shape).real, weight, out=row)
    kernel.flags.writeable = False
    return kernel


def _pair_sums(kernel: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """The five pair sums from either kernel layout and the (N0, N1, N2//2+1) pair spectrum.

    Along axes 0 and 1, frequency N - k is -k: an octant kernel (h =
    N//2+1) holds it at entry k, sign-flipped where the row is odd in
    that axis; a half-mesh one (h = N) holds it in place, and the
    negative-frequency slices below are empty.  Each row meets the four
    x/y reflections of pair through strided views, with no folded copy.
    """
    halves = []
    for n, h in zip(pair.shape[:2], kernel.shape[1:3]):
        # (kernel index, pair index, negative frequencies?)
        halves.append(((slice(0, h), slice(0, h), False),
                       (slice(1, n - h + 1), slice(n - 1, h - 1, -1), True)))
    sums = np.zeros(len(_COMPONENTS))
    for c, (a, b) in enumerate(_COMPONENTS):
        odd = _odd_axes(a, b)
        for (k0, p0, neg0), (k1, p1, neg1) in itertools.product(*halves):
            flips = (neg0 and 0 in odd) + (neg1 and 1 in odd)
            term = np.einsum("ijk,ijk->", kernel[c, k0, k1], pair[p0, p1])
            sums[c] += -term if flips % 2 else term
    return sums


def _half_spectrum(slabs, dims, shape, out: np.ndarray | None = None) -> np.ndarray:
    """rfftn(x, s=shape) in out, one (N0, N1, N2//2+1) complex buffer (new if None).

    x comes as its dims[0] axis-0 slabs of dims[1] rows, each rfft'd along
    the last axis straight into out; the axis-1 pass then runs in place on
    those dims[0] rows and the axis-0 pass on all: the 1-D transforms
    rfftn runs, on the same zero padding, so the spectrum is bitwise
    rfftn's.  Entries the slabs do not write are zeroed first, as out
    may hold an earlier spectrum.
    """
    if out is None:
        out = np.empty((*shape[:-1], shape[-1] // 2 + 1), dtype=complex)
    n0, n1 = dims[:2]
    out[n0:] = 0
    out[:n0, n1:] = 0
    for i, slab in enumerate(slabs):
        np.fft.rfft(slab, n=shape[-1], axis=-1, out=out[i, :n1])
    np.fft.fft(out[:n0], axis=1, out=out[:n0])
    np.fft.fft(out, axis=0, out=out)
    return out


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

    # past the float range (a grid scaled by 1e60, say) the pair phase
    # overflows to inf and NaN silently; ZfsTensor then refuses the tensor
    with np.errstate(over="ignore", invalid="ignore"):
        # the whole pair phase runs in two half spectra: f_i's buffer takes
        # the products and then f_g, and pair overwrites the first half of
        # f_j's once f_j is spent, so no other mesh-sized array forms
        f_i = _half_spectrum((p * p for p in psi_i), phi_i.dims, shape)
        f_j = _half_spectrum((p * p for p in psi_j), phi_i.dims, shape)
        # Re(conj(f_i) f_j); pair must be C-contiguous, as a strided .real
        # view would change the order of the einsum sums below
        pair = f_j.reshape(-1).view(float)[:f_j.size].reshape(f_j.shape)
        np.add(np.multiply(f_i.real, f_j.real, out=f_i.real),
               np.multiply(f_i.imag, f_j.imag, out=f_i.imag), out=pair)
        f_g = _half_spectrum((p * q for p, q in zip(psi_i, psi_j)), phi_i.dims, shape, f_i)
        # the exchange term whole before it is subtracted, formed like the
        # direct one, so that a pair of identical orbitals cancels exactly
        exchange = np.multiply(f_g.real, f_g.real, out=f_g.real)
        exchange += np.multiply(f_g.imag, f_g.imag, out=f_g.imag)
        pair -= exchange
        dv = phi_i.voxel_volume
        scale = 0.5 * DIPOLAR_PREFACTOR_MHZ_A3 * dv * dv
        comps = scale * _pair_sums(kernel, pair)
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

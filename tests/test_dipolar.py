"""Dipolar fine-structure tensor tests.

Physical oracle: two well-separated tight orbitals must reproduce the
analytic point-dipole tensor.  Algebraic oracles: the library's
convolution and the direct sum in dipolar_oracle evaluate the same
lattice sums, and a pair built from one orbital twice has identical
direct and exchange terms, so the tensor cancels exactly.
"""

import tracemalloc

import numpy as np
import pytest

from odmrsense import (
    DIPOLAR_PREFACTOR_MHZ_A3,
    GridMismatchError,
    InvalidParameterError,
    OrbitalGrid,
    ZfsParameters,
    ZfsTensor,
    compare_phases,
    delta_d_estimate,
    gaussian_orbital,
    make_grid,
    ordered_eigensystem,
    parameters_to_tensor,
    point_dipole_tensor,
    zfs_pair_tensor,
)

from odmrsense.dipolar import (_COMPONENTS, _density_spectrum, _fast_len, _kernel_table,
                               _kernel_transforms, _padded_shape)

from dipolar_oracle import COMPONENTS, direct_pair_tensor, kernel_tables, rfftn_pair_tensor


def tight_pair(dims=24, length=18.0, width=0.75, offset=5.0):
    n = (dims, dims, dims)
    origin, axes = make_grid(n, (length, length, length))
    a = gaussian_orbital(origin, axes, n, (0.0, 0.0, +offset), (width,) * 3)
    b = gaussian_orbital(origin, axes, n, (0.0, 0.0, -offset), (width,) * 3)
    return a, b


def padded_mesh_pair(mesh):
    """Two off-axis orbitals on a non-cubic mesh with odd and even padding.

    orthogonal: (13, 8, 10) pads to (25, 15, 20); skewed: (9, 8, 7) on
    oblique axes pads to (18, 15, 14).
    """
    if mesh == "orthogonal":
        dims = (13, 8, 10)
        origin, axes = make_grid(dims, (13.0, 8.0, 10.0))
        center = np.array([2.0, 0.5, 1.5])
    else:
        dims = (9, 8, 7)
        axes = np.array([[0.9, 0.0, 0.0], [0.25, 1.0, 0.0], [0.1, -0.15, 0.8]])
        origin = -0.5 * (np.array(dims) - 1) @ axes
        center = np.array([1.0, 0.5, 1.0])
    a = gaussian_orbital(origin, axes, dims, center, (1.0,) * 3)
    b = gaussian_orbital(origin, axes, dims, -center, (1.0,) * 3)
    return a, b


def lattice_pair(dims, skewed=False, shift=0.0):
    """A Gaussian and a one-node orbital, off-centre, on a 0.9/1.0/0.8 A lattice.

    skewed shears the lattice so that the half-mesh kernel route is taken;
    shift moves both centres along x.
    """
    axes = np.diag([0.9, 1.0, 0.8])
    if skewed:
        axes[1, 0], axes[2, 0], axes[2, 1] = 0.25, 0.1, -0.15
    origin = -0.5 * (np.array(dims) - 1) @ axes
    center = np.array([0.7, 0.4, 0.9])
    a = gaussian_orbital(origin, axes, dims, center + (shift, 0, 0), (1.0, 0.8, 1.2))
    b = gaussian_orbital(origin, axes, dims, -center + (shift, 0, 0), (0.9, 1.1, 0.7),
                         node_axis=0)
    return a, b


def criterion_9_pair(shift):
    """HOMO and LUMO of one phase of the criterion-9 CLI run, (20, 16, 12) samples."""
    dims = (20, 16, 12)
    origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
    homo = gaussian_orbital(origin, axes, dims, (shift, 0, 0), (1.5, 0.8, 0.5))
    lumo = gaussian_orbital(origin, axes, dims, (shift, 0, 0), (1.5, 0.8, 0.5), node_axis=0)
    return homo, lumo


class TestPointDipoleTensor:
    def test_axial_eigenvalues(self):
        t = point_dipole_tensor((0.0, 0.0, 10.0))
        c = DIPOLAR_PREFACTOR_MHZ_A3
        want = np.diag([0.5 * c / 1e3, 0.5 * c / 1e3, -c / 1e3])
        assert np.allclose(t.tensor, want, rtol=1e-14)

    def test_rotation_covariance(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        r = np.array([0.0, 0.0, 8.0])
        rotated = point_dipole_tensor(q @ r)
        base = point_dipole_tensor(r)
        assert np.allclose(rotated.tensor, q @ base.tensor @ q.T, atol=1e-10)

    def test_zero_separation(self):
        with pytest.raises(InvalidParameterError):
            point_dipole_tensor((0.0, 0.0, 0.0))


def test_fast_len_matches_scipy():
    # SciPy only as the oracle: padded lengths are next_fast_len's
    # 11-smooth (2, 3, 5, 7, 11) numbers; n >= 1 as 2 * dim - 1 always is
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 3000)] == [next_fast_len(n)
                                                      for n in range(1, 3000)]


class TestPairTensor:
    def test_point_dipole_limit(self):
        a, b = tight_pair()
        got = zfs_pair_tensor(a, b).tensor
        want = point_dipole_tensor((0.0, 0.0, 10.0)).tensor
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) / scale < 1e-3

    def test_symmetric_and_traceless(self):
        a, b = tight_pair(dims=16)
        t = zfs_pair_tensor(a, b).tensor
        assert np.array_equal(t, t.T)
        assert abs(np.trace(t)) <= 1e-12 * np.max(np.abs(t))

    def test_direct_route_agrees_with_convolution(self):
        a, b = tight_pair(dims=12, length=12.0, width=1.0, offset=3.0)
        conv = zfs_pair_tensor(a, b).tensor
        direct = direct_pair_tensor(a, b).tensor
        norm = np.linalg.norm(conv)
        assert np.linalg.norm(conv - direct) / norm < 1e-9

    @pytest.mark.parametrize("mesh", ["orthogonal", "skewed"])
    def test_direct_route_agrees_on_padded_mesh(self, mesh):
        a, b = padded_mesh_pair(mesh)
        conv = zfs_pair_tensor(a, b).tensor
        direct = direct_pair_tensor(a, b).tensor
        norm = np.linalg.norm(conv)
        assert np.linalg.norm(conv - direct) / norm < 1e-9

    @pytest.mark.parametrize("mesh", ["orthogonal", "skewed"])
    def test_kernel_tables_match_oracle_bitwise(self, mesh):
        a, _ = padded_mesh_pair(mesh)
        shape = _padded_shape(a.dims)
        cutoff = float(np.min(np.linalg.norm(a.axes, axis=1)))
        # the library reuses one buffer, so each table is copied as it comes
        got = [table.copy() for table in _kernel_table(shape, a.axes, cutoff)]
        want = dict(zip(COMPONENTS, kernel_tables(shape, a.axes, cutoff)))
        assert len(got) == len(_COMPONENTS)
        for table, comp in zip(got, _COMPONENTS):
            assert np.array_equal(table, want[comp])
        # the octant tables of orthogonal lattices are the leading corner;
        # the orthogonal mesh, (25, 15, 20), has odd and even lengths
        corner = tuple(slice(n // 2 + 1) for n in shape)
        for table, comp in zip(_kernel_table(shape, a.axes, cutoff, True), _COMPONENTS):
            assert np.array_equal(table, want[comp][corner])

    def test_rotated_lattice_agrees_with_octant_route(self):
        # rotating an orthogonal lattice sends it down the general route;
        # a cutoff between the 1 and sqrt(2) A shells keeps rounding in the
        # rotated steps from moving a voxel across it
        a, b = padded_mesh_pair("orthogonal")
        rot, _ = np.linalg.qr(np.random.default_rng(31).normal(size=(3, 3)))
        turned = [OrbitalGrid(rot @ g.origin, g.axes @ rot.T, g.values) for g in (a, b)]
        want = rot @ zfs_pair_tensor(a, b, 1.2).tensor @ rot.T
        assert _kernel_transforms(a.dims, tuple(map(tuple, a.axes)), 1.2).ndim == 4
        got = zfs_pair_tensor(*turned, 1.2).tensor
        assert _kernel_transforms(a.dims, tuple(map(tuple, turned[0].axes)), 1.2).ndim == 2
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("mesh", ["orthogonal", "skewed"])
    def test_working_set_per_padded_mesh_point(self, mesh):
        # tracemalloc counts numpy's buffers alike on every platform, unlike
        # RSS; measured at 48^3: cold 23.8 (orthogonal, octant kernel) and
        # 45.2 (skewed), warm 18.4 bytes per padded point (the two half
        # spectra of the pair phase are 16)
        a, b = tight_pair(dims=48)
        if mesh == "skewed":
            shear = np.array([[1.0, 0.0, 0.0], [0.2, 1.0, 0.0], [0.1, 0.1, 1.0]])
            a, b = (OrbitalGrid(g.origin, g.axes @ shear.T, g.values) for g in (a, b))
        points = np.prod(_padded_shape(a.dims))

        def peak_bytes():
            tracemalloc.start()
            try:
                zfs_pair_tensor(a, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _kernel_transforms.cache_clear()
        cold = peak_bytes() / points  # builds the kernel
        assert cold <= (36 if mesh == "orthogonal" else 56)
        if mesh == "orthogonal":
            assert cold <= 26
        warm = peak_bytes() / points  # reuses it
        assert warm <= 32
        assert warm <= 20

    @pytest.mark.parametrize("pair", [
        # orthogonal lattices, padded to (25, 15, 20), 48^3 and (7, 9, 11)
        *[pytest.param(lambda d=d: lattice_pair(d), id=f"orthogonal-{d}")
          for d in [(13, 8, 10), (24, 24, 24), (4, 5, 6)]],
        *[pytest.param(lambda d=d: lattice_pair(d, skewed=True), id=f"skewed-{d}")
          for d in [(24, 20, 16), (33, 31, 17)]],
        # single-sample and single-padded-point axes
        *[pytest.param(lambda d=d: lattice_pair(d), id=f"degenerate-{d}")
          for d in [(1, 5, 7), (2, 1, 3), (5, 4, 1), (1, 1, 2), (3, 3, 3)]],
        *[pytest.param(lambda x=x: criterion_9_pair(x), id=f"criterion-9-{x}")
          for x in (0.0, 0.04)],
    ])
    def test_pair_phase_matches_rfftn_bitwise(self, pair):
        # the in-place half spectra are the 1-D transforms rfftn runs, on
        # the same zero padding, so nothing may move, not even by rounding
        a, b = pair()
        assert np.array_equal(zfs_pair_tensor(a, b).tensor, rfftn_pair_tensor(a, b).tensor)
        assert np.all(zfs_pair_tensor(b, b).tensor == 0.0)

    @pytest.mark.parametrize("skewed", [False, True])
    def test_back_to_back_pairs_match_rfftn_bitwise(self, skewed):
        # a second pair on the same mesh reuses the kernel and must not see
        # anything of the first
        first, second = (lattice_pair((9, 8, 7), skewed, shift) for shift in (0.0, 0.3))
        got = [zfs_pair_tensor(*p).tensor for p in (first, second, first)]
        want = [rfftn_pair_tensor(*p).tensor for p in (first, second, first)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert not np.array_equal(got[0], got[1])

    def test_density_spectrum_skips_padding_rows(self, monkeypatch):
        # rows n0: along axis 0 stay zero until the last pass, so the axis-1
        # pass transforms only the n0 rows that hold data; transforming all
        # N0 would give the same spectrum at twice the work
        a, _ = lattice_pair((13, 8, 10))
        n0 = a.dims[0]
        shape = _padded_shape(a.dims)
        half = shape[-1] // 2 + 1
        out = np.empty((*shape[:-1], half), dtype=complex)
        fft, passes = np.fft.fft, []

        def counting_fft(x, n=None, axis=-1, norm=None, out=None):
            passes.append((x.shape[axis], x.size // x.shape[axis]))
            return fft(x, n, axis, norm, out)

        monkeypatch.setattr(np.fft, "fft", counting_fft)
        got = _density_spectrum(a.values, a.values, shape, out)
        # (transform length, number of 1-D transforms) per pass
        assert passes == [(shape[1], n0 * half), (shape[0], shape[1] * half)]
        assert np.array_equal(got, np.fft.rfftn(a.values ** 2, s=shape, axes=(0, 1, 2)))

    def test_normalization_invariance(self):
        a, b = tight_pair(dims=12, length=12.0, width=1.0, offset=3.0)
        a7 = OrbitalGrid(a.origin, a.axes, 7.0 * a.values)
        ref = zfs_pair_tensor(a, b).tensor
        got = zfs_pair_tensor(a7, b).tensor
        assert np.allclose(got, ref, rtol=1e-12)

    def test_identical_orbitals_cancel_exactly(self):
        a, _ = tight_pair(dims=12, length=12.0, width=1.0, offset=0.0)
        t = zfs_pair_tensor(a, a).tensor
        # direct and exchange sums are bitwise identical here
        assert np.all(t == 0.0)

    def test_grid_mismatch(self):
        a, _ = tight_pair(dims=12, length=12.0)
        b, _ = tight_pair(dims=16, length=12.0)
        with pytest.raises(GridMismatchError):
            zfs_pair_tensor(a, b)

    def test_cutoff_below_step(self):
        a, b = tight_pair(dims=12, length=12.0)
        with pytest.raises(InvalidParameterError):
            zfs_pair_tensor(a, b, cutoff_angstrom=0.1)


class TestPhaseComparison:
    def test_diagonal_tensors(self):
        t_a = parameters_to_tensor(ZfsParameters(1392.0, 53.0))
        t_b = parameters_to_tensor(ZfsParameters(1392.0, 56.0))
        comp = compare_phases(t_a, t_b)
        # pure E change moves the transverse eigenvalues by +-Delta E
        assert comp.delta_mhz == pytest.approx((3.0, -3.0, 0.0), abs=1e-9)
        assert comp.dominant_axis == "x"
        assert comp.max_abs_delta == pytest.approx(3.0, abs=1e-9)
        assert comp.params_b.E == pytest.approx(56.0, abs=1e-9)

    def test_eigenvalue_order_matches_ordered_eigensystem(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(3, 3))
        m = m + m.T
        m -= np.eye(3) * np.trace(m) / 3.0
        t = ZfsTensor(m)
        comp = compare_phases(t, t)
        eig, _ = ordered_eigensystem(t)
        assert np.allclose(comp.eigenvalues_a, eig)
        assert np.allclose(comp.delta_mhz, 0.0)


class TestDeltaDEstimate:
    def test_closed_form(self):
        c = DIPOLAR_PREFACTOR_MHZ_A3
        want = 0.5 * c * (4.0 * 0.01) / 3.7 ** 4
        assert delta_d_estimate(4.0, 3.7) == pytest.approx(want, rel=1e-14)
        assert delta_d_estimate(4.0, 3.7) == pytest.approx(
            5.553526723993924, rel=1e-12)

    def test_linear_and_odd_in_displacement(self):
        assert delta_d_estimate(8.0, 3.7) == pytest.approx(
            2.0 * delta_d_estimate(4.0, 3.7), rel=1e-14)
        # contraction flips the sign of the linearized shift
        assert delta_d_estimate(-4.0, 3.7) == -delta_d_estimate(4.0, 3.7)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            delta_d_estimate(4.0, 0.0)
        with pytest.raises(InvalidParameterError):
            delta_d_estimate(float("nan"), 3.7)

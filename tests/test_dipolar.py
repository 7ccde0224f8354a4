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

from odmrsense.dipolar import (_COMPONENTS, _fast_len, _kernel_table, _kernel_transforms,
                               _padded_shape)

from dipolar_oracle import COMPONENTS, direct_pair_tensor, kernel_tables


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
        # RSS; measured at 48^3: cold 28.9 (orthogonal, octant kernel) and
        # 45.3 (skewed), warm 23.4 bytes per padded point
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
        assert peak_bytes() / points <= 32  # warm: reuses it

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

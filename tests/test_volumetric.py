"""Orbital grid construction, Gaussian builders and cube file I/O tests.

Moment oracles: for amplitude exp(-x^2 / 2w^2) the density is a Gaussian
with standard deviation w/sqrt(2); multiplying the amplitude by x gives a
density x^2 exp(-x^2/w^2) whose standard deviation is sqrt(3/2) * w.
"""

import re
import tracemalloc

import numpy as np
import pytest

from odmrsense import (
    BOHR_RADIUS_ANGSTROM,
    CubeParseError,
    GridMismatchError,
    InvalidParameterError,
    OrbitalGrid,
    assert_commensurate,
    gaussian_orbital,
    homo_lumo_shift,
    load_cube,
    make_grid,
    orbital_stats,
    save_cube,
    zfs_pair_tensor,
)
from odmrsense.constants import MAX_MAGNITUDE


def default_orbital(center=(0.0, 0.0, 0.0), widths=(3.0, 1.2, 0.5),
                    node_axis=None, dims=(48, 32, 24)):
    origin, axes = make_grid(dims, (24.0, 12.0, 8.0))
    return gaussian_orbital(origin, axes, dims, center, widths, node_axis)


class TestGridGeometry:
    def test_make_grid_centered(self):
        origin, axes = make_grid((10, 10, 10), (5.0, 5.0, 5.0))
        # cell-centered: first voxel at -L/2 + step/2
        assert np.allclose(origin, -2.5 + 0.25)
        assert np.allclose(axes, np.diag([0.5, 0.5, 0.5]))

    def test_positions_span(self):
        orb = default_orbital(dims=(8, 8, 8))
        pos = orb.positions()
        assert pos.shape == (8, 8, 8, 3)
        # symmetric about the requested center
        assert np.allclose(pos.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)

    def test_voxel_volume(self):
        origin, axes = make_grid((10, 20, 40), (10.0, 10.0, 10.0))
        grid = OrbitalGrid(origin, axes, np.ones((10, 20, 40)))
        assert grid.voxel_volume == pytest.approx(1.0 * 0.5 * 0.25)

    def test_shape_validation(self):
        origin, axes = make_grid((4, 4, 4), (1.0, 1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            OrbitalGrid(origin, axes, np.ones((4, 4)))

    def test_commensurate_mismatch(self):
        a = default_orbital(dims=(8, 8, 8))
        b = default_orbital(dims=(8, 8, 10))
        with pytest.raises(GridMismatchError):
            assert_commensurate(a, b)

    def test_commensurate_origin_shift(self):
        a = default_orbital(dims=(8, 8, 8))
        b = OrbitalGrid(a.origin + 0.5, a.axes, a.values)
        with pytest.raises(GridMismatchError):
            assert_commensurate(a, b)


class TestGaussianOrbital:
    def test_normalized(self):
        orb = default_orbital()
        assert orb.norm_squared() == pytest.approx(1.0, rel=1e-12)

    def test_centroid_and_spread(self):
        orb = default_orbital(center=(1.0, -0.5, 0.25))
        stats = orbital_stats(orb)
        assert np.allclose(stats.centroid, (1.0, -0.5, 0.25), atol=1e-9)
        # 1e-5 headroom for second-moment truncation at the box edge
        assert np.allclose(stats.spread,
                           np.array([3.0, 1.2, 0.5]) / np.sqrt(2.0), rtol=1e-5)

    def test_node_axis_spread(self):
        orb = default_orbital(node_axis=0)
        stats = orbital_stats(orb)
        # node along x inflates only the x spread
        assert stats.spread[0] == pytest.approx(np.sqrt(1.5) * 3.0, rel=1e-5)
        assert stats.spread[1] == pytest.approx(1.2 / np.sqrt(2.0), rel=1e-5)
        assert np.allclose(stats.centroid, 0.0, atol=1e-9)

    def test_node_axis_odd_symmetry(self):
        orb = default_orbital(node_axis=2, dims=(16, 16, 16))
        assert np.allclose(orb.values, -orb.values[:, :, ::-1], atol=1e-15)

    def test_bad_node_axis(self):
        with pytest.raises(InvalidParameterError):
            default_orbital(node_axis=3)

    def test_bad_widths(self):
        with pytest.raises(InvalidParameterError):
            default_orbital(widths=(1.0, 0.0, 1.0))


    def test_moments_match_position_formula_on_skewed_lattice(self):
        axes = np.array([[0.45, 0.0, 0.0], [0.12, 0.5, 0.0], [0.05, -0.08, 0.4]])
        dims = (20, 16, 12)
        origin = np.array([0.3, -0.2, 0.1]) - 0.5 * (np.array(dims) - 1) @ axes
        orb = gaussian_orbital(origin, axes, dims, (0.4, -0.3, 0.2), (1.6, 1.1, 0.9),
                               node_axis=1)
        stats = orbital_stats(orb)
        # the moments over every sample position, as positions() lays them out
        density = orb.values ** 2 * orb.voxel_volume
        pos = orb.positions()
        centroid = np.tensordot(density, pos, axes=3) / density.sum()
        second = np.tensordot(density, (pos - centroid) ** 2, axes=3) / density.sum()
        assert np.allclose(stats.centroid, centroid, rtol=1e-12, atol=0)
        assert np.allclose(stats.spread, np.sqrt(second), rtol=1e-12, atol=0)


class TestExtremeMagnitude:
    @pytest.mark.filterwarnings("error")  # no overflow or underflow warning
    @pytest.mark.parametrize("value_exp", [100, -98], ids=["2^100", "2^-98"])
    def test_grid_at_the_range_edges_gives_unit_results(self, value_exp):
        """Values scaled to the edges of the declared range (the largest
        |value| of the unit-norm Gaussian, about 0.3, to near 2**100 or
        2**-100) give the unit grid's tensor and moments, and a norm of
        4**value_exp."""
        dims = (12, 10, 8)
        origin, axes = make_grid(dims, (10.0, 8.0, 6.0))
        homo = gaussian_orbital(origin, axes, dims, (0, 0, 0), (1.5, 0.8, 0.5))
        lumo = gaussian_orbital(origin, axes, dims, (0, 0, 0), (1.5, 0.8, 0.5), node_axis=0)
        scaled = OrbitalGrid(homo.origin, homo.axes, np.ldexp(homo.values, value_exp))
        unit = zfs_pair_tensor(homo, lumo).tensor
        tensor = zfs_pair_tensor(scaled, lumo).tensor
        assert np.abs(tensor - unit).max() <= 1e-12 * np.abs(unit).max()
        stats, unit_stats = orbital_stats(scaled), orbital_stats(homo)
        assert np.allclose(stats.centroid, unit_stats.centroid, rtol=0, atol=1e-12)
        assert np.allclose(stats.spread, unit_stats.spread, rtol=1e-12, atol=0)
        for norm in (stats.norm, scaled.norm_squared()):
            assert norm == pytest.approx(4.0 ** value_exp, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_grid_one_ulp_past_the_range_refused(self):
        origin, axes = make_grid((4, 4, 4), (4.0, 4.0, 4.0))
        values = np.ones((4, 4, 4))
        past = np.nextafter(MAX_MAGNITUDE, np.inf)
        short = np.nextafter(1.0 / MAX_MAGNITUDE, 0.0)
        OrbitalGrid([MAX_MAGNITUDE] * 3, np.eye(3) / MAX_MAGNITUDE, values * MAX_MAGNITUDE)
        OrbitalGrid(origin, np.eye(3) * MAX_MAGNITUDE, values / MAX_MAGNITUDE)
        OrbitalGrid(origin, axes, np.zeros((4, 4, 4)))
        for grid, message in (
                ((origin, axes, values * past), "values must be finite and at most 2**100"),
                ((origin, axes, values * np.nan), "values must be finite and at most 2**100"),
                ((origin, axes, values * short),
                 "a non-zero grid's largest value must be at least"),
                (([0.0, 0.0, -past], axes, values), "grid geometry must be finite and at most"),
                ((origin, np.eye(3) * past, values), "grid geometry must be finite and at most"),
                ((origin, np.diag([1.0, short, 1.0]), values), "grid steps must be at least"),
                ((origin, [[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0], [0.0, 0.0, 1e-300]], values),
                 "grid steps must be at least"),
                ((origin, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], values),
                 "axes are singular"),
                ((origin, np.ldexp([[1.0, 0.0, 0.0], [1.0, 2.0 ** -10, 0.0], [0.0, 0.0, 1.0]],
                                   -100), values), "axes are singular")):
            with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}"):
                OrbitalGrid(*grid)


class TestShiftMetric:
    def test_homo_lumo_shift_in_pm(self):
        homo = orbital_stats(default_orbital())
        lumo = orbital_stats(
            default_orbital(center=(0.04, 0.01, 0.005), node_axis=0))
        shift = homo_lumo_shift(homo, lumo)
        assert np.allclose(shift, (4.0, 1.0, 0.5), atol=0.01)


class TestCubeIO:
    def test_round_trip(self, tmp_path):
        orb = default_orbital(dims=(12, 10, 8))
        path = tmp_path / "orb.cube"
        save_cube(orb, path, comment="homo")
        back = load_cube(path)
        assert back.dims == orb.dims
        assert np.allclose(back.origin, orb.origin, atol=1e-10)
        assert np.allclose(back.axes, orb.axes, atol=1e-12)
        assert np.allclose(back.values, orb.values, rtol=1e-8, atol=1e-12)

    def test_handcrafted_bohr_cube(self, tmp_path):
        # 2x2x2 grid, volumetric values enumerate z fastest
        text = (
            "made by hand\n"
            "density block\n"
            "0 0.0 0.0 0.0\n"
            "2 1.0 0.0 0.0\n"
            "2 0.0 1.0 0.0\n"
            "2 0.0 0.0 1.0\n"
            "0 1 2 3 4 5 6\n"
            "7\n"
        )
        path = tmp_path / "tiny.cube"
        path.write_text(text)
        grid = load_cube(path)
        assert grid.dims == (2, 2, 2)
        # natoms >= 0 means Bohr coordinates, converted on load
        assert np.allclose(np.diag(grid.axes), BOHR_RADIUS_ANGSTROM)
        assert grid.values[0, 0, 1] == 1.0
        assert grid.values[0, 1, 0] == 2.0
        assert grid.values[1, 0, 0] == 4.0
        assert grid.values[1, 1, 1] == 7.0

    def test_negative_natoms_angstrom(self, tmp_path):
        text = (
            "c1\nc2\n"
            "-1 0.25 0.0 0.0\n"
            "2 0.5 0.0 0.0\n"
            "2 0.0 0.5 0.0\n"
            "2 0.0 0.0 0.5\n"
            "6 6.0 0.0 0.0 0.0\n"
            "1 2 3 4 5 6 7 8\n"
        )
        path = tmp_path / "ang.cube"
        path.write_text(text)
        grid = load_cube(path)
        # negative natoms marks coordinates already in angstrom
        assert np.allclose(grid.origin, (0.25, 0.0, 0.0))
        assert np.allclose(np.diag(grid.axes), 0.5)
        assert grid.values[1, 1, 1] == 8.0

    def test_nonpositive_axis_count(self, tmp_path):
        path = tmp_path / "bad.cube"
        path.write_text("a\nb\n0 0 0 0\n0 1.0 0.0 0.0\n2 0 1 0\n2 0 0 1\n1\n")
        with pytest.raises(CubeParseError, match=r"bad\.cube:4"):
            load_cube(path)

    def test_oversize_header_refused_before_body(self, tmp_path):
        path = tmp_path / "huge.cube"
        # a 16 MB body behind a 1000^3 header: the dims alone refuse it,
        # and the body is never read into memory
        path.write_text("a\nb\n0 0 0 0\n1000 1 0 0\n1000 0 1 0\n1000 0 0 1\n"
                        + "1.0 2.0 3.0 4.0 5.0 6.0\n" * 700_000)
        tracemalloc.start()
        try:
            with pytest.raises(CubeParseError,
                               match=r"huge\.cube: cube of 1000 x 1000 x 1000 samples exceeds"):
                load_cube(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_parse_peak_is_one_body_and_the_values(self, tmp_path, n):
        # the body is held once and parsed a bounded window at a time: no
        # temporary grows with the cube
        dims = (n, n, n)
        origin, axes = make_grid(dims, (18.0, 18.0, 18.0))
        path = save_cube(gaussian_orbital(origin, axes, dims, (0, 0, 5), 0.75),
                         tmp_path / "g.cube")
        tracemalloc.start()
        try:
            load_cube(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + 8 * n ** 3 + (4 << 20)

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c"], ids=["vt", "ff", "fs"])
    def test_line_breaks_are_those_of_splitlines(self, tmp_path, brk):
        # a header line broken by a character str.splitlines() breaks at:
        # the body starts after it, its line numbers count it
        path = tmp_path / "brk.cube"
        path.write_text(f"a\nb\n1 0 0 0\n2 1 0 0\n2 0 1 0\n2 0 0 1\n"
                        f"1 1.0 0 0 0{brk}1 2 3 4{brk}5 6 7 8\n")
        assert load_cube(path).values.ravel().tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
        path.write_text(f"a\nb\n1 0 0 0\n2 1 0 0\n2 0 1 0\n2 0 0 1\n"
                        f"1 1.0 0 0 0{brk}1 2 3 4{brk}5 6 x 8\n")
        with pytest.raises(CubeParseError, match=r"brk\.cube:9: bad number 'x'"):
            load_cube(path)

    def test_too_few_values(self, tmp_path):
        path = tmp_path / "short.cube"
        path.write_text("a\nb\n0 0 0 0\n2 1 0 0\n2 0 1 0\n2 0 0 1\n1 2 3\n")
        with pytest.raises(CubeParseError, match="expected 8"):
            load_cube(path)

    def test_too_many_values(self, tmp_path):
        path = tmp_path / "long.cube"
        path.write_text("a\nb\n0 0 0 0\n2 1 0 0\n2 0 1 0\n2 0 0 1\n"
                        "1 2 3 4 5 6 7 8 9\n")
        with pytest.raises(CubeParseError, match="too many"):
            load_cube(path)

    def test_garbled_number_reports_line(self, tmp_path):
        path = tmp_path / "junk.cube"
        path.write_text("a\nb\n0 0 0 zap\n2 1 0 0\n2 0 1 0\n2 0 0 1\n1\n")
        with pytest.raises(CubeParseError, match=r"junk\.cube:3"):
            load_cube(path)

    @pytest.mark.parametrize("lineno, line", [(3, "0 nan 0 0"), (7, "1 1.0 0 inf 0"),
                                              (8, "5 6 nan 8")],
                             ids=["origin", "atom-record", "value"])
    def test_nonfinite_number_names_line(self, tmp_path, lineno, line):
        lines = ["a", "b", "1 0 0 0", "2 1 0 0", "2 0 1 0", "2 0 0 1",
                 "1 1.0 0 0 0", "1 2 3 4", "5 6 7 8"]
        lines[lineno - 1] = line
        path = tmp_path / "nan.cube"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CubeParseError, match=rf"nan\.cube:{lineno}: non-finite number"):
            load_cube(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.cube"
        path.write_text("a\nb\n0 0 0 0\n")
        with pytest.raises(CubeParseError):
            load_cube(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CubeParseError):
            load_cube(tmp_path / "nope.cube")

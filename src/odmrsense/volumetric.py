"""Volumetric orbital data: grids, cube-file I/O, and moment statistics.

An OrbitalGrid carries a real amplitude phi sampled on a regular (not
necessarily orthogonal) lattice; densities, norms and moments integrate
phi^2 with the parallelepiped voxel volume.

Cube files follow the plain-text layout: two comment lines, an atom
count plus grid origin, three axis records (count then step vector),
the atom list, then values with z fastest.  The sign of the atom count
declares the length unit of the header: positive (or zero) means bohr,
negative means the geometry is already in angstrom.  Parse failures
report the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ._numpy import np
from .constants import AT_LEAST, AT_MOST, BOHR_RADIUS_ANGSTROM, MAX_MAGNITUDE
from .errors import CubeParseError, GridMismatchError, InvalidParameterError
from .textio import number_block, numbers, open_input, read_bytes, write_lines

# Largest cube load_cube reads.  zfs pads an n-sample cube to an FFT mesh
# of about 8n points.  A fresh one-phase run peaks above its bare 30 MB
# by 41-43 bytes per mesh point on a skewed lattice and by 26-28 on a
# lattice with diagonal axes (48^3-96^3 on x86-64 Linux): the peak is the
# pair phase's two half spectra beside the kernel, which spans the rfft
# half mesh at 20 bytes per point on a skewed lattice and one octant at
# about 5 on a diagonal one.  The cap follows the skewed figure, about
# 330 bytes per sample: a cube at the limit (200^3, a 400^3 mesh) peaks
# near 2.6 GB, or 1.7 GB with diagonal axes.
# Larger cubes are refused from the header, before any of the body is read.
MAX_CUBE_SAMPLES = 200 ** 3
MAX_LINE_BYTES = 1 << 20  # the longest header or atom line, read one at a time


@dataclass(frozen=True)
class OrbitalGrid:
    """Scalar amplitude on a regular lattice.

    origin is the position of values[0, 0, 0] in angstrom; axes rows are
    the three step vectors, so the sample at index (i, j, k) sits at
    origin + i axes[0] + j axes[1] + k axes[2].  In the declared range
    (constants.MAX_MAGNITUDE), every entry is at most 2**100 in magnitude,
    every step at least 2**-100 long, the voxel at least 2**-300 and a
    non-zero grid's largest |value| at least 2**-100, so no square, moment
    or pair phase formed from it leaves the normal float range.
    """

    origin: np.ndarray
    axes: np.ndarray
    values: np.ndarray

    def __init__(self, origin, axes, values):
        org = np.asarray(origin, dtype=float)
        axs = np.asarray(axes, dtype=float)
        val = np.asarray(values, dtype=float)
        if org.shape != (3,) or axs.shape != (3, 3):
            raise InvalidParameterError("origin must be (3,) and axes (3, 3)")
        # each comparison refuses NaN and inf too
        if not max(np.abs(org).max(), np.abs(axs).max()) <= MAX_MAGNITUDE:
            raise InvalidParameterError(f"grid geometry must be finite and {AT_MOST}")
        if not np.linalg.norm(axs, axis=1).min() >= 1.0 / MAX_MAGNITUDE:
            raise InvalidParameterError(f"grid steps must be {AT_LEAST}")
        if abs(np.linalg.det(axs)) < MAX_MAGNITUDE ** -3:
            raise InvalidParameterError(
                f"axes are singular: the voxel volume must be at least {MAX_MAGNITUDE ** -3:.3g}")
        if val.ndim != 3 or min(val.shape) < 1:
            raise InvalidParameterError("values must be a non-empty 3-D array")
        big = max(val.max(), -val.min())  # no grid-sized temporary
        if not big <= MAX_MAGNITUDE:
            raise InvalidParameterError(f"values must be finite and {AT_MOST}")
        if 0.0 < big < 1.0 / MAX_MAGNITUDE:
            raise InvalidParameterError(f"a non-zero grid's largest value must be {AT_LEAST}")
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "axes", axs)
        object.__setattr__(self, "values", val)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def voxel_volume(self) -> float:
        return float(abs(np.linalg.det(self.axes)))

    def positions(self) -> np.ndarray:
        """Sample coordinates, shape dims + (3,)."""
        nx, ny, nz = self.dims
        i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                              indexing="ij")
        idx = np.stack([i, j, k], axis=-1).astype(float)
        return self.origin + idx @ self.axes

    def norm_squared(self) -> float:
        """Integral of phi^2 over the box."""
        return float(np.sum(np.square(self.values)) * self.voxel_volume)

    def unit_values(self) -> np.ndarray:
        """values rescaled to unit norm, as an array: they may pass 2**100."""
        nsq = self.norm_squared()
        if nsq <= 0:
            raise InvalidParameterError("cannot normalize an all-zero orbital")
        return self.values / np.sqrt(nsq)

    def normalized(self) -> "OrbitalGrid":
        """Copy rescaled to unit norm (integral of phi^2 = 1)."""
        return OrbitalGrid(self.origin, self.axes, self.unit_values())


def assert_commensurate(a: OrbitalGrid, b: OrbitalGrid) -> None:
    """Raise GridMismatchError unless two grids share the same mesh."""
    if a.dims != b.dims:
        raise GridMismatchError(f"grid dims differ: {a.dims} vs {b.dims}")
    scale = max(np.abs(a.axes).max(), np.abs(b.axes).max(), 1e-300)
    if np.abs(a.axes - b.axes).max() > 1e-9 * scale:
        raise GridMismatchError("grid axes differ beyond 1e-9 relative")
    span = max(np.abs(a.origin).max(), np.abs(b.origin).max(), scale)
    if np.abs(a.origin - b.origin).max() > 1e-9 * span:
        raise GridMismatchError("grid origins differ beyond 1e-9 relative")


def make_grid(dims, lengths, center=(0.0, 0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned (origin, axes) covering a box of the given side lengths.

    Samples are cell centers: dims steps of length/dims, with the grid
    symmetric about center.  Returns the (origin, axes) pair to pass to
    OrbitalGrid alongside a values array.
    """
    dims = np.asarray(dims, dtype=int)
    lengths = np.asarray(lengths, dtype=float)
    center = np.asarray(center, dtype=float)
    if dims.shape != (3,) or np.any(dims < 1):
        raise InvalidParameterError("dims must be three positive integers")
    if lengths.shape != (3,) or np.any(lengths <= 0):
        raise InvalidParameterError("lengths must be three positive spans")
    step = lengths / dims
    origin = center - 0.5 * (dims - 1) * step
    return origin, np.diag(step)


def gaussian_orbital(
    origin,
    axes,
    dims,
    center,
    widths,
    node_axis: int | None = None,
) -> OrbitalGrid:
    """Unit-norm Gaussian amplitude, optionally with one nodal plane.

    The amplitude is exp(-sum_a (r_a - c_a)^2 / (2 w_a^2)); the matching
    density phi^2 is Gaussian with per-axis spread w_a / sqrt(2).  With
    node_axis set, the amplitude is multiplied by (r_a - c_a), producing
    the antisymmetric p-like lobe pair used as a LUMO stand-in.
    """
    center = np.asarray(center, dtype=float)
    widths = np.broadcast_to(np.asarray(widths, dtype=float), (3,))
    if np.any(widths <= 0):
        raise InvalidParameterError("widths must be positive")
    grid = OrbitalGrid(origin, axes, np.zeros(tuple(int(d) for d in dims)))
    pos = grid.positions()
    rel = pos - center
    amp = np.exp(-np.sum((rel / widths) ** 2, axis=-1) / 2.0)
    if node_axis is not None:
        if node_axis not in (0, 1, 2):
            raise InvalidParameterError("node_axis must be 0, 1 or 2")
        amp = amp * rel[..., node_axis]
    return OrbitalGrid(grid.origin, grid.axes, amp).normalized()


@dataclass(frozen=True)
class OrbitalStats:
    """Norm, density centroid (angstrom) and per-axis spread (angstrom)."""

    norm: float
    centroid: np.ndarray
    spread: np.ndarray


def orbital_stats(grid: OrbitalGrid) -> OrbitalStats:
    """First and second moments of the normalized density phi^2.

    Positions are affine in the sample index, so the moments come from
    the index moments of the density's 1-D and 2-D marginals: the
    centroid is origin + mean_index @ axes, and the second moments are
    the diagonal of axes^T C axes for the 3x3 index covariance C.  The
    grid's declared range keeps the largest density phi^2 times the voxel
    volume within about 2**±500, so norm, the integral of phi^2, and every
    moment are finite, and norm is non-zero for a non-zero grid.
    """
    density = np.square(grid.values)
    density *= grid.voxel_volume
    total = float(density.sum())
    if total <= 0:
        raise InvalidParameterError("orbital has zero norm; moments undefined")
    pairs = {(1, 2): density.sum(axis=0), (0, 2): density.sum(axis=1),
             (0, 1): density.sum(axis=2)}
    marginals = [pairs[0, 1].sum(axis=1), pairs[0, 1].sum(axis=0), pairs[0, 2].sum(axis=0)]
    mean = np.array([np.arange(m.size) @ m for m in marginals]) / total
    rel = [np.arange(m.size) - mu for m, mu in zip(marginals, mean)]
    cov = np.empty((3, 3))
    for a in range(3):
        cov[a, a] = (rel[a] * rel[a]) @ marginals[a] / total
    for (a, b), marginal in pairs.items():
        cov[a, b] = cov[b, a] = rel[a] @ marginal @ rel[b] / total
    second = np.einsum("ac,ab,bc->c", grid.axes, cov, grid.axes)
    return OrbitalStats(norm=total, centroid=grid.origin + mean @ grid.axes,
                        spread=np.sqrt(second))


def homo_lumo_shift(homo: OrbitalStats, lumo: OrbitalStats) -> np.ndarray:
    """Centroid displacement LUMO minus HOMO, in picometres per axis."""
    return (lumo.centroid - homo.centroid) * 100.0


def load_cube(path) -> OrbitalGrid:
    """Parse a cube file into an OrbitalGrid (geometry in angstrom).

    Read once, in bytes: the header and atom lines one at a time, each
    refused past MAX_LINE_BYTES, so a cube above MAX_CUBE_SAMPLES is refused
    before its body; a body is refused past 64 bytes a sample plus 1 MiB.
    """
    with open_input(path, CubeParseError) as stream:
        lines: list[str] = []  # the file's splitlines(), read as far as needed

        def record(lineno: int, expect: int):
            """The integer and the expect - 1 numbers that open a header line."""
            while len(lines) < lineno and (chunk := stream.readline(MAX_LINE_BYTES + 1)):
                if len(chunk) > MAX_LINE_BYTES:
                    raise CubeParseError(f"{path}:{len(lines) + 1}: more than "
                                         f"{MAX_LINE_BYTES:,} bytes, the limit for a header line")
                lines.extend(chunk.decode("utf-8").splitlines())
            if lineno > len(lines):
                raise CubeParseError(f"{path}:{lineno}: unexpected end of file")
            parts = lines[lineno - 1].split()
            if len(parts) < expect:
                raise CubeParseError(
                    f"{path}:{lineno}: expected at least {expect} fields, got {len(parts)}")
            try:
                count = int(parts[0])
            except ValueError:
                raise CubeParseError(f"{path}:{lineno}: bad integer {parts[0]!r}") from None
            return count, numbers(path, lineno, parts[1:expect], CubeParseError)

        natoms, origin = record(3, 4)
        dims = []
        axes = np.zeros((3, 3))
        for axis in range(3):
            count, axes[axis] = record(4 + axis, 4)
            if count <= 0:
                raise CubeParseError(
                    f"{path}:{4 + axis}: axis sample count must be positive, got {count}")
            dims.append(count)
        expected = dims[0] * dims[1] * dims[2]
        if expected > MAX_CUBE_SAMPLES:
            raise CubeParseError(
                f"{path}: cube of {dims[0]} x {dims[1]} x {dims[2]} samples exceeds "
                f"the limit of {MAX_CUBE_SAMPLES:,}")
        first_value_line = 7 + abs(natoms)
        for lineno in range(7, first_value_line):
            record(lineno, 5)
        body = read_bytes(path, CubeParseError, 64 * expected + (1 << 20), "this cube", stream)
        # a line read past the atom records (one line of the file that
        # splitlines() splits at a form feed, say) opens the body
        if head := "".join(line + "\n" for line in lines[first_value_line - 1:]):
            body = head.encode() + body

    values = number_block(path, first_value_line, body, CubeParseError)
    if values.size != expected:
        many = "too many" if values.size > expected else "too few"
        raise CubeParseError(f"{path}: {many} values: expected {expected}, got {values.size}")

    # a negative atom count declares the header already in angstrom
    scale = 1.0 if natoms < 0 else BOHR_RADIUS_ANGSTROM
    try:  # z varies fastest
        return OrbitalGrid(np.array(origin) * scale, axes * scale, values.reshape(dims))
    except InvalidParameterError as exc:
        raise CubeParseError(f"{path}: {exc}") from exc


def save_cube(grid: OrbitalGrid, path, comment: str = "orbital amplitude") -> Path:
    """Write a cube file (bohr header units, no atoms, z fastest)."""
    origin_b = grid.origin / BOHR_RADIUS_ANGSTROM
    axes_b = grid.axes / BOHR_RADIUS_ANGSTROM
    # no atoms: the origin record's count is 0, each axis record's its sample count
    out = [comment, "generated by odmrsense"] + [
        f"{count:5d} {vec[0]:17.9e} {vec[1]:17.9e} {vec[2]:17.9e}"
        for count, vec in zip((0, *grid.dims), (origin_b, *axes_b))]
    # six values a line; one %-format per line of Python floats is the fast path
    flat = grid.values.reshape(-1).tolist()
    rows = (flat[i:i + 6] for i in range(0, len(flat), 6))
    out += [" ".join(["%17.9e"] * len(row)) % tuple(row) for row in rows]
    return write_lines(path, out)

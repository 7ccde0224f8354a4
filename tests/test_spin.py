"""Spin-1 zero-field levels and fine-structure algebra tests.

The independent oracle used throughout: build the same triplet in the
|+1, 0, -1> basis from the textbook operator form
D (Sz^2 - 2/3) + E' (Sx^2 - Sy^2) and compare spectra.  Eigenvalues are
basis independent, so any disagreement is a bug in one of the two
constructions.  E' = -E in that form is the x<->y relabelling that
odmrsense.spin documents between the tensor and the sublevel energies.
"""

from dataclasses import astuple

import numpy as np
import pytest

from odmrsense import (
    InvalidParameterError,
    ZfsParameters,
    ZfsTensor,
    ordered_eigensystem,
    parameters_to_tensor,
    tensor_to_parameters,
    transitions_from_zfs,
    zfs_from_transitions,
)
from odmrsense.spin import _sublevel_energies


def spin1_operators():
    """Oracle's Cartesian spin-1 operators (Sx, Sy, Sz) in the |+1,0,-1> basis."""
    sqrt2 = np.sqrt(2.0)
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / sqrt2
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / sqrt2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return sx, sy, sz


def operator_form_energies(d, e):
    """Oracle: zero-field spin-1 triplet spectrum built in the |+1,0,-1> basis."""
    sx, sy, sz = spin1_operators()
    ham = d * (sz @ sz - 2.0 / 3.0 * np.eye(3)) + (-e) * (sx @ sx - sy @ sy)
    return np.linalg.eigvalsh(ham)


def random_parameters(rng, n):
    """(D, E) of either sign and ratio, magnitudes from 1 to 3000 MHz."""
    return rng.choice([-1.0, 1.0], (n, 2)) * rng.uniform(1.0, 3000.0, (n, 2))


class TestSpinOperators:
    """The oracle is only as good as its operators: check they are spin 1."""

    def test_su2_algebra(self):
        sx, sy, sz = spin1_operators()
        ops = {"x": sx, "y": sy, "z": sz}
        for a, b, c in (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y")):
            comm = ops[a] @ ops[b] - ops[b] @ ops[a]
            assert np.allclose(comm, 1j * ops[c], atol=1e-15)

    def test_casimir(self):
        sx, sy, sz = spin1_operators()
        total = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(total, 2.0 * np.eye(3), atol=1e-15)

    def test_hermitian_traceless(self):
        for op in spin1_operators():
            assert np.allclose(op, op.conj().T)
            assert abs(np.trace(op)) < 1e-15


class TestZeroField:
    def test_reference_transitions(self):
        t = transitions_from_zfs(ZfsParameters(1392.0, 53.0))
        assert t.f_xy == pytest.approx(106.0, rel=1e-12)
        assert t.f_yz == pytest.approx(1339.0, rel=1e-12)
        assert t.f_xz == pytest.approx(1445.0, rel=1e-12)

    def test_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.uniform(100.0, 3000.0)
            e = rng.uniform(0.0, d / 3.0)
            t = transitions_from_zfs(ZfsParameters(d, e))
            assert t.closure_residual <= 1e-9 * max(t.f_xz, 1.0)

    def test_axial_limit(self):
        t = transitions_from_zfs(ZfsParameters(1392.0, 0.0))
        assert t.f_xy == pytest.approx(0.0, abs=1e-9)
        assert t.f_xz == pytest.approx(t.f_yz, rel=1e-12)

    def test_zero_field_matrix_is_diagonal(self):
        tensor = parameters_to_tensor(ZfsParameters(1392.0, 53.0)).tensor
        off = tensor - np.diag(np.diag(tensor))
        assert np.abs(off).max() == 0.0
        # the sublevel energies are that diagonal, relabelled x<->y
        energies = _sublevel_energies(ZfsParameters(1392.0, 53.0))
        assert list(energies) == [-tensor[1, 1], -tensor[0, 0], -tensor[2, 2]]
        assert energies == pytest.approx([1392 / 3 + 53, 1392 / 3 - 53, -2 * 1392 / 3])


class TestBitwisePins:
    """The levels are closed-form sums, so exact inputs give exact lines."""

    def test_reference_lines_exact(self):
        t = transitions_from_zfs(ZfsParameters(1392.0, 53.0))
        assert (t.f_xy, t.f_yz, t.f_xz) == (106.0, 1339.0, 1445.0)

    def test_closure_exact_when_arithmetic_is(self):
        # D a multiple of 3 and E whole: D/3 and every sum are exact
        # doubles, so the three lines close without rounding
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = 3.0 * float(rng.integers(1, 1000))
            e = float(rng.integers(0, d // 3 + 1))
            t = transitions_from_zfs(ZfsParameters(d, e))
            assert t.closure_residual == 0.0


class TestConvention:
    def test_energies_match_operator_form(self):
        rng = np.random.default_rng(4)
        for d, e in random_parameters(rng, 500):
            energies = np.sort(_sublevel_energies(ZfsParameters(d, e)))
            oracle = operator_form_energies(d, e)
            assert energies == pytest.approx(oracle, rel=1e-12, abs=1e-9)

    def test_labelled_frequencies(self):
        rng = np.random.default_rng(5)
        for d, e in random_parameters(rng, 500):
            t = transitions_from_zfs(ZfsParameters(d, e))
            want = (abs(2.0 * e), abs(d - e), abs(d + e))
            assert (t.f_xy, t.f_yz, t.f_xz) == pytest.approx(want, rel=1e-12, abs=1e-9)


class TestTransitionInversion:
    def test_round_trip(self):
        params = zfs_from_transitions(1445.0, 1339.0)
        assert params.D == pytest.approx(1392.0)
        assert params.E == pytest.approx(53.0)

    def test_with_closure_line(self):
        params, residual = zfs_from_transitions(1445.0, 1339.0, 106.0)
        assert params.D == pytest.approx(1392.0)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_swapped_labels_rejected(self):
        with pytest.raises(InvalidParameterError):
            zfs_from_transitions(1339.0, 1445.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameterError):
            zfs_from_transitions(1445.0, 0.0)


class TestTensorAlgebra:
    def test_parameter_round_trip(self):
        params = ZfsParameters(1392.0, 53.0)
        recovered, axes = tensor_to_parameters(parameters_to_tensor(params))
        assert recovered.D == pytest.approx(params.D, rel=1e-12)
        assert recovered.E == pytest.approx(params.E, rel=1e-12)
        assert np.allclose(axes, np.eye(3))

    def test_canonical_range_on_random_tensors(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            lam = rng.normal(0.0, 800.0, size=3)
            lam -= lam.mean()
            # random rotation via QR
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.diag(r))
            tensor = ZfsTensor(q @ np.diag(lam) @ q.T)
            params, axes = tensor_to_parameters(tensor)
            assert params.D > 0
            assert -1e-9 * params.D <= params.E <= params.D / 3 + 1e-9 * params.D
            assert params.is_canonical
            # axes columns orthonormal
            assert np.allclose(axes.T @ axes, np.eye(3), atol=1e-9)

    def test_rotation_invariance(self):
        params = ZfsParameters(1000.0, 200.0)
        base = parameters_to_tensor(params)
        rng = np.random.default_rng(5)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        rotated = ZfsTensor(q @ base.tensor @ q.T)
        recovered, _ = tensor_to_parameters(rotated)
        assert recovered.D == pytest.approx(1000.0, rel=1e-9)
        assert recovered.E == pytest.approx(200.0, rel=1e-9)

    def test_ordered_eigensystem_deterministic_ties(self):
        tensor = ZfsTensor(np.diag([5.0, -5.0, 0.0]))
        eig, _ = ordered_eigensystem(tensor)
        assert eig[2] == 5.0 and eig[1] == -5.0 and eig[0] == 0.0

    def test_noncanonical_parameters_normalize(self):
        params = ZfsParameters(-1392.0, 53.0)
        assert not params.is_canonical
        canon = params.canonical()
        assert canon.D == pytest.approx(1392.0)
        # spectrum must be preserved
        a = transitions_from_zfs(params)
        b = transitions_from_zfs(canon)
        assert sorted(astuple(a)) == pytest.approx(sorted(astuple(b)))

    def test_tensor_validation(self):
        with pytest.raises(InvalidParameterError):
            ZfsTensor([[1, 2, 0], [0, 1, 0], [0, 0, -2]])  # not symmetric
        with pytest.raises(InvalidParameterError):
            ZfsTensor(np.diag([1.0, 1.0, 1.0]))  # not traceless

    def test_tolerances_scale_with_largest_entry(self):
        # the Frobenius norm underflows to 0 here, and overflows to inf below
        params = ZfsParameters(-1.77e-187, -4.04e-169)
        canon = params.canonical()
        assert canon.is_canonical
        assert sorted(astuple(transitions_from_zfs(canon))) == pytest.approx(
            sorted(astuple(transitions_from_zfs(params))), rel=1e-12, abs=0.0)
        with pytest.raises(InvalidParameterError, match="not symmetric"):
            ZfsTensor([[1e200, 1e200, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, -2e200]])
        with pytest.raises(InvalidParameterError, match="not traceless"):
            ZfsTensor(np.diag([1e200, 1e200, -1e200]))


class TestValidation:
    def test_nonfinite_parameters(self):
        with pytest.raises(InvalidParameterError):
            ZfsParameters(np.nan, 1.0)

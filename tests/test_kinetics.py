"""Five-level kinetics tests.

Three oracles: scipy's initial-value integrator for the time evolution,
the exact steady-state balance n_a k_a = isc p_a n_S1 (every triplet
sublevel is fed from S1 and drains to S0, so detailed bookkeeping fixes
the ratios analytically), and scipy.linalg.null_space for the numpy
null space behind steady_state.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import null_space

from odmrsense import (
    DegenerateKineticsError,
    InvalidParameterError,
    KineticsParams,
    PopulationState,
    contrast_spectrum_amplitudes,
    evolve,
    odmr_contrast,
    rate_matrix,
    steady_state,
)


def random_params(rng) -> KineticsParams:
    branching = rng.uniform(0.05, 1.0, size=3)
    branching /= branching.sum()
    # trim float dust so the sum-to-one validation is exact
    branching[2] = 1.0 - branching[0] - branching[1]
    lifetimes = rng.uniform(20.0, 400.0, size=3)
    return KineticsParams(
        pump_rate=rng.uniform(0.01, 0.1),
        radiative_rate=rng.uniform(0.02, 0.2),
        isc_rate=rng.uniform(0.02, 0.2),
        isc_branching=tuple(branching),
        triplet_decay=tuple(1.0 / lifetimes),
    )


def wide_random_params(rng) -> KineticsParams:
    """Rates log-uniform over six decades, any branching, drive on or off."""
    branching = rng.uniform(0.0, 1.0, size=3)
    branching /= branching.sum()
    branching[2] = 1.0 - branching[0] - branching[1]

    def rate(size=None):
        return 10.0 ** rng.uniform(-4.0, 2.0, size)

    return KineticsParams(
        pump_rate=rate(),
        radiative_rate=rate(),
        isc_rate=rate(),
        isc_branching=tuple(branching),
        triplet_decay=tuple(rate(3)),
        mw_rate=0.0 if rng.random() < 0.5 else rate(),
        mw_pair=str(rng.choice(["xy", "yz", "xz"])),
    )


def null_space_steady_state(params: KineticsParams) -> np.ndarray:
    """steady_state's normalisation and clipping on scipy's null vector."""
    kernel = null_space(rate_matrix(params))
    assert kernel.shape == (5, 1)
    vec = kernel[:, 0] / kernel[:, 0].sum()
    vec = np.where(np.abs(vec) < 1e-15, np.abs(vec), vec)
    return PopulationState.from_array(vec).as_array()


class TestRateMatrix:
    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mat = rate_matrix(random_params(rng))
            assert np.abs(mat.sum(axis=0)).max() < 1e-15

    def test_microwave_is_symmetric_exchange(self):
        base = rate_matrix(KineticsParams())
        driven = rate_matrix(KineticsParams(mw_rate=0.3, mw_pair="yz"))
        diff = driven - base
        expected = np.zeros((5, 5))
        expected[3, 3] = expected[4, 4] = -0.3
        expected[4, 3] = expected[3, 4] = 0.3
        assert np.allclose(diff, expected)


class TestSteadyState:
    def test_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = random_params(rng)
            n = steady_state(params).as_array()
            assert np.abs(rate_matrix(params) @ n).max() < 1e-12

    def test_feeding_balance_identity(self):
        # in steady state: n_a * k_a == isc * p_a * n_S1 for each sublevel
        params = KineticsParams()
        n = steady_state(params)
        triplets = (n.n_tx, n.n_ty, n.n_tz)
        for pop, frac, k in zip(triplets, params.isc_branching, params.triplet_decay):
            assert pop * k == pytest.approx(params.isc_rate * frac * n.n_s1,
                                            rel=1e-10)

    def test_inverted_population_ordering(self):
        # weakly fed but long-lived Tz overtakes Ty: p_z tau_z > p_y tau_y
        n = steady_state(KineticsParams())
        assert n.n_tz > n.n_ty
        assert n.n_tx > n.n_ty

    def test_no_pump_is_ground(self):
        n = steady_state(KineticsParams(pump_rate=0.0))
        assert n.as_array() == pytest.approx([1, 0, 0, 0, 0])

    def test_matches_scipy_null_space_bitwise(self):
        # both routes take the SVD from LAPACK gesdd with the same rank rule
        rng = np.random.default_rng(12)
        for _ in range(1000):
            params = wide_random_params(rng)
            ours = steady_state(params).as_array()
            assert np.array_equal(ours, null_space_steady_state(params)), params

    def test_disconnected_levels_raise(self):
        params = KineticsParams(isc_branching=(1.0, 0.0, 0.0),
                                triplet_decay=(0.1, 0.0, 0.0))
        with pytest.raises(DegenerateKineticsError):
            steady_state(params)


class TestEvolution:
    def test_matches_ivp_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            params = random_params(rng)
            mat = rate_matrix(params)
            t_end = 250.0
            sol = solve_ivp(lambda t, y: mat @ y, (0.0, t_end),
                            PopulationState.ground().as_array(),
                            rtol=1e-11, atol=1e-13, dense_output=True)
            ours = evolve(params, PopulationState.ground(), t_end)
            assert ours.as_array() == pytest.approx(sol.y[:, -1], abs=1e-8)

    def test_conservation(self):
        params = KineticsParams(mw_rate=0.2, mw_pair="xz")
        state = PopulationState.ground()
        for duration in (0.1, 10.0, 1e3, 1e4):
            state_t = evolve(params, state, duration)
            assert abs(state_t.as_array().sum() - 1.0) < 1e-12

    def test_long_time_reaches_steady_state(self):
        params = KineticsParams()
        final = evolve(params, PopulationState.ground(), 2e4).as_array()
        assert final == pytest.approx(steady_state(params).as_array(), abs=1e-9)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvalidParameterError):
            evolve(KineticsParams(), PopulationState.ground(), -1.0)


class TestContrast:
    def test_sign_structure(self):
        contrasts = contrast_spectrum_amplitudes(KineticsParams(), mw_rate=0.05)
        assert contrasts["yz"] > 0
        assert contrasts["xy"] < 0
        assert np.sign(contrasts["yz"]) != np.sign(contrasts["xy"])

    def test_sign_structure_robust_in_drive(self):
        for mw in (0.005, 0.05, 0.5, 5.0):
            contrasts = contrast_spectrum_amplitudes(KineticsParams(), mw_rate=mw)
            assert contrasts["yz"] > 0 > contrasts["xy"]

    def test_strong_drive_equalizes_pair(self):
        n = steady_state(KineticsParams(mw_rate=1e5, mw_pair="xy"))
        assert n.n_tx == pytest.approx(n.n_ty, rel=1e-6)

    def test_contrast_monotone_in_drive(self):
        values = [odmr_contrast(KineticsParams(mw_rate=mw, mw_pair="yz"))
                  for mw in (0.01, 0.05, 0.2, 1.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_requires_drive(self):
        with pytest.raises(InvalidParameterError):
            odmr_contrast(KineticsParams(mw_rate=0.0))

    def test_bad_pair(self):
        with pytest.raises(InvalidParameterError):
            odmr_contrast(KineticsParams(mw_rate=0.1), pair="zz")


class TestValidation:
    def test_branching_must_sum_to_one(self):
        with pytest.raises(InvalidParameterError):
            KineticsParams(isc_branching=(0.5, 0.2, 0.2))

    def test_negative_rate(self):
        with pytest.raises(InvalidParameterError):
            KineticsParams(pump_rate=-0.1)

    def test_population_sum(self):
        with pytest.raises(InvalidParameterError):
            PopulationState(0.5, 0.5, 0.5, 0.0, 0.0)

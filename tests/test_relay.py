import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import relay_trip_oracle

from fmaguard.phasors import Phasor, ThreePhaseSet
from fmaguard.relay import RelaySettings, operating_current_array, trip_eval_stream

SETTINGS = RelaySettings()  # study values: 0.05, 0.585, 0.2, 0.4


def balanced(mag, deg):
    return ThreePhaseSet.balanced(Phasor.from_polar_deg(mag, deg)).as_array()


def evaluate(i1, i2, settings=SETTINGS):
    """Relay quantities of one frame of per-phase (3,) currents:
    ``(trips, i_d, i_r, i_op)`` as tuples over the phases."""
    trip, i_d, i_r, i_op = trip_eval_stream(np.atleast_2d(i1), np.atleast_2d(i2), settings)
    return tuple(trip[0]), tuple(i_d[0]), tuple(i_r[0]), tuple(i_op[0])


def operating_current(i_r: float) -> float:
    return float(operating_current_array(np.array([i_r]), SETTINGS)[0])


class TestQuantities:
    def test_differential_through_current_cancels(self):
        _, i_d, _, _ = evaluate(np.full(3, 1.0 + 0j), np.full(3, -1.0 + 0j))
        assert max(i_d) < 1e-12

    def test_differential_zero(self):
        _, i_d, _, _ = evaluate(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex))
        assert i_d == (0.0, 0.0, 0.0)

    def test_differential_internal_infeed(self):
        _, i_d, _, _ = evaluate(np.full(3, 1.0 + 0j), np.full(3, 1.0 + 0j))
        assert i_d == pytest.approx((2.0, 2.0, 2.0))

    def test_restraining_examples(self):
        _, _, i_r, _ = evaluate(np.full(3, 1.0 + 0j), np.full(3, -1.0 + 0j))
        assert i_r == pytest.approx((2.0, 2.0, 2.0))
        _, _, i_r, _ = evaluate(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex))
        assert i_r == (0.0, 0.0, 0.0)
        # study's normal flows: the restraint is the sum of magnitudes
        _, _, i_r, _ = evaluate(balanced(0.273, 97.8), balanced(0.29, -73.56))
        assert i_r == pytest.approx((0.563,) * 3, abs=1e-12)

    def test_operating_current_first_branch(self):
        # 0.05 + 0.2 * 0.4
        assert operating_current(0.4) == pytest.approx(0.13)

    def test_operating_current_second_branch(self):
        # 0.05 + 0.2 * 0.585 + 0.4 * (1 - 0.585)
        assert operating_current(1.0) == pytest.approx(0.333)

    def test_operating_current_at_zero(self):
        assert operating_current(0.0) == SETTINGS.i_d0

    def test_continuity_at_breakpoint(self):
        below = operating_current(SETTINGS.i_b - 1e-12)
        above = operating_current(SETTINGS.i_b + 1e-12)
        assert above == pytest.approx(below, abs=1e-9)

    def test_monotone_non_decreasing(self):
        grid = np.linspace(0, 3, 1001)
        vals = operating_current_array(grid, SETTINGS)
        assert (np.diff(vals) >= -1e-15).all()


class TestTripDecision:
    def test_internal_infeed_trips(self):
        i1 = balanced(1.0, 0.0)
        trips, i_d, _, i_op = evaluate(i1, i1)
        assert any(trips)
        assert i_d[0] == pytest.approx(2.0)
        assert i_op[0] == pytest.approx(0.733)

    def test_healthy_calibrated_flow_blocks(self):
        trips, i_d, _, i_op = evaluate(balanced(0.29, -73.56), balanced(0.273, 97.8))
        assert not any(trips)
        assert i_op[0] == pytest.approx(0.163, abs=5e-4)
        assert i_d[0] == pytest.approx(0.046, abs=1e-3)

    def test_perfectly_masked_blocks(self):
        i1 = balanced(1.0, 0.0)
        trips, i_d, _, _ = evaluate(i1, -i1)
        assert not any(trips)
        assert i_d == (0.0, 0.0, 0.0)

    def test_any_trip_is_or_of_phases(self):
        i1 = np.array([2.0, 0.01, 0.01], dtype=complex)
        i2 = np.array([2.0, -0.01, -0.01], dtype=complex)
        trip, *_ = trip_eval_stream(i1[None, :], i2[None, :], SETTINGS)
        assert tuple(trip[0]) == (True, False, False)
        assert trip.any(axis=1)[0]

    def test_invalid_settings(self):
        with pytest.raises(ValueError):
            RelaySettings(i_d0=-1)
        with pytest.raises(ValueError):
            RelaySettings(k1=0.5, k2=0.3)


class TestOracleGrid:
    def test_brute_force_grid_equivalence(self):
        """200x200 grid over (|I_d|, I_r): exact boolean match with an
        independently coded characteristic."""
        i_d = np.linspace(0, 2, 200)
        i_r = np.linspace(0, 2, 200)
        dd, rr = np.meshgrid(i_d, i_r, indexing="ij")
        ours = dd >= operating_current_array(rr, SETTINGS)
        for a in range(200):
            for b in range(200):
                ref = relay_trip_oracle(dd[a, b], rr[a, b], SETTINGS.i_d0,
                                        SETTINGS.i_b, SETTINGS.k1, SETTINGS.k2)
                assert ours[a, b] == ref

    @given(
        mag1=st.floats(min_value=0, max_value=5),
        mag2=st.floats(min_value=0, max_value=5),
        ang1=st.floats(min_value=-180, max_value=180),
        ang2=st.floats(min_value=-180, max_value=180),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_scale_covariance(self, mag1, mag2, ang1, ang2, scale):
        base, *_ = evaluate(balanced(mag1, ang1), balanced(mag2, ang2))
        scaled_settings = RelaySettings(i_d0=SETTINGS.i_d0 * scale, i_b=SETTINGS.i_b * scale,
                                        k1=SETTINGS.k1, k2=SETTINGS.k2)
        scaled, *_ = evaluate(balanced(mag1 * scale, ang1), balanced(mag2 * scale, ang2),
                              scaled_settings)
        assert base == scaled


class TestVectorized:
    def test_stream_eval_matches_scalar(self, rng):
        i1 = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        i2 = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
        trip, i_d, i_r, i_op = trip_eval_stream(i1, i2, SETTINGS)
        for k in range(50):
            for p in range(3):
                d = abs(complex(i1[k, p]) + complex(i2[k, p]))
                r = abs(complex(i1[k, p])) + abs(complex(i2[k, p]))
                assert i_d[k, p] == pytest.approx(d, rel=1e-12)
                assert i_r[k, p] == pytest.approx(r, rel=1e-12)
                assert trip[k, p] == relay_trip_oracle(d, r, SETTINGS.i_d0, SETTINGS.i_b,
                                                       SETTINGS.k1, SETTINGS.k2)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import wrap_angle_mod

from fmaguard.phasors import (
    ALPHA,
    Phasor,
    SequenceSet,
    ThreePhaseSet,
    abc_to_seq_array,
    from_sequence,
    positive_sequence,
    seq_to_abc_array,
    to_sequence,
    wrap_angle,
    wrap_angle_array,
    wrapped_angle,
)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def random_set(rng):
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return ThreePhaseSet.from_array(z)


class TestPhasor:
    def test_polar_round_trip(self):
        p = Phasor.from_polar(2.5, 1.0)
        assert p.magnitude == pytest.approx(2.5, rel=1e-12)
        assert p.angle == pytest.approx(1.0, rel=1e-12)

    @given(mag=st.floats(min_value=1e-6, max_value=1e3), angle=st.floats(min_value=-3.1, max_value=3.1))
    @settings(max_examples=200)
    def test_round_trip_property(self, mag, angle):
        p = Phasor.from_polar(mag, angle)
        assert p.magnitude == pytest.approx(mag, rel=1e-12)
        assert p.angle == pytest.approx(angle, rel=1e-9, abs=1e-12)

    def test_angle_wrapped_range(self):
        for a in (-7.0, -math.pi, 0.0, math.pi, 9.0):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi

    def test_wrap_array_matches_scalar(self):
        angles = np.linspace(-10, 10, 101)
        vec = wrap_angle_array(angles)
        for a, w in zip(angles, vec):
            assert w == pytest.approx(wrap_angle(a), abs=1e-12)

    def test_arithmetic(self):
        a = Phasor(1.0, 2.0)
        b = Phasor(0.5, -1.0)
        assert (a + b).as_complex == pytest.approx((1.5 + 1j))
        assert (a - b).as_complex == pytest.approx((0.5 + 3j))
        assert (-a).as_complex == pytest.approx((-1 - 2j))
        assert (a * 2).as_complex == pytest.approx((2 + 4j))
        assert (a / Phasor(1.0, 0.0)).as_complex == pytest.approx(a.as_complex)


class TestFortescue:
    def test_balanced_set_is_pure_positive(self):
        abc = ThreePhaseSet.balanced(Phasor.from_polar(1.0, 0.0))
        seq = to_sequence(abc)
        assert seq.positive.as_complex == pytest.approx(1.0 + 0j, abs=1e-12)
        assert seq.zero.magnitude < 1e-12
        assert seq.negative.magnitude < 1e-12

    def test_all_zero(self):
        seq = to_sequence(ThreePhaseSet.zero())
        assert seq.zero.magnitude == seq.positive.magnitude == seq.negative.magnitude == 0.0

    def test_single_phase_gives_equal_components(self):
        # a = 1, b = c = 0: every component equals one third
        abc = ThreePhaseSet(Phasor(1.0, 0.0), Phasor(), Phasor())
        seq = to_sequence(abc)
        third = pytest.approx(1.0 / 3.0, rel=1e-12)
        assert seq.zero.as_complex.real == third
        assert seq.positive.as_complex.real == third
        assert seq.negative.as_complex.real == third
        for comp in (seq.zero, seq.positive, seq.negative):
            assert abs(comp.as_complex.imag) < 1e-15

    def test_synthesis_of_pure_positive_is_balanced(self):
        seq = SequenceSet(Phasor(), Phasor(1.0, 0.0), Phasor())
        abc = from_sequence(seq)
        expect = ThreePhaseSet.balanced(Phasor(1.0, 0.0))
        for got, ref in zip(abc.as_array(), expect.as_array()):
            assert got == pytest.approx(ref, abs=1e-12)

    @given(data=st.lists(finite, min_size=12, max_size=12))
    @settings(max_examples=300)
    def test_round_trip(self, data):
        z = np.array(data[:6]).reshape(3, 2)
        abc = ThreePhaseSet.from_array(z[:, 0] + 1j * z[:, 1])
        back = from_sequence(to_sequence(abc))
        scale = max(1.0, float(np.abs(abc.as_array()).max()))
        assert np.abs(back.as_array() - abc.as_array()).max() / scale < 1e-10

    def test_round_trip_thousand_random_sets(self, rng):
        for _ in range(1000):
            abc = random_set(rng)
            back = from_sequence(to_sequence(abc))
            scale = max(1.0, float(np.abs(abc.as_array()).max()))
            assert np.abs(back.as_array() - abc.as_array()).max() / scale < 1e-10
            fwd = to_sequence(from_sequence(SequenceSet.from_array(abc.as_array())))
            assert np.abs(fwd.as_array() - abc.as_array()).max() / scale < 1e-10

    def test_linearity(self, rng):
        for _ in range(50):
            x = random_set(rng)
            y = random_set(rng)
            lhs = to_sequence(ThreePhaseSet.from_array(x.as_array() + y.as_array()))
            rhs = to_sequence(x).as_array() + to_sequence(y).as_array()
            assert np.abs(lhs.as_array() - rhs).max() < 1e-12

    def test_array_transforms_match_scalar(self, rng):
        abc = rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3))
        seq = abc_to_seq_array(abc)
        for k in range(20):
            ref = to_sequence(ThreePhaseSet.from_array(abc[k])).as_array()
            assert np.abs(seq[k] - ref).max() < 1e-12
        back = seq_to_abc_array(seq)
        assert np.abs(back - abc).max() < 1e-10
        pos = positive_sequence(abc)
        assert np.abs(pos - seq[:, 1]).max() < 1e-12

    def test_alpha_convention(self):
        assert ALPHA == pytest.approx(np.exp(2j * np.pi / 3))


# angles on and next to the branch cut: exact -pi and pi (signed zero
# imaginary parts on the negative real axis), angles a hair below pi
# whose ``a + pi`` rounds to 2*pi, and non-finite parts
_EDGE_PHASORS = [
    complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    complex(0.0, 0.0), complex(0.0, -0.0), complex(-1.0, 1e-17), complex(-1.0, -1e-17),
    complex(-1.0, 5e-324), complex(-1.0, -5e-324), complex(-1e300, 1e-300),
    complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, math.inf),
    complex(-math.inf, 0.0), complex(-math.inf, -0.0), complex(0.0, -math.inf),
    complex(-math.inf, math.inf), complex(math.inf, math.nan),
]
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestWrappedAngle:
    """``wrapped_angle`` against the ``np.mod`` wrap of ``np.angle``."""

    def test_branch_cut_and_non_finite(self):
        z = np.array(_EDGE_PHASORS)
        got = wrapped_angle(z)
        assert _same_bits(got, wrap_angle_mod(np.angle(z)))
        assert got[0] == math.pi and got[1] == math.pi
        assert np.angle(complex(-1.0, 1e-17)) + math.pi == 2 * math.pi  # the rounding case

    def test_empty_and_zero_dimensional(self):
        for z in (np.zeros(0, dtype=complex), np.zeros((0, 3), dtype=complex),
                  np.array(complex(-1.0, -0.0)), np.array(1j), complex(-2.0, 0.0)):
            assert _same_bits(wrapped_angle(z), wrap_angle_mod(np.angle(z)))

    @given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_mod_wrap(self, parts):
        z = np.array([complex(re, im) for re, im in parts], dtype=complex)
        assert _same_bits(wrapped_angle(z), wrap_angle_mod(np.angle(z)))

    @given(st.floats(min_value=-math.pi, max_value=math.pi), st.floats(1e-300, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_matches_mod_wrap_on_polar_inputs(self, angle, magnitude):
        z = np.array([magnitude * complex(math.cos(angle), math.sin(angle))])
        assert _same_bits(wrapped_angle(z), wrap_angle_mod(np.angle(z)))

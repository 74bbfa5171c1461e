"""Complex phasor containers and the symmetrical-component transform.

Conventions used throughout the package:

* angles are radians, wrapped to (-pi, pi]; degrees appear only at the
  CLI / file boundary,
* the rotation operator is ``ALPHA = exp(+2j*pi/3)`` with phase order
  a-b-c positive,
* sequence order is (zero, positive, negative).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
ALPHA = cmath.exp(2j * math.pi / 3.0)
ALPHA2 = ALPHA * ALPHA

# Analysis matrix: [zero, positive, negative] = (1/3) * A_SEQ @ [a, b, c]
A_SEQ = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, ALPHA, ALPHA2],
        [1.0, ALPHA2, ALPHA],
    ],
    dtype=complex,
)
# Synthesis matrix: [a, b, c] = A_PHASE @ [zero, positive, negative]
A_PHASE = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, ALPHA2, ALPHA],
        [1.0, ALPHA, ALPHA2],
    ],
    dtype=complex,
)


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def wrap_angle_array(angles: np.ndarray) -> np.ndarray:
    """Vectorized wrap to (-pi, pi]."""
    w = np.mod(np.asarray(angles) + np.pi, TWO_PI) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def wrapped_angle(z) -> np.ndarray:
    """``np.angle(z)`` wrapped to (-pi, pi], equal bit for bit to
    ``wrap_angle_array(np.angle(z))``.

    An angle ``a`` lies in [-pi, pi], so ``a + pi`` lies in [0, 2*pi].
    ``np.mod`` returns that sum unchanged below 2*pi and maps 2*pi to 0,
    whose ``- pi`` is then mapped to pi: the same value ``(a + pi) - pi``
    gives directly.  Use ``wrap_angle_array`` for anything that is not
    an ``np.angle`` result, such as a difference of angles.
    """
    w = np.angle(z) + np.pi
    w -= np.pi
    return np.where(w == -np.pi, np.pi, w)


@dataclass(frozen=True)
class Phasor:
    """A complex electrical quantity (kA or kV) in rectangular form."""

    re: float = 0.0
    im: float = 0.0

    @classmethod
    def from_complex(cls, z: complex) -> "Phasor":
        return cls(z.real, z.imag)

    @classmethod
    def from_polar(cls, magnitude: float, angle: float) -> "Phasor":
        """Build from magnitude and angle in radians."""
        return cls(magnitude * math.cos(angle), magnitude * math.sin(angle))

    @classmethod
    def from_polar_deg(cls, magnitude: float, angle_deg: float) -> "Phasor":
        return cls.from_polar(magnitude, math.radians(angle_deg))

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    @property
    def angle(self) -> float:
        """Angle in radians, wrapped to (-pi, pi]."""
        return wrap_angle(math.atan2(self.im, self.re))

    @property
    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __add__(self, other: "Phasor") -> "Phasor":
        return Phasor(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Phasor") -> "Phasor":
        return Phasor(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Phasor":
        return Phasor(-self.re, -self.im)

    def __mul__(self, other) -> "Phasor":
        z = self.as_complex * (other.as_complex if isinstance(other, Phasor) else other)
        return Phasor(z.real, z.imag)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Phasor":
        z = self.as_complex / (other.as_complex if isinstance(other, Phasor) else other)
        return Phasor(z.real, z.imag)

    def __abs__(self) -> float:
        return self.magnitude

    def __str__(self) -> str:
        return f"{self.magnitude:.6g}∠{math.degrees(self.angle):.4g}°"


@dataclass(frozen=True)
class ThreePhaseSet:
    """Per-phase phasors in phase order a, b, c."""

    a: Phasor
    b: Phasor
    c: Phasor

    @classmethod
    def balanced(cls, reference: Phasor) -> "ThreePhaseSet":
        """Positive-rotation balanced set with phase a equal to ``reference``."""
        z = reference.as_complex
        return cls(reference, Phasor.from_complex(z * ALPHA2), Phasor.from_complex(z * ALPHA))

    @classmethod
    def from_array(cls, arr) -> "ThreePhaseSet":
        return cls(
            Phasor.from_complex(complex(arr[0])),
            Phasor.from_complex(complex(arr[1])),
            Phasor.from_complex(complex(arr[2])),
        )

    @classmethod
    def zero(cls) -> "ThreePhaseSet":
        return cls(Phasor(), Phasor(), Phasor())

    def as_array(self) -> np.ndarray:
        return np.array([self.a.as_complex, self.b.as_complex, self.c.as_complex])


@dataclass(frozen=True)
class SequenceSet:
    """Symmetrical components in order zero, positive, negative."""

    zero: Phasor
    positive: Phasor
    negative: Phasor

    @classmethod
    def from_array(cls, arr) -> "SequenceSet":
        return cls(
            Phasor.from_complex(complex(arr[0])),
            Phasor.from_complex(complex(arr[1])),
            Phasor.from_complex(complex(arr[2])),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.zero.as_complex, self.positive.as_complex, self.negative.as_complex])


def to_sequence(abc: ThreePhaseSet) -> SequenceSet:
    """Fortescue analysis of a three-phase set."""
    return SequenceSet.from_array(A_SEQ @ abc.as_array() / 3.0)


def from_sequence(seq: SequenceSet) -> ThreePhaseSet:
    """Inverse Fortescue: synthesize phase quantities from components."""
    return ThreePhaseSet.from_array(A_PHASE @ seq.as_array())


def abc_to_seq_array(abc: np.ndarray) -> np.ndarray:
    """Vectorized Fortescue analysis for (..., 3) phase arrays."""
    return abc @ (A_SEQ.T / 3.0)


def seq_to_abc_array(seq: np.ndarray) -> np.ndarray:
    """Vectorized Fortescue synthesis for (..., 3) sequence arrays."""
    return seq @ A_PHASE.T


def positive_sequence(abc: np.ndarray) -> np.ndarray:
    """Positive-sequence component of (..., 3) phase arrays."""
    return (abc[..., 0] + ALPHA * abc[..., 1] + ALPHA2 * abc[..., 2]) / 3.0

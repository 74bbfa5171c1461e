"""Dual-slope percentage-differential trip logic of a line current
differential relay, evaluated per phase.

The relay compares the differential current ``|i1 + i2|`` against a
restraint-dependent operating threshold built from two slopes around a
restraining-current breakpoint.  It trips as soon as any phase satisfies
``|I_d| >= I_op``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RelaySettings:
    """Differential threshold, restraining breakpoint and the two slopes
    (kA / dimensionless); the defaults are the reference study's."""

    i_d0: float = 0.05
    i_b: float = 0.585
    k1: float = 0.2
    k2: float = 0.4

    def __post_init__(self) -> None:
        if self.i_d0 <= 0 or self.i_b <= 0:
            raise ValueError("thresholds i_d0 and i_b must be positive")
        if not (0.0 < self.k1 < self.k2 < 1.0):
            raise ValueError("slopes must satisfy 0 < k1 < k2 < 1")


def operating_current_array(i_r: np.ndarray, settings: RelaySettings) -> np.ndarray:
    """Dual-slope operating threshold for restraining currents ``i_r`` (kA).

    Continuous at the breakpoint: up to ``i_b`` the first slope applies,
    above it the second slope takes over from the breakpoint value.
    """
    s = settings
    low = s.i_d0 + s.k1 * i_r
    high = s.i_d0 + s.k1 * s.i_b + s.k2 * (i_r - s.i_b)
    return np.where(i_r <= s.i_b, low, high)


def trip_eval_stream(i1: np.ndarray, i2: np.ndarray, settings: RelaySettings):
    """Per-phase relay evaluation over (N, 3) current arrays.

    Returns ``(trip, i_d, i_r, i_op)`` where ``trip`` is an (N, 3) boolean
    array and the rest are (N, 3) floats in kA.
    """
    i_d = np.abs(i1 + i2)
    i_r = np.abs(i1) + np.abs(i2)
    i_op = operating_current_array(i_r, settings)
    return i_d >= i_op, i_d, i_r, i_op

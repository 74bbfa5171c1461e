"""fmaguard: phasor-domain simulation of fault-masking attacks on line
current differential relays, plus the two-stage detector (physics-based
mismatch index and a neural zone-confirmation classifier) and an
evaluation harness.

The package root re-exports the scenario entry points and the relay
settings; everything else is imported from its module
(``fmaguard.attack``, ``fmaguard.mismatch``, ``fmaguard.pipeline``, ...)."""

__version__ = "0.1.0"

from .relay import RelaySettings
from .scenario import FaultSpec, default_scenario, generate_stream, healthy_reference

__all__ = [
    "RelaySettings",
    "FaultSpec",
    "default_scenario",
    "generate_stream",
    "healthy_reference",
]

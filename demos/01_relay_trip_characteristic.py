"""The dual-slope percentage-differential characteristic.

Walks the operating threshold over the restraining current, shows the
two slope regions, and evaluates the trip decision for a healthy flow,
an internal fault, and a perfectly masked internal fault.
"""

from pathlib import Path

import numpy as np

from fmaguard import RelaySettings
from fmaguard.phasors import Phasor, ThreePhaseSet
from fmaguard.relay import operating_current_array, trip_eval_stream

OUT = Path("demo_out/01_relay")
OUT.mkdir(parents=True, exist_ok=True)

settings = RelaySettings()  # 0.05 kA pickup, 0.585 kA breakpoint, slopes 0.2 / 0.4
print("Relay settings:", settings)
first, second = operating_current_array(np.array([0.4, 1.0]), settings)
print(f"threshold at I_r = 0.4 kA  -> {first:.3f} kA (first slope)")
print(f"threshold at I_r = 1.0 kA  -> {second:.3f} kA (second slope)")

i_r = np.linspace(0, 3, 301)
i_op = operating_current_array(i_r, settings)
with open(OUT / "characteristic.csv", "w") as fh:
    fh.write("i_r_ka,i_op_ka\n")
    for a, b in zip(i_r, i_op):
        fh.write(f"{a!r},{b!r}\n")
print(f"wrote {OUT / 'characteristic.csv'} (plot i_op over i_r to see the two slopes)")


def show(label, i1, i2):
    """Evaluate one frame of per-phase (3,) terminal currents."""
    trip, i_d, _i_r, i_op = trip_eval_stream(i1[None, :], i2[None, :], settings)
    print(f"{label:28s} |I_d|={i_d[0, 0]:.3f} kA  I_op={i_op[0, 0]:.3f} kA"
          f"  -> {'TRIP' if trip.any() else 'block'}")


healthy_i1 = ThreePhaseSet.balanced(Phasor.from_polar_deg(0.29, -73.56)).as_array()
healthy_i2 = ThreePhaseSet.balanced(Phasor.from_polar_deg(0.273, 97.8)).as_array()
fault_infeed = ThreePhaseSet.balanced(Phasor.from_polar_deg(1.0, 0.0)).as_array()
masked_i2 = -fault_infeed

show("healthy through-flow:", healthy_i1, healthy_i2)
show("internal fault infeed:", fault_infeed, fault_infeed)
show("same fault, masked i2:", fault_infeed, masked_i2)
print("\nThe masked case is the attack premise: with i2 = -i1 the differential")
print("current vanishes and the relay cannot distinguish the fault from a")
print("healthy line.")

"""Feature extraction for the zone-confirmation classifier.

Only the local measurements enter the features: the remote current is
assumed compromised once the first-stage detector has fired, so every
feature derives from ``v1`` and ``i1`` alone.  Each snapshot yields nine
quantity groups (voltage and current magnitudes and angles, their angle
difference, and apparent-impedance magnitude/angle/real/imaginary)
evaluated on six channels (phases a, b, c and the zero, positive,
negative sequences): 54 values.  Two snapshots are taken, one power
cycle before the trigger and at the trigger, for 108 features total.

Apparent impedance is computed only on channels whose current reaches
``CURRENT_FLOOR_KA`` (0.05 kA, the relay's reference minimum differential
pickup ``i_d0``).  Below it the channel carries measurement noise and
little else: on a balanced snapshot (every healthy pre-fault snapshot and
every three-phase fault) the zero- and negative-sequence currents are
pure noise, and the ratio of two noise phasors is heavy-tailed, so a
single such snapshot can sit tens of standard deviations out after
standardization.  Those channels get the sentinel instead.  The floor is
a fixed constant, not read from a run's relay settings, so the features
a trained model expects do not change with the relay configuration.

Extraction is batched: the pre and post frames of every trigger of a
stream are gathered with one fancy index and all snapshots go through
one set of array operations.  Each row keeps the bits a one-snapshot
computation gives.  The Fortescue transform is therefore the stacked
product ``(R, 1, 3) @ (3, 3)``; a plain ``(R, 3) @ (3, 3)`` gemm rounds
differently in the last bits.  The elementwise operations used here
(``abs``, ``angle``, complex division, ``mod``) give the same bits at
any array length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasors import abc_to_seq_array, wrap_angle_array, wrapped_angle
from .scenario import Stream

#: Substitute apparent impedance when the current is too small to divide by.
IMPEDANCE_SENTINEL = 1e6
#: Smallest current (kA) whose apparent impedance enters the features.  Set
#: to the reference ``i_d0`` of ``relay.RelaySettings``: at a waveform SNR
#: of 10 dB the 1-in-10^4 noise magnitude of a sequence current is about
#: 0.033 kA, so a noise-only channel stays below it, while a fault current
#: the relay can act on reaches it.  Fixed per trained model.
CURRENT_FLOOR_KA = 0.05

GROUP_NAMES = (
    "v_mag",
    "i_mag",
    "v_ang",
    "i_ang",
    "vi_ang_diff",
    "z_mag",
    "z_ang",
    "z_re",
    "z_im",
)
CHANNEL_NAMES = ("a", "b", "c", "seq0", "seq1", "seq2")
SNAPSHOT_NAMES = ("pre", "post")

FEATURE_DIM = len(SNAPSHOT_NAMES) * len(GROUP_NAMES) * len(CHANNEL_NAMES)


def feature_names() -> list:
    """Column names in extraction order."""
    names = []
    for snap in SNAPSHOT_NAMES:
        for group in GROUP_NAMES:
            for ch in CHANNEL_NAMES:
                names.append(f"{snap}_{group}_{ch}")
    return names


@dataclass(frozen=True)
class FeatureVector:
    """Feature values plus bookkeeping, for one trigger or a batch.

    For a single trigger ``values`` has shape ``(FEATURE_DIM,)`` and the
    bookkeeping fields are ints; for ``R`` triggers ``values`` has shape
    ``(R, FEATURE_DIM)`` and the bookkeeping fields are length-``R``
    integer arrays, one entry per row.
    """

    values: np.ndarray
    trigger_index: int | np.ndarray
    degenerate_channels: int | np.ndarray = 0

    def __post_init__(self) -> None:
        if self.values.ndim not in (1, 2) or self.values.shape[-1] != FEATURE_DIM:
            raise ValueError(f"feature vectors must have {FEATURE_DIM} entries")


def _snapshot_features(v_abc: np.ndarray, i_abc: np.ndarray) -> tuple:
    """54 features of each of ``R`` snapshots given as ``(R, 3)`` phase
    arrays; returns ``(R, 54)`` values and ``(R,)`` degenerate counts."""
    # (R, 1, 3) @ (3, 3) stacks R vector products and keeps their per-row
    # bits; a plain (R, 3) @ (3, 3) gemm does not
    v = np.concatenate([v_abc, abc_to_seq_array(v_abc[:, None, :])[:, 0, :]], axis=1)
    i = np.concatenate([i_abc, abc_to_seq_array(i_abc[:, None, :])[:, 0, :]], axis=1)

    v_mag = np.abs(v)
    i_mag = np.abs(i)
    v_ang = wrapped_angle(v)
    i_ang = wrapped_angle(i)

    ok = i_mag >= CURRENT_FLOOR_KA
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(ok, v / np.where(ok, i, 1.0), 0.0)
    z_mag = np.where(ok, np.abs(z), IMPEDANCE_SENTINEL)
    z_ang = np.where(ok, wrapped_angle(z), 0.0)
    z_re = np.where(ok, z.real, IMPEDANCE_SENTINEL)
    z_im = np.where(ok, z.imag, 0.0)

    groups = [v_mag, i_mag, v_ang, i_ang, wrap_angle_array(v_ang - i_ang),
              z_mag, z_ang, z_re, z_im]
    return np.concatenate(groups, axis=1), (~ok).sum(axis=1)


def pre_trigger_offset(stream: Stream) -> int:
    """Snapshot separation: one power cycle of samples."""
    return int(round(stream.samples_per_cycle))


def extract_features(stream: Stream, trigger_index) -> FeatureVector:
    """Pre/post-trigger local-measurement features around trigger frames.

    ``trigger_index`` is one frame index or a 1-D integer sequence of
    them; every trigger of the sequence is extracted in one pass.  The
    pre snapshot sits one power cycle before the trigger so it stays
    clear of the fault; the post snapshot is the trigger frame itself.
    """
    triggers = np.asarray(trigger_index)
    if triggers.ndim > 1 or (triggers.size and triggers.dtype.kind not in "iu"):
        raise ValueError("trigger index must be an int or a 1-D integer sequence")
    triggers = triggers.astype(np.intp, copy=False)
    offset = pre_trigger_offset(stream)
    # a gather would wrap a negative index silently, so check every trigger
    if np.any(triggers < offset):
        raise ValueError("trigger index precedes the pre-snapshot window")
    if np.any(triggers >= len(stream)):
        raise ValueError("trigger index beyond the stream")
    frames = np.stack([triggers - offset, triggers], axis=-1)  # (..., 2): pre, post
    snaps, bad = _snapshot_features(stream.v1[frames].reshape(-1, 3),
                                    stream.i1[frames].reshape(-1, 3))
    values = snaps.reshape(triggers.shape + (FEATURE_DIM,))
    degenerate = bad.reshape(frames.shape).sum(axis=-1)
    if triggers.ndim == 0:
        return FeatureVector(values=values, trigger_index=int(triggers),
                             degenerate_channels=int(degenerate))
    return FeatureVector(values=values, trigger_index=triggers,
                         degenerate_channels=degenerate)

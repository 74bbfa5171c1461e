"""Combined detection logic: relay first, then the two-stage detector.

Per frame: if the relay trips, a RelayTrip event ends the run (the
masked-fault detector only watches while the relay is silent).  While
untripped, the mismatch index is updated; on its first latch the
zone-confirmation classifier runs once on the trigger snapshot.  Both
stages agreeing raises the FMAAlarm.  An external verdict clears the
latch after a short hold-off so a later genuine event can retrigger; a
ground-truth fault clearance emits Reset and re-primes the detector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import classifier as zcc
from .features import extract_features, pre_trigger_offset
from .mismatch import DegenerateMeasurement, MIConfig, compute_p_stream, mi_trace
from .relay import RelaySettings, trip_eval_stream
from .scenario import LineModel, Stream

EVENT_KINDS = ("RelayTrip", "MITrigger", "ZCCInternal", "ZCCExternal", "FMAAlarm", "Reset")

#: Action an FMAAlarm requests: trip the breaker directly.
ALARM_ACTION = "TripDirect"
#: Power cycles from an MI latch to the detector's re-prime; the latched
#: output of an external verdict clears after the same span.
HOLDOFF_CYCLES = 1.0
#: Longest run of frames with substituted consistency components that the
#: detector tolerates before it aborts with DegenerateMeasurement.
DEGENERATE_BURST_LIMIT = 50


@dataclass(frozen=True)
class DetectionEvent:
    t: float
    kind: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"t": self.t, "kind": self.kind, "payload": self.payload},
                          sort_keys=True)


@dataclass(frozen=True)
class PipelineConfig:
    line: LineModel
    relay: RelaySettings
    mi: MIConfig
    model: zcc.MLPModel | None = None
    zcc_threshold: float = 0.5


@dataclass
class PipelineResult:
    events: list
    norms: np.ndarray
    m: np.ndarray
    l_u: np.ndarray
    o: np.ndarray
    relay_trip_index: int | None
    mi_trigger_index: int | None
    alarm_index: int | None

    @property
    def fma_alarm(self) -> bool:
        return self.alarm_index is not None

    def events_of(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]


def _check_degenerate_burst(degenerate: np.ndarray, limit: int) -> None:
    # burst lengths: distances between the rising and falling edges of the mask
    edges = np.flatnonzero(np.diff(np.concatenate([[False], degenerate, [False]])))
    worst = int((edges[1::2] - edges[::2]).max(initial=0))
    if worst > limit:
        raise DegenerateMeasurement(
            f"degenerate-measurement burst of {worst} frames exceeds limit {limit}")


@dataclass
class MIScan:
    """Latch-and-resume sweep of the detector over a norm sequence."""

    m: np.ndarray
    l_u: np.ndarray
    latches: list  # latch indices, in order
    reset_index: int | None  # where the clearance re-prime happened


def scan_mi(norms: np.ndarray, mi: MIConfig, stop: int, clear_index: int | None,
            holdoff: int, max_latches: int = 32) -> MIScan:
    """Drive ``mi_trace`` over ``norms[:stop]`` exactly as the online logic
    does; ``run`` and the dataset's trigger alignment both use it.

    Cold start with warm-up suppression.  ``holdoff`` samples after each
    latch the detector re-primes from that segment's baseline with no
    suppression.  Once, at ``clear_index``, a detector that is not in a
    hold-off re-primes the same way.  A hold-off that runs past
    ``clear_index`` ends the segment there, so ``m`` and ``l_u`` stay 0
    until the re-prime.  Scanning stops at ``stop`` or after
    ``max_latches`` latches.
    """
    n = len(norms)
    m = np.zeros(n)
    l_u = np.zeros(n)
    latches: list = []
    reset_index = None
    pos = 0
    prime = None
    suppress = mi.t2 + 1
    while pos < stop and len(latches) < max_latches:
        seg_end = stop
        if clear_index is not None and pos < clear_index < stop:
            seg_end = clear_index
        trace = mi_trace(norms[pos:seg_end], mi, prime=prime, suppress=suppress)
        take = seg_end - pos
        m[pos:seg_end] = trace.m[:take]
        l_u[pos:seg_end] = trace.l_u[:take]
        if trace.latch_index is None:
            if seg_end == clear_index and seg_end < stop:
                reset_index = seg_end
                pos = seg_end
                prime = trace.baseline
                suppress = 0
                clear_index = None
                continue
            break
        k = pos + trace.latch_index
        latches.append(k)
        pos = k + holdoff
        prime = trace.baseline
        suppress = 0
    return MIScan(m=m, l_u=l_u, latches=latches, reset_index=reset_index)


def holdoff_samples(stream: Stream) -> int:
    """Samples between a latch and the detector's re-prime."""
    return max(1, int(round(HOLDOFF_CYCLES * stream.samples_per_cycle)))


def run(stream: Stream, cfg: PipelineConfig) -> PipelineResult:
    """Run the relay plus two-stage detector over one stream."""
    n = len(stream)
    events: list = []

    trip, i_d, i_r, i_op = trip_eval_stream(stream.i1, stream.i2, cfg.relay)
    any_trip = trip.any(axis=1)
    trip_index = int(np.argmax(any_trip)) if any_trip.any() else None
    if trip_index is not None:
        events.append(DetectionEvent(
            t=float(stream.t[trip_index]), kind="RelayTrip",
            payload={
                "phases": [p for p, hit in zip("abc", trip[trip_index]) if hit],
                "i_d": [float(v) for v in i_d[trip_index]],
                "i_op": [float(v) for v in i_op[trip_index]],
            }))

    # detector watches only while the relay is silent
    stop = trip_index if trip_index is not None else n
    ptrace = compute_p_stream(stream, cfg.line, cfg.mi)
    _check_degenerate_burst(ptrace.degenerate[:stop], DEGENERATE_BURST_LIMIT)
    norms = ptrace.norms

    clear_index = stream.meta.get("clear_index")
    holdoff = holdoff_samples(stream)
    scan = scan_mi(norms, cfg.mi, stop, clear_index, holdoff)

    o = np.zeros(n, dtype=bool)
    offset = pre_trigger_offset(stream)
    mi_trigger_index = scan.latches[0] if scan.latches else None
    alarm_index = None
    confirmable = [k for k in scan.latches if k >= offset]
    if cfg.model is not None and confirmable:
        latch_features = iter(extract_features(stream, confirmable).values)

    for k in scan.latches:
        events.append(DetectionEvent(t=float(stream.t[k]), kind="MITrigger",
                                     payload={"m": float(scan.m[k]),
                                              "l_u": float(scan.l_u[k])}))
        if cfg.model is None:
            # detector-only mode: keep the latch, stop scanning
            o[k:] = True
            break
        if k < offset:
            continue
        # one row per latch, in order: a batched forward pass could move
        # p_internal in the last bits
        prob = float(zcc.predict_proba_internal(cfg.model, next(latch_features))[0])
        verdict_internal = prob >= cfg.zcc_threshold
        events.append(DetectionEvent(
            t=float(stream.t[k]),
            kind="ZCCInternal" if verdict_internal else "ZCCExternal",
            payload={"p_internal": prob}))
        if verdict_internal:
            alarm_index = k
            o[k:] = True
            events.append(DetectionEvent(t=float(stream.t[k]), kind="FMAAlarm",
                                         payload={"p_internal": prob,
                                                  "action": ALARM_ACTION}))
            break
        # external verdict: the latch clears after the hold-off
        o[k:min(k + holdoff, n)] = True

    cleared = (clear_index is not None and 0 < clear_index < n
               and clear_index <= stop and stream.fault_active[clear_index - 1])
    if cleared and (alarm_index is None or alarm_index < clear_index):
        events.append(DetectionEvent(t=float(stream.t[clear_index]), kind="Reset",
                                     payload={"reason": "fault cleared"}))
        events.sort(key=lambda e: e.t)

    return PipelineResult(events=events, norms=norms, m=scan.m, l_u=scan.l_u, o=o,
                          relay_trip_index=trip_index,
                          mi_trigger_index=mi_trigger_index,
                          alarm_index=alarm_index)


@dataclass(frozen=True)
class BatchCase:
    """One prepared stream with its ground truth."""

    case_id: str
    stream: Stream
    label: int  # 1 = masked internal fault present
    inception_index: int | None


@dataclass
class BatchRow:
    case_id: str
    label: int
    relay_trip: bool
    mi_trigger: bool
    fma_alarm: bool
    latency_samples: int | None
    error: str | None = None

    def verdict(self, budget_samples: int) -> bool:
        """Positive when the alarm fired within the latency budget."""
        return (self.fma_alarm and self.latency_samples is not None
                and self.latency_samples <= budget_samples)


def batch_run(cases, cfg: PipelineConfig) -> list:
    """Run many prepared cases; per-case failures are isolated."""
    rows = []
    for case in cases:
        try:
            result = run(case.stream, cfg)
            latency = None
            if result.alarm_index is not None and case.inception_index is not None:
                latency = int(result.alarm_index - case.inception_index)
            rows.append(BatchRow(
                case_id=case.case_id,
                label=case.label,
                relay_trip=result.relay_trip_index is not None,
                mi_trigger=result.mi_trigger_index is not None,
                fma_alarm=result.fma_alarm,
                latency_samples=latency,
            ))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            rows.append(BatchRow(case_id=case.case_id, label=case.label,
                                 relay_trip=False, mi_trigger=False,
                                 fma_alarm=False, latency_samples=None,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def write_events_jsonl(events, path) -> None:
    with open(path, "w") as fh:
        for event in events:
            fh.write(event.to_json() + "\n")

"""Dataset sweeps, metrics and ROC evaluation.

The positive class is a masking attack hiding an internal fault, swept
over all fault kinds, nine locations and the 27-value resistance list.
Negatives mix faults on an adjacent line (delivered measurements stay
authentic) with non-fault disturbances; the mix proportions are sweep
fields.  External-fault scenarios clear after a few cycles and carry CT
saturation, the two mechanisms by which strong out-of-zone faults
perturb the first-stage detector in this phasor-domain model.

All randomness derives from one root seed through the case index, so a
sweep is reproducible case by case.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .attack import (
    AttackSpec,
    BasicFMA,
    CTSaturationSpec,
    DistortionSpec,
    apply_distortions,
    apply_fma,
)
from .classifier import InsufficientData
from .features import FEATURE_DIM, extract_features, feature_names, pre_trigger_offset
from .mismatch import MIConfig, compute_p_stream, mi_config_for, mi_trace
from .pipeline import BatchCase, PipelineConfig, batch_run, holdoff_samples, scan_mi
from .relay import RelaySettings
from .scenario import (
    ExternalFaultSpec,
    FaultSpec,
    LineScenario,
    LoadScale,
    ShuntSwitch,
    SourceStep,
    Stream,
    default_scenario,
    generate_stream,
    healthy_reference,
)
from .sequence_network import FAULT_KINDS, SequenceImpedance

ALL_KINDS = tuple(FAULT_KINDS)
DEFAULT_LOCATIONS = tuple(round(0.1 * k, 1) for k in range(1, 10))
# The 27-value fault-resistance axis of the study sweep (ohm).
DEFAULT_RESISTANCES = (
    0.001, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25, 30, 35, 40,
    50, 60, 70, 80, 90, 100, 150, 200, 250, 300,
)

#: Scenario timing shared by the sweeps (seconds).
SWEEP_T_INCEPTION = 0.25
SWEEP_DURATION = 0.45
EXTERNAL_CLEAR_AFTER = 0.1

#: Detection budget: two power cycles.
BUDGET_CYCLES = 2.0

DISTURBANCE_KINDS = ("shunt_switch", "source_loss", "source_connect", "load_scale")

#: Most detector triggers a case contributes to the feature dataset.
MAX_TRIGGERS = 6
#: Cases realized together before their streams are reduced.  Realizing
#: and reducing one case at a time made ``build_dataset`` about 10% slower
#: (2-core Xeon, Python 3.11): the two phases evict each other's working
#: set from the CPU caches.
REALIZE_CHUNK = 32


class DegenerateCurve(Exception):
    """All ROC operating points coincide."""


class UndefinedMetric(Exception):
    """Metric guard tripped (e.g. precision with no positives called)."""


@dataclass(frozen=True)
class SweepSpec:
    """Axes of the scenario sweep plus negative-class composition.

    ``both_directions`` doubles the positive grid by also attacking the
    relay at the far terminal (the mirrored corridor); by default only
    the terminal-1 relay is evaluated.
    """

    kinds: tuple[str, ...] = ALL_KINDS
    locations: tuple[float, ...] = DEFAULT_LOCATIONS
    resistances: tuple[float, ...] = DEFAULT_RESISTANCES
    snr_db: float | None = None
    saturate_externals: bool = True
    positives: int | None = None  # None = the full grid
    negatives: int = 0
    negative_external_fraction: float = 0.8
    external_terminals: tuple[int, ...] = (1, 2)
    both_directions: bool = False

    def __post_init__(self) -> None:
        if not self.kinds or not self.locations or not self.resistances:
            raise ValueError("sweep axes must be non-empty")
        if not (0.0 <= self.negative_external_fraction <= 1.0):
            raise ValueError("negative_external_fraction must lie in [0, 1]")

    def grid_size(self) -> int:
        base = len(self.kinds) * len(self.locations) * len(self.resistances)
        return base * (2 if self.both_directions else 1)


@dataclass(frozen=True)
class Case:
    """One labeled scenario: physics plus channel manipulations."""

    case_id: str
    scenario: LineScenario
    attack: AttackSpec | None
    distortion: DistortionSpec
    label: int
    seed: int
    kind: str = ""

    @property
    def inception_index(self) -> int | None:
        fault = self.scenario.fault or (
            self.scenario.external_fault.fault if self.scenario.external_fault else None)
        if fault is None:
            return None
        return int(round(fault.t_inception * self.scenario.sample_rate_hz))


def case_seed(root_seed: int, index: int) -> int:
    """Deterministic per-case seed: the root seed and case index feed a
    fixed-width splitmix-style mix."""
    h = (root_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) % (1 << 63)
    return int(h)


def realize(case: Case) -> Stream:
    """Generate the delivered measurement stream of a case."""
    stream = generate_stream(case.scenario)
    if case.attack is not None:
        stream = apply_fma(stream, case.attack)
    stream = apply_distortions(stream, case.distortion, case.seed)
    return stream


def to_batch_case(case: Case) -> BatchCase:
    return BatchCase(case_id=case.case_id, stream=realize(case), label=case.label,
                     inception_index=case.inception_index)


def fma_case(kind: str, x: float, r_f: float, seed: int, case_id: str,
             snr_db: float | None = None, mirrored: bool = False) -> Case:
    """A masking attack hiding an internal fault; the injected constant is
    the eavesdropped healthy differential current.

    ``mirrored`` evaluates the relay at the far terminal instead: the
    corridor is flipped (sources swapped, position measured from the
    other end), which is the same computation in the mirrored frame.
    """
    base = default_scenario()
    if mirrored:
        scenario = LineScenario(
            line=base.line,
            source1=base.source2,
            source2=base.source1,
            fault=FaultSpec(kind, 1.0 - x, r_f, SWEEP_T_INCEPTION),
            duration_s=SWEEP_DURATION,
        )
    else:
        scenario = default_scenario(
            duration_s=SWEEP_DURATION,
            fault=FaultSpec(kind, x, r_f, SWEEP_T_INCEPTION),
        )
    c_a = healthy_reference(scenario).i_d
    return Case(
        case_id=case_id,
        scenario=scenario,
        attack=AttackSpec(BasicFMA(c_a=c_a), t_start=0.0),
        distortion=DistortionSpec(snr_db=snr_db),
        label=1,
        seed=seed,
        kind=f"fma:{kind}" + (":mirror" if mirrored else ""),
    )


def external_case(kind: str, x: float, r_f: float, terminal: int, seed: int,
                  case_id: str, snr_db: float | None = None,
                  saturate: bool = True) -> Case:
    """A fault on an adjacent line; the channel stays authentic."""
    scenario = default_scenario(
        duration_s=SWEEP_DURATION,
        external_fault=ExternalFaultSpec(
            terminal=terminal,
            fault=FaultSpec(kind, x, r_f, SWEEP_T_INCEPTION,
                            t_clear=SWEEP_T_INCEPTION + EXTERNAL_CLEAR_AFTER),
        ),
    )
    return Case(
        case_id=case_id,
        scenario=scenario,
        attack=None,
        distortion=DistortionSpec(
            snr_db=snr_db,
            ct_saturation=CTSaturationSpec() if saturate else None,
        ),
        label=0,
        seed=seed,
        kind=f"external:{kind}:t{terminal}",
    )


def _capacitor_bank_shunt(scenario: LineScenario,
                          voltage_step: float = 0.012) -> SequenceImpedance:
    """Shunt impedance of a reactive-support bank, sized so switching it
    moves the terminal voltage by roughly ``voltage_step`` through the
    source equivalent (the healthy margin of the first-stage detector
    stays untouched, as in the reference disturbance studies)."""
    z_th = abs(scenario.source2.z_th.positive)
    return SequenceImpedance.symmetric(-1j * z_th / voltage_step)


def disturbance_case(event_kind: str, seed: int, case_id: str,
                     snr_db: float | None = None) -> Case:
    """A healthy line with one network event (no fault, no attack).

    Event magnitudes emulate remote switching: terminal-voltage moves of
    a percent or two, well inside the detector's healthy margin.
    """
    base = default_scenario(duration_s=SWEEP_DURATION)
    rng = np.random.default_rng(seed)
    t_event = SWEEP_T_INCEPTION
    if event_kind == "shunt_switch":
        events = (ShuntSwitch(t=t_event, terminal=int(rng.integers(1, 3)),
                              z_shunt=_capacitor_bank_shunt(base)),)
    elif event_kind == "source_loss":
        events = (SourceStep(t=t_event, terminal=int(rng.integers(1, 3)),
                             factor=float(rng.uniform(0.985, 0.995))),)
    elif event_kind == "source_connect":
        events = (SourceStep(t=t_event, terminal=int(rng.integers(1, 3)),
                             factor=float(rng.uniform(1.005, 1.015))),)
    elif event_kind == "load_scale":
        events = (LoadScale(t=t_event, factor=float(rng.uniform(0.98, 1.02))),)
    else:
        raise ValueError(f"unknown disturbance kind {event_kind!r}")
    scenario = replace(base, events=events)
    return Case(
        case_id=case_id,
        scenario=scenario,
        attack=None,
        distortion=DistortionSpec(snr_db=snr_db),
        label=0,
        seed=seed,
        kind=f"disturbance:{event_kind}",
    )


def generate_sweep(spec: SweepSpec, seed: int) -> list:
    """Deterministic case list: the positive grid (or a sample of it)
    followed by the negative mix."""
    grid = [(k, x, r, False)
            for k, x, r in itertools.product(spec.kinds, spec.locations, spec.resistances)]
    if spec.both_directions:
        grid += [(k, x, r, True) for k, x, r, _ in grid]
    rng = np.random.default_rng(seed)
    if spec.positives is not None and spec.positives < len(grid):
        pick = rng.choice(len(grid), size=spec.positives, replace=False)
        grid = [grid[i] for i in sorted(pick)]

    cases = []
    index = 0
    for kind, x, r_f, mirrored in grid:
        cases.append(fma_case(kind, x, r_f, seed=case_seed(seed, index),
                              case_id=f"fma-{index:05d}", snr_db=spec.snr_db,
                              mirrored=mirrored))
        index += 1

    n_ext = int(round(spec.negatives * spec.negative_external_fraction))
    n_dist = spec.negatives - n_ext
    for j in range(n_ext):
        s = case_seed(seed, index)
        r = np.random.default_rng(s)
        kind = spec.kinds[int(r.integers(len(spec.kinds)))]
        x = spec.locations[int(r.integers(len(spec.locations)))]
        r_f = spec.resistances[int(r.integers(len(spec.resistances)))]
        terminal = spec.external_terminals[int(r.integers(len(spec.external_terminals)))]
        cases.append(external_case(kind, x, r_f, terminal, seed=s,
                                   case_id=f"ext-{index:05d}", snr_db=spec.snr_db,
                                   saturate=spec.saturate_externals))
        index += 1
    for j in range(n_dist):
        s = case_seed(seed, index)
        r = np.random.default_rng(s)
        event = DISTURBANCE_KINDS[int(r.integers(len(DISTURBANCE_KINDS)))]
        cases.append(disturbance_case(event, seed=s, case_id=f"dist-{index:05d}",
                                      snr_db=spec.snr_db))
        index += 1
    return cases


# --- splitting ---------------------------------------------------------------

def split_indices(labels, ratio: float = 0.7, seed: int = 0) -> tuple:
    """Stratified shuffled split into (train+validation, test) index arrays.

    Largest-remainder allocation keeps each class proportion within one
    item of the global ratio while the overall train size is exactly
    ``round(ratio * n)``.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError("split ratio must lie in (0, 1)")
    labels = np.asarray(labels)
    if labels.size == 0:
        raise InsufficientData("empty dataset")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise InsufficientData("both classes are required for a stratified split")
    rng = np.random.default_rng(seed)
    total_train = int(round(ratio * len(labels)))
    ideals = {cls: ratio * (labels == cls).sum() for cls in classes}
    takes = {cls: int(math.floor(v)) for cls, v in ideals.items()}
    shortfall = total_train - sum(takes.values())
    for cls in sorted(classes, key=lambda c: ideals[c] - takes[c], reverse=True):
        if shortfall <= 0:
            break
        takes[cls] += 1
        shortfall -= 1
    train_idx = []
    test_idx = []
    for cls in classes:
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        cut = takes[cls]
        train_idx.extend(idx[:cut].tolist())
        test_idx.extend(idx[cut:].tolist())
    return np.array(sorted(train_idx), dtype=int), np.array(sorted(test_idx), dtype=int)


# --- metrics -----------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float | None
    recall: float | None
    fn_rate: float | None
    fp_rate: float | None
    auc: float | None = None


def compute_metrics(counts: ConfusionCounts) -> MetricReport:
    """Accuracy, precision, recall and error rates with undefined guards.

    Ratios whose denominator is zero are reported as None rather than 0.
    """
    if counts.total == 0:
        raise UndefinedMetric("no evaluated cases")
    c = counts
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    fn_rate = c.fn / (c.fn + c.tp) if (c.fn + c.tp) > 0 else None
    fp_rate = c.fp / (c.fp + c.tn) if (c.fp + c.tn) > 0 else None
    return MetricReport(
        accuracy=(c.tp + c.tn) / c.total,
        precision=precision,
        recall=recall,
        fn_rate=fn_rate,
        fp_rate=fp_rate,
    )


def roc_auc(points) -> tuple:
    """Trapezoidal AUC over (fp_rate, tp_rate) points sorted by fp_rate.

    Returns ``(auc, sorted_points)``; callers include the corner points.
    """
    pts = sorted({(float(fp), float(tp)) for fp, tp in points})
    if len(pts) < 2:
        raise DegenerateCurve("need at least two distinct operating points")
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return auc, pts


# --- suite evaluation --------------------------------------------------------

def budget_samples(stream_or_scenario) -> int:
    """Two power cycles expressed in samples."""
    fs = stream_or_scenario.sample_rate_hz
    f0 = stream_or_scenario.system_freq_hz
    return int(math.floor(BUDGET_CYCLES * fs / f0))


def default_mi_config(f: float = MIConfig.f) -> MIConfig:
    return mi_config_for(default_scenario(), f=f)


def default_pipeline_config(model=None, f: float = MIConfig.f,
                            zcc_threshold: float = PipelineConfig.zcc_threshold) -> PipelineConfig:
    scenario = default_scenario()
    return PipelineConfig(
        line=scenario.line,
        relay=RelaySettings(),
        mi=default_mi_config(f),
        model=model,
        zcc_threshold=zcc_threshold,
    )


@dataclass
class MIOutcome:
    case_id: str
    label: int
    latched: bool
    latency_samples: int | None


def mi_only_outcomes(cases, f: float = 0.05, jobs: int = 1) -> list:
    """First-stage-only evaluation: latch or not, and how fast."""
    cfg = default_mi_config(f)
    streams = _realized(cases, jobs)
    outcomes = []
    for case, stream in zip(cases, streams):
        trace = mi_trace(compute_p_stream(stream, case.scenario.line, cfg).norms, cfg)
        latched = trace.latch_index is not None
        latency = None
        if latched and case.inception_index is not None:
            latency = int(trace.latch_index - case.inception_index)
        outcomes.append(MIOutcome(case.case_id, case.label, latched, latency))
    return outcomes


def mi_counts(outcomes, budget: int) -> ConfusionCounts:
    tp = sum(1 for o in outcomes if o.label == 1 and o.latched
             and o.latency_samples is not None and 0 <= o.latency_samples <= budget)
    fn = sum(1 for o in outcomes if o.label == 1) - tp
    fp = sum(1 for o in outcomes if o.label == 0 and o.latched)
    tn = sum(1 for o in outcomes if o.label == 0) - fp
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _realized(cases, jobs: int = 1):
    """The streams of ``cases`` in order, realized ``REALIZE_CHUNK`` at a
    time as they are consumed, so memory does not grow with the case count."""
    chunks = (cases[k:k + REALIZE_CHUNK] for k in range(0, len(cases), REALIZE_CHUNK))
    if jobs <= 1:
        for chunk in chunks:
            yield from [realize(c) for c in chunk]
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers start from a fresh import: forking a parent that
    # already runs BLAS threads is unsafe
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        for chunk in chunks:
            yield from pool.map(realize, chunk, chunksize=8)


def pipeline_outcomes(cases, cfg: PipelineConfig, jobs: int = 1) -> list:
    streams = _realized(cases, jobs)
    batch = (BatchCase(case_id=c.case_id, stream=s, label=c.label,
                       inception_index=c.inception_index)
             for c, s in zip(cases, streams))
    return batch_run(batch, cfg)


def pipeline_counts(rows, budget: int) -> ConfusionCounts:
    tp = sum(1 for r in rows if r.label == 1 and r.verdict(budget))
    fn = sum(1 for r in rows if r.label == 1) - tp
    fp = sum(1 for r in rows if r.label == 0 and r.fma_alarm)
    tn = sum(1 for r in rows if r.label == 0) - fp
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


# --- feature dataset ---------------------------------------------------------

def trigger_indices_for(case: Case, stream: Stream, cfg: MIConfig) -> list:
    """Feature alignment mirroring the online logic: every latch the
    detector would raise (with hold-off resumes and the clearance
    re-prime, at most ``MAX_TRIGGERS``), or a fixed point shortly after
    inception when it stays quiet."""
    norms = compute_p_stream(stream, case.scenario.line, cfg).norms
    scan = scan_mi(norms, cfg, len(stream), stream.meta.get("clear_index"),
                   holdoff_samples(stream), max_latches=MAX_TRIGGERS)
    if scan.latches:
        return [int(k) for k in scan.latches]
    if case.inception_index is not None:
        return [case.inception_index + cfg.t1 + 1]
    return [len(stream) // 2]


def build_dataset(cases, f: float = 0.05, jobs: int = 1) -> tuple:
    """Feature matrix (n, 108), labels and case ids for a case list.

    A case contributes one row per detector trigger, so the classifier
    trains on exactly the snapshot alignments it will be handed online.
    """
    cfg = default_mi_config(f)
    streams = _realized(cases, jobs)
    rows = []
    labels = []
    ids = []
    for case, stream in zip(cases, streams):
        triggers = np.clip(trigger_indices_for(case, stream, cfg),
                           pre_trigger_offset(stream), len(stream) - 1)
        rows.append(extract_features(stream, triggers).values)
        labels += [case.label] * len(triggers)
        ids += [case.case_id] * len(triggers)
    x = np.vstack(rows) if rows else np.zeros((0, FEATURE_DIM))
    return x, np.array(labels, dtype=int), ids


DATASET_CSV_SCHEMA = "fmaguard-dataset-v1"


def write_dataset_csv(path, x: np.ndarray, y: np.ndarray, ids) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={DATASET_CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["case_id", *feature_names(), "label"])
        for cid, row, label in zip(ids, x, y):
            writer.writerow([cid, *[repr(float(v)) for v in row], int(label)])


def read_dataset_csv(path) -> tuple:
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# schema="):
            fh.seek(0)
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    if header[0] != "case_id" or header[-1] != "label":
        raise ValueError("unexpected dataset header")
    ids = [r[0] for r in rows]
    x = np.array([[float(v) for v in r[1:-1]] for r in rows])
    y = np.array([int(r[-1]) for r in rows], dtype=int)
    return x, y, ids

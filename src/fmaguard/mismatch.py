"""Stage-1 detector: model-consistency residuals with a dynamic threshold.

Each frame is reduced to a four-component consistency vector per phase,
built from the healthy single-circuit line model (local voltage check,
series voltage drop, differential-current ratio).  The per-frame value
fed to the trailing means is the Euclidean norm over all elements of the
consistency vector, i.e. over the four components of all three phases,
mirroring how the relay itself evaluates every phase.  A short trailing
mean follows disturbances; a longer one, inflated by a safety factor,
acts as the adaptive healthy upper limit.  The detector latches when the
short mean reaches the limit.

Within each phase the phasors are rotated so the local current has zero
angle before the angle residual is formed; the angle residual divides by
the rotated measured voltage angle, which is guarded against near-zero
references.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .phasors import Phasor, wrap_angle_array, wrapped_angle
from .scenario import LineModel, LineScenario, Stream, healthy_reference

#: Guards of the consistency components: a reference angle (rad), a local
#: voltage magnitude (kV) or a local current (kA) below these is degenerate.
EPS_ANGLE_RAD = 1e-3
EPS_MAG_KV = 1e-6
EPS_CURRENT_KA = 1e-9


class DegenerateMeasurement(Exception):
    """Raised when degenerate-measurement substitutions exceed a burst limit."""


@dataclass(frozen=True)
class MIConfig:
    """Detector tuning: safety factor, window depths and the healthy
    differential-current reference."""

    i_d_n: Phasor
    f: float = 0.05
    t1: int = 9
    t2: int = 99

    def __post_init__(self) -> None:
        if not (0.0 < self.f < 1.0):
            raise ValueError("safety factor must lie in (0, 1)")
        if self.t2 < 5 * self.t1:
            raise ValueError("t2 must be at least five times t1")
        if self.i_d_n.magnitude <= 0:
            raise ValueError("healthy differential reference must be nonzero")


def mi_config_for(scenario: LineScenario, **kwargs) -> MIConfig:
    """MIConfig with the healthy differential reference of a scenario."""
    return MIConfig(i_d_n=healthy_reference(scenario).i_d, **kwargs)


@dataclass
class PTrace:
    """Vectorized consistency components for a whole stream."""

    components: np.ndarray  # (N, 3, 4) per phase
    phase_norms: np.ndarray  # (N, 3)
    norms: np.ndarray  # (N,) norm over all per-phase components
    degenerate: np.ndarray  # (N,) bool, any substitution in that frame
    substitutions: int


def _ffill(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Replace invalid entries with the last valid one along axis 0 (zero
    before the first valid one)."""
    if valid.all():
        return values
    idx = np.where(valid, np.arange(len(values))[:, None], -1)
    idx = np.maximum.accumulate(idx, axis=0)
    cols = np.arange(values.shape[1])[None, :]
    out = values[np.maximum(idx, 0), cols]
    return np.where(idx >= 0, out, 0.0)


def compute_p_components(v1: np.ndarray, i1: np.ndarray, i2: np.ndarray,
                         line: LineModel, cfg: MIConfig,
                         repeats: np.ndarray | None = None) -> PTrace:
    """Consistency components from (N, 3) per-phase measurement arrays.

    Each phase is checked against the healthy single-circuit model (its
    positive-sequence constants); a healthy balanced line satisfies the
    model exactly on every phase.  Guard violations (tiny local current,
    voltage magnitude or reference angle) substitute the affected
    component with its last valid value and are tallied in the result.

    ``repeats`` gives the number of consecutive frames each row stands
    for; the trace is expanded to that many frames and substitutions are
    counted per frame.
    """
    z_se = line.z_se.positive
    z_sh = line.z_sh.positive
    i_d = i1 + i2
    v1c = i1 * z_se + i_d * z_sh

    ok_current = np.abs(i1) >= EPS_CURRENT_KA
    mag_m = np.abs(v1)
    ok_mag = (mag_m >= EPS_MAG_KV) & ok_current
    # components, per phase: delta_vm, delta_va, v_drop, id_ratio
    comps = np.empty(ok_current.shape + (4,))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_vm = (np.abs(v1c) - mag_m) / mag_m

        # rotate each phase so its local current is the angle reference;
        # frames failing the current guard are masked by ok_ang, so their
        # reference angle is never used
        ref = np.exp(-1j * np.angle(i1))
        ang_m = wrapped_angle(v1 * ref)
        ang_c = wrapped_angle(v1c * ref)
        ok_ang = (np.abs(ang_m) >= EPS_ANGLE_RAD) & ok_current & (mag_m > 0)
        delta_va = wrap_angle_array(ang_c - ang_m) / ang_m

    comps[..., 0] = _ffill(np.where(ok_mag, delta_vm, 0.0), ok_mag)
    comps[..., 1] = _ffill(np.where(ok_ang, delta_va, 0.0), ok_ang)
    comps[..., 2] = np.abs(i_d * z_se)
    comps[..., 3] = np.abs(i_d) / cfg.i_d_n.magnitude

    squares = comps * comps
    phase_norms = np.sqrt(np.add.reduce(squares, axis=-1))
    norms = np.sqrt(np.add.reduce(squares, axis=(1, 2)))
    degenerate = ~(ok_mag & ok_ang).all(axis=1)
    if repeats is None:
        substitutions = 2 * ok_mag.size - np.count_nonzero(ok_mag) - np.count_nonzero(ok_ang)
        return PTrace(comps, phase_norms, norms, degenerate, substitutions=int(substitutions))
    per_row = (~ok_mag).sum(axis=1) + (~ok_ang).sum(axis=1)
    return PTrace(
        components=np.repeat(comps, repeats, axis=0),
        phase_norms=np.repeat(phase_norms, repeats, axis=0),
        norms=np.repeat(norms, repeats),
        degenerate=np.repeat(degenerate, repeats),
        substitutions=int(per_row @ repeats),
    )


def compute_p_stream(stream: Stream, line: LineModel, cfg: MIConfig) -> PTrace:
    """Consistency components for every frame of a stream.

    The components are evaluated once per run of identical consecutive
    frames and expanded, which is exact: every operation works frame by
    frame and the forward-fill validity mask is constant within a run.
    Identical means byte-identical ``v1``, ``i1`` and ``i2`` rows, so
    ``+0.0`` and ``-0.0`` differ.  A stream in which every frame differs
    from the one before, such as any noisy stream, is evaluated directly.
    """
    v1, i1, i2 = stream.v1, stream.i1, stream.i2
    n = len(v1)
    # A run needs two consecutive frames that agree on one element first;
    # this cheap necessary check keeps noisy streams off the row compare.
    probe = v1[:, 0].real.view(np.uint64)
    if np.any(probe[1:] == probe[:-1]):
        rows = np.concatenate([v1, i1, i2], axis=1).view(np.uint64)
        new_run = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1
        if len(new_run) < n - 1:
            starts = np.concatenate([[0], new_run])
            repeats = np.diff(starts, append=n)
            return compute_p_components(v1[starts], i1[starts], i2[starts], line, cfg,
                                        repeats=repeats)
    return compute_p_components(v1, i1, i2, line, cfg)


@dataclass
class MITrace:
    """Vectorized detector trace over a stream of norms."""

    m: np.ndarray
    l_u: np.ndarray
    o: np.ndarray  # latched output per sample
    latch_index: int | None
    baseline: float


def mi_trace(norms: np.ndarray, cfg: MIConfig, prime: float | None = None,
             suppress: int | None = None) -> MITrace:
    """Trailing means, threshold and latch over one segment of norms.

    Both trailing windows are pre-filled with ``prime`` (default: the
    first norm), so the means are defined from the first sample.  The
    latch is suppressed for the first ``suppress`` samples (default
    ``t2+1`` for a cold start) and holds once set.  ``baseline`` is the
    long mean of the sample before the latch (``prime`` if the latch is
    on the first sample), or of the last sample when nothing latches: it
    follows every sample before the latch, suppressed or not.
    ``pipeline.scan_mi`` drives this across latches and the clearance.
    """
    n = len(norms)
    if n == 0:
        return MITrace(np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool), None, prime or 0.0)
    fill = norms[0] if prime is None else prime
    if suppress is None:
        suppress = cfg.t2 + 1
    padded = np.concatenate([np.full(cfg.t2, fill), norms])
    csum = np.concatenate([[0.0], np.cumsum(padded)])
    # window ends csum[t2+1:], short starts csum[t2-t1:], long starts csum[:n]
    end = csum[cfg.t2 + 1:]
    m = (end - csum[cfg.t2 - cfg.t1:cfg.t2 - cfg.t1 + n]) / (cfg.t1 + 1)
    long_mean = (end - csum[:n]) / (cfg.t2 + 1)
    l_u = (1.0 + cfg.f) * long_mean

    fires = m >= l_u
    fires[:max(suppress, 0)] = False
    latch_index = int(np.argmax(fires)) if fires.any() else None
    o = np.zeros(n, dtype=bool)
    if latch_index is not None:
        o[latch_index:] = True
        baseline = long_mean[latch_index - 1] if latch_index > 0 else fill
    else:
        baseline = long_mean[-1]
    return MITrace(m=m, l_u=l_u, o=o, latch_index=latch_index, baseline=float(baseline))


MI_TRACE_CSV_SCHEMA = "fmaguard-mi-trace-v1"


def write_mi_trace_csv(path, t: np.ndarray, norms: np.ndarray, m: np.ndarray,
                       l_u: np.ndarray, o: np.ndarray) -> None:
    """Plot-ready detector trace: t, norm, short mean, threshold, latch."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={MI_TRACE_CSV_SCHEMA}\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "p_norm", "m", "l_u", "o"])
        for k in range(len(t)):
            writer.writerow([
                repr(float(t[k])),
                repr(float(norms[k])),
                repr(float(m[k])),
                repr(float(l_u[k])),
                int(o[k]),
            ])

"""Independent reference implementations used only by the tests.

These deliberately take different computational routes from the library:
the network oracle assembles one dense phase-domain MNA system (no
sequence decomposition, no Thevenin reduction, no superposition), the
relay oracle re-codes the characteristic as scalar branches, the
feature oracle computes one snapshot at a time, the mismatch-index
oracle is a sample-by-sample state machine with ring buffers, and the
gradient oracle uses central finite differences.  The angle-wrap and
consistency-component references keep the plain formulation the tuned
library kernels must match bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from fmaguard.features import CURRENT_FLOOR_KA, IMPEDANCE_SENTINEL, pre_trigger_offset
from fmaguard.mismatch import EPS_ANGLE_RAD, EPS_CURRENT_KA, EPS_MAG_KV, PTrace, _ffill
from fmaguard.phasors import ALPHA, ALPHA2, A_PHASE, A_SEQ, TWO_PI, abc_to_seq_array, wrap_angle_array
from fmaguard.scenario import FaultSpec, LineModel, SourceEquivalent
from fmaguard.sequence_network import FAULT_KINDS, SequenceImpedance


def y_block(z: SequenceImpedance) -> np.ndarray:
    """3x3 phase-domain admittance of a sequence-decoupled element."""
    y_seq = np.diag([1.0 / z.zero, 1.0 / z.positive, 1.0 / z.negative])
    return A_PHASE @ y_seq @ (A_SEQ / 3.0)


def balanced_emf(e_pos: complex) -> np.ndarray:
    return np.array([e_pos, ALPHA2 * e_pos, ALPHA * e_pos])


def dense_fault_solve(line: LineModel, source1: SourceEquivalent,
                      source2: SourceEquivalent, fault: FaultSpec):
    """Dense phase-domain MNA solve of the faulted two-source T-network.

    Returns a dict with per-phase v1, v2, i1, i2 and the fault branch
    currents, for comparison against the library's sequence-domain path.
    """
    x = fault.x
    z_se = line.z_se
    # node layout mirrors the T-model with the fault inserted at x
    if abs(x - 0.5) < 1e-12:
        nodes = ["bus1", "fault", "bus2"]
        branches = [("bus1", "fault", z_se), ("fault", "bus2", z_se)]
        shunts = [("fault", line.z_sh)]
        first = ("bus1", "fault", z_se)
        last = ("bus2", "fault", z_se)
    elif x < 0.5:
        nodes = ["bus1", "fault", "mid", "bus2"]
        branches = [("bus1", "fault", z_se.scaled(2 * x)),
                    ("fault", "mid", z_se.scaled(1 - 2 * x)),
                    ("mid", "bus2", z_se)]
        shunts = [("mid", line.z_sh)]
        first = ("bus1", "fault", z_se.scaled(2 * x))
        last = ("bus2", "mid", z_se)
    else:
        nodes = ["bus1", "mid", "fault", "bus2"]
        branches = [("bus1", "mid", z_se),
                    ("mid", "fault", z_se.scaled(2 * x - 1)),
                    ("fault", "bus2", z_se.scaled(2 - 2 * x))]
        shunts = [("mid", line.z_sh)]
        first = ("bus1", "mid", z_se)
        last = ("bus2", "fault", z_se.scaled(2 - 2 * x))

    sources = [("bus1", source1), ("bus2", source2)]
    style, phases = FAULT_KINDS[fault.kind]
    if style == "ground":
        fault_branches = [("ground", p) for p in phases]
    else:
        fault_branches = [("line", phases)]

    n = len(nodes)
    dim = 3 * n + len(fault_branches)
    mat = np.zeros((dim, dim), dtype=complex)
    rhs = np.zeros(dim, dtype=complex)

    def vslice(name):
        k = nodes.index(name)
        return slice(3 * k, 3 * k + 3)

    for u, v, z in branches:
        yb = y_block(z)
        su, sv = vslice(u), vslice(v)
        mat[su, su] += yb
        mat[sv, sv] += yb
        mat[su, sv] -= yb
        mat[sv, su] -= yb
    for u, z in shunts:
        su = vslice(u)
        mat[su, su] += y_block(z)
    for u, src in sources:
        su = vslice(u)
        yb = y_block(src.z_th)
        mat[su, su] += yb
        rhs[3 * nodes.index(u):3 * nodes.index(u) + 3] += yb @ balanced_emf(src.emf.as_complex)

    sf = nodes.index("fault")
    for k, fb in enumerate(fault_branches):
        row = 3 * n + k
        if fb[0] == "ground":
            p = fb[1]
            mat[3 * sf + p, row] += 1.0  # branch current leaves the node
            mat[row, 3 * sf + p] = 1.0
            mat[row, row] = -fault.r_f
        else:
            p, q = fb[1]
            mat[3 * sf + p, row] += 1.0
            mat[3 * sf + q, row] -= 1.0
            mat[row, 3 * sf + p] = 1.0
            mat[row, 3 * sf + q] = -1.0
            mat[row, row] = -fault.r_f

    sol = np.linalg.solve(mat, rhs)
    v = {name: sol[vslice(name)] for name in nodes}
    i_br = sol[3 * n:]

    def branch_current(u, vname, z):
        return y_block(z) @ (v[u] - v[vname])

    i_fault = np.zeros(3, dtype=complex)
    for k, fb in enumerate(fault_branches):
        if fb[0] == "ground":
            i_fault[fb[1]] += i_br[k]
        else:
            p, q = fb[1]
            i_fault[p] += i_br[k]
            i_fault[q] -= i_br[k]

    return {
        "v1": v["bus1"],
        "v2": v["bus2"],
        "v_fault": v["fault"],
        "i1": branch_current(*first),
        "i2": branch_current(*last),
        "i_fault": i_fault,
    }


def relay_trip_oracle(i_d_mag: float, i_r: float, i_d0: float, i_b: float,
                      k1: float, k2: float) -> bool:
    """Scalar re-coding of the dual-slope trip characteristic."""
    if i_r <= i_b:
        threshold = i_d0 + k1 * i_r
    else:
        threshold = i_d0 + k1 * i_b + k2 * (i_r - i_b)
    return i_d_mag >= threshold


class MIReference:
    """Scalar mismatch-index state machine fed one norm at a time.

    Ring buffers of the last ``t1+1`` and ``t2+1`` norms are pre-filled
    with ``prime`` (default: the first norm), so both means are defined
    from the first sample.  The latch is suppressed for the first
    ``suppress`` samples (default ``t2+1``, a cold start) and holds once
    set.  ``baseline`` starts at the fill value and takes the long mean
    of every sample before the latch, suppressed or not; it is the level
    a re-prime starts from.
    """

    def __init__(self, cfg, prime: float | None = None, suppress: int | None = None):
        self.cfg = cfg
        self.prime = prime
        self.suppress = cfg.t2 + 1 if suppress is None else suppress
        self.samples = 0
        self.latched = False
        self.baseline = prime
        self.short = None
        self.long = None

    def update(self, value: float) -> tuple:
        """Feed one norm; returns ``(m, l_u, latched)``."""
        cfg = self.cfg
        if self.long is None:
            fill = value if self.prime is None else self.prime
            self.short = deque([fill] * (cfg.t1 + 1), maxlen=cfg.t1 + 1)
            self.long = deque([fill] * (cfg.t2 + 1), maxlen=cfg.t2 + 1)
            self.baseline = fill
        self.short.append(value)
        self.long.append(value)
        m = math.fsum(self.short) / (cfg.t1 + 1)
        long_mean = math.fsum(self.long) / (cfg.t2 + 1)
        l_u = (1.0 + cfg.f) * long_mean
        if not self.latched:
            if self.samples >= self.suppress and m >= l_u:
                self.latched = True
            else:
                self.baseline = long_mean
        self.samples += 1
        return m, l_u, self.latched


def scan_reference(norms, cfg, stop: int, clear_index, holdoff: int,
                   max_latches: int = 32) -> tuple:
    """Frame-by-frame drive of :class:`MIReference` under the online policy.

    Cold start.  A latched detector keeps running through its hold-off;
    ``holdoff`` frames after the latch a new detector is primed from its
    baseline with no suppression.  At ``clear_index`` a detector primed
    before it re-primes the same way if it is unlatched; if it is latched
    its segment ends there and the frames up to the next re-prime report
    0.  After ``max_latches`` latches the detector runs to the end of its
    segment.  Returns ``(m, l_u, latches, reset_index)``.
    """
    n = len(norms)
    m, l_u = np.zeros(n), np.zeros(n)
    latches, reset_index = [], None
    det, primed_at, resume, watching = MIReference(cfg), 0, None, True
    for k in range(stop):
        if k == resume:
            det, primed_at, resume, watching = MIReference(cfg, det.baseline, 0), k, None, True
        elif k == clear_index and primed_at < k:
            if det.latched:
                watching = False
            else:
                det, primed_at, reset_index = MIReference(cfg, det.baseline, 0), k, k
        if not watching:
            continue
        was_latched = det.latched
        m[k], l_u[k], latched = det.update(float(norms[k]))
        if latched and not was_latched:
            latches.append(k)
            if len(latches) < max_latches:
                resume = k + holdoff
    return m, l_u, latches, reset_index


def snapshot_features(v_abc: np.ndarray, i_abc: np.ndarray) -> tuple:
    """54 zone-classifier features of one snapshot from its (3,) phase
    arrays; returns (values, degenerate count)."""
    v = np.concatenate([v_abc, abc_to_seq_array(v_abc)])
    i = np.concatenate([i_abc, abc_to_seq_array(i_abc)])

    v_mag = np.abs(v)
    i_mag = np.abs(i)
    v_ang = wrap_angle_array(np.angle(v))
    i_ang = wrap_angle_array(np.angle(i))

    ok = i_mag >= CURRENT_FLOOR_KA
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(ok, v / np.where(ok, i, 1.0), 0.0)
    z_mag = np.where(ok, np.abs(z), IMPEDANCE_SENTINEL)
    z_ang = np.where(ok, wrap_angle_array(np.angle(z)), 0.0)
    z_re = np.where(ok, z.real, IMPEDANCE_SENTINEL)
    z_im = np.where(ok, z.imag, 0.0)

    rows = [v_mag, i_mag, v_ang, i_ang, wrap_angle_array(v_ang - i_ang),
            z_mag, z_ang, z_re, z_im]
    return np.concatenate(rows), int((~ok).sum())


def trigger_features(stream, trigger_index: int) -> tuple:
    """108 features of one trigger, snapshot by snapshot: (values, degenerate count)."""
    pre_index = trigger_index - pre_trigger_offset(stream)
    pre, bad_pre = snapshot_features(stream.v1[pre_index], stream.i1[pre_index])
    post, bad_post = snapshot_features(stream.v1[trigger_index], stream.i1[trigger_index])
    return np.concatenate([pre, post]), bad_pre + bad_post


def finite_difference_grads(loss_fn, model, step: float = 1e-6):
    """Central-difference gradients of a scalar loss over model weights."""
    grads_w = []
    grads_b = []
    for w in model.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + step
            up = loss_fn()
            w[idx] = orig - step
            down = loss_fn()
            w[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads_w.append(g)
    for b in model.biases:
        g = np.zeros_like(b)
        for idx in range(len(b)):
            orig = b[idx]
            b[idx] = orig + step
            up = loss_fn()
            b[idx] = orig - step
            down = loss_fn()
            b[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads_b.append(g)
    return grads_w, grads_b


def wrap_angle_mod(angles) -> np.ndarray:
    """Wrap to (-pi, pi] through ``np.mod``, the formulation that
    ``phasors.wrapped_angle`` shortcuts for ``np.angle`` results."""
    w = np.mod(np.asarray(angles) + np.pi, TWO_PI) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def p_components_reference(v1: np.ndarray, i1: np.ndarray, i2: np.ndarray,
                           line: LineModel, cfg, repeats: np.ndarray | None = None) -> PTrace:
    """``mismatch.compute_p_components`` in its plain form: guarded
    reference rotation on every frame, ``np.mod`` angle wraps, stacked
    components and separate squares per norm."""
    z_se = line.z_se.positive
    z_sh = line.z_sh.positive
    i_d = i1 + i2
    v1c = i1 * z_se + i_d * z_sh

    ok_current = np.abs(i1) >= EPS_CURRENT_KA
    mag_m = np.abs(v1)
    ok_mag = (mag_m >= EPS_MAG_KV) & ok_current
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_vm = (np.abs(v1c) - mag_m) / mag_m

    ref = np.where(ok_current, np.exp(-1j * np.angle(np.where(ok_current, i1, 1.0))), 1.0)
    ang_m = wrap_angle_mod(np.angle(v1 * ref))
    ang_c = wrap_angle_mod(np.angle(v1c * ref))
    ok_ang = (np.abs(ang_m) >= EPS_ANGLE_RAD) & ok_current & (mag_m > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_va = wrap_angle_mod(ang_c - ang_m) / ang_m

    v_drop = np.abs(i_d * z_se)
    id_ratio = np.abs(i_d) / cfg.i_d_n.magnitude

    delta_vm = _ffill(np.where(ok_mag, delta_vm, 0.0), ok_mag)
    delta_va = _ffill(np.where(ok_ang, delta_va, 0.0), ok_ang)

    comps = np.stack([delta_vm, delta_va, v_drop, id_ratio], axis=-1)
    phase_norms = np.sqrt(np.sum(comps**2, axis=-1))
    norms = np.sqrt(np.sum(comps**2, axis=(1, 2)))
    degenerate = ~(ok_mag & ok_ang).all(axis=1)
    subs = (~ok_mag).sum(axis=1) + (~ok_ang).sum(axis=1)
    if repeats is None:
        return PTrace(comps, phase_norms, norms, degenerate, substitutions=int(subs.sum()))
    return PTrace(
        components=np.repeat(comps, repeats, axis=0),
        phase_norms=np.repeat(phase_norms, repeats, axis=0),
        norms=np.repeat(norms, repeats),
        degenerate=np.repeat(degenerate, repeats),
        substitutions=int(subs @ repeats),
    )

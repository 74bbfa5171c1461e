"""Per-sequence linear network solver used by the scenario engine.

A network is a small collection of buses joined by series impedance
branches, with shunt impedances to ground and EMF-behind-impedance
sources.  Every element carries independent zero/positive/negative
sequence impedances, so the network decouples into three single-phase
nodal problems.  Faults couple the sequences only at the fault bus and
are resolved by solving the three phase-domain boundary conditions for
the sequence fault currents, then superposing the injection response.

The three sequence admittance matrices are assembled once as a
``(3, n, n)`` stack.  The conditioning guard checks all three in one
batched call, and ``fault_bus_response`` gets the pre-fault voltages and
the fault-bus driving-point responses of every sequence from one stacked
linear solve.  That half of a fault solve depends only on the network
and the fault bus; the fault kind and resistance enter only the 3x3
boundary system that ``solve_fault`` then solves and superposes.  One
response therefore serves every kind and resistance at a location, with
the same bits as solving each fault from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phasors import A_PHASE

COND_LIMIT = 1e12

#: Fault kinds: phases involved and whether the path is to ground or phase-phase.
#: Phase indices are 0=a, 1=b, 2=c.
FAULT_KINDS = {
    "AG": ("ground", (0,)),
    "BG": ("ground", (1,)),
    "CG": ("ground", (2,)),
    "AB": ("line", (0, 1)),
    "BC": ("line", (1, 2)),
    "CA": ("line", (2, 0)),
    "ABG": ("ground", (0, 1)),
    "BCG": ("ground", (1, 2)),
    "CAG": ("ground", (2, 0)),
    # A symmetrical fault draws no zero-sequence current from a balanced
    # network, so the grounded and ungrounded variants solve identically.
    "ABC": ("ground", (0, 1, 2)),
    "ABCG": ("ground", (0, 1, 2)),
}


class SingularNetwork(Exception):
    """A nodal system is ill-conditioned beyond COND_LIMIT.

    All three sequence matrices are checked, in one call, before any
    solve; a fault solve also checks its boundary system.
    """


class UnsupportedFault(Exception):
    """Fault kind outside the supported eleven types."""


@dataclass(frozen=True)
class SequenceImpedance:
    """Zero/positive/negative sequence impedances of one element (ohm)."""

    zero: complex
    positive: complex
    negative: complex

    @classmethod
    def symmetric(cls, z: complex) -> "SequenceImpedance":
        return cls(z, z, z)

    @classmethod
    def from_positive(cls, z1: complex, k0: complex = 1.0) -> "SequenceImpedance":
        """Negative equals positive; zero scaled by ``k0``."""
        return cls(k0 * z1, z1, z1)

    def __getitem__(self, s: int) -> complex:
        return (self.zero, self.positive, self.negative)[s]

    def scaled(self, factor: complex) -> "SequenceImpedance":
        return SequenceImpedance(self.zero * factor, self.positive * factor, self.negative * factor)


@dataclass
class SeqNetwork:
    """Nodal description shared by the three sequence networks."""

    nodes: list = field(default_factory=list)
    branches: list = field(default_factory=list)  # (u, v, SequenceImpedance)
    shunts: list = field(default_factory=list)  # (u, SequenceImpedance)
    sources: list = field(default_factory=list)  # (u, emf_positive: complex, SequenceImpedance)

    def add_node(self, name: str) -> str:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name}")
        self.nodes.append(name)
        return name

    def add_branch(self, u: str, v: str, z: SequenceImpedance) -> None:
        self.branches.append((u, v, z))

    def add_shunt(self, u: str, z: SequenceImpedance) -> None:
        self.shunts.append((u, z))

    def add_source(self, u: str, emf: complex, z_th: SequenceImpedance) -> None:
        self.sources.append((u, emf, z_th))


@dataclass
class FaultSolution:
    """Steady state of a faulted network.

    ``node_v[s]`` maps node name to its sequence-``s`` voltage.  Fault
    currents flow from the fault bus into the fault path.
    """

    node_v: list  # [dict, dict, dict] per sequence
    i_fault_seq: np.ndarray  # (3,) sequence currents into the fault
    i_fault_abc: np.ndarray  # (3,) phase currents into the fault
    v_fault_abc: np.ndarray  # (3,) phase voltages at the fault bus
    z_thevenin: np.ndarray  # (3,) driving-point impedance at the fault bus
    network: SeqNetwork

    def branch_current_seq(self, u: str, v: str, z: SequenceImpedance, s: int) -> complex:
        """Current flowing u -> v through a series branch."""
        return (self.node_v[s][u] - self.node_v[s][v]) / z[s]

    def branch_current_abc(self, u: str, v: str, z: SequenceImpedance) -> np.ndarray:
        seq = np.array([self.branch_current_seq(u, v, z, s) for s in range(3)])
        return A_PHASE @ seq

    def node_v_abc(self, name: str) -> np.ndarray:
        seq = np.array([self.node_v[s][name] for s in range(3)])
        return A_PHASE @ seq


def _boundary_rows(kind: str, r_f: float, z_th: np.ndarray, v_oc: np.ndarray):
    """Assemble the 3x3 phase-domain boundary system ``M @ i_seq = b``.

    Unknowns are the sequence fault currents.  Phase quantities at the
    fault bus are ``v_abc = A_PHASE @ (v_oc - z_th * i_seq)`` and
    ``i_abc = A_PHASE @ i_seq``.
    """
    style, phases = FAULT_KINDS[kind]
    m = np.zeros((3, 3), dtype=complex)
    b = np.zeros(3, dtype=complex)
    row = 0
    if style == "ground":
        for p in range(3):
            ap = A_PHASE[p, :]
            if p in phases:
                # v_p = r_f * i_p
                m[row, :] = ap * (z_th + r_f)
                b[row] = ap @ v_oc
            else:
                # unfaulted phase carries no fault current
                m[row, :] = ap
                b[row] = 0.0
            row += 1
    else:
        p, q = phases
        r = ({0, 1, 2} - {p, q}).pop()
        # third phase open
        m[0, :] = A_PHASE[r, :]
        # the two faulted phases form a loop
        m[1, :] = A_PHASE[p, :] + A_PHASE[q, :]
        # v_p - v_q = r_f * i_p
        m[2, :] = (A_PHASE[p, :] - A_PHASE[q, :]) * z_th + r_f * A_PHASE[p, :]
        b[2] = (A_PHASE[p, :] - A_PHASE[q, :]) @ v_oc
    return m, b


def _nodal_system(network: SeqNetwork) -> tuple:
    """Sequence admittances ``(3, n, n)``, positive-sequence source
    injections ``(n,)`` and the node -> row index.

    Raises SingularNetwork when any of the three sequence matrices has a
    condition number above COND_LIMIT; all three are checked in one call.
    """
    index = {name: k for k, name in enumerate(network.nodes)}
    n = len(index)
    # Accumulated as Python scalars (same rounding as complex128 adds),
    # which is cheaper than element-wise numpy indexing.
    y = [[[0j] * n for _ in range(n)] for _ in range(3)]
    j = [0j] * n
    for u, v, z in network.branches:
        iu, iv = index[u], index[v]
        for s, ys in enumerate(y):
            yb = 1.0 / z[s]
            ys[iu][iu] += yb
            ys[iv][iv] += yb
            ys[iu][iv] -= yb
            ys[iv][iu] -= yb
    for u, z in network.shunts:
        iu = index[u]
        for s, ys in enumerate(y):
            ys[iu][iu] += 1.0 / z[s]
    for u, emf, z in network.sources:
        iu = index[u]
        for s, ys in enumerate(y):
            ys[iu][iu] += 1.0 / z[s]
        j[iu] += emf / z[1]
    y = np.array(y, dtype=complex)
    j = np.array(j, dtype=complex)
    bad = np.flatnonzero(np.linalg.cond(y) > COND_LIMIT)
    if bad.size:
        raise SingularNetwork(f"sequence-{bad[0]} nodal system is ill-conditioned")
    return y, j, index


@dataclass(frozen=True)
class FaultBusResponse:
    """The part of a fault solve that depends only on the network and the
    fault bus; every array is read-only.

    ``v_pre[s]`` are the pre-fault sequence node voltages, ``response[s]``
    the node voltages per unit current injected at the fault bus, and
    ``z_th[s]`` the driving-point impedance at the fault bus.
    """

    fault_index: int
    v_pre: np.ndarray  # (3, n)
    response: np.ndarray  # (3, n)
    z_th: np.ndarray  # (3,)


def fault_bus_response(network: SeqNetwork, fault_node: str) -> FaultBusResponse:
    """Pre-fault voltages and fault-bus responses of all three sequences.

    Raises SingularNetwork when a sequence nodal matrix is ill-conditioned.
    """
    y, j, index = _nodal_system(network)
    idx_f = index[fault_node]
    # Per sequence, column 0 is the source injection (positive sequence
    # only) and column 1 a unit injection at the fault bus.
    rhs = np.zeros((3, len(index), 2), dtype=complex)
    rhs[1, :, 0] = j
    rhs[:, idx_f, 1] = 1.0
    x = np.linalg.solve(y, rhs)
    x.flags.writeable = False
    z_th = x[:, idx_f, 1].copy()
    z_th.flags.writeable = False
    return FaultBusResponse(fault_index=idx_f, v_pre=x[:, :, 0], response=x[:, :, 1], z_th=z_th)


def solve_fault(network: SeqNetwork, fault_node: str, kind: str, r_f: float,
                response: FaultBusResponse | None = None) -> FaultSolution:
    """Solve a shunt fault of the given kind at ``fault_node``.

    The three sequence networks are interconnected at the fault bus by the
    fault kind's boundary conditions (series path for single-line-ground,
    phase loop for line-line, one path per phase for multi-ground faults).
    ``response`` is ``fault_bus_response(network, fault_node)``, computed
    here when not given.
    """
    if kind not in FAULT_KINDS:
        raise UnsupportedFault(f"unknown fault kind {kind!r}")
    if r_f < 0:
        raise ValueError("fault resistance must be non-negative")
    if response is None:
        response = fault_bus_response(network, fault_node)

    z_th = response.z_th
    v_oc = np.array([0.0, response.v_pre[1, response.fault_index], 0.0], dtype=complex)
    m, b = _boundary_rows(kind, r_f, z_th, v_oc)
    if np.linalg.cond(m) > COND_LIMIT:
        raise SingularNetwork("fault boundary system is ill-conditioned")
    i_seq = np.linalg.solve(m, b)

    v = response.v_pre - response.response * i_seq[:, None]
    node_v = [dict(zip(network.nodes, v[s])) for s in range(3)]
    v_fault_seq = v_oc - z_th * i_seq
    return FaultSolution(
        node_v=node_v,
        i_fault_seq=i_seq,
        i_fault_abc=A_PHASE @ i_seq,
        v_fault_abc=A_PHASE @ v_fault_seq,
        z_thevenin=z_th,
        network=network,
    )


def solve_unfaulted(network: SeqNetwork) -> FaultSolution:
    """Steady state with no fault: zero fault current, same result layout."""
    y, j, _index = _nodal_system(network)
    v1 = np.linalg.solve(y[1], j)
    dead = np.zeros(len(network.nodes), dtype=complex)
    node_v = [dict(zip(network.nodes, v_s)) for v_s in (dead, v1, dead)]
    zeros = np.zeros(3, dtype=complex)
    return FaultSolution(
        node_v=node_v,
        i_fault_seq=zeros.copy(),
        i_fault_abc=zeros.copy(),
        v_fault_abc=zeros.copy(),
        z_thevenin=zeros.copy(),
        network=network,
    )

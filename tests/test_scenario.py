import numpy as np
import pytest

import fmaguard.harness as hn

from oracles import dense_fault_solve

from fmaguard.phasors import positive_sequence
from fmaguard.scenario import (
    BUS1,
    ExternalFaultSpec,
    FaultSpec,
    LineScenario,
    LoadScale,
    ShuntSwitch,
    SourceStep,
    calibrated_operating_point,
    default_line,
    default_scenario,
    default_sources,
    generate_stream,
    healthy_reference,
    solve_faulted,
    solve_healthy,
    _apply_events,
    _faulted_network,
    _segment_state,
)
from fmaguard.sequence_network import (
    FAULT_KINDS,
    SeqNetwork,
    SequenceImpedance,
    SingularNetwork,
    UnsupportedFault,
    solve_fault,
    solve_unfaulted,
)

LINE = default_line()
S1, S2 = default_sources()


class TestCalibration:
    def test_line_constants_plausible(self):
        op = calibrated_operating_point()
        assert 20 < abs(op.z_se) < 35  # half-line series impedance, ohm
        assert op.z_se.imag > 0
        assert 2000 < abs(op.z_sh) < 5000
        assert op.z_sh.imag < 0  # capacitive

    def test_reproduces_reported_operating_point(self):
        h = healthy_reference(default_scenario())
        assert h.i_d.magnitude == pytest.approx(0.046, rel=0.10)
        assert h.v1.magnitude == pytest.approx(138.103, rel=0.05)
        assert h.v2.magnitude == pytest.approx(141.963, rel=0.05)
        assert h.i1.magnitude == pytest.approx(0.29, rel=0.05)
        assert h.i2.magnitude == pytest.approx(0.273, rel=0.05)

    def test_healthy_state_satisfies_model_equations(self):
        h = healthy_reference(default_scenario())
        z_se = LINE.z_se.positive
        z_sh = LINE.z_sh.positive
        # local loop: v1 = i1 z_se + (i1 + i2) z_sh
        lhs = h.v1.as_complex
        rhs = h.i1.as_complex * z_se + h.i_d.as_complex * z_sh
        assert abs(lhs - rhs) / abs(lhs) < 1e-12
        # charging current equals the midpoint shunt current
        assert abs(h.i_d.as_complex - h.v_mid.as_complex / z_sh) < 1e-12


class TestSolveHealthy:
    def test_symmetric_sources_balance(self):
        s1, s2 = default_sources()
        sym = s1
        h = solve_healthy(LINE, sym, sym)
        # identical EMFs: currents split the charging evenly
        assert abs(h.i1.as_complex - h.i2.as_complex) < 1e-12

    def test_zero_emf_gives_dead_network(self):
        from fmaguard.phasors import Phasor
        from fmaguard.scenario import SourceEquivalent

        dead = SourceEquivalent(emf=Phasor(), z_th=S1.z_th)
        h = solve_healthy(LINE, dead, dead)
        for q in (h.v1, h.v2, h.i1, h.i2):
            assert q.magnitude < 1e-15

    def test_singular_network_raises(self):
        # an absurdly large midpoint shunt makes the two loop equations
        # numerically indistinguishable
        from dataclasses import replace

        bad_line = replace(LINE, z_sh=SequenceImpedance.symmetric(-1e16j))
        with pytest.raises(SingularNetwork):
            solve_healthy(bad_line, S1, S2)


def _near_floating_network(s: int) -> SeqNetwork:
    """A source bus plus a bus hanging off a branch that is all but open
    in sequence ``s`` only."""
    net = SeqNetwork()
    net.add_node("bus")
    net.add_node("far")
    net.add_source("bus", 100.0 + 0j, SequenceImpedance.symmetric(10j))
    z = [10j, 10j, 10j]
    z[s] = 1e16j
    net.add_branch("bus", "far", SequenceImpedance(*z))
    net.add_shunt("far", SequenceImpedance.symmetric(1e16j))
    return net


class TestSingularSequenceNetwork:
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_solve_fault_checks_every_sequence(self, s):
        with pytest.raises(SingularNetwork, match=f"sequence-{s}"):
            solve_fault(_near_floating_network(s), "bus", "AG", 1.0)

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_solve_unfaulted_checks_every_sequence(self, s):
        with pytest.raises(SingularNetwork, match=f"sequence-{s}"):
            solve_unfaulted(_near_floating_network(s))


class TestSolveFaulted:
    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    @pytest.mark.parametrize("x", [0.15, 0.5, 0.85])
    @pytest.mark.parametrize("r_f", [0.001, 10.0, 100.0])
    def test_boundary_conditions(self, kind, x, r_f):
        *_, sol = solve_faulted(LINE, S1, S2, FaultSpec(kind, x, r_f, 0.1))
        v = sol.v_fault_abc
        i = sol.i_fault_abc
        scale = max(np.abs(v).max(), 1.0)
        style, phases = FAULT_KINDS[kind]
        if style == "ground":
            for p in range(3):
                if p in phases:
                    assert abs(v[p] - r_f * i[p]) / scale < 1e-8
                else:
                    assert abs(i[p]) / max(np.abs(i).max(), 1e-9) < 1e-8
        else:
            p, q = phases
            r = ({0, 1, 2} - {p, q}).pop()
            assert abs(i[p] + i[q]) / max(np.abs(i).max(), 1e-9) < 1e-8
            assert abs(i[r]) / max(np.abs(i).max(), 1e-9) < 1e-8
            assert abs(v[p] - v[q] - r_f * i[p]) / scale < 1e-8

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_sequence_kcl_at_fault_node(self, kind):
        """Currents into the fault bus from its branches equal the fault
        injection, per sequence."""
        fault = FaultSpec(kind, 0.3, 5.0, 0.1)
        *_, sol = solve_faulted(LINE, S1, S2, fault)
        net = sol.network
        fault_idx = "fault"
        for s in range(3):
            into = 0.0
            for u, v, z in net.branches:
                if u == fault_idx:
                    into -= sol.branch_current_seq(u, v, z, s)
                elif v == fault_idx:
                    into += sol.branch_current_seq(u, v, z, s)
            for u, z in net.shunts:
                if u == fault_idx:
                    into -= sol.node_v[s][u] / z[s]
            residual = abs(into - sol.i_fault_seq[s])
            assert residual / max(abs(sol.i_fault_seq[s]), 1e-6) < 1e-8

    def test_bolted_three_phase_collapses_voltage(self):
        v1, *_ = solve_faulted(LINE, S1, S2, FaultSpec("ABC", 0.05, 0.0, 0.1))
        v1_pos = positive_sequence(v1.as_array()[None, :])[0]
        healthy = healthy_reference(default_scenario()).v1.magnitude
        assert abs(v1_pos) < 0.05 * healthy

    def test_open_fault_recovers_healthy(self):
        v1, v2, i1, i2, i_f, _ = solve_faulted(LINE, S1, S2, FaultSpec("AG", 0.5, 1e9, 0.1))
        h = healthy_reference(default_scenario())
        assert abs(i1.a.as_complex - h.i1.as_complex) / abs(h.i1.as_complex) < 1e-6
        assert abs(v1.a.as_complex - h.v1.as_complex) / abs(h.v1.as_complex) < 1e-6

    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_monotone_fault_current_in_resistance(self, x):
        mags = []
        for r_f in [0.0, 1.0, 5.0, 20.0, 80.0, 300.0]:
            *_, sol = solve_faulted(LINE, S1, S2, FaultSpec("AG", x, r_f, 0.1))
            mags.append(abs(sol.i_fault_abc[0]))
        assert all(a >= b - 1e-12 for a, b in zip(mags[:-1], mags[1:]))

    def test_unsupported_fault_kind(self):
        with pytest.raises(UnsupportedFault):
            FaultSpec("AGX", 0.5, 0.0, 0.1)


class TestDenseOracle:
    @pytest.mark.parametrize("kind", ["AG", "BC", "CAG", "ABCG"])
    @pytest.mark.parametrize("x,r_f", [(0.1, 0.001), (0.5, 10.0), (0.8, 100.0)])
    def test_matches_dense_network_solve(self, kind, x, r_f):
        fault = FaultSpec(kind, x, r_f, 0.1)
        v1, v2, i1, i2, i_f, _ = solve_faulted(LINE, S1, S2, fault)
        ref = dense_fault_solve(LINE, S1, S2, fault)
        for got, want in [(v1, "v1"), (v2, "v2"), (i1, "i1"), (i2, "i2"), (i_f, "i_fault")]:
            g = got.as_array()
            w = ref[want]
            scale = max(np.abs(w).max(), 1e-9)
            assert np.abs(g - w).max() / scale < 1e-8, want


class TestGenerateStream:
    def test_no_fault_constant_frames(self):
        stream = generate_stream(default_scenario(duration_s=0.2))
        assert len(stream) == 200
        assert np.abs(stream.v1 - stream.v1[0]).max() < 1e-12
        h = healthy_reference(default_scenario())
        assert stream.i1[0, 0] == pytest.approx(h.i1.as_complex, rel=1e-12)
        assert not stream.fault_active.any()

    def test_fault_transition_indexing(self):
        scenario = default_scenario(duration_s=1.0, fault=FaultSpec("AG", 0.5, 1.0, 0.5))
        stream = generate_stream(scenario)
        assert len(stream) == 1000
        assert not stream.fault_active[:500].any()
        assert stream.fault_active[500:].all()
        # the step is instantaneous: frame 499 healthy, frame 500 faulted
        assert np.abs(stream.i1[499] - stream.i1[0]).max() < 1e-12
        assert np.abs(stream.i1[500] - stream.i1[499]).max() > 1e-3

    def test_identity_load_scale_changes_nothing(self):
        base = generate_stream(default_scenario(duration_s=0.3))
        scen = default_scenario(duration_s=0.3, events=(LoadScale(t=0.1, factor=1.0),))
        stream = generate_stream(scen)
        assert np.abs(stream.v1 - base.v1).max() < 1e-9
        assert np.abs(stream.i2 - base.i2).max() < 1e-9

    def test_fault_clearance_restores_healthy(self):
        scen = default_scenario(duration_s=0.4,
                                fault=FaultSpec("AG", 0.5, 1.0, 0.2, t_clear=0.3))
        stream = generate_stream(scen)
        assert stream.fault_active[200:300].all()
        assert not stream.fault_active[300:].any()
        assert np.abs(stream.v1[350] - stream.v1[0]).max() < 1e-9

    def test_event_changes_state(self):
        scen = default_scenario(duration_s=0.3, events=(SourceStep(t=0.1, terminal=2, factor=0.97),))
        stream = generate_stream(scen)
        assert np.abs(stream.v1[150] - stream.v1[50]).max() > 1e-3

    def test_healthy_frames_satisfy_line_model(self):
        """Per-phase local-loop residual on healthy frames."""
        scen = default_scenario(duration_s=0.3, events=(ShuntSwitch(
            t=0.1, terminal=2, z_shunt=SequenceImpedance.symmetric(-600j)),))
        stream = generate_stream(scen)
        z_se = scen.line.z_se.positive
        z_sh = scen.line.z_sh.positive
        v1c = stream.i1 * z_se + (stream.i1 + stream.i2) * z_sh
        residual = np.abs(v1c - stream.v1) / np.abs(stream.v1)
        assert residual.max() < 1e-8

    def test_faulted_frames_satisfy_active_model(self):
        """Sequence-domain KVL from the terminal to the fault bus."""
        x = 0.3
        scen = default_scenario(duration_s=0.3, fault=FaultSpec("BCG", x, 20.0, 0.1))
        stream = generate_stream(scen)
        seg = next(s for s in stream.meta["segments"] if s["fault"])
        sol = seg["state"].solution
        from fmaguard.phasors import abc_to_seq_array

        k = seg["start"] + 5
        v1_seq = abc_to_seq_array(stream.v1[k][None, :])[0]
        i1_seq = abc_to_seq_array(stream.i1[k][None, :])[0]
        for s in range(3):
            z = scen.line.z_se[s] * 2 * x
            expect = sol.node_v[s]["fault"]
            got = v1_seq[s] - i1_seq[s] * z
            assert abs(got - expect) <= 1e-8 * max(abs(expect), 1.0)

    def test_events_validation(self):
        with pytest.raises(ValueError):
            default_scenario(duration_s=0.2, events=(LoadScale(t=0.5, factor=1.0),))

    def test_rejects_simultaneous_internal_and_external(self):
        with pytest.raises(ValueError):
            LineScenario(
                line=LINE, source1=S1, source2=S2,
                fault=FaultSpec("AG", 0.5, 0.0, 0.1),
                external_fault=ExternalFaultSpec(
                    terminal=2, fault=FaultSpec("AG", 0.5, 0.0, 0.1)),
                duration_s=0.3,
            )


class TestExternalFault:
    def test_prefault_operating_point_preserved(self):
        scen = default_scenario(
            duration_s=0.3,
            external_fault=ExternalFaultSpec(
                terminal=2, fault=FaultSpec("AG", 0.3, 1.0, 0.2)),
        )
        stream = generate_stream(scen)
        h = healthy_reference(default_scenario())
        assert stream.i1[0, 0] == pytest.approx(h.i1.as_complex, rel=1e-9)
        assert stream.i2[0, 0] == pytest.approx(h.i2.as_complex, rel=1e-9)

    @pytest.mark.parametrize("terminal", [1, 2])
    def test_external_fault_is_through_current(self, terminal):
        """The protected line stays healthy: differential current stays at
        charging scale even though currents surge."""
        scen = default_scenario(
            duration_s=0.35,
            external_fault=ExternalFaultSpec(
                terminal=terminal, fault=FaultSpec("ABC", 0.2, 0.0, 0.2)),
        )
        stream = generate_stream(scen)
        i_d = np.abs(stream.i1[250] + stream.i2[250])
        h = healthy_reference(default_scenario())
        assert i_d.max() < 2.0 * h.i_d.magnitude
        # and the healthy-line local loop still holds during the fault
        z_se = scen.line.z_se.positive
        z_sh = scen.line.z_sh.positive
        v1c = stream.i1[250] * z_se + (stream.i1[250] + stream.i2[250]) * z_sh
        assert np.abs(v1c - stream.v1[250]).max() / np.abs(stream.v1[250]).max() < 1e-8


class TestMemoizedSteadyStates:
    SCEN = default_scenario(duration_s=0.3, fault=FaultSpec("AG", 0.5, 1.0, 0.1))

    def test_segment_states_are_read_only(self):
        stream = generate_stream(self.SCEN)
        for seg in stream.meta["segments"]:
            with pytest.raises(ValueError):
                seg["state"].v1[0] = 0.0

    def test_mutating_a_stream_leaves_the_next_unchanged(self):
        first = generate_stream(self.SCEN)
        expect = first.copy()
        for arr in (first.v1, first.i1, first.i2, first.i2_true):
            arr[:] = 0.0
        second = generate_stream(self.SCEN)
        for name in ("v1", "i1", "i2", "i2_true"):
            assert np.array_equal(getattr(second, name), getattr(expect, name)), name

    def test_only_unfaulted_states_are_shared(self):
        first, second = (generate_stream(self.SCEN) for _ in range(2))
        (pre1, post1), (pre2, post2) = (
            [seg["state"] for seg in s.meta["segments"]] for s in (first, second))
        assert pre1 is pre2
        assert post1 is not post2

    def test_external_pre_fault_state_ignores_the_fault_spec(self):
        states = []
        for kind, x in (("AG", 0.3), ("BC", 0.7)):
            scen = default_scenario(duration_s=0.3, external_fault=ExternalFaultSpec(
                terminal=2, fault=FaultSpec(kind, x, 1.0, 0.2)))
            states.append(generate_stream(scen).meta["segments"][0]["state"])
        assert states[0] is states[1]


def _fresh_fault_solve(scenario):
    """Terminal quantities and fault solution of a scenario's faulted
    segment, solved from scratch without any memo."""
    state = _apply_events(scenario, [])
    adjacent = state.adjacent(scenario.external_fault, scenario.line)
    fault = scenario.fault if scenario.fault is not None else scenario.external_fault.fault
    net, meas, fault_node = state.build(scenario.line, adjacent, fault.x,
                                        fault_on_adjacent=scenario.fault is None)
    sol = solve_fault(net, fault_node, fault.kind, fault.r_f)
    return (sol.node_v_abc(BUS1), sol.branch_current_abc(*meas.branch1),
            sol.branch_current_abc(*meas.branch2), sol)


def _topologies(kind, x, r_f):
    """Internal, external at terminal 1 and 2, and mirrored scenarios."""
    fault = FaultSpec(kind, x, r_f, 0.1)
    base = default_scenario(duration_s=0.3)
    return {
        "internal": default_scenario(duration_s=0.3, fault=fault),
        "external-t1": default_scenario(duration_s=0.3,
                                        external_fault=ExternalFaultSpec(terminal=1, fault=fault)),
        "external-t2": default_scenario(duration_s=0.3,
                                        external_fault=ExternalFaultSpec(terminal=2, fault=fault)),
        "mirrored": LineScenario(line=base.line, source1=base.source2, source2=base.source1,
                                 fault=FaultSpec(kind, 1.0 - x, r_f, 0.1), duration_s=0.3),
    }


class TestCachedFaultSolve:
    """Faulted segments share one network solve per location; each must
    still equal a fresh solve of its own fault, bit for bit."""

    def test_matches_a_fresh_solve_bit_for_bit(self):
        _faulted_network.cache_clear()
        # one cache lifetime over every location, topology, kind and
        # resistance, so an entry served to the wrong network shows here
        for x in (0.1, 0.5, 0.9):
            for r_f in (0.001, 30.0, 300.0):
                for kind in sorted(FAULT_KINDS):
                    for name, scen in _topologies(kind, x, r_f).items():
                        got = _segment_state(scen, [], True)
                        v1, i1, i2, sol = _fresh_fault_solve(scen)
                        pairs = [(got.v1, v1), (got.i1, i1), (got.i2, i2)] + [
                            (getattr(got.solution, f), getattr(sol, f))
                            for f in ("i_fault_seq", "i_fault_abc", "v_fault_abc", "z_thevenin")]
                        for a, b in pairs:
                            assert a.tobytes() == b.tobytes(), (name, kind, x, r_f)
        info = _faulted_network.cache_info()
        assert info.misses == 3 * 4 and info.hits == 3 * 3 * 11 * 4 - 3 * 4

    def test_one_location_sweep_solves_its_network_once(self):
        spec = hn.SweepSpec(locations=(0.3,), resistances=(0.001, 30.0, 300.0))
        cases = hn.generate_sweep(spec, seed=1)
        _faulted_network.cache_clear()
        for case in cases:
            generate_stream(case.scenario)
        info = _faulted_network.cache_info()
        assert (info.misses, info.hits) == (1, len(cases) - 1)

    def test_cached_arrays_are_read_only(self):
        scen = default_scenario(duration_s=0.3, fault=FaultSpec("BC", 0.3, 5.0, 0.1))
        q = _segment_state(scen, [], True)
        _net, _meas, _node, response = _faulted_network(
            scen.line, _apply_events(scen, []), None, 0.3, False)
        for arr in (response.v_pre, response.response, response.z_th, q.solution.z_thevenin):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_ill_conditioned_network_raises_on_every_call(self):
        # a fault a hair from the terminal all but shorts one branch
        scen = default_scenario(duration_s=0.3, fault=FaultSpec("AG", 1e-13, 1.0, 0.1))
        size = _faulted_network.cache_info().currsize
        for _ in range(3):
            with pytest.raises(SingularNetwork, match="sequence-0"):
                _segment_state(scen, [], True)
            with pytest.raises(SingularNetwork):
                generate_stream(scen)
        assert _faulted_network.cache_info().currsize == size

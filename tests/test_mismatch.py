import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmaguard.attack import (
    AttackSpec,
    BasicFMA,
    CTSaturationSpec,
    DistortionSpec,
    apply_distortions,
    apply_fma,
)
from fmaguard.mismatch import (
    MIConfig,
    MIState,
    PVector,
    calculated_local_voltage,
    compute_p,
    compute_p_components,
    compute_p_stream,
    mi_config_for,
    mi_trace,
    p_norm,
    reset,
    update,
)
from fmaguard.phasors import Phasor
from fmaguard.scenario import (
    ExternalFaultSpec,
    FaultSpec,
    default_scenario,
    generate_stream,
    healthy_reference,
)

SCENARIO = default_scenario(duration_s=0.4, fault=FaultSpec("AG", 0.1, 0.001, 0.2))
HEALTHY = healthy_reference(SCENARIO)
CFG = mi_config_for(SCENARIO)


def attacked_stream(scenario=None):
    scenario = scenario or SCENARIO
    stream = generate_stream(scenario)
    return apply_fma(stream, AttackSpec(BasicFMA(c_a=HEALTHY.i_d), t_start=0.0))


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            MIConfig(i_d_n=HEALTHY.i_d, f=0.0)
        with pytest.raises(ValueError):
            MIConfig(i_d_n=HEALTHY.i_d, t1=30, t2=99)
        with pytest.raises(ValueError):
            MIConfig(i_d_n=Phasor())

    def test_defaults(self):
        assert CFG.f == 0.05
        assert CFG.t1 == 9
        assert CFG.t2 == 99


class TestCalculatedVoltage:
    def test_healthy_self_consistency(self):
        v1c = calculated_local_voltage(HEALTHY.i1, HEALTHY.i2, SCENARIO.line)
        assert abs(v1c.as_complex - HEALTHY.v1.as_complex) / HEALTHY.v1.magnitude < 1e-8

    def test_zero_currents(self):
        assert calculated_local_voltage(Phasor(), Phasor(), SCENARIO.line).magnitude == 0.0

    def test_fma_frame_breaks_consistency(self):
        stream = attacked_stream()
        k = 250
        from fmaguard.phasors import ThreePhaseSet, to_sequence

        i1 = to_sequence(ThreePhaseSet.from_array(stream.i1[k])).positive
        i2 = to_sequence(ThreePhaseSet.from_array(stream.i2[k])).positive
        v1m = to_sequence(ThreePhaseSet.from_array(stream.v1[k])).positive
        v1c = calculated_local_voltage(i1, i2, SCENARIO.line)
        assert abs(v1c.as_complex - v1m.as_complex) / v1m.magnitude > 0.3


class TestPVector:
    def test_norm_345(self):
        assert p_norm(PVector(3.0, 4.0, 0.0, 0.0)) == pytest.approx(5.0)

    def test_norm_zero(self):
        assert p_norm(PVector(0.0, 0.0, 0.0, 0.0)) == 0.0

    @given(vals=st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_norm_matches_recomputation(self, vals):
        p = PVector(*vals)
        assert p_norm(p) == pytest.approx(float(np.linalg.norm(np.array(vals))), rel=1e-12)

    def test_healthy_frame_components(self):
        stream = generate_stream(default_scenario(duration_s=0.05))
        p, degenerate = compute_p(stream.frame(10), SCENARIO.line, CFG)
        assert not degenerate
        assert abs(p.delta_vm) < 1e-9
        assert abs(p.delta_va) < 1e-9
        assert p.id_ratio == pytest.approx(1.0, abs=1e-9)
        assert p.v_drop_mag == pytest.approx(
            HEALTHY.i_d.magnitude * abs(SCENARIO.line.z_se.positive), rel=1e-9)

    def test_fma_frame_norm_rises_an_order_of_magnitude(self):
        stream = attacked_stream()
        trace = compute_p_stream(stream, SCENARIO.line, CFG)
        pre = trace.norms[:200].mean()
        post = trace.norms[210:].mean()
        assert post / pre > 10.0

    def test_external_fault_with_saturation_elevates_v_drop(self):
        scenario = default_scenario(
            duration_s=0.4,
            external_fault=ExternalFaultSpec(
                terminal=1, fault=FaultSpec("ABC", 0.15, 0.0, 0.2)),
        )
        stream = generate_stream(scenario)
        stream = apply_distortions(
            stream, DistortionSpec(ct_saturation=CTSaturationSpec()), 0)
        trace = compute_p_stream(stream, scenario.line, CFG)
        v_drop = trace.components[..., 2].max(axis=1)
        assert v_drop[250] > 2.0 * v_drop[100]


class TestUpdateLatch:
    def test_constant_norms_parallel_lines(self):
        cfg = CFG
        state = MIState.for_config(cfg)
        for _ in range(cfg.t2 + 50):
            m, l_u, o = update(state, 2.0, cfg)
        assert m == pytest.approx(2.0)
        assert l_u == pytest.approx(2.0 * (1 + cfg.f))
        assert l_u / m == pytest.approx(1 + cfg.f, rel=1e-12)
        assert not o

    def test_two_point_mean(self):
        cfg = MIConfig(i_d_n=HEALTHY.i_d, t1=1, t2=5)
        state = MIState.for_config(cfg)
        update(state, 2.0, cfg)
        m, _, _ = update(state, 4.0, cfg)
        assert m == pytest.approx(3.0)

    def test_step_latches_within_short_window(self):
        cfg = CFG
        state = MIState.for_config(cfg)
        for _ in range(cfg.t2 + 10):
            update(state, 1.0, cfg)
        latched_at = None
        for k in range(cfg.t1 + 1):
            _, _, o = update(state, 10.0, cfg)
            if o:
                latched_at = k
                break
        assert latched_at is not None
        assert latched_at <= cfg.t1  # within t1+1 samples = 10 ms at 1 kHz

    def test_latch_is_monotone(self):
        cfg = CFG
        state = MIState.for_config(cfg)
        for _ in range(cfg.t2 + 10):
            update(state, 1.0, cfg)
        for _ in range(5):
            update(state, 10.0, cfg)
        assert state.latched
        for _ in range(200):
            _, _, o = update(state, 1.0, cfg)
            assert o

    def test_cold_start_suppression(self):
        """A step inside the warm-up window must not latch."""
        cfg = CFG
        state = MIState.for_config(cfg)
        update(state, 1.0, cfg)
        for _ in range(cfg.t2 - 10):
            _, _, o = update(state, 50.0, cfg)
        assert not state.latched


class TestReset:
    def _latched_state(self, cfg):
        state = MIState.for_config(cfg)
        for _ in range(cfg.t2 + 10):
            update(state, 1.0, cfg)
        for _ in range(cfg.t1 + 2):
            update(state, 10.0, cfg)
        assert state.latched
        return state

    def test_reset_clears_latch(self):
        state = self._latched_state(CFG)
        reset(state)
        assert not state.latched

    def test_reset_then_healthy_quiet(self):
        state = self._latched_state(CFG)
        reset(state)
        for _ in range(300):
            _, _, o = update(state, 1.0, CFG)
        assert not state.latched

    def test_reset_mid_fault_retriggers_quickly(self):
        state = self._latched_state(CFG)
        reset(state)
        retriggered = None
        for k in range(CFG.t1 + 1):
            _, _, o = update(state, 10.0, CFG)
            if o:
                retriggered = k
                break
        assert retriggered is not None and retriggered <= CFG.t1


class TestVectorizedTrace:
    def test_matches_streaming_updates(self, rng):
        cfg = CFG
        norms = np.abs(rng.normal(loc=2.0, scale=0.5, size=400)) + 0.1
        norms[300:] += 5.0
        trace = mi_trace(norms, cfg)
        state = MIState.for_config(cfg)
        for k, value in enumerate(norms):
            m, l_u, o = update(state, float(value), cfg)
            assert m == pytest.approx(trace.m[k], rel=1e-12)
            assert l_u == pytest.approx(trace.l_u[k], rel=1e-12)
            assert o == trace.o[k]

    def test_empty_input(self):
        trace = mi_trace(np.zeros(0), CFG)
        assert trace.latch_index is None

    def test_resume_with_prime(self):
        cfg = CFG
        norms = np.full(150, 3.0)
        trace = mi_trace(norms, cfg, prime=3.0, suppress=0)
        assert trace.latch_index is None
        hot = mi_trace(np.full(20, 30.0), cfg, prime=3.0, suppress=0)
        assert hot.latch_index == 0

    @pytest.mark.parametrize("prime", [None, 2.5])
    @pytest.mark.parametrize("suppress", [None, 0, 400, 407])  # 400, 407 >= every n
    def test_slice_windows_match_index_gather(self, rng, prime, suppress):
        """Window sums read with slices equal the index-gather formula bit
        for bit, latch and baseline included."""
        cfg = CFG
        for n in (1, 30, 180, 400):
            norms = np.abs(rng.normal(loc=2.0, scale=0.5, size=n)) + 0.1
            norms[rng.integers(n):] += rng.choice([0.0, 5.0])
            # the index-gather formula the slices replace
            fill = norms[0] if prime is None else prime
            padded = np.concatenate([np.full(cfg.t2, fill), norms])
            csum = np.concatenate([[0.0], np.cumsum(padded)])
            k = np.arange(n)
            m = (csum[k + cfg.t2 + 1] - csum[k + cfg.t2 - cfg.t1]) / (cfg.t1 + 1)
            long_mean = (csum[k + cfg.t2 + 1] - csum[k]) / (cfg.t2 + 1)
            first = cfg.t2 + 1 if suppress is None else suppress
            fires = (m >= (1.0 + cfg.f) * long_mean) & (k >= first)
            latch = int(np.argmax(fires)) if fires.any() else None
            if latch is None:
                baseline = long_mean[-1]
            else:
                baseline = long_mean[latch - 1] if latch > 0 else fill

            trace = mi_trace(norms, cfg, prime=prime, suppress=suppress)
            assert trace.m.tobytes() == m.tobytes()
            assert trace.l_u.tobytes() == ((1.0 + cfg.f) * long_mean).tobytes()
            assert trace.latch_index == latch
            assert np.float64(trace.baseline).tobytes() == np.float64(baseline).tobytes()


class TestDetectorOnStreams:
    def test_fma_detected_quickly(self):
        stream = attacked_stream()
        trace = mi_trace(compute_p_stream(stream, SCENARIO.line, CFG).norms, CFG)
        assert trace.latch_index is not None
        assert 0 <= trace.latch_index - 200 <= 10

    def test_healthy_noise_does_not_latch(self):
        scenario = default_scenario(duration_s=10.0)
        for seed in range(3):
            stream = apply_distortions(generate_stream(scenario),
                                       DistortionSpec(snr_db=35.0), seed)
            trace = mi_trace(compute_p_stream(stream, scenario.line, CFG).norms, CFG)
            assert trace.latch_index is None

    def test_f_sensitivity_on_150_ohm_midline(self):
        scenario = default_scenario(duration_s=0.45, fault=FaultSpec("AG", 0.5, 150.0, 0.25))
        stream = apply_fma(generate_stream(scenario),
                           AttackSpec(BasicFMA(c_a=HEALTHY.i_d), t_start=0.0))
        latencies = {}
        for f in (0.03, 0.05, 0.10, 0.15):
            cfg = mi_config_for(scenario, f=f)
            trace = mi_trace(compute_p_stream(stream, scenario.line, cfg).norms, cfg)
            latencies[f] = (None if trace.latch_index is None
                            else trace.latch_index - 250)
        assert latencies[0.03] is not None
        assert latencies[0.05] is not None
        assert latencies[0.10] is not None
        assert latencies[0.15] is None
        assert latencies[0.03] <= latencies[0.05] <= latencies[0.10]

    def test_degenerate_guard_substitutes_and_counts(self):
        stream = generate_stream(default_scenario(duration_s=0.05))
        stream.i1[20:25] = 0.0  # dead local measurement burst
        trace = compute_p_stream(stream, SCENARIO.line, CFG)
        assert trace.degenerate[20:25].all()
        assert not trace.degenerate[:20].any()
        assert trace.substitutions >= 5
        # substituted components carry the last valid values
        assert np.allclose(trace.components[20:25, :, 0], trace.components[19, :, 0])


def _assert_runwise_exact(stream):
    """compute_p_stream equals a direct evaluation of every frame, bit for bit."""
    got = compute_p_stream(stream, SCENARIO.line, CFG)
    want = compute_p_components(stream.v1, stream.i1, stream.i2, SCENARIO.line, CFG)
    for name in ("components", "phase_norms", "norms", "degenerate"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.substitutions == want.substitutions
    return got


def _runs(stream) -> int:
    """Runs of byte-identical consecutive (v1, i1, i2) frames."""
    rows = [np.concatenate([stream.v1[k], stream.i1[k], stream.i2[k]]).tobytes()
            for k in range(len(stream))]
    return 1 + sum(a != b for a, b in zip(rows, rows[1:]))


class TestRunwiseComponents:
    def test_noiseless_masked_fault_stream(self):
        stream = attacked_stream()
        assert _runs(stream) == 2  # pre-fault and faulted steady states
        _assert_runwise_exact(stream)

    def test_noisy_stream(self):
        stream = apply_distortions(attacked_stream(), DistortionSpec(snr_db=35.0), 7)
        assert _runs(stream) == len(stream)
        _assert_runwise_exact(stream)

    def test_dead_current_burst_counts_every_frame(self):
        stream = generate_stream(default_scenario(duration_s=0.05))
        stream.i1[20:25] = 0.0
        trace = _assert_runwise_exact(stream)
        # five frames, three phases, magnitude and angle guards each
        assert trace.substitutions == 30

    def test_frames_differing_only_in_the_sign_of_zero(self):
        stream = generate_stream(default_scenario(duration_s=0.05))
        stream.v1[:, 0] = complex(0.0, 138.0)
        stream.i1[:, 0] = complex(-0.29, 0.0)
        stream.i1[10:20, 0] = complex(-0.29, -0.0)
        assert _runs(stream) == 3
        trace = _assert_runwise_exact(stream)
        # the angle reference is taken on either side of the branch cut,
        # so the middle run evaluates differently in the last bits
        assert trace.components[5].tobytes() != trace.components[15].tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MIReference, p_components_reference

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
    compute_p_components,
    compute_p_stream,
    mi_config_for,
    mi_trace,
)
from fmaguard.phasors import Phasor
from fmaguard.pipeline import scan_mi
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


def components_of(v1, i1, i2):
    """Consistency trace of (N, 3) measurement arrays on the study line."""
    return compute_p_components(np.atleast_2d(v1), np.atleast_2d(i1), np.atleast_2d(i2),
                                SCENARIO.line, CFG)


class TestCalculatedVoltage:
    """The local voltage reconstructed from both currents on the healthy
    model, seen through the voltage components of the consistency vector."""

    def test_healthy_self_consistency(self):
        stream = generate_stream(default_scenario(duration_s=0.05))
        trace = components_of(stream.v1, stream.i1, stream.i2)
        assert np.abs(trace.components[..., :2]).max() < 1e-8
        assert not trace.degenerate.any()

    def test_zero_currents(self):
        zero = np.zeros(3, dtype=complex)
        trace = components_of(generate_stream(SCENARIO).v1[0], zero, zero)
        # no current: no series drop, no differential, voltage checks guarded
        assert trace.components.tobytes() == np.zeros((1, 3, 4)).tobytes()
        assert trace.norms[0] == 0.0
        assert trace.degenerate[0]

    def test_fma_frame_breaks_consistency(self):
        stream = attacked_stream()
        trace = components_of(stream.v1[[100, 250]], stream.i1[[100, 250]],
                              stream.i2[[100, 250]])
        assert np.abs(trace.components[0, :, 0]).max() < 1e-8
        assert np.abs(trace.components[1, :, 0]).max() > 0.3


def frame_with_components(delta_vm: float, delta_va: float):
    """One balanced frame whose every phase has consistency components
    ``(delta_vm, delta_va, 0, 0)``: ``i2 = -i1`` cancels the series drop
    and the differential ratio, and ``v1`` is placed against the voltage
    ``i1 * z_se`` the model reconstructs from the currents."""
    z_se = SCENARIO.line.z_se.positive
    i1 = 0.3 * np.exp(-1j * np.radians([0.0, 120.0, 240.0]))
    v1 = (np.abs(i1 * z_se) / (1.0 + delta_vm)
          * np.exp(1j * (np.angle(i1) + np.angle(z_se) / (1.0 + delta_va))))
    return v1, i1, -i1


class TestPVector:
    """The norm fed to the detector is the Euclidean norm of the consistency
    vector: per phase over its four components, per frame over all twelve."""

    def test_norm_345(self):
        trace = components_of(*frame_with_components(3.0, 4.0))
        assert trace.components[0, :, :2] == pytest.approx(np.full((3, 2), [3.0, 4.0]), rel=1e-9)
        assert trace.components[0, :, 2:].max() == pytest.approx(0.0, abs=1e-12)
        assert trace.phase_norms[0] == pytest.approx([5.0] * 3, rel=1e-9)
        assert trace.norms[0] == pytest.approx(5.0 * math.sqrt(3.0), rel=1e-9)

    def test_norm_zero(self):
        trace = components_of(*frame_with_components(0.0, 0.0))
        assert trace.norms[0] == pytest.approx(0.0, abs=1e-12)

    @given(vals=st.lists(st.floats(min_value=-5, max_value=5), min_size=18, max_size=18))
    @settings(max_examples=100)
    def test_norm_matches_recomputation(self, vals):
        parts = np.array(vals).reshape(3, 2, 3)
        v1, i1, i2 = (p[0] + 1j * p[1] for p in parts)
        trace = components_of(v1, i1, i2)
        comps = trace.components[0]
        assert trace.phase_norms[0] == pytest.approx(np.linalg.norm(comps, axis=1), rel=1e-12)
        assert trace.norms[0] == pytest.approx(float(np.linalg.norm(comps)), rel=1e-12)

    def test_healthy_frame_components(self):
        stream = generate_stream(default_scenario(duration_s=0.05))
        trace = compute_p_stream(stream, SCENARIO.line, CFG)
        assert not trace.degenerate[10]
        p = trace.components[10]  # (3 phases, 4 components)
        assert np.abs(p[:, 0]).max() < 1e-9
        assert np.abs(p[:, 1]).max() < 1e-9
        assert p[:, 3] == pytest.approx([1.0] * 3, abs=1e-9)
        assert p[:, 2] == pytest.approx(
            [HEALTHY.i_d.magnitude * abs(SCENARIO.line.z_se.positive)] * 3, rel=1e-9)

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


def step_norms(before: int, after: int, low: float = 1.0, high: float = 10.0):
    return np.concatenate([np.full(before, low), np.full(after, high)])


class TestUpdateLatch:
    def test_constant_norms_parallel_lines(self):
        cfg = CFG
        trace = mi_trace(np.full(cfg.t2 + 50, 2.0), cfg)
        assert trace.m[-1] == pytest.approx(2.0)
        assert trace.l_u[-1] == pytest.approx(2.0 * (1 + cfg.f))
        assert trace.l_u[-1] / trace.m[-1] == pytest.approx(1 + cfg.f, rel=1e-12)
        assert trace.latch_index is None and not trace.o.any()

    def test_two_point_mean(self):
        cfg = MIConfig(i_d_n=HEALTHY.i_d, t1=1, t2=5)
        assert mi_trace(np.array([2.0, 4.0]), cfg).m[1] == pytest.approx(3.0)

    def test_step_latches_within_short_window(self):
        cfg = CFG
        trace = mi_trace(step_norms(cfg.t2 + 10, cfg.t1 + 1), cfg)
        assert trace.latch_index is not None
        # within t1+1 samples = 10 ms at 1 kHz
        assert 0 <= trace.latch_index - (cfg.t2 + 10) <= cfg.t1

    def test_latch_is_monotone(self):
        cfg = CFG
        norms = np.concatenate([step_norms(cfg.t2 + 10, 5), np.full(200, 1.0)])
        trace = mi_trace(norms, cfg)
        assert trace.latch_index is not None and trace.latch_index < cfg.t2 + 15
        assert trace.o[trace.latch_index:].all()
        assert not trace.o[:trace.latch_index].any()

    def test_cold_start_suppression(self):
        """A step inside the warm-up window must not latch."""
        cfg = CFG
        assert mi_trace(step_norms(1, cfg.t2 - 10, high=50.0), cfg).latch_index is None


class TestReset:
    """Re-priming after a latch, as ``scan_mi`` does after each hold-off
    and at a fault clearance."""

    def test_reset_clears_latch(self):
        latched = mi_trace(step_norms(CFG.t2 + 10, CFG.t1 + 2), CFG)
        assert latched.latch_index == CFG.t2 + 10
        assert latched.baseline == pytest.approx(1.0)
        resumed = mi_trace(np.full(CFG.t2, 1.0), CFG, prime=latched.baseline, suppress=0)
        assert resumed.latch_index is None and not resumed.o.any()

    def test_reset_then_healthy_quiet(self):
        # hold-off re-prime on the first healthy sample after the step
        norms = np.concatenate([step_norms(CFG.t2 + 10, CFG.t1 + 2), np.full(300, 1.0)])
        scan = scan_mi(norms, CFG, len(norms), None, holdoff=CFG.t1 + 2)
        assert scan.latches == [CFG.t2 + 10]
        # clearance re-prime on a quiet stream
        quiet = np.full(450, 1.0)
        scan = scan_mi(quiet, CFG, len(quiet), 200, holdoff=17)
        assert scan.latches == [] and scan.reset_index == 200

    def test_reset_mid_fault_retriggers_quickly(self):
        holdoff = 17
        norms = step_norms(CFG.t2 + 10, 200)
        scan = scan_mi(norms, CFG, len(norms), None, holdoff=holdoff)
        assert scan.latches[0] == CFG.t2 + 10
        assert 0 <= scan.latches[1] - (scan.latches[0] + holdoff) <= CFG.t1


def assert_matches_reference(norms, cfg, prime=None, suppress=None):
    """mi_trace equals the scalar state machine sample by sample."""
    trace = mi_trace(norms, cfg, prime=prime, suppress=suppress)
    ref = MIReference(cfg, prime=prime, suppress=suppress)
    for k, value in enumerate(norms):
        m, l_u, o = ref.update(float(value))
        assert m == pytest.approx(trace.m[k], rel=1e-12)
        assert l_u == pytest.approx(trace.l_u[k], rel=1e-12)
        assert o == trace.o[k]
    assert trace.baseline == pytest.approx(ref.baseline, rel=1e-12)
    return trace, ref


def noisy_step(rng):
    norms = np.abs(rng.normal(loc=2.0, scale=0.5, size=400)) + 0.1
    norms[300:] += 5.0
    return norms


class TestVectorizedTrace:
    def test_matches_streaming_updates(self, rng):
        trace, _ = assert_matches_reference(noisy_step(rng), CFG)
        assert trace.latch_index is not None

    @pytest.mark.parametrize("suppress", [0, 150])
    def test_primed_trace_matches_streaming_updates(self, rng, suppress):
        trace, _ = assert_matches_reference(noisy_step(rng), CFG, prime=2.5, suppress=suppress)
        assert trace.latch_index is not None

    def test_baseline_follows_suppressed_samples(self):
        """A cold-start latch on the first eligible sample re-primes from
        the long mean of the sample before it, warm-up samples included."""
        cfg = CFG
        norms = step_norms(90, 60)
        trace, ref = assert_matches_reference(norms, cfg)
        assert trace.latch_index == cfg.t2 + 1 == 100
        # long mean at sample 99: 90 samples of 1.0 and 10 of 10.0
        assert trace.baseline == pytest.approx(1.9, rel=1e-12)
        assert ref.baseline == pytest.approx(1.9, rel=1e-12)

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


def _assert_matches_reference(v1, i1, i2, repeats=None):
    """compute_p_components equals the plain reference, bit for bit."""
    got = compute_p_components(v1, i1, i2, SCENARIO.line, CFG, repeats=repeats)
    want = p_components_reference(v1, i1, i2, SCENARIO.line, CFG, repeats=repeats)
    for name in ("components", "phase_norms", "norms", "degenerate"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.substitutions == want.substitutions
    return got


class TestComponentsMatchReference:
    def test_noisy_streams(self):
        for seed in range(4):
            stream = apply_distortions(attacked_stream(), DistortionSpec(snr_db=35.0), seed)
            trace = _assert_matches_reference(stream.v1, stream.i1, stream.i2)
            assert trace.substitutions == 0

    def test_dead_current_burst(self):
        stream = apply_distortions(attacked_stream(), DistortionSpec(snr_db=35.0), 3)
        stream.i1[0:4] = 0.0  # before any valid frame: filled with zero
        stream.i1[150:160] = 0.0  # filled with the last valid frame
        stream.i1[300:305, 1] = 0.0  # one phase only
        trace = _assert_matches_reference(stream.v1, stream.i1, stream.i2)
        assert trace.substitutions == 2 * (4 * 3 + 10 * 3 + 5)
        assert trace.components[155, 0, 0] == trace.components[149, 0, 0]
        assert trace.components[155, 0, 1] == trace.components[149, 0, 1]

    def test_zero_voltage_frames(self):
        stream = apply_distortions(attacked_stream(), DistortionSpec(snr_db=35.0), 4)
        stream.v1[200:206] = 0.0
        stream.v1[250, 2] = complex(-0.0, -0.0)
        trace = _assert_matches_reference(stream.v1, stream.i1, stream.i2)
        assert trace.degenerate[200:206].all() and trace.degenerate[250]

    def test_run_compressed_stream_with_repeats(self):
        stream = attacked_stream()
        stream.i1[100:110] = 0.0
        rows = np.concatenate([stream.v1, stream.i1, stream.i2], axis=1)
        starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
        repeats = np.diff(starts, append=len(stream))
        assert len(starts) < len(stream)
        trace = _assert_matches_reference(stream.v1[starts], stream.i1[starts],
                                          stream.i2[starts], repeats=repeats)
        assert len(trace.norms) == len(stream) and trace.substitutions == 60

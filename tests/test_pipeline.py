import numpy as np
import pytest

from oracles import scan_reference

import fmaguard.harness as hn
from fmaguard.attack import AttackSpec, BasicFMA, apply_fma
from fmaguard.mismatch import DegenerateMeasurement, compute_p_stream
from fmaguard.pipeline import (
    BatchCase,
    DetectionEvent,
    _check_degenerate_burst,
    batch_run,
    holdoff_samples,
    run,
    scan_mi,
)
from fmaguard.relay import RelaySettings, trip_eval_stream
from fmaguard.scenario import (
    FaultSpec,
    default_scenario,
    generate_stream,
    healthy_reference,
)


def make_cfg(trained_model, **kw):
    return hn.default_pipeline_config(model=trained_model, **kw)


def fma_stream(kind="AG", x=0.1, r_f=0.001):
    scenario = default_scenario(duration_s=0.45, fault=FaultSpec(kind, x, r_f, 0.25))
    stream = generate_stream(scenario)
    c_a = healthy_reference(scenario).i_d
    return apply_fma(stream, AttackSpec(BasicFMA(c_a=c_a), t_start=0.0))


class TestRun:
    def test_healthy_stream_no_events(self, trained_model):
        stream = generate_stream(default_scenario(duration_s=0.4))
        result = run(stream, make_cfg(trained_model))
        assert result.events == []
        assert not result.fma_alarm

    def test_unmasked_fault_relay_trips_only(self, trained_model):
        stream = generate_stream(default_scenario(
            duration_s=0.45, fault=FaultSpec("ABC", 0.4, 0.001, 0.25)))
        result = run(stream, make_cfg(trained_model))
        kinds = [e.kind for e in result.events]
        assert kinds == ["RelayTrip"]
        assert result.relay_trip_index == 250
        assert not result.fma_alarm

    def test_masked_fault_full_chain(self, trained_model):
        stream = fma_stream()
        result = run(stream, make_cfg(trained_model))
        kinds = [e.kind for e in result.events]
        assert kinds == ["MITrigger", "ZCCInternal", "FMAAlarm"]
        assert result.events_of("FMAAlarm")[0].payload["action"] == "TripDirect"
        assert result.relay_trip_index is None
        # within 1.5 power cycles of inception (25 samples at 1 kHz/60 Hz)
        assert result.alarm_index - 250 <= 25

    def test_mutual_exclusion(self, trained_model):
        for stream in (fma_stream(), generate_stream(default_scenario(
                duration_s=0.45, fault=FaultSpec("BC", 0.3, 0.001, 0.25)))):
            result = run(stream, make_cfg(trained_model))
            has_trip = any(e.kind == "RelayTrip" for e in result.events)
            has_alarm = any(e.kind == "FMAAlarm" for e in result.events)
            assert not (has_trip and has_alarm)

    def test_zcc_runs_once_per_latch(self, trained_model):
        stream = fma_stream()
        result = run(stream, make_cfg(trained_model))
        zcc_events = [e for e in result.events if e.kind.startswith("ZCC")]
        mi_events = [e for e in result.events if e.kind == "MITrigger"]
        assert len(zcc_events) == len(mi_events) == 1

    def test_external_fault_no_alarm(self, trained_model):
        cases = [hn.external_case("ABC", 0.2, 0.001, terminal, seed=0,
                                  case_id=f"x{terminal}")
                 for terminal in (1, 2)]
        for case in cases:
            stream = hn.realize(case)
            result = run(stream, make_cfg(trained_model))
            assert not result.fma_alarm
            for e in result.events:
                if e.kind == "MITrigger":
                    # any trigger must be followed by an external verdict
                    assert any(x.kind == "ZCCExternal" for x in result.events)

    def test_fault_clearance_emits_reset(self, trained_model):
        scenario = default_scenario(
            duration_s=0.45, fault=FaultSpec("AG", 0.5, 150.0, 0.25, t_clear=0.35))
        stream = apply_fma(generate_stream(scenario),
                           AttackSpec(BasicFMA(c_a=healthy_reference(scenario).i_d)))
        result = run(stream, make_cfg(trained_model))
        kinds = [e.kind for e in result.events]
        assert "FMAAlarm" in kinds
        assert "Reset" in kinds
        reset_event = result.events_of("Reset")[0]
        assert reset_event.t == pytest.approx(0.35)

    def test_detector_only_mode_keeps_latch(self):
        stream = fma_stream()
        cfg = hn.default_pipeline_config(model=None)
        result = run(stream, cfg)
        assert [e.kind for e in result.events] == ["MITrigger"]
        assert result.o[-1]

    def test_degenerate_burst_aborts(self, trained_model):
        stream = generate_stream(default_scenario(duration_s=0.3))
        # a dead measurement chain: both currents vanish, relay stays quiet
        stream.i1[50:150] = 0.0
        stream.i2[50:150] = 0.0
        with pytest.raises(DegenerateMeasurement):
            run(stream, make_cfg(trained_model))

    @pytest.mark.parametrize("start", [0, 7, 10])
    def test_degenerate_burst_limit_boundary(self, start):
        """A burst of exactly the limit passes, one frame more raises, at
        the start, inside and flush with the end of the mask."""
        limit = 50
        mask = np.zeros(60, dtype=bool)
        mask[start:start + limit] = True
        _check_degenerate_burst(mask, limit)
        longer = np.zeros(61, dtype=bool)
        longer[start:start + limit + 1] = True
        with pytest.raises(DegenerateMeasurement, match="burst of 51 frames"):
            _check_degenerate_burst(longer, limit)

    def test_degenerate_bursts_split_by_a_clean_frame(self):
        limit = 50
        mask = np.ones(2 * limit + 1, dtype=bool)
        mask[limit] = False
        _check_degenerate_burst(mask, limit)

    def test_empty_degenerate_mask_passes(self):
        _check_degenerate_burst(np.zeros(0, dtype=bool), 50)

    def test_trace_log_shapes(self, trained_model):
        stream = fma_stream()
        result = run(stream, make_cfg(trained_model))
        n = len(stream)
        assert result.norms.shape == result.m.shape == result.l_u.shape == (n,)
        assert result.o.shape == (n,)

    def test_event_serialization(self):
        event = DetectionEvent(t=0.25, kind="MITrigger", payload={"m": 1.0})
        text = event.to_json()
        assert '"kind": "MITrigger"' in text


class TestBatch:
    def test_batch_rows_and_determinism(self, trained_model):
        cases = hn.generate_sweep(hn.SweepSpec(positives=6, negatives=6), seed=21)
        cfg = make_cfg(trained_model)
        rows1 = batch_run([hn.to_batch_case(c) for c in cases], cfg)
        rows2 = batch_run([hn.to_batch_case(c) for c in cases], cfg)
        assert [(r.case_id, r.fma_alarm, r.latency_samples) for r in rows1] == \
               [(r.case_id, r.fma_alarm, r.latency_samples) for r in rows2]
        assert all(r.error is None for r in rows1)

    def test_errors_isolated(self, trained_model):
        good = hn.to_batch_case(hn.fma_case("AG", 0.2, 1.0, seed=0, case_id="ok"))
        broken_stream = generate_stream(default_scenario(duration_s=0.3))
        broken_stream.i1[:] = 0.0
        broken_stream.i2[:] = 0.0
        bad = BatchCase(case_id="bad", stream=broken_stream, label=0, inception_index=None)
        rows = batch_run([bad, good], make_cfg(trained_model))
        assert rows[0].error is not None
        assert rows[1].error is None


def assert_scan_matches_reference(norms, mi, stop, clear_index, holdoff, max_latches=32):
    scan = scan_mi(norms, mi, stop, clear_index, holdoff, max_latches=max_latches)
    m, l_u, latches, reset_index = scan_reference(norms, mi, stop, clear_index, holdoff,
                                                  max_latches=max_latches)
    assert scan.latches == latches
    assert scan.reset_index == reset_index
    np.testing.assert_allclose(scan.m, m, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(scan.l_u, l_u, rtol=1e-12, atol=0.0)
    return scan


class TestScanAgainstReference:
    """scan_mi against the frame-by-frame scalar detector and policy."""

    def test_noisy_sweep(self):
        cases = hn.generate_sweep(hn.SweepSpec(positives=40, negatives=60, snr_db=35.0), seed=3)
        mi = hn.default_mi_config()
        cleared = resets = relatched = 0
        for case in cases:
            stream = hn.realize(case)
            norms = compute_p_stream(stream, case.scenario.line, mi).norms
            trip, *_ = trip_eval_stream(stream.i1, stream.i2, RelaySettings())
            tripped = trip.any(axis=1)
            stop = int(np.argmax(tripped)) if tripped.any() else len(stream)
            clear_index = stream.meta.get("clear_index")
            holdoff = holdoff_samples(stream)
            # as pipeline.run drives it, then as the dataset's trigger alignment does
            scan = assert_scan_matches_reference(norms, mi, stop, clear_index, holdoff)
            assert_scan_matches_reference(norms, mi, len(stream), clear_index, holdoff,
                                          max_latches=hn.MAX_TRIGGERS)
            cleared += clear_index is not None
            resets += scan.reset_index is not None
            relatched += len(scan.latches) > 1
        assert len(cases) == 100
        assert cleared >= 40 and resets > 0 and relatched > 0

    def test_holdoff_over_the_clearance(self):
        """A hold-off running past the clearance ends the segment there:
        m and l_u stay 0 until the hold-off re-prime, and no clearance
        re-prime follows."""
        mi = hn.default_mi_config()
        norms = np.concatenate([np.full(200, 1.0), np.full(250, 10.0)])
        scan = assert_scan_matches_reference(norms, mi, len(norms), 205, holdoff=17)
        assert scan.latches[:2] == [200, 217]
        assert scan.reset_index is None
        assert not scan.m[205:217].any() and scan.m[204] > 0 and scan.m[217] > 0

    def test_holdoff_is_one_cycle(self):
        assert holdoff_samples(generate_stream(default_scenario(duration_s=0.05))) == 17

    def test_latch_cap(self):
        mi = hn.default_mi_config()
        norms = np.concatenate([np.full(200, 1.0), np.full(250, 10.0)])
        scan = assert_scan_matches_reference(norms, mi, len(norms), None, holdoff=17,
                                             max_latches=3)
        assert scan.latches == [200, 217, 234]
        assert scan.m[-1] > 0

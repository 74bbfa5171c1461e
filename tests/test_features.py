import numpy as np
import pytest

from fmaguard.attack import DistortionSpec, apply_distortions
from fmaguard.features import (
    FEATURE_DIM,
    IMPEDANCE_SENTINEL,
    extract_features,
    feature_names,
    pre_trigger_offset,
)
from fmaguard.relay import RelaySettings
from fmaguard.scenario import FaultSpec, default_scenario, generate_stream
from oracles import trigger_features

I_D0 = RelaySettings().i_d0


def fault_stream(kind="AG", x=0.3, r_f=0.001):
    scenario = default_scenario(duration_s=0.4, fault=FaultSpec(kind, x, r_f, 0.2))
    return generate_stream(scenario)


class TestLayout:
    def test_feature_dimension(self):
        # 2 snapshots x 9 groups x (3 phases + 3 sequences)
        assert FEATURE_DIM == 108
        assert len(feature_names()) == 108
        assert len(set(feature_names())) == 108

    def test_vector_length_on_stream(self):
        stream = fault_stream()
        fv = extract_features(stream, 220)
        assert fv.values.shape == (108,)
        assert np.isfinite(fv.values).all()

    def test_pre_offset_is_one_cycle(self):
        stream = fault_stream()
        assert pre_trigger_offset(stream) == 17  # 1000 Hz / 60 Hz rounded

    def test_rejects_bad_trigger(self):
        stream = fault_stream()
        with pytest.raises(ValueError):
            extract_features(stream, 3)
        with pytest.raises(ValueError):
            extract_features(stream, len(stream))


class TestContent:
    def test_balanced_snapshot_zero_components_vanish(self):
        stream = generate_stream(default_scenario(duration_s=0.1))
        fv = extract_features(stream, 50)
        names = feature_names()
        for label, value in zip(names, fv.values):
            if label.endswith("_seq0") and ("v_mag" in label or "i_mag" in label):
                assert abs(value) < 1e-9, label
        # negative-sequence magnitudes vanish on the balanced line too
        idx = [k for k, n in enumerate(names) if n in ("post_v_mag_seq2", "post_i_mag_seq2")]
        assert np.abs(fv.values[idx]).max() < 1e-9

    def test_angles_wrapped(self):
        stream = fault_stream("CA", 0.6, 5.0)
        fv = extract_features(stream, 230)
        names = feature_names()
        ang_idx = [k for k, n in enumerate(names)
                   if ("_ang_" in n or "ang_diff" in n) and "z_ang" not in n]
        vals = fv.values[ang_idx]
        assert (vals > -np.pi - 1e-12).all() and (vals <= np.pi + 1e-12).all()

    def test_apparent_impedance_collapses_on_fault(self):
        """Post-fault phase-a impedance is far below the pre-fault load
        impedance for a bolted fault on phase a."""
        stream = fault_stream("AG", 0.3, 0.001)
        trigger = 210
        fv = extract_features(stream, trigger)
        names = feature_names()
        pre = fv.values[names.index("pre_z_mag_a")]
        post = fv.values[names.index("post_z_mag_a")]
        assert post < 0.5 * pre

    def test_local_only_ignores_remote_channel(self):
        stream = fault_stream()
        fv1 = extract_features(stream, 220)
        mutated = stream.copy()
        mutated.i2[:] = 1e6 * (1 + 1j)
        mutated.i2_true[:] = -99.0
        fv2 = extract_features(mutated, 220)
        assert np.array_equal(fv1.values, fv2.values)

    def test_degenerate_current_sentinel(self):
        stream = fault_stream()
        dead = stream.copy()
        dead.i1[220 - pre_trigger_offset(stream)] = 0.0
        fv = extract_features(dead, 220)
        names = feature_names()
        assert fv.degenerate_channels >= 3
        assert fv.values[names.index("pre_z_mag_a")] == IMPEDANCE_SENTINEL
        assert fv.values[names.index("pre_z_ang_a")] == 0.0
        assert fv.values[names.index("pre_z_re_a")] == IMPEDANCE_SENTINEL
        assert fv.values[names.index("pre_z_im_a")] == 0.0

    def test_snapshot_separation(self):
        """Pre snapshot reflects the healthy state when the trigger sits
        just after inception."""
        stream = fault_stream("ABC", 0.5, 0.001)
        fv = extract_features(stream, 205)  # pre snapshot at 188 < 200
        names = feature_names()
        pre_v = fv.values[names.index("pre_v_mag_a")]
        post_v = fv.values[names.index("post_v_mag_a")]
        assert post_v < 0.7 * pre_v


class TestCurrentFloor:
    """Apparent impedance of a channel that carries only noise is the ratio
    of two noise phasors; the floor keeps it out of the features."""

    def test_noise_only_sequence_channels_get_sentinel(self):
        healthy = generate_stream(default_scenario(duration_s=0.1))
        noisy = apply_distortions(healthy, DistortionSpec(snr_db=35.0), 3)
        fv = extract_features(noisy, 50)
        names = feature_names()
        for snap in ("pre", "post"):
            for ch in ("seq0", "seq2"):
                for group, expected in (("z_mag", IMPEDANCE_SENTINEL),
                                        ("z_re", IMPEDANCE_SENTINEL),
                                        ("z_ang", 0.0), ("z_im", 0.0)):
                    label = f"{snap}_{group}_{ch}"
                    assert fv.values[names.index(label)] == expected, label
            # load current keeps the phases and the positive sequence
            for ch in ("a", "b", "c", "seq1"):
                assert fv.values[names.index(f"{snap}_z_mag_{ch}")] != IMPEDANCE_SENTINEL
        assert fv.degenerate_channels == 4

    def test_ground_fault_keeps_zero_sequence_impedance(self):
        noisy = apply_distortions(fault_stream("AG", 0.3, 0.001),
                                  DistortionSpec(snr_db=35.0), 3)
        fv = extract_features(noisy, 220)
        names = feature_names()
        post = fv.values[names.index("post_z_mag_seq0")]
        assert post != IMPEDANCE_SENTINEL
        assert np.isfinite(post)

    @pytest.mark.parametrize("current, substituted", [
        (I_D0, False),
        (np.nextafter(I_D0, 0.0), True),
    ])
    def test_floor_is_reference_pickup(self, current, substituted):
        """The floor sits at the relay's reference pickup ``i_d0``; a
        current at it keeps its impedance, one just below does not."""
        stream = fault_stream()
        trigger = 220
        edited = stream.copy()
        edited.i1[trigger] = current + 0j  # same current on all three phases
        fv = extract_features(edited, trigger)
        names = feature_names()
        for ch in ("a", "b", "c"):
            z_mag = fv.values[names.index(f"post_z_mag_{ch}")]
            assert (z_mag == IMPEDANCE_SENTINEL) == substituted, ch
        if not substituted:
            k = names.index("post_z_mag_a")
            v_a = np.abs(edited.v1[trigger][0])
            assert fv.values[k] == pytest.approx(v_a / current)


class TestBatchedExtraction:
    """One call over many triggers gives, row for row, the bits and the
    degenerate counts of the snapshot-by-snapshot oracle."""

    @staticmethod
    def noisy_streams():
        healthy = generate_stream(default_scenario(duration_s=0.3))
        streams = [apply_distortions(healthy, DistortionSpec(snr_db=35.0), 5)]
        for seed, (kind, x, r_f) in enumerate([("AG", 0.3, 0.001), ("BC", 0.7, 5.0),
                                               ("ABC", 0.5, 0.001)]):
            streams.append(apply_distortions(fault_stream(kind, x, r_f),
                                             DistortionSpec(snr_db=35.0), seed))
        dead = streams[1].copy()
        dead.i1[230] = 0.0  # dead current in the post snapshot of 230, the pre of 247
        streams.append(dead)
        return streams

    def test_matches_oracle_row_by_row(self):
        saw_sentinel = saw_dead = False
        for stream in self.noisy_streams():
            triggers = np.arange(pre_trigger_offset(stream), len(stream))
            fv = extract_features(stream, triggers)
            assert fv.values.shape == (len(triggers), FEATURE_DIM)
            assert np.array_equal(fv.trigger_index, triggers)
            for row, k in enumerate(triggers):
                expected, degenerate = trigger_features(stream, int(k))
                assert fv.values[row].tobytes() == expected.tobytes(), k
                assert fv.degenerate_channels[row] == degenerate, k
                saw_sentinel |= IMPEDANCE_SENTINEL in expected
                saw_dead |= degenerate >= 6
        assert saw_sentinel and saw_dead

    def test_single_trigger_matches_its_batch_row(self):
        stream = self.noisy_streams()[1]
        batch = extract_features(stream, [220, 260])
        single = extract_features(stream, 260)
        assert single.values.tobytes() == batch.values[1].tobytes()
        assert single.degenerate_channels == batch.degenerate_channels[1]
        assert isinstance(single.trigger_index, int)

    def test_empty_batch(self):
        fv = extract_features(fault_stream(), [])
        assert fv.values.shape == (0, FEATURE_DIM)

    @pytest.mark.parametrize("bad", ["below_offset", "at_length"])
    def test_one_bad_trigger_rejects_the_batch(self, bad):
        stream = fault_stream()
        k = pre_trigger_offset(stream) - 1 if bad == "below_offset" else len(stream)
        with pytest.raises(ValueError):
            extract_features(stream, [220, k, 230])

    @pytest.mark.parametrize("bad", [[220.0, 230.0], [[220, 230]]])
    def test_rejects_non_integer_or_nested_triggers(self, bad):
        with pytest.raises(ValueError):
            extract_features(fault_stream(), bad)

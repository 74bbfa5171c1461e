import tracemalloc

import numpy as np
import pytest

import fmaguard.classifier as zcc
import fmaguard.harness as hn


class TestSweep:
    def test_full_grid_size(self):
        spec = hn.SweepSpec()
        assert spec.grid_size() == 11 * 9 * 27 == 2673

    def test_single_cell(self):
        spec = hn.SweepSpec(kinds=("AG",), locations=(0.5,), resistances=(1.0,))
        cases = hn.generate_sweep(spec, seed=0)
        assert len(cases) == 1
        assert cases[0].label == 1

    def test_both_directions_doubles_grid(self):
        spec = hn.SweepSpec(kinds=("AG", "BC"), locations=(0.3, 0.7), resistances=(1.0,),
                            both_directions=True)
        assert spec.grid_size() == 8
        cases = hn.generate_sweep(spec, seed=0)
        assert len(cases) == 8
        mirrored = [c for c in cases if c.kind.endswith(":mirror")]
        assert len(mirrored) == 4
        # the mirrored corridor swaps the sources and flips the position
        m = mirrored[0]
        base = hn.default_scenario()
        assert m.scenario.source1 == base.source2
        assert m.scenario.fault.x == pytest.approx(0.7)
        # a masked fault on the mirrored relay is still masked and detectable
        stream = hn.realize(m)
        from fmaguard.relay import RelaySettings, trip_eval_stream

        trip, *_ = trip_eval_stream(stream.i1, stream.i2, RelaySettings())
        assert not trip.any()

    def test_deterministic(self):
        spec = hn.SweepSpec(positives=10, negatives=10)
        a = hn.generate_sweep(spec, seed=5)
        b = hn.generate_sweep(spec, seed=5)
        assert [c.case_id for c in a] == [c.case_id for c in b]
        assert [c.seed for c in a] == [c.seed for c in b]
        assert [c.kind for c in a] == [c.kind for c in b]
        c = hn.generate_sweep(spec, seed=6)
        assert [c2.kind for c2 in c] != [c2.kind for c2 in a] or \
               [c2.seed for c2 in c] != [c2.seed for c2 in a]

    def test_negative_mix_proportions(self):
        spec = hn.SweepSpec(positives=5, negatives=40, negative_external_fraction=0.75)
        cases = hn.generate_sweep(spec, seed=1)
        ext = [c for c in cases if c.kind.startswith("external")]
        dist = [c for c in cases if c.kind.startswith("disturbance")]
        assert len(ext) == 30
        assert len(dist) == 10
        assert all(c.label == 0 for c in ext + dist)

    def test_streams_realize(self):
        spec = hn.SweepSpec(positives=2, negatives=2)
        for case in hn.generate_sweep(spec, seed=3):
            stream = hn.realize(case)
            assert len(stream) == 450


class TestSplit:
    def test_ratio_split(self):
        labels = np.array([0] * 5 + [1] * 5)
        train, test = hn.split_indices(labels, ratio=0.7, seed=0)
        assert len(train) == 7 and len(test) == 3
        assert len(np.intersect1d(train, test)) == 0
        assert len(np.union1d(train, test)) == 10

    def test_stratification(self):
        labels = np.array([0] * 40 + [1] * 20)
        train, test = hn.split_indices(labels, ratio=0.7, seed=1)
        train_pos = (labels[train] == 1).sum()
        assert train_pos == 14  # 70% of each class within one item
        assert (labels[train] == 0).sum() == 28

    def test_deterministic(self):
        labels = np.array([0, 1] * 20)
        a = hn.split_indices(labels, seed=9)
        b = hn.split_indices(labels, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            hn.split_indices(np.array([0, 1]), ratio=1.0)

    def test_empty_class(self):
        with pytest.raises(hn.InsufficientData):
            hn.split_indices(np.array([], dtype=int))

    def test_one_insufficient_data_exception(self):
        assert hn.InsufficientData is zcc.InsufficientData


class TestMetrics:
    def test_perfect(self):
        rep = hn.compute_metrics(hn.ConfusionCounts(tp=2, tn=2, fp=0, fn=0))
        assert rep.accuracy == 1.0
        assert rep.precision == 1.0
        assert rep.recall == 1.0

    def test_zero_recall(self):
        rep = hn.compute_metrics(hn.ConfusionCounts(tp=0, tn=1, fp=0, fn=1))
        assert rep.recall == 0.0
        assert rep.fp_rate == 0.0

    def test_precision_guard(self):
        rep = hn.compute_metrics(hn.ConfusionCounts(tp=0, tn=3, fp=0, fn=1))
        assert rep.precision is None

    def test_reference_anchor(self):
        """A confusion matrix consistent with the reference results table
        reproduces its printed percentages."""
        counts = hn.ConfusionCounts(tp=1608, tn=1613, fp=0, fn=5)
        rep = hn.compute_metrics(counts)
        assert round(100 * rep.accuracy, 3) == 99.845
        assert rep.precision == 1.0
        assert round(100 * rep.recall, 2) == 99.69

    def test_identities(self):
        counts = hn.ConfusionCounts(tp=7, tn=11, fp=3, fn=2)
        rep = hn.compute_metrics(counts)
        assert rep.accuracy == pytest.approx((7 + 11) / 23)
        assert rep.recall + rep.fn_rate == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(hn.UndefinedMetric):
            hn.compute_metrics(hn.ConfusionCounts())

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            hn.ConfusionCounts(tp=-1)


class TestRoc:
    def test_perfect_detector(self):
        auc, _ = hn.roc_auc([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        assert auc == pytest.approx(1.0)

    def test_coin_flip_diagonal(self):
        auc, _ = hn.roc_auc([(0.0, 0.0), (0.25, 0.25), (0.5, 0.5), (1.0, 1.0)])
        assert auc == pytest.approx(0.5)

    def test_order_invariance(self):
        pts = [(0.0, 0.0), (0.2, 0.7), (0.6, 0.9), (1.0, 1.0)]
        a, _ = hn.roc_auc(pts)
        b, _ = hn.roc_auc(list(reversed(pts)))
        assert a == b

    def test_degenerate(self):
        with pytest.raises(hn.DegenerateCurve):
            hn.roc_auc([(0.5, 0.5), (0.5, 0.5)])


class TestSuiteEvaluation:
    def test_mi_counts_and_budget(self):
        cases = hn.generate_sweep(hn.SweepSpec(positives=8, negatives=8), seed=13)
        outcomes = hn.mi_only_outcomes(cases)
        budget = hn.budget_samples(cases[0].scenario)
        assert budget == 33
        counts = hn.mi_counts(outcomes, budget)
        assert counts.total == 16
        assert counts.tp + counts.fn == 8

    def test_dataset_shapes_and_alignment(self):
        cases = hn.generate_sweep(hn.SweepSpec(positives=4, negatives=4), seed=2)
        x, y, ids = hn.build_dataset(cases)
        assert x.shape[1] == 108
        # every case contributes at least one row, one row per trigger
        assert len(x) == len(y) == len(ids) >= 8
        assert set(ids) == {c.case_id for c in cases}
        by_case = {c.case_id: c.label for c in cases}
        assert all(by_case[i] == label for i, label in zip(ids, y))

    def test_dataset_csv_round_trip(self, tmp_path):
        cases = hn.generate_sweep(hn.SweepSpec(positives=3, negatives=3), seed=4)
        x, y, ids = hn.build_dataset(cases)
        path = tmp_path / "ds.csv"
        hn.write_dataset_csv(path, x, y, ids)
        x2, y2, ids2 = hn.read_dataset_csv(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)
        assert ids == ids2

    def test_pipeline_counts(self, trained_model):
        cases = hn.generate_sweep(hn.SweepSpec(positives=10, negatives=10), seed=31)
        cfg = hn.default_pipeline_config(model=trained_model)
        rows = hn.pipeline_outcomes(cases, cfg)
        counts = hn.pipeline_counts(rows, hn.budget_samples(cases[0].scenario))
        assert counts.total == 20
        assert counts.fp == 0

    def test_parallel_jobs_match_serial(self, trained_model):
        cases = hn.generate_sweep(hn.SweepSpec(positives=4, negatives=4), seed=8)
        cfg = hn.default_pipeline_config(model=trained_model)
        serial = hn.pipeline_outcomes(cases, cfg, jobs=1)
        parallel = hn.pipeline_outcomes(cases, cfg, jobs=2)
        assert [(r.case_id, r.fma_alarm, r.latency_samples) for r in serial] == \
               [(r.case_id, r.fma_alarm, r.latency_samples) for r in parallel]

    def test_parallel_dataset_matches_serial(self):
        cases = hn.generate_sweep(hn.SweepSpec(positives=3, negatives=3, snr_db=35.0), seed=8)
        x1, y1, ids1 = hn.build_dataset(cases, jobs=1)
        x2, y2, ids2 = hn.build_dataset(cases, jobs=2)
        assert x1.tobytes() == x2.tobytes()
        assert np.array_equal(y1, y2) and ids1 == ids2

    def test_dataset_peak_memory_does_not_grow_with_cases(self):
        """Streams are realized and reduced one case at a time, so doubling
        the case count leaves the peak to the feature rows, not the streams."""

        def sweep(n):
            return hn.generate_sweep(hn.SweepSpec(positives=n // 2, negatives=n - n // 2,
                                                  snr_db=35.0), seed=77)

        hn.build_dataset(sweep(8))  # fill the steady-state memos first
        peaks = []
        for cases in (sweep(40), sweep(80)):
            tracemalloc.start()
            try:
                hn.build_dataset(cases)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

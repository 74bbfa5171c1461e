"""The four benchmark workloads, each driven through fmaguard's public API.

Every workload builds its cases from the run seed and hands the program
only those cases.  One pass is the unit that is timed and repeated; a
pass repeats identical work, so per-pass figures are comparable within a
run.  Calls go through module attributes (``hn.realize``, never a name
imported from a module) so the tracer's wrappers see them.

Why each workload exists, and which layer it should move, is in
``perfbench/README.md``; ``WHY`` below carries the one-line reasons.
"""

from __future__ import annotations

import csv
import hashlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import fmaguard.classifier as zcc
import fmaguard.cli as fm_cli
import fmaguard.features as features
import fmaguard.harness as hn
import fmaguard.mismatch as mismatch
import fmaguard.pipeline as pipeline
import fmaguard.relay as relay

WHY = {
    "mask_sweep": "full 2673-cell masked internal-fault grid without noise: steady-state "
                  "physics dominates; no distortions, features or classifier",
    "zcc_fit": "acceptance-style noisy mix turned into ZCC rows, then a fixed-epoch "
               "training run: distortions, trigger alignment, features and training",
    "detect_eval": "online relay plus two-stage detector over a 1000-case noisy mix, "
                   "timed per case from realize through the verdict",
    "cli_roundtrip": "README operator flow in-process (dataset, train, eval, simulate): "
                     "config parsing, CSV and model artifacts, stealthy attack",
}

# Acceptance-style training mix (35 dB noise; negatives 85% external
# faults with CT saturation, the rest disturbances) at 1/16 of the
# acceptance fixture's 1000 + 2400 cases.  A pass stays near one second,
# so a run repeats every step often enough to catch the host at speed.
TRAIN_MIX = {
    "full": hn.SweepSpec(positives=62, negatives=150, snr_db=35.0,
                         negative_external_fraction=0.85),
    "tiny": hn.SweepSpec(positives=6, negatives=10, snr_db=35.0,
                         negative_external_fraction=0.85),
}
TRAIN_EPOCHS = {"full": 20, "tiny": 2}
TRAIN_HIDDEN = (310, 90)
TRAIN_BATCH = 96

MASK_GRID = {
    "full": hn.SweepSpec(),
    "tiny": hn.SweepSpec(kinds=("AG", "BCG"), locations=(0.1, 0.9), resistances=(0.001, 300)),
}
EVAL_MIX = {
    "full": hn.SweepSpec(positives=500, negatives=500, snr_db=35.0),
    "tiny": hn.SweepSpec(positives=5, negatives=5, snr_db=35.0),
}
# detect_eval's model is trained on a sweep of this fixed seed (the
# acceptance fixture's), so every run evaluates the same model and only
# the evaluated cases follow the run seed.
DETECT_TRAIN_SEED = 77

SCENARIO_CONFIGS = ("fma_ag_x10_bolted", "fma_ag_mid_150ohm", "fma_stealthy_midline",
                    "external_fault_cleared", "disturbance_capacitor", "healthy")
# train_demo.yaml trains 80 epochs; 10 keep cli_roundtrip about config,
# artifacts and I/O rather than a second training benchmark (zcc_fit).
CLI_EPOCHS = {"full": 10, "tiny": 2}
CLI_TINY_SWEEPS = {"dataset": {"positives": 4, "negatives": 6},
                   "eval": {"positives": 3, "negatives": 3}}


@dataclass
class PassResult:
    """What one pass did.

    ``steps`` times every step of the pass (one case, one phase, one
    command) under an id that is the same on every pass, so the runner
    can take each step's fastest repeat.  ``case_steps`` names the steps
    that realize and evaluate cases.
    """

    cases: int  # cases realized in the pass
    attempted: int
    steps: dict = field(default_factory=dict)
    case_steps: set = field(default_factory=set)
    failed: int = 0
    checks: list = field(default_factory=list)  # failed correctness checks
    case_ms: list = field(default_factory=list)  # per-case latency samples
    quality: dict = field(default_factory=dict)  # outcome figures, reported only
    train_row_epochs: float = 0.0
    errors: list = field(default_factory=list)  # first few per-case failures


def _note(result: PassResult, what: str, exc: Exception) -> None:
    result.failed += 1
    if len(result.errors) < 5:
        result.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def _train_config(seed: int, size: str) -> zcc.TrainConfig:
    return zcc.TrainConfig(epochs=TRAIN_EPOCHS[size], seed=seed, hidden=TRAIN_HIDDEN,
                           batch_size=TRAIN_BATCH)


def model_digest(model) -> str:
    digest = hashlib.sha256()
    for arr in (*model.weights, *model.biases):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, root: Path, scratch: Path):
        self.seed = seed
        self.size = size
        self.root = root
        self.scratch = scratch

    def setup(self):
        """Work done before the timed passes; returns the pass state."""
        return None

    def digest(self, state) -> str | None:
        """Fingerprint of the set-up state; repeats must agree."""
        return None

    def run_pass(self, state, tracer) -> PassResult:
        raise NotImplementedError


class MaskSweep(Workload):
    """realize -> relay.trip_eval_stream -> compute_p_stream + mi_trace per cell.

    Check: the relay trips on no frame of any cell.
    """

    name = "mask_sweep"

    def run_pass(self, state, tracer) -> PassResult:
        clock = time.perf_counter
        t0 = clock()
        cases = hn.generate_sweep(MASK_GRID[self.size], self.seed)
        order = np.random.default_rng(self.seed).permutation(len(cases))
        mi_cfg = hn.default_mi_config()
        settings = relay.RelaySettings()
        budget = hn.budget_samples(cases[0].scenario)
        res = PassResult(cases=len(cases), attempted=len(cases))
        res.steps["generate"] = clock() - t0
        tripped = []
        in_budget = 0
        for i in order:
            case = cases[i]
            if tracer is not None:
                tracer.set_case(case.case_id)
            start = clock()
            try:
                stream = hn.realize(case)
                trip, *_ = relay.trip_eval_stream(stream.i1, stream.i2, settings)
                norms = mismatch.compute_p_stream(stream, case.scenario.line, mi_cfg).norms
                latch = mismatch.mi_trace(norms, mi_cfg).latch_index
            except Exception as exc:  # noqa: BLE001 - per-case isolation
                res.steps[case.case_id] = clock() - start
                _note(res, case.case_id, exc)
                continue
            res.steps[case.case_id] = clock() - start
            res.case_ms.append(res.steps[case.case_id] * 1e3)
            if trip.any():
                tripped.append(case.case_id)
            if latch is not None and 0 <= latch - case.inception_index <= budget:
                in_budget += 1
        res.case_steps = set(res.steps)
        if tripped:
            res.checks.append(f"relay tripped on {len(tripped)} masked cells, e.g. {tripped[:3]}")
        res.quality["mi_recall"] = (in_budget / len(cases), "fraction")
        return res


class ZccFit(Workload):
    """build_dataset over the training mix, then a fixed-epoch train.

    Checks: a finite (rows, FEATURE_DIM) matrix with at least one row per
    case, finite losses, and identical weights on every pass.
    """

    name = "zcc_fit"

    def __init__(self, *args):
        super().__init__(*args)
        self._digests = set()

    def run_pass(self, state, tracer) -> PassResult:
        clock = time.perf_counter
        t0 = clock()
        cases = hn.generate_sweep(TRAIN_MIX[self.size], self.seed)
        x, y, ids = hn.build_dataset(cases)
        t1 = clock()
        cfg = _train_config(self.seed, self.size)
        result = zcc.train(x, y, cfg)
        t2 = clock()

        res = PassResult(cases=len(cases), attempted=len(cases),
                         steps={"dataset": t1 - t0, "train": t2 - t1}, case_steps={"dataset"})
        if x.shape != (len(y), features.FEATURE_DIM) or len(ids) != len(y):
            res.checks.append(f"dataset shape {x.shape} for {len(y)} labels")
        if len(y) < len(cases):
            res.checks.append(f"{len(y)} rows from {len(cases)} cases")
        if not np.isfinite(x).all():
            res.checks.append("non-finite feature values")
        losses = np.array(result.train_losses + result.val_losses)
        if not np.isfinite(losses).all():
            res.checks.append("non-finite training or validation loss")
        self._digests.add(model_digest(result.model))
        if len(self._digests) > 1:
            res.checks.append("training gave different weights on identical passes")

        n_tr = len(y) - int(round(cfg.val_fraction * len(y)))
        res.train_row_epochs = float(n_tr * len(result.train_losses))
        res.quality["val_loss"] = (min(result.val_losses), "1")
        res.quality["best_epoch_frac"] = ((result.best_epoch + 1) / len(result.train_losses),
                                          "fraction")
        res.quality["dataset_rows"] = (len(y), "rows")
        return res


class DetectEval(Workload):
    """pipeline.batch_run per case over the evaluation mix, model from setup.

    Check: every case yields exactly its own row.
    """

    name = "detect_eval"

    def setup(self):
        cases = hn.generate_sweep(TRAIN_MIX[self.size], DETECT_TRAIN_SEED)
        x, y, _ids = hn.build_dataset(cases)
        return zcc.train(x, y, _train_config(DETECT_TRAIN_SEED, self.size)).model

    def digest(self, state) -> str:
        return model_digest(state)

    def run_pass(self, model, tracer) -> PassResult:
        clock = time.perf_counter
        t0 = clock()
        cases = hn.generate_sweep(EVAL_MIX[self.size], self.seed)
        cfg = hn.default_pipeline_config(model=model)
        budget = hn.budget_samples(cases[0].scenario)
        res = PassResult(cases=len(cases), attempted=len(cases))
        res.steps["generate"] = clock() - t0
        rows = []
        for case in cases:
            if tracer is not None:
                tracer.set_case(case.case_id)
            start = clock()
            try:
                stream = hn.realize(case)
            except Exception as exc:  # noqa: BLE001 - per-case isolation
                res.steps[case.case_id] = clock() - start
                _note(res, case.case_id, exc)
                continue
            got = pipeline.batch_run([pipeline.BatchCase(
                case_id=case.case_id, stream=stream, label=case.label,
                inception_index=case.inception_index)], cfg)
            elapsed = res.steps[case.case_id] = clock() - start
            if len(got) != 1 or got[0].case_id != case.case_id:
                res.checks.append(f"case {case.case_id} gave {len(got)} rows")
                continue
            if got[0].error is not None:
                _note(res, case.case_id, RuntimeError(got[0].error))
            else:
                res.case_ms.append(elapsed * 1e3)
            rows += got
        res.case_steps = set(res.steps)
        counts = hn.pipeline_counts(rows, budget)
        res.quality["false_alarms"] = (counts.fp, "count")
        res.quality["missed_attacks"] = (counts.fn, "count")
        return res


class CliRoundtrip(Workload):
    """fmaguard.cli.main: dataset, train, eval, then simulate per scenario config.

    Checks: every command exits 0, writes its artifacts, and metrics.csv
    parses with counts that cover the evaluated sweep.
    """

    name = "cli_roundtrip"

    def _configs(self, tmp: Path) -> list:
        """``[(subcommand, config path, out dir, cases realized)]``."""
        ds, tr, ev = (yaml.safe_load((self.root / "configs" / f"{name}.yaml").read_text())
                      for name in ("dataset_demo", "train_demo", "eval_demo"))
        tr["train"]["epochs"] = CLI_EPOCHS[self.size]
        if self.size == "tiny":
            ds["sweep"].update(CLI_TINY_SWEEPS["dataset"])
            ev["sweep"].update(CLI_TINY_SWEEPS["eval"])
        tr["dataset"] = str(tmp / "dataset" / "dataset.csv")
        ev["model"] = str(tmp / "train" / "model.bin")
        commands = []
        for sub, cfg in (("dataset", ds), ("train", tr), ("eval", ev)):
            path = tmp / f"{sub}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            cases = cfg["sweep"]["positives"] + cfg["sweep"]["negatives"] if "sweep" in cfg else 0
            commands.append((sub, path, tmp / sub, cases))
        for name in SCENARIO_CONFIGS:
            commands.append(("simulate", self.root / "configs" / f"{name}.yaml",
                             tmp / f"simulate-{name}", 1))
        return commands

    def run_pass(self, state, tracer) -> PassResult:
        clock = time.perf_counter
        expected = {"dataset": ("dataset.csv",), "train": ("model.bin", "training.json"),
                    "eval": ("metrics.csv", "cases.csv"),
                    "simulate": ("stream.csv", "mi_trace.csv", "events.jsonl")}
        self.scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=self.scratch) as name:
            tmp = Path(name)
            commands = self._configs(tmp)
            res = PassResult(cases=sum(c[3] for c in commands), attempted=len(commands))
            for sub, path, out, cases in commands:
                if tracer is not None:
                    tracer.set_case(out.name if sub == "simulate" else None)
                start = clock()
                code = fm_cli.main([sub, "--config", str(path), "--out", str(out),
                                    "--seed", str(self.seed)])
                res.steps[out.name] = clock() - start
                if sub != "train":
                    res.case_steps.add(out.name)
                if code != 0:
                    _note(res, f"{sub} {path.name}", RuntimeError(f"exit code {code}"))
                    res.checks.append(f"{sub} --config {path.name} exited {code}")
                    continue
                missing = [a for a in (*expected[sub], "manifest.json") if not (out / a).is_file()]
                if missing:
                    res.checks.append(f"{sub} --config {path.name} did not write {missing}")
            eval_cases = next(c[3] for c in commands if c[0] == "eval")
            self._read_metrics(tmp / "eval" / "metrics.csv", eval_cases, res)
        return res

    @staticmethod
    def _read_metrics(path: Path, cases: int, res: PassResult) -> None:
        try:
            with open(path, newline="") as fh:
                lines = [line for line in fh if not line.startswith("#")]
            header, row = list(csv.reader(lines))
            got = dict(zip(header, row))
            counts = {k: int(got[k]) for k in ("tp", "tn", "fp", "fn")}
            float(got["accuracy"])
        except (OSError, ValueError, KeyError) as exc:
            res.checks.append(f"metrics.csv does not parse: {type(exc).__name__}: {exc}")
            return
        if sum(counts.values()) != cases:
            res.checks.append(f"metrics.csv counts {counts} do not cover {cases} cases")
        res.quality["false_alarms"] = (counts["fp"], "count")
        res.quality["missed_attacks"] = (counts["fn"], "count")


WORKLOADS = {w.name: w for w in (MaskSweep, ZccFit, DetectEval, CliRoundtrip)}

"""Operator commands: simulate, dataset, train, eval, roc.

Every command reads one YAML config, writes its artifacts atomically
into the output directory and records a manifest (tool version, config
digest, root seed) sufficient to re-run the command bit-identically.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

from . import __version__
from . import classifier as zcc
from . import harness as hn
from .attack import StealthyFMA, apply_distortions, apply_fma, apply_stealthy_fma
from .config import (
    ConfigError,
    load_yaml,
    parse_dataset_config,
    parse_eval_config,
    parse_roc_config,
    parse_simulate_config,
    parse_train_config,
    with_seed,
)
from .mismatch import write_mi_trace_csv
from .pipeline import PipelineConfig, run as run_pipeline, write_events_jsonl
from .scenario import generate_stream, write_stream_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class MissingArtifact(Exception):
    """An upstream artifact (dataset, model) this command depends on is absent."""


def _atomic_write(path: Path, writer) -> None:
    """Write via temp file then rename, so outputs are never half-written."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".tmp-{path.name}-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, subcommand: str, config_path, seed: int) -> None:
    manifest = {
        "tool": "fmaguard",
        "version": __version__,
        "subcommand": subcommand,
        "config_path": str(config_path),
        "config_sha256": _sha256(config_path),
        "root_seed": seed,
        "output_dir": str(out_dir),
    }
    _atomic_write(out_dir / "manifest.json", lambda tmp: Path(tmp).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"))


def _write_csv(path: Path, header, rows, schema: str) -> None:
    def writer(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write(f"# schema={schema}\n")
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    _atomic_write(path, writer)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# --- subcommands --------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = with_seed(parse_simulate_config(load_yaml(args.config)), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    stream = generate_stream(cfg.scenario)
    if cfg.attack is not None:
        if isinstance(cfg.attack.mode, StealthyFMA):
            stream = apply_stealthy_fma(stream, cfg.attack, cfg.scenario.line)
        else:
            stream = apply_fma(stream, cfg.attack)
    stream = apply_distortions(stream, cfg.distortion, cfg.seed)

    model = None
    if cfg.zcc.model:
        if not os.path.exists(cfg.zcc.model):
            raise MissingArtifact(f"model file not found: {cfg.zcc.model}")
        model = zcc.load_model(cfg.zcc.model)

    pipe_cfg = PipelineConfig(line=cfg.scenario.line, relay=cfg.relay, mi=cfg.mi,
                              model=model, zcc_threshold=cfg.zcc.threshold)
    result = run_pipeline(stream, pipe_cfg)

    _atomic_write(out / "stream.csv", lambda tmp: write_stream_csv(stream, tmp))
    _atomic_write(out / "mi_trace.csv",
                  lambda tmp: write_mi_trace_csv(tmp, stream.t, result.norms,
                                                 result.m, result.l_u, result.o))
    _atomic_write(out / "events.jsonl", lambda tmp: write_events_jsonl(result.events, tmp))
    write_manifest(out, "simulate", args.config, cfg.seed)
    return EXIT_OK


def cmd_dataset(args) -> int:
    cfg = with_seed(parse_dataset_config(load_yaml(args.config)), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cases = hn.generate_sweep(cfg.sweep, cfg.seed)
    x, y, ids = hn.build_dataset(cases, f=cfg.f, jobs=args.jobs)
    _atomic_write(out / "dataset.csv", lambda tmp: hn.write_dataset_csv(tmp, x, y, ids))
    write_manifest(out, "dataset", args.config, cfg.seed)
    return EXIT_OK


def cmd_train(args) -> int:
    data = load_yaml(args.config)
    cfg = parse_train_config(data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.path.exists(cfg.dataset):
        raise MissingArtifact(f"dataset file not found: {cfg.dataset}")
    x, y, _ids = hn.read_dataset_csv(cfg.dataset)
    train_cfg = cfg.train if args.seed is None else with_seed(cfg.train, args.seed)
    result = zcc.train(x, y, train_cfg)

    summary = {
        "best_epoch": result.best_epoch,
        "train_losses": result.train_losses,
        "val_losses": result.val_losses,
        "train_accuracy": zcc.accuracy(result.model, x, y),
        "layer_sizes": list(result.model.layer_sizes),
    }
    if cfg.kfold:
        folds = zcc.kfold_evaluate(x, y, train_cfg)
        accs = [f.accuracy for f in folds]
        summary["kfold"] = {
            "accuracies": accs,
            "mean_accuracy": statistics.fmean(accs),
            "stdev_accuracy": statistics.pstdev(accs),
        }
    _atomic_write(out / "model.bin", lambda tmp: zcc.save_model(result.model, tmp))
    _atomic_write(out / "training.json", lambda tmp: Path(tmp).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"))
    write_manifest(out, "train", args.config, train_cfg.seed)
    return EXIT_OK


EVAL_CSV_SCHEMA = "fmaguard-metrics-v1"
CASES_CSV_SCHEMA = "fmaguard-cases-v1"
ROC_CSV_SCHEMA = "fmaguard-roc-v1"


def cmd_eval(args) -> int:
    cfg = with_seed(parse_eval_config(load_yaml(args.config)), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.path.exists(cfg.model):
        raise MissingArtifact(f"model file not found: {cfg.model}")
    model = zcc.load_model(cfg.model)

    cases = hn.generate_sweep(cfg.sweep, cfg.seed)
    pipe_cfg = hn.default_pipeline_config(model=model, f=cfg.f,
                                          zcc_threshold=cfg.threshold)
    rows = hn.pipeline_outcomes(cases, pipe_cfg, jobs=args.jobs)
    budget = hn.budget_samples(cases[0].scenario)
    counts = hn.pipeline_counts(rows, budget)
    report = hn.compute_metrics(counts)

    _write_csv(out / "metrics.csv",
               ["accuracy", "precision", "recall", "fp_rate", "fn_rate",
                "tp", "tn", "fp", "fn"],
               [[_fmt(report.accuracy), _fmt(report.precision), _fmt(report.recall),
                 _fmt(report.fp_rate), _fmt(report.fn_rate),
                 counts.tp, counts.tn, counts.fp, counts.fn]],
               EVAL_CSV_SCHEMA)
    _write_csv(out / "cases.csv",
               ["case_id", "label", "relay_trip", "mi_trigger", "fma_alarm",
                "latency_samples", "error"],
               [[r.case_id, r.label, int(r.relay_trip), int(r.mi_trigger),
                 int(r.fma_alarm), _fmt(r.latency_samples), r.error or ""]
                for r in rows],
               CASES_CSV_SCHEMA)
    write_manifest(out, "eval", args.config, cfg.seed)
    return EXIT_OK


def cmd_roc(args) -> int:
    cfg = with_seed(parse_roc_config(load_yaml(args.config)), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = None
    if cfg.model:
        if not os.path.exists(cfg.model):
            raise MissingArtifact(f"model file not found: {cfg.model}")
        model = zcc.load_model(cfg.model)

    cases = hn.generate_sweep(cfg.sweep, cfg.seed)
    budget = hn.budget_samples(cases[0].scenario)

    rows = []
    mi_points = [(0.0, 0.0), (1.0, 1.0)]
    for f in cfg.f_list:
        outcomes = hn.mi_only_outcomes(cases, f=f, jobs=args.jobs)
        counts = hn.mi_counts(outcomes, budget)
        rep = hn.compute_metrics(counts)
        mi_points.append((rep.fp_rate or 0.0, rep.recall or 0.0))
        rows.append(["mi_only", _fmt(f), "", _fmt(rep.fp_rate), _fmt(rep.recall)])
    auc_mi, _ = hn.roc_auc(mi_points)

    auc_full = None
    if model is not None:
        full_points = [(0.0, 0.0), (1.0, 1.0)]
        for f in cfg.f_list:
            for thr in cfg.thresholds:
                pipe_cfg = hn.default_pipeline_config(model=model, f=f, zcc_threshold=thr)
                prows = hn.pipeline_outcomes(cases, pipe_cfg, jobs=args.jobs)
                counts = hn.pipeline_counts(prows, budget)
                rep = hn.compute_metrics(counts)
                full_points.append((rep.fp_rate or 0.0, rep.recall or 0.0))
                rows.append(["mi_zcc", _fmt(f), _fmt(thr), _fmt(rep.fp_rate), _fmt(rep.recall)])
        auc_full, _ = hn.roc_auc(full_points)

    rows.sort(key=lambda r: (r[0], float(r[3] or 0.0), float(r[1] or 0.0)))
    _write_csv(out / "roc.csv", ["detector", "f", "threshold", "fp_rate", "tp_rate"],
               rows, ROC_CSV_SCHEMA)
    summary = {"auc_mi_only": auc_mi}
    if auc_full is not None:
        summary["auc_mi_zcc"] = auc_full
    _atomic_write(out / "auc.json", lambda tmp: Path(tmp).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"))
    write_manifest(out, "roc", args.config, cfg.seed)
    return EXIT_OK


# --- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmaguard",
        description="Simulate fault-masking attacks on a line current "
                    "differential relay and run the two-stage detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_jobs in (
        ("simulate", cmd_simulate, False),
        ("dataset", cmd_dataset, True),
        ("train", cmd_train, False),
        ("eval", cmd_eval, True),
        ("roc", cmd_roc, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        if needs_jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel workers")
        else:
            p.set_defaults(jobs=1)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"fmaguard: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as exc:
        print(f"fmaguard: missing artifact: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"fmaguard: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

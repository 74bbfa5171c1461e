"""In-memory spans around the public functions of each fmaguard layer.

The tracer wraps functions from outside the package: for every target it
replaces each binding of the original function object in the loaded
``fmaguard`` modules (``from .x import f`` copies included), so calls
are caught wherever the caller looks the function up.  Nothing under
``src/`` changes, and :meth:`Tracer.uninstall` restores the originals.

A span is ``(id, parent, case, name, start, end)``.  Spans of one case
share its case id: a call whose first argument carries ``case_id`` names
the case for itself, its children and the later siblings under the same
parent (so ``extract_features`` inside ``build_dataset`` inherits the
case that ``trigger_indices_for`` just named).  ``phasors`` is left
unwrapped on purpose: every other layer calls it per element, and a
wrapper there would measure the wrapper.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

# (module, function) pairs timed in the traced run.  ``sequence_network``
# solves are wrapped where ``scenario`` looks them up.
TARGETS = (
    ("scenario", "generate_stream"),
    ("scenario", "healthy_reference"),
    ("sequence_network", "solve_fault"),
    ("sequence_network", "solve_unfaulted"),
    ("attack", "apply_fma"),
    ("attack", "apply_distortions"),
    ("relay", "trip_eval_stream"),
    ("mismatch", "compute_p_stream"),
    ("mismatch", "mi_trace"),
    ("pipeline", "run"),
    ("pipeline", "scan_mi"),
    ("features", "extract_features"),
    ("classifier", "train"),
    ("classifier", "loss_and_grads"),
    ("classifier", "loss_only"),
    ("classifier", "predict_proba_internal"),
    ("harness", "generate_sweep"),
    ("harness", "realize"),
    ("harness", "trigger_indices_for"),
    ("harness", "build_dataset"),
    ("harness", "write_dataset_csv"),
    ("harness", "read_dataset_csv"),
    ("cli", "main"),
)
# ``cli.main`` gets one span name per subcommand.
CLI_SUBCOMMANDS = ("dataset", "train", "eval", "simulate")
MODULES = ("scenario", "sequence_network", "attack", "relay", "mismatch", "pipeline",
           "features", "classifier", "harness", "cli")
CLI_ARTIFACTS = ("dataset.csv", "model.bin", "training.json", "metrics.csv", "cases.csv",
                 "stream.csv", "mi_trace.csv", "events.jsonl", "manifest.json")


def span_names() -> list:
    names = []
    for module, func in TARGETS:
        if (module, func) == ("cli", "main"):
            names += [f"cli.main.{sub}" for sub in CLI_SUBCOMMANDS]
        else:
            names.append(f"{module}.{func}")
    return names


def _bytes_key(artifact: str) -> str:
    return f"cli.bytes.{artifact.replace('.', '_')}"


def _case_of(args, kwargs):
    case = kwargs.get("case", args[0] if args else None)
    return getattr(case, "case_id", None)


def _train_flop(args, kwargs, result) -> float:
    """Matmul FLOP of one ``classifier.train`` call, computed from the
    layer shapes: forward, weight and input gradients per training row,
    plus the validation forward after every epoch."""
    y = kwargs.get("y", args[1] if len(args) > 1 else None)
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    sizes = result.model.layer_sizes
    n = len(y)
    n_val = int(round(cfg.val_fraction * n))
    n_tr = n - n_val
    layers = [2.0 * a * b for a, b in zip(sizes[:-1], sizes[1:])]
    fwd = sum(layers)
    bwd = sum(layers) + sum(layers[1:])
    return len(result.train_losses) * (n_tr * (fwd + bwd) + n_val * fwd)


def _count(counts: Counter, name: str, args, kwargs, result) -> None:
    if name == "scenario.generate_stream":
        counts["scenario.segments"] += len(result.meta["segments"])
    elif name == "mismatch.compute_p_stream":
        counts["mismatch.substitutions"] += result.substitutions
    elif name == "pipeline.run":
        kinds = [e.kind for e in result.events]
        counts["pipeline.latches"] += kinds.count("MITrigger")
        counts["pipeline.alarms"] += kinds.count("FMAAlarm")
    elif name == "classifier.train":
        counts["classifier.train.flop"] += _train_flop(args, kwargs, result)
        counts["classifier.train.epochs"] += len(result.train_losses)
        counts["classifier.train.best_epochs"] += result.best_epoch + 1
    elif name.startswith("cli.main."):
        argv = list(kwargs.get("argv", args[0] if args else []))
        out = Path(argv[argv.index("--out") + 1])
        for artifact in CLI_ARTIFACTS:
            path = out / artifact
            if path.exists():
                counts[_bytes_key(artifact)] += path.stat().st_size


class Tracer:
    """Spans and counts kept in memory; the run writes them out at its end."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._stack = [[0, None]]  # frames of [span id, current case id]
        self._patched = []

    def set_case(self, case_id) -> None:
        """Case id for spans started from the benchmark's own loop."""
        self._stack[0][1] = case_id

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        ids = self._ids
        clock = time.perf_counter
        by_subcommand = name == "cli.main"

        def traced(*args, **kwargs):
            span = name
            if by_subcommand:
                span = f"cli.main.{list(kwargs.get('argv', args[0] if args else []))[0]}"
            parent = stack[-1]
            case = _case_of(args, kwargs)
            if case is None:
                case = parent[1]
            else:
                parent[1] = case
            sid = next(ids)
            stack.append([sid, case])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent[0], case, span, start, end))
            _count(counts, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items()
                  if key == "fmaguard" or key.startswith("fmaguard.")]
        for module_name, func in TARGETS:
            module = importlib.import_module(f"fmaguard.{module_name}")
            original = getattr(module, func)
            wrapper = self._wrap(f"{module_name}.{func}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> tuple:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.set_case(None)


def aggregate(spans) -> dict:
    """``{name: (calls, busy_s, self_s)}``; self time is the span's
    duration minus the part its child spans cover."""
    child = Counter()
    for _sid, parent, _case, _name, start, end in spans:
        child[parent] += end - start
    out = {}
    for sid, _parent, _case, name, start, end in spans:
        calls, busy, self_s = out.get(name, (0, 0.0, 0.0))
        dur = end - start
        out[name] = (calls + 1, busy + dur, self_s + dur - child[sid])
    return out


def write_spans(path: Path, passes: list, origin: float) -> None:
    """One CSV row per span, times in seconds from the run's start."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        fh.write("pass,id,parent,case,name,start_s,end_s\n")
        for k, spans in enumerate(passes):
            for sid, parent, case, name, start, end in spans:
                fh.write(f"{k},{sid},{parent},{case or ''},{name},"
                         f"{start - origin!r},{end - origin!r}\n")


def per_layer_units() -> list:
    """``[(metric name, unit)]`` of the traced run, in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += [("scenario.segments", "count"), ("mismatch.substitutions", "count"),
            ("pipeline.latches", "count"), ("pipeline.alarms_per_latch", "fraction"),
            ("classifier.best_epoch_frac", "fraction"),
            ("classifier.train.gflop", "GFLOP"), ("classifier.train.gflop_per_s", "GFLOP/s")]
    out += [(_bytes_key(a), "bytes") for a in CLI_ARTIFACTS]
    out += [(f"{m}.self_share", "fraction") for m in MODULES]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_values(agg: dict, counts: Counter, wall: float, n_spans: int) -> dict:
    """The per-layer figures of one traced pass of ``wall`` seconds, all
    but ``trace.wall_s`` and ``trace.overhead_s``, which span passes.
    The GFLOP figures are computed from layer shapes, not counted."""
    values = {}
    for name in span_names():
        calls, busy, self_s = agg.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.busy_s"] = busy
        values[f"{name}.self_s"] = self_s
    gflop = counts.get("classifier.train.flop", 0.0) / 1e9
    values.update({
        "scenario.segments": counts.get("scenario.segments", 0),
        "mismatch.substitutions": counts.get("mismatch.substitutions", 0),
        "pipeline.latches": counts.get("pipeline.latches", 0),
        "pipeline.alarms_per_latch": _ratio(counts.get("pipeline.alarms", 0),
                                           counts.get("pipeline.latches", 0)),
        "classifier.best_epoch_frac": _ratio(counts.get("classifier.train.best_epochs", 0),
                                            counts.get("classifier.train.epochs", 0)),
        "classifier.train.gflop": gflop,
        "classifier.train.gflop_per_s": _ratio(gflop, values["classifier.train.busy_s"]),
    })
    values.update({key: counts.get(key, 0) for key in map(_bytes_key, CLI_ARTIFACTS)})
    for module in MODULES:
        own = sum(s for name, (_c, _b, s) in agg.items() if name.split(".")[0] == module)
        values[f"{module}.self_share"] = own / wall
    values["trace.spans"] = n_spans
    return values


def prediction_lines(workload: str, metrics: dict) -> list:
    """Module self-time shares, and the verdict on the prediction that
    steady-state physics holds the largest share of mask_sweep."""
    shares = {m: metrics[f"{m}.self_share"]["value"] for m in MODULES}
    lines = ["self-time share of traced wall: " + ", ".join(
        f"{m} {v:.3f}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1]))]
    if workload == "mask_sweep":
        physics = shares["scenario"] + shares["sequence_network"]
        rest = max(v for m, v in shares.items() if m not in ("scenario", "sequence_network"))
        verdict = "holds" if physics > rest else "is WRONG"
        lines.append(f"prediction (scenario + sequence_network largest on mask_sweep) {verdict}: "
                     f"{physics:.3f} against at most {rest:.3f} for any other module")
    return lines

#!/usr/bin/env python3
"""fmaguard benchmark: one workload per process, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload mask_sweep --seed 1 --seconds 20 --trace 0

The untraced run (``--trace 0``) reports the end-to-end metrics; the
traced run (``--trace 1``) reports per-layer calls, busy and self time
from spans taken around each layer's public functions, and writes the
spans to ``.bench_out/``.  Human-readable report lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.
"""

import os

# Pinned before numpy loads: ZCC weights differ bit for bit between one
# and two OpenBLAS threads, so unpinned quality figures would not repeat.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    aggregate,
    per_layer_units,
    per_layer_values,
    prediction_lines,
    write_spans,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up repeats per run; setup_s is their median.
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fmaguard.cli; "
                "print(repr(time.perf_counter() - t))")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cases_per_s", "cases/s"),
              ("peak_rss_mb", "MB"))
# A shared host's speed drifts by tens of percent over seconds to
# minutes, sometimes for a whole run.  A fixed probe that does not touch
# fmaguard (interpreter loop, small numpy calls, one training-sized
# matmul) runs PROBE_REPEATS times before every set-up repeat and every
# pass.  Reported times are scaled to a host on which the probe's 10th
# percentile takes REF_PROBE_S (about this sandbox's fast state): each
# set-up repeat by the probe run just before it, the passes by all the
# run's probes.  Both sides of a comparison run on one host, so the
# scale cancels from the ratio between them while most of the drift
# cancels within a run.
PROBE_REPEATS = 10
REF_PROBE_S = 0.0022


def _probe_inputs():
    rng = np.random.default_rng(0)
    return (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), rng.normal(size=6),
            rng.normal(size=(96, 108)), rng.normal(size=(108, 310)))


def probe_seconds(inputs) -> list:
    """PROBE_REPEATS timings of the host-speed probe."""
    a, b, x, w = inputs
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        for _ in range(80):
            np.linalg.solve(a, b)
        for _ in range(6):
            x @ w
        samples.append(time.perf_counter() - start)
    return samples


def import_seconds() -> float:
    """Import time of the whole package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(done.stdout.split()[-1])


def openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes

    numpy_dir = Path(np.__file__).resolve().parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                       *numpy_dir.glob(".libs/*openblas*")]):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "fmaguard").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


@dataclass
class Pass:
    traced: bool
    wall_s: float
    result: object  # workloads.PassResult
    probe_s: list  # host-speed probe times taken just before the pass
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def measure(workload, seconds: float, trace: bool):
    """Set up ``SETUP_REPEATS`` times, then run passes for ``seconds``.

    A traced run alternates untraced and traced passes, so the tracing
    overhead is measured in the same process.
    """
    clock = time.perf_counter
    probe_inputs = _probe_inputs()
    setups, setup_speeds, digests = [], [], []
    state = None
    for _ in range(SETUP_REPEATS):
        setup_speeds.append(host_speed(probe_seconds(probe_inputs)))
        imported = import_seconds()
        start = clock()
        state = workload.setup()
        setups.append(imported + clock() - start)
        digests.append(workload.digest(state))
    checks = [] if len(set(digests)) == 1 else [f"set-up state differs across repeats: {digests}"]

    tracer = Tracer() if trace else None
    passes = []
    deadline = clock() + seconds
    while True:
        probes = probe_seconds(probe_inputs)
        traced = trace and len(passes) % 2 == 1
        start = clock()
        if traced:
            with tracer:
                res = workload.run_pass(state, tracer)
        else:
            res = workload.run_pass(state, None)
        wall = clock() - start
        passes.append(Pass(traced, wall, res, probes, *(tracer.take() if traced else ())))
        if clock() >= deadline and len(passes) >= (2 if trace else 1):
            break
    probes = [t for p in passes for t in p.probe_s]
    return setups, setup_speeds, checks, passes, host_speed(probes)


def host_speed(probes) -> float:
    """Host speed relative to the reference: > 1 when the probe runs faster
    than REF_PROBE_S."""
    return REF_PROBE_S / float(np.percentile(probes, 10))


def fastest(results, case_only: bool = False) -> float:
    """Pass time with every step at its fastest repeat.

    Whole passes mix the host's fast and slow stretches; the minimum of
    each short step over the run's passes filters that drift out where a
    median of passes does not.
    """
    best = {}
    for res in results:
        for step, seconds in res.steps.items():
            if not case_only or step in res.case_steps:
                best[step] = min(seconds, best.get(step, seconds))
    return sum(best.values())


def end_to_end(setups, setup_speeds, passes, speed: float) -> dict:
    """Times in reference-host seconds: measured seconds times the host
    speed the probe measured before each set-up repeat and over the passes."""
    untraced = [p.result for p in passes if not p.traced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(t * v for t, v in zip(setups, setup_speeds)),
        "wall_s": fastest(untraced) * speed,
        "cases_per_s": untraced[0].cases / (fastest(untraced, case_only=True) * speed),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def reported(passes, setup_speeds, speed: float) -> dict:
    """Figures printed and recorded but not declared in BENCHMARK.json:
    they exist on some workloads only, or are not scaled to the reference
    host speed."""
    untraced = [p.result for p in passes if not p.traced]
    out = {"host_speed": (speed, "1"),
           "setup_host_speed": (statistics.median(setup_speeds), "1"),
           "wall_unscaled_s": (fastest(untraced), "s")}
    case_ms = [v for r in untraced for v in r.case_ms]
    if case_ms:
        out["case_ms_p50"] = (float(np.percentile(case_ms, 50)), "ms")
        out["case_ms_p99"] = (float(np.percentile(case_ms, 99)), "ms")
        out["case_ms_samples"] = (len(case_ms), "count")
    train_s = min((r.steps["train"] for r in untraced if "train" in r.steps), default=None)
    if train_s is not None:
        out["train_s"] = (train_s, "s")
        if untraced[0].train_row_epochs:
            out["train_sample_epochs_per_s"] = (untraced[0].train_row_epochs / train_s,
                                                "row-epochs/s")
    out.update(untraced[-1].quality)
    attempted = sum(p.result.attempted for p in passes)
    out["failed_frac"] = (sum(p.result.failed for p in passes) / attempted, "fraction")
    out["passes"] = (len(untraced), "count")
    out["pass_wall_median_s"] = (statistics.median(p.wall_s for p in passes if not p.traced), "s")
    return out


def per_layer(passes) -> dict:
    """Median over traced passes of every per-layer figure."""
    traced = [p for p in passes if p.traced]
    rows = [per_layer_values(aggregate(p.spans), p.counts, p.wall_s, len(p.spans))
            for p in traced]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["trace.wall_s"] = fastest([p.result for p in traced])
    values["trace.overhead_s"] = values["trace.wall_s"] - fastest(
        [p.result for p in passes if not p.traced])
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mask_sweep", "zcc_fit", "detect_eval", "cli_roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "fmaguard" / "__init__.py").is_file():
        print(f"perfbench: no fmaguard sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WHY, WORKLOADS

    env = environment(args)
    workload = WORKLOADS[args.workload](args.seed, args.size, ROOT, OUT / "tmp")
    run_start = time.perf_counter()
    setups, setup_speeds, checks, passes, speed = measure(workload, args.seconds,
                                                          bool(args.trace))

    for p in passes:
        checks += [c for c in p.result.checks if c not in checks]
    if env["blas_threads_runtime"] not in (None, BLAS_THREADS):
        checks.append(f"OpenBLAS runs {env['blas_threads_runtime']} threads, "
                      f"pinned {BLAS_THREADS}")
    attempted = sum(p.result.attempted for p in passes)
    failed = sum(p.result.failed for p in passes)
    errors = [e for p in passes for e in p.result.errors][:5]
    report = reported(passes, setup_speeds, speed)
    metrics = (per_layer(passes) if args.trace
               else end_to_end(setups, setup_speeds, passes, speed))

    record = {"environment": env, "why": WHY[args.workload], "correct": not checks,
              "checks_failed": checks, "errors": errors, "attempted": attempted,
              "failed": failed, "setup_samples_s": setups,
              "passes": [{"traced": p.traced, "wall_s": p.wall_s, "probe_s": p.probe_s,
                          "steps": p.result.steps} for p in passes],
              "reported": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.csv.gz", [p.spans for p in passes if p.traced],
                    run_start)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{WHY[args.workload]}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in report.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    for name, m in metrics.items():
        print(f"* {name:<28} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        for line in prediction_lines(args.workload, metrics):
            print(line)
    for message in checks + errors:
        print(f"! {message}")
    print(json.dumps({"correct": not checks, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())

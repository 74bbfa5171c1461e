"""The benchmark's own tests: a tiny-size smoke run of every workload in
both modes, the output contract, and the span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import functools
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import aggregate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@functools.cache
def tiny_run(workload: str, trace: int):
    return bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    done = tiny_run(workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_time_never_exceeds_busy_time(workload):
    done = tiny_run(workload, 1)
    assert done.returncode == 0, done.stderr[-3000:]
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    busy = {k[:-len(".busy_s")]: m["value"] for k, m in metrics.items() if k.endswith(".busy_s")}
    assert busy
    for name, value in busy.items():
        assert 0.0 <= metrics[f"{name}.self_s"]["value"] <= value, name


def test_aggregate_subtracts_children_once():
    # (id, parent, case, name, start, end): a 10 s root with two
    # children of 2 s and 3 s, one of which has a 1 s grandchild
    spans = [(2, 1, None, "b", 1.0, 3.0), (4, 3, None, "d", 5.0, 6.0),
             (3, 1, None, "c", 4.0, 7.0), (1, 0, None, "a", 0.0, 10.0)]
    agg = aggregate(spans)
    assert agg["a"] == (1, 10.0, 5.0)
    assert agg["b"] == (1, 2.0, 2.0)
    assert agg["c"] == (1, 3.0, 2.0)
    assert agg["d"] == (1, 1.0, 1.0)


def test_fails_without_the_program():
    """Given only BENCHMARK.json and its own files, the benchmark exits
    non-zero and prints no result."""
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128

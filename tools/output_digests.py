"""SHA-256 digests of fmaguard's outputs, for checking that a change
keeps every output bit-identical.

Run from the repository root, with BLAS pinned to one thread (trained
weights differ in their bits between BLAS thread counts)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/output_digests.py

It prints one digest per artifact:

* ``sweep``: the 2673-cell ``SweepSpec()`` masking grid at seed 1; per
  cell the delivered ``v1``, ``i1``, ``i2``, the relay trip matrix, the
  consistency norms, the substitution count and the MI latch index;
* ``dataset``: ``build_dataset`` ``x``, ``y`` and ``ids`` of the 212-case
  35 dB training mix at seed 77;
* ``model``: the weights and biases after 20 epochs on that dataset
  (hidden layers 310 and 90, batch 96, seed 77);
* ``pipeline``: ``pipeline.run`` events and ``norms``/``m``/``l_u``/``o``
  traces over the 1000-case 35 dB evaluation mix at seed 2024 with that
  model;
* ``cli``: every artifact of ``fmaguard`` run on the six bundled
  ``simulate`` configs and on the ``dataset -> train -> eval -> roc``
  demo chain, each into ``out/<config name>`` under a temporary working
  directory (the chain's configs name their inputs by those relative
  paths); the ``output_dir`` and ``config_path`` fields of each
  ``manifest.json`` are left out, as they name the run's directories.

Uses only the standard library, numpy and fmaguard.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

import fmaguard.classifier as zcc
import fmaguard.cli as cli
import fmaguard.harness as hn
import fmaguard.mismatch as mismatch
import fmaguard.pipeline as pipeline
import fmaguard.relay as relay

SWEEP = hn.SweepSpec()
SWEEP_SEED = 1
TRAIN_MIX = hn.SweepSpec(positives=62, negatives=150, snr_db=35.0,
                         negative_external_fraction=0.85)
TRAIN_SEED = 77
TRAIN = zcc.TrainConfig(epochs=20, seed=TRAIN_SEED, hidden=(310, 90), batch_size=96)
EVAL_MIX = hn.SweepSpec(positives=500, negatives=500, snr_db=35.0)
EVAL_SEED = 2024
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SIMULATE_CONFIGS = ("disturbance_capacitor", "external_fault_cleared", "fma_ag_mid_150ohm",
                    "fma_ag_x10_bolted", "fma_stealthy_midline", "healthy")
DEMO_CHAIN = (("dataset", "dataset_demo"), ("train", "train_demo"),
              ("eval", "eval_demo"), ("roc", "roc_demo"))


def _update(digest, *arrays) -> None:
    for arr in arrays:
        arr = np.asarray(arr)
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())


def sweep_digest(spec: hn.SweepSpec = SWEEP, seed: int = SWEEP_SEED) -> str:
    """Streams, relay trips, consistency norms and MI latches of a sweep."""
    digest = hashlib.sha256()
    mi_cfg = hn.default_mi_config()
    settings = relay.RelaySettings()
    for case in hn.generate_sweep(spec, seed):
        stream = hn.realize(case)
        trip, *_ = relay.trip_eval_stream(stream.i1, stream.i2, settings)
        ptrace = mismatch.compute_p_stream(stream, case.scenario.line, mi_cfg)
        latch = mismatch.mi_trace(ptrace.norms, mi_cfg).latch_index
        digest.update(case.case_id.encode())
        _update(digest, stream.v1, stream.i1, stream.i2, trip, ptrace.norms)
        digest.update(f"{ptrace.substitutions},{latch}".encode())
    return digest.hexdigest()


def dataset(spec: hn.SweepSpec = TRAIN_MIX, seed: int = TRAIN_SEED) -> tuple:
    return hn.build_dataset(hn.generate_sweep(spec, seed))


def dataset_digest(x: np.ndarray, y: np.ndarray, ids) -> str:
    digest = hashlib.sha256()
    _update(digest, x, y)
    digest.update("\n".join(ids).encode())
    return digest.hexdigest()


def model_digest(model: zcc.MLPModel) -> str:
    digest = hashlib.sha256()
    _update(digest, *model.weights, *model.biases)
    return digest.hexdigest()


def pipeline_digest(model: zcc.MLPModel, spec: hn.SweepSpec = EVAL_MIX,
                    seed: int = EVAL_SEED) -> str:
    """Events and detector traces of ``pipeline.run`` over a case mix; a
    case that raises contributes its exception type and message."""
    digest = hashlib.sha256()
    cfg = hn.default_pipeline_config(model=model)
    for case in hn.generate_sweep(spec, seed):
        digest.update(case.case_id.encode())
        try:
            result = pipeline.run(hn.realize(case), cfg)
        except Exception as exc:  # noqa: BLE001 - a per-case failure is an output too
            digest.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        events = [(e.t, e.kind, e.payload) for e in result.events]
        digest.update(json.dumps(events, sort_keys=True).encode())
        _update(digest, result.norms, result.m, result.l_u, result.o)
    return digest.hexdigest()


def cli_digest(configs: Path = CONFIGS, simulate=SIMULATE_CONFIGS,
               chain=DEMO_CHAIN) -> str:
    """Every artifact of the CLI runs, in run order, with the manifests'
    directory fields left out."""
    digest = hashlib.sha256()
    configs = Path(configs).resolve()
    runs = [("simulate", name) for name in simulate] + list(chain)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for sub, name in runs:
                out = Path("out") / name
                code = cli.main([sub, "--config", str(configs / f"{name}.yaml"),
                                 "--out", str(out)])
                if code != 0:
                    raise RuntimeError(f"{sub} {name} exited {code}")
                for path in sorted(out.iterdir()):
                    data = path.read_bytes()
                    if path.name == "manifest.json":
                        manifest = json.loads(data)
                        del manifest["output_dir"], manifest["config_path"]
                        data = json.dumps(manifest, sort_keys=True).encode()
                    digest.update(f"{name}/{path.name}:{len(data)}\n".encode())
                    digest.update(data)
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


def main() -> None:
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"sweep     {sweep_digest()}")
    x, y, ids = dataset()
    print(f"dataset   {dataset_digest(x, y, ids)}")
    model = zcc.train(x, y, TRAIN).model
    print(f"model     {model_digest(model)}")
    print(f"pipeline  {pipeline_digest(model)}")
    print(f"cli       {cli_digest()}")


if __name__ == "__main__":
    main()

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
  model.

Uses only the standard library, numpy and fmaguard.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import fmaguard.classifier as zcc
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


def main() -> None:
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"sweep     {sweep_digest()}")
    x, y, ids = dataset()
    print(f"dataset   {dataset_digest(x, y, ids)}")
    model = zcc.train(x, y, TRAIN).model
    print(f"model     {model_digest(model)}")
    print(f"pipeline  {pipeline_digest(model)}")


if __name__ == "__main__":
    main()

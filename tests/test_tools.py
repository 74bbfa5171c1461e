import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_digests as od  # noqa: E402

import fmaguard.classifier as zcc
import fmaguard.harness as hn

TINY_GRID = hn.SweepSpec(kinds=("AG", "BC"), locations=(0.1, 0.9), resistances=(0.001, 300.0))
TINY_MIX = hn.SweepSpec(positives=4, negatives=6, snr_db=35.0, negative_external_fraction=0.85)
TINY_TRAIN = zcc.TrainConfig(epochs=2, seed=3, hidden=(16, 8), batch_size=16)


def _digests() -> tuple:
    x, y, ids = od.dataset(TINY_MIX, seed=5)
    model = zcc.train(x, y, TINY_TRAIN).model
    return (od.sweep_digest(TINY_GRID, seed=1), od.dataset_digest(x, y, ids),
            od.model_digest(model), od.pipeline_digest(model, TINY_MIX, seed=6))


def test_output_digests_repeat():
    first, second = _digests(), _digests()
    assert first == second
    assert all(len(d) == 64 for d in first) and len(set(first)) == 4


TINY_CLI = {
    "healthy": "scenario: {duration_s: 0.2}\nseed: 0\n",
    "dataset_demo": "sweep: {positives: 3, negatives: 3, snr_db: 35}\nseed: 11\n",
    "train_demo": "dataset: out/dataset_demo/dataset.csv\n"
                  "train: {epochs: 2, seed: 9, batch_size: 4, hidden: [8]}\n",
    "eval_demo": "model: out/train_demo/model.bin\nsweep: {positives: 2, negatives: 2}\nseed: 21\n",
    "roc_demo": "model: out/train_demo/model.bin\nsweep: {positives: 2, negatives: 2}\n"
                "f_list: [0.05]\nseed: 33\n",
}


def test_cli_digest_repeats(tmp_path):
    for name, text in TINY_CLI.items():
        (tmp_path / f"{name}.yaml").write_text(text)
    first, second = (od.cli_digest(tmp_path, simulate=("healthy",)) for _ in range(2))
    assert first == second and len(first) == 64
    (tmp_path / "dataset_demo.yaml").write_text(TINY_CLI["dataset_demo"].replace("11", "12"))
    assert od.cli_digest(tmp_path, simulate=("healthy",)) != first

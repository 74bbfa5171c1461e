"""Zone-confirmation classifier: a small dense network trained from scratch.

Two ReLU hidden layers (310 and 90 units by default) and a two-way
softmax head, trained with Adam on a class-weighted cross-entropy plus
L2 penalty.  Misclassifying an external event as an internal masked
fault (a false alarm) costs ten times a missed internal fault, which
pushes the decision boundary toward fewer false positives.  Inputs are
z-scored with statistics taken from the training split only; the
standardizer travels with the model.

Training is deterministic for a given seed, including the serialized
model bytes, within one environment: the same numpy and BLAS build, CPU
kernel and BLAS thread count.  Across environments it is not: BLAS may
split a matrix product differently (one 96x108 by 108x310 product
already differs in its last bits between one and two OpenBLAS threads),
and training carries such differences into the weights.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_HIDDEN = (310, 90)
DEFAULT_L2 = 9.8838e-7
N_CLASSES = 2

MODEL_MAGIC = b"FMGZCC01"


class NonFiniteLoss(Exception):
    """Training diverged to a non-finite loss."""


class InsufficientData(Exception):
    """A split or fold lacks one of the classes."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the cost ratio fixes the false-positive
    penalty at ten times the false-negative one by default."""

    learning_rate: float = 1e-3
    epochs: int = 150
    batch_size: int = 64
    seed: int = 0
    fp_cost: float = 10.0
    fn_cost: float = 1.0
    l2_lambda: float = DEFAULT_L2
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    val_fraction: float = 0.15
    k_folds: int = 10

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("invalid optimization settings")
        if self.fp_cost <= 0 or self.fn_cost <= 0:
            raise ValueError("class costs must be positive")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in [0, 1)")


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


@dataclass
class MLPModel:
    """Dense network weights plus the input standardizer."""

    weights: list  # list of (in, out) arrays
    biases: list  # list of (out,) arrays
    l2_lambda: float
    standardizer: Standardizer
    meta: dict = field(default_factory=dict)

    @property
    def layer_sizes(self) -> tuple:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def copy(self) -> "MLPModel":
        return MLPModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            l2_lambda=self.l2_lambda,
            standardizer=Standardizer(self.standardizer.mean.copy(), self.standardizer.std.copy()),
            meta=dict(self.meta),
        )


def init_model(layer_sizes, seed: int, l2_lambda: float = DEFAULT_L2,
               standardizer: Standardizer | None = None) -> MLPModel:
    """He-initialized network of the given layer sizes."""
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / n_in))
        biases.append(np.zeros(n_out))
    if standardizer is None:
        dim = layer_sizes[0]
        standardizer = Standardizer(mean=np.zeros(dim), std=np.ones(dim))
    return MLPModel(weights=weights, biases=biases, l2_lambda=l2_lambda,
                    standardizer=standardizer)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: MLPModel, x: np.ndarray, standardized: bool = False):
    """Probabilities and layer activations for a (n, dim) batch."""
    a = x if standardized else model.standardizer.apply(x)
    activations = [a]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        activations.append(a)
    logits = a @ model.weights[-1] + model.biases[-1]
    return _softmax(logits), activations


def sample_weights(y: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """Per-sample loss weights: external (class 0) samples carry the
    false-positive cost, internal (class 1) the false-negative cost."""
    return np.where(y == 0, cfg.fp_cost, cfg.fn_cost).astype(float)


def loss_and_grads(model: MLPModel, x_std: np.ndarray, y: np.ndarray,
                   weights: np.ndarray):
    """Weighted cross-entropy plus L2, with analytic gradients.

    ``x_std`` must already be standardized.  The data term is the
    weighted mean of per-sample cross-entropies; the penalty applies to
    weight matrices only.
    """
    probs, activations = forward(model, x_std, standardized=True)
    n = len(y)
    w_sum = weights.sum()
    eps = 1e-300
    ce = -np.log(probs[np.arange(n), y] + eps)
    loss = float((weights * ce).sum() / w_sum)
    with np.errstate(over="ignore"):
        loss += model.l2_lambda * sum(float((w**2).sum()) for w in model.weights)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss became non-finite (data term {ce.max():g})")

    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), y] = 1.0
    delta = (probs - one_hot) * (weights / w_sum)[:, None]
    grads_w = []
    grads_b = []
    for layer in range(len(model.weights) - 1, -1, -1):
        a_prev = activations[layer]
        gw = a_prev.T @ delta + 2.0 * model.l2_lambda * model.weights[layer]
        gb = delta.sum(axis=0)
        grads_w.append(gw)
        grads_b.append(gb)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (activations[layer] > 0)
    grads_w.reverse()
    grads_b.reverse()
    return loss, grads_w, grads_b


def loss_only(model: MLPModel, x_std: np.ndarray, y: np.ndarray,
              weights: np.ndarray) -> float:
    probs, _ = forward(model, x_std, standardized=True)
    n = len(y)
    ce = -np.log(probs[np.arange(n), y] + 1e-300)
    loss = float((weights * ce).sum() / weights.sum())
    return loss + model.l2_lambda * sum(float((w**2).sum()) for w in model.weights)


@dataclass
class TrainResult:
    model: MLPModel
    train_losses: list
    val_losses: list
    best_epoch: int


def train(x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> TrainResult:
    """Adam training; returns the epoch snapshot with the best validation loss.

    Standardization statistics come from the training portion only.  With
    ``epochs == 0`` the freshly initialized model is returned untouched.
    """
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < N_CLASSES:
        raise InsufficientData("training data must contain both classes")
    rng = np.random.default_rng(cfg.seed)

    n = len(y)
    order = rng.permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx = order[:n_val]
    tr_idx = order[n_val:]
    if len(np.unique(y[tr_idx])) < N_CLASSES:
        raise InsufficientData("training split lost one class; lower val_fraction")

    standardizer = Standardizer.fit(x[tr_idx])
    x_tr = standardizer.apply(x[tr_idx])
    y_tr = y[tr_idx]
    x_val = standardizer.apply(x[val_idx]) if n_val else None
    y_val = y[val_idx] if n_val else None

    layer_sizes = (x.shape[1], *cfg.hidden, N_CLASSES)
    model = init_model(layer_sizes, seed=cfg.seed, l2_lambda=cfg.l2_lambda,
                       standardizer=standardizer)
    model.meta = {"seed": cfg.seed, "epochs": cfg.epochs}

    w_tr = sample_weights(y_tr, cfg)
    w_val = sample_weights(y_val, cfg) if n_val else None

    m_w = [np.zeros_like(w) for w in model.weights]
    v_w = [np.zeros_like(w) for w in model.weights]
    m_b = [np.zeros_like(b) for b in model.biases]
    v_b = [np.zeros_like(b) for b in model.biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best = model.copy()
    best_val = np.inf
    best_epoch = -1
    train_losses = []
    val_losses = []

    n_tr = len(y_tr)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n_tr)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n_tr, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, gw, gb = loss_and_grads(model, x_tr[idx], y_tr[idx], w_tr[idx])
            epoch_loss += loss
            batches += 1
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for layer in range(len(model.weights)):
                m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * gw[layer]
                v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * gw[layer] ** 2
                model.weights[layer] -= cfg.learning_rate * (m_w[layer] / corr1) / (
                    np.sqrt(v_w[layer] / corr2) + eps)
                m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * gb[layer]
                v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * gb[layer] ** 2
                model.biases[layer] -= cfg.learning_rate * (m_b[layer] / corr1) / (
                    np.sqrt(v_b[layer] / corr2) + eps)
        train_losses.append(epoch_loss / max(batches, 1))
        if n_val:
            vl = loss_only(model, x_val, y_val, w_val)
            val_losses.append(vl)
            if vl < best_val:
                best_val = vl
                best = model.copy()
                best_epoch = epoch
        else:
            best = model.copy()
            best_epoch = epoch

    result = best if cfg.epochs > 0 else model
    return TrainResult(model=result, train_losses=train_losses,
                       val_losses=val_losses, best_epoch=best_epoch)


def predict(model: MLPModel, features: np.ndarray):
    """Class (1 = internal masked fault, 0 = external) plus probabilities."""
    single = features.ndim == 1
    x = features[None, :] if single else features
    probs, _ = forward(model, x)
    labels = probs.argmax(axis=1)
    if single:
        return int(labels[0]), probs[0]
    return labels, probs


def predict_proba_internal(model: MLPModel, features: np.ndarray) -> np.ndarray:
    x = features[None, :] if features.ndim == 1 else features
    probs, _ = forward(model, x)
    return probs[:, 1]


def accuracy(model: MLPModel, x: np.ndarray, y: np.ndarray) -> float:
    labels, _ = predict(model, x)
    return float((labels == np.asarray(y)).mean())


def kfold_split(y: np.ndarray, k: int, seed: int) -> list:
    """Stratified folds with sizes differing by at most one per class."""
    if k < 2:
        raise ValueError("k must be at least 2")
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k].append(int(sample))
    return [np.array(sorted(f), dtype=int) for f in folds]


@dataclass
class FoldResult:
    fold: int
    accuracy: float
    val_loss: float


def kfold_evaluate(x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> list:
    """k rounds of train/validate on disjoint validation folds."""
    y = np.asarray(y, dtype=int)
    folds = kfold_split(y, cfg.k_folds, cfg.seed)
    for f in folds:
        if len(np.unique(y[f])) < N_CLASSES:
            raise InsufficientData("a fold lacks one of the classes")
    results = []
    sub_cfg = replace(cfg, val_fraction=0.0)
    for i, fold in enumerate(folds):
        mask = np.ones(len(y), dtype=bool)
        mask[fold] = False
        trained = train(x[mask], y[mask], sub_cfg)
        x_val = trained.model.standardizer.apply(x[fold])
        vl = loss_only(trained.model, x_val, y[fold], sample_weights(y[fold], cfg))
        results.append(FoldResult(fold=i, accuracy=accuracy(trained.model, x[fold], y[fold]),
                                  val_loss=vl))
    return results


# --- serialization ----------------------------------------------------------

def save_model(model: MLPModel, path) -> None:
    """Versioned flat binary: JSON header plus little-endian float64 blocks."""
    arrays = [model.standardizer.mean, model.standardizer.std]
    for w, b in zip(model.weights, model.biases):
        arrays.extend([w, b])
    header = {
        "format": MODEL_MAGIC.decode(),
        "layer_sizes": list(model.layer_sizes),
        "l2_lambda": model.l2_lambda,
        "meta": model.meta,
        "shapes": [list(a.shape) for a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path) -> MLPModel:
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)
    magic = buf.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise ValueError("not a classifier model file")
    (hlen,) = struct.unpack("<I", buf.read(4))
    header = json.loads(buf.read(hlen).decode())
    arrays = []
    for shape in header["shapes"]:
        count = int(np.prod(shape)) if shape else 1
        raw = buf.read(8 * count)
        arrays.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    standardizer = Standardizer(mean=arrays[0], std=arrays[1])
    weights = arrays[2::2]
    biases = arrays[3::2]
    return MLPModel(weights=weights, biases=biases, l2_lambda=header["l2_lambda"],
                    standardizer=standardizer, meta=header.get("meta", {}))

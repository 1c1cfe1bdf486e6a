"""Dense feed-forward binary classifier with manual backprop.

Rectifier hidden layers, a single logit output, inverted dropout,
class-weighted binary cross-entropy, AdamW with decoupled weight decay,
and early stopping on validation loss. Everything is plain numpy and
bit-deterministic under the config seed.

A model keeps all its weights and biases in one flat ``params`` vector,
so one optimizer step is a single pass over one array.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from leakaudit.data import Dataset, class_weights
from leakaudit.recipe import check
from leakaudit.seeds import derive_rng

__all__ = [
    "TrainConfig",
    "MlpModel",
    "TrainedModel",
    "init_model",
    "forward_logits",
    "weighted_bce_loss",
    "loss_and_grads",
    "adamw_step",
    "fit",
    "predict_confidences",
    "save_model",
    "load_model",
]

log = logging.getLogger(__name__)

LOSS_CLIP_EPS = 1e-7
CONF_CLIP_EPS = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Training recipe for the MLP; see :func:`fit` for ``fixed_epochs``."""

    hidden_dims: tuple[int, ...] = (256, 128)
    dropout_rate: float = 0.2
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    fixed_epochs: int | None = None
    seed: int = 0

    def __post_init__(self):
        check(
            ("hidden_dims", all(h >= 1 for h in self.hidden_dims), f"must be positive, got {self.hidden_dims}"),
            ("dropout_rate", 0.0 <= self.dropout_rate < 1.0, f"must be in [0,1), got {self.dropout_rate}"),
            ("learning_rate", self.learning_rate > 0, f"must be positive, got {self.learning_rate}"),
            ("weight_decay", self.weight_decay >= 0, f"must be non-negative, got {self.weight_decay}"),
            ("batch_size", self.batch_size >= 1, f"must be positive, got {self.batch_size}"),
            ("max_epochs", self.max_epochs >= 1, f"must be positive, got {self.max_epochs}"),
            ("patience", self.patience >= 0, f"must be non-negative, got {self.patience}"),
            ("fixed_epochs", self.fixed_epochs is None or self.fixed_epochs >= 1,
             f"must be none or >= 1, got {self.fixed_epochs}"),
        )


class MlpModel:
    """Layer parameters packed in one flat vector ``params``.

    ``params`` holds every weight matrix, then every bias vector;
    ``weights[l]`` (shape (d_l, d_{l+1})) and ``biases[l]`` are views of
    it, so writing either writes the other. A pickled model ships
    ``params`` once and rebuilds the views when it is loaded.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 dropout_rate: float, input_dim: int):
        blocks = [np.asarray(b, dtype=float) for b in (*weights, *biases)]
        params = np.concatenate([b.ravel() for b in blocks])
        self.__setstate__((params, [w.shape for w in blocks[:len(weights)]], dropout_rate, input_dim))

    def __reduce__(self):
        state = (self.params, [w.shape for w in self.weights], self.dropout_rate, self.input_dim)
        return object.__new__, (MlpModel,), state

    def __setstate__(self, state) -> None:
        """Take ``(params, weight shapes, dropout_rate, input_dim)``; the layers become views of ``params``."""
        self.params, weight_shapes, self.dropout_rate, self.input_dim = state
        shapes = [*weight_shapes, *((d_out,) for _, d_out in weight_shapes)]
        sizes = [math.prod(s) for s in shapes]
        views = [self.params[end - size:end].reshape(s) for s, size, end in zip(shapes, sizes, np.cumsum(sizes))]
        self.weights = views[:len(weight_shapes)]
        self.biases = views[len(weight_shapes):]

    def copy(self) -> "MlpModel":
        return MlpModel(self.weights, self.biases, self.dropout_rate, self.input_dim)


@dataclass
class TrainedModel:
    """Best-validation-epoch model plus the per-epoch loss log (1-indexed)."""

    model: MlpModel
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int


def init_model(dim: int, cfg: TrainConfig) -> MlpModel:
    """Fan-in-scaled uniform initialization U(-1/sqrt(d_in), 1/sqrt(d_in)); zero biases."""
    if dim < 1:
        raise ValueError(f"input dimension must be >= 1, got {dim}")
    rng = derive_rng(cfg.seed, "init")
    dims = [dim, *cfg.hidden_dims, 1]
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(d_in)
        weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
        biases.append(np.zeros(d_out))
    return MlpModel(weights=weights, biases=biases, dropout_rate=cfg.dropout_rate, input_dim=dim)


def _forward(
    model: MlpModel,
    X: np.ndarray,
    train: bool,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, list]:
    """Batched forward pass; returns (logits, cache for backprop)."""
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected features of dimension {model.input_dim}, got shape {X.shape}")
    cache = []
    h = X
    n_layers = len(model.weights)
    p = model.dropout_rate
    for l in range(n_layers - 1):
        z = h @ model.weights[l] + model.biases[l]
        a = np.maximum(z, 0.0)
        if train and p > 0.0:
            if rng is None:
                raise ValueError("train-mode dropout requires an rng")
            mask = (rng.random(a.shape) >= p) / (1.0 - p)
            a = a * mask
        else:
            mask = None
        cache.append((h, z, mask))
        h = a
    z_out = h @ model.weights[-1] + model.biases[-1]
    cache.append((h, z_out, None))
    return z_out[:, 0], cache


def forward_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batched inference logits (no dropout)."""
    logits, _ = _forward(model, np.asarray(X, dtype=float), False, None)
    return logits


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, else exp(z): it never overflows
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def weighted_bce_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    weights: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Mean class-weighted binary cross-entropy with probability clipping."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels)
    if logits.shape != labels.shape:
        raise ValueError(f"logits and labels shapes differ: {logits.shape} vs {labels.shape}")
    if logits.size == 0:
        raise ValueError("empty batch")
    p = np.clip(_sigmoid(logits), LOSS_CLIP_EPS, 1.0 - LOSS_CLIP_EPS)
    w = np.where(labels == 1, weights[1], weights[0])
    ll = -labels * np.log(p) - (1 - labels) * np.log(1.0 - p)
    return float(np.mean(w * ll))


def _mean_bce(logits: np.ndarray, positive: np.ndarray, w: np.ndarray) -> float:
    """:func:`weighted_bce_loss` given the rows labelled 1 (``positive``) and each row's weight ``w``."""
    p = np.clip(_sigmoid(logits), LOSS_CLIP_EPS, 1.0 - LOSS_CLIP_EPS)
    return float(np.mean(w * -np.log(np.where(positive, p, 1.0 - p))))


def _output_delta(sig: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(mean weighted BCE)/d(logit), ``w`` the class weight of each row; zero where the probability is clipped."""
    unclipped = (sig > LOSS_CLIP_EPS) & (sig < 1.0 - LOSS_CLIP_EPS)
    return np.where(unclipped, w * (sig - y) / len(y), 0.0)


def _backward(model: MlpModel, cache: list, dlogit: np.ndarray, grads: MlpModel) -> None:
    """Backprop ``dlogit`` through a train- or inference-mode ``_forward`` cache into the layers of ``grads``."""
    delta = dlogit[:, None]
    for l in range(len(model.weights) - 1, -1, -1):
        h_in, z, mask = cache[l]
        np.matmul(h_in.T, delta, out=grads.weights[l])
        np.add.reduce(delta, axis=0, out=grads.biases[l])
        if l > 0:
            delta = delta @ model.weights[l].T
            _, z_prev, mask_prev = cache[l - 1]
            delta = delta * (z_prev > 0)
            if mask_prev is not None:
                delta = delta * mask_prev


def loss_and_grads(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    weights: tuple[float, float] = (1.0, 1.0),
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Loss plus analytic gradients w.r.t. every weight and bias array.

    :func:`fit` takes the same gradients without the loss; this is the
    reference its training step is checked against.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    logits, cache = _forward(model, X, train, rng)
    grads = model.copy()
    _backward(model, cache, _output_delta(_sigmoid(logits), y, np.where(y == 1, weights[1], weights[0])), grads)
    return weighted_bce_loss(logits, y, weights), grads.weights, grads.biases


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    weight_decay: float,
    step: int,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """In-place AdamW on flat ``params`` and moments ``m``, ``v``: adaptive step, then p -= lr*wd*p."""
    if step < 1:
        raise ValueError(f"step index must be >= 1, got {step}")
    if not np.isfinite(grads).all():
        raise FloatingPointError("non-finite gradient")
    b1, b2 = betas
    m *= b1
    m += (1 - b1) * grads
    v *= b2
    v += (1 - b2) * grads * grads
    denom = np.sqrt(v / (1 - b2 ** step))  # the bias-corrected step's denominator, built in place
    denom += eps
    params -= lr * (m / (1 - b1 ** step)) / denom
    params -= lr * weight_decay * params


def fit(d_train: Dataset, d_val: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Train with shuffled mini-batches and early stopping on validation loss.

    With ``cfg.fixed_epochs`` set, early stopping is disabled and exactly that
    many epochs run; the returned weights are still those of the epoch
    with the lowest validation loss.
    """
    if d_train.dimension != d_val.dimension:
        raise ValueError(
            f"train/validation dimensions differ: {d_train.dimension} vs {d_val.dimension}"
        )
    weights = class_weights(d_train)
    X_train, y_train = d_train.features_array(), d_train.labels_array()
    X_val, y_val = d_val.features_array(), d_val.labels_array()
    train_pos, val_pos = y_train == 1, y_val == 1  # the per-epoch losses read these and the weights, built once
    row_weights = np.where(train_pos, weights[1], weights[0])
    val_weights = np.where(val_pos, weights[1], weights[0])

    model = init_model(d_train.dimension, cfg)
    shuffle_rng = derive_rng(cfg.seed, "shuffle")
    dropout_rng = derive_rng(cfg.seed, "dropout")
    m = np.zeros_like(model.params)
    v = np.zeros_like(model.params)
    grads = model.copy()  # one flat gradient buffer whose layer views _backward fills

    n = len(d_train)
    n_epochs = cfg.fixed_epochs if cfg.fixed_epochs is not None else cfg.max_epochs
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_model = model.copy()
    step = 0
    since_best = 0

    for epoch in range(1, n_epochs + 1):
        perm = shuffle_rng.permutation(n)
        X_epoch, y_epoch, w_epoch = X_train[perm], y_train[perm], row_weights[perm]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            logits, cache = _forward(model, X_epoch[batch], True, dropout_rng)
            _backward(model, cache, _output_delta(_sigmoid(logits), y_epoch[batch], w_epoch[batch]), grads)
            step += 1
            adamw_step(model.params, grads.params, m, v, cfg.learning_rate, cfg.weight_decay, step)

        train_loss = _mean_bce(forward_logits(model, X_train), train_pos, row_weights)
        val_loss = _mean_bce(forward_logits(model, X_val), val_pos, val_weights)
        train_losses.append(train_loss)
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_model = model.copy()
            since_best = 0
        else:
            since_best += 1
            if cfg.fixed_epochs is None and since_best >= cfg.patience:
                break

    return TrainedModel(
        model=best_model,
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
    )


def predict_confidences(model: MlpModel | TrainedModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized true-label confidences, clipped into (0, 1)."""
    if isinstance(model, TrainedModel):
        model = model.model
    y = np.asarray(y)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary")
    sig = _sigmoid(forward_logits(model, X))
    conf = np.where(y == 1, sig, 1.0 - sig)
    return np.clip(conf, CONF_CLIP_EPS, 1.0 - CONF_CLIP_EPS)


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Checkpoint to an .npz container; round-trip exact."""
    model = trained.model
    arrays = {}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w_{i}"] = w
        arrays[f"b_{i}"] = b
    meta = {
        "n_layers": len(model.weights),
        "dropout_rate": model.dropout_rate,
        "input_dim": model.input_dim,
        "best_epoch": trained.best_epoch,
        "train_losses": trained.train_losses,
        "val_losses": trained.val_losses,
    }
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_model(path: str | Path) -> TrainedModel:
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["meta_json"]).decode("utf-8"))
        weights = [npz[f"w_{i}"] for i in range(meta["n_layers"])]
        biases = [npz[f"b_{i}"] for i in range(meta["n_layers"])]
    model = MlpModel(
        weights=weights,
        biases=biases,
        dropout_rate=meta["dropout_rate"],
        input_dim=meta["input_dim"],
    )
    return TrainedModel(
        model=model,
        train_losses=list(meta["train_losses"]),
        val_losses=list(meta["val_losses"]),
        best_epoch=meta["best_epoch"],
    )

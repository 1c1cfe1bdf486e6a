"""Dense feed-forward binary classifier with manual backprop.

Rectifier hidden layers, a single logit output, inverted dropout,
class-weighted binary cross-entropy, AdamW with decoupled weight decay,
and early stopping on validation loss. Everything is plain numpy and
bit-deterministic under the config seed.

Models train in float32 and are scored in float64. A fit's parameters,
moments, gradients, mini-batches and dropout masks are float32, and so
are its per-epoch validation and train-loss forward passes; each loss
is then taken in float64 from those logits, so that the best epoch and
early stopping compare float64 losses. :func:`forward_logits`, and with
it :func:`predict_confidences`, casts a model up to float64 before it
scores, which is exact, so a trained model and its checkpoint, loaded
as float64, score the same bytes.

A model keeps all its weights and biases in one flat ``params`` vector,
so one optimizer step is a single pass over one array.

:func:`fit_stack` trains several models of one architecture in lockstep,
as one stack: a (K, P) parameter array whose rows are the models, one
3-D ``matmul`` per layer over their stacked mini-batches and one AdamW
pass over the (K, P) moments. A step of a small model costs numpy
dispatch more than arithmetic, so a stack of K costs far less than K
steps; :func:`stack_capacity` sizes a stack to at most
:data:`STACK_ELEMENTS` parameters in all, which keeps large models in
stacks of one. Its input, :class:`FitJobs`, holds one feature matrix,
label vector and validation set, and per job only its training rows and
recipe. A stack casts the rows its jobs train on to float32 once, each
row once however many jobs train on it (:meth:`FitJobs.packed`), and
each step gathers the stack's mini-batches from them by row, so no
job's training set is copied. The models of a
stack share the recipe but the seed, and train a fixed number of
epochs, as the shadows of a repetition do; only :func:`fit`, the stack
of one, stops early. Each model gets the bytes :func:`fit` gives it alone:
its bias corrections are in the parameters' dtype, whatever the step
counts of the stack's other models.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

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
    "adamw_step",
    "fit",
    "FitJobs",
    "fit_stack",
    "stack_capacity",
    "predict_confidences",
    "save_model",
    "load_model",
]

log = logging.getLogger(__name__)

LOSS_CLIP_EPS = 1e-7
CONF_CLIP_EPS = 1e-12
# Parameters of all the models of one stack together. Timed with one-thread
# BLAS on a 2-vCPU host, a model-step costs about 0.6x as much in a stack of
# 6 at 2k parameters, and stacking stops paying from about 8k parameters
# (the default 256x128 recipe on 64 features has 49,665).
STACK_ELEMENTS = 2 ** 14
# Hidden activations that one validation pass of a stack holds at most (256 KiB): a larger stack scores
# its validation set a block of models at a time, so that its peak memory stays near a lone model's.
VALIDATION_ELEMENTS = 2 ** 16


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
    ``params`` once and rebuilds the views when it is loaded. The models
    of a stack share one (K, P) ``params``, whose views carry the
    leading K axis.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 dropout_rate: float, input_dim: int):
        blocks = [np.asarray(b, dtype=float) for b in (*weights, *biases)]
        params = np.concatenate([b.ravel() for b in blocks])
        self.__setstate__((params, [w.shape for w in blocks[:len(weights)]], dropout_rate, input_dim))

    def __reduce__(self):
        state = (self.params, [w.shape[-2:] for w in self.weights], self.dropout_rate, self.input_dim)
        return object.__new__, (MlpModel,), state

    def __setstate__(self, state) -> None:
        """Take ``(params, weight shapes, dropout_rate, input_dim)``; the layers become views of ``params``."""
        self.params, weight_shapes, self.dropout_rate, self.input_dim = state
        stack = self.params.shape[:-1]
        shapes = [*weight_shapes, *((d_out,) for _, d_out in weight_shapes)]
        sizes = [math.prod(s) for s in shapes]
        views = [self.params[..., end - size:end].reshape(*stack, *s)
                 for s, size, end in zip(shapes, sizes, np.cumsum(sizes))]
        self.weights = views[:len(weight_shapes)]
        self.biases = views[len(weight_shapes):]

    def copy(self) -> "MlpModel":
        return _view(self.params.copy(), self)

    def astype(self, dtype) -> "MlpModel":
        """This model with its params in ``dtype``: itself if they already are, else a copy."""
        return self if self.params.dtype == dtype else _view(self.params.astype(dtype), self)


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
    rng: np.random.Generator | Sequence[np.random.Generator] | None,
    cache: list | None = None,
) -> np.ndarray:
    """Batched forward pass; returns the logits, and fills ``cache``, when given, for backprop.

    For a stack, ``X`` and the logits carry the stack axis first, and
    ``rng`` is one generator per model. Without a cache each layer's
    pre-activations are freed as soon as they are rectified.
    """
    if X.ndim < 2 or X.shape[-1] != model.input_dim:
        raise ValueError(f"expected features of dimension {model.input_dim}, got shape {X.shape}")
    h = X
    p = model.dropout_rate
    biases = model.biases if model.params.ndim == 1 else [b[:, None, :] for b in model.biases]
    for w, b in zip(model.weights[:-1], biases[:-1]):
        z = h @ w
        z += b
        a = np.maximum(z, 0.0, out=None if cache is not None else z)
        if train and p > 0.0:
            if rng is None:
                raise ValueError("train-mode dropout requires an rng")
            mask = np.divide(_uniforms(rng, a.shape) >= p, 1.0 - p, dtype=a.dtype)
            a = a * mask
        else:
            mask = None
        if cache is not None:
            cache.append((h, z, mask))
        h = a
    z_out = h @ model.weights[-1] + biases[-1]
    if cache is not None:
        cache.append((h, z_out, None))
    return z_out[..., 0]


def _uniforms(rng: np.random.Generator | Sequence[np.random.Generator], shape: tuple[int, ...]) -> np.ndarray:
    """``rng.random(shape)``; for a stack, each model's generator fills that model's rows, as it would alone."""
    if isinstance(rng, np.random.Generator):
        return rng.random(shape)
    draws = np.empty(shape)
    for rows, generator in zip(draws, rng, strict=True):
        generator.random(out=rows)
    return draws


def forward_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Batched inference logits (no dropout), in float64 whatever the model's dtype."""
    return _forward(model.astype(np.float64), np.asarray(X, dtype=float), False, None)


def _loss_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Inference logits of a model in training, in its own dtype, cast up to float64 for the loss."""
    return _forward(model, X, False, None).astype(float)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, else exp(z): it never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _mean_bce(logits: np.ndarray, positive: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mean class-weighted binary cross-entropy over the last axis, with probability clipping.

    ``positive`` marks the rows labelled 1 and ``w`` holds each row's class
    weight. The clip and the mean are spelled out as the ufuncs behind
    ``np.clip`` and ``np.mean``, which give the same bytes for less call
    overhead than ``weighted_bce_loss``, the scalar reference in
    ``tests/oracles.py``.
    """
    p = np.minimum(np.maximum(_sigmoid(logits), LOSS_CLIP_EPS), 1.0 - LOSS_CLIP_EPS)
    return np.add.reduce(w * -np.log(np.where(positive, p, 1.0 - p)), axis=-1) / logits.shape[-1]


def _output_delta(sig: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d(mean weighted BCE)/d(logit) over the last axis, ``w`` the class weight of each row; zero where clipped."""
    unclipped = (sig > LOSS_CLIP_EPS) & (sig < 1.0 - LOSS_CLIP_EPS)
    return np.where(unclipped, w * (sig - y) / y.shape[-1], 0.0)


def _backward(model: MlpModel, cache: list, dlogit: np.ndarray, grads: MlpModel) -> None:
    """Backprop ``dlogit`` through a train- or inference-mode ``_forward`` cache into the layers of ``grads``."""
    delta = dlogit[..., None]
    for l in range(len(model.weights) - 1, -1, -1):
        h_in, z, mask = cache[l]
        np.matmul(h_in.swapaxes(-1, -2), delta, out=grads.weights[l])
        np.add.reduce(delta, axis=-2, out=grads.biases[l])
        if l > 0:
            delta = delta @ model.weights[l].swapaxes(-1, -2)
            _, z_prev, mask_prev = cache[l - 1]
            delta = delta * (z_prev > 0)
            if mask_prev is not None:
                delta = delta * mask_prev


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    weight_decay: float,
    step: int | Sequence[int],
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """In-place AdamW on flat ``params`` and moments ``m``, ``v``: adaptive step, then p -= lr*wd*p.

    For a stack the rows of the (K, P) arrays are the models and ``step``
    holds each one's step index. Each bias correction is ``1 - beta ** step``
    in the parameters' dtype, whatever the stack, so that a float32 step
    meets no float64 value and a row steps as it would alone.
    """
    if (step if isinstance(step, int) else min(step)) < 1:
        raise ValueError(f"step index must be >= 1, got {step}")
    if not np.isfinite(grads).all():
        raise FloatingPointError("non-finite gradient")
    b1, b2 = betas
    if isinstance(step, int):
        c1, c2 = (params.dtype.type(1 - b ** step) for b in betas)
    else:
        c1, c2 = (np.array([[1 - b ** s] for s in step], dtype=params.dtype) for b in betas)
    m *= b1
    m += (1 - b1) * grads
    v *= b2
    v += (1 - b2) * grads * grads
    denom = np.sqrt(v / c2)  # the bias-corrected step's denominator, built in place
    denom += eps
    params -= lr * (m / c1) / denom
    params -= lr * weight_decay * params


def stack_capacity(dim: int, hidden_dims: Sequence[int]) -> int:
    """How many models of this architecture one stack holds: :data:`STACK_ELEMENTS` parameters, at least one model."""
    dims = [dim, *hidden_dims, 1]
    return max(1, STACK_ELEMENTS // sum((d_in + 1) * d_out for d_in, d_out in zip(dims, dims[1:])))


@dataclass(frozen=True, eq=False)
class FitJobs:
    """:func:`fit_stack`'s input: job ``j`` trains on rows ``rows[j]`` of ``X`` and ``y`` with recipe ``cfgs[j]``.

    Every job is validated on ``X_val`` and ``y_val``; a slice holds its jobs on the same arrays.
    """

    X: np.ndarray
    y: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    rows: Sequence[np.ndarray]
    cfgs: Sequence[TrainConfig]

    def __len__(self) -> int:
        return len(self.cfgs)

    def __getitem__(self, jobs: slice) -> "FitJobs":
        return replace(self, rows=self.rows[jobs], cfgs=self.cfgs[jobs])

    def packed(self) -> "FitJobs":
        """The same jobs on only the rows of ``X`` and ``y`` that they train on, each row once, all in float32.

        The features, labels and validation set are cast to float32, the
        training dtype, once here, which also halves what a helper is sent.
        """
        union = np.unique(np.concatenate(self.rows))
        X, y, X_val = (a.astype(np.float32, copy=False) for a in (self.X[union], self.y[union], self.X_val))
        return replace(self, X=X, y=y, X_val=X_val, rows=[np.searchsorted(union, r) for r in self.rows])


def fit(d_train: Dataset, d_val: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Train with shuffled mini-batches and early stopping on validation loss.

    With ``cfg.fixed_epochs`` set, early stopping is disabled and exactly that
    many epochs run; the returned weights are still those of the epoch
    with the lowest validation loss. This is :func:`fit_stack`'s stack of one.
    """
    return fit_stack(FitJobs(d_train.features_array(), d_train.labels_array(), d_val.features_array(),
                             d_val.labels_array(), [np.arange(len(d_train))], [cfg]))[0]


class _Lane:
    """One job of a stack: its training rows, class weights, generators, batch counts, losses and best epoch so far."""

    def __init__(self, y: np.ndarray, rows: np.ndarray, cfg: TrainConfig, dim: int):
        self.rows = rows
        self.weights = class_weights(y[rows])
        self.pos = y[rows] == 1  # the per-epoch train loss reads these and the float64 weights
        self.loss_w = np.where(self.pos, self.weights[1], self.weights[0])
        self.w = self.loss_w.astype(np.float32)  # each row's class weight in its steps
        self.init = init_model(dim, cfg).astype(np.float32)
        self.shuffle_rng = derive_rng(cfg.seed, "shuffle")
        self.dropout_rng = derive_rng(cfg.seed, "dropout")
        self.full = len(rows) // cfg.batch_size  # full mini-batches per epoch; a shorter last one runs alone
        self.batches = math.ceil(len(rows) / cfg.batch_size)
        self.train_losses: list[float] = []
        self.val_losses: list[float] = []
        self.best_val = np.inf
        self.best_epoch = 0
        self.best = self.init  # the stack trains a copy of its params

    def end_epoch(self, epoch: int, model: MlpModel, X: np.ndarray, val_loss: float) -> None:
        """Record ``model``'s losses after ``epoch`` from its training features and validation loss; keep the best."""
        self.train_losses.append(float(_mean_bce(_loss_logits(model, X), self.pos, self.loss_w)))
        self.val_losses.append(val_loss)
        if val_loss < self.best_val:
            self.best_val, self.best_epoch, self.best = val_loss, epoch, model.copy()


def _view(params: np.ndarray, like: MlpModel) -> MlpModel:
    """A model whose layers are views of ``params``: one row of a stack, or a (k, P) block of rows."""
    model = object.__new__(MlpModel)
    model.__setstate__((params, [w.shape[-2:] for w in like.weights], like.dropout_rate, like.input_dim))
    return model


def fit_stack(jobs: FitJobs) -> list[TrainedModel]:
    """The :func:`fit` of every job, in job order, trained in lockstep as one stack.

    A stack of more than one job takes jobs whose recipes differ only in
    the seed and set ``fixed_epochs``, as the shadows of a repetition do;
    it raises :class:`ValueError` for any other. Every model is byte for
    byte the one :func:`fit` returns on its training rows alone, and all
    end on the same epoch; only a stack of one stops early.

    Each epoch every model draws its own permutation of its rows. The
    models with a full mini-batch left take that step together, their
    batches gathered from the float32 rows of ``jobs.packed()`` by one
    ``np.take``, so the models are ordered by their count of full batches
    and each step's stack is a prefix of them; a shorter last batch runs
    on its own, unpadded.
    """
    cfg, dim = jobs.cfgs[0], jobs.X.shape[1]
    if jobs.X_val.shape[1] != dim:
        raise ValueError(f"train/validation dimensions differ: {dim} vs {jobs.X_val.shape[1]}")
    if any(replace(job_cfg, seed=cfg.seed) != cfg for job_cfg in jobs.cfgs[1:]):
        raise ValueError("the jobs of a stack must share the architecture and every other setting but the seed")
    if len(jobs) > 1 and cfg.fixed_epochs is None:
        raise ValueError("the jobs of a stack must train fixed_epochs; only a stack of one stops early")
    jobs = jobs.packed()
    in_job_order = [_Lane(jobs.y, rows, job_cfg, dim) for rows, job_cfg in zip(jobs.rows, jobs.cfgs, strict=True)]
    lanes = sorted(in_job_order, key=lambda lane: -lane.full)
    batch, like = cfg.batch_size, lanes[0].init
    params = np.stack([lane.init.params for lane in lanes])
    m, v, grads = np.zeros_like(params), np.zeros_like(params), np.empty_like(params)
    epoch_rows = np.empty((len(lanes), lanes[0].full * batch), dtype=np.intp)  # the full batches, step after step
    w_epoch = np.empty(epoch_rows.shape, dtype=np.float32)
    val_pos = jobs.y_val == 1
    val_block = max(1, VALIDATION_ELEMENTS // (len(val_pos) * max(cfg.hidden_dims, default=1)))  # models per validation pass
    val_w = np.stack([np.where(val_pos, lane.weights[1], lane.weights[0]) for lane in lanes])
    views: dict[tuple[int, int], tuple] = {}  # per block of stack rows

    def block(k: int, n: int) -> tuple:
        """Views of the n stack rows from row k; one row is a plain model, so a stack of one runs in 2-D."""
        if (k, n) not in views:
            rows = k if n == 1 else slice(k, k + n)
            rngs = [lane.dropout_rng for lane in lanes[k:k + n]]
            views[k, n] = (_view(params[rows], like), _view(grads[rows], like), m[rows], v[rows],
                           rngs[0] if n == 1 else rngs)
        return views[k, n]

    def step(k: int, n: int, rows: np.ndarray, w: np.ndarray, count: int | list[int]) -> None:
        model, grad, m_rows, v_rows, rng = block(k, n)
        cache: list = []
        logits = _forward(model, np.take(jobs.X, rows, axis=0), True, rng, cache)
        _backward(model, cache, _output_delta(_sigmoid(logits), np.take(jobs.y, rows), w), grad)
        adamw_step(model.params, grad.params, m_rows, v_rows, cfg.learning_rate, cfg.weight_decay, count)

    for epoch in range(1, (cfg.fixed_epochs or cfg.max_epochs) + 1):
        last = []
        for k, lane in enumerate(lanes):
            perm = lane.shuffle_rng.permutation(len(lane.rows))
            cut = lane.full * batch
            epoch_rows[k, :cut] = lane.rows[perm[:cut]]
            w_epoch[k, :cut] = lane.w[perm[:cut]]
            if cut < len(perm):
                rest = perm[cut:]
                last.append((k, lane.rows[rest], lane.w[rest]))
        blocks = [sum(lane.full > s for lane in lanes) for s in range(lanes[0].full)]  # models with a full batch left
        starts = [(epoch - 1) * lane.batches for lane in lanes]  # each model's optimizer steps so far
        alike = starts.count(starts[0]) == len(starts)  # then one step index serves every model of a block
        for s, n in enumerate(blocks):
            rows, cols = 0 if n == 1 else slice(0, n), slice(s * batch, (s + 1) * batch)
            count = starts[0] + s + 1 if alike or n == 1 else [start + s + 1 for start in starts[:n]]
            step(0, n, epoch_rows[rows, cols], w_epoch[rows, cols], count)
        for k, rows, w in last:
            step(k, 1, rows, w, starts[k] + lanes[k].full + 1)

        # the shared validation set, scored a block of the stack at a time with each model's class weights
        val_logits = np.concatenate([_loss_logits(block(k, min(val_block, len(lanes) - k))[0], jobs.X_val)
                                     .reshape(-1, len(val_pos)) for k in range(0, len(lanes), val_block)])
        val_losses = _mean_bce(val_logits, val_pos, val_w).tolist()
        for k, lane in enumerate(lanes):
            lane.end_epoch(epoch, block(k, 1)[0], jobs.X[lane.rows], val_losses[k])
        # patience counts only epochs that did not improve, so 0 stops as 1 does
        if cfg.fixed_epochs is None and epoch - lanes[0].best_epoch >= max(cfg.patience, 1):
            break
    return [TrainedModel(model=lane.best, train_losses=lane.train_losses, val_losses=lane.val_losses,
                         best_epoch=lane.best_epoch) for lane in in_job_order]


def predict_confidences(model: MlpModel | TrainedModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized true-label confidences in float64, whatever the model's dtype, clipped into (0, 1)."""
    if isinstance(model, TrainedModel):
        model = model.model
    y = np.asarray(y)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary")
    sig = _sigmoid(forward_logits(model, X))
    conf = np.where(y == 1, sig, 1.0 - sig)
    return np.clip(conf, CONF_CLIP_EPS, 1.0 - CONF_CLIP_EPS)


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Checkpoint to an .npz container in the params' dtype, float32 for a trained model; round-trip exact.

    :func:`load_model` reads the layers back as float64, which is exact,
    so the loaded model scores the bytes the trained one does.
    """
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

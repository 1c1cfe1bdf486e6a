"""Dense feed-forward binary classifier with manual backprop.

Rectifier hidden layers, a single logit output, inverted dropout,
class-weighted binary cross-entropy, AdamW with decoupled weight decay,
and early stopping on validation loss. Everything is plain numpy and
bit-deterministic under the config seed.

Models train in float32 and are scored in float64. A fit's parameters,
moments, gradients, mini-batches and dropout masks are float32, and so
are its loss passes, on the validation rows after each epoch and on the
training rows at the best epoch once; each loss is taken in float64 from
those logits, so that the best epoch and early stopping compare float64
losses. :func:`forward_logits`, and with it :func:`predict_confidences`,
casts a model up to float64 before it scores, which is exact, so a
trained model and its checkpoint, loaded as float64, score the same bytes.

A model keeps all its weights and biases in one flat ``params`` vector,
so one optimizer step is a single pass over one array.

:func:`fit_stack` trains several models of one architecture in lockstep,
as one stack: a (K, P) parameter array whose rows are the models, one
3-D ``matmul`` per layer over their stacked mini-batches and one AdamW
pass over the (K, P) moments. A step of a small model costs numpy
dispatch more than arithmetic, so a stack of K costs far less than K
steps; :func:`stack_capacity` sizes a stack to at most
:data:`STACK_ELEMENTS` parameters in all, which keeps large models in
stacks of one. Its input, :class:`FitJobs`, holds one feature matrix and
label vector, and per job only its training rows, its validation rows
and its recipe. A stack casts the rows its jobs train and validate on to
float32 once, each row once however many jobs use it
(:meth:`FitJobs.packed`), and each step gathers the stack's mini-batches
from them by row, so no job's training set is copied. The models of a
stack share the recipe but the seed, and train a fixed number of
epochs, as a repetition's shadows do, and its target where its recipe
sets the shadows' epochs; only a stack of one, such as an early-stopping
target, stops early. Each epoch a stack scores every validation set for
the models that share it, and once it ends each model's train loss at its
best epoch. Every mini-batch is ``batch_size`` rows: a model's last batch
is padded with rows of weight 0, which draw no dropout and count in no
mean, so every step of an epoch and the train-loss pass are stacked.
Each model gets the bytes :func:`fit` gives it alone: every shape its
arithmetic runs in is set by its own row count, and its bias corrections
are of its own step count, in the parameters' dtype.
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
# Parameters of all the models of one stack together. A stack scores its models' validation losses every epoch
# and their train losses once, at their best epochs. Timed with one-thread BLAS on a 2-vCPU host when it scored
# the train losses every epoch too, a model-step cost about 0.5x as much in a stack of 6 at 2k parameters (the
# positive-control recipe) and 0.85x at 8k (128 units on 64 features), where stacking stops paying much.
STACK_ELEMENTS = 2 ** 14
# Hidden activations that one validation pass of a stack holds at most (256 KiB): a larger stack scores
# its validation set a block of models at a time, so that its peak memory stays near a lone model's.
VALIDATION_ELEMENTS = 2 ** 16
# Float64 feature values that FitJobs.packed gathers at a time before casting them to float32 (128 KiB).
PACK_ELEMENTS = 2 ** 14
ADAM_BETAS = (0.9, 0.999)


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
    """The best validation epoch's model, its train loss scored once there, and each epoch's validation loss."""

    model: MlpModel
    train_loss: float
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
    real: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Batched forward pass; returns the logits, and fills ``cache``, when given, for backprop.

    For a stack, ``X`` and the logits carry the stack axis first, and
    ``rng`` is one generator per model. ``real`` counts a model's own rows
    of a batch padded to full length, one count per model for a stack
    (for one model None means every row); dropout draws for those rows
    only. Without a cache each layer's pre-activations are freed as soon
    as they are rectified.
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
            mask = np.divide(_uniforms(rng, a.shape, real) >= p, 1.0 - p, dtype=a.dtype)
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


def _uniforms(rng: np.random.Generator | Sequence[np.random.Generator], shape: tuple[int, ...],
              real: int | Sequence[int] | None) -> np.ndarray:
    """``rng.random`` for the first ``real`` rows of ``shape``, as one model draws alone; padding rows get 0.

    For a stack each model's generator fills that model's rows, and
    ``real`` holds one count per model. A 0 is below any dropout rate, so
    dropout drops every padding row.
    """
    one = isinstance(rng, np.random.Generator)
    draws = np.zeros(shape)
    for rows, generator, n in zip(draws[None] if one else draws, [rng] if one else rng, [real] if one else real,
                                  strict=True):
        generator.random(out=rows[:n])
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


def _bce(logits: np.ndarray, positive: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Class-weighted binary cross-entropy of each row, with probability clipping.

    ``positive`` marks the rows labelled 1 and ``w`` holds each row's class
    weight. The clip is spelled out as the ufuncs behind ``np.clip``, so a
    loss, the ``np.add.reduce`` of a model's own rows over their count, has
    the bytes of ``weighted_bce_loss``, the scalar reference in
    ``tests/oracles.py``, for less call overhead.
    """
    p = np.minimum(np.maximum(_sigmoid(logits), LOSS_CLIP_EPS), 1.0 - LOSS_CLIP_EPS)
    return w * -np.log(np.where(positive, p, 1.0 - p))


def _output_delta(sig: np.ndarray, y: np.ndarray, w: np.ndarray, count: int | np.ndarray) -> np.ndarray:
    """d(mean weighted BCE)/d(logit) over the last axis, ``w`` each row's class weight; zero where clipped.

    The mean is over ``count`` rows, a model's own rows of its batch, one
    (K, 1) column for a stack; a padding row has weight 0.
    """
    unclipped = (sig > LOSS_CLIP_EPS) & (sig < 1.0 - LOSS_CLIP_EPS)
    return np.where(unclipped, w * (sig - y) / count, 0.0)


def _backward(model: MlpModel, cache: list, dlogit: np.ndarray, grads: MlpModel) -> None:
    """Backprop ``dlogit`` through a train- or inference-mode ``_forward`` cache into the layers of ``grads``."""
    delta = dlogit[..., None]
    last = len(model.weights) - 1
    for l in range(last, -1, -1):
        h_in, z, mask = cache[l]
        np.matmul(h_in.swapaxes(-1, -2), delta, out=grads.weights[l])
        np.add.reduce(delta, axis=-2, out=grads.biases[l])
        if l > 0:
            w_t = model.weights[l].swapaxes(-1, -2)
            # through the one-unit output layer a product of inner dimension 1: the same bytes broadcast
            delta = delta * w_t if l == last else delta @ w_t
            _, z_prev, mask_prev = cache[l - 1]
            delta *= z_prev > 0
            if mask_prev is not None:
                delta *= mask_prev


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    weight_decay: float,
    step: int | None,
    eps: float = 1e-8,
    *,
    corrections: tuple | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """In-place AdamW on flat ``params`` and moments ``m``, ``v``: adaptive step, then p -= lr*wd*p.

    Each bias correction is ``1 - beta ** step`` in the parameters' dtype,
    so that a float32 step meets no float64 value. For a stack the rows of
    the (K, P) arrays are the models, each at its own step count: the
    stack passes ``corrections`` in place of ``step``, a (K, 1) column of
    :func:`_bias_corrections`' table per beta, so a row steps as it would
    alone, and two arrays of the params' shape as ``scratch``. At weight
    decay 0 there is no decay pass.
    """
    if corrections is None:
        if step < 1:
            raise ValueError(f"step index must be >= 1, got {step}")
        corrections = tuple(params.dtype.type(1 - b ** step) for b in ADAM_BETAS)
    if not np.isfinite(grads).all():
        raise FloatingPointError("non-finite gradient")
    (b1, b2), (c1, c2) = ADAM_BETAS, corrections
    s, t = scratch if scratch is not None else (np.empty_like(params), np.empty_like(params))
    # each line keeps the rounding of p -= lr * (m / c1) / (sqrt(v / c2) + eps), without a temporary
    m *= b1
    m += np.multiply(grads, 1 - b1, out=s)
    v *= b2
    np.multiply(grads, 1 - b2, out=s)
    v += np.multiply(s, grads, out=s)
    np.sqrt(np.divide(v, c2, out=s), out=s)
    s += eps
    np.divide(m, c1, out=t)
    t *= lr
    params -= np.divide(t, s, out=t)
    if weight_decay:
        params -= np.multiply(params, lr * weight_decay, out=s)


def _bias_corrections(steps: int, dtype) -> np.ndarray:
    """A (2, steps) table: ``1 - beta ** step`` per beta for steps 1 to ``steps``, as :func:`adamw_step` takes it."""
    return np.array([[1 - b ** step for step in range(1, steps + 1)] for b in ADAM_BETAS], dtype=dtype)


def stack_capacity(dim: int, hidden_dims: Sequence[int]) -> int:
    """How many models of this architecture one stack holds: :data:`STACK_ELEMENTS` parameters, at least one model."""
    dims = [dim, *hidden_dims, 1]
    return max(1, STACK_ELEMENTS // sum((d_in + 1) * d_out for d_in, d_out in zip(dims, dims[1:])))


@dataclass(frozen=True, eq=False)
class FitJobs:
    """:func:`fit_stack`'s input: job ``j`` trains on rows ``rows[j]`` of ``X`` and ``y`` with recipe ``cfgs[j]``.

    It picks its epoch by its loss on rows ``val_rows[j]``, which jobs may
    share, as a repetition's shadows share Z. A slice holds its jobs on the
    same arrays. A job without validation rows, or with a row outside
    ``X``, raises :class:`ValueError` naming it.
    """

    X: np.ndarray
    y: np.ndarray
    rows: Sequence[np.ndarray]
    val_rows: Sequence[np.ndarray]
    cfgs: Sequence[TrainConfig]

    def __post_init__(self):
        if not len(self.rows) == len(self.val_rows) == len(self.cfgs):
            raise ValueError(f"{len(self.rows)} training row sets, {len(self.val_rows)} validation row sets "
                             f"and {len(self.cfgs)} recipes")
        for j, (rows, val_rows) in enumerate(zip(self.rows, self.val_rows)):
            if not len(val_rows):
                raise ValueError(f"job {j} has no validation rows")
            for name, job_rows in (("training", rows), ("validation", val_rows)):
                if len(job_rows) and not 0 <= np.min(job_rows) <= np.max(job_rows) < len(self.X):
                    raise ValueError(f"job {j} has a {name} row outside the {len(self.X)} rows of X")

    def __len__(self) -> int:
        return len(self.cfgs)

    def __getitem__(self, jobs: slice) -> "FitJobs":
        return replace(self, rows=self.rows[jobs], val_rows=self.val_rows[jobs], cfgs=self.cfgs[jobs])

    def stack_end(self, start: int) -> int:
        """The end of the jobs from ``start`` that :func:`fit_stack` takes as one stack, as many as it holds.

        They are consecutive jobs whose recipes are job ``start``'s but the
        seed, with ``fixed_epochs`` set, and at most :func:`stack_capacity`
        of them; a job that stacks with none, such as one that stops early,
        is a stack of one.
        """
        first = self.cfgs[start]
        stop = min(len(self), start + stack_capacity(self.X.shape[1], first.hidden_dims))
        end = start + 1
        while end < stop and first.fixed_epochs is not None and replace(self.cfgs[end], seed=first.seed) == first:
            end += 1
        return end

    def packed(self) -> "FitJobs":
        """The same jobs on only the rows of ``X`` and ``y`` that they train or validate on, each once, in float32.

        The features and labels are cast to float32, the training dtype,
        once here, which also halves what a helper is sent. The features
        are gathered :data:`PACK_ELEMENTS` at a time, so no float64 copy of
        the rows is ever held whole. Jobs that share a validation array
        share its packed one, which a pickle then holds once.
        """
        shared = {id(rows): rows for rows in self.val_rows}
        used = np.zeros(len(self.y), dtype=bool)
        for rows in (*self.rows, *shared.values()):
            used[rows] = True
        union = np.flatnonzero(used)
        position = np.cumsum(used) - 1  # a used row's index in the union
        X = np.empty((len(union), self.X.shape[1]), dtype=np.float32)
        block = max(1, PACK_ELEMENTS // max(1, X.shape[1]))
        for start in range(0, len(union), block):
            X[start:start + block] = self.X[union[start:start + block]]
        val_rows = {key: position[rows] for key, rows in shared.items()}
        return replace(self, X=X, y=self.y[union].astype(np.float32, copy=False),
                       rows=[position[rows] for rows in self.rows],
                       val_rows=[val_rows[id(rows)] for rows in self.val_rows])


def fit(d_train: Dataset, d_val: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Train with shuffled mini-batches and early stopping on validation loss.

    With ``cfg.fixed_epochs`` set, early stopping is disabled and exactly that
    many epochs run; the returned weights are still those of the epoch
    with the lowest validation loss. This is :func:`fit_stack`'s stack of one.
    """
    if d_val.dimension != d_train.dimension:
        raise ValueError(f"train/validation dimensions differ: {d_train.dimension} vs {d_val.dimension}")
    n = len(d_train)
    return fit_stack(FitJobs(np.concatenate([d_train.features_array(), d_val.features_array()]),
                             np.concatenate([d_train.labels_array(), d_val.labels_array()]),
                             [np.arange(n)], [np.arange(n, n + len(d_val))], [cfg]))[0]


class _Lane:
    """One job of a stack: its rows, validation set, class weights, generators, batch count, losses and best epoch."""

    def __init__(self, y: np.ndarray, rows: np.ndarray, cfg: TrainConfig, dim: int, val_set: int):
        self.rows = rows
        self.val_set = val_set  # the first job whose validation rows are this job's
        self.count = len(rows)
        self.weights = class_weights(y[rows])
        self.init = init_model(dim, cfg).astype(np.float32)
        self.shuffle_rng = derive_rng(cfg.seed, "shuffle")
        self.dropout_rng = derive_rng(cfg.seed, "dropout")
        self.batches = math.ceil(self.count / cfg.batch_size)
        self.val_losses: list[float] = []
        self.best_val = np.inf
        self.best_epoch = 0

    def end_epoch(self, epoch: int, val_loss: float) -> bool:
        """Record the validation loss after ``epoch``; whether it is the best so far."""
        self.val_losses.append(val_loss)
        if val_loss < self.best_val:
            self.best_val, self.best_epoch = val_loss, epoch
            return True
        return False


def _view(params: np.ndarray, like: MlpModel) -> MlpModel:
    """A model whose layers are views of ``params``: one row of a stack, or a (k, P) block of rows."""
    model = object.__new__(MlpModel)
    model.__setstate__((params, [w.shape[-2:] for w in like.weights], like.dropout_rate, like.input_dim))
    return model


def _blocks(start: int, stop: int, size: int) -> list[tuple[int, int]]:
    """``(first, count)`` of each block of at most ``size`` stack rows from ``start`` to ``stop``."""
    return [(k, min(size, stop - k)) for k in range(start, stop, size)]


def fit_stack(jobs: FitJobs) -> list[TrainedModel]:
    """The :func:`fit` of every job, in job order, trained in lockstep as one stack.

    A stack of more than one job takes jobs whose recipes differ only in
    the seed and set ``fixed_epochs``, as the shadows of a repetition do
    (see :meth:`FitJobs.stack_end`); it raises :class:`ValueError` for any
    other. Every model is byte for byte the one :func:`fit` returns on its
    training rows alone, and all end on the same epoch; only a stack of
    one stops early.

    Every mini-batch is ``batch_size`` rows: a model's last batch is
    padded with copies of its first row of weight 0, and its output delta
    is taken over its own rows. The models are ordered by their count of
    batches, and each epoch runs one step per batch index over the prefix
    of models with that batch, gathered from the float32 rows of
    ``jobs.packed()`` by one ``np.take``. Each model draws its own
    permutation of its rows and its dropout for its own rows only, as it
    would alone, and steps with its own bias corrections. Each epoch scores
    each validation set over the models that validate on it, a block of
    models at a time; models of one batch count are ordered by validation
    set, so that they are adjacent. After the last epoch, each model's
    train loss at its best epoch is scored once, stacked over models of one
    batch count on their rows padded to whole batches. Every shape that a
    model's bytes depend on is thus set by its own row counts.
    """
    cfg, dim = jobs.cfgs[0], jobs.X.shape[1]
    if any(replace(job_cfg, seed=cfg.seed) != cfg for job_cfg in jobs.cfgs[1:]):
        raise ValueError("the jobs of a stack must share the architecture and every other setting but the seed")
    if len(jobs) > 1 and cfg.fixed_epochs is None:
        raise ValueError("the jobs of a stack must train fixed_epochs; only a stack of one stops early")
    jobs = jobs.packed()
    first_use: dict[bytes, int] = {}  # each validation set by the first job that validates on it
    in_job_order = [_Lane(jobs.y, rows, job_cfg, dim, first_use.setdefault(val_rows.tobytes(), j)) for j, (
        rows, val_rows, job_cfg) in enumerate(zip(jobs.rows, jobs.val_rows, jobs.cfgs, strict=True))]
    lanes = sorted(in_job_order, key=lambda lane: (-lane.batches, lane.val_set))
    batch, like, epochs = cfg.batch_size, lanes[0].init, cfg.fixed_epochs or cfg.max_epochs
    counts, batches = (np.array([getattr(lane, name) for lane in lanes]) for name in ("count", "batches"))
    # each model's rows in its own order, padded to whole batches with its first row, which there weighs 0
    rows = np.empty((len(lanes), batches[0] * batch), dtype=np.intp)
    for lane_rows, lane in zip(rows, lanes):
        lane_rows[:] = lane.rows[0]
        lane_rows[:lane.count] = lane.rows
    positive = np.take(jobs.y, rows) == 1
    class_w = np.array([lane.weights for lane in lanes])
    w0, w1 = class_w.astype(np.float32).T[:, :, None]  # each model's class weights in its steps' dtype
    step_w = np.where(positive, w1, w0)
    step_w[np.arange(rows.shape[1]) >= counts[:, None]] = 0.0
    epoch_rows, epoch_w = rows.copy(), step_w.copy()  # each epoch permutes each model's own rows, not its padding
    params = np.stack([lane.init.params for lane in lanes])
    best = params.copy()  # each model's parameters at its best epoch so far
    m, v = np.zeros_like(params), np.zeros_like(params)
    grads, scratch, scratch_2 = (np.empty_like(params) for _ in range(3))
    corrections = _bias_corrections(epochs * int(batches[0]), params.dtype)
    epoch_corrections = np.empty((2, len(lanes), batches[0]), dtype=params.dtype)
    views: dict[tuple[int, int], tuple] = {}  # per block of stack rows

    def block(k: int, n: int) -> tuple:
        """Views of the n stack rows from row k; one row is a plain model, so a stack of one runs in 2-D."""
        if (k, n) not in views:
            index = k if n == 1 else slice(k, k + n)
            rngs = [lane.dropout_rng for lane in lanes[k:k + n]]
            views[k, n] = (_view(params[index], like), _view(grads[index], like), m[index], v[index],
                           (scratch[index], scratch_2[index]), rngs[0] if n == 1 else rngs)
        return views[k, n]

    # one step per batch index: the models that have that batch, a prefix of the stack, and views of their state
    steps = []
    for s in range(batches[0]):
        n = int(np.count_nonzero(batches > s))
        lead, cols = 0 if n == 1 else slice(0, n), slice(s * batch, (s + 1) * batch)
        real = np.minimum(counts - s * batch, batch)[lead, None]  # each model's own rows of this batch
        steps.append((*block(0, n), epoch_rows[lead, cols], epoch_w[lead, cols],
                      (epoch_corrections[0, lead, s, None], epoch_corrections[1, lead, s, None]),
                      int(real[0]) if n == 1 else real.ravel().tolist(), real.astype(params.dtype)))
    widest = max(cfg.hidden_dims, default=1)
    # each run of stack rows that share a validation set scores it a block at a time, with each model's class weights
    val_blocks = []
    val_starts = [k for k in range(len(lanes)) if k == 0 or lanes[k].val_set != lanes[k - 1].val_set]
    for start, stop in zip(val_starts, [*val_starts[1:], len(lanes)]):
        val_rows = jobs.val_rows[lanes[start].val_set]
        X_val, val_pos = np.take(jobs.X, val_rows, axis=0), np.take(jobs.y, val_rows) == 1
        for k, n in _blocks(start, stop, max(1, VALIDATION_ELEMENTS // (len(val_rows) * widest))):
            val_w = np.stack([np.where(val_pos, lane.weights[1], lane.weights[0]) for lane in lanes[k:k + n]])
            val_blocks.append((k, n, X_val, val_pos, val_w))

    for epoch in range(1, epochs + 1):
        for lane_rows, lane_w, k in zip(epoch_rows, epoch_w, range(len(lanes))):
            perm = lanes[k].shuffle_rng.permutation(counts[k])
            lane_rows[:counts[k]] = rows[k, perm]
            lane_w[:counts[k]] = step_w[k, perm]
        # each model's bias corrections at each batch index of this epoch, from its own step count
        np.take(corrections, (epoch - 1) * batches[:, None] + np.arange(batches[0]), axis=1, out=epoch_corrections)
        for model, grad, m_rows, v_rows, scratch_rows, rng, batch_rows, w, c, real, count in steps:
            cache: list = []
            logits = _forward(model, np.take(jobs.X, batch_rows, axis=0), True, rng, cache, real)
            _backward(model, cache, _output_delta(_sigmoid(logits), np.take(jobs.y, batch_rows), w, count), grad)
            adamw_step(model.params, grad.params, m_rows, v_rows, cfg.learning_rate, cfg.weight_decay, None,
                       corrections=c, scratch=scratch_rows)

        val_losses = []
        for k, n, X_val, val_pos, val_w in val_blocks:
            val_logits = _loss_logits(block(k, n)[0], X_val).reshape(n, -1)
            val_losses += (np.add.reduce(_bce(val_logits, val_pos, val_w), axis=-1) / len(val_pos)).tolist()
        for k, lane in enumerate(lanes):
            if lane.end_epoch(epoch, val_losses[k]):
                best[k] = params[k]
        # patience counts only epochs that did not improve, so 0 stops as 1 does
        if cfg.fixed_epochs is None and epoch - lanes[0].best_epoch >= max(cfg.patience, 1):
            break
    # each model's train loss at its best epoch: the models of one batch count score their padded rows together
    train_losses = []
    starts = [k for k in range(len(lanes)) if k == 0 or batches[k] != batches[k - 1]]
    for start, stop in zip(starts, [*starts[1:], len(lanes)]):
        width = batches[start] * batch
        for k, n in _blocks(start, stop, max(1, VALIDATION_ELEMENTS // (width * max(widest, dim)))):
            index, pos = k if n == 1 else slice(k, k + n), positive[k:k + n, :width]
            logits = _loss_logits(_view(best[index], like), np.take(jobs.X, rows[index, :width], axis=0))
            terms = _bce(logits.reshape(n, width), pos, np.where(pos, class_w[k:k + n, 1:], class_w[k:k + n, :1]))
            train_losses += [float(np.add.reduce(t[:c]) / c) for t, c in zip(terms, counts[k:k + n].tolist())]
    return [TrainedModel(model=_view(best[k].copy(), like), train_loss=train_losses[k], val_losses=lanes[k].val_losses,
                         best_epoch=lanes[k].best_epoch) for k in map(lanes.index, in_job_order)]


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
        "train_loss": trained.train_loss,
        "val_losses": trained.val_losses,
    }
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_model(path: str | Path) -> TrainedModel:
    """The model :func:`save_model` wrote; a checkpoint of per-epoch ``train_losses`` gives its best epoch's."""
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
        train_loss=meta["train_loss"] if "train_loss" in meta else meta["train_losses"][meta["best_epoch"] - 1],
        val_losses=list(meta["val_losses"]),
        best_epoch=meta["best_epoch"],
    )

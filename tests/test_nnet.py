"""Tests for the numpy MLP: gradients, optimizer, training loop, persistence."""

import json
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leakaudit.nnet as nnet
from leakaudit.data import Dataset, class_weights
from leakaudit.nnet import (
    FitJobs,
    MlpModel,
    TrainConfig,
    _bias_corrections,
    _forward,
    adamw_step,
    fit,
    fit_stack,
    forward_logits,
    init_model,
    load_model,
    predict_confidences,
    save_model,
    stack_capacity,
)
from leakaudit.seeds import derive_rng
from oracles import loss_and_grads, weighted_bce_loss


def toy_dataset(n=40, dim=4, seed=0, separation=3.0):
    rng = np.random.default_rng(seed)
    labels = np.array([i % 2 for i in range(n)])
    X = rng.normal(size=(n, dim))
    X[labels == 1] += separation / np.sqrt(dim)
    return Dataset([f"t{i}" for i in range(n)], X, labels)


def training_logits(model, X):
    """The float32 inference logits that a fit takes its per-epoch losses from."""
    return _forward(model, np.asarray(X, dtype=np.float32), False, None)


def padded_training_logits(model, X, batch_size):
    """training_logits of the rows of X, scored as a fit scores its train loss: padded to whole batches by row 0."""
    return training_logits(model, np.concatenate([X, np.repeat(X[:1], -len(X) % batch_size, axis=0)]))[:len(X)]


def reference_epoch(X, y, cfg):
    """One epoch of the per-batch loss_and_grads and adamw_step loop on a lone float32 model; returns its params.

    The last batch is padded to ``batch_size`` rows with the first training
    row at weight 0, as a fit pads it: the bytes of a one-column product's
    rows depend on the row count.
    """
    model = init_model(X.shape[1], cfg).astype(np.float32)
    shuffle_rng, dropout_rng = derive_rng(cfg.seed, "shuffle"), derive_rng(cfg.seed, "dropout")
    m, v = np.zeros_like(model.params), np.zeros_like(model.params)
    perm = shuffle_rng.permutation(len(y))
    X = X.astype(np.float32)
    for step, start in enumerate(range(0, len(y), cfg.batch_size), start=1):
        idx = perm[start:start + cfg.batch_size]
        padded = np.concatenate([idx, np.zeros(cfg.batch_size - len(idx), dtype=int)])
        _, gw, gb = loss_and_grads(model, X[padded], y[padded], class_weights(y), train=True, rng=dropout_rng,
                                   real=len(idx))
        adamw_step(model.params, np.concatenate([g.ravel() for g in gw + gb]), m, v, cfg.learning_rate,
                   cfg.weight_decay, step)
    return model.params


def numeric_gradients(model, X, y, weights, eps=1e-6):
    """Central finite differences over every parameter entry."""
    grads = []
    for arr in model.weights + model.biases:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = weighted_bce_loss(forward_logits(model, X), y, weights)
            arr[idx] = orig - eps
            lm = weighted_bce_loss(forward_logits(model, X), y, weights)
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.hidden_dims == (256, 128)
        assert cfg.batch_size == 64
        assert cfg.patience == 10

    @pytest.mark.parametrize("kwargs", [
        {"hidden_dims": (0,)},
        {"dropout_rate": 1.0},
        {"learning_rate": 0.0},
        {"weight_decay": -1e-3},
        {"batch_size": 0},
        {"max_epochs": 0},
        {"patience": -1},
        {"fixed_epochs": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestForward:
    def test_init_shapes_and_bounds(self):
        cfg = TrainConfig(hidden_dims=(8, 4), seed=1)
        model = init_model(5, cfg)
        assert [w.shape for w in model.weights] == [(5, 8), (8, 4), (4, 1)]
        assert all(np.all(b == 0) for b in model.biases)
        for w, d_in in zip(model.weights, (5, 8, 4)):
            assert np.max(np.abs(w)) <= 1.0 / np.sqrt(d_in)

    def test_single_output_unit(self):
        model = init_model(3, TrainConfig(hidden_dims=(6,)))
        out = forward_logits(model, np.zeros((7, 3)))
        assert out.shape == (7,)

    def test_linear_model_closed_form(self):
        model = MlpModel(
            weights=[np.array([[2.0], [-1.0]])],
            biases=[np.array([0.5])],
            dropout_rate=0.0,
            input_dim=2,
        )
        assert forward_logits(model, np.array([[1.0, 3.0]]))[0] == pytest.approx(-0.5)

    def test_dimension_mismatch(self):
        model = init_model(3, TrainConfig(hidden_dims=(4,)))
        with pytest.raises(ValueError):
            forward_logits(model, np.zeros((2, 5)))

    def test_layers_are_views_of_one_flat_vector(self):
        model = init_model(5, TrainConfig(hidden_dims=(8, 4), seed=1))
        blocks = model.weights + model.biases
        assert model.params.size == sum(b.size for b in blocks) == 5 * 8 + 8 * 4 + 4 + 8 + 4 + 1
        assert np.array_equal(model.params, np.concatenate([b.ravel() for b in blocks]))
        model.params[:] = 0.0
        assert all(not b.any() for b in blocks)
        model.biases[-1][0] = 3.0
        assert model.params[-1] == 3.0

    def test_pickled_model_rebuilds_its_layers_as_views(self):
        model = init_model(5, TrainConfig(hidden_dims=(8, 4), dropout_rate=0.3, seed=1))
        clone = pickle.loads(pickle.dumps(model))
        assert clone.params.tobytes() == model.params.tobytes()
        assert [w.shape for w in clone.weights] == [w.shape for w in model.weights]
        assert [b.shape for b in clone.biases] == [b.shape for b in model.biases]
        assert (clone.dropout_rate, clone.input_dim) == (0.3, 5)
        clone.weights[0][0, 0] = 9.0
        clone.biases[-1][0] = -2.0
        assert clone.params[0] == 9.0 and clone.params[-1] == -2.0

    def test_copy_is_independent(self):
        model = init_model(3, TrainConfig(hidden_dims=(4,), seed=2))
        clone = model.copy()
        model.params += 1.0
        assert not np.array_equal(clone.params, model.params)
        assert np.array_equal(clone.params, np.concatenate([b.ravel() for b in clone.weights + clone.biases]))

    def test_dropout_only_in_train_mode(self):
        model = init_model(4, TrainConfig(hidden_dims=(16,), dropout_rate=0.5, seed=0))
        X, y = np.ones((3, 4)), np.array([0, 1, 1])
        infer = loss_and_grads(model, X, y)[0]
        assert infer == loss_and_grads(model, X, y)[0]
        rng = np.random.default_rng(0)
        train = loss_and_grads(model, X, y, train=True, rng=rng)[0]
        assert infer != train

    def test_train_mode_dropout_requires_rng(self):
        model = init_model(2, TrainConfig(hidden_dims=(4,), dropout_rate=0.5))
        with pytest.raises(ValueError):
            loss_and_grads(model, np.zeros((1, 2)), np.array([1]), train=True)


class TestLossAndGradients:
    def test_bce_hand_value(self):
        # logit 0 gives p=0.5: loss = -log(0.5) for either label
        assert weighted_bce_loss(np.array([0.0]), np.array([1])) == pytest.approx(np.log(2.0))

    def test_bce_class_weights_scale(self):
        logits = np.array([0.0, 0.0])
        labels = np.array([0, 1])
        unweighted = weighted_bce_loss(logits, labels)
        weighted = weighted_bce_loss(logits, labels, weights=(2.0, 2.0))
        assert weighted == pytest.approx(2.0 * unweighted)

    def test_bce_permutation_invariant(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=12)
        labels = rng.integers(0, 2, size=12)
        perm = rng.permutation(12)
        assert weighted_bce_loss(logits, labels) == pytest.approx(
            weighted_bce_loss(logits[perm], labels[perm])
        )

    def test_bce_empty_batch(self):
        with pytest.raises(ValueError):
            weighted_bce_loss(np.array([]), np.array([]))

    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5)])
    def test_analytic_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(hash(hidden) % 2**32)
        dim = 5
        cfg = TrainConfig(hidden_dims=hidden or (3,), dropout_rate=0.0, seed=4)
        model = init_model(dim, cfg)
        if hidden == ():
            model = MlpModel(
                weights=[rng.normal(scale=0.5, size=(dim, 1))],
                biases=[rng.normal(size=1)],
                dropout_rate=0.0,
                input_dim=dim,
            )
        X = rng.normal(size=(9, dim))
        y = rng.integers(0, 2, size=9)
        w = (0.8, 1.7)
        _, gw, gb = loss_and_grads(model, X, y, w)
        num = numeric_gradients(model, X, y, w)
        for analytic, numeric in zip(gw + gb, num):
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-6

    def test_loss_matches_bce(self):
        rng = np.random.default_rng(2)
        model = init_model(3, TrainConfig(hidden_dims=(4,), dropout_rate=0.0))
        X = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        loss, _, _ = loss_and_grads(model, X, y, (1.0, 1.0))
        assert loss == pytest.approx(weighted_bce_loss(forward_logits(model, X), y))


class TestAdamW:
    def test_first_step_is_signed_lr(self):
        p = np.array([1.0, -2.0])
        g = np.array([0.3, -0.7])
        adamw_step(p, g, np.zeros(2), np.zeros(2), lr=0.01, weight_decay=0.0, step=1)
        expected = np.array([1.0, -2.0]) - 0.01 * np.sign(g)
        assert np.allclose(p, expected, atol=1e-6)

    def test_zero_gradient_decoupled_decay(self):
        p = np.array([2.0])
        adamw_step(p, np.array([0.0]), np.zeros(1), np.zeros(1), lr=0.1, weight_decay=0.5, step=1)
        assert p[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))

    def test_rejects_non_finite_gradient(self):
        p = np.array([1.0])
        with pytest.raises(FloatingPointError):
            adamw_step(p, np.array([np.nan]), np.zeros(1), np.zeros(1), lr=0.1, weight_decay=0.0, step=1)

    def test_flat_step_matches_per_block_updates(self):
        rng = np.random.default_rng(5)
        blocks = [rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(4, 1))]
        flat = np.concatenate([b.ravel() for b in blocks])
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        ref_m = [np.zeros_like(b) for b in blocks]
        ref_v = [np.zeros_like(b) for b in blocks]
        b1, b2, lr, wd = 0.9, 0.999, 1e-2, 1e-3
        for step in range(1, 6):
            grads = [rng.normal(size=b.shape) for b in blocks]
            adamw_step(flat, np.concatenate([g.ravel() for g in grads]), m, v, lr, wd, step)
            for i, (p, g) in enumerate(zip(blocks, grads)):
                ref_m[i] = b1 * ref_m[i] + (1 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1 - b2) * g * g
                p -= lr * (ref_m[i] / (1 - b1 ** step)) / (np.sqrt(ref_v[i] / (1 - b2 ** step)) + 1e-8)
                p -= lr * wd * p
        assert np.array_equal(flat, np.concatenate([b.ravel() for b in blocks]))

    def test_rejects_bad_step(self):
        p = np.array([1.0])
        with pytest.raises(ValueError):
            adamw_step(p, p, np.zeros(1), np.zeros(1), 0.1, 0.0, step=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_rows_step_as_they_would_alone(self, dtype):
        """A (K, P) step with each row's bias corrections from a fit's table gives each row its own flat step's bytes.

        The rows have taken different step counts, as a stack's models may; a float32 stack stays in float32.
        """
        rng = np.random.default_rng(8)
        params = rng.normal(size=(3, 7)).astype(dtype)
        m, v = np.zeros_like(params), np.zeros_like(params)
        rows = [(p.copy(), mi.copy(), vi.copy()) for p, mi, vi in zip(params, m, v)]
        table = _bias_corrections(1003, dtype)
        for shift in range(4):
            grads = rng.normal(size=(3, 7)).astype(dtype)
            steps = [1 + shift, 9 + shift, 1000 + shift]
            adamw_step(params, grads, m, v, 1e-2, 1e-3, None, corrections=tuple(table[:, [s - 1 for s in steps], None]))
            for (p, mi, vi), g, step in zip(rows, grads, steps):
                adamw_step(p, g, mi, vi, 1e-2, 1e-3, step)
        assert {a.dtype for a in (params, m, v, *(a for row in rows for a in row))} == {np.dtype(dtype)}
        for k, stacked in enumerate((params, m, v)):
            assert stacked.tobytes() == np.stack([row[k] for row in rows]).tobytes()


class TestFit:
    def test_separable_data_reaches_full_train_accuracy(self):
        ds = toy_dataset(n=60, separation=8.0)
        cfg = TrainConfig(hidden_dims=(8,), dropout_rate=0.0, weight_decay=0.0,
                          learning_rate=1e-2, max_epochs=200, patience=200, seed=0)
        trained = fit(ds, ds, cfg)
        preds = (forward_logits(trained.model, ds.features_array()) > 0).astype(int)
        assert np.array_equal(preds, ds.labels_array())

    def test_fixed_epochs_runs_exactly(self):
        ds = toy_dataset()
        cfg = TrainConfig(hidden_dims=(4,), max_epochs=3, fixed_epochs=15, seed=0)
        trained = fit(ds, ds, cfg)
        assert len(trained.val_losses) == 15

    def test_returned_weights_are_best_epoch(self):
        ds = toy_dataset(n=50, separation=2.0)
        val = toy_dataset(n=20, seed=1, separation=2.0)
        cfg = TrainConfig(hidden_dims=(16,), dropout_rate=0.0, weight_decay=0.0,
                          learning_rate=5e-2, fixed_epochs=30, seed=0)
        trained = fit(ds, val, cfg)
        assert trained.best_epoch == int(np.argmin(trained.val_losses)) + 1
        w = (1.0, 1.0)
        import leakaudit.data as data_mod
        cw = data_mod.class_weights(ds.y)
        val_loss = weighted_bce_loss(
            training_logits(trained.model, val.features_array()), val.labels_array(), cw
        )
        assert val_loss == pytest.approx(min(trained.val_losses), rel=1e-12)

    def test_epoch_losses_match_the_weighted_bce_reference(self):
        """The train and validation losses equal weighted_bce_loss with the train split's class weights."""
        rng = np.random.default_rng(5)
        train, val = (Dataset([f"{name}{i}" for i in range(n)], rng.normal(size=(n, 3)),
                              (np.arange(n) % 4 == 0).astype(int))
                      for name, n in (("t", 60), ("v", 21)))
        trained = fit(train, val, TrainConfig(hidden_dims=(5,), dropout_rate=0.2, fixed_epochs=1, seed=1))
        cw = class_weights(train.y)
        assert cw[0] != cw[1]
        assert trained.train_loss == weighted_bce_loss(training_logits(trained.model, train.X), train.y, cw)
        assert trained.val_losses == [weighted_bce_loss(training_logits(trained.model, val.X), val.y, cw)]

    def test_early_stopping_stops_after_patience(self):
        ds = toy_dataset(n=30, separation=1.0)
        cfg = TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=1e-3,
                          max_epochs=100, patience=3, seed=0)
        trained = fit(ds, ds, cfg)
        n_epochs = len(trained.val_losses)
        if n_epochs < 100:
            # stopping epoch is best + patience
            assert n_epochs == trained.best_epoch + 3

    def test_patience_zero_stops_at_the_first_epoch_that_does_not_improve(self):
        """As patience 1 does: 0 epochs without improvement is never waited for past the first."""
        train = toy_dataset(n=30, seed=2, separation=1.0)
        val = toy_dataset(n=20, seed=102, separation=1.0)
        cfg = TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=5e-2, batch_size=8, max_epochs=50,
                          patience=0, seed=2)
        zero, one = fit(train, val, cfg), fit(train, val, TrainConfig(**{**vars(cfg), "patience": 1}))
        assert (len(zero.val_losses), zero.best_epoch) == (4, 3)
        assert zero.val_losses[0] > zero.val_losses[1] > zero.val_losses[2] <= zero.val_losses[3]
        assert zero.model.params.tobytes() == one.model.params.tobytes()

    def test_deterministic_under_seed(self):
        ds = toy_dataset()
        cfg = TrainConfig(hidden_dims=(6,), dropout_rate=0.3, seed=42, max_epochs=5)
        t1 = fit(ds, ds, cfg)
        t2 = fit(ds, ds, cfg)
        for w1, w2 in zip(t1.model.weights, t2.model.weights):
            assert np.array_equal(w1, w2)
        assert t1.train_loss == t2.train_loss

    def test_training_steps_match_the_loss_and_grads_reference(self):
        ds = toy_dataset(n=50)
        cfg = TrainConfig(hidden_dims=(6, 3), dropout_rate=0.3, batch_size=8, fixed_epochs=1, seed=3)
        assert fit(ds, ds, cfg).model.params.tobytes() == reference_epoch(ds.X, ds.y, cfg).tobytes()

    def test_float32_training_stays_near_the_float64_reference(self):
        """25 epochs of fit against the loss_and_grads and adamw_step loop run in float64 on the same draws."""
        train = toy_dataset(n=60, dim=6, seed=7, separation=2.0)
        val = toy_dataset(n=30, dim=6, seed=8, separation=2.0)
        cfg = TrainConfig(hidden_dims=(16, 8), dropout_rate=0.2, batch_size=16, learning_rate=1e-2,
                          fixed_epochs=25, seed=5)
        trained = fit(train, val, cfg)
        model = init_model(train.dimension, cfg)
        shuffle_rng, dropout_rng = derive_rng(cfg.seed, "shuffle"), derive_rng(cfg.seed, "dropout")
        m, v = np.zeros_like(model.params), np.zeros_like(model.params)
        cw = class_weights(train.y)
        step, params, val_losses = 0, [], []
        for _ in range(cfg.fixed_epochs):
            perm = shuffle_rng.permutation(len(train))
            for start in range(0, len(train), cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                _, gw, gb = loss_and_grads(model, train.X[idx], train.y[idx], cw, train=True, rng=dropout_rng)
                step += 1
                adamw_step(model.params, np.concatenate([g.ravel() for g in gw + gb]), m, v,
                           cfg.learning_rate, cfg.weight_decay, step)
            params.append(model.params.copy())
            val_losses.append(weighted_bce_loss(forward_logits(model, val.X), val.y, cw))
        assert (trained.model.params.dtype, model.params.dtype) == (np.float32, np.float64)
        assert trained.best_epoch == int(np.argmin(val_losses)) + 1
        reference = params[trained.best_epoch - 1]
        assert np.max(np.abs(trained.model.params - reference)) <= 1e-4 * np.max(np.abs(reference))
        assert np.allclose(trained.val_losses, val_losses, rtol=1e-5, atol=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fit(toy_dataset(dim=3), toy_dataset(dim=4), TrainConfig(max_epochs=1))

    def test_single_class_training_set(self):
        rng = np.random.default_rng(0)
        ds = Dataset([f"p{i}" for i in range(5)], rng.normal(size=(5, 2)), [1] * 5)
        with pytest.raises(ValueError):
            fit(ds, ds, TrainConfig(max_epochs=1))


def stack_jobs():
    """Jobs for one stack of two-hidden-layer models with dropout, batch 64.

    Their training rows of one pool differ, and so do their last batches:
    129 rows end on a batch of 1, 128 on a full batch, 191 on a batch of
    63, and 63 rows are one batch of 63. They train 30 fixed epochs, each
    with its own seed, and share one validation set, rows 300-329 of the
    same arrays, as the shadows share Z.
    """
    pool = toy_dataset(n=300, dim=5, seed=4, separation=2.0)
    val = toy_dataset(n=30, dim=5, seed=2, separation=2.0)
    cfg = TrainConfig(hidden_dims=(6, 3), dropout_rate=0.3, batch_size=64, learning_rate=1e-2, fixed_epochs=30)
    return FitJobs(np.concatenate([pool.X, val.X]), np.concatenate([pool.y, val.y]),
                   [np.arange(2 * j, 2 * j + n) for j, n in enumerate((129, 128, 191, 63))],
                   [np.arange(300, 330)] * 4, [replace(cfg, seed=10 + j) for j in range(4)])


def pick(jobs, order):
    """The jobs at the indices ``order``, in that order."""
    return replace(jobs, rows=[jobs.rows[i] for i in order], val_rows=[jobs.val_rows[i] for i in order],
                   cfgs=[jobs.cfgs[i] for i in order])


def alone(jobs, j):
    """Job ``j`` as :func:`fit` takes it: its training rows and its validation rows as datasets, and its recipe."""
    return (*(Dataset([f"r{r}" for r in rows], jobs.X[rows], jobs.y[rows])
              for rows in (jobs.rows[j], jobs.val_rows[j])), jobs.cfgs[j])


def same_model(a, b):
    return (a.model.params.tobytes() == b.model.params.tobytes() and a.train_loss == b.train_loss
            and a.val_losses == b.val_losses and a.best_epoch == b.best_epoch)


@st.composite
def mixed_validation_jobs(draw):
    """A stack of 2-6 jobs that validate on three sets of rows, one of them a target-shaped job with the most batches.

    The target-shaped job trains on 120-150 of rows 0-159 (8-10 batches of
    16), the others on 10-60 (1-4 batches). Each job validates on rows
    160-199, on rows 200-239, or on 20 rows drawn from all 240, training
    rows among them. Rows 0 and 1, one of each class, are in every
    training set.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X, y = rng.normal(size=(240, 4)), np.arange(240) % 2
    X[y == 1] += 1.0
    count = draw(st.integers(2, 6))
    target = draw(st.integers(0, count - 1))
    sizes = [draw(st.integers(118, 148)) if j == target else draw(st.integers(8, 58)) for j in range(count)]
    rows = [np.concatenate([[0, 1], np.sort(rng.choice(np.arange(2, 160), size=size, replace=False))])
            for size in sizes]
    sets = [np.arange(160, 200), np.arange(200, 240), np.sort(rng.choice(240, size=20, replace=False))]
    val_rows = [sets[draw(st.integers(0, 2))] for _ in range(count)]
    cfg = TrainConfig(hidden_dims=(4,), dropout_rate=0.2, batch_size=16, learning_rate=1e-2, fixed_epochs=3)
    return FitJobs(X, y.astype(float), rows, val_rows, [replace(cfg, seed=draw(st.integers(0, 99))) for _ in rows])


class TestStack:
    def test_a_stacked_model_gets_the_bytes_it_gets_alone(self):
        jobs = stack_jobs()
        models = [fit(*alone(jobs, j)) for j in range(len(jobs))]
        assert [len(t.val_losses) for t in models] == [30] * 4
        # the same jobs in every order and in every split into two stacks
        orders = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]]
        for order in orders:
            for cut in range(1, 5):
                parts = [order[:cut], order[cut:]] if cut < len(order) else [order]
                stacked = [model for part in parts for model in fit_stack(pick(jobs, part))]
                for i, model in zip(order, stacked, strict=True):
                    assert same_model(model, models[i]), (order, cut, i)

    def test_the_train_loss_is_the_returned_models_on_its_training_rows(self):
        """Scored at the best epoch, which is not the last: an early-stopping fit, and job 2 of a fixed-epoch stack."""
        train, val = toy_dataset(n=30, seed=2, separation=1.0), toy_dataset(n=20, seed=102, separation=1.0)
        early = fit(train, val, TrainConfig(hidden_dims=(4,), dropout_rate=0.0, learning_rate=5e-2, batch_size=8,
                                            max_epochs=50, patience=3, seed=2))
        jobs = stack_jobs()
        stacked, d_train = fit_stack(jobs)[2], alone(jobs, 2)[0]
        assert stacked.train_loss == fit(*alone(jobs, 2)).train_loss
        for trained, ds, batch_size in ((early, train, 8), (stacked, d_train, 64)):
            assert trained.best_epoch < len(trained.val_losses)
            logits = padded_training_logits(trained.model, ds.X, batch_size)
            assert trained.train_loss == weighted_bce_loss(logits, ds.y, class_weights(ds.y))

    @given(mixed_validation_jobs(), st.sampled_from([nnet.VALIDATION_ELEMENTS, 1]))
    @settings(max_examples=30, deadline=None)
    def test_jobs_on_different_validation_rows_each_get_the_model_they_get_alone(self, jobs, elements):
        """Each validation set is scored for the models that share it, in blocks of as many as ``elements`` allows."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nnet, "VALIDATION_ELEMENTS", elements)
            stacked = fit_stack(jobs)
        for j, model in enumerate(stacked):
            assert same_model(model, fit(*alone(jobs, j))), j

    def test_a_job_without_validation_rows_or_with_a_row_outside_X_is_refused_by_name(self):
        jobs = stack_jobs()
        rows, val_rows = list(jobs.rows), list(jobs.val_rows)
        with pytest.raises(ValueError, match="^job 2 has no validation rows$"):
            replace(jobs, val_rows=[*val_rows[:2], np.arange(0), val_rows[3]])
        with pytest.raises(ValueError, match="^job 1 has a validation row outside the 330 rows of X$"):
            replace(jobs, val_rows=[val_rows[0], np.array([5, 330]), *val_rows[2:]])
        with pytest.raises(ValueError, match="^job 3 has a training row outside the 330 rows of X$"):
            replace(jobs, rows=[*rows[:3], np.array([-1, 4])])
        with pytest.raises(ValueError, match="4 training row sets, 3 validation row sets and 4 recipes"):
            replace(jobs, val_rows=val_rows[:3])

    def test_a_stack_ends_at_a_recipe_it_cannot_take_or_at_its_capacity(self):
        jobs = stack_jobs()
        early, other = replace(jobs.cfgs[0], fixed_epochs=None), replace(jobs.cfgs[0], learning_rate=0.5)
        assert [jobs.stack_end(start) for start in range(4)] == [4, 4, 4, 4]
        assert replace(jobs, cfgs=[early, *jobs.cfgs[1:]]).stack_end(0) == 1  # it stops early, so alone
        assert replace(jobs, cfgs=[*jobs.cfgs[:2], other, jobs.cfgs[3]]).stack_end(0) == 2
        large = [replace(cfg, hidden_dims=(128, 128)) for cfg in jobs.cfgs]  # over 16k parameters
        assert [replace(jobs, cfgs=large).stack_end(start) for start in range(4)] == [1, 2, 3, 4]

    def test_stacked_training_steps_match_the_loss_and_grads_reference(self):
        """Each stacked model's first epoch is the per-batch loss_and_grads and adamw_step loop on that model alone."""
        jobs = stack_jobs()
        jobs = replace(jobs, cfgs=[replace(cfg, fixed_epochs=1) for cfg in jobs.cfgs])
        for j, stacked in enumerate(fit_stack(jobs)):
            d_train, _, cfg = alone(jobs, j)
            assert stacked.model.params.tobytes() == reference_epoch(d_train.X, d_train.y, cfg).tobytes(), j

    def test_after_an_epoch_each_model_has_drawn_what_an_unpadded_loop_draws(self, monkeypatch):
        """A padded batch draws dropout for its model's own rows only: the shuffle and dropout generators end alike."""
        made, derive = {}, nnet.derive_rng
        monkeypatch.setattr(nnet, "derive_rng", lambda seed, name: made.setdefault((seed, name), derive(seed, name)))
        jobs = stack_jobs()
        jobs = replace(jobs, cfgs=[replace(cfg, fixed_epochs=1) for cfg in jobs.cfgs])
        fit_stack(jobs)
        for rows, cfg in zip(jobs.rows, jobs.cfgs, strict=True):
            shuffle, dropout = derive_rng(cfg.seed, "shuffle"), derive_rng(cfg.seed, "dropout")
            shuffle.permutation(len(rows))
            for start in range(0, len(rows), cfg.batch_size):
                for width in cfg.hidden_dims:
                    dropout.random((len(rows[start:start + cfg.batch_size]), width))
            assert made[cfg.seed, "shuffle"].bit_generator.state == shuffle.bit_generator.state
            assert made[cfg.seed, "dropout"].bit_generator.state == dropout.bit_generator.state

    def test_a_stack_trains_in_float32_and_keeps_its_losses_in_float64(self, monkeypatch):
        """Every batch, logit, output delta, parameter, moment and gradient of a stacked fit is float32."""
        seen = set()

        def recorded(name):
            real = getattr(nnet, name)

            def call(*args, **kwargs):
                out = real(*args, **kwargs)
                seen.update((name, a.dtype) for a in (*args, out) if isinstance(a, np.ndarray))
                return out
            monkeypatch.setattr(nnet, name, call)

        for name in ("_forward", "_output_delta", "adamw_step"):
            recorded(name)
        jobs = stack_jobs()
        models = fit_stack(replace(jobs, cfgs=[replace(cfg, fixed_epochs=2) for cfg in jobs.cfgs]))
        assert seen == {(name, np.dtype(np.float32)) for name in ("_forward", "_output_delta", "adamw_step")}
        assert {t.model.params.dtype for t in models} == {np.dtype(np.float32)}
        assert {type(loss) for t in models for loss in [t.train_loss, *t.val_losses]} == {float}

    @pytest.mark.parametrize("change", [{"learning_rate": 2e-2}, {"fixed_epochs": 29}, {"patience": 4},
                                        {"max_epochs": 31}, {"hidden_dims": (6, 4)}])
    def test_a_stack_refuses_jobs_whose_recipes_differ_in_more_than_the_seed(self, change):
        jobs = stack_jobs()
        cfgs = list(jobs.cfgs)
        cfgs[2] = replace(cfgs[2], **change)
        with pytest.raises(ValueError, match="every other setting but the seed"):
            fit_stack(replace(jobs, cfgs=cfgs))

    def test_a_stack_of_more_than_one_refuses_early_stopping(self):
        jobs = stack_jobs()
        with pytest.raises(ValueError, match="only a stack of one stops early"):
            fit_stack(replace(jobs, cfgs=[replace(cfg, fixed_epochs=None) for cfg in jobs.cfgs]))

    def test_a_packed_stack_holds_each_row_it_trains_on_once_and_trains_the_same(self):
        """In float32, the training dtype: the features and labels of the rows it trains and validates on, once."""
        jobs = stack_jobs()
        jobs = replace(jobs, rows=[jobs.rows[0][::-1], *jobs.rows[1:3], jobs.rows[3] + 220])  # rows 0-194, 226-288
        packed = jobs.packed()
        union = np.unique(np.concatenate(jobs.rows))
        assert {packed.X.dtype, packed.y.dtype} == {np.dtype(np.float32)}
        assert len(union) == 195 + 63 and np.array_equal(packed.X[:len(union)], jobs.X[union].astype(np.float32))
        assert len(packed.X) == len(union) + 30  # and the validation rows, 300-329, once for the four jobs
        for rows, packed_rows in zip([*jobs.rows, *jobs.val_rows], [*packed.rows, *packed.val_rows], strict=True):
            assert np.array_equal(packed.X[packed_rows], jobs.X[rows].astype(np.float32))
            assert np.array_equal(packed.y[packed_rows], jobs.y[rows])
        assert all(rows is packed.val_rows[0] for rows in packed.val_rows) and packed.cfgs == jobs.cfgs
        for model, packed_model in zip(fit_stack(jobs), fit_stack(packed), strict=True):
            assert same_model(model, packed_model)

    def test_packing_a_wide_stack_never_holds_a_float64_copy_of_its_rows(self):
        """16 jobs on about half of 12,000 rows of 16 features, as in a wide-challenge stack: it casts in blocks."""
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(12_000, 16)), (rng.random(12_000) < 0.3).astype(float)
        jobs = FitJobs(X, y, [np.flatnonzero(rng.random(12_000) < 0.5) for _ in range(16)], [np.arange(2_700)] * 16,
                       [TrainConfig(hidden_dims=(8,), fixed_epochs=2, seed=j) for j in range(16)])
        tracemalloc.start()
        try:
            packed = jobs.packed()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed.X.dtype == np.float32 and len(packed.X) > 11_900
        assert peak - held < packed.X.size * 8 / 2  # what packing holds beyond its result: not the float64 rows

    def test_capacity_follows_the_parameter_count(self):
        # positive control: 2,113 parameters; the default recipe: 49,665; a wide 8-unit model: 145
        assert [stack_capacity(64, (32,)), stack_capacity(64, (256, 128)), stack_capacity(16, (8,))] == [7, 1, 112]


class TestPredict:
    def test_label_symmetry(self):
        model = init_model(3, TrainConfig(hidden_dims=(4,), seed=7))
        X = np.array([[0.1, -0.2, 0.4]] * 2)
        assert predict_confidences(model, X, np.array([1, 0])).sum() == pytest.approx(1.0)

    def test_values_clipped_into_open_interval(self):
        model = MlpModel(
            weights=[np.array([[1000.0]])], biases=[np.array([0.0])],
            dropout_rate=0.0, input_dim=1,
        )
        conf = predict_confidences(model, np.array([[100.0]]), np.array([1]))[0]
        assert 0.0 < conf < 1.0

    def test_a_float32_model_scores_in_float64(self):
        """A logit of 20 saturates a float32 sigmoid; scored in float64 it keeps its distance from 1."""
        model = MlpModel(weights=[np.array([[20.0]])], biases=[np.array([0.0])], dropout_rate=0.0,
                         input_dim=1).astype(np.float32)
        conf = predict_confidences(model, np.array([[1.0]]), np.array([0]))
        assert conf.dtype == np.float64 and conf[0] == pytest.approx(np.exp(-20.0), rel=1e-6)

    def test_rejects_non_binary_labels(self):
        model = init_model(2, TrainConfig(hidden_dims=(2,)))
        with pytest.raises(ValueError):
            predict_confidences(model, np.zeros((1, 2)), np.array([2]))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        ds = toy_dataset()
        cfg = TrainConfig(hidden_dims=(5, 3), seed=3, max_epochs=4)
        trained = fit(ds, ds, cfg)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.best_epoch == trained.best_epoch
        assert loaded.train_loss == trained.train_loss
        assert loaded.val_losses == trained.val_losses
        for w1, w2 in zip(trained.model.weights, loaded.model.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(trained.model.biases, loaded.model.biases):
            assert np.array_equal(b1, b2)
        X = ds.features_array()
        assert np.array_equal(
            forward_logits(trained.model, X), forward_logits(loaded.model, X)
        )

    def test_a_checkpoint_of_every_epochs_train_loss_loads_its_best_epochs(self, tmp_path):
        """The meta layout of checkpoints that kept a train loss per epoch, as runs before one loss wrote them."""
        meta = {"n_layers": 1, "dropout_rate": 0.0, "input_dim": 2, "best_epoch": 2,
                "train_losses": [0.7, 0.5, 0.4], "val_losses": [0.8, 0.6, 0.65]}
        np.savez(tmp_path / "old.npz", w_0=np.ones((2, 1), dtype=np.float32), b_0=np.zeros(1, dtype=np.float32),
                 meta_json=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8))
        loaded = load_model(tmp_path / "old.npz")
        assert (loaded.train_loss, loaded.val_losses, loaded.best_epoch) == (0.5, [0.8, 0.6, 0.65], 2)
        assert loaded.model.params.tolist() == [1.0, 1.0, 0.0]

    def test_a_checkpoint_holds_float32_and_its_model_scores_the_same_bytes(self, tmp_path):
        ds = toy_dataset()
        trained = fit(ds, ds, TrainConfig(hidden_dims=(5, 3), seed=3, max_epochs=4))
        save_model(trained, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as npz:
            assert {npz[f"{kind}_{i}"].dtype for kind in "wb" for i in range(3)} == {np.dtype(np.float32)}
        loaded = load_model(tmp_path / "model.npz")
        assert (trained.model.params.dtype, loaded.model.params.dtype) == (np.float32, np.float64)
        in_memory, from_disk = (predict_confidences(t, ds.X, ds.y) for t in (trained, loaded))
        assert in_memory.dtype == from_disk.dtype == np.float64
        assert in_memory.tobytes() == from_disk.tobytes()

"""Tests for the synthetic dataset generator."""

import numpy as np
import pytest

from leakaudit.synth import SynthSpec, synth_dataset
from oracles import same_dataset


class TestSpec:
    @pytest.mark.parametrize("kwargs", [
        {"n": 1, "dim": 4, "positive_fraction": 0.5},
        {"n": 10, "dim": 0, "positive_fraction": 0.5},
        {"n": 10, "dim": 4, "positive_fraction": 0.0},
        {"n": 10, "dim": 4, "positive_fraction": 1.0},
        {"n": 10, "dim": 4, "positive_fraction": 0.5, "separation": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SynthSpec(**kwargs)


class TestGenerator:
    def test_exact_positive_count(self):
        ds = synth_dataset(SynthSpec(n=200, dim=8, positive_fraction=0.2))
        assert np.bincount(ds.y).tolist() == [160, 40]

    def test_at_least_one_of_each_class(self):
        ds = synth_dataset(SynthSpec(n=50, dim=2, positive_fraction=0.001))
        n0, n1 = np.bincount(ds.y, minlength=2)
        assert n0 >= 1 and n1 >= 1

    def test_deterministic(self):
        spec = SynthSpec(n=30, dim=5, positive_fraction=0.3, seed=9)
        assert same_dataset(synth_dataset(spec), synth_dataset(spec))
        assert not same_dataset(synth_dataset(spec), synth_dataset(SynthSpec(n=30, dim=5, positive_fraction=0.3,
                                                                             seed=10)))

    def test_class_mean_separation(self):
        sep = 4.0
        ds = synth_dataset(SynthSpec(n=4000, dim=16, positive_fraction=0.5, separation=sep, seed=0))
        X = ds.features_array()
        y = ds.labels_array()
        gap = X[y == 1].mean(axis=0) - X[y == 0].mean(axis=0)
        assert float(np.linalg.norm(gap)) == pytest.approx(sep, rel=0.1)

    def test_ids_unique_and_padded(self):
        ds = synth_dataset(SynthSpec(n=120, dim=2, positive_fraction=0.5))
        assert len(set(ds.ids)) == 120
        assert all(len(i) == len(ds.ids[0]) for i in ds.ids)

    def test_metadata_counts_positive_features(self):
        ds = synth_dataset(SynthSpec(n=20, dim=6, positive_fraction=0.5, seed=3))
        assert np.array_equal(ds.meta["size"], np.count_nonzero(ds.X > 0, axis=1))

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedckt.data
from fedckt.data import (
    RawDataset,
    assign_data_fractions,
    draw_public_pool,
    label_entropy,
    label_histogram,
    minibatch,
    partition_dirichlet,
    partition_summary,
    split_train_val_test,
)
from fedckt.errors import NumericError
from fedckt.models import ARCH_SOFTMAX, ModelSpec, grad_local, init_params, forward_logits
from fedckt.rng import substream
from helpers import blobs


def sorted_rows(data: RawDataset) -> np.ndarray:
    table = np.column_stack([data.inputs, data.labels.astype(np.float64)])
    order = np.lexsort(table.T)
    return table[order]


class TestGenerate:
    def test_size_is_classes_times_samples(self):
        data = blobs(5, 3, 17, 2.0, seed=0)
        assert len(data) == 5 * 17
        assert np.all(label_histogram(data) == 17)

    def test_same_seed_bit_identical(self):
        a = blobs(4, 6, 20, 3.0, seed=9)
        b = blobs(4, 6, 20, 3.0, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = blobs(4, 6, 20, 3.0, seed=9)
        b = blobs(4, 6, 20, 3.0, seed=10)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_wide_separation_is_linearly_separable(self):
        # independent check: a softmax classifier trained by plain gradient
        # descent reaches >= 99% train accuracy on far-apart blobs
        data = blobs(2, 2, 100, 100.0, seed=3)
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=2, init_scale=0.0)
        params = init_params(spec, seed=0)
        for _ in range(300):
            params = params - 0.5 * grad_local(spec, params, data.inputs, data.labels)
        preds = forward_logits(spec, params, data.inputs).argmax(axis=1)
        assert (preds == data.labels).mean() >= 0.99


class TestPartition:
    def test_huge_alpha_near_uniform(self):
        data = blobs(5, 2, 400, 2.0, seed=1)
        shards = partition_dirichlet(data, 4, 1e6, 2)
        for shard in shards:
            hist = label_histogram(shard)
            assert np.all(np.abs(hist / 400 - 0.25) <= 0.10 * 1 + 0.025)

    def test_small_alpha_concentrates_labels(self):
        # alpha = 0.01: median client holds >= 80% of its samples in <= 2 classes
        data = blobs(10, 2, 500, 2.0, seed=1)
        shards = partition_dirichlet(data, 100, 0.01, 7)
        top2 = []
        for shard in shards:
            if len(shard) == 0:
                continue
            hist = np.sort(label_histogram(shard))[::-1]
            top2.append(hist[:2].sum() / len(shard))
        assert np.median(top2) >= 0.8

    def test_single_client_gets_everything(self):
        data = blobs(3, 2, 10, 2.0, seed=1)
        (shard,) = partition_dirichlet(data, 1, 0.5, 0)
        assert np.array_equal(sorted_rows(shard), sorted_rows(data))

    def test_conservation_exact(self):
        data = blobs(7, 3, 83, 2.0, seed=5)
        shards = partition_dirichlet(data, 13, 0.05, 11)
        merged = RawDataset(
            np.vstack([s.inputs for s in shards]),
            np.concatenate([s.labels for s in shards]),
            data.num_classes,
        )
        assert np.array_equal(sorted_rows(merged), sorted_rows(data))

    @given(
        num_classes=st.integers(2, 5),
        per_class=st.integers(1, 30),
        clients=st.integers(1, 12),
        alpha=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_property(self, num_classes, per_class, clients, alpha, seed):
        data = blobs(num_classes, 2, per_class, 1.0, seed=seed)
        shards = partition_dirichlet(data, clients, alpha, seed)
        assert sum(len(s) for s in shards) == len(data)
        total = sum(label_histogram(s) for s in shards)
        assert np.array_equal(total, label_histogram(data))

    def test_entropy_monotone_in_alpha(self):
        # label skew grows (entropy falls) as alpha shrinks, averaged over seeds
        data = blobs(10, 2, 200, 2.0, seed=2)
        by_alpha = []
        for alpha in (10.0, 1.0, 0.1, 0.01):
            values = [
                partition_summary(partition_dirichlet(data, 20, alpha, s))["mean_label_entropy"]
                for s in range(5)
            ]
            by_alpha.append(np.mean(values))
        assert all(a >= b for a, b in zip(by_alpha, by_alpha[1:]))

    def test_degenerate_draw_raises(self):
        # numpy's dirichlet returns all-zero proportions here, which would
        # send every row to the last client
        data = blobs(3, 2, 20, 2.0, seed=0)
        with pytest.raises(NumericError, match="alpha=1e\\+308"):
            partition_dirichlet(data, 2, 1e308, 0)

    def test_deterministic(self):
        data = blobs(4, 2, 50, 2.0, seed=2)
        a = partition_dirichlet(data, 6, 0.3, 4)
        b = partition_dirichlet(data, 6, 0.3, 4)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)


class TestSplit:
    def shard(self, n, seed=0):
        data = blobs(2, 2, (n + 1) // 2, 2.0, seed=seed)
        return data.take(np.arange(n))

    def test_sizes_at_train_04(self):
        bundle = split_train_val_test(self.shard(100), seed=1, train_fraction=0.4)
        assert (len(bundle.train), len(bundle.val), len(bundle.test)) == (40, 10, 50)

    def test_sizes_at_train_01_fold_leftover_into_test(self):
        bundle = split_train_val_test(self.shard(100), seed=1, train_fraction=0.1)
        assert (len(bundle.train), len(bundle.val), len(bundle.test)) == (10, 10, 80)

    def test_tiny_shard_marks_inactive(self):
        for n in (0, 2):
            bundle = split_train_val_test(self.shard(n), seed=1, train_fraction=0.4)
            assert not bundle.active
            assert len(bundle.train) + len(bundle.val) + len(bundle.test) == n

    def test_splits_disjoint_and_within_shard(self):
        shard = self.shard(57, seed=3)
        bundle = split_train_val_test(shard, seed=9, train_fraction=0.3)
        pieces = np.vstack(
            [bundle.train.inputs, bundle.val.inputs, bundle.test.inputs]
        )
        # continuous features: row collisions have probability zero
        assert len(np.unique(pieces, axis=0)) == len(pieces)
        shard_rows = {tuple(r) for r in shard.inputs}
        assert all(tuple(r) in shard_rows for r in pieces)

    def test_data_fractions_sum_to_one(self):
        bundles = [
            split_train_val_test(self.shard(n, seed=n), seed=n, train_fraction=f)
            for n, f in ((30, 0.1), (60, 0.3), (90, 0.4), (120, 0.1))
        ]
        bundles.append(split_train_val_test(self.shard(2), seed=0, train_fraction=0.4))  # inactive
        bundles = assign_data_fractions(bundles)
        total = sum(b.p_k for b in bundles if b.active)
        assert abs(total - 1.0) <= 1e-12
        assert all(b.p_k == 0.0 for b in bundles if not b.active)


class TestPublicPool:
    def test_full_draw_is_permutation(self):
        source = blobs(3, 2, 10, 2.0, seed=0)
        pool = draw_public_pool(source, len(source), seed=5)
        assert np.array_equal(
            np.sort(pool, axis=0), np.sort(source.inputs, axis=0)
        )
        assert not np.array_equal(pool, source.inputs)

    def test_requested_size(self):
        source = blobs(10, 4, 1000, 2.0, seed=0)
        pool = draw_public_pool(source, 2000, seed=5)
        assert len(pool) == 2000

    def test_same_seed_identical(self):
        source = blobs(3, 2, 50, 2.0, seed=0)
        a = draw_public_pool(source, 40, seed=3)
        b = draw_public_pool(source, 40, seed=3)
        assert np.array_equal(a, b)


class TestMinibatch:
    def test_full_batch_is_permutation(self):
        data = blobs(2, 2, 8, 2.0, seed=0)
        idx = minibatch(data, len(data), substream(0))
        assert np.array_equal(np.sort(idx), np.arange(len(data)))

    def test_single_draw(self):
        data = blobs(2, 2, 8, 2.0, seed=0)
        idx = minibatch(data, 1, substream(1))
        assert idx.shape == (1,)
        assert 0 <= idx[0] < len(data)

    def test_oversized_batch_uses_replacement(self):
        data = blobs(2, 2, 3, 2.0, seed=0)
        idx = minibatch(data, 20, substream(2))
        assert idx.shape == (20,)
        assert idx.max() < len(data)

    def test_inclusion_frequency_uniform(self):
        # each index appears with frequency batch/n across many draws
        data = blobs(2, 2, 10, 2.0, seed=0)
        n, batch, trials = len(data), 5, 10_000
        rng = substream(7)
        counts = np.zeros(n)
        for _ in range(trials):
            counts[minibatch(data, batch, rng)] += 1
        p = batch / n
        sigma = np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= 3 * sigma)


class TestMedian:
    def test_matches_np_median_bitwise(self):
        # gradient norms and label entropies (-0.0 for one-class shards):
        # ties, +-0.0, +inf and NaN at every length, as arrays and lists
        rng = substream(219)
        for n in range(1, 41):
            for case in range(30):
                values = rng.choice([0.0, -0.0, 0.5, 2.0, np.inf, np.nan], size=n)
                if case % 3 == 1:
                    values = rng.exponential(size=n)
                    values[rng.integers(n)] = [0.0, np.inf, np.nan][case // 3 % 3]
                elif case % 3 == 2:
                    values = np.where(rng.random(n) < 0.5, -0.0, rng.exponential(size=n))
                want = np.median(values)
                for got in (fedckt.data._median(values), fedckt.data._median(values.tolist())):
                    assert np.float64(got).tobytes() == want.tobytes() or (
                        np.isnan(got) and np.isnan(want)
                    ), (values, got, want)


class TestSerialization:
    def test_partition_summary_json(self):
        data = blobs(4, 2, 100, 2.0, seed=0)
        shards = partition_dirichlet(data, 7, 0.1, 1)
        summary = partition_summary(shards)
        parsed = json.loads(json.dumps(summary))
        assert parsed["num_clients"] == 7
        assert len(parsed["clients"]) == 7
        assert sum(c["size"] for c in parsed["clients"]) == len(data)


def test_label_entropy_limits():
    balanced = blobs(4, 2, 25, 2.0, seed=0)
    assert abs(label_entropy(balanced) - np.log(4)) < 1e-12
    single = balanced.take(np.flatnonzero(balanced.labels == 0))
    assert label_entropy(single) == 0.0

"""Synthetic datasets, non-IID Dirichlet partitioning, per-client splits,
and the shared unlabeled public pool.

Everything here is a pure function of (inputs, seed); no global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericError
from .rng import substream

TRAIN_FRACTIONS = (0.1, 0.3, 0.4)  # per-client train share, drawn uniformly
VAL_TENTHS = 1  # validation share, in tenths
TEST_TENTHS = 5  # test share, in tenths


@dataclass(frozen=True)
class RawDataset:
    """Feature rows with integer labels in [0, num_classes)."""

    inputs: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "RawDataset":
        return RawDataset(self.inputs[idx], self.labels[idx], self.num_classes)


@dataclass(frozen=True)
class ClientDataBundle:
    """One client's train/val/test splits.

    p_k is the client's share of the total active training data; it is
    assigned across clients by assign_data_fractions, not per split.
    Clients whose shard is too small for non-empty splits are inactive and
    excluded from the p_k normalization.
    """

    train: RawDataset
    val: RawDataset
    test: RawDataset
    p_k: float = 0.0
    active: bool = True


def class_means(num_classes: int, dim: int, separation: float, seed: int) -> np.ndarray:
    """One Gaussian-blob mean per class, sampled on a sphere of radius `separation`."""
    rng = substream(seed, "class-means")
    directions = rng.normal(size=(num_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return separation * directions


def sample_blobs(
    means: np.ndarray,
    samples_per_class: int,
    num_classes: int,
    seed: int,
    tag: str = "blob-samples",
) -> RawDataset:
    """Balanced unit-covariance blobs around the given per-class means."""
    rng = substream(seed, tag)
    dim = means.shape[1]
    labels = np.repeat(np.arange(means.shape[0], dtype=np.int64), samples_per_class)
    inputs = means[labels] + rng.normal(size=(labels.size, dim))
    return RawDataset(inputs, labels, num_classes)


def partition_dirichlet(
    data: RawDataset, num_clients: int, alpha: float, seed: int
) -> list[RawDataset]:
    """Split each class across `num_clients` clients by a Dir_K(alpha) draw.

    The multiset union of the returned shards equals the input exactly;
    empty shards are legal and must be handled downstream. A draw that is
    not finite or does not sum to 1 (numpy returns all zeros near the
    largest float alpha) raises NumericError.
    """
    rng = substream(seed, "dirichlet-partition")
    k = num_clients
    per_client: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in range(data.num_classes):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size == 0:
            continue
        idx = rng.permutation(idx)
        proportions = rng.dirichlet(np.full(k, alpha))
        if not (np.isfinite(proportions).all() and abs(proportions.sum() - 1.0) <= 1e-9):
            raise NumericError(f"degenerate Dirichlet draw at alpha={alpha!r}")
        # integer cut points conserve the class count exactly
        cuts = np.floor(np.cumsum(proportions) * idx.size).astype(np.int64)[:-1]
        for client, chunk in enumerate(np.split(idx, cuts)):
            per_client[client].append(chunk)
    return [data.take(np.concatenate(chunks)) for chunks in per_client]


def split_train_val_test(
    shard: RawDataset, seed: int, train_fraction: float
) -> ClientDataBundle:
    """Split a shard into train/val/test with a {0.1,0.3,0.4}/0.1/0.5 ratio.

    Sizes use floor rounding in exact integer tenths; the leftover (the
    discarded share when train < 0.4) is folded into the test split. A shard
    too small for three non-empty splits, an empty one included, yields an
    inactive bundle.
    """
    n = len(shard)
    train_tenths = round(train_fraction * 10)
    n_train = (train_tenths * n) // 10
    n_val = (VAL_TENTHS * n) // 10
    n_test = (TEST_TENTHS * n) // 10
    leftover = n - n_train - n_val - n_test
    n_test += leftover
    active = n_train >= 1 and n_val >= 1 and n_test >= 1
    order = substream(seed, "split").permutation(n)
    train = shard.take(order[:n_train])
    val = shard.take(order[n_train : n_train + n_val])
    test = shard.take(order[n_train + n_val : n_train + n_val + n_test])
    return ClientDataBundle(train=train, val=val, test=test, active=active)


def assign_data_fractions(bundles: list[ClientDataBundle]) -> list[ClientDataBundle]:
    """Set p_k = train size / total train size over active clients."""
    total = sum(len(b.train) for b in bundles if b.active)
    if total == 0:
        raise ConfigurationError("[data] no active client holds training data")
    return [
        replace(b, p_k=(len(b.train) / total if b.active else 0.0)) for b in bundles
    ]


def draw_public_pool(source: RawDataset, size: int, seed: int) -> np.ndarray:
    """The (size, d) unlabeled pool: a uniform sample of the source's inputs
    without replacement."""
    rng = substream(seed, "public-pool")
    idx = rng.choice(len(source), size=size, replace=False)
    return source.inputs[idx]


def minibatch(data, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform mini-batch indices: without replacement when batch <= n,
    with replacement otherwise."""
    n = len(data)
    return rng.choice(n, size=batch, replace=batch > n)


def label_histogram(data: RawDataset) -> np.ndarray:
    return np.bincount(data.labels, minlength=data.num_classes)


def label_entropy(data: RawDataset) -> float:
    """Empirical label entropy of a shard, in nats (0.0 for empty shards)."""
    counts = label_histogram(data)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def partition_summary(shards: list[RawDataset]) -> dict:
    """Per-client label histograms plus imbalance metrics, JSON-ready."""
    sizes = np.array([len(s) for s in shards], dtype=np.int64)
    populated = sizes[sizes > 0]
    entropies = [label_entropy(s) for s in shards]
    filled = [e for e, size in zip(entropies, sizes) if size > 0]
    return {
        "num_clients": len(shards),
        "clients": [
            {
                "client": i,
                "size": int(len(s)),
                "histogram": [int(c) for c in label_histogram(s)],
                "entropy_nats": entropy,
            }
            for i, (s, entropy) in enumerate(zip(shards, entropies))
        ],
        "max_min_shard_ratio": (
            float(populated.max() / populated.min()) if populated.size else math.nan
        ),
        "mean_label_entropy": float(np.mean(filled)) if filled else 0.0,
        "median_label_entropy": float(np.median(filled)) if filled else 0.0,
        "empty_shards": int((sizes == 0).sum()),
    }

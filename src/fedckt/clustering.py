"""Lloyd's c-means over flattened client logit matrices, with k-means++
seeding and deterministic tie-breaking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import substream

LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-8


@dataclass(frozen=True)
class CentroidSet:
    centroids: np.ndarray  # (c, L)
    member_counts: tuple[int, ...]
    objective_trace: tuple[float, ...] = ()  # per-iteration Lloyd objective


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(m, c) squared euclidean distances via the expanded form."""
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d2 = p2 + c2 - 2.0 * points @ centroids.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    m = points.shape[0]
    chosen = [int(rng.integers(m))]
    d2 = _sq_dists(points, points[chosen[-1]][None, :])[:, 0]
    for _ in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            nxt = int(rng.integers(m))  # all points coincide with a centroid
        else:
            nxt = int(rng.choice(m, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, _sq_dists(points, points[nxt][None, :])[:, 0])
    return points[chosen].copy()


def cmeans_fit(points: np.ndarray, c: int, seed: int = 0) -> tuple[CentroidSet, np.ndarray]:
    """Lloyd's iterations from k-means++ seeding over the (m, L) stack of
    flattened client logit rows; returns the centroids and each row's
    cluster index (int64, in row order).

    Stops when the largest centroid shift is <= LLOYD_TOL or after
    LLOYD_MAX_ITERS iterations.
    Empty clusters are repaired by reassigning the point farthest from its
    own centroid (drawn from a cluster with at least two members), which
    keeps the objective non-increasing across iterations.
    """
    m = len(points)
    rng = substream(seed, "cmeans")
    centroids = _kmeanspp_init(points, c, rng)

    assign = np.zeros(m, dtype=np.int64)
    trace: list[float] = []
    for _ in range(LLOYD_MAX_ITERS):
        d2 = _sq_dists(points, centroids)
        assign = d2.argmin(axis=1)  # ties resolve to the lowest index
        counts = np.bincount(assign, minlength=c)
        for j in np.flatnonzero(counts == 0):
            own = d2[np.arange(m), assign]
            donors = counts[assign] >= 2
            candidates = np.flatnonzero(donors)
            far = candidates[np.argmax(own[candidates])]
            counts[assign[far]] -= 1
            assign[far] = j
            counts[j] += 1
        new_centroids = np.empty_like(centroids)
        for j in range(c):
            new_centroids[j] = points[assign == j].mean(axis=0)
        move = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        trace.append(float(_objective(points, centroids, assign)))
        if move <= LLOYD_TOL:
            break

    counts = np.bincount(assign, minlength=c)
    centroid_set = CentroidSet(
        centroids=centroids,
        member_counts=tuple(int(x) for x in counts),
        objective_trace=tuple(trace),
    )
    return centroid_set, assign


def assign_nearest(logit_vec: np.ndarray, centroids: CentroidSet) -> int:
    """Index of the centroid l2-nearest the flat (L,) logit row; ties break
    to the lowest index."""
    d2 = _sq_dists(logit_vec[None, :], centroids.centroids)[0]
    return int(d2.argmin())


def _objective(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diffs = points - centroids[assign]
    return float(np.einsum("ij,ij->", diffs, diffs))


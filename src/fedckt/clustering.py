"""Lloyd's c-means over flattened client logit matrices, with k-means++
seeding and deterministic tie-breaking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import substream

LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-8
# numpy's einsum("ij,ij->") over a C-contiguous array adds the products of
# one block of this many entries of its ravel at a time, then that block's
# sum to a total from 0.0, whatever np.setbufsize says
# (tests/test_numpy_facts.py pins it); _objective streams blocks this long
EINSUM_BLOCK = 8192


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """(m,) squared l2 norm of each row."""
    return np.einsum("ij,ij->i", rows, rows)


@dataclass(frozen=True)
class CentroidSet:
    centroids: np.ndarray  # (c, L)
    objective_trace: tuple[float, ...] = ()  # per-iteration Lloyd objective
    # (c,) squared centroid norms, computed once for every assign_nearest
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "norms", _sq_norms(self.centroids))


def _sq_dists(
    points: np.ndarray, p2: np.ndarray, centroids: np.ndarray, c2: np.ndarray
) -> np.ndarray:
    """(m, c) squared euclidean distances via the expanded form, from the
    (m,) point and (c,) centroid squared norms.

    The factor 2 goes on whichever operand has fewer rows, so no (m, L)
    copy of a wide stack is made. Doubling a float is exact unless it
    overflows, so (2a)*b and a*(2b) are the same real number and round
    the same, subnormal products included, and so does every sum of them:
    points @ (2 * centroids).T equals (2 * points) @ centroids.T bit for
    bit while no entry exceeds half the largest float."""
    if len(points) <= len(centroids):
        cross = (2.0 * points) @ centroids.T
    else:
        cross = points @ (2.0 * centroids).T
    d2 = p2[:, None] + c2[None, :] - cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(
    points: np.ndarray, p2: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    m = points.shape[0]
    chosen = [int(rng.integers(m))]
    pick = points[chosen[-1]][None, :]
    d2 = _sq_dists(points, p2, pick, _sq_norms(pick))[:, 0]
    for _ in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            nxt = int(rng.integers(m))  # all points coincide with a centroid
        else:
            nxt = int(rng.choice(m, p=d2 / total))
        chosen.append(nxt)
        pick = points[nxt][None, :]
        d2 = np.minimum(d2, _sq_dists(points, p2, pick, _sq_norms(pick))[:, 0])
    return points[chosen]  # list indexing copies


def cmeans_fit(points: np.ndarray, c: int, seed: int) -> tuple[CentroidSet, np.ndarray]:
    """Lloyd's iterations from k-means++ seeding over the (m, L) stack of
    flattened client logit rows; returns the centroids and each row's
    cluster index (int64, in row order).

    Stops when the largest centroid shift is <= LLOYD_TOL or after
    LLOYD_MAX_ITERS iterations.
    Empty clusters are repaired by reassigning the point farthest from its
    own centroid (drawn from a cluster with at least two members), which
    keeps the objective non-increasing across iterations. The returned
    arrays share no memory with `points`, which the caller may overwrite.
    Besides `points` a fit holds (c, L) and (m, c) arrays and one
    EINSUM_BLOCK buffer: no (m, L) array.
    """
    m = len(points)
    rng = substream(seed, "cmeans")
    # the point norms once per fit; _sq_dists doubles the operand with
    # fewer rows, so while c < m no pass copies the stack
    p2 = _sq_norms(points)
    centroids = _kmeanspp_init(points, p2, c, rng)

    assign = np.zeros(m, dtype=np.int64)
    trace: list[float] = []
    for _ in range(LLOYD_MAX_ITERS):
        d2 = _sq_dists(points, p2, centroids, _sq_norms(centroids))
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
        # .mean(axis=0) without copying rows: from zeros, in row order (L >= 2;
        # numpy sums a lone column pairwise), then one division by the count
        new_centroids = np.zeros_like(centroids)
        for i, j in enumerate(assign.tolist()):
            new_centroids[j] += points[i]
        new_centroids /= counts[:, None]
        # the shift in the outgoing centroids' buffer (k-means++'s copy or
        # the last pass's update, both dead here); x * x is numpy's square
        np.subtract(new_centroids, centroids, out=centroids)
        centroids *= centroids
        move = float(np.sqrt(centroids.sum(axis=1)).max())
        centroids = new_centroids
        trace.append(float(_objective(points, centroids, assign)))
        if move <= LLOYD_TOL:
            break

    return CentroidSet(centroids=centroids, objective_trace=tuple(trace)), assign


def assign_nearest(logit_vec: np.ndarray, centroids: CentroidSet) -> int:
    """Index of the centroid l2-nearest the flat (L,) logit row; ties break
    to the lowest index."""
    row = logit_vec[None, :]
    d2 = _sq_dists(row, _sq_norms(row), centroids.centroids, centroids.norms)[0]
    return int(d2.argmin())


def _objective(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    """sum((points - centroids[assign]) ** 2) as the one einsum over the
    (m, L) differences sums it, bit for bit, without forming them: each
    EINSUM_BLOCK-entry block of their ravel is written into one reusable
    buffer (the rest of a row, whole rows against a gather of at most a
    block, the start of a row) and summed by its own einsum, and the block
    sums are added in order to a total from 0.0."""
    m, width = points.shape
    size = m * width
    if size <= EINSUM_BLOCK:  # one block: the gathered rows are the buffer
        diffs = centroids[assign]
        np.subtract(points, diffs, out=diffs)
        return float(np.einsum("ij,ij->", diffs, diffs))
    buf = np.empty(EINSUM_BLOCK)
    total = 0.0
    for start in range(0, size, EINSUM_BLOCK):
        block = buf[: min(EINSUM_BLOCK, size - start)]
        row, col = divmod(start, width)
        head = min(width - col, len(block)) if col else 0
        rows = (len(block) - head) // width
        tail = len(block) - head - rows * width
        if head:
            own = centroids[assign[row]]
            np.subtract(points[row, col : col + head], own[col : col + head], out=block[:head])
            row += 1
        if rows:
            whole = block[head : head + rows * width].reshape(rows, width)
            np.subtract(points[row : row + rows], centroids[assign[row : row + rows]], out=whole)
            row += rows
        if tail:
            own = centroids[assign[row]]
            np.subtract(points[row, :tail], own[:tail], out=block[len(block) - tail :])
        total += np.einsum("i,i->", block, block)
    return float(total)

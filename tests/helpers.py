"""Shared independent oracles for the test suite: finite differences,
exhaustive scans, brute-force Gaussian conditioning, and out-of-place
copies of the model kernels, of k-means and of client sampling, which the
package's kernels must match bitwise. These stay deliberately naive and
separate from the implementation paths they check. Also the Gaussian-blob
data the tests train on, and a reader for the checkpoint files the package
writes but does not read."""

import itertools
import json
import struct
from pathlib import Path

import numpy as np

from fedckt.clustering import LLOYD_MAX_ITERS, LLOYD_TOL
from fedckt.data import class_means, sample_blobs
from fedckt.rng import substream


def blobs(num_classes, dim, samples_per_class, class_separation, seed):
    """Balanced blobs around class means drawn from the same seed."""
    means = class_means(num_classes, dim, class_separation, seed)
    return sample_blobs(means, samples_per_class, num_classes, seed)


def finite_difference_gradient(func, params, h=1e-5):
    """Central differences, one coordinate at a time."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (func(up) - func(dn)) / (2.0 * h)
    return grad


def max_relative_error(analytic, reference, floor=1e-8):
    """Componentwise relative error over components whose magnitude exceeds
    the floor on either side."""
    analytic = np.asarray(analytic)
    reference = np.asarray(reference)
    scale = np.maximum(np.abs(analytic), np.abs(reference))
    mask = scale > floor
    if not mask.any():
        return 0.0
    return float((np.abs(analytic - reference)[mask] / scale[mask]).max())


def reference_softmax(scores):
    """Row-wise max-shifted softmax, every step out of place."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _reference_scores(spec, params, inputs):
    """Class scores and hidden activations (None for softmax_linear)."""
    d, n, h = spec.dim, spec.num_classes, spec.hidden
    if spec.arch == "softmax_linear":
        return inputs @ params[: d * n].reshape(d, n) + params[d * n :], None
    w1 = params[: d * h].reshape(d, h)
    b1 = params[d * h : d * h + h]
    w2 = params[d * h + h : d * h + h + h * n].reshape(h, n)
    b2 = params[d * h + h + h * n :]
    hidden = np.tanh(inputs @ w1 + b1)
    return hidden @ w2 + b2, hidden


def _reference_backprop(spec, params, inputs, hidden, score_grad):
    if spec.arch == "softmax_linear":
        return np.concatenate([(inputs.T @ score_grad).ravel(), score_grad.sum(axis=0)])
    d, n, h = spec.dim, spec.num_classes, spec.hidden
    w2 = params[d * h + h : d * h + h + h * n].reshape(h, n)
    d_hidden = (score_grad @ w2.T) * (1.0 - hidden * hidden)
    return np.concatenate(
        [
            (inputs.T @ d_hidden).ravel(),
            d_hidden.sum(axis=0),
            (hidden.T @ score_grad).ravel(),
            score_grad.sum(axis=0),
        ]
    )


def reference_forward_logits(spec, params, inputs):
    return reference_softmax(_reference_scores(spec, params, inputs)[0])


def reference_grad_local(spec, params, inputs, targets):
    """Mean cross-entropy gradient through an explicit one-hot matrix."""
    scores, hidden = _reference_scores(spec, params, inputs)
    probs = reference_softmax(scores)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(targets)), targets.astype(np.int64)] = 1.0
    score_grad = (probs - onehot) / len(targets)
    return _reference_backprop(spec, params, inputs, hidden, score_grad)


def reference_grad_phi(spec, params, inputs, targets, public_inputs, sbar_rows, lam):
    grad = reference_grad_local(spec, params, inputs, targets)
    if lam > 0:
        scores, hidden = _reference_scores(spec, params, public_inputs)
        probs = reference_softmax(scores)
        diff = probs - sbar_rows
        inner = (probs * diff).sum(axis=1, keepdims=True)
        scale = 2.0 * lam / len(public_inputs)
        score_grad = scale * probs * (diff - inner)
        grad = grad + _reference_backprop(spec, params, public_inputs, hidden, score_grad)
    return grad


def brute_force_two_clusters(points):
    """Optimal 2-clustering by exhaustive partition enumeration.

    Returns (best objective, frozenset of frozensets of point indices).
    """
    n = len(points)
    best = (np.inf, None)
    for bits in range(1, 2 ** (n - 1)):  # fix point 0 in cluster 0
        left = [i for i in range(n) if not (bits >> i) & 1]
        right = [i for i in range(n) if (bits >> i) & 1]
        if not left or not right:
            continue
        obj = 0.0
        for group in (left, right):
            arr = points[group]
            center = arr.mean(axis=0)
            obj += ((arr - center) ** 2).sum()
        if obj < best[0]:
            best = (obj, frozenset({frozenset(left), frozenset(right)}))
    return best


def _reference_sq_dists(points, centroids):
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d2 = p2 + c2 - 2.0 * points @ centroids.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def reference_cmeans_fit(points, c, seed=0):
    """k-means++ seeding and Lloyd's iterations written plainly, every
    squared norm recomputed at each use: the bitwise reference for
    clustering.cmeans_fit. Returns the centroids, the assignment and the
    objective trace."""
    m = len(points)
    rng = substream(seed, "cmeans")
    chosen = [int(rng.integers(m))]
    d2 = _reference_sq_dists(points, points[chosen[-1]][None, :])[:, 0]
    for _ in range(1, c):
        total = d2.sum()
        if total <= 0.0:
            nxt = int(rng.integers(m))
        else:
            nxt = int(rng.choice(m, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, _reference_sq_dists(points, points[nxt][None, :])[:, 0])
    centroids = points[chosen].copy()

    assign = np.zeros(m, dtype=np.int64)
    trace = []
    for _ in range(LLOYD_MAX_ITERS):
        d2 = _reference_sq_dists(points, centroids)
        assign = d2.argmin(axis=1)
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
        diffs = points - centroids[assign]
        trace.append(float(np.einsum("ij,ij->", diffs, diffs)))
        if move <= LLOYD_TOL:
            break
    return centroids, assign, tuple(trace)


def reference_assign_nearest(vec, centroids):
    """clustering.assign_nearest with the centroid norms recomputed."""
    return int(_reference_sq_dists(vec[None, :], centroids)[0].argmin())


def reference_sample_clients(weights, m, rng):
    """federation.sample_clients through rng.choice with p=, which validates
    p and then draws from the same cdf: the bitwise reference."""
    weights = np.asarray(weights, dtype=np.float64).copy()
    chosen = []
    for _ in range(m):
        pick = int(rng.choice(weights.size, p=weights / weights.sum()))
        chosen.append(pick)
        weights[pick] = 0.0
    return chosen


def exhaustive_nearest(vec, centroids):
    dists = [float(((vec - c) ** 2).sum()) for c in centroids]
    return int(np.argmin(dists))


def posterior_mean_brute_force(sigma, beta, upsilon, what, k, prior_var=1e10):
    """E[w_k | all least-squares estimates] by joint-Gaussian conditioning
    with a wide proper prior on the shared parameter (flat-prior limit).

    Operates per coordinate (the model is isotropic); `what` is (K, d).
    Returns the (d,) conditional mean and the scalar conditional variance.
    """
    K = what.shape[0]
    s2 = sigma**2
    noise = s2 / beta
    cov = np.full((K + 1, K + 1), prior_var)
    cov[0, 0] += upsilon[k] ** 2
    for i in range(K):
        if i == k:
            cov[0, 1 + i] += upsilon[k] ** 2
            cov[1 + i, 0] += upsilon[k] ** 2
        cov[1 + i, 1 + i] += upsilon[i] ** 2 + noise
    coef = np.linalg.solve(cov[1:, 1:], cov[0, 1:])
    var = cov[0, 0] - cov[0, 1:] @ coef
    return coef @ what, float(var)


def all_simplex_vertices(num_weights):
    return [
        np.array(v, dtype=float)
        for v in itertools.permutations([1.0] + [0.0] * (num_weights - 1))
    ]


def read_params(path):
    """(arch tag, values) from a parameter file laid out as the magic
    b"FKPV", a u32 arch tag, a u64 value count, then little-endian f64
    values; the file must hold exactly that many values."""
    blob = Path(path).read_bytes()
    assert blob[:4] == b"FKPV", f"{path}: not a parameter file"
    tag, count = struct.unpack("<IQ", blob[4:16])
    assert len(blob) == 16 + 8 * count, f"{path}: length does not match its header"
    return tag, np.frombuffer(blob[16:], dtype="<f8").astype(np.float64)


def read_checkpoints(directory):
    """Client id -> parameter vector for a checkpoint directory; each file's
    value count must match its manifest entry."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    params = {}
    for entry in manifest["clients"]:
        _, values = read_params(directory / entry["file"])
        assert values.size == entry["param_count"], f"{entry['file']}: length does not match manifest"
        params[entry["id"]] = values
    return params

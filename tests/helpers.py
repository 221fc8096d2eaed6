"""Shared independent oracles for the test suite: finite differences,
exhaustive scans, and brute-force Gaussian conditioning. These stay
deliberately naive and separate from the implementation paths they check.
Also the Gaussian-blob data the tests train on, and a reader for the
checkpoint files the package writes but does not read."""

import itertools
import json
import struct
from pathlib import Path

import numpy as np

from fedckt.data import class_means, sample_blobs


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

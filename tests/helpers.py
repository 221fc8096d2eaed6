"""Shared independent oracles for the test suite: finite differences,
exhaustive scans, brute-force Gaussian conditioning, and out-of-place
copies of the model kernels, of k-means and of client sampling, which the
package's kernels must match bitwise. These stay deliberately naive and
separate from the implementation paths they check. Also the Gaussian-blob
data the tests train on, a reader for the checkpoint files the package
writes but does not read, the name of the numpy build, and the padded-stack
products and stacked oracle pulls test_numpy_facts checks in fresh
interpreters, and the traced peak memory of a call."""

import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np

from fedckt.clustering import LLOYD_MAX_ITERS, LLOYD_TOL, OBJECTIVE_CHUNK
from fedckt.data import class_means, sample_blobs
from fedckt.models import _column_sums
from fedckt.rng import substream
from fedckt.theory import simplex_grid


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
        trace.append(reference_objective(points, centroids, assign))
        if move <= LLOYD_TOL:
            break
    return centroids, assign, tuple(trace)


def reference_objective(points, centroids, assign):
    """The Lloyd objective from the gathered (m, L) differences: one einsum
    per chunk of max(1, OBJECTIVE_CHUNK // L) whole rows, added in row
    order from 0.0. The bitwise reference for clustering._objective."""
    diffs = points - centroids[assign]
    rows = max(1, OBJECTIVE_CHUNK // diffs.shape[1])
    total = 0.0
    for start in range(0, len(diffs), rows):
        chunk = diffs[start : start + rows]
        total += np.einsum("ij,ij->", chunk, chunk)
    return float(total)


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


def build():
    """numpy's version and the BLAS it was built with: the build a bitwise
    fact or a recorded digest holds on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def padded_stack_mismatches(k, m, client_rows):
    """{"forward": [...], "transposed": [...]}: the row counts n, among
    `client_rows`, of the clients whose rows of the zero-padded stacked
    forward (G, n_max, k) @ (G, k, m), or whose zero-padded X.T @ G, differ
    from the unpadded per-client product in any of three draws. The rows
    are padded to the largest count plus 7. test_numpy_facts runs this in
    fresh interpreters, one per BLAS thread count."""
    found = {"forward": set(), "transposed": set()}
    n_max = max(client_rows) + 7
    for seed in range(3):
        rng = substream(seed, "numpy-facts", "padded", k, m)
        x = np.zeros((len(client_rows), n_max, k))
        grad = np.zeros((len(client_rows), n_max, m))
        weights = rng.normal(size=(len(client_rows), k, m))
        for g, n in enumerate(client_rows):
            x[g, :n] = rng.normal(size=(n, k))
            grad[g, :n] = rng.normal(size=(n, m))
        forward = np.matmul(x, weights)
        transposed = np.matmul(x.transpose(0, 2, 1), grad)
        for g, n in enumerate(client_rows):
            rows, g_rows = x[g, :n].copy(), grad[g, :n].copy()
            if forward[g, :n].tobytes() != (rows @ weights[g]).tobytes():
                found["forward"].add(n)
            if transposed[g].tobytes() != (rows.T @ g_rows).tobytes():
                found["transposed"].add(n)
    return {kind: sorted(ns) for kind, ns in found.items()}


def column_sum_mismatches(widths, rows=64):
    """The widths N, among `widths`, at which models._column_sums over the
    C-ordered transpose of a random (rows, N) block differs in any byte
    from np.add.reduce over its rows. Magnitudes span about 40 decades, and
    six rows are special: all -0.0; +0.0 and -0.0 alternating; one +inf;
    one -inf; +inf and -inf (a NaN); one NaN. Each row holds at most one
    NaN source, so its sum's NaN is that source's: two NaNs of opposite
    sign meet in an order numpy's C loop leaves to the compiler.
    test_numpy_facts runs this in fresh interpreters, one per BLAS thread
    count."""
    found = []
    for n in widths:
        rng = substream(0, "numpy-facts", "column-sum", n)
        block = rng.normal(size=(rows, n)) * np.exp(rng.normal(0.0, 8.0, size=(rows, n)))
        block[0] = -0.0
        block[1] = np.where(np.arange(n) % 2, -0.0, 0.0)
        block[2, n // 2] = np.inf
        block[3, n - 1] = -np.inf
        block[4, [0, n - 1]] = [np.inf, -np.inf]
        block[5, n // 3] = np.nan
        with np.errstate(invalid="ignore"):
            want = np.add.reduce(block, axis=1)
            got = _column_sums(block.T.copy())
        if got.tobytes() != want.tobytes():
            found.append(n)
    return found


def stacked_pull_mismatches(shapes, seeds=3):
    """{"KxdxR": {"stacked": n, "gemm": n}} for each (K, d, R) of `shapes`:
    of `seeds` draws of the (K, d) estimates W and a Gram matrix ptp = P'P
    over the alpha grid simplex_grid(K, R), how many give (A, d) pulls from
    the two stacked matmuls of theory.grid_search_oracle that differ from
    the per-row ptp @ (alpha @ W), and how many give a plain gemm
    alpha_grid @ W that differs from the per-row alpha @ W.
    test_numpy_facts runs this in fresh interpreters, one per BLAS thread
    count."""
    report = {}
    for num_clients, dim, resolution in shapes:
        alpha_grid = simplex_grid(num_clients, resolution)
        found = {"stacked": 0, "gemm": 0}
        for seed in range(seeds):
            rng = substream(seed, "numpy-facts", "pull", num_clients, dim, resolution)
            what_all = rng.normal(scale=3.0, size=(num_clients, dim))
            public = rng.normal(size=(dim, dim))
            ptp = public.T @ public
            rows = [alpha @ what_all for alpha in alpha_grid]
            mixed = np.matmul(alpha_grid[:, None, :], what_all)
            pulled = np.matmul(ptp, mixed[:, 0, :, None])[:, :, 0]
            per_row = np.stack([ptp @ row for row in rows])
            found["stacked"] += pulled.tobytes() != per_row.tobytes()
            found["gemm"] += (alpha_grid @ what_all).tobytes() != np.stack(rows).tobytes()
        report[f"{num_clients}x{dim}x{resolution}"] = found
    return report


def solved_into(solution, out):
    """What a stand-in solver returns: `solution` as it is, or written into
    `out` when the caller passes one, as theory.ridge_codistill_solve and
    the solve1 gufunc do."""
    if out is None:
        return solution
    out[...] = solution
    return out


def traced_peak(fn, *args, **kwargs):
    """The peak of tracemalloc's traced memory, in bytes, while fn(*args,
    **kwargs) runs; allocations made before the call are not counted."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

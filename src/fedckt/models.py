"""Per-client predictors, the co-distillation objective, and its exact
stochastic gradient via hand-derived backpropagation.

Two classifier architectures, trained with cross-entropy, share one
flat-parameter interface and one output layer; softmax_linear is that layer
alone, and the MLP puts a tanh hidden layer in front of it:

  softmax_linear(d, N)     softmax(X @ W + b)
  mlp(d, h, N)             softmax(tanh(X @ W1 + b1) @ W + b)

The tanh keeps every classifier smooth, as the convergence monitor needs.
Outputs ("logits" throughout the package) are probability rows on the simplex.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .rng import substream

ARCH_SOFTMAX = "softmax_linear"
ARCH_MLP = "mlp"

_ARCH_TAGS = {ARCH_SOFTMAX: 2, ARCH_MLP: 3}  # checkpoint header tags; 1 is not reused
_PARAM_MAGIC = b"FKPV"


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    dim: int
    num_classes: int
    hidden: int = 0
    init_scale: float = 0.1


def param_count(spec: ModelSpec) -> int:
    d, n, h = spec.dim, spec.num_classes, spec.hidden
    if spec.arch == ARCH_SOFTMAX:
        return d * n + n
    return d * h + h + h * n + n


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Weights ~ Uniform(-init_scale, init_scale) in layout order, biases zero."""
    rng = substream(seed, "param-init")
    s = spec.init_scale
    params = np.zeros(param_count(spec))
    hidden_layer, w, _ = _unpack(spec, params)
    if hidden_layer is not None:
        hidden_layer[0][...] = rng.uniform(-s, s, hidden_layer[0].shape)
    w[...] = rng.uniform(-s, s, w.shape)
    return params


def _unpack(spec: ModelSpec, params: np.ndarray):
    """Views of params laid out [W1, b1,] W, b: the MLP's hidden layer (W1, b1)
    or None, then the output layer w, b every architecture ends with."""
    d, n, h = spec.dim, spec.num_classes, spec.hidden
    if spec.arch == ARCH_SOFTMAX:
        hidden_layer, at, width = None, 0, d
    else:
        at, width = d * h + h, h
        hidden_layer = params[: d * h].reshape(d, h), params[d * h : at]
    end = at + width * n
    return hidden_layer, params[at:end].reshape(width, n), params[end:]


# a (rows, N) block at least this many rows per class is "tall": its row
# sums are cheaper as N - 1 column adds over the transposed copy than as
# numpy's per-row reduce (the two cost about the same at 32 rows per class)
_TALL_ROWS_PER_CLASS = 32


def _is_tall(block: np.ndarray) -> bool:
    rows, classes = block.shape
    return rows >= _TALL_ROWS_PER_CLASS * classes


def _pairwise_sum(cols: np.ndarray) -> np.ndarray:
    """The sum of the rows of cols, added in the order numpy's pairwise_sum
    adds the N entries of one row: plain adds below 8, eight accumulators
    up to 128, halves (the first a multiple of 8) above."""
    n = len(cols)
    if n < 8:
        total = cols[0].copy()
        for col in cols[1:]:
            total += col
        return total
    if n <= 128:
        end = n - n % 8
        acc = cols[:8]
        for start in range(8, end, 8):
            acc = acc + cols[start : start + 8]
        total = (acc[0] + acc[1]) + (acc[2] + acc[3])
        total += (acc[4] + acc[5]) + (acc[6] + acc[7])
        for col in cols[end:]:
            total += col
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(cols[:half]) + _pairwise_sum(cols[half:])


def _column_sums(cols: np.ndarray) -> np.ndarray:
    """np.add.reduce(cols.T, axis=1) from the C-ordered transpose: numpy
    adds each row's pairwise sum to an output that starts at 0.0 (so a row
    of -0.0 sums to 0.0). Equal bit for bit, except for the sign of a NaN
    where two NaNs of opposite sign meet."""
    total = _pairwise_sum(cols)
    total += 0.0
    return total


def _row_sums(block: np.ndarray) -> np.ndarray:
    """np.add.reduce(block, axis=1, keepdims=True), in the layout the
    block's shape favours."""
    if _is_tall(block):
        return _column_sums(block.T.copy())[:, None]
    return np.add.reduce(block, axis=1, keepdims=True)


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization. A row is non-finite
    exactly when its denominator is NaN, and then every entry is NaN; any
    other denominator lies in [1, num_classes]."""
    # a max does not depend on order, and numpy's reduce along the long
    # axis of the transposed copy is several times faster on a tall block
    if _is_tall(scores):  # the whole softmax on the copy, then back to C order
        cols = scores.T.copy()
        cols -= np.maximum.reduce(cols, axis=0)
        np.exp(cols, out=cols)
        cols /= _column_sums(cols)
        return cols.T.copy()
    e = scores - np.maximum.reduce(scores.T.copy(), axis=0)[:, None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _features(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray):
    """The features the output layer reads (the inputs, or the MLP's tanh
    activations) and that layer's weights w and bias b."""
    hidden_layer, w, b = _unpack(spec, params)
    features = inputs
    if hidden_layer is not None:
        features = inputs @ hidden_layer[0]
        features += hidden_layer[1]
        np.tanh(features, out=features)
    return features, w, b


def _forward_parts(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray):
    """Class scores, the output layer's features and its weights: what
    backprop needs."""
    features, w, b = _features(spec, params, inputs)
    scores = features @ w
    scores += b
    return scores, features, w


def forward_logits(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Probability rows over classes."""
    out = stable_softmax(_forward_parts(spec, params, inputs)[0])
    if not np.isfinite(out[:, 0]).all():  # one entry per row tells (see stable_softmax)
        bad = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise NumericError(f"non-finite model output at row {bad}")
    return out


def local_loss(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy."""
    logp = _log_softmax(_forward_parts(spec, params, inputs)[0])
    return float(-logp[np.arange(len(targets)), targets.astype(np.int64)].mean())


def _backprop_scores(spec, params, inputs, features, w, score_grad):
    """Chain a gradient at the class scores back to a flat parameter gradient,
    written in place through _unpack's views: the output layer's and any hidden one's.
    An MLP's `features` (its tanh activations) are overwritten."""
    grad = np.empty(params.size)
    hidden_grad, gw, gb = _unpack(spec, grad)
    np.matmul(features.T, score_grad, out=gw)
    np.add.reduce(score_grad, axis=0, out=gb)
    if hidden_grad is not None:
        d_hidden = score_grad @ w.T
        # tanh' = 1 - features^2 in the features' own buffer, read last;
        # softmax_linear's features are the caller's inputs, never written
        slope = np.multiply(features, features, out=features)
        np.subtract(1.0, slope, out=slope)
        d_hidden *= slope
        np.matmul(inputs.T, d_hidden, out=hidden_grad[0])
        np.add.reduce(d_hidden, axis=0, out=hidden_grad[1])
    return grad


def grad_local(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact gradient of local_loss."""
    scores, features, w = _forward_parts(spec, params, inputs)
    score_grad = stable_softmax(scores)
    n = len(targets)
    score_grad[np.arange(n), targets.astype(np.int64, copy=False)] -= 1.0
    score_grad /= n
    return _backprop_scores(spec, params, inputs, features, w, score_grad)


def distill_penalty(spec: ModelSpec, params: np.ndarray, public_inputs: np.ndarray, sbar_rows: np.ndarray) -> float:
    """Mean over the public batch of the squared prediction disagreement."""
    preds = forward_logits(spec, params, public_inputs)
    diff = sbar_rows - preds
    return float((diff * diff).sum() / len(public_inputs))


def objective_phi(
    spec: ModelSpec,
    params: np.ndarray,
    batch_inputs: np.ndarray,
    batch_targets: np.ndarray,
    public_inputs: np.ndarray,
    sbar_rows: np.ndarray,
    lam: float,
) -> float:
    """Local loss plus lam times the mini-batch estimate of the pool-average
    squared disagreement with the distillation target."""
    value = local_loss(spec, params, batch_inputs, batch_targets)
    if lam > 0:
        value += lam * distill_penalty(spec, params, public_inputs, sbar_rows)
    return value


def grad_phi_stochastic(
    spec: ModelSpec,
    params: np.ndarray,
    batch_inputs: np.ndarray,
    batch_targets: np.ndarray,
    public_inputs: np.ndarray,
    sbar_rows: np.ndarray,
    lam: float,
    public_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Exact gradient of objective_phi with respect to the flat parameters.
    `public_probs`, if given, must be forward_logits(spec, params,
    public_inputs): the public block's output layer and softmax are then
    skipped (an MLP still recomputes its hidden features). It is only read."""
    grad = grad_local(spec, params, batch_inputs, batch_targets)
    if lam > 0:
        if public_probs is None:
            scores, features, w = _forward_parts(spec, params, public_inputs)
            probs = stable_softmax(scores)
        else:
            features, w, _ = _features(spec, params, public_inputs)
            probs = public_probs
        scale = 2.0 * lam / len(public_inputs)
        diff = probs - sbar_rows
        # softmax Jacobian applied to diff: diag(p) - p p^T, row-wise
        diff -= _row_sums(probs * diff)
        # (scale * p) * diff, in that order: the order fixes the rounding
        score_grad = probs * scale
        score_grad *= diff
        grad += _backprop_scores(spec, params, public_inputs, features, w, score_grad)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    return grad


def save_params(fh, spec: ModelSpec, params: np.ndarray) -> None:
    """Little-endian dump to a binary file handle: the magic b"FKPV", a u32
    arch tag (2 softmax_linear, 3 mlp), a u64 value count, then the values
    as f64."""
    values = np.ascontiguousarray(params, dtype="<f8")
    fh.write(_PARAM_MAGIC + struct.pack("<IQ", _ARCH_TAGS[spec.arch], values.size))
    fh.write(values.tobytes())


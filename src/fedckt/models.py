"""Per-client predictors, the co-distillation objective, and its exact
stochastic gradient via hand-derived backpropagation.

Two classifier architectures share one flat-parameter interface, both
trained with cross-entropy:

  softmax_linear(d, N)     softmax(X @ W + b)
  mlp(d, h, N)             softmax(tanh(X @ W1 + b1) @ W2 + b2)

The MLP activation is tanh so every classifier is smooth, matching the
smoothness the convergence monitor relies on. Outputs ("logits" throughout
the package) are probability rows on the simplex.
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
    """Weights ~ Uniform(-init_scale, init_scale), biases zero."""
    rng = substream(seed, "param-init")
    s = spec.init_scale
    d, n, h = spec.dim, spec.num_classes, spec.hidden
    if spec.arch == ARCH_SOFTMAX:
        return np.concatenate([rng.uniform(-s, s, d * n), np.zeros(n)])
    return np.concatenate(
        [
            rng.uniform(-s, s, d * h),
            np.zeros(h),
            rng.uniform(-s, s, h * n),
            np.zeros(n),
        ]
    )


def _unpack(spec: ModelSpec, params: np.ndarray):
    d, n, h = spec.dim, spec.num_classes, spec.hidden
    if spec.arch == ARCH_SOFTMAX:
        return params[: d * n].reshape(d, n), params[d * n :]
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * n
    return (
        params[:o1].reshape(d, h),
        params[o1:o2],
        params[o2:o3].reshape(h, n),
        params[o3:],
    )


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization. A row is non-finite
    exactly when its denominator is NaN, and then every entry is NaN; any
    other denominator lies in [1, num_classes]."""
    # a max does not depend on order, and numpy's reduce along the long
    # axis of the transposed copy is several times faster on a tall block
    e = scores - np.maximum.reduce(scores.T.copy(), axis=0)[:, None]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward_parts(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray):
    """Class scores plus what backprop needs of the MLP: its hidden
    activations and output weights (both None for softmax_linear)."""
    if spec.arch == ARCH_SOFTMAX:
        w, b = _unpack(spec, params)
        scores = inputs @ w
        scores += b
        return scores, None, None
    w1, b1, w2, b2 = _unpack(spec, params)
    hidden = inputs @ w1
    hidden += b1
    np.tanh(hidden, out=hidden)
    scores = hidden @ w2
    scores += b2
    return scores, hidden, w2


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


def _backprop_scores(spec, params, inputs, hidden, w2, score_grad):
    """Chain a gradient at the class scores back to a flat parameter
    gradient, written in place through views laid out as the parameters."""
    grad = np.empty(params.size)
    if spec.arch == ARCH_SOFTMAX:
        gw, gb = _unpack(spec, grad)
        np.matmul(inputs.T, score_grad, out=gw)
        np.add.reduce(score_grad, axis=0, out=gb)
        return grad
    gw1, gb1, gw2, gb2 = _unpack(spec, grad)
    d_hidden = score_grad @ w2.T
    slope = hidden * hidden  # tanh' = 1 - hidden^2, formed in place
    np.subtract(1.0, slope, out=slope)
    d_hidden *= slope
    np.matmul(inputs.T, d_hidden, out=gw1)
    np.add.reduce(d_hidden, axis=0, out=gb1)
    np.matmul(hidden.T, score_grad, out=gw2)
    np.add.reduce(score_grad, axis=0, out=gb2)
    return grad


def grad_local(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact gradient of local_loss."""
    scores, hidden, w2 = _forward_parts(spec, params, inputs)
    score_grad = stable_softmax(scores)
    n = len(targets)
    score_grad[np.arange(n), targets.astype(np.int64, copy=False)] -= 1.0
    score_grad /= n
    return _backprop_scores(spec, params, inputs, hidden, w2, score_grad)


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
) -> np.ndarray:
    """Exact gradient of objective_phi with respect to the flat parameters."""
    grad = grad_local(spec, params, batch_inputs, batch_targets)
    if lam > 0:
        scores, hidden, w2 = _forward_parts(spec, params, public_inputs)
        scale = 2.0 * lam / len(public_inputs)
        probs = stable_softmax(scores)
        diff = probs - sbar_rows
        # softmax Jacobian applied to diff: diag(p) - p p^T, row-wise
        diff -= np.add.reduce(probs * diff, axis=1, keepdims=True)
        # (scale * p) * diff, in that order: the order fixes the rounding
        score_grad = probs
        score_grad *= scale
        score_grad *= diff
        grad += _backprop_scores(spec, params, public_inputs, hidden, w2, score_grad)
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


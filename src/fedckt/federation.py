"""Round orchestration: one round loop for the clustered co-distillation
algorithm and its FedAvg and local-only baselines, which differ only in the
server step (cluster uploaded logits, average parameters, or nothing), plus
communication accounting and convergence monitoring.

Randomness contract: every stochastic quantity draws from a named substream
of the master seed — client selection from ("select", t), clustering from
("cluster-seed", t), private batches from ("batch", client, t), and public
batches from ("public", client, t). Clients therefore share no streams, so
a client's trajectory does not depend on which other clients run in the
same round, and algorithms that skip a quantity (e.g. local SGD never
touching public batches) still consume identical private streams.

Failure contract: a client's numeric failure is a plain NumericError, raised
where the non-finite value appears, and only run_rounds classifies it: in a
selected client's training it drops that client for the round; anywhere
else it ends the run, which keeps its outputs so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import assign_nearest, cmeans_fit
from .data import ClientDataBundle, minibatch
from .errors import ConfigurationError, NumericError
from .models import (
    ModelSpec,
    forward_logits,
    grad_local,
    grad_phi_stochastic,
    init_params,
    param_count,
)
from .rng import derive_seed, substream

LR_CONSTANT = "constant"
LR_ROBBINS_MONRO = "robbins_monro"


@dataclass(frozen=True)
class FederationConfig:
    rounds: int = field(metadata={"min": 1})
    local_iters: int = field(metadata={"min": 1})
    batch_size: int = field(metadata={"min": 1})
    public_batch_size: int = field(metadata={"min": 1})
    distill_weight: float = field(metadata={"min": 0})
    num_clusters: int = field(metadata={"min": 1})
    lr: float = field(metadata={"min": 0})
    num_selected: int = field(metadata={"min": 1})
    lr_mode: str = field(
        default=LR_CONSTANT, metadata={"choices": (LR_CONSTANT, LR_ROBBINS_MONRO)}
    )
    lr_decay: float = 0.0
    seed: int = 0
    eval_interval: int = field(default=1, metadata={"min": 1})


def lr_at(config: FederationConfig, round_index: int) -> float:
    """Step size for a round; the decaying mode satisfies sum eta = inf,
    sum eta^2 < inf for any positive decay."""
    if config.lr_mode == LR_CONSTANT:
        return config.lr
    return config.lr / (1.0 + config.lr_decay * round_index)


@dataclass
class ClientRecord:
    """Persistent per-client state; params survive across rounds."""

    id: int
    spec: ModelSpec
    params: np.ndarray
    bundle: ClientDataBundle
    last_selected_round: int = -1


@dataclass
class CommLedger:
    uplink_scalars: int = 0
    downlink_scalars: int = 0

    @property
    def total_scalars(self) -> int:
        return self.uplink_scalars + self.downlink_scalars


@dataclass(frozen=True)
class RoundMetrics:
    """Snapshot emitted on eval rounds: accuracy of the post-round models and
    gradient norms of the monitored state, which is the start-of-round state
    under perfed_ckt and the post-round state under FedAvg and local-only."""

    round_index: int
    mean_accuracy: float
    std_accuracy: float
    grad_norm_mean: float
    grad_norm_median: float
    grad_norm_max: float
    uplink_scalars: int
    downlink_scalars: int


@dataclass
class RunResult:
    metrics: list[RoundMetrics]
    ledger: CommLedger
    diverged: list[tuple[int, int]] = field(default_factory=list)  # (client, round)
    error: NumericError | None = None  # the failure that ended the run


def sample_clients(weights: np.ndarray, m: int, rng: np.random.Generator) -> list[int]:
    """m successive draws without replacement, each proportional to the
    remaining weights; positions into the weights array, in draw order.
    run_rounds guarantees m <= len(weights) and positive weights. Each pick
    is rng.choice(n, p=weights / weights.sum())'s, from its cdf unvalidated."""
    weights = np.asarray(weights, dtype=np.float64).copy()
    chosen: list[int] = []
    for _ in range(m):
        cdf = (weights / weights.sum()).cumsum()
        pick = int((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))
        chosen.append(pick)
        weights[pick] = 0.0
    return chosen


def _local_sgd_steps(
    record: ClientRecord,
    config: FederationConfig,
    round_index: int,
    pool: np.ndarray | None = None,
    sbar_rows: np.ndarray | None = None,
) -> np.ndarray:
    """tau mini-batch steps from the record's current params; the private
    and public batch streams are separate so that a lam=0 run consumes the
    same private randomness as plain local SGD."""
    rng_priv = substream(config.seed, "batch", record.id, round_index)
    lam = config.distill_weight if sbar_rows is not None else 0.0
    rng_pub = (
        substream(config.seed, "public", record.id, round_index) if lam > 0 else None
    )
    train = record.bundle.train
    eta = lr_at(config, round_index)
    w = record.params.copy()
    for step in range(config.local_iters):
        idx = minibatch(train, config.batch_size, rng_priv)
        xb, yb = train.inputs[idx], train.labels[idx]
        if lam > 0:
            pidx = minibatch(pool, config.public_batch_size, rng_pub)
            grad = grad_phi_stochastic(
                record.spec, w, xb, yb, pool[pidx], sbar_rows[pidx], lam
            )
        else:
            grad = grad_local(record.spec, w, xb, yb)
        grad *= eta  # the kernels return a fresh gradient
        w -= grad
        if not np.isfinite(w).all():
            raise NumericError(f"non-finite parameters at local step {step}")
    return w


def client_local_round(
    record: ClientRecord,
    sbar_rows: np.ndarray,
    pool: np.ndarray,
    config: FederationConfig,
    round_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One selected client's round: tau steps against the frozen distillation
    target, then fresh logits of the updated model on the full pool."""
    params = _local_sgd_steps(record, config, round_index, pool, sbar_rows)
    return params, forward_logits(record.spec, params, pool)


def grad_norm_monitor(
    record: ClientRecord,
    pool: np.ndarray | None,
    sbar_rows: np.ndarray | None,
    lam: float,
) -> float:
    """l2 norm of the deterministic full-batch objective gradient (full
    train split, full public pool)."""
    train = record.bundle.train
    if lam > 0 and sbar_rows is not None:
        grad = grad_phi_stochastic(
            record.spec,
            record.params,
            train.inputs,
            train.labels,
            pool,
            sbar_rows,
            lam,
        )
    else:
        grad = grad_local(record.spec, record.params, train.inputs, train.labels)
    return float(np.linalg.norm(grad))


def accuracy_on(spec: ModelSpec, params: np.ndarray, dataset) -> float:
    """Argmax-class accuracy."""
    probs = forward_logits(spec, params, dataset.inputs)
    return float((probs.argmax(axis=1) == dataset.labels).mean())


def _per_client(fn, records: list[ClientRecord]) -> list:
    """[fn(r) for r in records]; a NumericError leaves with the failing
    client's id set as its `client_id`."""
    values = []
    for r in records:
        try:
            values.append(fn(r))
        except NumericError as exc:
            exc.client_id = r.id
            raise
    return values


def evaluate_clients(records: list[ClientRecord]) -> np.ndarray:
    """Per-client test accuracy of each client's own model (active clients)."""
    active = [r for r in records if r.bundle.active]
    return np.array(_per_client(lambda r: accuracy_on(r.spec, r.params, r.bundle.test), active))


def _metrics_row(round_index, accuracies, grad_norms, ledger) -> RoundMetrics:
    norms = np.asarray(grad_norms, dtype=np.float64)
    return RoundMetrics(
        round_index=round_index,
        mean_accuracy=float(accuracies.mean()),
        std_accuracy=float(accuracies.std()),
        grad_norm_mean=float(norms.mean()),
        grad_norm_median=_median(norms),
        grad_norm_max=float(norms.max()),
        uplink_scalars=ledger.uplink_scalars,
        downlink_scalars=ledger.downlink_scalars,
    )


def _median(values: np.ndarray) -> float:
    """np.median of non-empty norms without its NaN check, which imports
    numpy.ma (np.sort puts NaN last); bitwise but for the sign of a 0.0 tie."""
    s, h = np.sort(values), len(values) // 2
    mid = s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2.0
    return float(s[-1] if np.isnan(s[-1]) else mid)


def _nearest_centroid(rec, pool, centroids) -> np.ndarray:
    """The centroid nearest the client's own full-pool logits, as target rows."""
    own = forward_logits(rec.spec, rec.params, pool)
    pick = assign_nearest(own.ravel(), centroids)
    return centroids.centroids[pick].reshape(len(pool), rec.spec.num_classes)


def _broadcast_average(active, coeffs, vectors) -> None:
    """Set every active record to sum(c * v), accumulated left to right; a
    lone vector passes through unscaled."""
    mixed = vectors[0]
    if len(vectors) > 1:
        mixed = np.zeros(mixed.size)
        for c, v in zip(coeffs, vectors):
            mixed = mixed + c * v
    for r in active:
        r.params = mixed


def run_rounds(
    algorithm: str,
    records: list[ClientRecord],
    pool: np.ndarray | None,
    config: FederationConfig,
) -> RunResult:
    """One loop for the three algorithms. Per round: select clients (local
    takes every active one, the others sample by data share), charge the
    downlink, run tau local steps per selected client, charge the uplink of
    those that did not diverge, then the server step:

    - perfed_ckt clusters the uploaded full-pool logits; next round each
      client distils toward its nearest centroid. Round 0 clusters a
      bootstrap sample's initial models, uncharged. The logits live in one
      (m, |P|·N) buffer: once a round's fit has read it (cmeans_fit's
      centroids share no memory with their points), each upload overwrites
      the next row, and the next fit reads the filled rows.
    - fedavg averages the returned parameters by data share and broadcasts
      them: every active record holds the global model throughout.
    - local does nothing and charges nothing.

    A client's failure is a NumericError. One raised while a selected client
    trains drops it from the round and re-initialises it, except under
    fedavg, where its record still holds the intact global model. One raised
    anywhere else records (client, round), the bootstrap as round 0, and
    ends the run, keeping the error and the metrics of earlier rounds.
    """
    perfed, fedavg = algorithm == "perfed_ckt", algorithm == "fedavg"
    active = [r for r in records if r.bundle.active]
    weights = np.array([r.bundle.p_k for r in active])
    m = config.num_selected
    if algorithm != "local" and m > len(active):
        raise ConfigurationError(
            f"[federation] num_selected ({m}) exceeds the {len(active)} active clients"
        )
    # scalars per uploaded or downloaded matrix; matrices sent down per client
    payload, models_down = 0, 1
    if perfed:
        payload = len(pool) * active[0].spec.num_classes
    elif fedavg:  # one architecture: the loader refuses heterogeneous models
        payload = param_count(active[0].spec)
        _broadcast_average(active, weights, [r.params for r in active])

    def monitor(r: ClientRecord) -> float:
        sbar = _nearest_centroid(r, pool, centroids) if perfed else None
        return grad_norm_monitor(r, pool, sbar, config.distill_weight)

    ledger = CommLedger()
    metrics: list[RoundMetrics] = []
    diverged: list[tuple[int, int]] = []
    t = 0  # the round a bootstrap failure is recorded in
    try:
        if perfed:
            boot = sample_clients(weights, m, substream(config.seed, "select", "bootstrap"))
            # one flattened logit row per client, in client-id order
            stack = rows = np.stack(
                _per_client(
                    lambda r: forward_logits(r.spec, r.params, pool).ravel(),
                    sorted((active[p] for p in boot), key=lambda r: r.id),
                )
            )

        for t in range(config.rounds):
            eval_round = t % config.eval_interval == 0 or t == config.rounds - 1
            if perfed:
                models_down = min(config.num_clusters, len(stack))
                centroids, _ = cmeans_fit(
                    stack, models_down, seed=derive_seed(config.seed, "cluster-seed", t)
                )
            if algorithm == "local":
                selected = active
            else:
                positions = sample_clients(weights, m, substream(config.seed, "select", t))
                selected = sorted((active[p] for p in positions), key=lambda r: r.id)
            ledger.downlink_scalars += len(selected) * models_down * payload

            if eval_round and perfed:  # perfed monitors the start-of-round state
                grad_norms = _per_client(monitor, active)

            uploaded: list[ClientRecord] = []
            for rec in selected:
                try:
                    if perfed:
                        sbar = _nearest_centroid(rec, pool, centroids)
                        rec.params, upload = client_local_round(rec, sbar, pool, config, t)
                        rows[len(uploaded)] = upload.ravel()
                    else:
                        rec.params = _local_sgd_steps(rec, config, t)
                except NumericError:
                    diverged.append((rec.id, t))
                    if not fedavg:
                        rec.params = init_params(
                            rec.spec, derive_seed(config.seed, "reinit", rec.id, t)
                        )
                else:
                    uploaded.append(rec)
                    rec.last_selected_round = t
            ledger.uplink_scalars += len(uploaded) * payload

            if perfed and uploaded:
                stack = rows[: len(uploaded)]
            elif fedavg and uploaded:
                total = sum(r.bundle.p_k for r in uploaded)
                _broadcast_average(
                    active, [r.bundle.p_k / total for r in uploaded], [r.params for r in uploaded]
                )

            if eval_round:
                if not perfed:
                    grad_norms = _per_client(monitor, active)
                accuracies = evaluate_clients(active)
                metrics.append(_metrics_row(t, accuracies, grad_norms, ledger))
    except NumericError as exc:
        diverged.append((exc.client_id, t))
        return RunResult(metrics, ledger, diverged, error=exc)

    return RunResult(metrics=metrics, ledger=ledger, diverged=diverged)

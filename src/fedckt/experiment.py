"""Population assembly and experiment execution: build clients from a data
config, run the chosen algorithm, and write the metrics/summary artifacts."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    RawDataset,
    TRAIN_FRACTIONS,
    assign_data_fractions,
    class_means,
    draw_public_pool,
    partition_dirichlet,
    partition_summary,
    sample_blobs,
    split_train_val_test,
)
from .federation import (
    ClientRecord,
    FederationConfig,
    RoundMetrics,
    RunResult,
    run_rounds,
)
from .models import (
    ARCH_MLP,
    ARCH_SOFTMAX,
    ModelSpec,
    init_params,
    param_count,
    save_params,
)
from .rng import derive_seed, substream

POPULATION_DIRICHLET = "dirichlet"
POPULATION_TWO_GROUP = "two_group"

MODEL_KINDS = ("softmax_linear", "mlp", "heterogeneous")


@dataclass(frozen=True)
class DataConfig:
    population: str = field(
        default=POPULATION_DIRICHLET,
        metadata={"choices": (POPULATION_DIRICHLET, POPULATION_TWO_GROUP)},
    )
    num_classes: int = field(default=10, metadata={"min": 2})
    dim: int = field(default=8, metadata={"min": 1})
    samples_per_class: int = field(default=500, metadata={"min": 1})
    class_separation: float = 6.0
    alpha: float = field(default=0.01, metadata={"gt": 0})
    num_clients: int = field(default=100, metadata={"min": 1})
    public_pool_size: int = field(default=2000, metadata={"min": 1})
    public_offset: float = 1.5


@dataclass(frozen=True)
class ModelConfig:
    kind: str = field(default="softmax_linear", metadata={"choices": MODEL_KINDS})
    hidden: int = 16
    hidden_small: int = 8
    # init_params draws from uniform(-init_scale, init_scale), whose width
    # 2 * init_scale must be finite
    init_scale: float = field(default=0.05, metadata={"min": 0, "max": sys.float_info.max / 2})


def _split_shards(shards: list[RawDataset], partition_seed: int, master_seed: int):
    """Per-client splits; the train-fraction draw consumes one stream from the
    partition seed, in client-index order, so the fractions are independent of
    shard contents. Split seeds follow the shard's index within its group;
    p_k is left for assign_data_fractions over the whole population."""
    frac_rng = substream(partition_seed, "train-fraction")
    picks = frac_rng.integers(len(TRAIN_FRACTIONS), size=len(shards))
    return [
        split_train_val_test(
            shard, derive_seed(master_seed, "split", idx), train_fraction=TRAIN_FRACTIONS[pick]
        )
        for idx, (shard, pick) in enumerate(zip(shards, picks))
    ]


def _assign_specs(bundles, model_cfg: ModelConfig, dim: int, num_classes: int):
    """Model spec per client; the heterogeneous mode gives larger models to
    clients with larger data shares (p_k terciles)."""
    base = ModelSpec(ARCH_SOFTMAX, dim, num_classes, init_scale=model_cfg.init_scale)
    if model_cfg.kind == "softmax_linear":
        return [base] * len(bundles)
    big = ModelSpec(
        ARCH_MLP, dim, num_classes, hidden=model_cfg.hidden, init_scale=model_cfg.init_scale
    )
    if model_cfg.kind == "mlp":
        return [big] * len(bundles)
    small = ModelSpec(
        ARCH_MLP,
        dim,
        num_classes,
        hidden=model_cfg.hidden_small,
        init_scale=model_cfg.init_scale,
    )
    lo, hi = _terciles([b.p_k for b in bundles if b.p_k > 0])
    specs = []
    for b in bundles:
        if not b.active or b.p_k <= lo:
            specs.append(base)
        elif b.p_k <= hi:
            specs.append(small)
        else:
            specs.append(big)
    return specs


def _terciles(shares: list[float]) -> tuple[float, float]:
    """np.quantile(shares, [1/3, 2/3]) of non-empty finite shares, bit for
    bit: numpy's "linear" interpolation over the sorted shares, without
    np.quantile's np.unique, which imports numpy.ma."""
    s, n = sorted(shares), len(shares)

    def cut(q):
        v = (n - 1) * q
        if v >= n - 1:
            return s[-1]
        i = math.floor(v)
        g, a, b = v - i, s[i], s[i + 1]
        return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g

    return cut(1 / 3), cut(2 / 3)


def _population_shards(data_cfg: DataConfig, master_seed: int):
    """The population's private shards and the public pool's class means.

    Returns a list of (shards, partition seed) per group, in client order,
    and the pool means. `dirichlet` is one group over the whole source.
    `two_group` is two groups with disjoint label supports over shared blob
    locations: group A labels [0, N/2) and group B labels [N/2, N) occupy
    the same input regions, so no single model can satisfy both groups
    while within-group personalization can.

    The pool is drawn around the private means shifted by a constant offset
    (domain-shifted relatives of the private data, never the private rows
    themselves).
    """
    n_cls, per_class = data_cfg.num_classes, data_cfg.samples_per_class
    data_seed = derive_seed(master_seed, "data")
    if data_cfg.population == POPULATION_TWO_GROUP:
        half_cls = n_cls // 2
        locations = class_means(half_cls, data_cfg.dim, data_cfg.class_separation, data_seed)
        group_a = sample_blobs(locations, per_class, n_cls, data_seed, tag="group-a")
        raw_b = sample_blobs(locations, per_class, n_cls, data_seed, tag="group-b")
        group_b = RawDataset(raw_b.inputs, raw_b.labels + half_cls, n_cls)
        sources = [(("partition", "a"), group_a), (("partition", "b"), group_b)]
        group_clients = data_cfg.num_clients // 2
    else:
        locations = class_means(n_cls, data_cfg.dim, data_cfg.class_separation, data_seed)
        sources = [(("partition",), sample_blobs(locations, per_class, n_cls, data_seed))]
        group_clients = data_cfg.num_clients
    groups = []
    for path, source in sources:
        partition_seed = derive_seed(master_seed, *path)
        shards = partition_dirichlet(source, group_clients, data_cfg.alpha, partition_seed)
        groups.append((shards, partition_seed))
    return groups, locations + data_cfg.public_offset


def build_population(
    data_cfg: DataConfig, model_cfg: ModelConfig, master_seed: int
) -> tuple[list[ClientRecord], np.ndarray]:
    """Clients plus the shared unlabeled pool."""
    groups, pool_means = _population_shards(data_cfg, master_seed)
    bundles = assign_data_fractions(
        [b for shards, seed in groups for b in _split_shards(shards, seed, master_seed)]
    )
    specs = _assign_specs(bundles, model_cfg, data_cfg.dim, data_cfg.num_classes)
    records = [
        ClientRecord(
            id=i,
            spec=spec,
            params=init_params(spec, derive_seed(master_seed, "init", i)),
            bundle=bundle,
        )
        for i, (spec, bundle) in enumerate(zip(specs, bundles))
    ]
    per_class = math.ceil(data_cfg.public_pool_size / pool_means.shape[0])
    pool_source = sample_blobs(
        pool_means,
        per_class,
        data_cfg.num_classes,
        derive_seed(master_seed, "pool-source"),
        tag="public-blob-samples",
    )
    pool = draw_public_pool(
        pool_source, data_cfg.public_pool_size, derive_seed(master_seed, "pool-draw")
    )
    return records, pool


def write_partition_stats(path, data_cfg: DataConfig, master_seed: int) -> None:
    """Label histograms and skew metrics of the shards build_population
    splits, one entry per client in client order."""
    groups, _ = _population_shards(data_cfg, master_seed)
    write_json(path, partition_summary([s for shards, _ in groups for s in shards]))


ALGORITHMS = ("perfed_ckt", "fedavg", "local")


def run_algorithm(
    algorithm: str,
    records: list[ClientRecord],
    pool: np.ndarray,
    fed_cfg: FederationConfig,
) -> RunResult:
    """run_rounds under its own name: the benchmark charges the round loop's
    own time (loop_self_s) to this function and the run_rounds it calls, so
    the pass-through stays."""
    return run_rounds(algorithm, records, pool, fed_cfg)


def write_checkpoints(records: list[ClientRecord], directory) -> None:
    """One binary parameter file per client plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"clients": []}
    for rec in records:
        filename = f"client_{rec.id:04d}.params"
        with open(directory / filename, "wb") as fh:
            save_params(fh, rec.spec, rec.params)
        manifest["clients"].append(
            {
                "id": rec.id,
                "file": filename,
                "arch": rec.spec.arch,
                "dim": rec.spec.dim,
                "num_classes": rec.spec.num_classes,
                "hidden": rec.spec.hidden,
                "param_count": param_count(rec.spec),
                "active": rec.bundle.active,
                "last_selected_round": rec.last_selected_round,
            }
        )
    write_json(directory / "manifest.json", manifest)


METRICS_HEADER = "round,mean_acc,std_acc,grad_norm,uplink,downlink"


def write_metrics_csv(path, metrics: list[RoundMetrics]) -> None:
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for row in metrics:
            fh.write(
                f"{row.round_index},{row.mean_accuracy!r},{row.std_accuracy!r},"
                f"{row.grad_norm_mean!r},{row.uplink_scalars},{row.downlink_scalars}\n"
            )


def summarize_run(result: RunResult, config_echo: dict) -> dict:
    last = result.metrics[-1] if result.metrics else None
    return {
        "config": config_echo,
        "final": None
        if last is None
        else {
            "round": last.round_index,
            "mean_accuracy": last.mean_accuracy,
            "std_accuracy": last.std_accuracy,
            "grad_norm_mean": last.grad_norm_mean,
            "grad_norm_median": last.grad_norm_median,
            "grad_norm_max": last.grad_norm_max,
        },
        "comm": {
            "uplink_scalars": result.ledger.uplink_scalars,
            "downlink_scalars": result.ledger.downlink_scalars,
            "total_scalars": result.ledger.total_scalars,
        },
        "diverged_events": [list(ev) for ev in result.diverged],
    }


def write_json(path, data: dict) -> None:
    """Every JSON output's encoding: two-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary_json(path, summary: dict) -> None:
    """write_json under the name the benchmark times as an output writer."""
    write_json(path, summary)

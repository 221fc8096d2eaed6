"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np

from fedckt.clustering import cmeans_fit
from fedckt.data import (
    ClientDataBundle,
    assign_data_fractions,
)
from fedckt.experiment import (
    DataConfig,
    ModelConfig,
    build_population,
    write_metrics_csv,
)
from fedckt.federation import (
    ClientRecord,
    FederationConfig,
    run_rounds,
    sample_clients,
    client_local_round,
)
from fedckt.models import (
    ARCH_MLP,
    ARCH_SOFTMAX,
    ModelSpec,
    forward_logits,
    grad_phi_stochastic,
    init_params,
    objective_phi,
    param_count,
)
from fedckt.rng import substream
from fedckt.theory import (
    closed_form_lambda_alpha,
    gen_task,
    grid_search_oracle,
    lambda_grid_around,
    run_toy_example,
    simplex_grid,
)

from helpers import blobs, finite_difference_gradient, max_relative_error


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def make_client(i, spec, n_classes, dim, train, sep, data_seed, extra_test=40):
    data = blobs(n_classes, dim, (train + extra_test) // n_classes, sep, seed=data_seed)
    order = substream(7000 + i).permutation(len(data))
    val_end = train + max(1, extra_test // 4)
    return ClientDataBundle(
        train=data.take(order[:train]),
        val=data.take(order[train:val_end]),
        test=data.take(order[val_end:]),
    )


def test_criterion_1_theorem2_oracle_equivalence():
    """Closed-form (lambda*, alpha*) within 2% of the grid-search minimum."""
    tasks = [
        dict(num_clients=3, dim=2, sigma=1.0, beta=1.0, nu=1.0, upsilon=(0.5, 1.0, 2.0)),
        dict(num_clients=4, dim=3, sigma=1.5, beta=2.0, nu=0.7, upsilon=(0.5, 0.8, 2.0, 4.0)),
        dict(num_clients=5, dim=4, sigma=1.0, beta=1.0, nu=1.3, upsilon=(0.3, 0.7, 1.5, 2.5, 5.0)),
    ]
    worst_gap = -np.inf
    start = time.time()
    for index, kwargs in enumerate(tasks):
        t0 = time.time()
        task = gen_task(n_samples=8, seed=1000 + index, **{**kwargs, "upsilon": np.array(kwargs["upsilon"])})
        closed = closed_form_lambda_alpha(task, 0)
        oracle = grid_search_oracle(
            task,
            0,
            lambda_grid_around(closed.lambda_star, 15, 4.0),
            simplex_grid(kwargs["num_clients"], 15),
            100_000,
            seed=2000 + index,
        )
        gap = oracle.closed_form_loss / oracle.best_loss - 1.0
        worst_gap = max(worst_gap, gap)
        assert oracle.closed_form_loss <= 1.02 * oracle.best_loss, (index, gap)
        assert time.time() - t0 <= 300, "per-task runtime budget exceeded"
    report(
        "1 (theorem-2 oracle equivalence)",
        True,
        f"worst relative gap {worst_gap:+.4%} <= 2% over {len(tasks)} tasks, "
        f"{time.time() - start:.1f}s total",
    )


def test_criterion_2_toy_reproduction():
    """Clustered KT beats uniform KT for the similar pair; uniform beats
    pooled least squares for the outlier."""
    start = time.time()
    wins = {0: 0, 1: 0}
    outlier_wins = 0
    for seed in range(10):
        reports = run_toy_example(seed)  # sigmas (2, 5, 200), lambda 50
        dist = [{kind: sol.distance for kind, sol in rep.solutions.items()} for rep in reports]
        for client in (0, 1):
            if dist[client]["clustered_kt"] < dist[client]["uniform_kt"]:
                wins[client] += 1
        if dist[2]["uniform_kt"] < dist[2]["fedavg"]:
            outlier_wins += 1
    elapsed = time.time() - start
    passed = wins[0] >= 9 and wins[1] >= 9 and outlier_wins > 5 and elapsed <= 10
    report(
        "2 (toy reproduction)",
        passed,
        f"clustered wins {wins[0]}/10 and {wins[1]}/10 (need >=9), "
        f"uniform-beats-fedavg {outlier_wins}/10 (need >5), {elapsed:.2f}s",
    )


def test_criterion_3_gradient_correctness():
    """Analytic gradient vs central finite differences (h=1e-5), relative
    error <= 1e-4, both architectures, 20 instances, lambda in {0, 0.5, 2}."""
    specs = [
        ModelSpec(ARCH_SOFTMAX, dim=5, num_classes=4),
        ModelSpec(ARCH_MLP, dim=4, num_classes=3, hidden=8),
    ]
    lambdas = (0.0, 0.5, 2.0)
    start = time.time()
    worst = 0.0
    for spec in specs:
        rng = substream(31, spec.arch)
        for instance in range(20):
            lam = lambdas[instance % len(lambdas)]
            params = rng.normal(0, 0.7, param_count(spec))
            x = rng.normal(size=(6, spec.dim))
            y = rng.integers(spec.num_classes, size=6)
            sbar = rng.dirichlet(np.ones(spec.num_classes), size=5)
            xp = rng.normal(size=(5, spec.dim))
            analytic = grad_phi_stochastic(spec, params, x, y, xp, sbar, lam)
            fd = finite_difference_gradient(
                lambda p: objective_phi(spec, p, x, y, xp, sbar, lam), params, h=1e-5
            )
            worst = max(worst, max_relative_error(analytic, fd))
    elapsed = time.time() - start
    passed = worst <= 1e-4 and elapsed <= 30
    report(
        "3 (gradient correctness)",
        passed,
        f"max relative error {worst:.2e} <= 1e-4 over 2 archs x 20 instances, {elapsed:.1f}s",
    )


def test_criterion_4_theorem1_convergence():
    """tau=1, softmax-linear, K=10, eta_t = 0.5/(1+0.01 t), T=2000: the
    full-batch objective gradient norm falls below 1e-2 for every client and
    the round-median norm decreases across 200-round windows."""
    start = time.time()
    k_clients, n_classes, dim, train = 10, 5, 5, 60
    spec = ModelSpec(ARCH_SOFTMAX, dim=dim, num_classes=n_classes, init_scale=0.1)
    bundles = assign_data_fractions(
        [
            make_client(i, spec, n_classes, dim, train, 10.0, data_seed=100 + i)
            for i in range(k_clients)
        ]
    )
    records = [
        ClientRecord(id=i, spec=spec, params=init_params(spec, seed=300 + i), bundle=b)
        for i, b in enumerate(bundles)
    ]
    pool = blobs(n_classes, dim, 30, 10.0, seed=655).inputs
    cfg = FederationConfig(
        rounds=2000,
        local_iters=1,
        batch_size=train,  # full private batch: the update is deterministic
        public_batch_size=len(pool),
        distill_weight=0.5,
        num_clusters=2,
        lr=0.5,
        lr_mode="robbins_monro",
        lr_decay=0.01,
        seed=77,
        num_selected=k_clients,
        eval_interval=1,
    )
    result = run_rounds("perfed_ckt", records, pool, cfg)
    final_max = result.metrics[-1].grad_norm_max
    medians = np.array([m.grad_norm_median for m in result.metrics])
    windows = [float(np.median(medians[i : i + 200])) for i in range(0, 2000, 200)]
    decreasing = all(a > b for a, b in zip(windows, windows[1:]))
    elapsed = time.time() - start
    passed = final_max < 1e-2 and decreasing and elapsed <= 120
    report(
        "4 (theorem-1 convergence)",
        passed,
        f"final max grad norm {final_max:.2e} < 1e-2, window medians "
        f"{windows[0]:.3g}->{windows[-1]:.3g} strictly decreasing={decreasing}, {elapsed:.0f}s",
    )


def _two_group_accuracy(seed, clusters, algorithm="perfed"):
    data_cfg = DataConfig(
        population="two_group",
        num_classes=10,
        dim=4,
        samples_per_class=400,
        class_separation=4.0,
        alpha=0.3,
        num_clients=20,
        public_pool_size=300,
        public_offset=1.0,
    )
    records, pool = build_population(data_cfg, ModelConfig(kind="softmax_linear", init_scale=0.05), seed)
    cfg = FederationConfig(
        rounds=40,
        local_iters=5,
        batch_size=32,
        public_batch_size=64,
        distill_weight=2.0,
        num_clusters=clusters,
        lr=0.1,
        seed=seed,
        num_selected=10,
        eval_interval=40,
    )
    if algorithm == "fedavg":
        return run_rounds("fedavg", records, None, cfg).metrics[-1].mean_accuracy
    return run_rounds("perfed_ckt", records, pool, cfg).metrics[-1].mean_accuracy


def test_criterion_5_clustering_helps():
    """Two-group label-skew population, K=20, C=0.5: c=2 beats c=1 by >= 2
    accuracy points over 5 paired seeds; both beat the single shared model."""
    start = time.time()
    acc = {"c2": [], "c1": [], "fedavg": []}
    for seed in range(5):
        acc["c2"].append(_two_group_accuracy(seed, 2))
        acc["c1"].append(_two_group_accuracy(seed, 1))
        acc["fedavg"].append(_two_group_accuracy(seed, 1, algorithm="fedavg"))
    mean = {k: float(np.mean(v)) for k, v in acc.items()}
    gap_points = 100 * (mean["c2"] - mean["c1"])
    elapsed = time.time() - start
    passed = (
        gap_points >= 2.0
        and mean["c2"] > mean["fedavg"]
        and mean["c1"] > mean["fedavg"]
        and elapsed <= 300
    )
    report(
        "5 (clustering helps)",
        passed,
        f"c=2 {mean['c2']:.3f} vs c=1 {mean['c1']:.3f} (+{gap_points:.2f} pts, need >=2), "
        f"fedavg {mean['fedavg']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_communication_accounting():
    """Ledger totals equal the closed forms exactly; at the stated pool and
    class sizes a co-distillation round moves <= 1/50 the scalars of a
    parameter-exchange round for a realistically sized model."""
    # exactness on real runs
    n_classes, dim, train = 3, 2, 24
    spec = ModelSpec(ARCH_SOFTMAX, dim=dim, num_classes=n_classes, init_scale=0.1)
    bundles = assign_data_fractions(
        [make_client(i, spec, n_classes, dim, train, 4.0, data_seed=400 + i) for i in range(5)]
    )
    records = [
        ClientRecord(id=i, spec=spec, params=init_params(spec, seed=40 + i), bundle=b)
        for i, b in enumerate(bundles)
    ]
    pool = blobs(n_classes, dim, 20, 4.0, seed=41).inputs
    t, m, c = 6, 3, 2
    cfg = FederationConfig(
        rounds=t,
        local_iters=2,
        batch_size=8,
        public_batch_size=10,
        distill_weight=0.5,
        num_clusters=c,
        lr=0.05,
        seed=9,
        num_selected=m,
    )
    perfed = run_rounds("perfed_ckt", records, pool, cfg)
    perfed_expected = t * m * len(pool) * n_classes * (1 + c)
    assert perfed.ledger.total_scalars == perfed_expected
    assert perfed.ledger.uplink_scalars == t * m * len(pool) * n_classes

    records_avg = [
        ClientRecord(id=i, spec=spec, params=init_params(spec, seed=40 + i), bundle=b)
        for i, b in enumerate(bundles)
    ]
    fedavg = run_rounds("fedavg", records_avg, None, cfg)
    assert fedavg.ledger.total_scalars == t * 2 * m * param_count(spec)

    # directional match at the stated scales: |P|=2000, N=10, big model
    big = ModelSpec(ARCH_MLP, dim=3000, num_classes=10, hidden=3000)
    n_params = param_count(big)
    assert n_params >= 1e5
    per_round_perfed = 2000 * 10 * (1 + 3)  # per selected client, c=3
    per_round_fedavg = 2 * n_params
    ratio = per_round_perfed / per_round_fedavg
    passed = ratio <= 1 / 50
    report(
        "6 (communication accounting)",
        passed,
        f"ledgers exact (perfed {perfed.ledger.total_scalars}, fedavg "
        f"{fedavg.ledger.total_scalars}); ratio {ratio:.5f} <= 1/50 with "
        f"n_params={n_params}",
    )


def test_criterion_7_kmeans_properties():
    """Objective monotone on 100 random instances; centroid-mean identity to
    1e-10; the two-blob instance recovers the analytic optimum."""
    rng = substream(71)
    monotone = True
    identity = True
    for _ in range(100):
        m = int(rng.integers(2, 14))
        dim = int(rng.integers(1, 6))
        vectors = rng.normal(size=(m, dim)) * rng.uniform(0.5, 4.0)
        c = int(rng.integers(1, m + 1))
        centroids, assignment = cmeans_fit(vectors, c, seed=int(rng.integers(2**31)))
        trace = centroids.objective_trace
        monotone &= all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        for j in range(c):
            members = vectors[[i for i in range(m) if assignment[i] == j]]
            identity &= bool(
                np.allclose(centroids.centroids[j], members.mean(axis=0), atol=1e-10)
            )
    blob_centroids, _ = cmeans_fit(np.array([[0.0], [0.1], [10.0], [10.1]]), 2, seed=5)
    blob_ok = np.allclose(sorted(blob_centroids.centroids[:, 0]), [0.05, 10.05], atol=1e-12)
    passed = monotone and identity and blob_ok
    report(
        "7 (k-means properties)",
        passed,
        f"monotone={monotone}, centroid-mean identity={identity}, two-blob optimum={blob_ok}",
    )


def _single_client_population(seed=3):
    n_classes, dim, train = 3, 2, 30
    spec = ModelSpec(ARCH_SOFTMAX, dim=dim, num_classes=n_classes, init_scale=0.1)
    bundles = assign_data_fractions(
        [make_client(0, spec, n_classes, dim, train, 4.0, data_seed=600 + seed)]
    )
    return (
        [ClientRecord(id=0, spec=spec, params=init_params(spec, seed=601), bundle=bundles[0])],
        blobs(n_classes, dim, 20, 4.0, seed=602).inputs,
    )


def test_criterion_8_reduction_identities_bitwise():
    """(K=1, lambda=0) co-distillation == local SGD; c=1 == uniform logit
    averaging; FedAvg(K=1) == local SGD; all bitwise under shared seeds."""
    base = dict(rounds=4, local_iters=2, batch_size=8, public_batch_size=10, lr=0.1, seed=5)

    recs_a, pool = _single_client_population()
    recs_b, _ = _single_client_population()
    recs_c, _ = _single_client_population()
    single = FederationConfig(distill_weight=0.0, num_clusters=1, num_selected=1, **base)
    run_rounds("perfed_ckt", recs_a, pool, single)
    run_rounds("local", recs_b, None, single)
    run_rounds("fedavg", recs_c, None, single)
    perfed_eq = np.array_equal(recs_a[0].params, recs_b[0].params)
    fedavg_eq = np.array_equal(recs_c[0].params, recs_b[0].params)

    # c=1 vs an explicit uniform-average reference
    def population(seed=8, k=3):
        n_classes, dim, train = 3, 2, 30
        spec = ModelSpec(ARCH_SOFTMAX, dim=dim, num_classes=n_classes, init_scale=0.1)
        bundles = assign_data_fractions(
            [make_client(i, spec, n_classes, dim, train, 4.0, data_seed=700 + i) for i in range(k)]
        )
        recs = [
            ClientRecord(id=i, spec=spec, params=init_params(spec, seed=710 + i), bundle=b)
            for i, b in enumerate(bundles)
        ]
        pool = blobs(n_classes, dim, 20, 4.0, seed=720).inputs
        return recs, pool

    recs_run, pool3 = population()
    recs_ref, _ = population()
    cfg3 = FederationConfig(distill_weight=1.0, num_clusters=1, num_selected=3, **base)
    run_rounds("perfed_ckt", recs_run, pool3, cfg3)

    weights = np.array([r.bundle.p_k for r in recs_ref])
    boot = sample_clients(weights, 3, substream(cfg3.seed, "select", "bootstrap"))
    # record ids equal positions; stack rows go in client-id order
    stack = np.stack(
        [
            forward_logits(recs_ref[p].spec, recs_ref[p].params, pool3).ravel()
            for p in sorted(boot)
        ]
    )
    for t in range(cfg3.rounds):
        sbar = stack.mean(axis=0).reshape(len(pool3), 3)
        picks = sample_clients(weights, 3, substream(cfg3.seed, "select", t))
        uploads = []
        for cid in sorted(recs_ref[p].id for p in picks):
            rec = recs_ref[cid]
            rec.params, logits = client_local_round(rec, sbar, pool3, cfg3, t)
            uploads.append(logits.ravel())
        stack = np.stack(uploads)
    centroid_eq = all(
        np.array_equal(a.params, b.params) for a, b in zip(recs_run, recs_ref)
    )
    passed = perfed_eq and fedavg_eq and centroid_eq
    report(
        "8 (reduction identities)",
        passed,
        f"perfed==local {perfed_eq}, fedavg==local {fedavg_eq}, c1==uniform-average {centroid_eq}",
    )


def test_criterion_9_determinism_byte_identical(tmp_path):
    """Re-running a full experiment with the same master seed produces a
    byte-identical metrics file."""
    data_cfg = DataConfig(
        population="dirichlet",
        num_classes=4,
        dim=3,
        samples_per_class=120,
        class_separation=4.0,
        alpha=0.5,
        num_clients=6,
        public_pool_size=50,
        public_offset=1.0,
    )
    model_cfg = ModelConfig(kind="heterogeneous", hidden=10, hidden_small=6, init_scale=0.05)

    def run():
        records, pool = build_population(data_cfg, model_cfg, master_seed=13)
        cfg = FederationConfig(
            rounds=5,
            local_iters=3,
            batch_size=8,
            public_batch_size=12,
            distill_weight=1.0,
            num_clusters=2,
            lr=0.05,
            seed=13,
            num_selected=4,
        )
        return run_rounds("perfed_ckt", records, pool, cfg)

    paths = {}
    for name in ("run1", "run2"):
        paths[name] = tmp_path / f"{name}.csv"
        write_metrics_csv(paths[name], run().metrics)
    passed = paths["run1"].read_bytes() == paths["run2"].read_bytes()
    report("9 (determinism)", passed, f"rerun byte-identical={passed}")

import itertools

import numpy as np
import pytest

from fedckt import federation
from fedckt.clustering import cmeans_fit, assign_nearest
from fedckt.data import (
    ClientDataBundle,
    RawDataset,
    assign_data_fractions,
)
from fedckt.errors import ConfigurationError, NumericError
from fedckt.federation import (
    ClientRecord,
    FederationConfig,
    accuracy_on,
    client_local_round,
    evaluate_clients,
    grad_norm_monitor,
    lr_at,
    run_rounds,
    sample_clients,
)
from fedckt.models import (
    ARCH_MLP,
    ARCH_SOFTMAX,
    ModelSpec,
    forward_logits,
    init_params,
    objective_phi,
    param_count,
)
from fedckt.rng import substream

from helpers import blobs, finite_difference_gradient, reference_sample_clients, traced_peak


def make_bundle(num_classes=3, dim=2, train=30, val=6, test=30, seed=0, separation=4.0):
    data = blobs(num_classes, dim, (train + val + test) // num_classes + 1, separation, seed=seed)
    rng = substream(seed, "bundle-order")
    order = rng.permutation(len(data))
    return ClientDataBundle(
        train=data.take(order[:train]),
        val=data.take(order[train : train + val]),
        test=data.take(order[train + val : train + val + test]),
    )


def make_population(
    num_clients=4,
    num_classes=3,
    dim=2,
    seed=0,
    train=30,
    arch=ARCH_SOFTMAX,
    hidden=0,
    separation=4.0,
):
    spec = ModelSpec(arch, dim=dim, num_classes=num_classes, hidden=hidden, init_scale=0.1)
    bundles = assign_data_fractions(
        [
            make_bundle(num_classes, dim, train=train, seed=seed + i, separation=separation)
            for i in range(num_clients)
        ]
    )
    records = [
        ClientRecord(id=i, spec=spec, params=init_params(spec, seed=100 + i), bundle=b)
        for i, b in enumerate(bundles)
    ]
    pool_src = blobs(num_classes, dim, 40, 4.0, seed=seed + 991)
    pool = pool_src.inputs
    return records, pool


def config(**kwargs):
    base = dict(
        rounds=3,
        local_iters=2,
        batch_size=8,
        public_batch_size=10,
        distill_weight=0.5,
        num_clusters=2,
        lr=0.1,
        seed=7,
        num_selected=2,
    )
    base.update(kwargs)
    return FederationConfig(**base)


class TestSampleClients:
    def test_select_all(self):
        picks = sample_clients(np.array([0.5, 0.2, 0.3]), 3, substream(0))
        assert sorted(picks) == [0, 1, 2]

    def test_degenerate_weight_always_chosen(self):
        for s in range(20):
            assert sample_clients(np.array([1.0, 0.0, 0.0]), 1, substream(s)) == [0]

    def test_heavier_clients_selected_more_often(self):
        weights = np.array([10.0] + [1.0] * 9)
        weights = weights / weights.sum()
        rng = substream(2)
        heavy = light = 0
        for _ in range(10_000):
            picks = sample_clients(weights, 3, rng)
            heavy += 0 in picks
            light += 9 in picks
        assert heavy > light * 2

    def test_matches_choice_with_p_bitwise(self):
        # the same picks as rng.choice(n, p=...) and the stream left in the
        # same state, over weights spanning 12 binades
        rng = substream(218)
        for case in range(300):
            n = int(rng.integers(1, 40))
            weights = rng.uniform(0.01, 1.0, n) * 10.0 ** rng.integers(-6, 6, n)
            m = int(rng.integers(1, n + 1))
            got_rng, want_rng = substream(218, case), substream(218, case)
            assert sample_clients(weights, m, got_rng) == reference_sample_clients(
                weights, m, want_rng
            )
            assert got_rng.random() == want_rng.random()

    def test_oversized_request_rejected(self):
        # run_rounds refuses it at setup; local takes every active client
        for algorithm in ("perfed_ckt", "fedavg"):
            records, pool = make_population(num_clients=2)
            with pytest.raises(
                ConfigurationError,
                match=r"^\[federation\] num_selected \(3\) exceeds the 2 active clients$",
            ):
                run_rounds(algorithm, records, pool, config(num_selected=3, num_clusters=1))
        records, pool = make_population(num_clients=2)
        run_rounds("local", records, pool, config(rounds=1, num_selected=3))


class TestLrSchedule:
    def test_robbins_monro_values(self):
        cfg = config(lr=0.5, lr_mode="robbins_monro", lr_decay=0.01)
        assert lr_at(cfg, 0) == 0.5
        assert np.isclose(lr_at(cfg, 100), 0.25)
        assert lr_at(cfg, 10**9) < 1e-6

    def test_series_conditions_numerically(self):
        cfg = config(lr=0.5, lr_mode="robbins_monro", lr_decay=0.01)
        t = np.arange(1_000_000)
        etas = cfg.lr / (1.0 + cfg.lr_decay * t)
        assert etas.sum() > 100.0
        assert (etas**2).sum() < cfg.lr**2 * (1 + np.pi**2 / 6) / cfg.lr_decay

    def test_constant_mode(self):
        cfg = config(lr=0.001)
        assert lr_at(cfg, 0) == lr_at(cfg, 999) == 0.001


class TestClientLocalRound:
    def test_zero_lr_keeps_params_and_logits(self):
        records, pool = make_population()
        cfg = config(lr=0.0)
        rec = records[0]
        before = rec.params.copy()
        sbar = forward_logits(rec.spec, rec.params, pool)
        params, logits = client_local_round(rec, sbar, pool, cfg, round_index=0)
        assert np.array_equal(params, before)
        assert np.array_equal(logits, sbar)

    def test_single_step_lambda_zero_is_plain_sgd(self):
        from fedckt.data import minibatch
        from fedckt.models import grad_local

        records, pool = make_population()
        cfg = config(local_iters=1, distill_weight=0.0)
        rec = records[1]
        sbar = forward_logits(rec.spec, rec.params, pool)
        params, _ = client_local_round(rec, sbar, pool, cfg, round_index=2)

        rng = substream(cfg.seed, "batch", rec.id, 2)
        idx = minibatch(rec.bundle.train, cfg.batch_size, rng)
        grad = grad_local(
            rec.spec, rec.params, rec.bundle.train.inputs[idx], rec.bundle.train.labels[idx]
        )
        assert np.array_equal(params, rec.params - cfg.lr * grad)

    def test_full_batch_objective_non_increasing(self):
        records, pool = make_population(train=20)
        rec = records[0]
        cfg = config(
            local_iters=5,
            batch_size=len(rec.bundle.train),
            public_batch_size=len(pool),
            distill_weight=1.0,
            lr=0.01,
        )
        sbar = np.full((len(pool), rec.spec.num_classes), 1.0 / rec.spec.num_classes)
        before = objective_phi(
            rec.spec,
            rec.params,
            rec.bundle.train.inputs,
            rec.bundle.train.labels,
            pool,
            sbar,
            cfg.distill_weight,
        )
        params, _ = client_local_round(rec, sbar, pool, cfg, round_index=0)
        after = objective_phi(
            rec.spec,
            params,
            rec.bundle.train.inputs,
            rec.bundle.train.labels,
            pool,
            sbar,
            cfg.distill_weight,
        )
        assert after <= before

    def test_target_frozen_across_steps(self):
        # tau steps with a fixed target reproduce the round exactly
        records, pool = make_population()
        rec = records[2]
        cfg = config(local_iters=3, distill_weight=0.8)
        sbar = forward_logits(rec.spec, records[0].params, pool)
        params, _ = client_local_round(rec, sbar, pool, cfg, round_index=1)

        from fedckt.data import minibatch
        from fedckt.models import grad_phi_stochastic

        w = rec.params.copy()
        rng_priv = substream(cfg.seed, "batch", rec.id, 1)
        rng_pub = substream(cfg.seed, "public", rec.id, 1)
        train = rec.bundle.train
        for _ in range(cfg.local_iters):
            idx = minibatch(train, cfg.batch_size, rng_priv)
            pidx = minibatch(pool, cfg.public_batch_size, rng_pub)
            g = grad_phi_stochastic(
                rec.spec,
                w,
                train.inputs[idx],
                train.labels[idx],
                pool[pidx],
                sbar[pidx],
                cfg.distill_weight,
            )
            w = w - cfg.lr * g
        assert np.array_equal(params, w)

    @pytest.mark.parametrize("arch, hidden", [(ARCH_SOFTMAX, 0), (ARCH_MLP, 5)])
    def test_client_round_does_not_depend_on_the_other_clients(self, arch, hidden):
        # the module's randomness contract: against a fixed target, a
        # client's params and upload are bitwise the same whether it trains
        # alone, after k other clients or at any position of a group, and
        # no client's round writes into the shared pool or target
        records, pool = make_population(arch=arch, hidden=hidden)
        cfg = config(local_iters=3, distill_weight=0.5)
        spec = records[0].spec
        sbar = forward_logits(spec, init_params(spec, seed=99), pool)
        pool_bytes, sbar_bytes = pool.tobytes(), sbar.tobytes()

        def run(order):
            return {
                i: tuple(
                    a.tobytes() for a in client_local_round(records[i], sbar, pool, cfg, 1)
                )
                for i in order
            }

        alone = {i: run([i])[i] for i in range(len(records))}
        for i in alone:
            others = [j for j in alone if j != i]
            for k in range(1, len(others) + 1):
                assert run([*others[:k], i])[i] == alone[i]
        for group in itertools.permutations(range(3)):
            assert run(group) == {i: alone[i] for i in group}
        assert (pool.tobytes(), sbar.tobytes()) == (pool_bytes, sbar_bytes)


class TestReductions:
    def single_client_setup(self, arch=ARCH_SOFTMAX):
        records, pool = make_population(num_clients=1, arch=arch)
        return records, pool

    def test_perfed_single_client_lambda_zero_equals_local_sgd(self):
        records_a, pool = self.single_client_setup()
        records_b, _ = self.single_client_setup()
        cfg_perfed = config(
            rounds=4, num_selected=1, num_clusters=1, distill_weight=0.0, seed=3
        )
        cfg_local = config(rounds=4, num_selected=1, num_clusters=1, seed=3)
        run_rounds("perfed_ckt", records_a, pool, cfg_perfed)
        run_rounds("local", records_b, None, cfg_local)
        assert np.array_equal(records_a[0].params, records_b[0].params)

    def test_fedavg_single_client_equals_local_sgd(self):
        records_a, _ = self.single_client_setup()
        records_b, _ = self.single_client_setup()
        cfg = config(rounds=4, num_selected=1, seed=3)
        run_rounds("fedavg", records_a, None, cfg)
        run_rounds("local", records_b, None, cfg)
        assert np.array_equal(records_a[0].params, records_b[0].params)

    def test_single_centroid_equals_uniform_logit_average(self):
        records_a, pool = make_population(num_clients=3, seed=5)
        records_b, _ = make_population(num_clients=3, seed=5)
        cfg = config(rounds=3, num_selected=3, num_clusters=1, distill_weight=1.0, seed=11)

        run_rounds("perfed_ckt", records_a, pool, cfg)

        # reference: same loop with the distillation target hard-coded to the
        # uniform average of the previous round's logits
        weights = np.array([r.bundle.p_k for r in records_b])
        boot = sample_clients(weights, 3, substream(cfg.seed, "select", "bootstrap"))
        # record ids equal positions; stack rows go in client-id order
        stack = np.stack(
            [
                forward_logits(records_b[p].spec, records_b[p].params, pool).ravel()
                for p in sorted(boot)
            ]
        )
        n_classes = records_b[0].spec.num_classes
        for t in range(cfg.rounds):
            mean_vec = stack.mean(axis=0)
            sbar = mean_vec.reshape(len(pool), n_classes)
            picks = sample_clients(weights, 3, substream(cfg.seed, "select", t))
            selected = sorted(records_b[p].id for p in picks)
            uploads = []
            for cid in selected:
                rec = records_b[cid]
                params, logits = client_local_round(rec, sbar, pool, cfg, t)
                rec.params = params
                uploads.append(logits.ravel())
            stack = np.stack(uploads)

        for a, b in zip(records_a, records_b):
            assert np.array_equal(a.params, b.params)

    def test_fedavg_full_participation_matches_centralized_on_shared_batches(self):
        # identical client datasets, equal shares, tau=1: the averaged update
        # equals one step on the concatenation of the per-client batches
        from fedckt.data import minibatch
        from fedckt.models import grad_local

        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=3, init_scale=0.1)
        shared = make_bundle(seed=77)
        bundles = assign_data_fractions([shared, shared])
        records = [
            ClientRecord(id=i, spec=spec, params=init_params(spec, seed=50), bundle=b)
            for i, b in enumerate(bundles)
        ]
        cfg = config(rounds=1, local_iters=1, num_selected=2, seed=13, lr=0.2, batch_size=6)
        run_rounds("fedavg", records, None, cfg)

        w = init_params(spec, seed=50)
        grads = []
        for rec in records:
            rng = substream(cfg.seed, "batch", rec.id, 0)
            idx = minibatch(rec.bundle.train, cfg.batch_size, rng)
            grads.append(
                grad_local(spec, w, rec.bundle.train.inputs[idx], rec.bundle.train.labels[idx])
            )
        centralized = w - cfg.lr * np.mean(grads, axis=0)
        assert np.allclose(records[0].params, centralized, atol=1e-12)


class TestPersistence:
    def test_reselected_client_resumes_exactly(self):
        records, pool = make_population(num_clients=2, seed=9)
        cfg = config(rounds=6, num_selected=1, num_clusters=1, seed=21)
        run_rounds("perfed_ckt", records, pool, cfg)
        # replay: a client's params change only on rounds it was selected and
        # resume from its own last state
        records_replay, _ = make_population(num_clients=2, seed=9)
        by_id = {r.id: r for r in records_replay}
        weights = np.array([r.bundle.p_k for r in records_replay])
        boot = sample_clients(weights, 1, substream(cfg.seed, "select", "bootstrap"))
        (p,) = boot
        stack = forward_logits(
            records_replay[p].spec, records_replay[p].params, pool
        ).reshape(1, -1)
        from fedckt.rng import derive_seed

        for t in range(cfg.rounds):
            centroids, _ = cmeans_fit(
                stack, 1, seed=derive_seed(cfg.seed, "cluster-seed", t)
            )
            picks = sample_clients(weights, 1, substream(cfg.seed, "select", t))
            cid = records_replay[picks[0]].id
            rec = by_id[cid]
            own = forward_logits(rec.spec, rec.params, pool)
            sbar = centroids.centroids[assign_nearest(own.ravel(), centroids)].reshape(
                len(pool), rec.spec.num_classes
            )
            params, logits = client_local_round(rec, sbar, pool, cfg, t)
            rec.params = params
            stack = logits.reshape(1, -1)

        for orig, replay in zip(records, records_replay):
            assert np.array_equal(orig.params, replay.params)


class TestLedgers:
    def test_perfed_ledger_matches_closed_form(self):
        records, pool = make_population(num_clients=4)
        cfg = config(rounds=5, num_selected=3, num_clusters=2)
        result = run_rounds("perfed_ckt", records, pool, cfg)
        n = records[0].spec.num_classes
        p = len(pool)
        t, m, c = cfg.rounds, 3, 2
        assert result.ledger.uplink_scalars == t * m * p * n
        assert result.ledger.downlink_scalars == t * m * c * p * n
        assert result.ledger.total_scalars == t * m * p * n * (1 + c)

    def test_fedavg_ledger_matches_closed_form(self):
        records, _ = make_population(num_clients=4)
        cfg = config(rounds=5, num_selected=3)
        result = run_rounds("fedavg", records, None, cfg)
        n_par = param_count(records[0].spec)
        assert result.ledger.total_scalars == cfg.rounds * 2 * 3 * n_par

    def test_local_only_never_communicates(self):
        records, _ = make_population(num_clients=3)
        result = run_rounds("local", records, None, config(rounds=4, num_selected=3))
        assert result.ledger.total_scalars == 0


class TestDeterminism:
    def metrics_fingerprint(self, result):
        return [
            (
                m.round_index,
                m.mean_accuracy,
                m.std_accuracy,
                m.grad_norm_mean,
                m.uplink_scalars,
                m.downlink_scalars,
            )
            for m in result.metrics
        ]

    def test_rerun_identical(self):
        records_a, pool = make_population(num_clients=4, seed=31)
        records_b, _ = make_population(num_clients=4, seed=31)
        cfg = config(rounds=4, num_selected=2)
        fp_a = self.metrics_fingerprint(run_rounds("perfed_ckt", records_a, pool, cfg))
        fp_b = self.metrics_fingerprint(run_rounds("perfed_ckt", records_b, pool, cfg))
        assert fp_a == fp_b
        for a, b in zip(records_a, records_b):
            assert np.array_equal(a.params, b.params)


class TestEvaluation:
    def test_perfect_fit_scores_one(self):
        # widely separated blobs: a converged softmax classifier is exact
        from fedckt.models import grad_local

        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=3, init_scale=0.1)
        bundle = assign_data_fractions([make_bundle(seed=41, separation=100.0)])[0]
        rec = ClientRecord(id=0, spec=spec, params=init_params(spec, seed=41), bundle=bundle)
        data = rec.bundle.test
        for _ in range(400):
            rec.params = rec.params - 0.5 * grad_local(rec.spec, rec.params, data.inputs, data.labels)
        assert evaluate_clients([rec])[0] == 1.0

    def test_chance_level_for_uniform_predictor(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=10, init_scale=0.0)
        data = blobs(10, 2, 200, 0.01, seed=1)
        bundle = ClientDataBundle(train=data, val=data, test=data, p_k=1.0)
        rec = ClientRecord(id=0, spec=spec, params=init_params(spec, 0), bundle=bundle)
        acc = accuracy_on(spec, rec.params, data)
        # all-zero params predict class 0 everywhere: accuracy = class share
        assert abs(acc - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / len(data))

    def test_matches_sample_by_sample_recount(self):
        records, _ = make_population(num_clients=2, seed=42)
        accs = evaluate_clients(records)
        for rec, acc in zip(records, accs):
            probs = forward_logits(rec.spec, rec.params, rec.bundle.test.inputs)
            manual = np.mean(
                [
                    float(np.argmax(row) == label)
                    for row, label in zip(probs, rec.bundle.test.labels)
                ]
            )
            assert acc == manual


class TestGradNormMonitor:
    def test_zero_at_exact_minimizer(self):
        # every input appears once with each label, so the uniform prediction
        # of the zero parameters is the cross-entropy minimizer
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=2)
        x = substream(43).normal(size=(10, 2))
        data = RawDataset(np.vstack([x, x]), np.repeat([0, 1], 10), 2)
        bundle = ClientDataBundle(train=data, val=data, test=data, p_k=1.0)
        rec = ClientRecord(id=0, spec=spec, params=np.zeros(param_count(spec)), bundle=bundle)
        assert grad_norm_monitor(rec, None, None, 0.0) <= 1e-8

    def test_decreasing_trend_under_robbins_monro(self):
        # convex softmax model, decaying steps: the median norm over the last
        # tenth of rounds sits below the median over the first tenth
        records, pool = make_population(num_clients=3, seed=46, train=40)
        cfg = config(
            rounds=150,
            local_iters=1,
            num_selected=3,
            num_clusters=1,
            batch_size=40,
            public_batch_size=len(pool),
            distill_weight=0.5,
            lr=0.5,
            lr_mode="robbins_monro",
            lr_decay=0.01,
            eval_interval=1,
        )
        result = run_rounds("perfed_ckt", records, pool, cfg)
        medians = np.array([m.grad_norm_median for m in result.metrics])
        assert np.median(medians[-15:]) < np.median(medians[:15])

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_reused_pool_probabilities_give_the_same_norm(self, lam):
        # the perfed monitor passes the probabilities its centroid pick
        # computed; the gradient must not change, nor write into them
        records, pool = make_population(num_clients=1, seed=44)
        rec = records[0]
        sbar = np.full((len(pool), rec.spec.num_classes), 1.0 / rec.spec.num_classes)
        probs = forward_logits(rec.spec, rec.params, pool)
        before = probs.copy()
        norm = grad_norm_monitor(rec, pool, sbar, lam)
        assert grad_norm_monitor(rec, pool, sbar, lam, probs) == norm
        assert probs.tobytes() == before.tobytes()

    def test_matches_finite_differences(self):
        records, pool = make_population(num_clients=1, seed=44)
        rec = records[0]
        sbar = np.full((len(pool), rec.spec.num_classes), 1.0 / rec.spec.num_classes)
        lam = 0.7
        norm = grad_norm_monitor(rec, pool, sbar, lam)
        fd = finite_difference_gradient(
            lambda p: objective_phi(
                rec.spec,
                p,
                rec.bundle.train.inputs,
                rec.bundle.train.labels,
                pool,
                sbar,
                lam,
            ),
            rec.params,
        )
        assert abs(norm - np.linalg.norm(fd)) <= 1e-6 * max(1.0, norm)


class TestDivergence:
    def test_diverged_client_dropped_and_reinitialized(self):
        spec = ModelSpec(ARCH_SOFTMAX, dim=2, num_classes=3)
        (bundle,) = assign_data_fractions([make_bundle(seed=45)])
        records = [ClientRecord(id=0, spec=spec, params=init_params(spec, seed=0), bundle=bundle)]
        cfg = config(rounds=2, num_selected=1, lr=1e308, batch_size=16, distill_weight=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_rounds("local", records, None, cfg)
        assert result.diverged, "exploding step size must be detected"
        assert result.error is None, "caught in training, not in evaluation"
        assert np.all(np.isfinite(records[0].params))


    @pytest.mark.parametrize("algorithm", ["perfed_ckt", "fedavg", "local"])
    def test_overflowing_gradient_norm_ends_the_run(self, algorithm):
        # inputs near 1e160 keep every gradient entry finite while its
        # squares overflow, and a tiny step keeps the parameters finite, so
        # the monitor's norm is the first value to leave float range
        records, pool = make_population(num_clients=2, seed=47, separation=1e160)
        cfg = config(rounds=2, lr=1e-200)
        with np.errstate(all="ignore"):
            result = run_rounds(algorithm, records, pool, cfg)
        assert str(result.error) == "non-finite gradient norm inf"
        assert result.diverged == [(0, 0)]
        assert result.metrics == []
        assert all(np.isfinite(r.params).all() for r in records)


class TestLogitBuffer:
    def test_next_fit_reads_the_surviving_uploads_in_id_order(self, monkeypatch):
        # round 1 drops its second client, round 2 drops every client
        records, pool = make_population(num_clients=5, seed=51)
        cfg = config(rounds=4, num_selected=3, seed=13)
        fit_inputs, uploads = [], {t: [] for t in range(cfg.rounds)}
        calls = {t: 0 for t in range(cfg.rounds)}
        real_fit, real_round = federation.cmeans_fit, federation.client_local_round

        def recording_fit(points, c, seed):
            fit_inputs.append(points.copy())
            return real_fit(points, c, seed)

        def failing_round(rec, sbar, pool, config, t):
            calls[t] += 1
            if t == 2 or (t == 1 and calls[t] == 2):
                raise NumericError("injected")
            params, logits = real_round(rec, sbar, pool, config, t)
            uploads[t].append((rec.id, logits.ravel().copy()))
            return params, logits

        monkeypatch.setattr(federation, "cmeans_fit", recording_fit)
        monkeypatch.setattr(federation, "client_local_round", failing_round)
        result = run_rounds("perfed_ckt", records, pool, cfg)

        assert [len(uploads[t]) for t in range(cfg.rounds)] == [3, 2, 0, 3]
        assert len(result.diverged) == 4 and result.error is None
        for t in (0, 1):
            ids = [cid for cid, _ in uploads[t]]
            assert ids == sorted(ids)
            expected = np.stack([row for _, row in uploads[t]])
            assert np.array_equal(fit_inputs[t + 1], expected)
        # a round without uploads leaves the next fit round 1's rows
        assert np.array_equal(fit_inputs[3], fit_inputs[2])

    def test_perfed_round_holds_one_logit_buffer(self):
        # perfed_dirichlet100's shape: 10 uploads of a 2000 x 10 pool block.
        # The peak is the buffer plus about one more: a fit's working set
        # (under 1.0 buffers, see test_clustering.TestMemory) or the
        # monitor's full-pool gradient, measured at 2.00 buffers. Keeping
        # last round's centroid set, target and upload alive into the fit
        # measured 2.15, with the objective's (m, L) gather too 2.81; the
        # previous round's uploads kept as a list of logit matrices, 3.71. No
        # warm-up run: a process's first run reads the same as a later one,
        # since the metrics median no longer imports numpy.ma (about 1 MB).
        records, _ = make_population(num_clients=10, num_classes=10, train=40)
        pool = substream(217).normal(size=(2000, 2))
        cfg = config(rounds=3, local_iters=1, num_clusters=3, num_selected=10)
        buffer_bytes = 10 * len(pool) * 10 * 8
        peak = traced_peak(run_rounds, "perfed_ckt", records, pool, cfg)
        assert peak < 2.1 * buffer_bytes, peak / buffer_bytes

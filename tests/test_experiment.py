import json

import numpy as np
import pytest

import fedckt.experiment
from fedckt.data import class_means
from fedckt.errors import ConfigurationError
from fedckt.experiment import (
    DataConfig,
    ModelConfig,
    build_population,
    write_checkpoints,
    write_metrics_csv,
    write_partition_stats,
    write_summary_json,
)
from fedckt.federation import RoundMetrics
from fedckt.models import ARCH_MLP, ARCH_SOFTMAX, param_count
from fedckt.rng import derive_seed

from helpers import read_checkpoints


def small_data_cfg(**kwargs):
    base = dict(
        population="dirichlet",
        num_classes=4,
        dim=3,
        samples_per_class=150,
        class_separation=4.0,
        alpha=0.5,
        num_clients=8,
        public_pool_size=60,
        public_offset=2.0,
    )
    base.update(kwargs)
    return DataConfig(**base)


class TestBuildPopulation:
    def test_shares_sum_to_one_and_pool_size(self):
        records, pool = build_population(small_data_cfg(), ModelConfig(), master_seed=1)
        assert len(records) == 8
        assert len(pool) == 60
        total = sum(r.bundle.p_k for r in records if r.bundle.active)
        assert abs(total - 1.0) <= 1e-12

    def test_deterministic_under_master_seed(self):
        a, pool_a = build_population(small_data_cfg(), ModelConfig(), master_seed=2)
        b, pool_b = build_population(small_data_cfg(), ModelConfig(), master_seed=2)
        assert np.array_equal(pool_a, pool_b)
        for x, y in zip(a, b):
            assert np.array_equal(x.params, y.params)
            assert np.array_equal(x.bundle.train.inputs, y.bundle.train.inputs)

    def test_pool_is_domain_shifted_relative_to_private_means(self):
        cfg = small_data_cfg(public_offset=5.0, public_pool_size=400, samples_per_class=200)
        records, pool = build_population(cfg, ModelConfig(), master_seed=3)
        data_seed = derive_seed(3, "data")
        means = class_means(cfg.num_classes, cfg.dim, cfg.class_separation, data_seed)
        # pool samples concentrate around the shifted means, not the originals
        shifted = means + cfg.public_offset
        d_shift = np.min(
            np.linalg.norm(pool[:, None, :] - shifted[None], axis=2), axis=1
        ).mean()
        d_orig = np.min(
            np.linalg.norm(pool[:, None, :] - means[None], axis=2), axis=1
        ).mean()
        assert d_shift < d_orig

    def test_largest_finite_separation_keeps_inputs_finite(self):
        # the loader bounds abs(class_separation) + abs(public_offset); unit
        # noise around a finite mean rounds back to a finite value
        cfg = small_data_cfg(
            class_separation=1.7976931348623157e308,
            public_offset=0.0,
            dim=1,
            num_classes=2,
            samples_per_class=20,
            num_clients=2,
            public_pool_size=10,
        )
        records, pool = build_population(cfg, ModelConfig(), master_seed=0)
        for rec in records:
            for split in (rec.bundle.train, rec.bundle.val, rec.bundle.test):
                assert np.isfinite(split.inputs).all()
        assert pool.shape == (10, 1) and np.isfinite(pool).all()

    def test_heterogeneous_specs_follow_share_terciles(self):
        records, _ = build_population(
            small_data_cfg(num_clients=9, alpha=0.4),
            ModelConfig(kind="heterogeneous", hidden=12, hidden_small=6),
            master_seed=4,
        )
        active = [r for r in records if r.bundle.active]
        shares = np.array([r.bundle.p_k for r in active])
        sizes = np.array([param_count(r.spec) for r in active])
        # larger data share never gets a smaller model
        order = np.argsort(shares)
        assert all(
            sizes[order[i]] <= sizes[order[j]] + 1e-9
            for i in range(len(order))
            for j in range(i + 1, len(order))
        )
        assert {r.spec.arch for r in active} <= {ARCH_SOFTMAX, ARCH_MLP}

    def test_two_group_label_supports_disjoint(self):
        cfg = small_data_cfg(
            population="two_group", num_classes=10, num_clients=6, samples_per_class=200
        )
        records, _ = build_population(cfg, ModelConfig(), master_seed=5)
        first = records[:3]
        second = records[3:]
        labels_a = set(
            np.concatenate([r.bundle.train.labels for r in first if r.bundle.active]).tolist()
        )
        labels_b = set(
            np.concatenate([r.bundle.train.labels for r in second if r.bundle.active]).tolist()
        )
        assert labels_a <= set(range(5))
        assert labels_b <= set(range(5, 10))

    def test_two_group_groups_share_input_regions(self):
        cfg = small_data_cfg(
            population="two_group", num_classes=10, num_clients=6, samples_per_class=300
        )
        records, _ = build_population(cfg, ModelConfig(), master_seed=6)
        group_a = np.vstack([r.bundle.train.inputs for r in records[:3] if r.bundle.active])
        group_b = np.vstack([r.bundle.train.inputs for r in records[3:] if r.bundle.active])
        # same blob locations for both groups: the means nearly coincide
        assert np.linalg.norm(group_a.mean(axis=0) - group_b.mean(axis=0)) < 1.0

    def test_train_fractions_drawn_from_stated_set(self):
        records, _ = build_population(small_data_cfg(), ModelConfig(), master_seed=1)
        tenths = set()
        for r in records:
            if not r.bundle.active:
                continue
            b = r.bundle
            n = len(b.train) + len(b.val) + len(b.test)
            matches = [t for t in (1, 3, 4) if (t * n) // 10 == len(b.train)]
            assert matches
            tenths.update(matches)
        assert len(tenths) > 1

    def test_two_group_requires_even_counts(self):
        with pytest.raises(ConfigurationError):
            small_data_cfg(population="two_group", num_classes=5)


class TestCheckpoints:
    def test_roundtrip_with_manifest(self, tmp_path):
        records, _ = build_population(small_data_cfg(), ModelConfig(), master_seed=7)
        active = [r for r in records if r.bundle.active]
        write_checkpoints(active, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt/manifest.json").read_text())
        assert len(manifest["clients"]) == len(active)
        loaded = read_checkpoints(tmp_path / "ckpt")
        for rec in active:
            assert np.array_equal(loaded[rec.id], rec.params)

    def test_manifest_failure_mid_dump_keeps_previous_manifest(self, tmp_path, monkeypatch):
        records, _ = build_population(small_data_cfg(), ModelConfig(), master_seed=8)
        active = [r for r in records if r.bundle.active]
        write_checkpoints(active, tmp_path / "ckpt")
        path = tmp_path / "ckpt/manifest.json"
        before = path.read_bytes()
        # the first entry's fields are dumped before its param_count raises
        monkeypatch.setattr(fedckt.experiment, "param_count", lambda spec: object())
        with pytest.raises(TypeError):
            write_checkpoints(active, tmp_path / "ckpt")
        assert path.read_bytes() == before
        assert not (tmp_path / "ckpt/.manifest.json.tmp").exists()

    def test_params_failure_mid_write_keeps_previous_files(self, tmp_path, monkeypatch):
        records, _ = build_population(small_data_cfg(), ModelConfig(), master_seed=9)
        active = [r for r in records if r.bundle.active]
        directory = tmp_path / "ckpt"
        write_checkpoints(active, directory)
        before = {p.name: p.read_bytes() for p in directory.iterdir()}

        def broken(fh, spec, params):
            fh.write(b"FKPV")
            raise OSError("disk full")

        monkeypatch.setattr(fedckt.experiment, "save_params", broken)
        for rec in active:
            rec.params = rec.params + 1.0
        with pytest.raises(OSError):
            write_checkpoints(active, directory)
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


class TestAtomicOutputs:
    ROW = RoundMetrics(0, 0.5, 0.1, 1.0, 1.0, 2.0, 3, 4)

    def test_metrics_failure_mid_write_leaves_nothing(self, tmp_path):
        # the header and first row are written before the second row raises
        with pytest.raises(AttributeError):
            write_metrics_csv(tmp_path / "metrics.csv", [self.ROW, None])
        assert list(tmp_path.iterdir()) == []

    def test_summary_failure_mid_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(path, {"run": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_summary_json(path, {"a": list(range(100)), "b": object()})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_success_writes_only_the_target(self, tmp_path):
        write_metrics_csv(tmp_path / "metrics.csv", [self.ROW])
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[1] == "0,0.5,0.1,1.0,3,4"

    def test_partition_stats_failure_mid_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "partition_stats.json"
        write_partition_stats(path, small_data_cfg(), master_seed=1)
        before = path.read_bytes()
        monkeypatch.setattr(
            fedckt.experiment, "partition_summary", lambda shards: {"a": [0] * 100, "b": object()}
        )
        with pytest.raises(TypeError):
            write_partition_stats(path, small_data_cfg(), master_seed=1)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

"""The benchmark's own tests, at smoke size: python3 -m pytest -q bench/tests"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from workloads import WORKLOADS, expected_counts, to_toml  # noqa: E402

from fedckt import experiment, federation, runconfig  # noqa: E402


def _smoke(name, trace, expected="recorded"):
    if expected == "recorded":
        expected = bench.recorded_digests(name, bench.DEFAULT_SEED, smoke=True)
    return bench.run_workload(
        name, bench.DEFAULT_SEED, 0.0, trace, smoke=True, expected=expected, root=ROOT
    )


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(name):
    assert bench.recorded_digests(name, bench.DEFAULT_SEED, smoke=True) is not None
    outcome = _smoke(name, trace=False)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_RUNS
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_passes_the_count_self_check(name):
    outcome = _smoke(name, trace=True)
    result = outcome["result"]
    assert result["correct"], result
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    sections = WORKLOADS[name].config(bench.DEFAULT_SEED, smoke=True)
    without_active, with_one = expected_counts(sections, 0), expected_counts(sections, 1)
    for metric, count in without_active.items():
        if metric in result["metrics"] and with_one[metric] == count:
            assert result["metrics"][metric]["value"] == count, metric


def test_wrong_digest_counts_as_failed_run():
    name = "perfed_converge10"
    wrong = {key: "0" * 64 for key in bench.recorded_digests(name, bench.DEFAULT_SEED, True)}
    result = _smoke(name, trace=False, expected=wrong)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missed_binding_site_fails_the_self_check(monkeypatch):
    """Counts the wrapper would miss if it only patched the defining module."""
    name = "perfed_converge10"
    real = bench.expected_counts

    def one_more(sections, active):
        counts = real(sections, active)
        counts["models.forward_logits.calls"] += 1
        return counts

    monkeypatch.setattr(bench, "expected_counts", one_more)
    result = _smoke(name, trace=True)["result"]
    assert not result["correct"] and result["failed"] >= 1


def test_workload_configs_need_no_deprecated_or_loose_fields():
    """No `parallel` key, and an int literal (never a bool or float) for every
    integer field, so planned config validation accepts the workloads."""
    classes = {
        "data": experiment.DataConfig,
        "models": experiment.ModelConfig,
        "federation": federation.FederationConfig,
        "theory": runconfig.TheoryConfig,
    }
    for workload in WORKLOADS.values():
        for smoke in (False, True):
            sections = workload.config(bench.DEFAULT_SEED, smoke)
            assert "parallel" not in sections.get("federation", {})
            for section, body in sections.items():
                cls = runconfig.TheoryTaskConfig if section.startswith("theory.") else classes.get(section)
                if cls is None:
                    continue
                for key, value in body.items():
                    annotation = cls.__dataclass_fields__[key].type
                    if annotation in ("int", "int | None"):
                        assert type(value) is int, (workload.name, section, key)
            runconfig.config_from_sections(runconfig.parse_flat_toml(to_toml(sections)))


def test_exits_without_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "theory_oracle", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The fedckt names the benchmark under bench/ binds by string or import.

bench/child.py traces functions by their `module.function` names and
bench/run.py reads their counts, so a rename or a move in src/ would only
show in the slow bench/tests run. These checks read bench/ and run nothing
of it but the name tables and workload configs.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from fedckt import runconfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/'s three modules, imported by their own top-level names; the
    path entries they add and the names they newly bind are undone after."""
    names = ("child", "run", "workloads")
    saved_path, fresh = list(sys.path), [n for n in names if n not in sys.modules]
    sys.path.insert(0, str(BENCH))
    try:
        yield types.SimpleNamespace(**{n: importlib.import_module(n) for n in names})
    finally:
        sys.path[:] = saved_path
        for name in fresh:
            sys.modules.pop(name, None)


def assert_traceable(qualified: str) -> None:
    """`module.function` names a function defined in fedckt.<module>: the
    tracer wraps only functions whose __module__ is the defining module."""
    module_name, _, attr = qualified.partition(".")
    module = importlib.import_module(f"fedckt.{module_name}")
    fn = getattr(module, attr, None)
    assert isinstance(fn, types.FunctionType), qualified
    assert fn.__module__ == module.__name__, qualified


def test_expected_count_keys_name_functions(bench):
    names = set()
    for workload in bench.workloads.WORKLOADS.values():
        for smoke in (False, True):
            sections = workload.config(bench.run.DEFAULT_SEED, smoke)
            counts = bench.workloads.expected_counts(sections, 1)
            names |= {key.rsplit(".", 1)[0] for key in counts}
    assert len(names) > 10
    for name in sorted(names):
        assert_traceable(name)


def test_writers_setup_and_loop_functions_exist(bench):
    for name in (
        *(f"experiment.{fn}" for fn in bench.run.WRITERS),
        *bench.child.SETUP_FUNCTIONS,
        *bench.child.COUNTERS,
        "experiment.run_algorithm",
        "federation.run_rounds",
    ):
        assert_traceable(name)


def test_config_classes_and_parsers_exist(bench):
    from fedckt import experiment, federation

    for cls in (
        experiment.DataConfig,
        experiment.ModelConfig,
        federation.FederationConfig,
        runconfig.TheoryConfig,
        runconfig.TheoryTaskConfig,
    ):
        assert cls.__dataclass_fields__
    for workload in bench.workloads.WORKLOADS.values():
        for smoke in (False, True):
            sections = workload.config(bench.run.DEFAULT_SEED, smoke)
            text = bench.workloads.to_toml(sections)
            runconfig.config_from_sections(runconfig.parse_flat_toml(text))

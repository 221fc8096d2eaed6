import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fedckt import theory
from fedckt.cli import main
from fedckt.experiment import build_population
from fedckt.runconfig import config_from_sections, load_config, parse_flat_toml
from fedckt.errors import ConfigurationError

SMOKE_TOML = """
[run]
algorithm = "perfed_ckt"
seed = 42

[data]
population = "dirichlet"
num_classes = 3
dim = 2
samples_per_class = 60
class_separation = 4.0
alpha = 10.0
num_clients = 2
public_pool_size = 30
public_offset = 1.0

[models]
kind = "softmax_linear"
init_scale = 0.05

[federation]
rounds = 1
local_iters = 2
num_selected = 2
batch_size = 8
public_batch_size = 8
distill_weight = 0.5
num_clusters = 1
lr = 0.05
"""

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SMOKE_FILE = Path(__file__).resolve().parents[1] / "configs/smoke.toml"
THEORY_FILE = Path(__file__).resolve().parents[1] / "configs/theory_check.toml"
DIRICHLET_FILE = Path(__file__).resolve().parents[1] / "configs/dirichlet_perfed.toml"

THEORY_TOML = """
[run]
algorithm = "theory_check"
seed = 5

[theory]
num_samples = 20000
lambda_points = 9
lambda_span = 3.0
alpha_resolution = 10
tolerance = 0.02
{extra}
[theory.task1]
num_clients = 3
dim = 2
sigma = 1.0
beta = 1.0
nu = 1.0
upsilon = [1.0, 1.0, 1.0]
n_samples = 6
client = 0
"""


MUTATION_BASES = {"smoke": SMOKE_FILE.read_text(), "theory": THEORY_TOML.format(extra="")}
MUTATION_TARGETS = [
    (name, key)
    for name, text in MUTATION_BASES.items()
    for key in re.findall(r"^(\w+) = ", text, re.M)
]


def theory_task2_with(old, new):
    """The shipped theory config with one line of [theory.task2] replaced, so
    task 1 comes before the bad value."""
    head, _, rest = THEORY_FILE.read_text().partition("[theory.task2]")
    body, _, tail = rest.partition("[theory.task3]")
    assert old in body
    return f"{head}[theory.task2]{body.replace(old, new)}[theory.task3]{tail}"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParser:
    def test_sections_and_types(self):
        sections = parse_flat_toml(
            '[a]\nx = 1\ny = 2.5\nz = "s"\nflag = true\narr = [1, 2, 3]\n[b.c]\nk = -4\n'
        )
        assert sections["a"] == {"x": 1, "y": 2.5, "z": "s", "flag": True, "arr": [1, 2, 3]}
        assert sections["b.c"] == {"k": -4}

    def test_comments_and_blanks(self):
        sections = parse_flat_toml("# top\n[a]\nx = 1  # trailing\n\n")
        assert sections == {"a": {"x": 1}}

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("x = 1\n", "outside of any"),
            ("[a\nx = 1\n", "malformed section"),
            ("[a]\nnonsense\n", "expected"),
            ("[a]\nx = \n", "empty value"),
            ("[a]\nx = [1, 2\n", "unterminated array"),
            ("[a]\nx = zebra\n", "cannot parse"),
            ("[a]\nx = 1\nx = 2\n", "duplicate key"),
        ],
    )
    def test_malformed_lines_diagnosed(self, text, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            parse_flat_toml(text, source="cfg.toml")

    def test_diagnostics_carry_line_numbers(self):
        with pytest.raises(ConfigurationError, match="cfg.toml:3"):
            parse_flat_toml("[a]\nx = 1\nbroken line\n", source="cfg.toml")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "bad.toml", SMOKE_TOML + "\n[data]\n")
        # duplicate section merges; inject unknown key instead
        path.write_text(SMOKE_TOML.replace("public_offset = 1.0", "mystery = 1.0"))
        with pytest.raises(ConfigurationError, match="mystery"):
            load_config(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = write(tmp_path, "bad.toml", SMOKE_TOML.replace("perfed_ckt", "magic"))
        with pytest.raises(ConfigurationError, match="algorithm"):
            load_config(path)

    def test_json_roundtrip_preserves_config(self, tmp_path):
        from fedckt.runconfig import config_to_sections

        cfg = load_config(write(tmp_path, "smoke.toml", SMOKE_TOML))
        echoed = config_to_sections(cfg)
        rebuilt = config_from_sections(json.loads(json.dumps(echoed)))
        assert rebuilt == cfg

    def test_theory_json_roundtrip_preserves_config(self):
        from fedckt.runconfig import config_to_sections

        cfg = load_config(THEORY_FILE)
        echoed = config_to_sections(cfg)
        assert [name for name in echoed if name.startswith("theory.task")] == [
            "theory.task1",
            "theory.task2",
            "theory.task3",
        ]
        assert config_from_sections(json.loads(json.dumps(echoed))) == cfg

    def test_theory_tasks_ordered_by_number(self, tmp_path):
        # the task index seeds its draws, so task10 must come after task2
        text = THEORY_TOML.format(extra="")
        for number, n_samples in ((10, 9), (2, 7)):
            text += f"[theory.task{number}]\nn_samples = {n_samples}\n"
        cfg = load_config(write(tmp_path, "theory.toml", text))
        assert [t.n_samples for t in cfg.theory.tasks] == [6, 7, 9]

    @pytest.mark.parametrize(
        "sections,named",
        [
            ("[theory.taskfoo]\n", "[theory.taskfoo]"),
            ("[theory.task]\n", "[theory.task]"),
            ("[theory.task01]\n", "[theory.task01]"),
        ],
        ids=["word", "empty", "same_number"],
    )
    def test_bad_task_section_exits_2(self, tmp_path, capsys, sections, named):
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra="") + sections)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err
        assert not (tmp_path / "t" / "theory_report.json").exists()


class TestRunCommand:
    def test_smoke_run_single_metrics_row(self, tmp_path):
        import time

        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        out = tmp_path / "out"
        start = time.time()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.time() - start < 1.0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "round,mean_acc,std_acc,grad_norm,uplink,downlink"
        assert len(lines) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["run"]["seed"] == 42

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()

    def test_summary_config_refeeds_bit_exactly(self, tmp_path):
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        echoed = json.loads((tmp_path / "a/summary.json").read_text())["config"]
        refed = write(tmp_path, "refed.json", json.dumps(echoed))
        assert main(["run", "--config", str(refed), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/metrics.csv").read_bytes() == (
            tmp_path / "b/metrics.csv"
        ).read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.toml")]) == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.toml", "[run\nalgorithm=perfed_ckt\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bad.toml:1" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.toml"
        cfg.write_bytes(b'[run]\nalgorithm = "perfed_ckt"\n# \xff\xfe\nseed = 42\n')
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: ") and "bad.toml:3" in err[0]

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        bom = tmp_path / "bom.toml"
        bom.write_bytes(b"\xef\xbb\xbf" + SMOKE_FILE.read_bytes())
        for cfg in (SMOKE_FILE, bom):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
        assert (tmp_path / "bom/metrics.csv").read_bytes() == (
            tmp_path / "smoke/metrics.csv"
        ).read_bytes()
        # a decode error after the mark still names its own line
        bom.write_bytes(b'\xef\xbb\xbf[run]\nseed = 1\n\xff\n')
        assert main(["run", "--config", str(bom), "--out", str(tmp_path / "bad")]) == 2
        assert capsys.readouterr().err == f"config error: {bom}:3: not UTF-8 text\n"

    def test_unwritable_out_exits_2(self, tmp_path):
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["run", "--config", str(cfg), "--out", str(blocker / "sub")]) == 2

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        assert main(["run", "--config", str(cfg), "--out", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and "File exists" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_unwritable_metrics_file_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        out = tmp_path / "out"
        (out / "metrics.csv").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and "metrics.csv" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (out / ".metrics.csv.tmp").exists()

    def test_divergence_exits_3(self, tmp_path, capsys):
        # a step size at the float ceiling overflows the first update
        cfg = write(tmp_path, "explode.toml", SMOKE_TOML.replace("lr = 0.05", "lr = 1e308"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_degenerate_dirichlet_draw_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "flat.toml", SMOKE_TOML.replace("alpha = 10.0", "alpha = 1e308"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "numeric error: degenerate Dirichlet draw at alpha=1e+308\n"

    def test_numeric_error_in_eval_exits_3(self, tmp_path, capsys, monkeypatch):
        import fedckt.federation
        from fedckt.errors import NumericError

        def broken(*args, **kwargs):
            raise NumericError("non-finite probabilities in evaluation")

        monkeypatch.setattr(fedckt.federation, "accuracy_on", broken)
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "non-finite probabilities" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            # local SGD at the float ceiling leaves finite MLP weights whose
            # test-set forward pass overflows
            SMOKE_TOML.replace("perfed_ckt", "local")
            .replace('kind = "softmax_linear"', 'kind = "mlp"')
            .replace("lr = 0.05", "lr = 1e308")
            .replace("rounds = 1", "rounds = 3"),
            # initial weights near the float ceiling overflow perfed's
            # bootstrap upload, which is recorded as round 0
            SMOKE_TOML.replace("init_scale = 0.05", "init_scale = 4e307"),
        ],
        ids=["local_eval", "perfed_bootstrap"],
    )
    def test_eval_overflow_keeps_outputs(self, tmp_path, capsys, text):
        # the rounds before the failure, the event and the checkpoints are
        # still written
        cfg = write(tmp_path, "overflow.toml", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numeric error: non-finite model output" in err
        assert "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged_events"] == [[0, 0]]
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        last = summary["diverged_events"][-1][1]  # the round that ended the run
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(last))
        manifest = json.loads((out / "checkpoints/manifest.json").read_text())
        assert len(manifest["clients"]) == 2

    @pytest.mark.parametrize(
        "old,new",
        [
            ("rounds = 1", "rounds = 2.5"),
            ("rounds = 1", "rounds = true"),
            ("lr = 0.05", "lr = nan"),
            ("lr = 0.05", "lr = inf"),
            ("lr = 0.05", "lr = false"),
            ("num_clusters = 1", "num_clusters = 1.5"),
            ("alpha = 10.0", "alpha = true"),
            ("init_scale = 0.05", "init_scale = -1.0"),
            ("init_scale = 0.05", "init_scale = 1e308"),
            ("seed = 42", "seed = 1.5"),
            ("num_classes = 3", "num_classes = 1"),
            ("dim = 2", "dim = 0"),
            ("samples_per_class = 60", "samples_per_class = 0"),
            pytest.param("lr = 0.05", "lr = 1" + "0" * 400, id="lr-huge-int"),
        ],
    )
    def test_mistyped_field_exits_2(self, tmp_path, capsys, old, new):
        cfg = write(tmp_path, "typed.toml", SMOKE_TOML.replace(old, new))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert new.splitlines()[-1].split(" = ")[0] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "seed = 42",
                'seed = 42\nout_dir = "elsewhere"',
                'config error: spelling.toml:5: [run] out_dir = "elsewhere": unknown key',
            ),
            (
                'algorithm = "perfed_ckt"',
                'algorithm = "toy"',
                'config error: spelling.toml:3: [run] algorithm = "toy": must be one of '
                "('perfed_ckt', 'fedavg', 'local', 'theory_check', 'partition_stats')",
            ),
            (
                "lr = 0.05",
                "lr = 0.05\n[toy]\nnum_seeds = 3",
                "config error: spelling.toml:30: [toy]: unknown section",
            ),
            (
                "num_selected = 2",
                "selected_fraction = 1.0",
                "config error: spelling.toml:24: [federation] selected_fraction = 1.0: unknown key",
            ),
            (
                "lr = 0.05",
                "lr = 0.05\nkmeans_max_iters = 5",
                "config error: spelling.toml:30: [federation] kmeans_max_iters = 5: unknown key",
            ),
            (
                "lr = 0.05",
                "lr = 0.05\nkmeans_tol = 0.1",
                "config error: spelling.toml:30: [federation] kmeans_tol = 0.1: unknown key",
            ),
            (
                "lr = 0.05",
                "lr = 0.05\nseed = 999",
                "config error: spelling.toml:30: [federation] seed = 999: unknown key",
            ),
            (
                "lr = 0.05",
                "lr = 0.05\n[theory]\ncorrupt_lambda_factor = 10.0",
                "config error: spelling.toml:31: [theory] corrupt_lambda_factor = 10.0: "
                "unknown key",
            ),
            (
                "lr = 0.05",
                "lr = 0.05\n[theory]\ntasks = []",
                "config error: spelling.toml:31: [theory] tasks = []: unknown key",
            ),
        ],
        ids=[
            "out_dir",
            "toy_mode",
            "toy_section",
            "selected_fraction",
            "kmeans_max_iters",
            "kmeans_tol",
            "federation_seed",
            "corrupt_lambda_factor",
            "theory_tasks",
        ],
    )
    def test_deleted_spelling_exits_2(self, tmp_path, capsys, monkeypatch, old, new, message):
        # each setting has one spelling: --out, `fedckt toy`, num_selected,
        # the clustering defaults and [run] seed; a relative path, so each
        # message's FILE:LINE is fixed
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "spelling.toml", SMOKE_TOML.replace(old, new))
        assert main(["run", "--config", "spelling.toml", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "name,text,message",
        [
            (
                "data.json",
                '{"run": {"algorithm": "perfed_ckt"}, "data": 5}',
                "config error: [data]: must be a table of keys, got 5",
            ),
            (
                "tasks.json",
                '{"run": {"algorithm": "theory_check"}, "theory": {"tasks": [5]}}',
                "config error: [theory] tasks = [5]: unknown key",
            ),
            (
                "upsilon.toml",
                THEORY_TOML.format(extra="").replace("[1.0, 1.0, 1.0]", '["a", "b", "c"]'),
                'config error: upsilon.toml:19: [theory.task1] upsilon = ["a", "b", "c"]: '
                "every value must be a finite number",
            ),
            (
                "dim0.toml",
                THEORY_TOML.format(extra="").replace("dim = 2", "dim = 0"),
                "config error: dim0.toml:15: [theory.task1] dim = 0: must be >= 1",
            ),
            (
                "dim-1.toml",
                THEORY_TOML.format(extra="").replace("dim = 2", "dim = -1"),
                "config error: dim-1.toml:15: [theory.task1] dim = -1: must be >= 1",
            ),
            (
                # an integer past Python's int-to-string digit limit
                "digits.json",
                '{"run": {"algorithm": "local"}, "data": {"dim": 1' + "0" * 4400 + "}}",
                "config error: digits.json: invalid JSON: Exceeds the limit (4300 digits) for "
                "integer string conversion: value has 4401 digits; "
                "use sys.set_int_max_str_digits() to increase the limit",
            ),
            (
                # a product too long to print
                "product.toml",
                SMOKE_TOML.replace("num_classes = 3", "num_classes = 1" + "0" * 4000).replace(
                    "samples_per_class = 60", "samples_per_class = 1" + "0" * 4000
                ),
                f"config error: product.toml:8: [data] num_classes = 1{'0' * 4000}: "
                "num_classes * samples_per_class * dim exceeds the budget of 100000000 elements",
            ),
        ],
        ids=["data", "tasks", "upsilon", "dim_zero", "dim_negative", "int_digits", "long_product"],
    )
    def test_malformed_section_exits_2(self, tmp_path, capsys, monkeypatch, name, text, message):
        # a relative path, so each message's FILE:LINE is fixed
        monkeypatch.chdir(tmp_path)
        write(tmp_path, name, text)
        assert main(["run", "--config", name, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_mistyped_seed_rejected_in_every_mode(self, tmp_path, capsys):
        text = THEORY_TOML.format(extra="").replace("seed = 5", "seed = 1.5")
        cfg = write(tmp_path, "seed.toml", text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:4: [run] seed = 1.5: must be an integer\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        target=st.sampled_from(MUTATION_TARGETS),
        value=st.sampled_from(
            ["7", "0.5", "true", '"x"', "0", "-1", "-1.5", "1e308", "-1e308", "1e200", "1e-200"]
        ),
    )
    # sigma squared overflows at 1e200 and underflows to 0 at 1e-200
    @example(target=("theory", "sigma"), value="1e200")
    @example(target=("theory", "sigma"), value="1e-200")
    # n_samples = 6 < dim = 7 is reported at n_samples, a key the rule reads
    @example(target=("theory", "dim"), value="7")
    def test_single_key_mutation_never_escapes(self, target, value):
        # "huge" means a huge float: a huge round or step count asks for
        # unbounded time rather than being malformed; huge data sizes are
        # covered by test_huge_size_exits_2_before_allocating
        name, key = target
        base = MUTATION_BASES[name]
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", base, flags=re.M)
        line = base[: re.search(rf"^{key} = ", base, flags=re.M).start()].count("\n") + 1
        stdout, stderr = io.StringIO(), io.StringIO()
        with (
            tempfile.TemporaryDirectory() as tmp,
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
        ):
            cfg = write(Path(tmp), "mutated.toml", text)
            locations = {}
            parse_flat_toml(text, str(cfg), locations)
            try:
                load_config(cfg)
                reads = None
            except ConfigurationError as exc:
                reads = exc.keys
            code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        # exit 1 only for a failed theory check
        assert code in (0, 2, 3) or (code == 1 and "FAIL" in stdout.getvalue())
        # a value the loader refuses breaks a rule that reads the mutated key,
        # and is reported at the line of a key that rule reads
        if reads is not None:
            mutated = next(k for k, where in locations.items() if where == f"{cfg}:{line}")
            assert mutated in reads
            err = stderr.getvalue()
            assert any(err.startswith(f"config error: {locations.get(k)}: ") for k in reads)

    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch):
        import fedckt.cli

        def broken(*args, **kwargs):
            raise RuntimeError("unexpected state")

        monkeypatch.setattr(fedckt.cli, "build_population", broken)
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError('unexpected state')\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value,hidden,named",
        [
            pytest.param(key, 10**18, (16, 8), key, id=key)
            for key in (
                "num_classes",
                "dim",
                "samples_per_class",
                "public_pool_size",
                "num_clients",
                "hidden",
                "hidden_small",
                "batch_size",
                "public_batch_size",
                "num_samples",
                "n_samples",
                "lambda_points",
                "alpha_resolution",
            )
        ]
        # sizes the data budget admits whose hidden activations (rows times
        # the wider hidden layer) exceed it
        + [
            pytest.param(
                "public_pool_size",
                10**6,
                (1000, 8),
                "public_pool_size * max(hidden, hidden_small)",
                id="public_pool_size_activations",
            ),
            pytest.param(
                "public_pool_size",
                10**6,
                (16, 1000),
                "public_pool_size * max(hidden, hidden_small)",
                id="public_pool_size_activations_small",
            ),
            pytest.param(
                "samples_per_class",
                10**6,
                (1000, 8),
                "num_classes * samples_per_class * max(hidden, hidden_small)",
                id="samples_per_class_activations",
            ),
            pytest.param(
                "batch_size",
                10**6,
                (1000, 8),
                "max(batch_size, public_batch_size) * max(hidden, hidden_small)",
                id="batch_size_activations",
            ),
            pytest.param(
                "public_batch_size",
                10**6,
                (1000, 8),
                "max(batch_size, public_batch_size) * max(hidden, hidden_small)",
                id="public_batch_size_activations",
            ),
        ],
    )
    def test_huge_size_exits_2_before_allocating(
        self, tmp_path, capsys, key, value, hidden, named
    ):
        if key in ("num_samples", "n_samples", "lambda_points", "alpha_resolution"):
            text = THEORY_FILE.read_text()
        else:
            text = SMOKE_FILE.read_text().replace(
                'kind = "softmax_linear"',
                f'kind = "heterogeneous"\nhidden = {hidden[0]}\nhidden_small = {hidden[1]}',
            )
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        cfg = write(tmp_path, "huge.toml", text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err and "budget" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                SMOKE_TOML.replace("dim = 2", "dim = 0"),
                "config error: range.toml:9: [data] dim = 0: must be >= 1",
            ),
            (
                SMOKE_TOML.replace("lr = 0.05", "lr = -1.0"),
                "config error: range.toml:29: [federation] lr = -1.0: must be >= 0",
            ),
            (
                SMOKE_TOML.replace("num_clusters = 1", "num_clusters = 50"),
                "config error: range.toml:28: [federation] num_clusters = 50: "
                "must be <= num_selected (2) for perfed_ckt",
            ),
            (
                THEORY_TOML.format(extra="").replace("dim = 2", "dim = 0"),
                "config error: range.toml:15: [theory.task1] dim = 0: must be >= 1",
            ),
            (
                theory_task2_with("sigma = 1.5", "sigma = 0.0"),
                "config error: range.toml:26: [theory.task2] sigma = 0.0: must be > 0",
            ),
            (
                theory_task2_with("beta = 2.0", "beta = -1.0"),
                "config error: range.toml:27: [theory.task2] beta = -1.0: must be > 0",
            ),
            (
                theory_task2_with("n_samples = 8", "n_samples = 2"),
                "config error: range.toml:30: [theory.task2] n_samples = 2: must be >= dim",
            ),
            (
                theory_task2_with("upsilon = [0.5,", "upsilon = [0.0,"),
                "config error: range.toml:29: [theory.task2] upsilon = [0.0, 0.8, 2.0, 4.0]: "
                "upsilon[client] * upsilon[client] * nu must be > 0",
            ),
            (
                # a positive upsilon[client] whose square underflows to 0
                theory_task2_with("upsilon = [0.5,", "upsilon = [1e-200,"),
                "config error: range.toml:29: [theory.task2] upsilon = [1e-200, 0.8, 2.0, 4.0]: "
                "upsilon[client] * upsilon[client] * nu must be > 0",
            ),
            (
                theory_task2_with("sigma = 1.5", "sigma = 1e200"),
                "config error: range.toml:26: [theory.task2] sigma = 1e+200: "
                "sigma * sigma must be finite and > 0",
            ),
            (
                theory_task2_with("sigma = 1.5", "sigma = 1e-200"),
                "config error: range.toml:26: [theory.task2] sigma = 1e-200: "
                "sigma * sigma must be finite and > 0",
            ),
            (
                theory_task2_with("0.8, 2.0", "-0.8, 2.0"),
                "config error: range.toml:29: [theory.task2] upsilon = [0.5, -0.8, 2.0, 4.0]: "
                "every value must be >= 0",
            ),
            (
                theory_task2_with("num_clients = 4", "num_clients = 1"),
                "config error: range.toml:24: [theory.task2] num_clients = 1: must be >= 2",
            ),
            (
                THEORY_FILE.read_text().replace("lambda_span = 4.0", "lambda_span = 1.0"),
                "config error: range.toml:9: [theory] lambda_span = 1.0: must be > 1",
            ),
            (
                THEORY_FILE.read_text().replace("alpha_resolution = 15", "alpha_resolution = 0"),
                "config error: range.toml:10: [theory] alpha_resolution = 0: must be >= 1",
            ),
            (
                THEORY_FILE.read_text().replace("lambda_points = 15", "lambda_points = 0"),
                "config error: range.toml:8: [theory] lambda_points = 0: must be >= 1",
            ),
            (
                SMOKE_TOML.replace(
                    'kind = "softmax_linear"', 'kind = "heterogeneous"\nhidden_small = 0'
                ),
                "config error: range.toml:19: [models] hidden_small = 0: "
                "must be >= 1 for kind 'heterogeneous'",
            ),
            (
                SMOKE_TOML.replace('kind = "softmax_linear"', 'kind = "linear_regressor"'),
                'config error: range.toml:18: [models] kind = "linear_regressor": '
                "must be one of ('softmax_linear', 'mlp', 'heterogeneous')",
            ),
            (
                SMOKE_TOML.replace("num_clusters = 1", "num_clusters = 0"),
                "config error: range.toml:28: [federation] num_clusters = 0: must be >= 1",
            ),
            (
                SMOKE_TOML.replace("public_pool_size = 30", "public_pool_size = 0"),
                "config error: range.toml:14: [data] public_pool_size = 0: must be >= 1",
            ),
            (
                SMOKE_TOML.replace('algorithm = "perfed_ckt"', "algorithm = 7"),
                "config error: range.toml:3: [run] algorithm = 7: must be one of "
                "('perfed_ckt', 'fedavg', 'local', 'theory_check', 'partition_stats')",
            ),
            (
                # seven rows per class leave one of the two clients active
                SMOKE_TOML.replace("samples_per_class = 60", "samples_per_class = 7"),
                "config error: [federation] num_selected (2) exceeds the 1 active clients",
            ),
            (
                SMOKE_TOML.replace("class_separation = 4.0", "class_separation = 1e308").replace(
                    "public_offset = 1.0", "public_offset = 1e308"
                ),
                "config error: range.toml:15: [data] public_offset = 1e+308: "
                "abs(class_separation) + abs(public_offset) must be finite",
            ),
            (
                # 70 rows over 100 clients: no shard is large enough for three splits
                DIRICHLET_FILE.read_text().replace(
                    "samples_per_class = 500", "samples_per_class = 7"
                ),
                "config error: [data] no active client holds training data",
            ),
            (
                THEORY_TOML.format(extra="").replace("tolerance = 0.02", "tolerance = 0.0"),
                "config error: range.toml:11: [theory] tolerance = 0.0: must be > 0",
            ),
            (
                THEORY_TOML.format(extra="").replace("num_clients = 3", "num_clients = 4"),
                "config error: range.toml:14: [theory.task1] num_clients = 4: "
                "upsilon must list one value per client, got 3",
            ),
            (
                THEORY_TOML.format(extra="").replace("client = 0", "client = 3"),
                "config error: range.toml:21: [theory.task1] client = 3: must be < num_clients (3)",
            ),
            (
                THEORY_TOML.format(extra="").replace("upsilon = [1.0, 1.0, 1.0]", "upsilon = 1.0"),
                "config error: range.toml:19: [theory.task1] upsilon = 1.0: must be an array",
            ),
            (
                SMOKE_TOML.replace("lr = 0.05", 'lr = 0.05\nlr_mode = "cosine"'),
                'config error: range.toml:30: [federation] lr_mode = "cosine": '
                "must be one of ('constant', 'robbins_monro')",
            ),
            (
                # the file does not set lr_decay, so its error has no location
                SMOKE_TOML.replace("lr = 0.05", 'lr = 0.05\nlr_mode = "robbins_monro"'),
                "config error: [federation] lr_decay = 0.0: "
                "must be > 0 for lr_mode 'robbins_monro'",
            ),
            (
                SMOKE_TOML.replace("lr = 0.05", "lr = 0.05\neval_interval = 0"),
                "config error: range.toml:30: [federation] eval_interval = 0: must be >= 1",
            ),
            (
                SMOKE_TOML.replace('kind = "softmax_linear"', 'kind = "mlp"\nhidden = 0'),
                "config error: range.toml:19: [models] hidden = 0: must be >= 1 for kind 'mlp'",
            ),
            (
                SMOKE_TOML.partition("[federation]")[0],
                'config error: range.toml:3: [run] algorithm = "perfed_ckt": '
                "needs a [federation] section",
            ),
            (
                SMOKE_TOML.partition("[federation]")[0] + "[federation]\nrounds = 1\n",
                "config error: range.toml:21: [federation]: missing required keys: local_iters, "
                "batch_size, public_batch_size, distill_weight, num_clusters, lr, num_selected",
            ),
            (
                SMOKE_TOML.replace('algorithm = "perfed_ckt"\n', ""),
                "config error: range.toml:2: [run]: missing required keys: algorithm",
            ),
            (
                SMOKE_TOML.replace('"dirichlet"', '"dirichlet'),
                "config error: range.toml:7 (key 'population'): unterminated string '\"dirichlet'",
            ),
            (
                SMOKE_TOML.replace("dim = 2", "= 2"),
                "config error: range.toml:9: missing key name",
            ),
            (
                SMOKE_TOML.replace("[models]", "[ ]"),
                "config error: range.toml:17: empty section name",
            ),
            (
                '{"run": {"algorithm": "local"},\n "data": {"dim": 0}}',
                "config error: [data] dim = 0: must be >= 1",
            ),
            ('{"run": \n', "config error: range.toml:2: invalid JSON: Expecting value"),
            ("[1, 2]\n", "config error: range.json: top-level JSON must be an object"),
            (
                SMOKE_TOML.replace('"perfed_ckt"', '"fedavg"').replace(
                    '"softmax_linear"', '"heterogeneous"'
                ),
                'config error: range.toml:18: [models] kind = "heterogeneous": '
                "fedavg averages parameters, so every client needs the same architecture",
            ),
            (
                SMOKE_TOML.replace("alpha = 10.0\n", "") + "[data]\nalpha = 0.5\n",
                "config error: range.toml:29: [data]: repeated section (first at line 6)",
            ),
            (
                '{"run": {"algorithm": "local"},\n "data": {"dim": 2},\n "data": {"dim": 3}}',
                'config error: range.json: invalid JSON: repeated key "data"',
            ),
            (
                SMOKE_TOML.replace("seed = 42", "seed = -1"),
                "config error: range.toml:4: [run] seed = -1: must be >= 0",
            ),
            (
                SMOKE_TOML.replace("seed = 42", f"seed = {2**64}"),
                "config error: range.toml:4: [run] seed = 18446744073709551616: "
                "must be <= 18446744073709551615",
            ),
        ],
        ids=[
            "dim",
            "lr",
            "num_clusters",
            "theory_dim",
            "sigma",
            "beta",
            "n_samples",
            "upsilon_client",
            "upsilon_underflow",
            "sigma_overflow",
            "sigma_underflow",
            "upsilon_negative",
            "num_clients",
            "lambda_span",
            "alpha_resolution",
            "lambda_points",
            "hidden_small",
            "model_kind",
            "num_clusters_zero",
            "public_pool_size",
            "algorithm",
            "num_selected",
            "pool_offset",
            "empty_population",
            "tolerance",
            "upsilon_length",
            "client_index",
            "upsilon_scalar",
            "lr_mode",
            "robbins_monro_without_decay",
            "eval_interval",
            "mlp_hidden",
            "missing_federation",
            "federation_missing_keys",
            "missing_algorithm",
            "unterminated_string",
            "missing_key_name",
            "empty_section_name",
            "json_value",
            "invalid_json",
            "non_object_json",
            "fedavg_heterogeneous",
            "repeated_section",
            "repeated_json_key",
            "seed_negative",
            "seed_past_64_bits",
        ],
    )
    def test_range_error_names_its_section(self, tmp_path, capsys, monkeypatch, text, message):
        # a relative path, so each message's FILE:LINE is fixed
        monkeypatch.chdir(tmp_path)
        name = "range.json" if "range.json" in message else "range.toml"
        write(tmp_path, name, text)
        assert main(["run", "--config", name, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_divergence_prints_no_numpy_warnings(self, tmp_path):
        # a fresh interpreter: pytest records warnings instead of printing them
        text = SMOKE_FILE.read_text().replace("lr = 0.05", "lr = 1e308")
        cfg = write(tmp_path, "explode.toml", text)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "fedckt.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        )
        assert proc.returncode == 3
        assert "diverged clients" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("algorithm", ["perfed_ckt", "fedavg"])
    def test_run_leaves_numpy_ma_unimported(self, tmp_path, algorithm):
        # a fresh interpreter, as the test process has numpy.ma already:
        # np.median's NaN check imports it (about 11 ms), the run must not
        text = SMOKE_FILE.read_text().replace('"perfed_ckt"', f'"{algorithm}"')
        cfg = write(tmp_path, "smoke.toml", text)
        out = tmp_path / "out"
        code = (
            "import sys; from fedckt.cli import main; "
            f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(out)!r}]) == 0; "
            "print('numpy.ma' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["grad_norm_median"] > 0.0

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = write(tmp_path, "intlr.toml", SMOKE_TOML.replace("lr = 0.05", "lr = 0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_run_writes_checkpoints(self, tmp_path):
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "checkpoints/manifest.json").read_text())
        assert len(manifest["clients"]) == 2
        blob = (out / "checkpoints" / manifest["clients"][0]["file"]).read_bytes()
        assert blob[:4] == b"FKPV"

    @pytest.mark.parametrize("algorithm", ["fedavg", "local"])
    def test_manifest_records_last_round_for_baselines(self, tmp_path, algorithm):
        # smoke selects both clients every round
        text = SMOKE_TOML.replace("perfed_ckt", algorithm).replace("rounds = 1", "rounds = 3")
        cfg = write(tmp_path, "base.toml", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "checkpoints/manifest.json").read_text())
        assert [c["last_selected_round"] for c in manifest["clients"]] == [2, 2]

    def test_cluster_sweep_comm_totals_follow_downlink_formula(self, tmp_path):
        totals = {}
        for c in (1, 2, 3):
            text = (
                SMOKE_TOML.replace("num_clusters = 1", f"num_clusters = {c}")
                .replace("num_clients = 2", "num_clients = 4")
                .replace("num_selected = 2", "num_selected = 3")
            )
            cfg = write(tmp_path, f"c{c}.toml", text)
            out = tmp_path / f"out{c}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            totals[c] = summary["comm"]["total_scalars"]
        # T=1, m=3, |P|=30, N=3: total = m*P*N*(1+c)
        step = 3 * 30 * 3
        assert totals[2] - totals[1] == step
        assert totals[3] - totals[2] == step


class TestArguments:
    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["run", "--config", str(SMOKE_FILE), "--bogus", "1"], "unrecognized arguments"),
            (["run", "--config", str(SMOKE_FILE), "--seed", "3"], "unrecognized arguments"),
            (["toy", "--num-seeds", "x"], "invalid int value"),
            ([], "required: command"),
            (["run"], "required: --config"),
        ],
        ids=["unknown_flag", "run_seed", "toy_num_seeds", "no_subcommand", "run_without_config"],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, argv, fragment):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: fedckt")
        assert fragment in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert list(tmp_path.iterdir()) == []

    def test_run_help_exits_0_listing_config_and_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-h"])
        assert exc.value.code == 0
        options = re.findall(r"^  (-[-\w]+)", capsys.readouterr().out, re.MULTILINE)
        assert options == ["-h", "--config", "--out"]


class TestTheoryCheckCommand:
    def test_pass_and_report(self, tmp_path, capsys):
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra=""))
        out = tmp_path / "t"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((out / "theory_report.json").read_text())
        assert report["all_passed"] is True
        task = report["tasks"][0]
        assert {"closed_form_loss", "relative_gap", "oracle", "closed_form"} <= set(task)
        assert np.isclose(task["closed_form"]["alpha_sum"], 1.0)

    def test_corrupted_lambda_fails(self, tmp_path, capsys, monkeypatch):
        # the oracle scores a closed form with lambda off by 10x; the grid
        # stays centred on the true lambda*, so the check must fail
        true_closed_form = theory.closed_form_lambda_alpha

        def corrupted(task, k):
            closed = true_closed_form(task, k)
            return dataclasses.replace(closed, lambda_star=10.0 * closed.lambda_star)

        monkeypatch.setattr(theory, "closed_form_lambda_alpha", corrupted)
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra=""))
        out = tmp_path / "t"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((out / "theory_report.json").read_text())
        assert report["all_passed"] is False

    @pytest.mark.parametrize("case", ["singular", "non_finite_solution", "non_finite_loss"])
    def test_numeric_failure_in_oracle_exits_3(self, tmp_path, capsys, monkeypatch, case):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        def nan_solution(a, b):
            return np.full(np.shape(b), np.nan)

        def huge(lhs, rhs, lam):
            return np.full(np.shape(rhs), 1e200)

        target, name, stand_in, message = {
            "singular": (np.linalg, "solve", singular, "singular ridge system"),
            "non_finite_solution": (np.linalg, "solve", nan_solution, "non-finite ridge solution"),
            "non_finite_loss": (theory, "ridge_codistill_solve", huge, "non-finite oracle loss"),
        }[case]
        monkeypatch.setattr(target, name, stand_in)
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra=""))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric error: {message} (lambda=")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


    def test_config_without_tasks_exits_2(self, tmp_path, capsys):
        text = SMOKE_TOML.replace('algorithm = "perfed_ckt"', 'algorithm = "theory_check"')
        cfg = write(tmp_path, "smoke.toml", text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err == (
            f'config error: {cfg}:3: [run] algorithm = "theory_check": '
            "needs at least one [theory.taskN] section\n"
        )


class TestToyCommand:
    def test_csv_shape_and_win_rate(self, tmp_path, capsys):
        out = tmp_path / "toy"
        assert main(["toy", "--seed", "0", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "win rate" in stdout
        lines = (out / "toy.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,client,kind,w0,w1,dist_to_true"
        assert len(lines) == 1 + 4 * 3 * 10  # header + kinds x clients x seeds
        kinds = {line.split(",")[2] for line in lines[1:]}
        assert kinds == {"true", "fedavg", "uniform_kt", "clustered_kt"}
        # float cells parse cleanly
        float(lines[1].split(",")[3])
        # each distance is its row's norm from the true row of its seed and client
        true = {}
        for line in lines[1:]:
            seed, client, kind, w0, w1, dist = line.split(",")
            w = np.array([float(w0), float(w1)])
            if kind == "true":
                true[seed, client] = w
                assert dist == "0.0"
            else:
                assert float(dist) == float(np.linalg.norm(w - true[seed, client]))

    def test_nonpositive_num_seeds_exits_2(self, tmp_path, capsys):
        assert main(["toy", "--num-seeds", "0", "--out", str(tmp_path / "toy")]) == 2
        assert "config error: --num-seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, num_seeds", [(-1, 1), (2**64 - 1, 2), (2**64, 1)])
    def test_seeds_outside_64_bits_exit_2(self, tmp_path, capsys, seed, num_seeds):
        out = tmp_path / "toy"
        argv = ["toy", "--seed", str(seed), "--num-seeds", str(num_seeds), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: --seed {seed} --num-seeds {num_seeds}: "
            "seeds must lie in [0, 2**64)\n"
        )
        assert not out.exists()

    def test_last_64_bit_seed_runs(self, tmp_path):
        argv = ["toy", "--seed", str(2**64 - 2), "--num-seeds", "2", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert len((tmp_path / "toy.csv").read_text().splitlines()) == 1 + 4 * 3 * 2


class TestShippedConfigs:
    def test_all_parse_and_validate(self):
        from pathlib import Path

        configs = sorted(Path(__file__).resolve().parents[1].glob("configs/*.toml"))
        assert len(configs) >= 5
        for path in configs:
            cfg = load_config(path)
            assert cfg.algorithm

    def test_smoke_config_runs(self, tmp_path):
        from pathlib import Path

        cfg = Path(__file__).resolve().parents[1] / "configs/smoke.toml"
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestPartitionStatsCommand:
    def stats(self, tmp_path, alpha, clients, classes=10, samples=500, seed=3):
        text = (
            SMOKE_TOML.replace('algorithm = "perfed_ckt"', 'algorithm = "partition_stats"')
            .replace("alpha = 10.0", f"alpha = {alpha}")
            .replace("num_clients = 2", f"num_clients = {clients}")
            .replace("num_classes = 3", f"num_classes = {classes}")
            .replace("samples_per_class = 60", f"samples_per_class = {samples}")
            .replace("seed = 42", f"seed = {seed}")
        )
        cfg = write(tmp_path, "part.toml", text)
        out = tmp_path / f"stats-{alpha}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / "partition_stats.json").read_text())

    def test_uniform_limit(self, tmp_path):
        stats = self.stats(tmp_path, alpha=1e6, clients=10)
        assert abs(stats["mean_label_entropy"] - np.log(10)) <= 0.05 * np.log(10)

    def test_small_alpha_is_heavily_skewed(self, tmp_path):
        stats = self.stats(tmp_path, alpha=0.01, clients=100)
        assert stats["median_label_entropy"] < 0.7

    def test_json_has_one_entry_per_client(self, tmp_path):
        stats = self.stats(tmp_path, alpha=1.0, clients=7)
        assert len(stats["clients"]) == 7

    @pytest.mark.parametrize("population", ["dirichlet", "two_group"])
    def test_describes_the_shards_run_trains_on(self, tmp_path, population):
        text = (
            SMOKE_TOML.replace('algorithm = "perfed_ckt"', 'algorithm = "partition_stats"')
            .replace('"dirichlet"', f'"{population}"')
            .replace("alpha = 10.0", "alpha = 0.5")
            .replace("num_clients = 2", "num_clients = 6")
            .replace("num_classes = 3", "num_classes = 4")
            .replace("seed = 42", "seed = 3")
        )
        cfg = write(tmp_path, "pop.toml", text)
        out = tmp_path / "stats"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        stats = json.loads((out / "partition_stats.json").read_text())
        run_cfg = load_config(cfg)
        assert run_cfg.seed == 3
        records, _ = build_population(run_cfg.data, run_cfg.models, run_cfg.seed)
        assert len(stats["clients"]) == len(records)
        active = [r for r in records if r.bundle.active]
        assert len(active) >= 4
        for rec in active:
            bundle = rec.bundle
            labels = np.concatenate([bundle.train.labels, bundle.val.labels, bundle.test.labels])
            histogram = np.bincount(labels, minlength=4).tolist()
            assert stats["clients"][rec.id]["histogram"] == histogram

import collections
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedckt import runconfig, theory
from fedckt.cli import main
from fedckt.experiment import build_population
from fedckt.runconfig import MAX_ELEMENTS, config_from_sections, load_config, parse_flat_toml
from fedckt.errors import ConfigurationError
from helpers import solved_into

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SMOKE_FILE = Path(__file__).resolve().parents[1] / "configs/smoke.toml"
THEORY_FILE = Path(__file__).resolve().parents[1] / "configs/theory_check.toml"
DIRICHLET_FILE = Path(__file__).resolve().parents[1] / "configs/dirichlet_perfed.toml"
PARTITION_FILE = Path(__file__).resolve().parents[1] / "configs/partition_stats.toml"
SMOKE_TOML = SMOKE_FILE.read_text()
# the smoke config with its [federation] table moved to the top as dotted
# keys: `federation . rounds = 1`, ...
_SMOKE_HEAD, _SMOKE_FEDERATION = SMOKE_TOML.split("[federation]\n")
DOTTED_TOML = (
    "".join(f"federation . {line}\n" for line in _SMOKE_FEDERATION.splitlines()) + _SMOKE_HEAD
)

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


SHIPPED_CONFIGS = sorted(SMOKE_FILE.parent.glob("*.toml"))
# smoke-sized configs, cheap enough to run every mutation of through main
MUTATION_BASES = {"smoke.toml": SMOKE_FILE.read_text(), "theory.toml": THEORY_TOML.format(extra="")}
# each `key = ` line is set to each value in turn; at load level also to an
# integer far above every element budget and the first integer past 64
# bits, which main does not run: a huge round or step count asks for
# unbounded time rather than being malformed
MUTATION_VALUES = [
    "7", "0.5", "true", '"x"', "0", "-1", "-1.5", "1e308", "-1e308", "1e200", "1e-200"
]
LOAD_VALUES = MUTATION_VALUES + [str(10**18), str(2**64)]


def single_key_mutations(text, values):
    """(line number, value, mutated text) for each `key = ` line of `text`
    set to each of `values`."""
    lines = text.splitlines(keepends=True)
    for index, line in enumerate(lines):
        key = re.match(r"(\w+) = ", line)
        for value in values if key else ():
            mutated = [*lines[:index], f"{key[1]} = {value}\n", *lines[index + 1 :]]
            yield index + 1, value, "".join(mutated)


def text_mutations(text):
    """(what, mutated text) for each line of `text` dropped, followed by a
    garbage line, or the last one kept; each `key = ` line duplicated; and
    each section wrapped in a multi-line string."""
    lines = text.splitlines(keepends=True)
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    for i, line in enumerate(lines):
        yield f"drop line {i + 1}", "".join(lines[:i] + lines[i + 1 :])
        garbage = [*lines[: i + 1], "garbage\n", *lines[i + 1 :]]
        yield f"garbage after line {i + 1}", "".join(garbage)
        yield f"truncate after line {i + 1}", "".join(lines[: i + 1])
        if re.match(r"\w+ = ", line):
            yield f"duplicate line {i + 1}", "".join([*lines[: i + 1], line, *lines[i + 1 :]])
    for start, end in zip(headers, headers[1:] + [len(lines)]):
        wrapped = ['wrapped = """\n', *lines[start:end], '"""\n']
        yield f"wrap lines {start + 1}-{end}", "".join(lines[:start] + wrapped + lines[end:])


def load_text(text, source):
    """What load_config makes of TOML `text` read from `source`, without the
    file: (the RunConfig or the exception raised, the sections or None)."""
    sections = None
    try:
        sections = parse_flat_toml(text, source)
        return config_from_sections(sections, source, text), sections
    except Exception as exc:  # noqa: BLE001 - refusal_problem reports an escape
        return exc, sections


def plain_lines(text):
    """{(section, key): line} of each `key = ` line of `text`, and {(section,
    None): line} of each `[section]` header: the lines of a config written,
    as every shipped config and mutation base is, in those two spellings
    only."""
    lines, section = {}, None
    for number, line in enumerate(text.splitlines(), start=1):
        header, key = re.fullmatch(r"\[([\w.]+)\]", line), re.match(r"(\w+) = ", line)
        if header:
            section = header[1]
        if header or key:
            lines[section, key and key[1]] = number
    return lines


def refusal_problem(loaded, source, lines=None, line=None):
    """How `loaded`, load_text's result from `source`, breaks the location
    contract, or None. A refusal is a ConfigurationError of one line, which
    starts with `FILE:LINE: ` or a bare `FILE: `. With `line`, the line of a
    mutated key, and `lines`, the plain_lines of the text mutated, the broken
    rule reads that key and the message starts with the FILE:LINE of a key
    the rule reads."""
    if not isinstance(loaded, Exception):
        return None
    if not isinstance(loaded, ConfigurationError):
        return f"escaped as {loaded!r}"
    message = str(loaded)
    if "\n" in message:
        return f"more than one line: {message!r}"
    if line is None:
        located = re.match(rf"{re.escape(source)}(:\d+)?: ", message)
        return None if located else f"names no FILE: {message}"
    mutated = next(k for k, at in lines.items() if at == line)
    if mutated not in loaded.keys:
        return f"the rule does not read {mutated}: {message}"
    if not any(message.startswith(f"{source}:{lines[k]}: ") for k in loaded.keys if k in lines):
        return f"not at the FILE:LINE of a key the rule reads: {message}"
    return None


def run_problem(text, config, out, loaded):
    """Writes `text` over the file `config`, runs `fedckt run` on it into the
    new directory `out`, and returns how the run breaks the exit contract,
    or None, with its exit code. `loaded` is what load_text made of `text`
    from `config`: a refusal there must be the run's stderr line, and one
    after load starts with the bare `FILE: `. Exit 0 and 1 print nothing on
    stderr, exit 2 and 3 one line (so no traceback), exit 3 starting with
    `numeric error: `, and a refusal writes no output file."""
    # written in place, then cut to length: a file truncated first has its
    # blocks freed and allocated again, which is many times slower
    with open(config, "r+" if config.exists() else "w") as fh:
        fh.write(text)
        fh.truncate()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", str(config), "--out", str(out)])
    err = stderr.getvalue()
    lines = err.splitlines(keepends=True)
    refused = isinstance(loaded, ConfigurationError)
    if not (code in (0, 2, 3) or (code == 1 and "FAIL" in stdout.getvalue())):
        problem = "an undocumented exit"
    elif len(lines) != (code >= 2):
        problem = "not exactly one stderr line" if code >= 2 else "stderr not empty"
    elif code == 3 and not err.startswith("numeric error: "):
        problem = "not a numeric error"
    elif refused and err != f"config error: {loaded}\n":
        problem = "not the load-time refusal"
    elif code == 2 and not refused and not err.startswith(f"config error: {config}: "):
        problem = "a refusal after load names no file"
    elif code == 2 and any(path.is_file() for path in out.rglob("*")):
        problem = "a refusal wrote output"
    else:
        return None, code
    return f"{problem}: exit {code}, stderr {err!r}", code


def theory_task2_with(old, new):
    """The shipped theory config with one line of [theory.task2] replaced, so
    task 1 comes before the bad value."""
    head, _, rest = THEORY_FILE.read_text().partition("[theory.task2]")
    body, _, tail = rest.partition("[theory.task3]")
    assert old in body
    return f"{head}[theory.task2]{body.replace(old, new)}[theory.task3]{tail}"


def theory_tasks_spelt(spelling):
    """configs/theory_check.toml with each [theory.taskN] table written under
    [theory] instead: as `taskN.key = value` dotted keys, or as one
    `taskN = {...}` inline table."""
    head, *tasks = THEORY_FILE.read_text().split("[theory.")
    lines = []
    for task in tasks:
        name, _, body = task.partition("]\n")
        pairs = [pair for pair in body.splitlines() if pair]
        if spelling == "dotted":
            lines += [f"{name}.{pair}" for pair in pairs]
        else:
            lines.append(f"{name} = {{{', '.join(pairs)}}}")
    return head + "\n".join(lines) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigErrorContract:
    # Each test loads every mutation of the shipped configs in memory, as
    # load_config does after decoding. The text test then runs those of the
    # smoke-sized bases through main, caching the loads per (text, source):
    # smoke.toml is shipped and a base. TestRunCommand runs the single-key
    # mutations of the bases through main.

    def test_single_key_mutations_are_refused_at_their_key(self, tmp_path):
        problems = []
        total = refused = prefixed = 0
        for path in SHIPPED_CONFIGS:
            source, lines = str(tmp_path / path.name), plain_lines(path.read_text())
            for line, value, text in single_key_mutations(path.read_text(), LOAD_VALUES):
                total += 1
                loaded, _ = load_text(text, source)
                if isinstance(loaded, Exception):
                    refused += 1
                    prefixed += bool(re.match(rf"{re.escape(source)}:\d+: ", str(loaded)))
                problem = refusal_problem(loaded, source, lines, line)
                problems += [f"{path.name}:{line} = {value}: {problem}"] if problem else []
        located = refused - len(problems)
        print(
            f"{total} single-key mutations of {len(SHIPPED_CONFIGS)} configs: {refused} refused "
            f"at load, {prefixed} with FILE:LINE, {located} at the mutated key"
        )
        assert not problems, "\n".join(problems)

    def test_text_mutations_are_refused_with_their_file_or_run(self, tmp_path):
        load = functools.cache(load_text)
        problems, codes, seen = [], collections.Counter(), set()
        total = skipped = 0
        for path in SHIPPED_CONFIGS:
            source = str(tmp_path / path.name)
            for what, text in text_mutations(path.read_text()):
                total += 1
                problem = refusal_problem(load(text, source)[0], source)
                problems += [f"{path.name}: {what}: {problem}"] if problem else []
        # main skips a mutation that parses to the sections of one already run
        for name, base in MUTATION_BASES.items():
            config = tmp_path / name
            for i, (what, text) in enumerate(text_mutations(base)):
                loaded, sections = load(text, str(config))
                if sections is not None and repr(sections) in seen:
                    skipped += 1
                    continue
                seen.add(repr(sections))
                problem = refusal_problem(loaded, str(config))
                problems += [f"{name}: {what}: {problem}"] if problem else []
                problem, code = run_problem(text, config, tmp_path / f"{i}-{name}", loaded)
                problems += [f"{name}: {what}: {problem}"] if problem else []
                codes[code] += 1
        print(
            f"{total} text mutations of {len(SHIPPED_CONFIGS)} configs at load; "
            f"{codes.total()} through main, exit codes {dict(sorted(codes.items()))}, "
            f"{skipped} skipped as parsing to sections already run"
        )
        assert not problems, "\n".join(problems)


class TestParser:
    def test_sections_and_types(self):
        sections = parse_flat_toml(
            '[a]\nx = 1\ny = 2.5\nz = "s"\nflag = true\narr = [1, 2, 3]\n[theory.c]\nk = -4\n'
            "[b.c]\nk = 5\n"
        )
        assert sections["a"] == {"x": 1, "y": 2.5, "z": "s", "flag": True, "arr": [1, 2, 3]}
        # only a table under [theory] is lifted into a section of its own
        assert sections["theory.c"] == {"k": -4}
        assert sections["b"] == {"c": {"k": 5}}

    def test_comments_and_blanks(self):
        sections = parse_flat_toml("# top\n[a]\nx = 1  # trailing\n\n")
        assert sections == {"a": {"x": 1}}

    @pytest.mark.parametrize(
        "text,message",
        [
            # a key above the first header is a top-level entry, not a section
            pytest.param(
                "x = 1\n",
                "cfg.toml:1: [x]: must be a table of keys, got 1",
                id="x = 1\n-outside of any",
            ),
            pytest.param(
                "[a\nx = 1\n",
                "cfg.toml:1: invalid TOML: Expected ']' at the end of a table declaration",
                id="[a\nx = 1\n-malformed section",
            ),
            pytest.param(
                "[a]\nnonsense\n",
                "cfg.toml:2: invalid TOML: Expected '=' after a key in a key/value pair",
                id="[a]\nnonsense\n-expected",
            ),
            pytest.param(
                "[a]\nx = \n",
                "cfg.toml:2: invalid TOML: Invalid value",
                id="[a]\nx = \n-empty value",
            ),
            # tomllib reports an array still open at the end "at end of
            # document", so the message names no line
            pytest.param(
                "[a]\nx = [1, 2\n",
                "cfg.toml: invalid TOML: Unclosed array",
                id="[a]\nx = [1, 2\n-unterminated array",
            ),
            pytest.param(
                "[a]\nx = zebra\n",
                "cfg.toml:2: invalid TOML: Invalid value",
                id="[a]\nx = zebra\n-cannot parse",
            ),
            pytest.param(
                "[a]\nx = 1\nx = 2\n",
                "cfg.toml:3: invalid TOML: Cannot overwrite a value",
                id="[a]\nx = 1\nx = 2\n-duplicate key",
            ),
            # TOML spells infinity inf and gives decimal integers no leading zero
            pytest.param(
                "[a]\nx = Infinity\n",
                "cfg.toml:2: invalid TOML: Invalid value",
                id="infinity_word",
            ),
            pytest.param(
                "[a]\nx = 07\n",
                "cfg.toml:2: invalid TOML: Expected newline or end of document after a statement",
                id="leading_zero",
            ),
        ],
    )
    def test_malformed_lines_diagnosed(self, text, message):
        with pytest.raises(ConfigurationError) as caught:
            config_from_sections(parse_flat_toml(text, "cfg.toml"), "cfg.toml", text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "value,parsed",
        [
            ('["p,q", "r"]', ["p,q", "r"]),
            ('"tab\\tend"', "tab\tend"),
            ("0x10", 16),
        ],
        ids=["comma_in_array_string", "string_escape", "hex_integer"],
    )
    def test_toml_values(self, value, parsed):
        assert parse_flat_toml(f"[a]\nx = {value}\n") == {"a": {"x": parsed}}

    @pytest.mark.parametrize(
        "text, line",
        [
            ('[data]\ndim = 0\n[run]\nnote = """\n[data]\ndim = 5\n"""\n', 2),
            ("[data]\ndim = 0\n[run]\nnote = '''\n[data]\ndim = 5\n'''\n", 2),
            # an escaped quote does not close a basic string
            ('[data]\ndim = 0\n[run]\nnote = """x\\"""\n[data]\ndim = 5\n"""\n', 2),
            # a quote in a comment opens no string
            ('[run]\nnote = "x"  # """\n[data]\ndim = 0\n', 4),
        ],
        ids=["basic", "literal", "escaped_quote", "quote_in_comment"],
    )
    def test_multi_line_strings_hold_no_locations(self, text, line):
        # a header or key line inside a multi-line string is text, so the
        # value it spells must not move a location
        with pytest.raises(ConfigurationError) as caught:
            config_from_sections(parse_flat_toml(text, "ml.toml"), "ml.toml", text)
        assert str(caught.value) == f"ml.toml:{line}: [data] dim = 0: must be >= 1"

    @pytest.mark.parametrize(
        "text, located",
        [
            ('["a"]\nx = 1\n', {("a",): 1, ("a", "x"): 2}),
            ("[ 'a' ]\n'x' = 1\n", {("a",): 1, ("a", "x"): 2}),
            ('[a . "b"]\nx = 1\n', {("a", "b"): 1, ("a", "b", "x"): 2}),
            # an array of tables is refused as a whole, so its keys are not located
            ("[[ 'a' ]]\nx = 1\n", {("a",): 1, ("a", "x"): None}),
            ('["\\u0061"]\nx = 1\n', {("a",): 1, ("a", "x"): 2}),
            # a table made only of dotted keys is located at its first key
            ("a.x = 1\na . 'y' = 2\n", {("a",): 1, ("a", "x"): 1, ("a", "y"): 2}),
            ('[a]\nb."c" = 1\n', {("a",): 1, ("a", "b"): 2, ("a", "b", "c"): 2}),
            ('"x" = 1\n', {("x",): 1}),
            # a quoted name is one key
            ('["a.b"]\nx = 1\n', {("a.b",): 1, ("a.b", "x"): 2, ("a", "b"): None}),
            # a value that spans lines is located at its statement's first line
            (
                theory_task2_with(
                    "upsilon = [0.5, 0.8, 2.0, 4.0]", "upsilon = [\n  0.0,\n  0.8,\n  2.0,\n  4.0,\n]"
                ),
                {("theory", "task2", "upsilon"): 29, ("theory", "task2", "n_samples"): 35},
            ),
        ],
        ids=[
            "basic_header",
            "literal_header_and_key",
            "dotted_header",
            "array_of_tables",
            "escaped_header",
            "top_level_dotted_keys",
            "dotted_key_in_table",
            "quoted_top_level_key",
            "quoted_dotted_header",
            "multi_line_value",
        ],
    )
    def test_every_header_and_key_spelling_is_located(self, text, located):
        # each document path at the line its statement starts on, None if unlocated
        assert {path: runconfig._line(text, [path]) for path in located} == located

    def test_diagnostics_carry_line_numbers(self):
        with pytest.raises(ConfigurationError, match="cfg.toml:3"):
            parse_flat_toml("[a]\nx = 1\nbroken line\n", source="cfg.toml")


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        text = SMOKE_TOML.replace("public_offset = 1.0", "mystery = 1.0")
        path = write(tmp_path, "bad.toml", text)
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
        "extra,sections,named",
        [
            ("", "[theory.taskfoo]\n", "[theory.taskfoo]"),
            ("", "[theory.task]\n", "[theory.task]"),
            ("", "[theory.task01]\n", "[theory.task01]"),
            # a quoted name beside the task it spells would hide one of them
            ("", '["theory.task1"]\nn_samples = 99\n', '["theory.task1"]'),
            ("taskfoo.dim = 2\n", "", "[theory.taskfoo]"),
            ("taskfoo = {dim = 2}\n", "", "[theory.taskfoo]"),
        ],
        ids=["word", "empty", "same_number", "quoted_twice", "dotted_word", "inline_word"],
    )
    def test_bad_task_section_exits_2(self, tmp_path, capsys, extra, sections, named):
        # `extra` lands in [theory], `sections` after the file
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra=extra) + sections)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err
        assert not (tmp_path / "t" / "theory_report.json").exists()

    def test_theory_tasks_in_every_toml_spelling_run_alike(self, tmp_path):
        # tasks as headers, dotted keys or inline tables are the same tables
        reports = []
        for spelling in ("header", "dotted", "inline"):
            text = THEORY_FILE.read_text() if spelling == "header" else theory_tasks_spelt(spelling)
            cfg = write(tmp_path, f"{spelling}.toml", text)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / spelling)]) == 0
            reports.append((tmp_path / spelling / "theory_report.json").read_bytes())
        assert reports[1:] == reports[:1] * 2

    def test_oracle_grid_budget_edge(self, tmp_path):
        # K = 3: 15 * comb(3651, 2) = 99 946 125 points load, and
        # 15 * comb(3652, 2) = 100 000 890 are refused at their key
        text = THEORY_TOML.format(extra="").replace("lambda_points = 9", "lambda_points = 15")
        edge = text.replace("alpha_resolution = 10", "alpha_resolution = 3649")
        assert load_config(write(tmp_path, "edge.toml", edge)).theory.alpha_resolution == 3649
        past = write(tmp_path, "past.toml", edge.replace("3649", "3650"))
        with pytest.raises(ConfigurationError) as refused:
            load_config(past)
        assert str(refused.value) == (
            f"{past}:10: [theory] alpha_resolution = 3650: max(lambda_points, K) * "
            "comb(alpha_resolution + K - 1, K - 1) with K = 3 exceeds the budget of "
            f"{MAX_ELEMENTS} elements"
        )

    @pytest.mark.parametrize("side", range(1, 41))
    def test_oracle_grid_budget_matches_the_exact_count(self, tmp_path, side):
        # grids whose binomial has this smaller side; from side 15 on the
        # budget refuses without counting the grid
        for resolution, k in ((side, side + 1), (side, 41), (40, side + 1)):
            text = (
                THEORY_TOML.format(extra="")
                .replace("alpha_resolution = 10", f"alpha_resolution = {resolution}")
                .replace("num_clients = 3", f"num_clients = {k}")
                .replace("[1.0, 1.0, 1.0]", str([1.0] * k))
            )
            path = write(tmp_path, "grid.toml", text)
            exact = max(9, k) * math.comb(resolution + k - 1, k - 1)
            if exact <= MAX_ELEMENTS:
                assert load_config(path).theory.tasks[0].num_clients == k
                continue
            with pytest.raises(ConfigurationError, match=f"with K = {k} exceeds the budget"):
                load_config(path)


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
        assert not list(out.glob(".fedckt-*"))

    def test_divergence_exits_3(self, tmp_path, capsys):
        # a step size at the float ceiling overflows the first update
        cfg = write(tmp_path, "explode.toml", SMOKE_TOML.replace("lr = 0.05", "lr = 1e308"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric error: diverged clients (client, round): [(0, 0), (1, 0)]\n"
        )

    def test_fatal_error_and_divergences_print_one_line(self, tmp_path, capsys):
        # the first monitor pass overflows, which ends the run: its error
        # and the divergence it records share the one stderr line
        text = SMOKE_TOML.replace("distill_weight = 0.5", "distill_weight = 1e308")
        cfg = write(tmp_path, "fatal.toml", text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "numeric error: non-finite gradient; diverged clients (client, round): [(0, 0)]\n"
        )

    @pytest.mark.parametrize("algorithm", ["perfed_ckt", "fedavg"])
    def test_overflowing_gradient_norm_exits_3(self, tmp_path, capsys, algorithm):
        # a finite gradient whose norm overflows ends the run before its
        # round's metrics, so no inf reaches metrics.csv or summary.json
        text = (
            SMOKE_TOML.replace("perfed_ckt", algorithm)
            .replace("class_separation = 4.0", "class_separation = 1e160")
            .replace("lr = 0.05", "lr = 1e-200")
        )
        cfg = write(tmp_path, "norm.toml", text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric error: non-finite gradient norm inf; diverged clients (client, round): [(0, 0)]\n"
        )
        for name in ("metrics.csv", "summary.json"):
            text = (out / name).read_text()
            assert "inf" not in text and "Infinity" not in text, name
        assert json.loads((out / "summary.json").read_text())["diverged_events"] == [[0, 0]]

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
                "config error: data.json: [data]: must be a table of keys, got 5",
            ),
            (
                "tasks.json",
                '{"run": {"algorithm": "theory_check"}, "theory": {"tasks": [5]}}',
                "config error: tasks.json: [theory] tasks = [5]: unknown key",
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

    def test_single_key_mutation_never_escapes(self, tmp_path):
        # every (base, key, value) pair of the smoke-sized bases, loaded in
        # memory and run through main; "huge" means a huge float: a huge
        # round or step count asks for unbounded time rather than being
        # malformed, and huge data sizes are covered by
        # test_huge_size_exits_2_before_allocating
        problems, codes = [], collections.Counter()
        for name, base in MUTATION_BASES.items():
            config, lines = tmp_path / name, plain_lines(base)
            mutations = single_key_mutations(base, MUTATION_VALUES)
            for i, (line, value, text) in enumerate(mutations):
                loaded, _ = load_text(text, str(config))
                problem = refusal_problem(loaded, str(config), lines, line)
                problems += [f"{name}:{line} = {value}: {problem}"] if problem else []
                problem, code = run_problem(text, config, tmp_path / f"{i}-{name}", loaded)
                problems += [f"{name}:{line} = {value}: {problem}"] if problem else []
                codes[code] += 1
        print(f"{codes.total()} through main, exit codes {dict(sorted(codes.items()))}")
        assert not problems, "\n".join(problems)

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
            # a quoted key is located at its own line, as a bare one is
            (
                SMOKE_TOML.replace("lr = 0.05", '"lr" = -1.0'),
                "config error: range.toml:29: [federation] lr = -1.0: must be >= 0",
            ),
            (
                SMOKE_TOML.replace("seed = 42", "'seed' = -1"),
                "config error: range.toml:4: [run] seed = -1: must be >= 0",
            ),
            # a quoted table header, and keys written as dotted paths
            (
                SMOKE_TOML.replace("[federation]", '[ "federation" ]').replace(
                    "lr = 0.05", "lr = -1.0"
                ),
                "config error: range.toml:29: [federation] lr = -1.0: must be >= 0",
            ),
            (
                DOTTED_TOML.replace("lr = 0.05", "'lr' = -1.0"),
                "config error: range.toml:8: [federation] lr = -1.0: must be >= 0",
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
                "config error: range.toml: [federation] num_selected (2) "
                "exceeds the 1 active clients",
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
                "config error: range.toml: [data] no active client holds training data",
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
                # the file does not set lr_decay, so its error is located at
                # lr_mode, which the rule also reads
                SMOKE_TOML.replace("lr = 0.05", 'lr = 0.05\nlr_mode = "robbins_monro"'),
                "config error: range.toml:30: [federation] lr_decay = 0.0: "
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
                # no [run] header to locate the missing key at: the bare file
                SMOKE_FILE.read_text().splitlines(keepends=True)[0],
                "config error: range.toml: [run]: missing required keys: algorithm",
            ),
            (
                SMOKE_TOML.replace('"dirichlet"', '"dirichlet'),
                "config error: range.toml:7: invalid TOML: Illegal character '\\n'",
            ),
            (
                SMOKE_TOML.replace("dim = 2", "= 2"),
                "config error: range.toml:9: invalid TOML: Invalid statement",
            ),
            (
                SMOKE_TOML.replace("[models]", "[ ]"),
                "config error: range.toml:17: invalid TOML: "
                "Invalid initial character for a key part",
            ),
            (
                '{"run": {"algorithm": "local"},\n "data": {"dim": 0}}',
                "config error: range.json: [data] dim = 0: must be >= 1",
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
                "config error: range.toml:29: invalid TOML: Cannot declare ('data',) twice",
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
            # TOML values JSON lacks: refused by the field's rule, printed as strings
            (
                SMOKE_TOML.replace("seed = 42", "seed = 1979-05-27"),
                'config error: range.toml:4: [run] seed = "1979-05-27": must be an integer',
            ),
            (
                SMOKE_TOML.replace("seed = 42", "seed = 1979-05-27T07:32:00Z"),
                'config error: range.toml:4: [run] seed = "1979-05-27 07:32:00+00:00": '
                "must be an integer",
            ),
            (
                SMOKE_TOML.replace("lr = 0.05", "lr = 07:32:00"),
                'config error: range.toml:29: [federation] lr = "07:32:00": '
                "must be a finite number",
            ),
            (
                SMOKE_TOML.replace("[run]", "[[run]]"),
                'config error: range.toml:2: [run]: must be a table of keys, got '
                '[{"algorithm": "perfed_ckt", "seed": 42}]',
            ),
            (
                SMOKE_TOML.replace("seed = 42", "seed = {a = 1}"),
                'config error: range.toml:4: [run] seed = {"a": 1}: must be an integer',
            ),
            (
                THEORY_TOML.format(extra="").replace("[1.0, 1.0, 1.0]", "[[1.0], [1.0], [1.0]]"),
                "config error: range.toml:19: [theory.task1] upsilon = [[1.0], [1.0], [1.0]]: "
                "every value must be a finite number",
            ),
            (
                "seed = 42" + SMOKE_TOML.replace("seed = 42\n", ""),
                "config error: range.toml:1: [seed]: must be a table of keys, got 42",
            ),
            (
                # past Python's int digit limit, which tomllib raises without a position
                SMOKE_TOML.replace("seed = 42", "seed = 1" + "0" * 5000),
                "config error: range.toml: invalid TOML: Exceeds the limit (4300 digits) for "
                "integer string conversion: value has 5001 digits; "
                "use sys.set_int_max_str_digits() to increase the limit",
            ),
            # a task written as dotted keys under [theory] is located at its key
            (
                theory_tasks_spelt("dotted").replace("task2.sigma = 1.5", "task2.sigma = 0.0"),
                "config error: range.toml:23: [theory.task2] sigma = 0.0: must be > 0",
            ),
        ],
        ids=[
            "dim",
            "lr",
            "lr_quoted_key",
            "seed_quoted_key",
            "lr_quoted_header",
            "lr_dotted_key",
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
            "comment_only",
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
            "date",
            "datetime",
            "time",
            "array_of_tables",
            "inline_table",
            "nested_array",
            "key_above_header",
            "int_digits",
            "dotted_task_sigma",
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

    @pytest.mark.parametrize("before", ["absent", "present", "written_into"])
    def test_post_load_refusal_removes_only_the_empty_directories_it_made(
        self, tmp_path, capsys, monkeypatch, before
    ):
        # seven rows per class leave one active client: the population
        # refuses the run after --out and its missing parents were made
        text = SMOKE_TOML.replace("samples_per_class = 60", "samples_per_class = 7")
        cfg = write(tmp_path, "refused.toml", text)
        out = tmp_path / "made" / "by" / "run"
        if before == "present":
            out.mkdir(parents=True)
        if before == "written_into":
            # a file lands in the new directory before the refusal
            def writes_then_refuses(data, models, seed):
                (out / "stray").write_text("")
                return build_population(data, models, seed)

            monkeypatch.setattr("fedckt.cli.build_population", writes_then_refuses)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: [federation] num_selected (2) exceeds the 1 active clients\n"
        )
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        kept = {
            "absent": [],
            "present": ["made", "made/by", "made/by/run"],
            "written_into": ["made", "made/by", "made/by/run", "made/by/run/stray"],
        }[before]
        assert left == sorted(["refused.toml", *kept])

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

    @pytest.mark.parametrize(
        "case", ["perfed_ckt", "fedavg", "heterogeneous", "partition_stats", "theory_check"]
    )
    def test_run_leaves_numpy_ma_unimported(self, tmp_path, case):
        # a fresh interpreter, as the test process has numpy.ma already:
        # np.median's NaN check and np.quantile's np.unique import it
        # (about 11 ms), no run may
        smoke = SMOKE_FILE.read_text()
        text, output = {
            "perfed_ckt": (smoke, "summary.json"),
            "fedavg": (smoke.replace('"perfed_ckt"', '"fedavg"'), "summary.json"),
            "heterogeneous": (
                smoke.replace('"softmax_linear"', '"heterogeneous"'),
                "summary.json",
            ),
            "partition_stats": (PARTITION_FILE.read_text(), "partition_stats.json"),
            "theory_check": (THEORY_TOML.format(extra=""), "theory_report.json"),
        }[case]
        cfg = write(tmp_path, "run.toml", text)
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
        report = json.loads((out / output).read_text())
        if output == "summary.json":
            assert report["final"]["grad_norm_median"] > 0.0

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


def tree(directory):
    """Every entry under `directory`, relative, staging directories included."""
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*"))


def degenerate_theory(sigma, beta, upsilon):
    """One three-client task on a small grid, at the given noise scales."""
    return (
        THEORY_TOML.format(extra="")
        .replace("num_samples = 20000", "num_samples = 2000")
        .replace("lambda_points = 9", "lambda_points = 3")
        .replace("alpha_resolution = 10", "alpha_resolution = 3")
        .replace("n_samples = 6", "n_samples = 8")
        .replace("sigma = 1.0", f"sigma = {sigma}")
        .replace("beta = 1.0", f"beta = {beta}")
        .replace("[1.0, 1.0, 1.0]", upsilon)
    )


FEDERATED_SET = [
    "checkpoints",
    "checkpoints/client_0000.params",
    "checkpoints/client_0001.params",
    "checkpoints/manifest.json",
    "metrics.csv",
    "summary.json",
]


class TestOutputSet:
    """Every exit leaves a whole output set in --out, its marker included,
    or nothing new, and no directory it made stays empty."""

    @pytest.mark.parametrize("where", ["fresh", "existing"])
    @pytest.mark.parametrize(
        "case, code, written",
        [
            pytest.param("ok", 0, FEDERATED_SET, id="ok"),
            pytest.param("partition_stats", 0, ["partition_stats.json"], id="partition_stats"),
            pytest.param("toy", 0, ["toy.csv"], id="toy"),
            pytest.param("theory_fail", 1, ["theory_report.json"], id="theory_fail"),
            pytest.param("load", 2, [], id="load"),
            pytest.param("post_load", 2, [], id="post_load"),
            pytest.param("toy_refused", 2, [], id="toy_refused"),
            pytest.param("theory_numeric", 3, [], id="theory_numeric"),
            pytest.param("theory_underflow", 3, [], id="theory_underflow"),
            pytest.param("theory_overflow", 3, [], id="theory_overflow"),
            pytest.param("diverged", 3, FEDERATED_SET, id="diverged"),
            pytest.param("internal", 4, [], id="internal"),
        ],
    )
    def test_exit_leaves_the_whole_set_or_nothing_new(
        self, tmp_path, capsys, monkeypatch, where, case, code, written
    ):
        theory_text = THEORY_TOML.format(extra="")
        partition_text = PARTITION_FILE.read_text().replace("num_clients = 100", "num_clients = 4")
        text = {
            "partition_stats": partition_text,
            "theory_fail": theory_text,
            "load": SMOKE_TOML.replace("lr = 0.05", "lr = -1.0"),
            "post_load": SMOKE_TOML.replace("samples_per_class = 60", "samples_per_class = 7"),
            "theory_numeric": theory_text.replace("beta = 1.0", "beta = 1e308"),
            # the posterior variance underflows to 0, and so could the best loss
            "theory_underflow": degenerate_theory("1e-160", "1e10", "[0.5, 1.0, 2.0]"),
            # 1/(sigma^2 + beta upsilon_i^2) overflows: every alpha* would be 0
            "theory_overflow": degenerate_theory("1e-160", "1.0", "[1e-160, 1e-160, 1e-160]"),
            "diverged": SMOKE_TOML.replace("lr = 0.05", "lr = 1e308"),
        }.get(case, SMOKE_TOML)
        if case == "theory_fail":
            true_closed_form = theory.closed_form_lambda_alpha

            def corrupted(task, k):
                closed = true_closed_form(task, k)
                return dataclasses.replace(closed, lambda_star=10.0 * closed.lambda_star)

            monkeypatch.setattr(theory, "closed_form_lambda_alpha", corrupted)
        if case == "internal":  # after metrics.csv is staged

            def broken(result, echo):
                raise RuntimeError("unexpected state")

            monkeypatch.setattr("fedckt.cli.summarize_run", broken)
        cfg = write(tmp_path, "run.toml", text)
        out = tmp_path / ("made/by/out" if where == "fresh" else "out")
        kept = {}  # files like those bench/run.py keeps beside its child's outputs
        if where == "existing":
            kept = {f"out/{name}": name for name in ("stdout.txt", "stderr.txt", "logs/child.json")}
            for name, content in kept.items():
                (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / name).write_text(content)
        argv = {
            "toy": ["toy", "--num-seeds", "1"],
            "toy_refused": ["toy", "--num-seeds", "0"],
        }.get(case, ["run", "--config", str(cfg)])
        assert main([*argv, "--out", str(out)]) == code
        stdout, stderr = capsys.readouterr()
        # the line is printed once the set is committed, and only then
        assert ("wrote " in stdout) == (case in ("ok", "partition_stats", "diverged"))
        if code == 3:
            assert stderr.startswith("numeric error: ") and stderr.count("\n") == 1
        prefix = out.relative_to(tmp_path)
        made = [] if not written or where == "existing" else ["made", "made/by", "made/by/out"]
        dirs = ["out", "out/logs"] if kept else []
        expected = ["run.toml", *kept, *dirs, *made, *(f"{prefix.as_posix()}/{w}" for w in written)]
        assert tree(tmp_path) == sorted(expected)
        assert {name: (tmp_path / name).read_text() for name in kept} == kept

    def test_smaller_rerun_leaves_only_its_own_checkpoints(self, tmp_path):
        out = tmp_path / "out"
        four = write(tmp_path, "four.toml", SMOKE_TOML.replace("num_clients = 2", "num_clients = 4"))
        two = write(tmp_path, "two.toml", SMOKE_TOML)
        assert main(["run", "--config", str(four), "--out", str(out)]) == 0
        assert len(list((out / "checkpoints").glob("*.params"))) == 4
        assert main(["run", "--config", str(two), "--out", str(out)]) == 0
        manifest = json.loads((out / "checkpoints/manifest.json").read_text())
        files = sorted(["manifest.json", *(c["file"] for c in manifest["clients"])])
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == files
        assert tree(out) == FEDERATED_SET

    @pytest.mark.parametrize("marker", ["summary.json", "partition_stats.json"])
    def test_failed_commit_prints_no_wrote_line(self, tmp_path, capsys, marker):
        # a non-empty directory where the marker goes: its removal fails
        # before any staged entry moves in
        text = SMOKE_TOML
        if marker == "partition_stats.json":
            text = PARTITION_FILE.read_text().replace("num_clients = 100", "num_clients = 4")
        cfg = write(tmp_path, "run.toml", text)
        out = tmp_path / "out"
        (out / marker).mkdir(parents=True)
        (out / marker / "kept.txt").write_text("kept")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("output error: ") and stderr.count("\n") == 1
        assert tree(out) == [marker, f"{marker}/kept.txt"]
        assert (out / marker / "kept.txt").read_text() == "kept"

    def test_failed_commit_leaves_no_marker(self, tmp_path, capsys, monkeypatch):
        # the rerun's first entry moves in before the second move fails
        out = tmp_path / "out"
        cfg = write(tmp_path, "smoke.toml", SMOKE_TOML)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        real_replace, moved = os.replace, []

        def second_fails(src, dst):
            if moved:
                raise OSError("disk full")
            moved.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith("output error: disk full\n")
        assert "summary.json" not in tree(out)
        assert not list(out.glob(".fedckt-*"))


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

    def test_one_lambda_point_searches_lambda_star(self, tmp_path, capsys):
        text = THEORY_TOML.format(extra="").replace("lambda_points = 9", "lambda_points = 1")
        cfg = write(tmp_path, "theory.toml", text)
        out = tmp_path / "t"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        for task in json.loads((out / "theory_report.json").read_text())["tasks"]:
            assert task["oracle"]["best_lambda"] == task["closed_form"]["lambda_star"]

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
        real_solve1 = theory._solve1

        def singular(a, b, out):
            return real_solve1(np.zeros_like(a), b, out=out)

        def nan_solution(a, b, out):
            return solved_into(np.full(np.shape(b), np.nan), out)

        def huge(lhs, rhs, lam, out=None):
            return solved_into(np.full(np.shape(rhs), 1e200), out)

        target, name, stand_in, message = {
            "singular": (theory, "_solve1", singular, "singular ridge system"),
            "non_finite_solution": (theory, "_solve1", nan_solution, "non-finite ridge solution"),
            "non_finite_loss": (theory, "ridge_codistill_solve", huge, "non-finite oracle loss"),
        }[case]
        monkeypatch.setattr(target, name, stand_in)
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra=""))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric error: {message} (lambda=")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


    def test_runs_where_numpys_private_modules_are_missing(self, tmp_path, capsys):
        # a fresh interpreter hides the private module theory imports, as a
        # numpy that moved it would, and _ufunc_config, which theory must not
        # need; the public stand-in must write the report the private path
        # writes
        cfg = write(tmp_path, "theory.toml", THEORY_TOML.format(extra=""))
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "public")]
        code = (
            "import sys, numpy.linalg; del numpy.linalg._umath_linalg; "
            "sys.modules['numpy.linalg._umath_linalg'] = None; "
            "sys.modules['numpy._core._ufunc_config'] = None; "
            "from fedckt import cli, theory; "
            "assert not isinstance(theory._solve1, numpy.ufunc); "
            f"sys.exit(cli.main({argv!r}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "private")]) == 0
        assert proc.stdout == capsys.readouterr().out
        report = (tmp_path / "public" / "theory_report.json").read_bytes()
        assert report == (tmp_path / "private" / "theory_report.json").read_bytes()

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
        assert "config error: fedckt toy: --num-seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, num_seeds", [(-1, 1), (2**64 - 1, 2), (2**64, 1)])
    def test_seeds_outside_64_bits_exit_2(self, tmp_path, capsys, seed, num_seeds):
        out = tmp_path / "toy"
        argv = ["toy", "--seed", str(seed), "--num-seeds", str(num_seeds), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: fedckt toy: --seed {seed} --num-seeds {num_seeds}: "
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

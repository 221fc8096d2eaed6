"""Experiment configuration: a flat key-value file with TOML-style sections.

Accepted syntax per line: `[section]` or `[section.sub]` headers,
`key = value` pairs (string, bool, int, float, or a single-line array of
scalars), comments starting with '#', and blank lines. JSON files holding
the same sections are accepted too, so the config echoed into a run's
summary can be re-fed verbatim.
"""

from __future__ import annotations

import codecs
import json
import math
import operator
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .errors import ConfigurationError
from .experiment import ALGORITHMS, POPULATION_TWO_GROUP, DataConfig, ModelConfig
from .federation import LR_ROBBINS_MONRO, FederationConfig


# ---------------------------------------------------------------------------
# flat TOML-subset parsing
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    out = []
    quote = None
    for ch in line:
        if quote:
            if ch == quote:
                quote = None
            out.append(ch)
        elif ch in ("'", '"'):
            quote = ch
            out.append(ch)
        elif ch == "#":
            break
        else:
            out.append(ch)
    return "".join(out).strip()


def _parse_scalar(token: str, where: str):
    token = token.strip()
    if not token:
        raise ConfigurationError(f"{where}: empty value")
    if token[0] in ("'", '"'):
        if len(token) < 2 or token[-1] != token[0]:
            raise ConfigurationError(f"{where}: unterminated string {token!r}")
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse value {token!r}") from None


def _parse_value(token: str, where: str):
    token = token.strip()
    if token.startswith("["):
        if not token.endswith("]"):
            raise ConfigurationError(f"{where}: unterminated array")
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, where) for part in inner.split(",")]
    return _parse_scalar(token, where)


def parse_flat_toml(
    text: str, source: str = "<config>", locations: dict | None = None
) -> dict[str, dict]:
    """Sections of key/value pairs; raises with file:line on malformed input,
    a repeated section header included. `locations`, if given, receives the
    "file:line" of each (section, key) and, under (section, None), of each
    section header."""
    sections: dict[str, dict] = {}
    header_lines: dict[str, int] = {}
    current: dict | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigurationError(f"{where}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigurationError(f"{where}: empty section name")
            if name in header_lines:
                why = f"repeated section (first at line {header_lines[name]})"
                raise ConfigurationError(f"{where}: [{name}]: {why}")
            header_lines[name] = lineno
            current_name = name
            current = sections[name] = {}
            if locations is not None:
                locations[name, None] = where
            continue
        if "=" not in line:
            raise ConfigurationError(f"{where}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigurationError(f"{where}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"{where}: missing key name")
        if key in current:
            raise ConfigurationError(f"{where}: duplicate key {key!r} in [{current_name}]")
        current[key] = _parse_value(value, f"{where} (key {key!r})")
        if locations is not None:
            locations[current_name, key] = where
    return sections


# ---------------------------------------------------------------------------
# typed run configuration
# ---------------------------------------------------------------------------

RUN_MODES = ALGORITHMS + ("theory_check", "partition_stats")

# float64 elements allowed in any one array a config implies: far above
# every shipped config, far below what numpy fails to allocate
MAX_ELEMENTS = 10**8

# Rules on one value are metadata on its config field, rule name -> bound;
# the rules across fields are the _check_* functions below.
RULES = {
    "min": (operator.ge, "must be >= {}"),
    "gt": (operator.gt, "must be > {}"),
    "max": (operator.le, "must be <= {}"),
    "choices": (lambda value, choices: value in choices, "must be one of {}"),
}


@dataclass(frozen=True)
class TheoryTaskConfig:
    num_clients: int = field(default=3, metadata={"min": 2})
    dim: int = field(default=2, metadata={"min": 1})
    sigma: float = field(default=1.0, metadata={"gt": 0})
    beta: float = field(default=1.0, metadata={"gt": 0})
    nu: float = field(default=1.0, metadata={"gt": 0})
    upsilon: tuple[float, ...] = field(default=(0.5, 1.0, 2.0), metadata={"min": 0})
    n_samples: int = 8
    client: int = field(default=0, metadata={"min": 0})


@dataclass(frozen=True)
class TheoryConfig:
    tasks: tuple[TheoryTaskConfig, ...] = ()
    num_samples: int = field(default=100_000, metadata={"min": 1})
    lambda_points: int = field(default=15, metadata={"min": 1})
    lambda_span: float = field(default=4.0, metadata={"gt": 1})
    alpha_resolution: int = field(default=16, metadata={"min": 1})
    tolerance: float = field(default=0.02, metadata={"gt": 0})


@dataclass(frozen=True)
class RunConfig:
    algorithm: str = field(metadata={"choices": RUN_MODES})
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    models: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationConfig | None = None
    theory: TheoryConfig | None = None


class _Rejected(Exception):
    """(section, key, value, why, *reads): a config value, or with key None a
    whole section, that breaks a rule; `reads` are the other (section, key)
    pairs the rule reads."""


def _at(section: str, cfg, key: str, why: str, *reads: str) -> _Rejected:
    """The rejection of `cfg`'s `key`, in [section], by a rule also reading `reads` there."""
    return _Rejected(section, key, getattr(cfg, key), why, *((section, k) for k in reads))


def _problem(hint: str, rules: dict, value) -> str | None:
    """Why `value` does not fit a field annotated `hint` with `rules`, or
    None; the config modules postpone annotations, so `hint` is the text.
    Integer fields take ints only (never bools or floats); float fields take
    finite ints or floats, and the bound compares exactly, so an int too
    large for a float is refused rather than overflowing; `tuple[float, ...]`
    fields take arrays whose every value fits a float field with `rules`."""
    if hint == "tuple[float, ...]":
        if not isinstance(value, (list, tuple)):
            return "must be an array"
        for item in value:
            why = _problem("float", rules, item)
            if why:
                return f"every value {why}"
        return None
    if hint == "int" and (isinstance(value, bool) or not isinstance(value, int)):
        return "must be an integer"
    if hint == "float" and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        return "must be a finite number"
    for rule, bound in rules.items():
        test, why = RULES[rule]
        if not test(value, bound):
            return why.format(bound)
    return None


def _build(cls, section: dict, name: str, **set_by_loader):
    """`cls` from a config section, each key checked against its field's type
    and rules; keys in `set_by_loader` are not accepted from the section."""
    known = {f.name: f for f in fields(cls) if f.name not in set_by_loader}
    for key, value in section.items():
        spec = known.get(key)
        why = _problem(spec.type, spec.metadata, value) if spec else "unknown key"
        if why:
            raise _Rejected(name, key, value, why)
    missing = [key for key, f in known.items() if f.default is MISSING and key not in section]
    if missing:
        raise _Rejected(name, None, None, f"missing required keys: {', '.join(missing)}")
    values = {key: tuple(v) if isinstance(v, list) else v for key, v in section.items()}
    return cls(**set_by_loader, **values)


def _at_largest(values: dict, why: str) -> _Rejected:
    """The rejection of the largest of `values`, {(section, key): value}, by
    a rule that reads them all."""
    largest = max(values, key=values.get)
    return _Rejected(*largest, values[largest], why, *(k for k in values if k != largest))


def _check_budgets(budgets, parts: dict) -> None:
    """Refuses a config whose implied arrays exceed MAX_ELEMENTS elements,
    before anything is allocated. A budget is a product of factors, each a
    (part, key, ...) tuple standing for the largest of those keys in the
    (section, config) pair parts[part]; the error points at its largest key."""
    for budget in budgets:
        factors = [{(parts[p][0], k): getattr(parts[p][1], k) for k in keys} for p, *keys in budget]
        if math.prod(max(factor.values()) for factor in factors) > MAX_ELEMENTS:
            text = " * ".join(k[0] if len(k) == 1 else f"max({', '.join(k)})" for _, *k in budget)
            why = f"{text} exceeds the budget of {MAX_ELEMENTS} elements"
            raise _at_largest({k: v for factor in factors for k, v in factor.items()}, why)


def _over_budget(factor: int, resolution: int, parts: int) -> bool:
    """Whether factor * comb(resolution + parts - 1, parts - 1) exceeds
    MAX_ELEMENTS; the binomial counts the simplex grid's weight vectors.

    The binomial is built one factor at a time over its smaller side, so the
    running product at least doubles per factor and passes the budget within
    a few dozen factors, where math.comb with a huge resolution would build
    an integer with billions of digits."""
    top = resolution + parts - 1
    side = min(resolution, parts - 1)
    count = factor
    for j in range(1, side + 1):
        if count > MAX_ELEMENTS:
            return True
        count = count * (top - side + j) // j
    return count > MAX_ELEMENTS


# The arrays a run allocates, as products of [data], [models] and
# [federation] keys: data, pool and logit stack, then model weights, then
# the hidden activations of a forward pass over the pool, the client data
# and a mini-batch.
RUN_BUDGETS = (
    (("data", "num_classes"), ("data", "samples_per_class"), ("data", "dim")),
    (("data", "public_pool_size"), ("data", "dim")),
    (("data", "num_clients"), ("data", "public_pool_size"), ("data", "num_classes")),
    (("data", "dim"), ("models", "hidden")),
    (("models", "hidden"), ("data", "num_classes")),
    (("data", "dim"), ("models", "hidden_small")),
    (("models", "hidden_small"), ("data", "num_classes")),
    (("data", "public_pool_size"), ("models", "hidden", "hidden_small")),
    (("data", "num_classes"), ("data", "samples_per_class"), ("models", "hidden", "hidden_small")),
)
FEDERATION_BUDGETS = (
    (("federation", "batch_size"), ("data", "dim")),
    (("federation", "public_batch_size"), ("data", "dim")),
    (("federation", "batch_size", "public_batch_size"), ("models", "hidden", "hidden_small")),
)
# a theory task's design matrices and its Monte-Carlo draws
TASK_BUDGETS = (
    (("task", "num_clients"), ("task", "n_samples"), ("task", "dim")),
    (("theory", "num_samples"), ("task", "dim")),
)


def _check_data(d: DataConfig) -> None:
    if d.population == POPULATION_TWO_GROUP:
        for key in ("num_classes", "num_clients"):
            if getattr(d, key) % 2:
                why = "must be even for the two_group population"
                raise _at("data", d, key, why, "population")
    # bounds every public-pool class mean, so the pool inputs stay finite
    if not math.isfinite(abs(d.class_separation) + abs(d.public_offset)):
        why = "abs(class_separation) + abs(public_offset) must be finite"
        raise _at("data", d, "public_offset", why, "class_separation")


def _check_models(m: ModelConfig, algorithm: str) -> None:
    if m.kind != "softmax_linear" and m.hidden < 1:
        raise _at("models", m, "hidden", f"must be >= 1 for kind {m.kind!r}", "kind")
    if m.kind == "heterogeneous" and m.hidden_small < 1:
        raise _at("models", m, "hidden_small", "must be >= 1 for kind 'heterogeneous'", "kind")
    if algorithm == "fedavg" and m.kind == "heterogeneous":
        why = "fedavg averages parameters, so every client needs the same architecture"
        raise _Rejected("models", "kind", m.kind, why, ("run", "algorithm"))


def _check_federation(f: FederationConfig, algorithm: str) -> None:
    if f.lr_mode == LR_ROBBINS_MONRO and not f.lr_decay > 0:
        raise _at("federation", f, "lr_decay", f"must be > 0 for lr_mode {f.lr_mode!r}", "lr_mode")
    if algorithm == "perfed_ckt" and f.num_clusters > f.num_selected:
        why = f"must be <= num_selected ({f.num_selected}) for perfed_ckt"
        reads = (("federation", "num_selected"), ("run", "algorithm"))
        raise _Rejected("federation", "num_clusters", f.num_clusters, why, *reads)


def _check_task(t: TheoryTaskConfig, name: str, theory: TheoryConfig) -> None:
    _check_budgets(TASK_BUDGETS, {"task": (name, t), "theory": ("theory", theory)})
    # the oracle solves once per (lambda, alpha) point and holds the
    # (comb, K) alpha grid
    k = t.num_clients
    if _over_budget(max(theory.lambda_points, k), theory.alpha_resolution, k):
        why = f"max(lambda_points, K) * comb(alpha_resolution + K - 1, K - 1) with K = {k} "
        why += f"exceeds the budget of {MAX_ELEMENTS} elements"
        reads = {("theory", "alpha_resolution"): theory.alpha_resolution, (name, "num_clients"): k}
        raise _at_largest({("theory", "lambda_points"): theory.lambda_points, **reads}, why)
    if len(t.upsilon) != k:
        why = f"upsilon must list one value per client, got {len(t.upsilon)}"
        raise _at(name, t, "num_clients", why, "upsilon")
    if t.client >= k:
        raise _at(name, t, "client", f"must be < num_clients ({k})", "num_clients")
    if t.n_samples < t.dim:
        raise _at(name, t, "n_samples", "must be >= dim", "dim")
    # the closed form divides by sigma^2 and by upsilon[client]^2 nu; float
    # products, since an int field squares exactly and never to inf
    s2 = float(t.sigma) * float(t.sigma)
    if not (math.isfinite(s2) and s2 > 0):
        raise _at(name, t, "sigma", "sigma * sigma must be finite and > 0")
    own = float(t.upsilon[t.client])
    if not own * own * t.nu > 0:
        why = "upsilon[client] * upsilon[client] * nu must be > 0"
        raise _at(name, t, "upsilon", why, "client", "nu")


def _task_sections(sections: dict) -> list[str]:
    """The `theory.taskN` section names, ordered by the integer N (the task
    index seeds the task's draws, so task10 must follow task2)."""
    by_number: dict[int, str] = {}
    for name in sections:
        if not name.startswith("theory.task"):
            continue
        suffix = name[len("theory.task") :]
        if not (suffix.isascii() and suffix.isdigit()):
            raise _Rejected(name, None, None, "task sections are named theory.taskN, N an integer")
        number = int(suffix)
        if number in by_number:
            raise _Rejected(name, None, None, f"same task number as [{by_number[number]}]")
        by_number[number] = name
    return [by_number[n] for n in sorted(by_number)]


def _config(sections: dict, seed_override: int | None) -> RunConfig:
    for name, body in sections.items():
        if not isinstance(body, dict):
            raise _Rejected(name, None, None, f"must be a table of keys, got {json.dumps(body)}")
    sections = dict(sections)
    run = sections.pop("run", {})
    seed = run.get("seed", 0) if seed_override is None else seed_override
    data = _build(DataConfig, sections.pop("data", {}), "data")
    models = _build(ModelConfig, sections.pop("models", {}), "models")
    federation = None
    if "federation" in sections:
        federation = _build(FederationConfig, sections.pop("federation"), "federation", seed=seed)
    task_sections = _task_sections(sections)
    theory_body = sections.pop("theory", None)
    theory = None
    if theory_body is not None or task_sections:
        tasks = tuple(_build(TheoryTaskConfig, sections.pop(n), n) for n in task_sections)
        theory = _build(TheoryConfig, theory_body or {}, "theory", tasks=tasks)
    for name in sections:
        raise _Rejected(name, None, None, "unknown section")
    cfg = _build(
        RunConfig, run, "run", data=data, models=models, federation=federation, theory=theory
    )

    if cfg.algorithm in ALGORITHMS and federation is None:
        raise _at("run", cfg, "algorithm", "needs a [federation] section")
    if cfg.algorithm == "theory_check" and not (theory and theory.tasks):
        raise _at("run", cfg, "algorithm", "needs at least one [theory.taskN] section")
    _check_data(data)
    _check_models(models, cfg.algorithm)
    parts = {"data": ("data", data), "models": ("models", models)}
    _check_budgets(RUN_BUDGETS, parts)
    if federation is not None:
        _check_federation(federation, cfg.algorithm)
        _check_budgets(FEDERATION_BUDGETS, {**parts, "federation": ("federation", federation)})
    for name, task in zip(task_sections, theory.tasks if theory else ()):
        _check_task(task, name, theory)
    return cfg if seed_override is None else replace(cfg, seed=seed_override)


def config_from_sections(
    sections: dict, seed_override: int | None = None, locations: dict | None = None
) -> RunConfig:
    """The run configuration the parsed `sections` describe. An error about a
    value reads `FILE:LINE: [section] key = value: why`, with the location
    from `locations` (see parse_flat_toml) when it holds the key, and an
    error about a whole section reads `[section]: why`. The error's `keys`
    are the (section, key) pairs the broken rule reads, the reported first."""
    try:
        return _config(sections, seed_override)
    except _Rejected as exc:
        section, key, value, why, *reads = exc.args
        where = (locations or {}).get((section, key))
        subject = f"[{section}]" if key is None else f"[{section}] {key} = {json.dumps(value)}"
        message = f"{subject}: {why}" if where is None else f"{where}: {subject}: {why}"
        raise ConfigurationError(message, ((section, key), *reads)) from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a repeated key raises ValueError, where
    json.loads would keep only its last value."""
    body = {}
    for key, value in pairs:
        if key in body:
            raise ValueError(f"repeated key {json.dumps(key)}")
        body[key] = value
    return body


def load_config(path, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    # skip the byte-order mark some editors write first, before decoding,
    # so a decode error's offset counts lines of the rest
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise ConfigurationError(f"{path}:{line}: not UTF-8 text") from exc
    locations: dict = {}
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        try:
            sections = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # a repeated key, or an integer past the int digit limit
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(sections, dict):
            raise ConfigurationError(f"{path}: top-level JSON must be an object")
    else:
        sections = parse_flat_toml(text, str(path), locations)
    return config_from_sections(sections, seed_override, locations)


def config_to_sections(cfg: RunConfig) -> dict:
    """Nested-dict echo of the resolved config; feeding this back as a JSON
    config reproduces the run exactly."""
    sections: dict = {
        "run": {"algorithm": cfg.algorithm, "seed": cfg.seed},
        "data": asdict(cfg.data),
        "models": asdict(cfg.models),
    }
    if cfg.federation is not None:
        fed = asdict(cfg.federation)
        fed.pop("seed")  # the master seed in [run] is authoritative
        sections["federation"] = fed
    if cfg.theory is not None:
        body = asdict(cfg.theory)
        sections["theory"] = body
        for index, task in enumerate(body.pop("tasks"), start=1):
            sections[f"theory.task{index}"] = task
    return sections

"""Experiment configuration: a flat key-value file with TOML-style sections.

Accepted syntax per line: `[section]` or `[section.sub]` headers,
`key = value` pairs (string, bool, int, float, or a single-line array of
scalars), comments starting with '#', and blank lines. JSON files holding
the same sections are accepted too, so the config echoed into a run's
summary can be re-fed verbatim.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import get_origin, get_type_hints

from .errors import ConfigurationError
from .experiment import ALGORITHMS, MAX_ELEMENTS, DataConfig, ModelConfig, check_budget
from .federation import FederationConfig

RUN_MODES = ALGORITHMS + ("theory_check", "partition_stats")


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


def parse_flat_toml(text: str, source: str = "<config>") -> dict[str, dict]:
    """Sections of key/value pairs; raises with file:line on malformed input."""
    sections: dict[str, dict] = {}
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
            current_name = name
            current = sections.setdefault(name, {})
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
    return sections


# ---------------------------------------------------------------------------
# typed run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryTaskConfig:
    num_clients: int = 3
    dim: int = 2
    sigma: float = 1.0
    beta: float = 1.0
    nu: float = 1.0
    upsilon: tuple[float, ...] = (0.5, 1.0, 2.0)
    n_samples: int = 8
    client: int = 0

    def __post_init__(self):
        if self.num_clients < 2:
            raise ConfigurationError("num_clients must be >= 2")
        if len(self.upsilon) != self.num_clients:
            raise ConfigurationError("upsilon must list one value per client")
        if not 0 <= self.client < self.num_clients:
            raise ConfigurationError("client index out of range")
        if self.dim < 1:
            raise ConfigurationError("dim must be >= 1")
        if self.n_samples < self.dim:
            raise ConfigurationError("n_samples must be >= dim")
        if not (self.sigma > 0 and self.beta > 0 and self.nu > 0):
            raise ConfigurationError("sigma, beta, nu must be positive")
        # the closed form divides by sigma^2 and by upsilon[client]^2 nu;
        # float products, since an int field squares exactly and never to inf
        s2 = float(self.sigma) * float(self.sigma)
        if not (math.isfinite(s2) and s2 > 0):
            raise ConfigurationError("sigma * sigma must be finite and > 0")
        if min(self.upsilon) < 0:
            raise ConfigurationError("upsilon values must be >= 0")
        own = float(self.upsilon[self.client])
        if not own * own * self.nu > 0:
            raise ConfigurationError(
                "upsilon[client] * upsilon[client] * nu must be > 0"
            )
        check_budget({"num_clients * n_samples * dim": self.num_clients * self.n_samples * self.dim})


@dataclass(frozen=True)
class TheoryConfig:
    tasks: tuple[TheoryTaskConfig, ...] = ()
    num_samples: int = 100_000
    lambda_points: int = 15
    lambda_span: float = 4.0
    alpha_resolution: int = 16
    tolerance: float = 0.02

    def __post_init__(self):
        if min(self.num_samples, self.lambda_points, self.alpha_resolution) < 1:
            raise ConfigurationError(
                "num_samples, lambda_points and alpha_resolution must be >= 1"
            )
        if not self.lambda_span > 1:
            raise ConfigurationError("lambda_span must be > 1")
        if not self.tolerance > 0:
            raise ConfigurationError("tolerance must be > 0")
        max_dim = max((t.dim for t in self.tasks), default=1)
        check_budget({"num_samples * dim": self.num_samples * max_dim})
        # the oracle solves once per (lambda, alpha) point and holds the
        # (comb, K) alpha grid
        for index, task in enumerate(self.tasks):
            k = task.num_clients
            if _over_budget(max(self.lambda_points, k), self.alpha_resolution, k):
                raise ConfigurationError(
                    f"theory task {index}: max(lambda_points, K) * comb(alpha_resolution "
                    f"+ K - 1, K - 1) with K = {k} exceeds the budget of {MAX_ELEMENTS} elements"
                )


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


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    models: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationConfig | None = None
    theory: TheoryConfig | None = None

    def __post_init__(self):
        if self.algorithm not in RUN_MODES:
            raise ConfigurationError(
                f"[run]: algorithm must be one of {RUN_MODES}, got {self.algorithm!r}"
            )
        if self.algorithm in ALGORITHMS and self.federation is None:
            raise ConfigurationError(f"[federation] section required for {self.algorithm}")
        if self.algorithm == "theory_check" and (
            self.theory is None or not self.theory.tasks
        ):
            raise ConfigurationError("theory_check needs at least one [theory.task*]")
        d, m = self.data, self.models
        # weights, then the hidden activations of a forward pass over the
        # pool, the client data and a mini-batch
        width = max(m.hidden, m.hidden_small)
        sizes = {
            "dim * hidden": d.dim * m.hidden,
            "hidden * num_classes": m.hidden * d.num_classes,
            "dim * hidden_small": d.dim * m.hidden_small,
            "hidden_small * num_classes": m.hidden_small * d.num_classes,
            "public_pool_size * max(hidden, hidden_small)": d.public_pool_size * width,
            "num_classes * samples_per_class * max(hidden, hidden_small)": (
                d.num_classes * d.samples_per_class * width
            ),
        }
        if self.federation is not None:
            f = self.federation
            sizes["batch_size * dim"] = f.batch_size * d.dim
            sizes["public_batch_size * dim"] = f.public_batch_size * d.dim
            sizes["max(batch_size, public_batch_size) * max(hidden, hidden_small)"] = (
                max(f.batch_size, f.public_batch_size) * width
            )
        check_budget(sizes)


def _check_type(name: str, key: str, value, hint) -> None:
    """Integer fields take ints only (never bools or floats); float fields
    take finite ints or floats; `tuple[float, ...]` fields take arrays of
    those. The float bound compares exactly, so an int too large for a float
    is refused rather than overflowing."""
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"[{name}]: {key} must be an array, got {value!r}")
        for item in value:
            _check_type(name, key, item, float)
    elif hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"[{name}]: {key} must be an integer, got {value!r}")
    elif hint is float:
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
        ):
            raise ConfigurationError(f"[{name}]: {key} must be a finite number, got {value!r}")


def _build(cls, section: dict, name: str, **overrides):
    """`cls` from a config section; keys in `overrides` are set by the loader
    and are not accepted from the section."""
    known = set(cls.__dataclass_fields__) - set(overrides)
    hints = get_type_hints(cls)
    merged = dict(overrides)
    for key, value in section.items():
        if key not in known:
            raise ConfigurationError(f"[{name}]: unknown key {key!r}")
        _check_type(name, key, value, hints[key])
        merged[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**merged)
    except (TypeError, ConfigurationError) as exc:
        raise ConfigurationError(f"[{name}]: {exc}") from exc


def _task_sections(sections: dict) -> list[str]:
    """The `theory.taskN` section names, ordered by the integer N (the task
    index seeds the task's draws, so task10 must follow task2)."""
    by_number: dict[int, str] = {}
    for name in sections:
        if not name.startswith("theory.task"):
            continue
        suffix = name[len("theory.task") :]
        if not (suffix.isascii() and suffix.isdigit()):
            raise ConfigurationError(f"[{name}]: task sections are named theory.taskN, N an integer")
        number = int(suffix)
        if number in by_number:
            raise ConfigurationError(f"[{name}]: same task number as [{by_number[number]}]")
        by_number[number] = name
    return [by_number[n] for n in sorted(by_number)]


def config_from_sections(sections: dict, seed_override: int | None = None) -> RunConfig:
    for name, body in sections.items():
        if not isinstance(body, dict):
            raise ConfigurationError(f"[{name}] must be a table of keys, got {body!r}")
    sections = {name: dict(body) for name, body in sections.items()}
    run = sections.pop("run", {})
    algorithm = run.pop("algorithm", None)
    if algorithm is None:
        raise ConfigurationError("[run]: missing required key 'algorithm'")
    seed = run.pop("seed", 0)
    _check_type("run", "seed", seed, int)
    if seed_override is not None:
        seed = seed_override
    for key in run:
        raise ConfigurationError(f"[run]: unknown key {key!r}")

    data = _build(DataConfig, sections.pop("data", {}), "data")
    models = _build(ModelConfig, sections.pop("models", {}), "models")

    federation = None
    if "federation" in sections:
        federation = _build(
            FederationConfig, sections.pop("federation", {}), "federation", seed=seed
        )

    task_sections = _task_sections(sections)
    theory_body = sections.pop("theory", None)
    theory = None
    if theory_body is not None or task_sections:
        tasks = tuple(
            _build(TheoryTaskConfig, sections.pop(name), name) for name in task_sections
        )
        theory = _build(TheoryConfig, theory_body or {}, "theory", tasks=tasks)

    for name in sections:
        raise ConfigurationError(f"unknown section [{name}]")

    return RunConfig(
        algorithm=algorithm,
        seed=seed,
        data=data,
        models=models,
        federation=federation,
        theory=theory,
    )


def load_config(path, seed_override: int | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if str(path).endswith(".json") or stripped.startswith("{"):
        try:
            sections = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(sections, dict):
            raise ConfigurationError(f"{path}: top-level JSON must be an object")
    else:
        sections = parse_flat_toml(text, source=str(path))
    return config_from_sections(sections, seed_override=seed_override)


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

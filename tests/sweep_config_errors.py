"""Single-key mutation sweep over the shipped configs.

Sets each `key = value` line of configs/*.toml, one at a time, to each value
in VALUES, loads the result with runconfig.load_config, and counts the
refusals located at the mutated key: the refusing rule reads that key, and
the message starts with the FILE:LINE of a key the rule reads. It takes 0.7 to 1.7 s
on a 2-core VM, too long for the tier-1 suite, so its name keeps
pytest from collecting it. Run it from the repository root:

    PYTHONPATH=src python tests/sweep_config_errors.py

Exits 1 if a refusal is not located at the mutated key or a mutation
escapes as any exception other than ConfigurationError.
"""

import re
import sys
import tempfile
import time
from pathlib import Path

from fedckt.errors import ConfigurationError
from fedckt.runconfig import load_config, parse_flat_toml

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the values of test_single_key_mutation_never_escapes, plus an integer far
# above every element budget and the first integer past 64 bits
VALUES = ["7", "0.5", "true", '"x"', "0", "-1", "-1.5", "1e308", "-1e308", "1e200", "1e-200"]
VALUES += [str(10**18), str(2**64)]


def main() -> int:
    start = time.perf_counter()
    total = refused = prefixed = located = 0
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted(CONFIGS.glob("*.toml")):
            lines = config.read_text().splitlines(keepends=True)
            path = Path(tmp) / config.name
            for index, line in enumerate(lines):
                match = re.match(r"(\w+) = ", line)
                if not match:
                    continue
                key = match.group(1)
                for value in VALUES:
                    total += 1
                    mutated = [*lines[:index], f"{key} = {value}\n", *lines[index + 1 :]]
                    path.write_text("".join(mutated))
                    locations = {}
                    parse_flat_toml(path.read_text(), str(path), locations)
                    at_key = next(k for k, at in locations.items() if at == f"{path}:{index + 1}")
                    try:
                        load_config(path)
                    except ConfigurationError as exc:
                        refused += 1
                        prefixed += str(exc).startswith(f"{path}:")
                        reported = (f"{locations.get(k)}: " for k in exc.keys)
                        if at_key in exc.keys and any(map(str(exc).startswith, reported)):
                            located += 1
                        else:
                            problems.append(f"{config.name}: {key} = {value}: {exc}")
                    except Exception as exc:  # noqa: BLE001 - the sweep reports escapes
                        problems.append(f"{config.name}: {key} = {value}: escaped {exc!r}")
    elapsed = time.perf_counter() - start
    print(
        f"{total} mutations of {len(list(CONFIGS.glob('*.toml')))} configs in {elapsed:.2f} s: "
        f"{refused} refused at load, {prefixed} with FILE:LINE, "
        f"{located} at the mutated key"
    )
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

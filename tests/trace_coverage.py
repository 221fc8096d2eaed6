"""Line trace of the tier-1 suite over src/fedckt.

Runs the suite in-process under sys.settrace, records every line of
src/fedckt it executes, and prints each executable line that no test
reaches. Executable lines are the line starts of every code object the
compiler builds from each module. The stdlib tracer roughly doubles the
suite's time, too long for tier-1, so its name keeps pytest from
collecting it. Run it from the repository root:

    PYTHONPATH=src python tests/trace_coverage.py

Exits 1 if the suite fails or a line other than cli.py's `__main__` guard
is unreached. test_single_key_mutation_never_escapes is deselected: its
hypothesis draws are random, so the lines it reaches vary from run to run.
"""

import dis
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedckt"
DESELECTED = "tests/test_cli.py::TestRunCommand::test_single_key_mutation_never_escapes"
# run only by `python -m fedckt.cli`, in a child process
ALLOWED = {(PACKAGE / "cli.py", "sys.exit(main())")}


def executable_lines(path: Path) -> set[int]:
    """The line starts of `path`'s module code and every code object in it."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def main() -> int:
    prefix = str(PACKAGE) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local(frame, event, arg)
        return None

    start = time.perf_counter()
    sys.settrace(global_trace)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--deselect", DESELECTED, str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
    elapsed = time.perf_counter() - start

    total, unreached = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in reached:
                unreached.append((path, line, source[line - 1].strip()))
    problems = [u for u in unreached if (u[0], u[2]) not in ALLOWED]
    print(
        f"traced {total} executable lines of {PACKAGE.relative_to(ROOT)} in {elapsed:.1f} s: "
        f"{len(unreached)} unreached, {len(unreached) - len(problems)} of them allowed"
    )
    for path, line, text in unreached:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return 1 if problems or status else 0


if __name__ == "__main__":
    sys.exit(main())

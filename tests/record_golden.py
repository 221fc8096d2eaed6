"""Re-records tests/golden.json, the output digests test_golden.py checks.

Run it only for a change that alters outputs on purpose, after checking the
new outputs, and say why in the change's notes:

    PYTHONPATH=src python3 tests/record_golden.py

pytest does not collect this file.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import build  # noqa: E402
from test_golden import CASES, GOLDEN_FILE, run_case  # noqa: E402


def main():
    digests = {}
    for name, (_, expected) in CASES.items():
        with tempfile.TemporaryDirectory() as directory:
            code, digests[name] = run_case(name, directory)
        if code != expected:
            sys.exit(f"{name}: exit {code}, expected {expected}; nothing recorded")
    GOLDEN_FILE.write_text(json.dumps({"build": build(), "digests": digests}, indent=1) + "\n")
    print(f"recorded {sum(map(len, digests.values()))} files of {len(digests)} cases on {build()}")


if __name__ == "__main__":
    main()

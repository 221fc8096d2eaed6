"""Golden outputs: the sha256 of every file small runs write.

Each case runs `fedckt.cli.main` in-process on a smoke-sized config (or the
toy's arguments) and compares the digest of every output file, `checkpoints/`
included, with `tests/golden.json`. A change that claims unchanged outputs
leaves every digest as it is. The digests hold on the numpy and BLAS build
they were recorded on, which the file stores; on another build every case
fails and names both. A change that alters outputs on purpose re-records the
file with `PYTHONPATH=src python3 tests/record_golden.py` and says why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedckt.cli import main
from helpers import build

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_FILE = Path(__file__).with_name("golden.json")
SMOKE = (ROOT / "configs/smoke.toml").read_text()

TWO_GROUP = """
[run]
algorithm = "perfed_ckt"
seed = 0

[data]
population = "two_group"
num_classes = 4
dim = 2
samples_per_class = 40
class_separation = 4.0
alpha = 0.3
num_clients = 4
public_pool_size = 20
public_offset = 1.0

[models]
kind = "mlp"
hidden = 6
init_scale = 0.05

[federation]
rounds = 3
local_iters = 2
num_selected = 3
batch_size = 8
public_batch_size = 8
distill_weight = 1.0
num_clusters = 2
lr = 0.1
eval_interval = 2
"""

THEORY = """
[run]
algorithm = "theory_check"
seed = 5

[theory]
num_samples = 5000
lambda_points = 5
lambda_span = 3.0
alpha_resolution = 6
tolerance = 0.02

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


def edited(text, *edits):
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    return text


FEDAVG, LOCAL = ('"perfed_ckt"', '"fedavg"'), ('"perfed_ckt"', '"local"')
HETEROGENEOUS = ('"softmax_linear"', '"heterogeneous"')

# name -> (the config's TOML text, or None for the toy, and the exit code)
CASES = {
    "perfed_softmax": (SMOKE, 0),
    "perfed_lambda0": (edited(SMOKE, ("distill_weight = 0.5", "distill_weight = 0.0")), 0),
    "perfed_heterogeneous": (edited(SMOKE, HETEROGENEOUS), 0),
    "perfed_mlp_two_group": (TWO_GROUP, 0),
    "fedavg_softmax": (edited(SMOKE, FEDAVG), 0),
    "fedavg_mlp_two_group": (edited(TWO_GROUP, FEDAVG), 0),
    "local_softmax": (edited(SMOKE, LOCAL), 0),
    "local_heterogeneous": (edited(SMOKE, LOCAL, HETEROGENEOUS), 0),
    # every client diverges while training in round 0, which does not end the run
    "diverged_lr": (edited(SMOKE, ("lr = 0.05", "lr = 1e308")), 3),
    # the first monitor pass overflows, which ends the run
    "fatal_distill_weight": (edited(SMOKE, ("distill_weight = 0.5", "distill_weight = 1e308")), 3),
    "theory_check": (THEORY, 0),
    "partition_stats": ((ROOT / "configs/partition_stats.toml").read_text(), 0),
    "toy": (None, 0),
}
# run again with two BLAS threads, in a fresh interpreter
THREADED = ["perfed_mlp_two_group", "fedavg_mlp_two_group"]


def run_case(name, directory):
    """(exit code, {output path: sha256}) of case `name` run through main,
    its config and outputs kept in the existing directory `directory`."""
    text, _ = CASES[name]
    out = Path(directory) / "out"
    if text is None:
        argv = ["toy", "--num-seeds", "3", "--out", str(out)]
    else:
        config = Path(directory) / f"{name}.toml"
        config.write_text(text)
        argv = ["run", "--config", str(config), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    return code, digests


def recorded():
    golden = json.loads(GOLDEN_FILE.read_text())
    assert golden["build"] == build(), (
        f"the digests were recorded on {golden['build']}, this is {build()}: "
        "check the outputs on this build, then re-record with tests/record_golden.py"
    )
    return golden["digests"]


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_recorded_digests(tmp_path, name):
    digests = recorded()[name]
    code, found = run_case(name, tmp_path)
    assert code == CASES[name][1]
    changed = sorted(p for p in digests.keys() | found.keys() if digests.get(p) != found.get(p))
    assert not changed, f"{name}: outputs differ from the recorded digests on {build()}: {changed}"


def test_two_blas_threads_give_the_recorded_digests(tmp_path):
    digests = recorded()
    script = (
        "import json, os, sys, test_golden as g; print(json.dumps("
        "{n: g.run_case(n, os.path.join(sys.argv[1], n)) for n in g.THREADED}))"
    )
    for name in THREADED:
        (tmp_path / name).mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(
            os.environ,
            OPENBLAS_NUM_THREADS="2",
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
        ),
    )
    assert proc.returncode == 0, proc.stderr
    for name, (code, found) in json.loads(proc.stdout).items():
        assert code == CASES[name][1]
        assert found == digests[name], f"{name}: two BLAS threads change the outputs on {build()}"

"""fedckt benchmark: times fixed workloads end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 bench/run.py --record-digests

Run from the root of a fedckt checkout. For `--seconds` seconds it runs the
fedckt CLI on the workload's config, one fresh child process after another
(closed loop, one at a time). Every run's outputs are checked: exit code 0,
the communication and row-count closed forms, byte-identical outputs
across the reruns, and the recorded digests in `bench/digests.json` where
the seed has them. A run that fails any check counts as failed.

With `--trace 0` the last line reports the end-to-end metrics, medians over
the runs, with every time scaled by the run's speed-probe factor (see
`child.py`). With `--trace 1` untraced and traced runs alternate; the traced
ones give the per-layer metrics, and their call counts must equal the
workload's closed forms. `--smoke` shrinks every workload to seconds through
the same code path. `--record-digests` rewrites `bench/digests.json` from
the current program. Metric definitions are in `bench/README.md`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from child import LAYERS  # noqa: E402
from workloads import WORKLOADS, check_outputs, expected_counts, to_toml, work_items  # noqa: E402

DIGESTS_FILE = BENCH_DIR / "digests.json"
WORK_DIR = Path(".bench_work")
BLAS_THREADS = 1  # pinned: small per-client matrices gain nothing from BLAS threads
DEADLINE_S = 170.0  # a run never starts a child after this and kills one still running
DEFAULT_SEED, HELD_OUT_SEED = 0, 1
MIN_RUNS = 3

END_TO_END = {  # name -> unit; the metrics of a --trace 0 result
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}
PER_LAYER = {  # name -> unit; the metrics of a --trace 1 result
    **{
        f"models.{fn}.{m}": u
        for fn in ("forward_logits", "grad_phi_stochastic", "grad_local")
        for m, u in (("calls", "count"), ("rows", "rows"), ("busy_s", "s"))
    },
    "data.minibatch.calls": "count",
    "data.minibatch.busy_s": "s",
    "rng.substream.calls": "count",
    "rng.substream.busy_s": "s",
    "clustering.cmeans_fit.calls": "count",
    "clustering.cmeans_fit.busy_s": "s",
    "clustering.cmeans_fit.lloyd_iters": "count",
    "clustering.assign_nearest.calls": "count",
    "clustering.assign_nearest.busy_s": "s",
    "federation.client_local_round.calls": "count",
    "federation.client_local_round.busy_s": "s",
    "federation.client_local_round.self_s": "s",
    "federation.sample_clients.calls": "count",
    "federation.sample_clients.busy_s": "s",
    "federation.grad_norm_monitor.calls": "count",
    "federation.grad_norm_monitor.busy_s": "s",
    "federation.evaluate_clients.busy_s": "s",
    "federation.accuracy_on.busy_s": "s",
    "experiment.run_algorithm.loop_self_s": "s",
    "experiment.build_population.busy_s": "s",
    "experiment.write_outputs.busy_s": "s",
    "experiment.write_outputs.bytes": "bytes",
    "theory.grid_search_oracle.busy_s": "s",
    "theory.ridge_codistill_solve.calls": "count",
    "theory.ridge_codistill_solve.busy_s": "s",
    "theory.gen_task.busy_s": "s",
    "cli.main.busy_s": "s",
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("calls", "count"), ("self_s", "s"))},
    "trace.overhead_s": "s",
}
WRITERS = ("write_metrics_csv", "write_summary_json", "write_checkpoints")


def output_digests(out_dir: Path, theory: bool) -> dict[str, str]:
    """sha256 of the deterministic outputs. summary.json is digested without
    its config echo, which lists every config field with its default: deleting
    an unused field would change the bytes but no result."""
    if theory:
        return {"theory_report.json": _sha256((out_dir / "theory_report.json").read_bytes())}
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("config")
    return {
        "metrics.csv": _sha256((out_dir / "metrics.csv").read_bytes()),
        "summary.json[results]": _sha256(json.dumps(summary, sort_keys=True).encode()),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_digests(workload: str, seed: int, smoke: bool) -> dict | None:
    table = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    return table.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed))


@dataclass
class ChildRun:
    traced: bool
    out_dir: Path
    result: dict | None = None
    problems: list[str] = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    digests: dict | None = None
    output_bytes: int = 0  # size of the files the CLI wrote
    speed: float = 1.0  # the child's speed factor: times are multiplied by it


def run_child(root: Path, config: Path, out_dir: Path, traced: bool, deadline: float) -> ChildRun:
    """One CLI run in a fresh interpreter, with BLAS threads pinned."""
    out_dir.mkdir(parents=True)
    result_path = out_dir / "child_result.json"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        str(result_path),
        "1" if traced else "0",
        "--",
        "run",
        "--config",
        str(config),
        "--out",
        str(out_dir),
    ]
    with open(out_dir / "stdout.txt", "wb") as stdout, open(out_dir / "stderr.txt", "wb") as stderr:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=stdout, stderr=stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return ChildRun(traced, out_dir, problems=["timed out"])
    run = ChildRun(traced, out_dir)
    if result_path.exists():
        run.result = result = json.loads(result_path.read_text())
        result["run_s"] = result["main_end_monotonic"] - start
        result["setup_s"] = result["main_enter_monotonic"] - start + result["setup_in_main_s"]
        run.speed = result["speed_factor"] or 1.0
        if not result["fedckt_file"].startswith(str(root / "src")):
            run.problems.append(f"imported fedckt from {result['fedckt_file']}, not the checkout")
    if code != 0 or run.result is None:
        tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        run.problems.append(f"exit code {code}: {' | '.join(tail)}")
    return run


def check_child(run: ChildRun, sections: dict, theory: bool) -> None:
    """Output checks for every run, call-count self-check for traced runs."""
    if run.problems:
        return
    run.quality, problems = check_outputs(sections, run.out_dir)
    run.problems.extend(problems)
    run.digests = output_digests(run.out_dir, theory)
    own = {"child_result.json", "stdout.txt", "stderr.txt", "spans.npy", "spans.names.json"}
    run.output_bytes = sum(
        p.stat().st_size for p in run.out_dir.rglob("*") if p.is_file() and p.name not in own
    )
    if run.traced:
        trace = run.result["trace"]
        active = int(trace.get("experiment.build_population.active_clients", 0))
        for name, expected in expected_counts(sections, active).items():
            if trace.get(name, 0) != expected:
                run.problems.append(f"self-check: {name} = {trace.get(name, 0)}, expected {expected}")


def layer_metrics(run: ChildRun) -> dict[str, float]:
    trace = run.result["trace"]
    values = {name: float(trace.get(name, 0.0)) for name in PER_LAYER}
    values["experiment.write_outputs.busy_s"] = sum(
        trace.get(f"experiment.{fn}.busy_s", 0.0) for fn in WRITERS
    )
    values["experiment.write_outputs.bytes"] = float(run.output_bytes)
    return {
        name: value * run.speed if PER_LAYER[name] == "s" else value
        for name, value in values.items()
    }


def machine_record(root: Path) -> dict:
    import numpy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {**blas, "threads": BLAS_THREADS},
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    expected: dict | None = None,
    root: Path = Path("."),
) -> dict:
    """Runs the closed loop and returns the result line plus a full report.

    Every run's output digests must equal `expected`, or when that is None,
    the first run's."""
    root = root.resolve()
    workload = WORKLOADS[name]
    sections = workload.config(seed, smoke)
    work = root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.toml"
    config.write_text(to_toml(sections))
    machine = machine_record(root)

    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    runs: list[ChildRun] = []
    while len(runs) < (2 * MIN_RUNS if trace else MIN_RUNS) or time.monotonic() - begin < seconds:
        if time.monotonic() > deadline:
            break
        traced = trace and len(runs) % 2 == 1
        run = run_child(root, config, work / f"run{len(runs):03d}", traced, deadline)
        check_child(run, sections, workload.is_theory)
        if run.digests is not None:
            reference = expected or (runs[0].digests if runs else None)
            if reference is not None and run.digests != reference:
                run.problems.append(f"output digests {run.digests} != {reference}")
        runs.append(run)
        if len(runs) > 1 and not run.problems:
            shutil.rmtree(run.out_dir)  # keep the first and every failed run
    machine["loadavg_end"] = os.getloadavg()

    failed = [r for r in runs if r.problems]
    for r in failed:
        print(f"FAILED {r.out_dir.name}: {'; '.join(r.problems)}", file=sys.stderr)
    ok = [r for r in runs if not r.problems]
    plain = [r for r in ok if not r.traced]
    traced_runs = [r for r in ok if r.traced]
    work_count = work_items(sections)

    metrics: dict[str, dict] = {}
    if trace:
        if traced_runs and plain:
            layers = [layer_metrics(r) for r in traced_runs]
            for metric, unit in PER_LAYER.items():
                metrics[metric] = {"value": statistics.median(v[metric] for v in layers), "unit": unit}
            metrics["trace.overhead_s"]["value"] = statistics.median(
                r.result["main_s"] * r.speed for r in traced_runs
            ) - statistics.median(r.result["main_s"] * r.speed for r in plain)
    elif plain:
        per_run = {
            "run_s": [r.result["run_s"] * r.speed for r in plain],
            "setup_s": [r.result["setup_s"] * r.speed for r in plain],
            "cpu_s": [r.result["cpu_s"] * r.speed for r in plain],
            "peak_rss_mb": [r.result["peak_rss_mb"] for r in plain],
            "work_per_s": [work_count / (r.result["run_s"] * r.speed) for r in plain],
        }
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": statistics.median(per_run[metric]), "unit": unit}

    correct = not failed and bool(metrics)
    report = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "machine": machine,
        "runs": len(runs),
        "timed_runs": len(plain),
        "digests_checked_against": "recorded" if expected is not None else "first run",
        "unscaled_medians": {
            key: statistics.median(r.result[key] for r in plain) for key in ("run_s", "setup_s", "cpu_s")
        }
        if plain
        else {},
        "speed_factors": [round(r.speed, 4) for r in ok],
        "quality": ok[0].quality if ok else {},
        "digests": ok[0].digests if ok else None,
        "work_items": work_count,
    }
    result = {"correct": correct, "attempted": len(runs), "failed": len(failed), "metrics": metrics}
    return {"result": result, "report": report}


def print_summary(outcome: dict) -> None:
    """Every end-to-end figure the benchmark knows, for a human reader."""
    report, result = outcome["report"], outcome["result"]
    metrics, quality = result["metrics"], report["quality"]
    theory = WORKLOADS[report["workload"]].is_theory
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    if not report["trace"]:
        work_rate = metrics["work_per_s"]["value"] if metrics else None
        rows += [
            ("client_steps_per_s", None if theory else work_rate, "steps/s"),
            ("oracle_points_per_s", work_rate if theory else None, "points/s"),
            ("final_mean_acc", quality.get("final_mean_acc"), "-"),
            ("final_grad_norm", quality.get("final_grad_norm"), "-"),
            ("comm_scalars", quality.get("comm_scalars"), "scalars"),
            ("theory_max_gap", quality.get("theory_max_gap"), "-"),
        ]
    rows.append(("failed_run_ratio", result["failed"] / result["attempted"], "-"))
    print(
        f"# {report['workload']} seed={report['seed']} runs={report['runs']} "
        f"timed={report['timed_runs']} digests={report['digests_checked_against']}"
    )
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown:>14s} {unit}")
    print(json.dumps({"record": report}))


def record_digests(root: Path) -> None:
    """Rewrites digests.json from one run per workload and recorded seed."""
    table: dict = {"full": {}, "smoke": {}}
    for name in WORKLOADS:
        for smoke, seeds in ((False, (DEFAULT_SEED, HELD_OUT_SEED)), (True, (DEFAULT_SEED,))):
            for seed in seeds:
                outcome = run_workload(name, seed, 0.0, False, smoke, root=root)
                if not outcome["result"]["correct"]:
                    raise SystemExit(f"{name} seed {seed}: outputs fail their checks")
                digests = outcome["report"]["digests"]
                table["smoke" if smoke else "full"].setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed={seed} smoke={smoke}: {digests}")
    DIGESTS_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    root = Path(".").resolve()
    if not (root / "src" / "fedckt" / "cli.py").is_file():
        print(f"error: no fedckt sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    expected = recorded_digests(args.workload, args.seed, args.smoke)
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, expected, root
    )
    print_summary(outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

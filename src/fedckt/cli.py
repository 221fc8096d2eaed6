"""Command-line entry point.

Subcommands: run, which runs the mode the config's `[run] algorithm` selects
(a federated algorithm, theory_check or partition_stats), and toy. Exit codes
are stable across subcommands: 0 success, 1 failed verification, 2 a
malformed config or command line or an output that cannot be written, 3
numeric failure (a diverged client or a non-finite or unsolvable
computation), 4 internal error (any other exception, reported as one line
instead of a traceback).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError
from .experiment import (
    build_population,
    run_algorithm,
    summarize_run,
    write_checkpoints,
    write_json,
    write_metrics_csv,
    write_partition_stats,
    write_summary_json,
)
from .rng import derive_seed
from .runconfig import TheoryConfig, config_to_sections, load_config
from .theory import (
    closed_form_lambda_alpha,
    gen_task,
    grid_search_oracle,
    lambda_grid_around,
    run_toy_example,
    simplex_grid,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INTERNAL = 4


@contextmanager
def _output_set(args):
    """(out, stage): every writer writes into the fresh staging directory
    `stage` inside `--out`, which is made first, so that an unwritable one
    fails first. Only when the block returns are the staged entries moved
    into `--out`, the marker last (`summary.json`, else the lone file) after
    the old marker is removed, so a present marker means every file beside
    it comes from the same run. On every exit the staging directory goes,
    and so do the directories this call made, while they are still empty."""
    out = Path(args.out or ".")
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".fedckt-", dir=out))
    try:
        yield out, stage
        names = sorted(os.listdir(stage), key=lambda name: (name == "summary.json", name))
        (out / names[-1]).unlink(missing_ok=True)
        for name in names:
            if (stage / name).is_dir() and (out / name).is_dir():
                shutil.rmtree(out / name)
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    with _output_set(args) as (out, stage):
        if cfg.algorithm == "theory_check":
            return _theory_check(cfg.theory, cfg.seed, stage)
        if cfg.algorithm == "partition_stats":
            write_partition_stats(stage / "partition_stats.json", cfg.data, cfg.seed)
            result, wrote = None, out / "partition_stats.json"
        else:
            try:  # the refusals only the built population can make name the file too
                records, pool = build_population(cfg.data, cfg.models, cfg.seed)
                result = run_algorithm(cfg.algorithm, records, pool, cfg.federation)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{args.config}: {exc}") from exc
            write_metrics_csv(stage / "metrics.csv", result.metrics)
            write_summary_json(stage / "summary.json", summarize_run(result, config_to_sections(cfg)))
            write_checkpoints([r for r in records if r.bundle.active], stage / "checkpoints")
            wrote = f"{out / 'metrics.csv'}, {out / 'summary.json'} and {out / 'checkpoints'}"
    print(f"wrote {wrote}")  # only once the set is committed
    if result is not None and result.diverged:  # a run's error always records its client among them
        why = f"diverged clients (client, round): {result.diverged}"
        raise NumericError(why if result.error is None else f"{result.error}; {why}")
    return EXIT_OK


def _theory_check(theory: TheoryConfig, master_seed: int, out: Path) -> int:
    reports = []
    all_pass = True
    for index, task_cfg in enumerate(theory.tasks):
        task = gen_task(
            dim=task_cfg.dim,
            num_clients=task_cfg.num_clients,
            sigma=task_cfg.sigma,
            upsilon=task_cfg.upsilon,
            beta=task_cfg.beta,
            nu=task_cfg.nu,
            n_samples=task_cfg.n_samples,
            seed=derive_seed(master_seed, "theory-task", index),
        )
        k = task_cfg.client
        closed = closed_form_lambda_alpha(task, k)
        lam_grid = lambda_grid_around(closed.lambda_star, theory.lambda_points, theory.lambda_span)
        alpha_grid = simplex_grid(task_cfg.num_clients, theory.alpha_resolution)
        mc_seed = derive_seed(master_seed, "theory-mc", index)
        oracle = grid_search_oracle(task, k, lam_grid, alpha_grid, theory.num_samples, mc_seed)
        closed_loss = oracle.closed_form_loss
        gap = closed_loss / oracle.best_loss - 1.0
        passed = closed_loss <= (1.0 + theory.tolerance) * oracle.best_loss
        all_pass &= passed
        reports.append(
            {
                "task": index,
                "inputs": asdict(task_cfg),
                "closed_form": {
                    "lambda_star": closed.lambda_star,
                    "alpha_star": [float(a) for a in closed.alpha_star],
                    "alpha_sum": float(closed.alpha_star.sum()),
                    "a_k": closed.a_k,
                    "b_k": closed.b_k,
                },
                "oracle": {
                    "best_lambda": oracle.best_lambda,
                    "best_alpha": [float(a) for a in oracle.best_alpha],
                    "best_loss": oracle.best_loss,
                },
                "closed_form_loss": closed_loss,
                "relative_gap": gap,
                "tolerance": theory.tolerance,
                "passed": bool(passed),
            }
        )
        print(
            f"task {index}: {'PASS' if passed else 'FAIL'} "
            f"(closed {closed_loss:.6f} vs best {oracle.best_loss:.6f}, "
            f"gap {gap:+.4%}, tol {theory.tolerance:.2%})"
        )
    write_json(out / "theory_report.json", {"tasks": reports, "all_passed": bool(all_pass)})
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


TOY_CSV_HEADER = "seed,client,kind,w0,w1,dist_to_true"


def cmd_toy(args) -> int:
    start_seed, num_seeds = args.seed, args.num_seeds
    if num_seeds < 1:
        raise ConfigurationError(f"fedckt toy: --num-seeds must be >= 1, got {num_seeds}")
    if start_seed < 0 or start_seed + num_seeds > 2**64:
        why = f"--seed {start_seed} --num-seeds {num_seeds}: seeds must lie in [0, 2**64)"
        raise ConfigurationError(f"fedckt toy: {why}")
    with _output_set(args) as (_, stage):
        rows = []
        wins = {0: 0, 1: 0}
        uniform_beats_fedavg_client2 = 0
        for seed in range(start_seed, start_seed + num_seeds):
            true_w, solutions = run_toy_example(seed)
            dist = [{} for _ in range(3)]
            for k, true in enumerate(true_w):
                rows.append(f"{seed},{k},true,{float(true[0])!r},{float(true[1])!r},0.0")
                for kind, weights in solutions.items():
                    w = weights[k]
                    dist[k][kind] = float(np.linalg.norm(w - true))
                    rows.append(f"{seed},{k},{kind},{float(w[0])!r},{float(w[1])!r},{dist[k][kind]!r}")
            for client in (0, 1):
                if dist[client]["clustered_kt"] < dist[client]["uniform_kt"]:
                    wins[client] += 1
            if dist[2]["uniform_kt"] < dist[2]["fedavg"]:
                uniform_beats_fedavg_client2 += 1
        with open(stage / "toy.csv", "w") as fh:
            fh.write(TOY_CSV_HEADER + "\n")
            fh.write("\n".join(rows) + "\n")
    print(
        f"clustered-vs-uniform win rate: client0 {wins[0] / num_seeds:.2f}, "
        f"client1 {wins[1] / num_seeds:.2f}; "
        f"uniform-vs-fedavg (client2): {uniform_beats_fedavg_client2 / num_seeds:.2f} "
        f"over {num_seeds} seeds"
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigurationError, so it exits 2
    with one stderr line like every other refusal; subparsers inherit it."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedckt",
        description="Desk-scale federated co-distillation experiments and theory checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the mode selected by the config's [run] algorithm")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.set_defaults(func=cmd_run)

    toy = sub.add_parser("toy", help="three-client linear-regression toy")
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--out", default=None)
    toy.add_argument("--num-seeds", type=int, default=10)
    toy.set_defaults(func=cmd_toy)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numeric failures are reported by the checks that raise
        # NumericError, not by numpy's RuntimeWarnings; theory holds its own
        # np.errstate around its solves (invalid="raise", per lambda block in
        # the oracle), so singular systems still raise
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

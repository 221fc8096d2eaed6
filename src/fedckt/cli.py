"""Command-line entry point.

Subcommands: run, which runs the mode the config's `[run] algorithm` selects
(a federated algorithm, theory_check or partition_stats), and toy. Exit codes
are stable across subcommands: 0 success, 1 failed verification, 2
configuration error or an output that cannot be written, 3 numeric failure
(a diverged client or a non-finite or unsolvable computation), 4 internal
error (any other exception, reported as one line instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NumericError
from .experiment import (
    _atomic_open,
    build_population,
    run_algorithm,
    summarize_run,
    write_checkpoints,
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


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_run(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    out = _out_dir(args)
    if cfg.algorithm == "theory_check":
        return _theory_check(cfg.theory, cfg.seed, out)
    if cfg.algorithm == "partition_stats":
        write_partition_stats(out / "partition_stats.json", cfg.data, cfg.seed)
        print(f"wrote {out / 'partition_stats.json'}")
        return EXIT_OK
    records, pool = build_population(cfg.data, cfg.models, cfg.seed)
    result = run_algorithm(cfg.algorithm, records, pool, cfg.federation)
    write_metrics_csv(out / "metrics.csv", result.metrics)
    write_summary_json(out / "summary.json", summarize_run(result, config_to_sections(cfg)))
    write_checkpoints([r for r in records if r.bundle.active], out / "checkpoints")
    print(f"wrote {out / 'metrics.csv'}, {out / 'summary.json'} and {out / 'checkpoints'}")
    if result.diverged:
        print(f"diverged clients (client, round): {result.diverged}", file=sys.stderr)
    if result.error is not None:
        raise result.error
    if result.diverged:
        return EXIT_DIVERGED
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
    with _atomic_open(out / "theory_report.json") as fh:
        json.dump({"tasks": reports, "all_passed": bool(all_pass)}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


TOY_CSV_HEADER = "seed,client,kind,w0,w1,dist_to_true"


def cmd_toy(args) -> int:
    start_seed, num_seeds = args.seed, args.num_seeds
    if num_seeds < 1:
        raise ConfigurationError(f"--num-seeds must be >= 1, got {num_seeds}")
    out = _out_dir(args)
    rows = []
    wins = {0: 0, 1: 0}
    uniform_beats_fedavg_client2 = 0
    for seed in range(start_seed, start_seed + num_seeds):
        reports = run_toy_example(seed)
        for rep in reports:
            rows.append(
                f"{seed},{rep.client},true,{float(rep.true_w[0])!r},{float(rep.true_w[1])!r},0.0"
            )
            for kind, sol in rep.solutions.items():
                rows.append(
                    f"{seed},{rep.client},{kind},"
                    f"{float(sol.weights[0])!r},{float(sol.weights[1])!r},{sol.distance!r}"
                )
        dist = [{kind: sol.distance for kind, sol in rep.solutions.items()} for rep in reports]
        for client in (0, 1):
            if dist[client]["clustered_kt"] < dist[client]["uniform_kt"]:
                wins[client] += 1
        if dist[2]["uniform_kt"] < dist[2]["fedavg"]:
            uniform_beats_fedavg_client2 += 1
    with _atomic_open(out / "toy.csv") as fh:
        fh.write(TOY_CSV_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    print(
        f"clustered-vs-uniform win rate: client0 {wins[0] / num_seeds:.2f}, "
        f"client1 {wins[1] / num_seeds:.2f}; "
        f"uniform-vs-fedavg (client2): {uniform_beats_fedavg_client2 / num_seeds:.2f} "
        f"over {num_seeds} seeds"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedckt",
        description="Desk-scale federated co-distillation experiments and theory checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the mode selected by the config's [run] algorithm")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    run.set_defaults(func=cmd_run)

    toy = sub.add_parser("toy", help="three-client linear-regression toy")
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--out", default=None)
    toy.add_argument("--num-seeds", type=int, default=10)
    toy.set_defaults(func=cmd_toy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numeric failures are reported by the checks that raise
        # NumericError, not by numpy's RuntimeWarnings; np.linalg sets its
        # own errstate, so singular systems still raise
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

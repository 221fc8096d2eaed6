"""The benchmark's four workloads, written as fedckt configs from a seed.

The configs live here rather than under `configs/`, so an edit to the
shipped configs cannot move a workload. They follow two rules that keep
them valid through the planned config changes: no `parallel` key (the
thread pool is slated for removal) and an integer literal for every
integer field (float and bool values for integer fields are slated to be
rejected).

Each workload also knows the closed forms its outputs and traced call
counts must match; `expected_counts` and `check_outputs` apply them.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sections: dict  # full-size config, without [run].seed
    smoke: dict  # section -> overrides that shrink the run to seconds

    @property
    def is_theory(self) -> bool:
        return self.sections["run"]["algorithm"] == "theory_check"

    def config(self, seed: int, smoke: bool = False) -> dict:
        sections = copy.deepcopy(self.sections)
        sections["run"]["seed"] = seed
        if smoke:
            for name, overrides in self.smoke.items():
                sections[name].update(overrides)
        return sections


# Why each workload is in the benchmark. The perfed pair splits the two cost
# regimes of the clustered round (wide vectors vs per-call overhead); fedavg
# and theory are the no-change controls for changes confined to the
# co-distillation path and to the federation layers respectively.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="perfed_dirichlet100",
            why=(
                "100 label-skewed clients, 2000-row pool: full-pool forwards, the "
                "distillation gradient and k-means on 20000-dim vectors dominate"
            ),
            # the shape of configs/dirichlet_perfed.toml, run sequentially
            sections={
                "run": {"algorithm": "perfed_ckt"},
                "data": {
                    "population": "dirichlet",
                    "num_classes": 10,
                    "dim": 8,
                    "samples_per_class": 500,
                    "class_separation": 5.0,
                    "alpha": 0.01,
                    "num_clients": 100,
                    "public_pool_size": 2000,
                    "public_offset": 1.5,
                },
                "models": {
                    "kind": "heterogeneous",
                    "hidden": 24,
                    "hidden_small": 12,
                    "init_scale": 0.05,
                },
                "federation": {
                    "rounds": 30,
                    "local_iters": 10,
                    "num_selected": 10,
                    "batch_size": 32,
                    "public_batch_size": 64,
                    "distill_weight": 2.0,
                    "num_clusters": 3,
                    "lr": 0.05,
                    "eval_interval": 10,
                },
            },
            smoke={"federation": {"rounds": 2, "eval_interval": 1}},
        ),
        Workload(
            name="perfed_converge10",
            why=(
                "10 near-IID softmax clients, 30-row pool, all selected, tau=1, eval "
                "every round: per-call overhead dominates, not large-pool compute"
            ),
            # the shape of acceptance criterion 4 (theorem-1 convergence)
            sections={
                "run": {"algorithm": "perfed_ckt"},
                "data": {
                    "population": "dirichlet",
                    "num_classes": 5,
                    "dim": 5,
                    "samples_per_class": 300,
                    "class_separation": 10.0,
                    "alpha": 100.0,
                    "num_clients": 10,
                    "public_pool_size": 30,
                    "public_offset": 1.0,
                },
                "models": {"kind": "softmax_linear", "init_scale": 0.1},
                "federation": {
                    "rounds": 300,
                    "local_iters": 1,
                    "num_selected": 10,
                    "batch_size": 32,
                    "public_batch_size": 30,
                    "distill_weight": 0.5,
                    "num_clusters": 2,
                    "lr": 0.5,
                    "lr_mode": "robbins_monro",
                    "lr_decay": 0.01,
                    "eval_interval": 1,
                },
            },
            smoke={"federation": {"rounds": 5}},
        ),
        Workload(
            name="fedavg_twogroup",
            why=(
                "parameter averaging over 20 MLP-24 clients: no pool, no clustering; "
                "the no-change control for co-distillation-only changes"
            ),
            # the population of configs/two_group.toml with a homogeneous model
            sections={
                "run": {"algorithm": "fedavg"},
                "data": {
                    "population": "two_group",
                    "num_classes": 10,
                    "dim": 4,
                    "samples_per_class": 400,
                    "class_separation": 4.0,
                    "alpha": 0.3,
                    "num_clients": 20,
                    "public_pool_size": 300,
                    "public_offset": 1.0,
                },
                "models": {"kind": "mlp", "hidden": 24, "init_scale": 0.05},
                "federation": {
                    "rounds": 300,
                    "local_iters": 5,
                    "num_selected": 10,
                    "batch_size": 32,
                    "public_batch_size": 64,
                    "distill_weight": 2.0,
                    "num_clusters": 2,
                    "lr": 0.1,
                    "eval_interval": 10,
                },
            },
            smoke={"federation": {"rounds": 5, "eval_interval": 2}},
        ),
        Workload(
            name="theory_oracle",
            why=(
                "closed form vs the (lambda, alpha) grid-search oracle: only the theory "
                "module runs, the no-change control for every federation layer"
            ),
            # the three tasks of configs/theory_check.toml
            sections={
                "run": {"algorithm": "theory_check"},
                "theory": {
                    "num_samples": 100000,
                    "lambda_points": 15,
                    "lambda_span": 4.0,
                    "alpha_resolution": 15,
                    "tolerance": 0.02,
                },
                "theory.task1": {
                    "num_clients": 3,
                    "dim": 2,
                    "sigma": 1.0,
                    "beta": 1.0,
                    "nu": 1.0,
                    "upsilon": [0.5, 1.0, 2.0],
                    "n_samples": 8,
                    "client": 0,
                },
                "theory.task2": {
                    "num_clients": 4,
                    "dim": 3,
                    "sigma": 1.5,
                    "beta": 2.0,
                    "nu": 0.7,
                    "upsilon": [0.5, 0.8, 2.0, 4.0],
                    "n_samples": 8,
                    "client": 0,
                },
                "theory.task3": {
                    "num_clients": 5,
                    "dim": 4,
                    "sigma": 1.0,
                    "beta": 1.0,
                    "nu": 1.3,
                    "upsilon": [0.3, 0.7, 1.5, 2.5, 5.0],
                    "n_samples": 8,
                    "client": 0,
                },
            },
            smoke={"theory": {"num_samples": 20000, "lambda_points": 5, "alpha_resolution": 5}},
        ),
    )
}


def _toml_value(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return repr(value)
    raise TypeError(f"unsupported config value {value!r}")


def to_toml(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {_toml_value(value)}" for key, value in body.items())
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def eval_rounds(fed: dict) -> list[int]:
    rounds, interval = fed["rounds"], fed["eval_interval"]
    return [t for t in range(rounds) if t % interval == 0 or t == rounds - 1]


def _mlp_param_count(data: dict, models: dict) -> int:
    d, n, h = data["dim"], data["num_classes"], models["hidden"]
    return d * h + h + h * n + n


def comm_per_round(sections: dict) -> tuple[int, int]:
    """(uplink, downlink) scalars per round: m|P|N up and mc|P|N down for
    co-distillation, m parameter vectors each way for FedAvg."""
    fed, data = sections["federation"], sections["data"]
    m = fed["num_selected"]
    if sections["run"]["algorithm"] == "fedavg":
        n_par = _mlp_param_count(data, sections["models"])
        return m * n_par, m * n_par
    block = data["public_pool_size"] * data["num_classes"]
    return m * block, m * fed["num_clusters"] * block


def simplex_size(num_weights: int, resolution: int) -> int:
    return math.comb(resolution + num_weights - 1, num_weights - 1)


def oracle_points(sections: dict) -> int:
    theory = sections["theory"]
    return sum(
        theory["lambda_points"] * simplex_size(body["num_clients"], theory["alpha_resolution"])
        for name, body in sections.items()
        if name.startswith("theory.task")
    )


def work_items(sections: dict) -> int:
    """Local SGD steps (federation) or (lambda, alpha) grid points (theory)."""
    if sections["run"]["algorithm"] == "theory_check":
        return oracle_points(sections)
    fed = sections["federation"]
    return fed["rounds"] * fed["num_selected"] * fed["local_iters"]


def expected_counts(sections: dict, active_clients: int) -> dict[str, int]:
    """Traced call counts implied by the workload's own parameters.

    `active_clients` is observed from the built population (it depends on
    the Dirichlet draw); everything else comes from the config.
    """
    if sections["run"]["algorithm"] == "theory_check":
        tasks = sum(1 for name in sections if name.startswith("theory.task"))
        return {
            "theory.gen_task.calls": tasks,
            "theory.grid_search_oracle.calls": tasks,
            # one solve per grid point plus one for the closed form per task
            "theory.ridge_codistill_solve.calls": oracle_points(sections) + tasks,
            "experiment.build_population.calls": 0,
            "federation.client_local_round.calls": 0,
        }
    fed = sections["federation"]
    rounds, m, tau = fed["rounds"], fed["num_selected"], fed["local_iters"]
    evals = len(eval_rounds(fed)) * active_clients
    if sections["run"]["algorithm"] == "fedavg":
        return {
            "experiment.build_population.calls": 1,
            "federation.sample_clients.calls": rounds,
            "federation.client_local_round.calls": 0,
            "data.minibatch.calls": tau * rounds * m,
            "models.grad_local.calls": tau * rounds * m + evals,
            "models.grad_phi_stochastic.calls": 0,
            "federation.grad_norm_monitor.calls": evals,
            "federation.accuracy_on.calls": evals,
            "models.forward_logits.calls": evals,
            "clustering.cmeans_fit.calls": 0,
            "clustering.assign_nearest.calls": 0,
            "theory.ridge_codistill_solve.calls": 0,
        }
    lam_positive = fed["distill_weight"] > 0
    grads = tau * rounds * m + evals
    return {
        "experiment.build_population.calls": 1,
        "federation.sample_clients.calls": rounds + 1,  # plus the bootstrap draw
        "federation.client_local_round.calls": rounds * m,
        "data.minibatch.calls": (2 if lam_positive else 1) * tau * rounds * m,
        "models.grad_phi_stochastic.calls": grads if lam_positive else 0,
        # grad_phi_stochastic computes its local term through grad_local
        "models.grad_local.calls": grads,
        "federation.grad_norm_monitor.calls": evals,
        "federation.accuracy_on.calls": evals,
        # bootstrap upload, then per selected client: nearest-centroid pick and
        # upload; per active client on eval rounds: monitor pick and accuracy
        "models.forward_logits.calls": m + 2 * rounds * m + 2 * evals,
        "clustering.cmeans_fit.calls": rounds,
        "clustering.assign_nearest.calls": rounds * m + evals,
        "theory.ridge_codistill_solve.calls": 0,
    }


def check_outputs(sections: dict, out_dir) -> tuple[dict, list[str]]:
    """Quality figures from one run's output files, plus every way they break
    a closed form. An empty problem list means the outputs are well-formed."""
    problems: list[str] = []
    if sections["run"]["algorithm"] == "theory_check":
        with open(out_dir / "theory_report.json") as fh:
            report = json.load(fh)
        tasks = report["tasks"]
        expected = sum(1 for name in sections if name.startswith("theory.task"))
        if len(tasks) != expected:
            problems.append(f"theory report has {len(tasks)} tasks, expected {expected}")
        if not report["all_passed"]:
            problems.append("theory report: a task failed its tolerance")
        gaps = [t["relative_gap"] for t in tasks]
        if not all(math.isfinite(g) for g in gaps):
            problems.append("theory report: non-finite gap")
        return {"theory_max_gap": max(gaps)}, problems

    fed = sections["federation"]
    up, down = comm_per_round(sections)
    with open(out_dir / "metrics.csv") as fh:
        header, *rows = fh.read().splitlines()
    if header != "round,mean_acc,std_acc,grad_norm,uplink,downlink":
        problems.append(f"metrics.csv header {header!r}")
    parsed = [row.split(",") for row in rows]
    rounds = [int(r[0]) for r in parsed]
    if rounds != eval_rounds(fed):
        problems.append(f"metrics.csv rounds {rounds} != eval rounds")
    for r in parsed:
        t, acc, norm = int(r[0]), float(r[1]), float(r[3])
        if not 0.0 <= acc <= 1.0 or not math.isfinite(norm):
            problems.append(f"metrics.csv round {t}: accuracy {acc}, grad norm {norm}")
        if (int(r[4]), int(r[5])) != ((t + 1) * up, (t + 1) * down):
            problems.append(f"metrics.csv round {t}: communication {r[4]},{r[5]}")
    with open(out_dir / "summary.json") as fh:
        summary = json.load(fh)
    comm = summary["comm"]
    if (comm["uplink_scalars"], comm["downlink_scalars"]) != (
        fed["rounds"] * up,
        fed["rounds"] * down,
    ):
        problems.append(f"summary.json communication {comm} off the closed form")
    if summary["diverged_events"]:
        problems.append(f"diverged clients {summary['diverged_events']}")
    last = parsed[-1]
    return {
        "final_mean_acc": float(last[1]),
        "final_grad_norm": float(last[3]),
        "comm_scalars": comm["total_scalars"],
    }, problems

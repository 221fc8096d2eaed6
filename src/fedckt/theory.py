"""Closed-form theory for the hierarchical linear-regression model and its
brute-force verification.

Generative model: a global parameter theta (uniform on a bounded box as the
flat-prior stand-in), per-client truths w_k = theta + zeta_k with
zeta_k ~ N(0, upsilon_k^2 I), designs with X_k' X_k = beta I, observations
y_k = X_k w_k + z_k with z_k ~ N(0, sigma^2 I), and a public design with
P' P = nu I.

The closed-form regularization weight and distillation weights are

    lambda_k* = sigma^2 / (upsilon_k^2 nu)
    alpha_{k,i}* = B_k / (sigma^2 + beta upsilon_i^2)   for every i in [K]
    A_k = (sum_{i != k} 1/(sigma^2 + beta upsilon_i^2))^{-1}
    B_k = A_k (sigma^2 + beta upsilon_k^2) / (sigma^2 + A_k + beta upsilon_k^2)

With these, the ridge/co-distillation minimizer reproduces the exact
posterior mean of w_k given every client's least-squares estimate, and the
weights sum to 1. (The B_k denominator is written additively here; the
multiplicative variant seen elsewhere fails a dimensional check and makes
the posterior coefficients sum away from 1 — see tests for the brute-force
cross-check.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .rng import substream

THETA_BOX = 10.0  # flat-prior stand-in: theta ~ Uniform(-THETA_BOX, THETA_BOX)^d


@dataclass(frozen=True)
class BayesLinRegTask:
    """One realization of the generative model, with designs sqrt(beta) and
    sqrt(nu) times orthonormal columns, so X_k' X_k = beta I and P' P = nu I
    hold up to rounding in the Gram products, which grows with their scale."""

    dim: int
    num_clients: int
    sigma: float
    upsilon: np.ndarray  # (K,)
    beta: float
    nu: float
    n_samples: int
    theta: np.ndarray  # (d,)
    true_w: np.ndarray  # (K, d)
    designs: np.ndarray  # (K, n, d)
    targets: np.ndarray  # (K, n)
    public_design: np.ndarray  # (d, d)


@dataclass(frozen=True)
class ClosedForm:
    lambda_star: float
    alpha_star: np.ndarray  # (K,), includes the self weight
    a_k: float
    b_k: float


@dataclass(frozen=True)
class OracleResult:
    best_lambda: float
    best_alpha: np.ndarray
    best_loss: float
    closed_form_loss: float


def _orthonormal_frame(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q[:, :cols]


def gen_task(
    dim: int,
    num_clients: int,
    sigma: float,
    upsilon,
    beta: float,
    nu: float,
    n_samples: int,
    seed: int,
) -> BayesLinRegTask:
    upsilon = np.asarray(upsilon, dtype=np.float64)
    rng = substream(seed, "bayes-task")
    theta = rng.uniform(-THETA_BOX, THETA_BOX, dim)
    zeta = rng.normal(size=(num_clients, dim)) * upsilon[:, None]
    true_w = theta + zeta
    designs = np.empty((num_clients, n_samples, dim))
    targets = np.empty((num_clients, n_samples))
    for k in range(num_clients):
        designs[k] = np.sqrt(beta) * _orthonormal_frame(rng, n_samples, dim)
        noise = rng.normal(0.0, sigma, n_samples)
        targets[k] = designs[k] @ true_w[k] + noise
    public_design = np.sqrt(nu) * _orthonormal_frame(rng, dim, dim)
    return BayesLinRegTask(
        dim=dim,
        num_clients=num_clients,
        sigma=sigma,
        upsilon=upsilon,
        beta=beta,
        nu=nu,
        n_samples=n_samples,
        theta=theta,
        true_w=true_w,
        designs=designs,
        targets=targets,
        public_design=public_design,
    )


def ols_estimate(task: BayesLinRegTask, k: int) -> np.ndarray:
    """Least-squares estimate of client k's parameters. Every design is
    sqrt(beta) times orthonormal columns, so it has full rank."""
    return np.linalg.lstsq(task.designs[k], task.targets[k], rcond=None)[0]


def all_ols(task: BayesLinRegTask) -> np.ndarray:
    return np.stack([ols_estimate(task, k) for k in range(task.num_clients)])


def ridge_codistill_system(
    xtx: np.ndarray,
    ptp: np.ndarray,
    what_k: np.ndarray,
    lam: float,
    alpha: np.ndarray,
    what_all: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The normal equations of the ridge/co-distillation objective:
    lhs = X'X + lam P'P and rhs = X'X what_k + lam P'P sum_i alpha_i what_i."""
    mixed = np.asarray(alpha) @ what_all
    lhs = xtx + lam * ptp
    rhs = xtx @ what_k + lam * (ptp @ mixed)
    return lhs, rhs


def ridge_codistill_solve(lhs: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """General-matrix minimizer lhs^{-1} rhs of one ridge/co-distillation
    system, for one (d,) `rhs`; `lam` only names it in a NumericError. At
    d <= 4 checking finiteness over Python floats beats a numpy reduction."""
    try:
        solution = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular ridge system (lambda={lam})") from exc
    if not all(map(math.isfinite, solution.tolist())):
        raise NumericError(f"non-finite ridge solution (lambda={lam})")
    return solution


def ridge_codistill_minimizer(
    task: BayesLinRegTask,
    k: int,
    lam: float,
    alpha: np.ndarray,
    what_all: np.ndarray,
) -> np.ndarray:
    xtx = task.designs[k].T @ task.designs[k]
    ptp = task.public_design.T @ task.public_design
    lhs, rhs = ridge_codistill_system(xtx, ptp, what_all[k], lam, alpha, what_all)
    return ridge_codistill_solve(lhs, rhs, lam)


def ridge_codistill_scalar(
    task: BayesLinRegTask,
    k: int,
    lam: float,
    alpha: np.ndarray,
    what_all: np.ndarray,
) -> np.ndarray:
    """Scalar-mixing form of the same minimizer, valid under the beta-I /
    nu-I design structure: (1-rho) what_k + rho sum_i alpha_i what_i with
    rho = lam nu / (beta + lam nu)."""
    rho = lam * task.nu / (task.beta + lam * task.nu)
    return (1.0 - rho) * what_all[k] + rho * (np.asarray(alpha) @ what_all)


def closed_form_lambda_alpha(task: BayesLinRegTask, k: int) -> ClosedForm:
    """Optimal regularization weight and distillation weights for client k."""
    s2 = task.sigma**2
    beta = task.beta
    u2 = task.upsilon.astype(np.float64) ** 2
    others = [1.0 / (s2 + beta * u2[i]) for i in range(task.num_clients) if i != k]
    a_k = 1.0 / sum(others)
    b_k = a_k * (s2 + beta * u2[k]) / (s2 + a_k + beta * u2[k])
    lambda_star = s2 / (u2[k] * task.nu)
    alpha_star = b_k / (s2 + beta * u2)
    return ClosedForm(lambda_star=lambda_star, alpha_star=alpha_star, a_k=a_k, b_k=b_k)


def posterior_moments_scalar(
    task: BayesLinRegTask, k: int, what_all: np.ndarray
) -> tuple[np.ndarray, float]:
    """Posterior mean of w_k given every least-squares estimate, in the
    coefficient (scalar-mixing) form, plus the scalar posterior variance."""
    closed = closed_form_lambda_alpha(task, k)
    s2 = task.sigma**2
    beta = task.beta
    u2 = task.upsilon.astype(np.float64) ** 2
    b = beta * u2[k]
    coef = (s2 / (s2 + b)) * closed.b_k / (s2 + beta * u2)  # = rho* alpha*_i at the optimum
    coef[k] += b / (s2 + b)
    mean = coef @ what_all
    variance = s2 * (closed.a_k + b) / (beta * (s2 + closed.a_k + b))
    return mean, variance


def posterior_moments_matrix(
    task: BayesLinRegTask, k: int, what_all: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Same posterior from the general matrix definitions (no beta-I
    shortcut): the independent dual path used to verify the scalar form."""
    d = task.dim
    s2 = task.sigma**2
    eye = np.eye(d)
    u2 = task.upsilon.astype(np.float64) ** 2

    def obs_cov(i):
        xtx_inv = np.linalg.inv(task.designs[i].T @ task.designs[i])
        return s2 * xtx_inv + u2[i] * eye

    prec_sum = np.zeros((d, d))
    weighted = np.zeros(d)
    for i in range(task.num_clients):
        if i == k:
            continue
        prec = np.linalg.inv(obs_cov(i))
        prec_sum += prec
        weighted += prec @ what_all[i]
    loo_cov = np.linalg.inv(prec_sum)
    loo_mean = loo_cov @ weighted
    tilde = loo_cov + u2[k] * eye
    own_prec = (task.designs[k].T @ task.designs[k]) / s2
    post_cov = np.linalg.inv(np.linalg.inv(tilde) + own_prec)
    mean = post_cov @ (own_prec @ what_all[k]) + post_cov @ np.linalg.solve(
        tilde, loo_mean
    )
    return mean, post_cov


def _mc_noise(num_samples: int, dim: int, seed: int) -> np.ndarray:
    return substream(seed, "mc-noise").normal(size=(num_samples, dim))


def expected_loss_mc(
    task: BayesLinRegTask,
    k: int,
    lam: float,
    alpha: np.ndarray,
    num_samples: int,
    seed: int,
    what_all: np.ndarray,
    candidate: np.ndarray | None = None,
) -> float:
    """Monte-Carlo estimate of E ||w_tilde - w_k||^2 with w_k drawn from its
    posterior given the realized least-squares estimates `what_all`.

    `candidate` substitutes an arbitrary vector for the ridge minimizer (used
    to probe the posterior-mean floor).
    """
    mean, variance = posterior_moments_scalar(task, k, what_all)
    if candidate is None:
        candidate = ridge_codistill_minimizer(task, k, lam, alpha, what_all)
    samples = mean + np.sqrt(variance) * _mc_noise(num_samples, task.dim, seed)
    diffs = candidate - samples
    return float(np.mean(np.einsum("ij,ij->i", diffs, diffs)))


def _losses_from_noise_stats(
    candidates: np.ndarray,
    mean: np.ndarray,
    sd: float,
    noise_mean: np.ndarray,
    noise_sq_mean: float,
) -> np.ndarray:
    """The sample-average loss of each (A, d) candidate row, via the expansion
    mean_s ||delta - sd eps_s||^2 = ||delta||^2 - 2 sd delta.mean(eps) + sd^2 mean||eps||^2.
    Stacked matmuls give each row the value a per-row dot product would."""
    delta = candidates - mean
    dd = np.matmul(delta[:, None, :], delta[:, :, None])[:, 0, 0]
    dn = np.matmul(delta[:, None, :], noise_mean[:, None])[:, 0, 0]
    return dd - 2.0 * sd * dn + sd * sd * noise_sq_mean


def simplex_grid(num_weights: int, resolution: int) -> np.ndarray:
    """All weight vectors with entries j/resolution summing to 1, the
    numerators in lexicographic order. Stars and bars: each choice of
    num_weights - 1 bar slots among resolution + num_weights - 1 fixes the
    numerators as the gaps between consecutive bars."""
    slots, k = resolution + num_weights - 1, num_weights - 1
    rows = math.comb(slots, k)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), k)),
        dtype=np.int64,
        count=rows * k,
    ).reshape(rows, k)
    return (np.diff(bars, axis=1, prepend=-1, append=slots) - 1) / resolution


def lambda_grid_around(center: float, points: int, span: float) -> np.ndarray:
    """Geometric grid of `points` values covering [center/span, center*span]."""
    return center * np.exp(np.linspace(-np.log(span), np.log(span), points))


def grid_search_oracle(
    task: BayesLinRegTask,
    k: int,
    lambda_grid: np.ndarray,
    alpha_grid: np.ndarray,
    num_samples: int,
    seed: int,
) -> OracleResult:
    """Exhaustive MC loss evaluation over the (lambda, alpha) product grid
    with common random numbers, compared against the closed form. Of equal
    losses the first in lambda-major order wins; a non-finite loss raises
    NumericError."""
    what_all = all_ols(task)
    mean, variance = posterior_moments_scalar(task, k, what_all)
    sd = float(np.sqrt(variance))
    noise = _mc_noise(num_samples, task.dim, seed)
    noise_mean = noise.mean(axis=0)
    noise_sq_mean = float(np.mean(np.einsum("ij,ij->i", noise, noise)))

    xtx = task.designs[k].T @ task.designs[k]
    ptp = task.public_design.T @ task.public_design

    # ridge_codistill_system's terms, each built once: the own pull, one
    # alpha pull per row and one lhs per lambda; rhs rows are
    # lam * pulled[j] + own, the same operands and order (addition commutes)
    own = xtx @ what_all[k]
    pulled = np.empty((len(alpha_grid), task.dim))
    for j, alpha in enumerate(alpha_grid):
        pulled[j] = ptp @ (alpha @ what_all)
    rhs = np.empty_like(pulled)

    # one solve per grid point into an (A, d) block per lambda
    losses = np.empty((len(lambda_grid), len(alpha_grid)))
    block = np.empty_like(pulled)
    for i, lam in enumerate(lambda_grid):
        lhs = xtx + lam * ptp
        np.multiply(lam, pulled, out=rhs)
        rhs += own
        for j in range(len(alpha_grid)):
            block[j] = ridge_codistill_solve(lhs, rhs[j], lam)
        losses[i] = _losses_from_noise_stats(block, mean, sd, noise_mean, noise_sq_mean)
        if not np.isfinite(losses[i]).all():
            raise NumericError(f"non-finite oracle loss (lambda={lam})")
    i, j = np.unravel_index(np.argmin(losses), losses.shape)

    closed = closed_form_lambda_alpha(task, k)
    closed_lhs, closed_rhs = ridge_codistill_system(
        xtx, ptp, what_all[k], closed.lambda_star, closed.alpha_star, what_all
    )
    closed_candidate = ridge_codistill_solve(closed_lhs, closed_rhs, closed.lambda_star)
    closed_loss = _losses_from_noise_stats(
        closed_candidate[None, :], mean, sd, noise_mean, noise_sq_mean
    )
    return OracleResult(
        best_lambda=float(lambda_grid[i]),
        best_alpha=np.array(alpha_grid[j]),
        best_loss=float(losses[i, j]),
        closed_form_loss=float(closed_loss[0]),
    )


# ---------------------------------------------------------------------------
# Linear-regression toy: three clients, two similar and one outlier.
# ---------------------------------------------------------------------------

TOY_SIGMAS = (2.0, 5.0, 200.0)  # per-client spread (std dev) of zeta
TOY_LAMBDA = 50.0
TOY_ROWS = 40  # rows of the shared private design and of the public design
TOY_INPUT_RANGE = 10.0
_TOY_CLUSTERS = ((0.5, 0.5, 0.0), (0.5, 0.5, 0.0), (0.0, 0.0, 1.0))
_TOY_UNIFORM = (1 / 3, 1 / 3, 1 / 3)


def run_toy_example(seed: int, sigmas=TOY_SIGMAS) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Three-client linear-regression toy: the pair 0/1 is similar, client 2
    is an outlier. Compares pooled least squares against co-distillation with
    uniform weights and with cluster-restricted weights.

    Returns the (3, 2) true client models and, by kind in report order
    (fedavg, uniform_kt, clustered_kt), the (3, 2) weights each client ends
    with; row k is client k.

    Observations are noiseless, so each least-squares estimate recovers the
    true client model and all differences come from the regularizer.
    """
    rng = substream(seed, "toy")
    dim = 2
    theta = rng.uniform(-TOY_INPUT_RANGE, TOY_INPUT_RANGE, dim)
    true_w = np.stack([theta + rng.normal(0.0, s, dim) for s in sigmas])
    x = rng.uniform(-TOY_INPUT_RANGE, TOY_INPUT_RANGE, (TOY_ROWS, dim))
    public = rng.uniform(-TOY_INPUT_RANGE, TOY_INPUT_RANGE, (TOY_ROWS, dim))
    targets = true_w @ x.T  # (3, n), noiseless

    what = np.stack(
        [np.linalg.lstsq(x, targets[k], rcond=None)[0] for k in range(3)]
    )

    # pooled least squares over all clients' data (shared design)
    stacked_x = np.vstack([x] * 3)
    stacked_y = np.concatenate([targets[k] for k in range(3)])
    fedavg = np.linalg.lstsq(stacked_x, stacked_y, rcond=None)[0]

    xtx = x.T @ x
    ptp = public.T @ public

    def codistilled(k, alpha):
        lhs, rhs = ridge_codistill_system(xtx, ptp, what[k], TOY_LAMBDA, np.array(alpha), what)
        return ridge_codistill_solve(lhs, rhs, TOY_LAMBDA)

    return true_w, {
        "fedavg": np.stack([fedavg] * 3),
        "uniform_kt": np.stack([codistilled(k, _TOY_UNIFORM) for k in range(3)]),
        "clustered_kt": np.stack([codistilled(k, _TOY_CLUSTERS[k]) for k in range(3)]),
    }

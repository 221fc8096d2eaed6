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

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy that moved it: a public stand-in, the same bits

    def _solve1(lhs, rhs, out=None):
        """np.linalg.solve, written into `out` if given. Its singular-matrix
        LinAlgError becomes the FloatingPointError the gufunc raises under
        _SOLVE_POLICY, so ridge_codistill_solve reports it alike."""
        try:
            solution = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise FloatingPointError(str(exc)) from exc
        if out is None:
            return solution
        out[...] = solution
        return out

else:
    # the gufunc np.linalg.solve dispatches to for a 1-D rhs: the same LAPACK
    # gesv on the same float64 operands, without the wrapper's per-call
    # Python validation, which costs more than the solve itself at d <= 4
    _solve1 = _umath_linalg.solve1

# the solves' np.errstate: a singular lhs sets the invalid flag, which
# raises; the other flags are ignored
_SOLVE_POLICY = {"invalid": "raise", "over": "ignore", "divide": "ignore", "under": "ignore"}

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
    # each client's frame then its noise, one row per client: the stream
    # and order of a per-client normal((n, d)), normal(0.0, sigma, n) loop
    block = rng.normal(size=(num_clients, n_samples * dim + n_samples))
    frames, _ = np.linalg.qr(block[:, : n_samples * dim].reshape(num_clients, n_samples, dim))
    designs = np.sqrt(beta) * frames
    noise = 0.0 + sigma * block[:, n_samples * dim :]
    targets = np.empty((num_clients, n_samples))
    for k in range(num_clients):
        targets[k] = designs[k] @ true_w[k] + noise[k]
    public_design = np.sqrt(nu) * np.linalg.qr(rng.normal(size=(dim, dim)))[0]
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


def ridge_codistill_solve(
    lhs: np.ndarray, rhs: np.ndarray, lam: float, out: np.ndarray | None = None
) -> np.ndarray:
    """General-matrix minimizer lhs^{-1} rhs of one ridge/co-distillation
    system, for one (d,) float64 `rhs`, written into `out` if given (a (d,)
    float64 view, such as a row of the caller's block); `lam` only names it
    in a NumericError. Bitwise np.linalg.solve(lhs, rhs): float64 operands
    resolve to solve1's one dd->d loop. It runs under the caller's errstate
    and checks nothing more: the caller holds _SOLVE_POLICY, under which a
    singular lhs raises, and checks that the solution is finite, as
    grid_search_oracle does once per lambda block and _solve_system once
    per system."""
    try:
        return _solve1(lhs, rhs, out=out)
    except FloatingPointError as exc:
        raise NumericError(f"singular ridge system (lambda={lam})") from exc


def _solve_system(lhs: np.ndarray, rhs: np.ndarray, lam: float) -> np.ndarray:
    """ridge_codistill_solve of one system under _SOLVE_POLICY, whatever the
    caller's errstate, which is back on every exit, and a NumericError for
    a singular system or a non-finite solution."""
    with np.errstate(**_SOLVE_POLICY):
        solution = ridge_codistill_solve(lhs, rhs, lam)
    if not np.isfinite(solution).all():
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
    return _solve_system(lhs, rhs, lam)


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
    """Optimal regularization weight and distillation weights for client k.
    A term that over- or underflows (a non-finite one, or A_k not > 0)
    raises NumericError: the weights would no longer sum to 1."""
    s2 = task.sigma**2
    beta = task.beta
    u2 = task.upsilon.astype(np.float64) ** 2
    others = [1.0 / (s2 + beta * u2[i]) for i in range(task.num_clients) if i != k]
    a_k = 1.0 / sum(others)
    b_k = a_k * (s2 + beta * u2[k]) / (s2 + a_k + beta * u2[k])
    lambda_star = s2 / (u2[k] * task.nu)
    alpha_star = b_k / (s2 + beta * u2)
    if not (np.isfinite([*others, a_k, b_k, lambda_star, *alpha_star]).all() and a_k > 0):
        raise NumericError(f"closed form out of float range for client {k} (A_k={a_k})")
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
    if not variance > 0:  # an underflow: every loss would be the candidate's distance alone
        raise NumericError(f"posterior variance {variance} is not > 0 for client {k}")
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


# the most rows of Monte-Carlo noise _mc_noise_stats draws at a time: at
# d <= 4 a block takes at most 64 KiB; 8192-row blocks read 0.7 MB more
# peak RSS on configs/theory_check.toml
_MC_BLOCK_ROWS = 2048


def _pairwise_total(rows: int, leaf) -> np.ndarray:
    """leaf(n) of each run of n consecutive rows numpy's pairwise_sum splits
    `rows` values into, down to runs of at most _MC_BLOCK_ROWS, added back up
    the same tree, left to right. pairwise_sum halves a run of more than 128
    values, the first half rounded down to a multiple of 8, so a leaf that
    returns its run's np.add.reduce gives the whole reduce's bits less its
    0.0 start (pinned in tests/test_numpy_facts.py)."""
    if rows <= _MC_BLOCK_ROWS:
        return leaf(rows)
    half = rows // 2 - rows // 2 % 8
    return _pairwise_total(half, leaf) + _pairwise_total(rows - half, leaf)


def _mc_noise_stats(num_samples: int, dim: int, seed: int) -> tuple[np.ndarray, float]:
    """noise.mean(axis=0) and the mean of noise's row dots for
    noise = _mc_noise(num_samples, dim, seed), bitwise, holding neither
    noise nor anything num_samples long: the same stream drawn one pairwise
    subtree (_pairwise_total) at a time. The row dots, and a lone column
    (d = 1), which numpy also sums pairwise, keep one sum per subtree. For
    d >= 2 numpy sums the columns row by row, so each block's reduce starts
    from the column sum so far as its first row."""
    rng = substream(seed, "mc-noise")
    dots = np.empty(_MC_BLOCK_ROWS)
    carried = np.empty((_MC_BLOCK_ROWS + 1, dim))  # row 0: the column sum so far
    drawn = 0

    def leaf(rows: int) -> np.ndarray:
        nonlocal drawn
        block = rng.normal(size=(rows, dim))
        np.einsum("ij,ij->i", block, block, out=dots[:rows])
        if dim == 1:
            return np.array([np.add.reduce(dots[:rows]), np.add.reduce(block[:, 0])])
        carried[1 : rows + 1] = block
        # the first block has no sum so far
        carried[0] = np.add.reduce(carried[0 if drawn else 1 : rows + 1], axis=0)
        drawn += rows
        return np.add.reduce(dots[:rows], keepdims=True)

    sums = 0.0 + _pairwise_total(num_samples, leaf)  # numpy's reduce starts from 0.0
    total = sums[1:] if dim == 1 else carried[0]
    return total / num_samples, float(sums[0] / num_samples)


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
    delta = candidates - mean is written into `candidates`, which the
    callers do not read again. Stacked matmuls give each row the value a
    per-row dot product would."""
    delta = np.subtract(candidates, mean, out=candidates)
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
    """Geometric grid of `points` values covering [center/span, center*span],
    symmetric about center; a one-point grid is [center]."""
    if points == 1:
        return np.array([center], dtype=np.float64)
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
    with common random numbers, compared against the closed form. The
    losses read two statistics of the noise, summed one pairwise subtree
    at a time (_mc_noise_stats), and each lambda's block of A losses
    updates a running best, so nothing N long and no (L, A) loss table is
    held. The (A, d) arrays held are the alpha pulls, one rhs block and one
    solution block per lambda, in which its losses are formed. Of equal
    losses the first in lambda-major order wins; a singular system, a
    non-finite solution or a non-finite loss raises NumericError naming its
    lambda."""
    what_all = all_ols(task)
    mean, variance = posterior_moments_scalar(task, k, what_all)
    sd = float(np.sqrt(variance))
    noise_mean, noise_sq_mean = _mc_noise_stats(num_samples, task.dim, seed)

    xtx = task.designs[k].T @ task.designs[k]
    ptp = task.public_design.T @ task.public_design

    # ridge_codistill_system's terms, each built once: the own pull, the
    # (A, d) alpha pulls and one lhs per lambda; rhs rows are
    # lam * pulled[j] + own, the same operands and order (addition commutes).
    # Each item of the two stacked matmuls is the (1, K) @ (K, d) and
    # (d, d) @ (d, 1) product of a per-row ptp @ (alpha @ what_all), and
    # gives its bits; one plain gemm alpha_grid @ what_all does not (both
    # pinned in tests/test_numpy_facts.py)
    own = xtx @ what_all[k]
    mixed = np.matmul(alpha_grid[:, None, :], what_all)
    pulled = np.matmul(ptp, mixed[:, 0, :, None])[:, :, 0]
    del mixed
    rhs = np.empty_like(pulled)

    # one solve per grid point, written straight into an (A, d) block per
    # lambda; the row views are made per lambda, since holding all 2A of
    # them takes about 1.1 MB at A = 3876, more than the blocked noise needs
    block = np.empty_like(pulled)
    best_loss, i, j = math.inf, 0, 0
    for at, lam in enumerate(lambda_grid):
        lhs = xtx + lam * ptp
        np.multiply(lam, pulled, out=rhs)
        rhs += own
        # the solves' error policy, held for the block and nothing else; the
        # rows share one lhs, so a singular one raises at the first row
        with np.errstate(**_SOLVE_POLICY):
            for rhs_row, solution in zip(rhs, block):
                ridge_codistill_solve(lhs, rhs_row, lam, out=solution)
        if not np.isfinite(block).all():
            raise NumericError(f"non-finite ridge solution (lambda={lam})")
        losses = _losses_from_noise_stats(block, mean, sd, noise_mean, noise_sq_mean)
        if not np.isfinite(losses).all():
            raise NumericError(f"non-finite oracle loss (lambda={lam})")
        # argmin keeps the first of equal losses in a block and strict <
        # the first block: the lambda-major first of the whole grid
        first = int(np.argmin(losses))
        if losses[first] < best_loss:
            best_loss, i, j = float(losses[first]), at, first

    closed = closed_form_lambda_alpha(task, k)
    closed_lhs, closed_rhs = ridge_codistill_system(
        xtx, ptp, what_all[k], closed.lambda_star, closed.alpha_star, what_all
    )
    closed_candidate = _solve_system(closed_lhs, closed_rhs, closed.lambda_star)
    closed_loss = _losses_from_noise_stats(
        closed_candidate[None, :], mean, sd, noise_mean, noise_sq_mean
    )
    return OracleResult(
        best_lambda=float(lambda_grid[i]),
        best_alpha=np.array(alpha_grid[j]),
        best_loss=best_loss,
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
        return _solve_system(lhs, rhs, TOY_LAMBDA)

    return true_w, {
        "fedavg": np.stack([fedavg] * 3),
        "uniform_kt": np.stack([codistilled(k, _TOY_UNIFORM) for k in range(3)]),
        "clustered_kt": np.stack([codistilled(k, _TOY_CLUSTERS[k]) for k in range(3)]),
    }

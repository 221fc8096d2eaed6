import importlib.util
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedckt import theory
from fedckt.errors import NumericError
from fedckt.rng import derive_seed, substream
from fedckt.runconfig import load_config
from fedckt.theory import (
    BayesLinRegTask,
    all_ols,
    closed_form_lambda_alpha,
    expected_loss_mc,
    gen_task,
    grid_search_oracle,
    lambda_grid_around,
    ols_estimate,
    posterior_moments_matrix,
    posterior_moments_scalar,
    ridge_codistill_minimizer,
    ridge_codistill_scalar,
    run_toy_example,
    simplex_grid,
)

from helpers import posterior_mean_brute_force, solved_into, traced_peak


def small_task(seed=0, upsilon=(0.5, 1.0, 2.0), sigma=1.0, beta=1.0, nu=1.0, d=2, n=6):
    return gen_task(
        dim=d,
        num_clients=len(upsilon),
        sigma=sigma,
        upsilon=np.array(upsilon),
        beta=beta,
        nu=nu,
        n_samples=n,
        seed=seed,
    )


def noiseless_task(seed=0, upsilon=(0.5, 1.0, 2.0), beta=2.0, nu=1.5, d=2, n=5):
    """Task with observation noise removed (targets = X w exactly)."""
    task = small_task(seed=seed, upsilon=upsilon, beta=beta, nu=nu, d=d, n=n)
    targets = np.einsum("knd,kd->kn", task.designs, task.true_w)
    return BayesLinRegTask(
        dim=task.dim,
        num_clients=task.num_clients,
        sigma=task.sigma,
        upsilon=task.upsilon,
        beta=task.beta,
        nu=task.nu,
        n_samples=task.n_samples,
        theta=task.theta,
        true_w=task.true_w,
        designs=task.designs,
        targets=targets,
        public_design=task.public_design,
    )


THEORY_CONFIG = Path(__file__).resolve().parents[1] / "configs/theory_check.toml"

# errstates a caller may hold around a ridge solve: numpy's default, the
# CLI's all="ignore", all="raise", and invalid="call" (the callback is set
# by the test)
CALLER_ERRSTATES = ({}, {"all": "ignore"}, {"all": "raise"}, {"invalid": "call"})

BLOCK = theory._MC_BLOCK_ROWS  # rows of Monte-Carlo noise the oracle draws at a time


def shipped_task(index, master_seed=None):
    """Task `index` of configs/theory_check.toml as `fedckt run` draws it at
    the config's seed, or at `master_seed`: (task, client, config, MC seed)."""
    cfg = load_config(THEORY_CONFIG)
    seed = cfg.seed if master_seed is None else master_seed
    task_cfg = cfg.theory.tasks[index]
    task = gen_task(
        dim=task_cfg.dim,
        num_clients=task_cfg.num_clients,
        sigma=task_cfg.sigma,
        upsilon=np.array(task_cfg.upsilon),
        beta=task_cfg.beta,
        nu=task_cfg.nu,
        n_samples=task_cfg.n_samples,
        seed=derive_seed(seed, "theory-task", index),
    )
    return task, task_cfg.client, cfg, derive_seed(seed, "theory-mc", index)


def inline_minimizer(task, k, lam, alpha, what):
    """The ridge/co-distillation minimizer in plain numpy, in the operation
    order the theory module documents, without its solve helpers."""
    xtx = task.designs[k].T @ task.designs[k]
    ptp = task.public_design.T @ task.public_design
    return np.linalg.solve(
        xtx + lam * ptp, xtx @ what[k] + lam * (ptp @ (np.asarray(alpha) @ what))
    )


def assert_gram_identities(task):
    """X_k' X_k = beta I and P' P = nu I to 1e-8 times max(1, beta) and
    max(1, nu): rounding in the Gram products grows with their scale."""
    eye = np.eye(task.dim)
    grams = np.matmul(task.designs.transpose(0, 2, 1), task.designs)
    assert np.allclose(grams, task.beta * eye, atol=1e-8 * max(1.0, task.beta))
    gram = task.public_design.T @ task.public_design
    assert np.allclose(gram, task.nu * eye, atol=1e-8 * max(1.0, task.nu))


class TestGenTask:
    def test_design_grams_are_beta_identity(self):
        task = small_task(seed=1, beta=3.0, nu=0.5, n=7)
        for k in range(task.num_clients):
            gram = task.designs[k].T @ task.designs[k]
            assert np.allclose(gram, 3.0 * np.eye(task.dim), atol=1e-8)
        assert np.allclose(
            task.public_design.T @ task.public_design, 0.5 * np.eye(task.dim), atol=1e-8
        )
        # the shipped task shapes, each at five master seeds
        for index, seed in itertools.product(range(3), range(5)):
            assert_gram_identities(shipped_task(index, seed)[0])

    def test_zero_upsilon_gives_identical_models(self):
        task = small_task(seed=2, upsilon=(0.0, 0.0))
        assert np.allclose(task.true_w[0], task.theta)
        assert np.allclose(task.true_w[1], task.theta)

    def test_spread_matches_upsilon(self):
        # empirical Var(w_k - theta) per coordinate over many redraws
        upsilon = np.array([0.5, 2.0])
        draws = []
        for s in range(10_000):
            task = small_task(seed=s, upsilon=tuple(upsilon), d=2, n=2)
            draws.append(task.true_w - task.theta)
        var = np.stack(draws).var(axis=0).mean(axis=1)  # (K,)
        assert np.all(np.abs(var / upsilon**2 - 1.0) <= 0.05)

    def test_large_beta_and_nu_build(self):
        # the Gram tolerance grows with beta and nu, so float rounding at
        # this scale does not fail it
        task = small_task(seed=3, beta=1e9, nu=1e9, n=7)
        gram = task.designs[0].T @ task.designs[0]
        assert np.allclose(gram, 1e9 * np.eye(task.dim), rtol=1e-12, atol=1e-3)
        assert_gram_identities(task)


class TestOls:
    def test_noiseless_recovers_truth(self):
        task = noiseless_task(seed=3)
        for k in range(task.num_clients):
            assert np.allclose(ols_estimate(task, k), task.true_w[k], atol=1e-10)

    def test_normal_equations_residual(self):
        task = small_task(seed=4)
        for k in range(task.num_clients):
            what = ols_estimate(task, k)
            residual = task.designs[k].T @ (task.targets[k] - task.designs[k] @ what)
            assert np.all(np.abs(residual) <= 1e-8)

    def test_estimator_covariance(self):
        # Cov(what_k) ~ sigma^2/beta I over redraws
        sigma, beta = 1.5, 2.0
        errs = np.stack(
            [
                ols_estimate(t := small_task(seed=s, sigma=sigma, beta=beta, d=2, n=4), 0)
                - t.true_w[0]
                for s in range(10_000)
            ]
        )
        cov = np.cov(errs.T)
        expected = sigma**2 / beta
        assert np.all(np.abs(np.diag(cov) / expected - 1.0) <= 0.10)
        assert abs(cov[0, 1]) <= 0.10 * expected


class TestRidgeMinimizer:
    def test_lambda_zero_returns_ols(self):
        task = small_task(seed=5)
        what = all_ols(task)
        out = ridge_codistill_minimizer(task, 0, 0.0, np.array([0.2, 0.5, 0.3]), what)
        assert np.allclose(out, what[0], atol=1e-12)

    def test_lambda_infinity_returns_mixture(self):
        task = small_task(seed=6)
        what = all_ols(task)
        alpha = np.array([0.1, 0.6, 0.3])
        out = ridge_codistill_minimizer(task, 1, 1e12, alpha, what)
        target = alpha @ what
        assert np.linalg.norm(out - target) <= 1e-6 * np.linalg.norm(target)

    def test_general_solve_matches_scalar_mixing(self):
        rng = substream(11)
        for seed in range(10):
            task = small_task(seed=seed, beta=float(rng.uniform(0.5, 3)), nu=float(rng.uniform(0.5, 3)))
            what = all_ols(task)
            alpha = rng.dirichlet(np.ones(3))
            lam = float(rng.uniform(0.01, 20))
            k = int(rng.integers(3))
            a = ridge_codistill_minimizer(task, k, lam, alpha, what)
            b = ridge_codistill_scalar(task, k, lam, alpha, what)
            assert np.allclose(a, b, atol=1e-10)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_inline_formula_bitwise(self, index):
        task, k, _, _ = shipped_task(index)
        what = all_ols(task)
        closed = closed_form_lambda_alpha(task, k)
        uniform = np.full(task.num_clients, 1.0 / task.num_clients)
        for lam, alpha in ((closed.lambda_star, closed.alpha_star), (0.3, uniform), (7.0, uniform)):
            got = ridge_codistill_minimizer(task, k, lam, alpha, what)
            want = inline_minimizer(task, k, lam, alpha, what)
            assert got.tobytes() == want.tobytes()

    def test_singular_system_raises_numeric_error(self):
        # under every caller errstate, the CLI's all="ignore" included, a
        # singular system raises, no RuntimeWarning escapes, an invalid
        # callback never fires, and the caller's errstate is back afterwards
        fired = []
        singular = (np.zeros((1, 1)), np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for policy in CALLER_ERRSTATES:
                with np.errstate(call=lambda kind, flag: fired.append(kind), **policy):
                    caller = np.geterr()
                    for lhs in singular:
                        with pytest.raises(NumericError, match=r"^singular ridge system \(lambda=0\.5\)$"):
                            theory._solve_system(lhs, np.ones(len(lhs)), 0.5)
                        assert np.geterr() == caller
        assert fired == []

    def test_per_row_solve_under_the_solve_policy(self, public_theory):
        # what the oracle's per-point call does under the policy it holds
        # per lambda block: a singular lhs raises, and a regular system is
        # written into the row it is given, which comes back; the public
        # stand-in alike
        for module in (theory, public_theory):
            with np.errstate(**theory._SOLVE_POLICY):
                with pytest.raises(NumericError, match=r"^singular ridge system \(lambda=0\.5\)$"):
                    module.ridge_codistill_solve(np.zeros((2, 2)), np.ones(2), 0.5)
                block = np.empty((3, 2))
                got = module.ridge_codistill_solve(2.0 * np.eye(2), np.ones(2), 0.5, out=block[1])
            assert np.shares_memory(got, block[1])
            assert block[1].tolist() == [0.5, 0.5]

    def test_solver_runs_under_raise_invalid_ignore_the_rest(self, monkeypatch):
        # the policy the gufunc sees is fixed, whatever the caller's
        seen = []
        real_solve1 = theory._solve1

        def recording(a, b, out):
            seen.append(np.geterr())
            return real_solve1(a, b, out=out)

        monkeypatch.setattr(theory, "_solve1", recording)
        for policy in CALLER_ERRSTATES:
            with np.errstate(call=lambda kind, flag: None, **policy):
                theory._solve_system(np.eye(2), np.ones(2), 1.0)
                with pytest.raises(NumericError, match="singular ridge system"):
                    theory._solve_system(np.zeros((2, 2)), np.ones(2), 1.0)
        policy = {"invalid": "raise", "over": "ignore", "divide": "ignore", "under": "ignore"}
        assert seen == [policy] * (2 * len(CALLER_ERRSTATES))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_solve_matches_np_linalg_solve_bitwise(self, d):
        # the solve1 gufunc called directly must give np.linalg.solve's bits
        # on general, SPD and the shipped tasks' (lambda, alpha) systems
        rng = substream(23, "solve-fact", d)
        systems = []
        for _ in range(200):
            a = rng.normal(size=(d, d))
            systems.append((a, rng.normal(size=d)))
            systems.append((a @ a.T + 1e-3 * np.eye(d), rng.normal(size=d)))
        if d > 1:
            task, k, cfg, _ = shipped_task(d - 2)
            what = all_ols(task)
            xtx = task.designs[k].T @ task.designs[k]
            ptp = task.public_design.T @ task.public_design
            closed = closed_form_lambda_alpha(task, k)
            lam_grid = lambda_grid_around(
                closed.lambda_star, cfg.theory.lambda_points, cfg.theory.lambda_span
            )
            alpha_grid = simplex_grid(task.num_clients, cfg.theory.alpha_resolution)
            for lam in [*lam_grid, closed.lambda_star]:
                for alpha in [*alpha_grid[::50], closed.alpha_star]:
                    systems.append(
                        theory.ridge_codistill_system(xtx, ptp, what[k], lam, alpha, what)
                    )
        # each solution goes into a row of an (A, d) block, as in the oracle
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        block = np.empty((len(systems), d))
        for j, (lhs, rhs) in enumerate(systems):
            theory.ridge_codistill_solve(lhs, rhs, 1.0, out=block[j])
            want = np.linalg.solve(lhs, rhs)
            assert block[j].tobytes() == want.tobytes(), (
                f"solve1 differs from np.linalg.solve on numpy {np.__version__}, "
                f"{blas['name']} {blas['version']}"
            )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rhs_raises_numeric_error(self, bad):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite ridge solution"):
                theory._solve_system(np.eye(2), np.array([bad, 1.0]), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_anywhere_raises_numeric_error(self, monkeypatch, d, bad):
        # the solver hands back a finite solution but for one entry, so the
        # check must read every position, the last one included
        for position in range(d):
            solution = np.arange(1.0, d + 1.0)
            solution[position] = bad
            monkeypatch.setattr(theory, "_solve1", lambda a, b, out, s=solution: solved_into(s.copy(), out))
            with pytest.raises(NumericError, match="non-finite ridge solution"):
                theory._solve_system(np.eye(d), np.ones(d), 1.0)
        monkeypatch.undo()
        finite = theory._solve_system(np.eye(d), np.ones(d), 1.0)
        assert finite.tobytes() == np.ones(d).tobytes()


class TestPosterior:
    def test_scalar_matches_matrix_form(self):
        for seed in range(8):
            task = small_task(seed=seed, upsilon=(0.4, 1.1, 2.5), sigma=1.3, beta=1.7, nu=0.9)
            what = all_ols(task)
            for k in range(task.num_clients):
                mean_s, var_s = posterior_moments_scalar(task, k, what)
                mean_m, cov_m = posterior_moments_matrix(task, k, what)
                assert np.allclose(mean_s, mean_m, atol=1e-8)
                assert np.allclose(cov_m, var_s * np.eye(task.dim), atol=1e-8)

    def test_matches_brute_force_gaussian_conditioning(self):
        task = small_task(seed=9, upsilon=(0.5, 1.0, 2.0), sigma=1.0, beta=1.0)
        what = all_ols(task)
        mean, var = posterior_moments_scalar(task, 0, what)
        brute_mean, brute_var = posterior_mean_brute_force(
            task.sigma, task.beta, task.upsilon, what, 0
        )
        assert np.allclose(mean, brute_mean, atol=1e-6)
        assert abs(var - brute_var) <= 1e-6

    def test_idiosyncratic_client_keeps_own_estimate(self):
        # upsilon_k huge: no borrowing from the others
        task = small_task(seed=10, upsilon=(1e9, 1.0, 1.0))
        what = all_ols(task)
        mean, _ = posterior_moments_scalar(task, 0, what)
        assert np.allclose(mean, what[0], rtol=1e-9)

    def test_noiseless_limit_keeps_own_estimate(self):
        task = small_task(seed=11, upsilon=(1.0, 1.0, 1.0), sigma=1e-6)
        what = all_ols(task)
        mean, _ = posterior_moments_scalar(task, 2, what)
        assert np.allclose(mean, what[2], atol=1e-6)


class TestClosedForm:
    def test_unit_substitution(self):
        task = small_task(seed=12, upsilon=(1.0, 1.0, 1.0), sigma=1.0, nu=1.0, beta=1.0)
        closed = closed_form_lambda_alpha(task, 0)
        assert closed.lambda_star == 1.0

    def test_homogeneous_three_clients(self):
        # sigma = beta = upsilon_i = 1: A_k = 1 and the corrected
        # B_k = A(s+b)/(s+A+b) = 2/3, so every alpha = 1/3 and they sum to 1
        task = small_task(seed=13, upsilon=(1.0, 1.0, 1.0))
        closed = closed_form_lambda_alpha(task, 1)
        assert np.isclose(closed.a_k, 1.0)
        assert np.isclose(closed.b_k, 2.0 / 3.0)
        assert np.allclose(closed.alpha_star, 1.0 / 3.0)
        assert np.isclose(closed.alpha_star.sum(), 1.0)

    def test_alpha_sums_to_one(self):
        for seed, ups in ((0, (0.5, 1.0, 2.0)), (1, (0.2, 0.4, 1.0, 3.0))):
            task = small_task(seed=seed, upsilon=ups)
            for k in range(len(ups)):
                closed = closed_form_lambda_alpha(task, k)
                assert np.isclose(closed.alpha_star.sum(), 1.0, atol=1e-12)

    def test_alpha_decreases_with_upsilon(self):
        task = small_task(seed=14, upsilon=(0.3, 0.9, 2.7))
        closed = closed_form_lambda_alpha(task, 1)
        alpha = closed.alpha_star
        assert alpha[0] > alpha[1] > alpha[2]

    def test_lambda_decreases_with_own_upsilon(self):
        task = small_task(seed=15, upsilon=(0.3, 0.9, 2.7))
        lams = [closed_form_lambda_alpha(task, k).lambda_star for k in range(3)]
        assert lams[0] > lams[1] > lams[2]

    @pytest.mark.parametrize(
        "sigma, beta, upsilon",
        [(1e-160, 1.0, (1e-160, 1e-160, 1e-160)), (1.0, 1.0, (1e200, 1.0, 1.0))],
        ids=["reciprocals_overflow", "own_term_overflows"],
    )
    def test_terms_out_of_float_range_raise_numeric_error(self, sigma, beta, upsilon):
        # the first: 1/(sigma^2 + beta upsilon_i^2) is inf, so A_k = B_k = 0
        # and every alpha* would be 0; the second: upsilon_0^2 is inf, so B_k is NaN
        task = small_task(seed=16, upsilon=upsilon, sigma=sigma, beta=beta, n=8)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="closed form out of float range for client 0"):
                closed_form_lambda_alpha(task, 0)

    def test_closed_form_reproduces_posterior_mean(self):
        # the ridge minimizer at (lambda*, alpha*) equals the Bayes mean
        for seed in range(6):
            task = small_task(seed=seed, upsilon=(0.5, 1.5, 3.0), sigma=1.2, beta=0.8, nu=2.0)
            what = all_ols(task)
            for k in range(3):
                closed = closed_form_lambda_alpha(task, k)
                candidate = ridge_codistill_minimizer(
                    task, k, closed.lambda_star, closed.alpha_star, what
                )
                mean, _ = posterior_moments_scalar(task, k, what)
                assert np.allclose(candidate, mean, atol=1e-9)


class TestExpectedLoss:
    def test_posterior_mean_achieves_variance_floor(self):
        task = small_task(seed=17)
        what = all_ols(task)
        mean, var = posterior_moments_scalar(task, 0, what)
        loss = expected_loss_mc(
            task, 0, 1.0, np.ones(3) / 3, 200_000, seed=0, what_all=what, candidate=mean
        )
        floor = var * task.dim
        assert abs(loss - floor) <= 0.02 * floor

    def test_variance_halves_with_double_samples(self):
        task = small_task(seed=18)
        what = all_ols(task)
        alpha = np.ones(3) / 3

        def spread(n_samples):
            losses = [
                expected_loss_mc(task, 0, 0.7, alpha, n_samples, seed=s, what_all=what)
                for s in range(200)
            ]
            return np.var(losses)

        ratio = spread(500) / spread(1000)
        assert 1.5 <= ratio <= 2.7

    def test_optimal_weights_beat_uniform(self):
        # paired comparison on heterogeneous upsilon
        task = small_task(seed=19, upsilon=(0.5, 0.5, 4.0))
        what = all_ols(task)
        closed = closed_form_lambda_alpha(task, 0)
        common = dict(num_samples=100_000, seed=5, what_all=what)
        at_star = expected_loss_mc(task, 0, closed.lambda_star, closed.alpha_star, **common)
        at_uniform = expected_loss_mc(task, 0, closed.lambda_star, np.ones(3) / 3, **common)
        assert at_star <= at_uniform

    def test_grid_fast_path_equals_direct_sampling(self):
        task = small_task(seed=20)
        what = all_ols(task)
        closed = closed_form_lambda_alpha(task, 0)
        lam_grid = np.array([closed.lambda_star])
        alpha_grid = closed.alpha_star[None, :]
        oracle = grid_search_oracle(task, 0, lam_grid, alpha_grid, 5_000, seed=7)
        direct = expected_loss_mc(
            task, 0, closed.lambda_star, closed.alpha_star, 5_000, seed=7, what_all=what
        )
        assert abs(oracle.best_loss - direct) <= 1e-9 * max(1.0, direct)


def per_point_oracle(task, k, lambda_grid, alpha_grid, num_samples, seed, candidate=None):
    """The grid search one point at a time: one solve, one scalar loss and
    a strict `<`, which keeps the first of equal losses in lambda-major
    order. The reference the stacked oracle must match bit for bit.
    `candidate(lam, alpha)`, if given, stands in for the minimizer at the
    grid points; the closed-form point always uses the minimizer."""
    what = all_ols(task)
    mean, variance = posterior_moments_scalar(task, k, what)
    sd = float(np.sqrt(variance))
    noise = substream(seed, "mc-noise").normal(size=(num_samples, task.dim))
    noise_mean = noise.mean(axis=0)
    noise_sq_mean = float(np.mean(np.einsum("ij,ij->i", noise, noise)))

    def minimizer(lam, alpha):
        return inline_minimizer(task, k, lam, alpha, what)

    def loss(w):
        delta = w - mean
        return float(delta @ delta - 2.0 * sd * (delta @ noise_mean) + sd * sd * noise_sq_mean)

    candidate = candidate or minimizer
    best = (np.inf, None, None)
    for lam in lambda_grid:
        for alpha in alpha_grid:
            value = loss(candidate(lam, alpha))
            if value < best[0]:
                best = (value, float(lam), np.array(alpha))
    closed = closed_form_lambda_alpha(task, k)
    return theory.OracleResult(
        best_lambda=best[1],
        best_alpha=best[2],
        best_loss=best[0],
        closed_form_loss=loss(minimizer(closed.lambda_star, closed.alpha_star)),
    )


def assert_matches_per_point_loop(index, master_seed=None):
    # a shipped task shape on a coarser grid
    task, k, cfg, mc_seed = shipped_task(index, master_seed)
    closed = closed_form_lambda_alpha(task, k)
    lam_grid = lambda_grid_around(closed.lambda_star, 7, cfg.theory.lambda_span)
    alpha_grid = simplex_grid(task.num_clients, 6)
    args = (task, k, lam_grid, alpha_grid, 20_000, mc_seed)
    got, want = grid_search_oracle(*args), per_point_oracle(*args)
    assert got.best_lambda == want.best_lambda
    assert got.best_alpha.tobytes() == want.best_alpha.tobytes()
    assert got.best_loss == want.best_loss
    assert got.closed_form_loss == want.closed_form_loss


class TestGridOracle:
    def test_best_never_worse_than_contained_closed_form(self):
        task = small_task(seed=21)
        closed = closed_form_lambda_alpha(task, 0)
        lam_grid = np.array([0.5 * closed.lambda_star, closed.lambda_star, 2.0 * closed.lambda_star])
        alpha_grid = np.vstack([closed.alpha_star, np.ones(3) / 3])
        oracle = grid_search_oracle(task, 0, lam_grid, alpha_grid, 20_000, seed=8)
        assert oracle.best_loss <= oracle.closed_form_loss

    def test_argmin_identifies_closed_form_mixing(self):
        # (lambda, alpha) over-parameterize the estimator: only
        # rho = lam*nu/(beta+lam*nu) paired with rho*alpha_i matters, so the
        # argmin is a curve. The grid argmin must identify the same mixing
        # coefficients rho*alpha_i as the closed form, to grid resolution.
        task = small_task(seed=22, upsilon=(0.5, 1.0, 2.0))
        closed = closed_form_lambda_alpha(task, 0)
        lam_grid = lambda_grid_around(closed.lambda_star, 15, 4.0)
        alpha_grid = simplex_grid(3, 16)
        oracle = grid_search_oracle(task, 0, lam_grid, alpha_grid, 100_000, seed=9)

        def mixing(lam, alpha):
            rho = lam * task.nu / (task.beta + lam * task.nu)
            return rho * np.asarray(alpha)

        got = mixing(oracle.best_lambda, oracle.best_alpha)
        want = mixing(closed.lambda_star, closed.alpha_star)
        assert np.all(np.abs(got - want) <= 1 / 16 + 1e-9)
        assert np.all(np.abs(oracle.best_alpha - closed.alpha_star) <= 1 / 16 + 1e-9)

    def test_closed_form_within_two_percent(self):
        task = small_task(seed=23, upsilon=(0.5, 1.0, 2.0))
        closed = closed_form_lambda_alpha(task, 0)
        oracle = grid_search_oracle(
            task,
            0,
            lambda_grid_around(closed.lambda_star, 15, 4.0),
            simplex_grid(3, 15),
            100_000,
            seed=10,
        )
        assert oracle.closed_form_loss <= 1.02 * oracle.best_loss

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_per_point_loop_bitwise(self, index):
        assert_matches_per_point_loop(index)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_per_point_loop_bitwise_at_seed_1(self, index):
        assert_matches_per_point_loop(index, master_seed=1)

    # both sides of numpy's pairwise leaf (128 values) and of the subtree
    # cap, counts that split into uneven halves, and configs/theory_check.toml's
    @pytest.mark.parametrize(
        "num_samples",
        [1, 7, 8, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, 20_000, 65_537, 99_991, 100_000],
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_noise_stats_match_the_whole_draw_bitwise(self, d, num_samples):
        # a last-bit change in the noise mean can round away in every loss,
        # so the statistics are checked before they reach one
        noise = theory._mc_noise(num_samples, d, 31)
        mean, sq_mean = theory._mc_noise_stats(num_samples, d, 31)
        assert mean.tobytes() == noise.mean(axis=0).tobytes()
        assert sq_mean == float(np.mean(np.einsum("ij,ij->i", noise, noise)))

    def test_matches_per_point_loop_bitwise_at_one_dimension(self):
        # numpy sums a lone noise column pairwise, not row by row as it
        # sums wider noise, so d = 1 takes its own path to the noise mean
        task = small_task(seed=29, d=1, n=4)
        closed = closed_form_lambda_alpha(task, 0)
        lam_grid = lambda_grid_around(closed.lambda_star, 5, 4.0)
        args = (task, 0, lam_grid, simplex_grid(3, 6), 20_000, 5)
        got, want = grid_search_oracle(*args), per_point_oracle(*args)
        assert got.best_lambda == want.best_lambda
        assert got.best_alpha.tobytes() == want.best_alpha.tobytes()
        assert got.best_loss == want.best_loss
        assert got.closed_form_loss == want.closed_form_loss

    def test_peak_memory_stays_below_the_noise_array(self):
        # the oracle reads two statistics of its (N, d) noise, summed one
        # pairwise subtree at a time, and keeps a running best, so it never
        # holds N floats, not even the noise's row dots or a lone column
        num_samples = 100_000
        for d in (1, 4):
            task = small_task(seed=30, upsilon=(0.3, 0.7, 1.5, 2.5, 5.0), d=d, n=8)
            args = (task, 0, np.array([0.5, 1.0, 2.0]), simplex_grid(5, 3))
            grid_search_oracle(*args, 100, seed=12)  # first-call imports and caches
            peak = traced_peak(grid_search_oracle, *args, num_samples, seed=12)
            assert peak < num_samples * 8, (d, peak)

    def test_duplicated_alpha_row_tie_goes_to_first_index(self):
        # the two rows differ only in the sign of a zero weight, so their
        # losses tie bitwise while the returned row tells them apart
        task = small_task(seed=26)
        lam_grid = np.array([0.5, 1.0])
        for first_sign in (1.0, -1.0):
            alpha_grid = np.array([[0.5, 0.5, first_sign * 0.0], [0.5, 0.5, -first_sign * 0.0]])
            args = (task, 0, lam_grid, alpha_grid, 5_000, 3)
            got, want = grid_search_oracle(*args), per_point_oracle(*args)
            assert np.signbit(got.best_alpha[2]) == (first_sign < 0)
            assert got.best_alpha.tobytes() == want.best_alpha.tobytes()
            assert got.best_loss == want.best_loss

    def test_ties_across_lambda_go_to_the_first_lambda(self, monkeypatch):
        # a solver that ignores lambda makes every lambda tie: it hands back
        # the alpha mixtures row by row, in the order the grid solves them,
        # so alpha still separates the points; the grid is searched
        # lambda-major, so the first lambda wins
        task = small_task(seed=27)
        what = all_ols(task)
        closed = closed_form_lambda_alpha(task, 0)
        alpha_grid = simplex_grid(3, 4)
        mixtures = itertools.cycle([alpha @ what for alpha in alpha_grid])

        def mixing_only(lhs, rhs, lam, out=None):
            return solved_into(next(mixtures), out)

        monkeypatch.setattr(theory, "ridge_codistill_solve", mixing_only)
        lam_grid = lambda_grid_around(closed.lambda_star, 5, 4.0)
        args = (task, 0, lam_grid, alpha_grid, 5_000, 4)
        got = grid_search_oracle(*args)
        want = per_point_oracle(*args, candidate=lambda lam, alpha: alpha @ what)
        assert got.best_lambda == lam_grid[0] == want.best_lambda
        assert got.best_alpha.tobytes() == want.best_alpha.tobytes()
        assert got.best_loss == want.best_loss

    def test_solves_see_raise_invalid_and_the_caller_errstate_returns(self, monkeypatch):
        # the oracle holds the solves' policy for each lambda block only: its
        # solves see it, the rest of its work sees the caller's, which is
        # back on every exit, a singular grid point's included
        seen = []
        real_solve1 = theory._solve1
        zero_lhs = False

        def recording(a, b, out):
            seen.append(np.geterr())
            return real_solve1(np.zeros_like(a) if zero_lhs else a, b, out=out)

        monkeypatch.setattr(theory, "_solve1", recording)
        args = (small_task(seed=32), 0, np.array([0.5, 2.0]), simplex_grid(3, 2), 100, 0)
        policy = {"invalid": "raise", "over": "ignore", "divide": "ignore", "under": "ignore"}
        for caller in CALLER_ERRSTATES:
            with np.errstate(call=lambda kind, flag: None, **caller):
                before = np.geterr()
                seen.clear()
                zero_lhs = False
                grid_search_oracle(*args)
                assert seen == [policy] * (2 * 6 + 1)  # the grid, then the closed form
                assert np.geterr() == before
                zero_lhs = True
                with pytest.raises(NumericError, match=r"^singular ridge system \(lambda=0\.5\)$"):
                    grid_search_oracle(*args)
                assert np.geterr() == before

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_solution_raises_before_the_block_losses(self, monkeypatch, bad):
        # a solver that hands back a non-finite entry in the third row of
        # the second lambda block: the block's one check names that lambda
        # before any of its losses is computed, under every caller errstate
        real_solve1, real_losses = theory._solve1, theory._losses_from_noise_stats
        solves, loss_blocks = [], []

        def poisoning(a, b, out):
            solves.append(None)
            real_solve1(a, b, out=out)
            if len(solves) == 6 + 3:
                out[-1] = bad
            return out

        def recording(candidates, *rest):
            loss_blocks.append(len(candidates))
            return real_losses(candidates, *rest)

        monkeypatch.setattr(theory, "_solve1", poisoning)
        monkeypatch.setattr(theory, "_losses_from_noise_stats", recording)
        args = (small_task(seed=33), 0, np.array([0.5, 2.0]), simplex_grid(3, 2), 100, 0)
        for caller in CALLER_ERRSTATES:
            with np.errstate(call=lambda kind, flag: None, **caller):
                before = np.geterr()
                solves.clear()
                loss_blocks.clear()
                with pytest.raises(NumericError, match=r"^non-finite ridge solution \(lambda=2\.0\)$"):
                    grid_search_oracle(*args)
                assert np.geterr() == before
            assert (len(solves), loss_blocks) == (2 * 6, [6])

    def test_underflowed_posterior_variance_raises_numeric_error(self):
        # sigma^2 = 1e-320 over beta = 1e10: the closed form is finite, the
        # variance rounds to 0, and the best grid loss could be 0
        task = small_task(seed=29, sigma=1e-160, beta=1e10, n=8)
        closed_form_lambda_alpha(task, 0)
        what = all_ols(task)
        with pytest.raises(NumericError, match="posterior variance 0.0 is not > 0 for client 0"):
            posterior_moments_scalar(task, 0, what)
        with pytest.raises(NumericError, match="posterior variance"):
            grid_search_oracle(task, 0, np.array([1.0, 2.0]), simplex_grid(3, 3), 2000, seed=0)

    def test_overflowing_loss_raises_numeric_error(self, monkeypatch):
        task = small_task(seed=28)

        def huge(lhs, rhs, lam, out=None):
            return solved_into(np.full(task.dim, 1e200), out)

        monkeypatch.setattr(theory, "ridge_codistill_solve", huge)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="lambda="):
                grid_search_oracle(task, 0, np.array([1.0, 2.0]), simplex_grid(3, 2), 100, seed=0)

    def test_posterior_mean_lower_bounds_every_grid_point(self):
        task = small_task(seed=25, upsilon=(0.4, 1.0, 3.0))
        what = all_ols(task)
        mean, _ = posterior_moments_scalar(task, 0, what)
        floor = expected_loss_mc(
            task, 0, 1.0, np.ones(3) / 3, 50_000, seed=11, what_all=what, candidate=mean
        )
        for lam in (0.2, 1.0, 5.0):
            for alpha in simplex_grid(3, 4):
                loss = expected_loss_mc(
                    task, 0, lam, alpha, 50_000, seed=11, what_all=what
                )
                assert floor <= loss * (1 + 1e-6)


@pytest.fixture
def public_theory(monkeypatch):
    """A second copy of fedckt.theory, loaded while numpy's private
    _umath_linalg cannot be imported, as under a numpy that moved it; it
    binds the public stand-in. _ufunc_config is hidden too, which the copy
    must not need."""
    monkeypatch.delattr(np.linalg, "_umath_linalg")
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    monkeypatch.setitem(sys.modules, "numpy._core._ufunc_config", None)
    spec = importlib.util.spec_from_file_location("fedckt.public_theory", theory.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    assert not isinstance(module._solve1, np.ufunc)
    return module


class TestPublicNumpyFallback:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_oracle_matches_the_private_path_bitwise(self, public_theory, index):
        task, k, cfg, mc_seed = shipped_task(index)
        closed = closed_form_lambda_alpha(task, k)
        lam_grid = lambda_grid_around(closed.lambda_star, 5, cfg.theory.lambda_span)
        args = (task, k, lam_grid, simplex_grid(task.num_clients, 4), 5_000, mc_seed)
        with np.errstate(all="ignore"):  # as under the CLI
            got, want = public_theory.grid_search_oracle(*args), grid_search_oracle(*args)
        assert got.best_lambda == want.best_lambda
        assert got.best_alpha.tobytes() == want.best_alpha.tobytes()
        assert got.best_loss == want.best_loss
        assert got.closed_form_loss == want.closed_form_loss

    def test_singular_and_non_finite_systems_raise_numeric_error(self, public_theory):
        # np.linalg.solve sets its own error policy, so a singular system
        # raises under every caller errstate and leaves it as it was
        fired = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for policy in CALLER_ERRSTATES:
                with np.errstate(call=lambda kind, flag: fired.append(kind), **policy):
                    caller = np.geterr()
                    with pytest.raises(NumericError, match=r"^singular ridge system \(lambda=0\.5\)$"):
                        public_theory._solve_system(np.zeros((2, 2)), np.ones(2), 0.5)
                    assert np.geterr() == caller
        assert fired == []
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=r"^non-finite ridge solution \(lambda=1\.0\)$"):
                public_theory._solve_system(np.eye(2), np.array([np.inf, 1.0]), 1.0)


class TestSimplexGrid:
    def test_rows_sum_to_one(self):
        grid = simplex_grid(4, 6)
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert len(grid) == len({tuple(r) for r in grid})

    def test_count_matches_compositions(self):
        from math import comb

        assert len(simplex_grid(3, 10)) == comb(12, 2)

    def test_rows_in_lexicographic_order(self):
        # the oracle keeps the first of equal losses, so row order is part
        # of its result; itertools.product enumerates in lexicographic order
        from itertools import product

        for k in range(1, 5):
            for r in range(1, 7):
                numerators = [p for p in product(range(r + 1), repeat=k) if sum(p) == r]
                expected = np.array(numerators, dtype=np.float64) / r
                grid = simplex_grid(k, r)
                assert grid.shape == expected.shape
                assert grid.tobytes() == expected.tobytes()


class TestLambdaGrid:
    def test_one_point_is_the_center(self):
        # np.linspace(-a, a, 1) is [-a], which would make the grid [center / span]
        for center, span in [(4.0, 4.0), (0.37, 3.0), (1e-3, 1.5)]:
            assert lambda_grid_around(center, 1, span).tolist() == [center]

    @pytest.mark.parametrize("points", [2, 3, 5, 15])
    def test_symmetric_about_the_center(self, points):
        center, span = 0.37, 3.0
        grid = lambda_grid_around(center, points, span)
        assert np.allclose(grid * grid[::-1], center * center, rtol=1e-14, atol=0.0)
        assert np.isclose(grid[0], center / span) and np.isclose(grid[-1], center * span)


class TestToy:
    def test_no_heterogeneity_collapses_to_theta(self):
        true_w, solutions = run_toy_example(seed=0, sigmas=(0.0, 0.0, 0.0))
        theta = true_w[0]
        for k in range(3):
            assert np.allclose(true_w[k], theta, atol=1e-9)
            for weights in solutions.values():
                assert np.allclose(weights[k], theta, atol=1e-6)

    def test_clustered_beats_uniform_for_similar_pair(self):
        wins = {0: 0, 1: 0}
        for seed in range(10):
            true_w, solutions = run_toy_example(seed)
            for client in (0, 1):
                dist = {
                    kind: np.linalg.norm(weights[client] - true_w[client])
                    for kind, weights in solutions.items()
                }
                if dist["clustered_kt"] < dist["uniform_kt"]:
                    wins[client] += 1
        assert wins[0] >= 9
        assert wins[1] >= 9

    def test_uniform_beats_fedavg_for_outlier(self):
        wins = 0
        for seed in range(10):
            true_w, solutions = run_toy_example(seed)
            uniform = np.linalg.norm(solutions["uniform_kt"][2] - true_w[2])
            wins += uniform < np.linalg.norm(solutions["fedavg"][2] - true_w[2])
        assert wins > 5

    def test_fedavg_is_mean_of_true_models(self):
        # pooled least squares under a shared design = equal-weight average,
        # hence inside the convex hull of the true models
        for seed in range(5):
            true_w, solutions = run_toy_example(seed)
            for fedavg in solutions["fedavg"]:
                assert np.allclose(fedavg, true_w.mean(axis=0), atol=1e-8)

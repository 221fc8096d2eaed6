"""Bitwise facts about this numpy build that the code relies on.

Each test names one fact and checks it at the shapes the code uses. A
failure names numpy's version and the BLAS, since a different build may
round differently: then the code resting on the fact needs rechecking
there, not the fact loosening. Facts known to be false (one LU
factorisation against many right-hand sides is not bitwise a per-column
solve) stay prose in ROADMAP.md: a numpy that made them true would break
nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from fedckt.clustering import EINSUM_BLOCK
from fedckt.rng import substream
from fedckt.theory import _MC_BLOCK_ROWS
from helpers import build

# (d, A) of configs/theory_check.toml's tasks: dimension and alpha-grid rows
ORACLE_SHAPES = [(2, 136), (3, 816), (4, 3876)]


def oracle_block(d, a, seed):
    """One lambda block of the grid oracle: lhs = X'X + lam P'P and (A, d)
    right-hand sides, and a general (non-symmetric) lhs of the same size."""
    rng = substream(seed, "numpy-facts", d)
    x = rng.normal(size=(8, d))
    p = rng.normal(size=(d, d))
    lhs = x.T @ x + 1.7 * (p.T @ p)
    general = rng.normal(size=(d, d))
    return (lhs, general), rng.normal(size=(a, d))


def per_item(lhs, rhs):
    return np.stack([_umath_linalg.solve1(lhs, row) for row in rhs])


@pytest.mark.parametrize("d, a", ORACLE_SHAPES)
def test_solve1_signature_dd_d_is_the_float64_default(d, a):
    # theory.ridge_codistill_solve calls solve1 without signature="dd->d"
    (lhs, general), rhs = oracle_block(d, a, 0)
    for matrix in (lhs, general):
        signed = np.stack([_umath_linalg.solve1(matrix, row, signature="dd->d") for row in rhs])
        assert signed.tobytes() == per_item(matrix, rhs).tobytes(), (
            f"solve1 with and without signature differ on {build()}"
        )


@pytest.mark.parametrize("d, a", ORACLE_SHAPES)
def test_solve1_into_a_row_view_matches_a_fresh_output(d, a):
    # grid_search_oracle writes each solution into a row of its (A, d) block
    (lhs, general), rhs = oracle_block(d, a, 1)
    for matrix in (lhs, general):
        fresh = per_item(matrix, rhs)
        block = np.empty_like(rhs)
        for j in range(a):
            _umath_linalg.solve1(matrix, rhs[j], out=block[j])
        assert block.tobytes() == fresh.tobytes(), (
            f"solve1 through out= differs from a fresh output on {build()}"
        )


@pytest.mark.parametrize("d, a", ORACLE_SHAPES)
def test_stacked_solve_matches_per_item_solves(d, a):
    # ROADMAP item 4 solves a lambda block as one (A, d, d) stack; rhs goes
    # in as (A, d, 1), since numpy 2 reads a 2-D b as one matrix
    (lhs, general), rhs = oracle_block(d, a, 2)
    for matrix in (lhs, general):
        stacked = _umath_linalg.solve(np.broadcast_to(matrix, (a, d, d)), rhs[..., None])
        assert stacked[..., 0].tobytes() == per_item(matrix, rhs).tobytes(), (
            f"stacked solve differs from per-item solve1 on {build()}"
        )


# (G, n, k) @ (G, k, N) at the shapes a client-stacked round needs: 10
# clients, 32-row batches or the 2000-row pool, inputs of width 8, hidden
# layers of 24 and 10 classes
MATMUL_SHAPES = [
    ((10, 32, 8), (10, 8, 10)),
    ((10, 32, 8), (10, 8, 24)),
    ((10, 2000, 8), (10, 8, 24)),
    ((10, 2000, 24), (10, 24, 10)),
]
# backprop's X.T @ G: the left operand is a transposed view of a stacked
# (G, n, k) block
TRANSPOSED_SHAPES = [((10, 2000, 24), (10, 2000, 10)), ((10, 32, 8), (10, 32, 10))]


def operands(shapes, seed):
    rng = substream(seed, "numpy-facts", "matmul", *(n for shape in shapes for n in shape))
    return [rng.normal(size=shape) for shape in shapes]


def shape_id(shapes):
    return "@".join("x".join(map(str, shape)) for shape in shapes)


@pytest.mark.parametrize("a_shape, b_shape", MATMUL_SHAPES, ids=map(shape_id, MATMUL_SHAPES))
def test_stacked_matmul_matches_per_item_matmul(a_shape, b_shape):
    a, b = operands((a_shape, b_shape), 3)
    per_item = np.stack([a[g] @ b[g] for g in range(len(a))])
    assert np.matmul(a, b).tobytes() == per_item.tobytes(), (
        f"stacked matmul differs from per-item matmul on {build()}"
    )


@pytest.mark.parametrize(
    "h_shape, g_shape", TRANSPOSED_SHAPES, ids=map(shape_id, TRANSPOSED_SHAPES)
)
def test_transposed_stacked_matmul_matches_per_item_matmul(h_shape, g_shape):
    h, grad = operands((h_shape, g_shape), 4)
    per_item = np.stack([h[g].T @ grad[g] for g in range(len(h))])
    assert np.matmul(h.transpose(0, 2, 1), grad).tobytes() == per_item.tobytes(), (
        f"transposed stacked matmul differs from per-item matmul on {build()}"
    )


def test_shared_pool_matmul_matches_per_item_matmul():
    # one public pool forwarded through every client's weights
    pool, weights = operands(((2000, 8), (10, 8, 24)), 5)
    per_item = np.stack([pool @ w for w in weights])
    assert np.matmul(pool, weights).tobytes() == per_item.tobytes(), (
        f"broadcast pool matmul differs from per-item matmul on {build()}"
    )


@pytest.mark.parametrize("shape", [(10, 32, 10), (10, 2000, 10)], ids=["batch", "pool"])
@pytest.mark.parametrize("axis", [1, 2])
def test_add_reduce_over_a_stacked_axis_matches_per_item_reduce(shape, axis):
    # (G, n, N) logits or probabilities: reducing the stack over axis 1 or 2
    # is each item's reduce over axis 0 or 1
    (block,) = operands((shape,), 6)
    per_item = np.stack([np.add.reduce(item, axis=axis - 1) for item in block])
    assert np.add.reduce(block, axis=axis).tobytes() == per_item.tobytes(), (
        f"add.reduce over stacked axis {axis} differs from per-item reduce on {build()}"
    )


# theory._mc_noise_stats: (N, d) Monte-Carlo noise at the sample counts of
# the tests and of configs/theory_check.toml, drawn in blocks of
# _MC_BLOCK_ROWS rows; neither count is a multiple of it, so each ends
# in a remainder block
NOISE_ROWS = [20_000, 100_000]


def noise_blocks(n, d, seed):
    rng = substream(seed, "mc-noise")
    return [rng.normal(size=(min(_MC_BLOCK_ROWS, n - a), d)) for a in range(0, n, _MC_BLOCK_ROWS)]


def carried_column_sum(blocks):
    """Each block's axis-0 reduce, the column sum so far as its first row."""
    total = np.add.reduce(blocks[0], axis=0)
    for block in blocks[1:]:
        total = np.add.reduce(np.concatenate([total[None, :], block]), axis=0)
    return total


@pytest.mark.parametrize("n", NOISE_ROWS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_block_drawn_normal_matches_one_draw(d, n):
    whole = substream(7, "mc-noise").normal(size=(n, d))
    assert np.concatenate(noise_blocks(n, d, 7)).tobytes() == whole.tobytes(), (
        f"normal drawn in blocks of {_MC_BLOCK_ROWS} rows differs from one draw on {build()}"
    )


@pytest.mark.parametrize("n", NOISE_ROWS)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_per_block_einsum_into_out_matches_the_full_einsum(d, n):
    blocks = noise_blocks(n, d, 8)
    dots = np.empty(n)
    for a, block in zip(range(0, n, _MC_BLOCK_ROWS), blocks):
        np.einsum("ij,ij->i", block, block, out=dots[a : a + len(block)])
    whole = np.concatenate(blocks)
    assert dots.tobytes() == np.einsum("ij,ij->i", whole, whole).tobytes(), (
        f"per-block einsum through out= differs from the full einsum on {build()}"
    )


@pytest.mark.parametrize("n", NOISE_ROWS)
@pytest.mark.parametrize("d", [2, 3, 4])
def test_carried_row_block_reduce_matches_mean_over_rows(d, n):
    # numpy sums the columns of a C-order (N, d) block row by row from the
    # first row, so a block's reduce may start from the sum so far
    blocks = noise_blocks(n, d, 9)
    mean = np.concatenate(blocks).mean(axis=0)
    assert (carried_column_sum(blocks) / n).tobytes() == mean.tobytes(), (
        f"carried-row block reduce differs from .mean(axis=0) on {build()}"
    )


@pytest.mark.parametrize("n", NOISE_ROWS)
def test_carried_row_block_reduce_differs_for_a_lone_column(n):
    # expected inequality: numpy sums a lone contiguous column pairwise, so
    # _mc_noise_stats keeps it whole; a build where this holds bitwise
    # breaks nothing
    differ = []
    for seed in range(5):
        blocks = noise_blocks(n, 1, seed)
        mean = np.concatenate(blocks).mean(axis=0)
        differ.append((carried_column_sum(blocks) / n).tobytes() != mean.tobytes())
    assert any(differ), f"carried-row block reduce matches the pairwise column sum on {build()}"


# clustering._objective's (m, L) stacks: up to 12 clients of
# perfed_converge10's width 150, perfed_dirichlet100's 20000, and widths
# whose rows end just before, on and just after an einsum block
OBJECTIVE_SHAPES = [
    (m, width) for m in range(1, 13) for width in (150, 8191, 8192, 8193, 20000)
]


def objective_diffs(m, width, seed):
    """An (m, L) block of differences over 20 binades, so that the order
    of the adds shows in the total."""
    rng = substream(seed, "numpy-facts", "objective", m, width)
    return rng.normal(size=(m, width)) * 2.0 ** rng.integers(-10, 10, size=(m, width))


def block_einsum_mismatches(shapes, block, seed=12):
    """How many of the shapes' einsum("ij,ij->") totals differ from the
    in-order sum, from 0.0, of einsum("i,i->") over consecutive `block`-entry
    chunks of the ravel."""
    differ = 0
    for m, width in shapes:
        diffs = objective_diffs(m, width, seed)
        flat = diffs.ravel()
        total = 0.0
        for start in range(0, flat.size, block):
            chunk = flat[start : start + block]
            total += np.einsum("i,i->", chunk, chunk)
        differ += np.einsum("ij,ij->", diffs, diffs).tobytes() != np.float64(total).tobytes()
    return differ


@pytest.mark.parametrize("bufsize", [4096, 8192, 16384])
def test_einsum_total_is_the_in_order_sum_of_its_block_einsums(bufsize):
    # clustering._objective streams the (m, L) differences in EINSUM_BLOCK
    # chunks; numpy's block does not follow np.setbufsize
    old = np.setbufsize(bufsize)
    try:
        differ = block_einsum_mismatches(OBJECTIVE_SHAPES, EINSUM_BLOCK)
    finally:
        np.setbufsize(old)
    assert differ == 0, (
        f"einsum('ij,ij->') differs from its {EINSUM_BLOCK}-entry block sums on {differ} "
        f"of {len(OBJECTIVE_SHAPES)} stacks under bufsize {bufsize} on {build()}"
    )


def test_einsum_block_sums_hold_at_random_shapes():
    rng = substream(13, "numpy-facts", "objective-shapes")
    shapes = [(int(rng.integers(1, 40)), int(rng.integers(1, 12_000))) for _ in range(40)]
    differ = block_einsum_mismatches(shapes, EINSUM_BLOCK)
    assert differ == 0, (
        f"einsum('ij,ij->') differs from its {EINSUM_BLOCK}-entry block sums on {differ} "
        f"of {len(shapes)} random stacks on {build()}"
    )


@pytest.mark.parametrize("block", [EINSUM_BLOCK // 2, 2 * EINSUM_BLOCK])
def test_einsum_block_sums_differ_at_another_block(block):
    # expected inequality: the block is numpy's, not any chunking's; a
    # build where this holds bitwise breaks nothing
    assert block_einsum_mismatches(OBJECTIVE_SHAPES, block), (
        f"einsum('ij,ij->') matches its {block}-entry block sums on every stack on {build()}"
    )


# gen_task's (d, K, n): configs/theory_check.toml's tasks, then the shapes
# tests/test_theory.py and tests/test_acceptance.py draw
TASK_SHAPES = [(2, 3, 8), (3, 4, 8), (4, 5, 8), (2, 3, 6), (2, 3, 7), (2, 2, 2), (2, 3, 4), (2, 3, 5)]


@pytest.mark.parametrize("d, k, n", TASK_SHAPES)
def test_block_draw_and_stacked_qr_match_per_client_draws(d, k, n):
    # theory.gen_task draws every client's frame and noise in one block and
    # takes the frames with one stacked QR
    sigma = 1.5
    for seed in range(20):
        rng = substream(seed, "numpy-facts", "gen-task")
        frames, noise = [], []
        for _ in range(k):
            frames.append(np.linalg.qr(rng.normal(size=(n, d)))[0][:, :d])
            noise.append(rng.normal(0.0, sigma, n))
        block = substream(seed, "numpy-facts", "gen-task").normal(size=(k, n * d + n))
        stacked, _ = np.linalg.qr(block[:, : n * d].reshape(k, n, d))
        assert stacked.tobytes() == np.stack(frames).tobytes(), (
            f"stacked QR of one block draw differs from per-client QRs on {build()}"
        )
        assert (0.0 + sigma * block[:, n * d :]).tobytes() == np.stack(noise).tobytes(), (
            f"scaled block columns differ from per-client normal(0, sigma) on {build()}"
        )


# flat parameter sizes: smoke's softmax (d = 2, N = 3), perfed_converge10's
# softmax (5, 5), two_group's softmax (4, 10), perfed_dirichlet100's small
# and wide heterogeneous MLPs (8, 10, hidden 12 and 24), fedavg_twogroup's
# MLP-24 (4, 10)
PARAM_SIZES = [9, 30, 50, 238, 466, 370]


@pytest.mark.parametrize("size", PARAM_SIZES)
def test_scaling_the_gradient_in_place_matches_subtracting_the_scaled_gradient(size):
    # federation's local step scales the kernel's fresh gradient in place,
    # then subtracts it
    rng = substream(10, "numpy-facts", "sgd-step", size)
    for eta in (0.05, 0.3, 1 / 3, 1e-7):
        w, grad = rng.normal(size=size), rng.normal(scale=50.0, size=size)
        stepped = w.copy()
        scaled = grad.copy()
        scaled *= eta
        stepped -= scaled
        w -= eta * grad
        assert stepped.tobytes() == w.tobytes(), (
            f"grad *= eta; w -= grad differs from w -= eta * grad on {build()}"
        )


# data.minibatch draws with replacement only when the batch is larger than
# the split: the batch sizes of the shipped configs and bench workloads
BATCH_SIZES = [8, 30, 32, 64]


@pytest.mark.parametrize("k", BATCH_SIZES)
def test_choice_with_replacement_matches_integers(k):
    # the same indices, and the generator left in the same state
    for n in range(1, k):
        for seed in range(3):
            chosen = substream(seed, "numpy-facts", "minibatch", n, k)
            drawn = substream(seed, "numpy-facts", "minibatch", n, k)
            picks = chosen.choice(n, size=k, replace=True)
            assert picks.tobytes() == drawn.integers(0, n, size=k).tobytes(), (
                f"choice(n, replace=True) differs from integers(0, n) on {build()}"
            )
            assert chosen.random() == drawn.random(), (
                f"choice(n, replace=True) leaves another generator state on {build()}"
            )


# (rows, columns) of the class scores, probabilities and hidden activations
# the kernels reduce: smoke and bench batches and the 30- and 2000-row pools
REDUCE_SHAPES = [(8, 3), (32, 5), (64, 10), (30, 5), (2000, 10), (2000, 24), (32, 12)]


@pytest.mark.parametrize("shape", REDUCE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_direct_reduce_matches_the_method(shape):
    # models calls np.maximum.reduce and np.add.reduce directly; the max
    # also meets a NaN and rows and columns whose largest entries are 0.0
    # and -0.0, in either order
    rng = substream(11, "numpy-facts", "reduce", *shape)
    block = rng.normal(size=shape)
    for axis in (0, 1):
        assert np.add.reduce(block, axis=axis).tobytes() == block.sum(axis=axis).tobytes(), (
            f"np.add.reduce differs from .sum over axis {axis} on {build()}"
        )
    block = -np.abs(block)
    block[::2, :2] = [0.0, -0.0]
    block[1::2, :2] = [-0.0, 0.0]
    block[-1, -1] = np.nan
    for data in (block, block.T.copy()):
        for axis in (0, 1):
            direct = np.maximum.reduce(data, axis=axis)
            assert direct.tobytes() == data.max(axis=axis).tobytes(), (
                f"np.maximum.reduce differs from .max over axis {axis} on {build()}"
            )


# ROADMAP item 14's zero-padded client stacks: (k, m) of each layer's
# weights in the bench workloads. perfed_dirichlet100 mixes softmax (8 -> 10)
# and MLPs with hidden widths 12 and 24, perfed_converge10 is softmax (5 -> 5)
# and fedavg_twogroup an MLP-24 (4 -> 24 -> 10). A forward is
# (n, k) @ (k, m); a weight gradient is X.T @ G, (n, k).T @ (n, m).
LAYER_SHAPES = [(8, 10), (8, 12), (12, 10), (8, 24), (24, 10), (5, 5), (4, 24)]
# from 16 inner columns on a padded forward differs, see below
FORWARD_BITWISE = [shape for shape in LAYER_SHAPES if shape[0] < 16]
# one group's clients: the row counts of their splits, zero-padded to the
# largest plus 7
CLIENT_ROWS = [1, 2, 3, 5, 8, 13, 21, 34, 69, 100, 128, 200, 333]
BLAS_THREADS = [1, 2]


# (K, d, R) of every alpha grid the oracle searches: configs/theory_check.toml
# and the bench theory_oracle workload at full size (A up to 3876) and at
# the bench's smoke size, the tasks of tests/test_theory.py, tests/test_cli.py
# and tests/test_golden.py, and criterion 1's
PULL_SHAPES = [
    (3, 2, 15), (4, 3, 15), (5, 4, 15),
    (3, 2, 5), (4, 3, 5), (5, 4, 5),
    (3, 2, 6), (4, 3, 6), (5, 4, 6), (3, 2, 4), (4, 3, 4), (5, 4, 4),
    (3, 2, 16), (3, 2, 10), (3, 2, 2), (3, 1, 6), (5, 4, 3),
]


# the row widths numpy's pairwise row sum is checked at: across its plain
# adds (below 8), its eight accumulators (up to 128) and its halving above
COLUMN_SUM_WIDTHS = list(range(2, 301))


@pytest.fixture(scope="module")
def fresh_reports():
    """BLAS threads -> {"padded": {"kxm": padded_stack_mismatches at that
    layer shape}, "pull": stacked_pull_mismatches(PULL_SHAPES), "columns":
    column_sum_mismatches(COLUMN_SUM_WIDTHS)}, each from a fresh interpreter
    started with that many OpenBLAS threads; the two run side by side."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = (
        "import json, sys, helpers; rows, shapes, pulls, widths = json.loads(sys.argv[1]); "
        "print(json.dumps({'padded': {f'{k}x{m}': helpers.padded_stack_mismatches(k, m, rows) "
        "for k, m in shapes}, 'pull': helpers.stacked_pull_mismatches(pulls), "
        "'columns': helpers.column_sum_mismatches(widths)}))"
    )
    arguments = [CLIENT_ROWS, LAYER_SHAPES, PULL_SHAPES, COLUMN_SUM_WIDTHS]
    procs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(arguments)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path),
        )
        for threads in BLAS_THREADS
    }
    reports = {}
    for threads, proc in procs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        reports[threads] = json.loads(out)
    return reports


@pytest.fixture(scope="module")
def padded_reports(fresh_reports):
    return {threads: report["padded"] for threads, report in fresh_reports.items()}


def layer_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("k, m", FORWARD_BITWISE, ids=map(layer_id, FORWARD_BITWISE))
def test_zero_padded_stacked_forward_matches_per_client_rows(padded_reports, threads, k, m):
    # every client with two rows or more; one row is the gemv case below
    differ = [n for n in padded_reports[threads][f"{k}x{m}"]["forward"] if n > 1]
    assert not differ, (
        f"zero-padded stacked forward through ({k}, {m}) differs from the per-client "
        f"product for clients of {differ} rows at {threads} BLAS threads on {build()}"
    )


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("k, m", LAYER_SHAPES, ids=map(layer_id, LAYER_SHAPES))
def test_zero_padded_stacked_forward_differs_for_a_one_row_client(padded_reports, threads, k, m):
    # expected inequality: numpy takes gemv for a one-row product, so a
    # client whose split has one row keeps the per-client path
    assert 1 in padded_reports[threads][f"{k}x{m}"]["forward"], (
        f"zero-padded stacked forward through ({k}, {m}) matches the one-row gemv "
        f"at {threads} BLAS threads on {build()}"
    )


@pytest.mark.parametrize("threads", BLAS_THREADS)
def test_zero_padded_stacked_forward_differs_through_a_24_wide_layer(padded_reports, threads):
    # expected inequality: from 16 inner columns on, the rows past the last
    # multiple of 4 depend on how many rows the product has, so the MLP-24
    # output layer (24 -> 10) cannot be stacked with padding
    differ = [n for n in padded_reports[threads]["24x10"]["forward"] if n > 1]
    assert differ, (
        f"zero-padded stacked forward through (24, 10) matches the per-client rows "
        f"at {threads} BLAS threads on {build()}"
    )


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("k, m", LAYER_SHAPES, ids=map(layer_id, LAYER_SHAPES))
def test_zero_padded_weight_gradient_matches_per_client_product(padded_reports, threads, k, m):
    # X.T @ G over zero-padded rows, one-row clients included
    differ = padded_reports[threads][f"{k}x{m}"]["transposed"]
    assert not differ, (
        f"zero-padded X.T @ G at ({k}, {m}) differs from the per-client product "
        f"for clients of {differ} rows at {threads} BLAS threads on {build()}"
    )


# the full-size grids of the shipped tasks with K = 4 and 5
GEMM_DIFFERS = [(4, 3, 15), (5, 4, 15)]


def pull_id(shape):
    return "K{}-d{}-R{}".format(*shape)


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("shape", PULL_SHAPES, ids=map(pull_id, PULL_SHAPES))
def test_stacked_alpha_pull_matches_the_per_row_products(fresh_reports, threads, shape):
    # theory.grid_search_oracle builds its (A, d) pulls with
    # matmul(alpha_grid[:, None, :], W), then matmul(ptp, mixed[:, 0, :, None]):
    # each item is the (1, K) @ (K, d) and (d, d) @ (d, 1) of a per-row
    # ptp @ (alpha @ W)
    differ = fresh_reports[threads]["pull"]["{}x{}x{}".format(*shape)]["stacked"]
    assert differ == 0, (
        f"stacked alpha pulls at (K, d, R) = {shape} differ from the per-row products "
        f"in {differ} of 3 draws at {threads} BLAS threads on {build()}"
    )


@pytest.mark.parametrize("threads", BLAS_THREADS)
@pytest.mark.parametrize("shape", GEMM_DIFFERS, ids=map(pull_id, GEMM_DIFFERS))
def test_plain_gemm_alpha_mix_differs_from_the_per_row_products(fresh_reports, threads, shape):
    # expected inequality: one gemm alpha_grid @ W rounds differently from
    # the per-row alpha @ W at the shipped K = 4 and 5 tasks, which is why
    # the oracle stacks (1, K) rows instead; a build where this holds
    # bitwise breaks nothing
    assert fresh_reports[threads]["pull"]["{}x{}x{}".format(*shape)]["gemm"], (
        f"plain gemm alpha_grid @ W at (K, d, R) = {shape} matches the per-row "
        f"products at {threads} BLAS threads on {build()}"
    )


@pytest.mark.parametrize("threads", BLAS_THREADS)
def test_pairwise_column_sum_matches_the_row_reduce(fresh_reports, threads):
    # models sums the rows of a tall block as N - 1 column adds over its
    # transposed copy, in numpy's own pairwise order; a plain left-to-right
    # column sum differs from 8 entries on (see ROADMAP.md)
    differ = fresh_reports[threads]["columns"]
    assert not differ, (
        f"the pairwise column sum differs from np.add.reduce over rows of widths "
        f"{differ} at {threads} BLAS threads on {build()}"
    )

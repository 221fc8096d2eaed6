"""Bitwise facts about this numpy build that the code relies on.

Each test names one fact and checks it at the shapes the code uses. A
failure names numpy's version and the BLAS, since a different build may
round differently: then the code resting on the fact needs rechecking
there, not the fact loosening. Facts known to be false (one LU
factorisation against many right-hand sides is not bitwise a per-column
solve) stay prose in ROADMAP.md: a numpy that made them true would break
nothing.
"""

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from fedckt.rng import substream

# (d, A) of configs/theory_check.toml's tasks: dimension and alpha-grid rows
ORACLE_SHAPES = [(2, 136), (3, 816), (4, 3876)]


def build():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


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

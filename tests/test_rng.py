"""rng.substream against numpy's own coercion of the entropy list: one
64-bit integer per part, masked, with a string's taken from its sha256."""

import hashlib

import numpy as np
import pytest

from fedckt.rng import substream

PARTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -5, "batch", "param-init", ""]


def reference_substream(master_seed, *path):
    ints = []
    for part in (master_seed, *path):
        if isinstance(part, str):
            part = int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
        ints.append(part & (2**64 - 1))
    return np.random.default_rng(np.random.SeedSequence(ints))


def assert_same_draws(master_seed, *path):
    got = substream(master_seed, *path)
    want = reference_substream(master_seed, *path)
    assert np.array_equal(got.integers(0, 2**63 - 1, size=8), want.integers(0, 2**63 - 1, size=8))
    assert np.array_equal(got.random(4), want.random(4))


@pytest.mark.parametrize("part", PARTS, ids=repr)
def test_part_as_master_seed(part):
    assert_same_draws(part)


@pytest.mark.parametrize("part", PARTS, ids=repr)
def test_part_in_path(part):
    assert_same_draws(7, "batch", part, 3)
    assert_same_draws(2**40 + 1, part)


def test_every_part_in_one_path():
    assert_same_draws(1, *PARTS)
    assert_same_draws(1, *reversed(PARTS))

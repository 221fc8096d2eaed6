"""Named, seed-derived RNG substreams.

All randomness in the package flows from one master seed through named
substreams so any component reproduces in isolation and independent
components never share a stream (required for the bitwise reduction
identities between algorithms that consume different random quantities).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _words(value: int) -> tuple[int, ...]:
    """The uint32 words numpy's SeedSequence makes of a 64-bit integer:
    [0] for zero, else the low word, then the high word if non-zero."""
    high = value >> 32
    return (value & _MASK32, high) if high else (value & _MASK32,)


@lru_cache(maxsize=256)
def _string_words(part: str) -> tuple[int, ...]:
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return _words(int.from_bytes(digest[:8], "little"))


def _encode(part: int | str) -> tuple[int, ...]:
    if isinstance(part, str):
        return _string_words(part)
    return _words(int(part) & _MASK64)


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *path).

    Identical (seed, path) pairs always yield identical streams; distinct
    paths yield statistically independent streams. Each part is one 64-bit
    integer (a string's is the head of its sha256), handed to SeedSequence
    as the uint32 words it would build from a list of those integers.
    """
    entropy = list(_encode(master_seed))
    for part in path:
        entropy += _encode(part)
    seq = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))  # what default_rng(seq) builds


def derive_seed(master_seed: int, *path: int | str) -> int:
    """A plain integer seed derived from the named substream, for APIs that
    take a seed rather than a generator."""
    return int(substream(master_seed, *path).integers(0, 2**63 - 1))

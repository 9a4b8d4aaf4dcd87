"""Deterministic derivation of random substreams.

Every random draw in the package flows from a user-supplied master seed.
Independent substreams (one per generated data column, one per forest
tree) are derived with the splitmix64 finalizer, so the stream with index
``k`` depends only on ``(master_seed, k)``: adding a new column never
perturbs existing columns, and growing a forest by more trees never
changes the trees already trained.

Within a tree, a node's draws come from its key, a 64-bit integer, by
counter-based hashing (the "Random123" construction of Salmon et al.
2011 on the splitmix64 finalizer): counter i of a key hashes to
``splitmix64((key + i * 0x9E3779B97F4A7C15) mod 2**64)``, so any counter
of any node is one hash, in any order.
"""

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step on a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def counter_hashes(keys: np.ndarray, n: int) -> np.ndarray:
    """The (len(keys), n) uint64 matrix of counters 0 .. n - 1 of each key,
    ``splitmix64((key + i * 0x9E3779B97F4A7C15) mod 2**64)`` at [j, i]."""
    x = np.asarray(keys, dtype=np.uint64)[:, None] + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    x ^= x >> 30
    x *= np.uint64(_MIX_A)
    x ^= x >> 27
    x *= np.uint64(_MIX_B)
    return x ^ (x >> 31)


def mix64(master_seed: int, stream_index: int) -> int:
    """Seed of substream ``stream_index`` under ``master_seed``, both
    Python ints in [0, 2**64): a wider one would alias one 2**64 apart, and
    numpy integers would wrap or overflow in the mixing."""
    for name, v in (("seed", master_seed), ("stream index", stream_index)):
        if type(v) is not int or not 0 <= v < 2**64:
            raise ParameterError(f"{name} must be an integer in [0, 2**64 - 1], got {v!r}")
    return splitmix64(splitmix64(master_seed) ^ ((stream_index * _GOLDEN) & _MASK64))


def substream(master_seed: int, stream_index: int) -> np.random.Generator:
    """PCG64 generator for one derived substream."""
    return np.random.Generator(np.random.PCG64(mix64(master_seed, stream_index)))

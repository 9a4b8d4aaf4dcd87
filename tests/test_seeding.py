"""Seed-derivation tests: the mixing finalizer against its published
reference output, plus the stream-independence properties the trainers
rely on."""

import numpy as np
import pytest

from smerisk.errors import ParameterError
from smerisk.seeding import counter_hashes, mix64, splitmix64, substream


def test_splitmix64_reference_vector():
    # First output of the reference splitmix64 generator seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_stateful_chain():
    # Stepping the seed by the golden-gamma increment reproduces the
    # stateful reference generator's output sequence.
    golden = 0x9E3779B97F4A7C15
    first = splitmix64(0)
    second = splitmix64(golden)
    third = splitmix64((2 * golden) % 2**64)
    assert len({first, second, third}) == 3
    for value in (first, second, third):
        assert 0 <= value < 2**64


def test_splitmix64_wraps_modulo_2_64():
    assert splitmix64(2**64 - 1) == splitmix64(-1 % 2**64)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_counter_hashes_are_splitmix64_of_the_counters():
    # counter i of a key is splitmix64((key + i * golden) mod 2**64), the
    # sum wrapping at the largest key
    golden = 0x9E3779B97F4A7C15
    keys = [0, 1, 2**64 - 1, 0xD1B54A32D192ED03]
    hashes = counter_hashes(np.array(keys, dtype=np.uint64), 9)
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [[splitmix64((key + i * golden) % 2**64) for i in range(9)] for key in keys]


def test_mix64_deterministic_and_spread():
    seen = {mix64(42, i) for i in range(200)}
    assert len(seen) == 200
    assert mix64(42, 7) == mix64(42, 7)
    assert mix64(42, 7) != mix64(43, 7)
    assert mix64(42, 7) != mix64(42, 8)


def test_mix64_rejects_negative_inputs():
    with pytest.raises(ValueError):
        mix64(-1, 0)
    with pytest.raises(ValueError):
        mix64(0, -3)


def test_mix64_rejects_seeds_that_would_alias_or_wrap():
    # a seed 2**64 apart from another would draw the same stream
    for seed, index in ((2**64 + 3, 0), (3, 2**64)):
        with pytest.raises(ParameterError, match=r"must be an integer in \[0, 2\*\*64 - 1\], got 1844674407370955"):
            substream(seed, index)
    assert 0 <= mix64(2**64 - 1, 2**64 - 1) < 2**64  # the largest seed and index are taken
    # numpy's uint64 3 wrapped in the mixing to another stream than 3's
    for seed in (np.uint64(3), np.int64(3), 3.0):
        with pytest.raises(ParameterError, match=r"^seed must be an integer in \[0, 2\*\*64 - 1\], got "):
            substream(seed, 0)


def test_substream_reproducible():
    a = substream(9, 4).random(16)
    b = substream(9, 4).random(16)
    assert np.array_equal(a, b)


def test_substreams_differ_across_indices():
    a = substream(9, 0).random(16)
    b = substream(9, 1).random(16)
    assert not np.array_equal(a, b)

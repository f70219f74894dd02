"""Generator contract: determinism, batch/scalar identity, derivation layout."""

import hashlib

import numpy as np
import pytest

from treepack import rng
from treepack.rng import (
    GENERATOR_ID,
    SplitMix64,
    check_seed,
    derive_seed,
    u64_array,
    u64_at,
)


def test_generator_is_named_and_versioned():
    assert GENERATOR_ID == "splitmix64-ctr-v1"


def test_u64_at_deterministic_and_64bit():
    values = [u64_at(12345, i) for i in range(64)]
    assert values == [u64_at(12345, i) for i in range(64)]
    assert all(0 <= v < (1 << 64) for v in values)
    assert len(set(values)) == 64


def test_u64_at_differs_across_seeds():
    assert u64_at(1, 0) != u64_at(2, 0)


def test_u64_array_matches_scalar_bitwise():
    seed = 0xDEADBEEFCAFE
    batch = u64_array(seed, 0, 200)
    assert [int(x) for x in batch] == [u64_at(seed, i) for i in range(200)]


def test_u64_array_offset_window():
    seed = 7
    batch = u64_array(seed, 100, 50)
    assert [int(x) for x in batch] == [u64_at(seed, 100 + i) for i in range(50)]


def test_u64_array_rejects_negative_count():
    with pytest.raises(ValueError):
        u64_array(1, 0, -1)


def test_stream_walks_the_counter():
    stream = SplitMix64(99)
    assert [stream.u64() for _ in range(10)] == [u64_at(99, i) for i in range(10)]
    assert stream.counter == 10


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)
    with pytest.raises(ValueError):
        check_seed(True)
    assert check_seed((1 << 64) - 1) == (1 << 64) - 1


def test_below_range_and_determinism():
    stream = SplitMix64(4242)
    draws = [stream.below(10) for _ in range(1000)]
    assert all(0 <= d < 10 for d in draws)
    again = SplitMix64(4242)
    assert draws == [again.below(10) for _ in range(1000)]


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).below(0)


def test_below_covers_small_range_uniformly():
    # 6000 draws over 6 buckets: each expects 1000, sd ~ 28.9, allow 4 sd.
    stream = SplitMix64(2024)
    counts = [0] * 6
    for _ in range(6000):
        counts[stream.below(6)] += 1
    assert all(abs(c - 1000) < 4 * 28.9 for c in counts)


def test_shuffle_is_a_permutation():
    items = list(range(30))
    stream = SplitMix64(5)
    stream.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def scalar_shuffle(stream, items):
    """The reference Fisher-Yates: one below() call per position."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 8, 64, 99, 1001, 1024])
@pytest.mark.parametrize("skip", [0, 17])
def test_shuffle_matches_scalar_fisher_yates(size, skip):
    batched, scalar = SplitMix64(77), SplitMix64(77)
    for stream in (batched, scalar):
        for _ in range(skip):
            stream.u64()
    items, expected = list(range(size)), list(range(size))
    batched.shuffle(items)
    scalar_shuffle(scalar, expected)
    assert items == expected
    assert batched.counter == scalar.counter == skip + max(size - 1, 0)


def plant_max_words(monkeypatch, indices):
    """Make the words at ``indices`` of every stream 2^64 - 1, which below()
    rejects for every bound that is not a power of two."""
    real_at, real_array = rng.u64_at, rng.u64_array

    def planted_at(seed, index):
        return (1 << 64) - 1 if index in indices else real_at(seed, index)

    def planted_array(seed, start, count):
        words = real_array(seed, start, count)
        for index in indices:
            if start <= index < start + count:
                words[index - start] = np.uint64((1 << 64) - 1)
        return words

    monkeypatch.setattr(rng, "u64_at", planted_at)
    monkeypatch.setattr(rng, "u64_array", planted_array)


@pytest.mark.parametrize(
    "indices, rejections",
    [
        ({15}, 1),  # word 15 draws for bound 90: rejected
        ({15, 40}, 2),  # the scalar fallback meets word 40 at bound 66
        ({41}, 0),  # bound 64 is a power of two: 2^64 - 1 is kept
    ],
)
def test_shuffle_rejection_falls_back_to_scalar(monkeypatch, indices, rejections):
    plant_max_words(monkeypatch, indices)
    batched, scalar = SplitMix64(3), SplitMix64(3)
    batched.counter = scalar.counter = 5
    items, expected = list(range(100)), list(range(100))
    batched.shuffle(items)
    scalar_shuffle(scalar, expected)
    assert items == expected
    assert batched.counter == scalar.counter == 5 + 99 + rejections


def test_derive_seed_matches_documented_layout():
    master, ident, n, p_index, trial = 314159, "campaign-a", 64, 3, 17
    blob = (
        master.to_bytes(8, "big")
        + len(ident.encode()).to_bytes(2, "big")
        + ident.encode()
        + n.to_bytes(8, "big")
        + p_index.to_bytes(8, "big")
        + trial.to_bytes(8, "big")
    )
    expected = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    assert derive_seed(master, ident, n, p_index, trial) == expected


def test_derive_seed_separates_every_field():
    base = derive_seed(1, "exp", 10, 0, 0)
    assert derive_seed(2, "exp", 10, 0, 0) != base
    assert derive_seed(1, "exq", 10, 0, 0) != base
    assert derive_seed(1, "exp", 11, 0, 0) != base
    assert derive_seed(1, "exp", 10, 1, 0) != base
    assert derive_seed(1, "exp", 10, 0, 1) != base
    assert derive_seed(1, "exp", 10, 0, 0) == base


def test_derive_seed_validates_ranges():
    with pytest.raises(ValueError):
        derive_seed(-1, "x", 1, 1, 1)
    with pytest.raises(ValueError):
        derive_seed(1, "x", -1, 1, 1)
    with pytest.raises(ValueError):
        derive_seed(1, "x", 1, 1, 1 << 64)

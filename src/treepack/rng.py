"""Deterministic random generator: splitmix64-ctr-v1.

A named, versioned, counter-based 64-bit generator so every sample is
reproducible from (seed, counter) alone, across runs, platforms, and
implementations. The algorithm is the SplitMix64 output function applied to
a counter:

    value(seed, i) = finalize((seed + (i + 1) * GAMMA) mod 2^64)
    GAMMA = 0x9E3779B97F4A7C15
    finalize(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9  (mod 2^64)
                 z ^= z >> 27; z *= 0x94D049BB133111EB  (mod 2^64)
                 z ^= z >> 31

Streams are just a seed plus a position, so a batch of values can be
produced vectorized (u64_array) bit-identically to the scalar path.
Integer draws below a bound use rejection sampling for exact uniformity:
below(b) takes the next word w, rejects it when w >= 2^64 - (2^64 mod b)
(never for a power-of-two b) and then takes the word after it, and returns
w mod b otherwise.

shuffle is Fisher-Yates over that rule: for i from N-1 down to 1 it swaps
item i with item j = below(i + 1), one word per i plus one per rejection.
It draws the words in one batch and falls back to the scalar loop at the
first rejected word, so the permutation and the final counter are those of
the scalar loop.
"""

from __future__ import annotations

import hashlib

import numpy as np

GENERATOR_ID = "splitmix64-ctr-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return seed


def u64_at(seed: int, index: int) -> int:
    """The index-th 64-bit output of stream ``seed`` (stateless)."""
    z = (seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def u64_array(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start .. start+count-1 of stream ``seed``, vectorized.

    Bit-identical to count calls of u64_at; uint64 arithmetic wraps mod 2^64.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    # In place, so a call allocates the result and one shift temporary.
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Sequential view over one splitmix64-ctr-v1 stream."""

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self.counter = 0

    def u64(self) -> int:
        value = u64_at(self.seed, self.counter)
        self.counter += 1
        return value

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        # Largest multiple of bound that fits in 64 bits; values above it
        # would bias the modulus and are redrawn.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.u64()
            if value < limit:
                return value % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: item i swaps with item below(i + 1), i = N-1..1.

        The N-1 words are drawn as one batch; up to the first word that
        below() would reject, word t gives j = word mod (N - t). From that
        word on the scalar below() loop takes over, so the swaps and the
        final counter match the scalar loop exactly.
        """
        size = len(items)
        if size < 2:
            return
        bounds = np.arange(size, 1, -1, dtype=np.uint64)
        words = u64_array(self.seed, self.counter, size - 1)
        # 2^64 mod b, in uint64; below() rejects w >= 2^64 - rem, which is
        # w > ~rem (never when rem = 0, a power-of-two b).
        rem = (np.uint64(_MASK64) % bounds + np.uint64(1)) % bounds
        rejected = np.flatnonzero(words > ~rem)
        stop = int(rejected[0]) if rejected.size else size - 1
        picks = (words[:stop] % bounds[:stop]).tolist()
        for i, j in zip(range(size - 1, size - 1 - stop, -1), picks):
            items[i], items[j] = items[j], items[i]
        self.counter += stop
        for i in range(size - 1 - stop, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_seed(master: int, experiment_id: str, n: int, p_index: int, trial: int) -> int:
    """Stable per-trial seed so parallel trials never share a stream.

    Layout hashed with SHA-256 (first 8 digest bytes, big-endian, become the
    seed): master seed as 8 bytes big-endian, length of the experiment id as
    2 bytes big-endian, the id in UTF-8, then n, p_index, and trial as 8
    bytes big-endian each.
    """
    check_seed(master)
    ident = experiment_id.encode("utf-8")
    if len(ident) > 0xFFFF:
        raise ValueError("experiment id too long")
    for name, value in (("n", n), ("p_index", p_index), ("trial", trial)):
        if not 0 <= value < (1 << 64):
            raise ValueError(f"{name} must fit in 64 bits, got {value}")
    blob = (
        master.to_bytes(8, "big")
        + len(ident).to_bytes(2, "big")
        + ident
        + n.to_bytes(8, "big")
        + p_index.to_bytes(8, "big")
        + trial.to_bytes(8, "big")
    )
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")

"""Seedable, portable pseudo-randomness for the experiment pipeline.

Everything random in this package draws from splitmix64, a tiny 64-bit
generator defined purely on integer arithmetic, so runs reproduce bit for
bit on any platform or implementation: state advances by the golden-ratio
increment 0x9E3779B97F4A7C15 and each output is the finalizer
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31``.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["SplitMix64", "derive_seed"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Deterministic sub-seed from a master seed and index parts."""
    state = _mix(master)
    for part in parts:
        state = _mix(state ^ _mix(part + _GOLDEN))
    return state


def _stream_seeds(master: int, count: int, *tags: int) -> Iterator[tuple[int, ...]]:
    """``tuple(derive_seed(master, i, tag) for tag in tags)`` for each i in range(count).

    The master seed and each tag are mixed once, and each index once, instead
    of once per sub-seed.
    """
    state = _mix(master)
    mixed = [_mix(tag + _GOLDEN) for tag in tags]
    for i in range(count):
        indexed = _mix(state ^ _mix(i + _GOLDEN))
        yield tuple(_mix(indexed ^ tag) for tag in mixed)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias."""
        # Past 2**64 the rejection limit is 0, and no word would be accepted.
        if not 0 < n <= 1 << 64:
            raise ValueError("randrange needs a bound in [1, 2**64]")
        limit = (1 << 64) - ((1 << 64) % n)
        # next_u64 and _mix inlined: this is the hot path of every draw.
        state = self._state
        while True:
            state = (state + _GOLDEN) & _MASK
            z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

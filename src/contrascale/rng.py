"""Seedable, portable pseudo-randomness for the experiment pipeline.

Everything random in this package draws from splitmix64, a tiny 64-bit
generator defined purely on integer arithmetic, so runs reproduce bit for
bit on any platform or implementation: state advances by the golden-ratio
increment 0x9E3779B97F4A7C15 and each output is the finalizer
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31``.

An output depends on its state alone, so many outputs can be computed at
once: ``_mix_lanes`` runs each finalizer step on many words held in 128-bit
lanes of one integer, and ``_stream_seeds`` and ``_randranges`` draw on those
lanes.  Their values equal the scalar generator's, bit for bit, on either
byte order; ``SplitMix64`` stays the definition.
"""

from __future__ import annotations

import functools
import sys
from array import array
from itertools import chain, islice
from operator import lt, mod
from typing import Sequence

__all__ = ["SplitMix64", "derive_seed"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


@functools.cache
def _lane_mask(bits: int) -> int:
    """Ones in the word slot of each of ``2**bits`` lanes, as ``_mix_lanes`` packs them."""
    slots = array("Q", bytes(16 << bits))
    slots[::2] = array("Q", [_MASK]) * (1 << bits)
    return int.from_bytes(slots, sys.byteorder)


def _mix_lanes(words: Sequence[int]) -> list[int]:
    """``[_mix(w) for w in words]``, each finalizer step done once for all words.

    Each word, masked to 64 bits, takes an even slot of a native-order
    ``array('Q')``, so that in the integer read from its bytes every word
    shares a 128-bit lane only with a zero slot.  A word times a 64-bit
    constant stays below 2**128, inside its lane, and a right shift moves
    bits only into zero slots; the AND after each step clears those slots
    again.  A mask with more lanes than words clears the same bits, so one
    mask serves every count up to a power of two.
    """
    count = len(words)
    lanes = _lane_mask(count.bit_length())
    slots = array("Q", bytes(16 * count))
    slots[::2] = array("Q", [w & _MASK for w in words])
    z = int.from_bytes(slots, sys.byteorder)
    z = (z ^ (z >> 30)) & lanes
    z = z * 0xBF58476D1CE4E5B9 & lanes
    z = (z ^ (z >> 27)) & lanes
    z = z * 0x94D049BB133111EB & lanes
    z = (z ^ (z >> 31)) & lanes
    return array("Q", z.to_bytes(16 * count, sys.byteorder))[::2].tolist()


def derive_seed(master: int, *parts: int) -> int:
    """Deterministic sub-seed from a master seed and index parts."""
    state = _mix(master)
    for part in parts:
        state = _mix(state ^ _mix(part + _GOLDEN))
    return state


def _stream_seeds(master: int, indices: range, *tags: int) -> list[list[int]]:
    """``[[derive_seed(master, i, tag) for i in indices] for tag in tags]``.

    One kernel pass mixes the master seed and the tags, one each index, one
    each index into the master, and one each indexed state into each tag.
    """
    state, *mixed = _mix_lanes([master, *(tag + _GOLDEN for tag in tags)])
    indexed = _mix_lanes([state ^ z for z in _mix_lanes([i + _GOLDEN for i in indices])])
    seeds = _mix_lanes([z ^ tag for tag in mixed for z in indexed])
    count = len(indexed)
    return [seeds[t * count:(t + 1) * count] for t in range(len(mixed))]


def _limit(n: int) -> int:
    """The rejection limit of bound ``n``: the largest multiple of ``n`` up to 2**64."""
    # Past 2**64 the limit would be 0, and no word would be accepted.
    if not 0 < n <= 1 << 64:
        raise ValueError("randrange needs a bound in [1, 2**64]")
    return (1 << 64) - ((1 << 64) % n)


def _randranges(seeds: Sequence[int], bounds: Sequence[Sequence[int]]) -> list[list[int]]:
    """``[SplitMix64(s).randrange(b) for b in bs]`` for each seed ``s`` and its bounds ``bs``.

    The words of every stream come from one kernel pass.  A word at or above
    its bound's rejection limit would make ``randrange`` draw again, so a
    stream with any rejected word is drawn once more by the scalar generator.
    """
    lengths = list(map(len, bounds))
    steps = [_GOLDEN * j for j in range(1, max(lengths, default=0) + 1)]
    words = _mix_lanes([seed + step for seed, n in zip(seeds, lengths) for step in steps[:n]])
    flat = list(chain.from_iterable(bounds))
    limits = {b: _limit(b) for b in set(flat)}
    draws = map(mod, words, flat)
    streams = [list(islice(draws, n)) for n in lengths]
    accepted = list(map(lt, words, map(limits.__getitem__, flat)))
    if not all(accepted):
        end = 0
        for i, (seed, n) in enumerate(zip(seeds, lengths)):
            end += n
            if not all(accepted[end - n:end]):
                rng = SplitMix64(seed)
                streams[i] = [rng.randrange(b) for b in bounds[i]]
    return streams


def _partial_sample(n: int, draws: Sequence[int]) -> list[int]:
    """The first ``len(draws)`` places of a Fisher-Yates pass over ``range(n)``
    from the front, in which place ``i`` takes the item at place ``i + draws[i]``."""
    pool = list(range(n))
    for i, j in enumerate(draws):
        j += i
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:len(draws)]


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias."""
        limit = _limit(n)
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
        return _partial_sample(n, [self.randrange(n - i) for i in range(k)])

import sys
from array import array
from types import SimpleNamespace

import pytest

from contrascale.rng import (
    _GOLDEN,
    _MASK,
    SplitMix64,
    _lane_mask,
    _mix,
    _mix_lanes,
    _randranges,
    _stream_seeds,
    derive_seed,
)


class ReferenceSplitMix64(SplitMix64):
    """``randrange`` by its definition: ``next_u64`` until below the largest multiple of n."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()

    def randrange(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n


_SEEDS = [0, 1, (1 << 64) - 1] + [derive_seed(0xC0FFEE, 41, i) for i in range(20)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 1000, 2**63 + 1, 2**64])
def test_randrange_draws_the_reference_stream(n):
    rejected = 0
    for seed in _SEEDS:
        mine, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
        draws = 50
        assert [mine.randrange(n) for _ in range(draws)] == [
            reference.randrange(n) for _ in range(draws)
        ]
        rejected += reference.words - draws
        # Both generators stand at the same state afterwards.
        assert mine.next_u64() == reference.next_u64()
    if n == 2**63 + 1:
        # Every word of 2**63 + 1 or more is rejected: about half of them.
        assert rejected > 200


def test_randrange_rejects_a_bound_below_one():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)


@pytest.mark.parametrize("n", [2**64 + 1, 2**65, 3 << 100])
def test_randrange_rejects_a_bound_above_two_to_the_64(n):
    # No word lies below the rejection limit there, so a draw would never end.
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match=r"^randrange needs a bound in \[1, 2\*\*64\]$"):
        rng.randrange(n)
    assert rng.next_u64() == SplitMix64(1).next_u64()


@pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
def test_sample_indices_rejects_k_outside_zero_to_n(n, k):
    with pytest.raises(ValueError, match=f"^cannot sample {k} from {n}$"):
        SplitMix64(1).sample_indices(n, k)


@pytest.mark.parametrize("size", [0, 1, 2, 5, 14, 64])
def test_shuffle_and_sample_indices_match_the_reference(size):
    for seed in _SEEDS:
        mine, reference = SplitMix64(seed), ReferenceSplitMix64(seed)
        a, b = list(range(size)), list(range(size))
        mine.shuffle(a)
        reference.shuffle(b)
        assert a == b
        for k in range(size + 1):
            assert mine.sample_indices(size, k) == reference.sample_indices(size, k)
        assert mine.next_u64() == reference.next_u64()


@pytest.mark.parametrize("tags", [(), (0,), (0, 1, 2), (3, 0, 7), (2**64 - 1, 5)])
def test_stream_seeds_equal_derive_seed(tags):
    for master in _SEEDS[:6] + [-1, 2**70 + 3]:
        for indices in (range(0), range(1), range(9), range(255, 258)):
            assert _stream_seeds(master, indices, *tags) == [
                [derive_seed(master, i, tag) for i in indices] for tag in tags
            ]


# Words the kernel masks to 64 bits first, as _mix does: the extremes of the
# range, words at or above 2**64, and negative words.
_WORDS = [
    0, 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, 2**70 + 3, 3 << 100,
    -1, -(2**63), -(2**64), -(2**80) - 7,
]


@pytest.mark.parametrize("length", [0, 1, 257])
def test_mix_lanes_equals_mix(length):
    words = [derive_seed(0x1A9E5, length, i) for i in range(length)]
    assert _mix_lanes(words) == [_mix(w) for w in words]
    # Every lane at its largest word: no carry may cross into a neighbour.
    assert _mix_lanes([_MASK] * length) == [_mix(_MASK)] * length


def test_mix_lanes_masks_each_word_to_64_bits():
    for word in _WORDS:
        assert _mix_lanes([word]) == [_mix(word)]
    words = [w for word in _WORDS for w in (word, derive_seed(5, word & _MASK))]
    assert _mix_lanes(words) == [_mix(w) for w in words]


def test_mix_lanes_hold_on_the_other_byte_order(monkeypatch):
    # Arrays whose memory holds each item in the other byte order, read and
    # written in that order, are what the kernel meets on such a host.
    def swapped(typecode, initial):
        items = array(typecode, initial)
        items.byteswap()
        return items

    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr("contrascale.rng.sys", SimpleNamespace(byteorder=other))
    monkeypatch.setattr("contrascale.rng.array", swapped)
    _lane_mask.cache_clear()
    try:
        # The words now take the other half of each 128-bit lane.
        assert _lane_mask(0) == _MASK << 64 * (other == "big")
        words = _WORDS + [derive_seed(0xB16, i) for i in range(257)] + [_MASK] * 3
        assert _mix_lanes(words) == [_mix(w) for w in words]
    finally:
        _lane_mask.cache_clear()


def _unmix(z: int) -> int:
    """The state whose finalized output is ``z``: the five steps inverted."""

    def unshift(y, shift):
        x = y
        for _ in range(64 // shift):
            x = y ^ (x >> shift)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return unshift(z, 30)


# Its first word is 2**64 - 1, which bound 15 rejects: 2**64 = 1 (mod 15).
_REJECTING_SEED = (_unmix(_MASK) - _GOLDEN) & _MASK


def _reference_draws(seeds, bounds):
    draws = []
    for seed, bs in zip(seeds, bounds):
        reference = ReferenceSplitMix64(seed)
        draws.append([reference.randrange(b) for b in bs])
    return draws


def test_rejecting_seed_starts_with_the_largest_word():
    assert SplitMix64(_REJECTING_SEED).next_u64() == _MASK
    reference = ReferenceSplitMix64(_REJECTING_SEED)
    reference.randrange(15)
    assert reference.words == 2


@pytest.mark.parametrize(
    "bounds",
    [
        (), (1,), (15,), (15, 15, 7), (2, 3, 1000),
        (2**63 + 1,) * 5, (2**64,) * 5, (14, 13, 2**63 + 1, 9),
    ],
)
def test_randranges_draw_the_reference_streams(bounds):
    seeds = _SEEDS + [_REJECTING_SEED, -1, 2**70 + 3]
    # Every stream alike, and each stream with its own bounds, some shorter.
    shorter = [bounds[i % (len(bounds) + 1):] for i in range(len(seeds))]
    for per_seed in ([bounds] * len(seeds), shorter):
        assert _randranges(seeds, per_seed) == _reference_draws(seeds, per_seed)


def test_randranges_redraw_a_stream_with_a_rejected_word():
    bounds = [(15, 6, 15, 15)] * 3
    seeds = [1, _REJECTING_SEED, 2]
    draws = _randranges(seeds, bounds)
    assert draws == _reference_draws(seeds, bounds)
    # A draw that kept the rejected word would give 0 and shift every draw after it.
    rng = SplitMix64(_REJECTING_SEED)
    kept = [rng.next_u64() % b for b in bounds[1]]
    assert kept[0] == 0
    assert draws[1] != kept


@pytest.mark.parametrize("n", [0, -3, 2**64 + 1])
def test_randranges_refuse_a_bound_as_randrange_does(n):
    with pytest.raises(ValueError, match=r"^randrange needs a bound in \[1, 2\*\*64\]$"):
        _randranges([1, 2], [(5,), (3, n)])

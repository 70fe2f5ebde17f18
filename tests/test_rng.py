import pytest

from contrascale.rng import SplitMix64, _stream_seeds, derive_seed


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
        for count in (0, 1, 9):
            assert list(_stream_seeds(master, count, *tags)) == [
                tuple(derive_seed(master, i, tag) for tag in tags) for i in range(count)
            ]

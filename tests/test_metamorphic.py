"""Relations the lattice walk must keep, checked at sizes no brute-force oracle reaches.

Renaming objects or attributes must not change the concepts or the
canonical base beyond the renaming, and a context and its transpose have
the same number of concepts.  A new attribute order changes the whole
lectic walk, its canonicity tests and its witnesses, so these relations
check the walk's pruning itself.
"""

from contrascale.context import (
    FormalContext,
    clarify,
    indices_to_mask,
    mask_to_indices,
    reduce_context,
)
from contrascale.lattice import _lectic_walk, canonical_base, enumerate_concepts
from conftest import random_context, reduced_42x15


def transpose(ctx: FormalContext) -> FormalContext:
    """The context with objects and attributes swapped."""
    return FormalContext.from_masks(ctx.attributes, ctx.objects, ctx.cols())


def permute(ctx: FormalContext, objects: list[int], attributes: list[int]) -> FormalContext:
    """Object g of the result is ``objects[g]`` of ``ctx``, attribute m is ``attributes[m]``."""
    rows = ctx.rows()
    return FormalContext.from_masks(
        [ctx.objects[g] for g in objects],
        [ctx.attributes[m] for m in attributes],
        [remap(rows[g], attributes) for g in objects],
    )


def remap(mask: int, order: list[int]) -> int:
    """``mask`` over the original indices, as a mask over the positions in ``order``."""
    return indices_to_mask(i for i, old in enumerate(order) if mask >> old & 1)


def shuffled(rng, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def mapped_walk(ctx: FormalContext, objects, attributes, within=None):
    """``_lectic_walk(ctx, within)`` as sets, each mask carried to the permuted indices."""
    intents, extents, pseudo = _lectic_walk(ctx, within)
    return (
        {(remap(i, attributes), remap(e, objects)) for i, e in zip(intents, extents)},
        {(remap(p, attributes), remap(c, attributes)) for p, c in pseudo},
    )


def as_sets(walk):
    intents, extents, pseudo = walk
    return set(zip(intents, extents)), set(pseudo)


class TestPermutation:
    def test_concepts_and_base_follow_a_permutation(self, seeded):
        rng = seeded(430)
        for source in range(10):
            ctx = reduced_42x15(seeded(431, source))
            objects = shuffled(rng, ctx.n_objects)
            attributes = shuffled(rng, ctx.n_attributes)
            moved = permute(ctx, objects, attributes)
            base, moved_base = canonical_base(ctx), canonical_base(moved)
            assert (moved_base.concepts, len(moved_base)) == (base.concepts, len(base))
            assert as_sets(_lectic_walk(moved)) == mapped_walk(ctx, objects, attributes)

    def test_masked_walks_follow_a_permutation(self, seeded):
        rng = seeded(432)
        for source in range(8):
            ctx = reduced_42x15(seeded(433, source))
            objects = shuffled(rng, ctx.n_objects)
            attributes = shuffled(rng, ctx.n_attributes)
            moved = permute(ctx, objects, attributes)
            for _ in range(3):
                kept = rng.sample_indices(ctx.n_attributes, 1 + rng.randrange(ctx.n_attributes))
                within = indices_to_mask(kept)
                want = mapped_walk(ctx, objects, attributes, within)
                assert as_sets(_lectic_walk(moved, remap(within, attributes))) == want

    def test_helpers_permute_and_transpose(self, seeded):
        ctx = reduced_42x15(seeded(434))
        rng = seeded(435)
        objects = shuffled(rng, ctx.n_objects)
        attributes = shuffled(rng, ctx.n_attributes)
        moved = permute(ctx, objects, attributes)
        for g, old_g in enumerate(objects):
            for m, old_m in enumerate(attributes):
                assert moved.rows()[g] >> m & 1 == ctx.rows()[old_g] >> old_m & 1
        assert mask_to_indices(remap(0b011, [2, 1, 0])) == (1, 2)
        flipped = transpose(ctx)
        assert transpose(flipped) == ctx
        assert flipped.rows() == ctx.cols()


class TestTransposition:
    def test_a_context_and_its_transpose_have_as_many_concepts(self, seeded):
        # 20x12 draws keep the transposed walk at 20 attributes or fewer, so
        # a walk that stops pruning fails here in seconds instead of hanging.
        for source in range(24):
            raw = random_context(seeded(436, source), 20, 12, (0.7,), 20, 12)
            ctx = reduce_context(clarify(raw)[0])[0]
            assert len(enumerate_concepts(transpose(ctx))) == len(enumerate_concepts(ctx))

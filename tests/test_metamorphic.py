"""Relations the lattice and scale walks must keep, checked at sizes no brute-force oracle reaches.

Renaming objects or attributes must not change the concepts or the
canonical base beyond the renaming, and a context and its transpose have
the same number of concepts.  A new attribute order changes the whole
lectic walk, its canonicity tests and its witnesses, so these relations
check the walk's pruning itself.  Likewise a renaming must not change the
scale counts, the influence scores or the delta-adjusted selection beyond
the renaming, a context and its transpose have the same scales, and the
scales of a clarified context expand to exactly those of the raw one.

The walk masked to an attribute set N is the walk of the subcontext on N,
so its intents must be the traces on N of the full walk's intents, and each
of its pseudo-intents a subset of N whose conclusion is its closure traced
on N: the sub-semilattice claim behind delta-adjusting.

The two walks bound each other: the intents shatter exactly the attribute
sets that carry a contranominal scale, so by Pajor's lemma the concepts
number at most 1 plus the sets the scale walk yields, and, dually, at most 1
plus the distinct object sets of the scales.  A walk masked to N counts the
concepts of the subcontext on N, so the sets inside N bound it.
"""

from collections import Counter

from contrascale.adjust import delta_adjust, influence
from contrascale.context import (
    FormalContext,
    clarify,
    indices_to_mask,
    mask_to_indices,
    reduce_context,
)
from contrascale.datasets import medical_diagnosis
from contrascale.lattice import _lectic_walk, canonical_base, enumerate_concepts
from contrascale.scales import _walk, count_scales, enumerate_scales, scales_from_clarified
from conftest import inject_duplicates, random_context, reduced_42x15


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


class TestRestriction:
    @staticmethod
    def masks(ctx, rng):
        """The delta = 1/2 selection, and three samples of 8 attributes."""
        masks = [indices_to_mask(delta_adjust(ctx, "1/2").attributes)]
        size = min(8, ctx.n_attributes)
        masks += [indices_to_mask(rng.sample_indices(ctx.n_attributes, size)) for _ in range(3)]
        return masks

    def test_masked_intents_are_the_traces_of_the_full_intents(self, seeded):
        rng = seeded(450)
        for source in range(12):
            ctx = reduced_42x15(seeded(451, source))
            full = _lectic_walk(ctx)[0]
            for within in self.masks(ctx, rng):
                intents = _lectic_walk(ctx, within)[0]
                assert len(set(intents)) == len(intents)
                assert set(intents) == {i & within for i in full}

    def test_masked_pseudo_intents_conclude_their_traced_closure(self, seeded):
        rng = seeded(452)
        for source in range(12):
            ctx = reduced_42x15(seeded(453, source))
            for within in self.masks(ctx, rng):
                for premise, conclusion in _lectic_walk(ctx, within)[2]:
                    assert premise & ~within == 0
                    assert conclusion == ctx.closure_mask(premise) & within
                    assert premise & ~conclusion == 0 and premise != conclusion


class TestTransposition:
    def test_a_context_and_its_transpose_have_as_many_concepts(self, seeded):
        # 20x12 draws keep the transposed walk at 20 attributes or fewer, so
        # a walk that stops pruning fails here in seconds instead of hanging.
        for source in range(24):
            raw = random_context(seeded(436, source), 20, 12, (0.7,), 20, 12)
            ctx = reduce_context(clarify(raw)[0])[0]
            assert len(enumerate_concepts(transpose(ctx))) == len(enumerate_concepts(ctx))


class TestScaleRelations:
    def test_a_context_and_its_transpose_have_the_same_scales(self, seeded):
        # At most 30x14, so that the transposed walk has 30 attributes or
        # fewer and takes tens of milliseconds.
        for source in range(24):
            ctx = random_context(seeded(440, source), 30, 14, (0.5, 0.7, 0.9), 12, 6)
            assert count_scales(transpose(ctx)) == count_scales(ctx)

    def test_scale_counts_and_influence_follow_a_permutation(self, seeded):
        rng = seeded(441)
        for source in range(12):
            ctx = reduced_42x15(seeded(442, source))
            objects = shuffled(rng, ctx.n_objects)
            attributes = shuffled(rng, ctx.n_attributes)
            moved = permute(ctx, objects, attributes)
            assert count_scales(moved) == count_scales(ctx)
            report = influence(ctx).per_attribute
            for m, scored in enumerate(influence(moved).per_attribute):
                original = report[attributes[m]]
                assert scored.zeta_exact == original.zeta_exact
                assert scored.cubic_counts == original.cubic_counts

    def test_delta_adjust_ignores_the_object_order(self, seeded):
        rng = seeded(443)
        for source in range(12):
            ctx = reduced_42x15(seeded(444, source))
            moved = permute(ctx, shuffled(rng, ctx.n_objects), list(range(ctx.n_attributes)))
            for delta in ("1/4", "1/2"):
                assert delta_adjust(moved, delta) == delta_adjust(ctx, delta)

    def test_clarified_scales_expand_to_the_raw_count(self, seeded):
        for source in range(12):
            drawn = random_context(seeded(445, source), 18, 10, (0.5, 0.7), 18, 10)
            raw = inject_duplicates(drawn, seeded(446, source))
            clarified, cmap = clarify(raw)
            expanded = Counter(
                s.dimension for s in scales_from_clarified(enumerate_scales(clarified), cmap)
            )
            count = count_scales(raw)
            assert sum(expanded.values()) == count.total
            assert dict(sorted(expanded.items())) == count.histogram


def scale_carrying_sets(ctx: FormalContext) -> set[int]:
    """The attribute masks of the sets ``scales._walk`` yields, each of them once."""
    walked = [indices_to_mask(attrs) for attrs, *_ in _walk(ctx)]
    assert len(set(walked)) == len(walked)
    return set(walked)


def scale_object_sets(ctx: FormalContext) -> set[frozenset[int]]:
    """The distinct object sets of the scales of ``ctx``."""
    return {frozenset(s.object_indices) for s in enumerate_scales(ctx)}


class TestShatteringBound:
    """Pajor's lemma: a set family has at most as many members as the sets it shatters.

    The intents restricted to A are every subset of A exactly when A carries
    a scale, and the empty set is shattered too, hence the 1.  The bound is
    an equality often enough that a walk losing a set, or a lectic walk
    reporting one intent too many, breaks it.
    """

    def test_random_contexts(self, seeded):
        tight = 0
        for source in range(500):
            ctx = random_context(seeded(470, source), 9, 9)
            concepts = len(_lectic_walk(ctx)[0])
            carrying = scale_carrying_sets(ctx)
            assert concepts <= 1 + len(carrying)
            assert concepts <= 1 + len(scale_object_sets(ctx))
            tight += concepts == 1 + len(carrying)
        # 210 of the 500 draws meet the bound with equality.
        assert tight >= 150

    def test_diagnosis_context(self):
        ctx = medical_diagnosis()
        concepts = len(_lectic_walk(ctx)[0])
        assert concepts == 88
        assert (len(scale_carrying_sets(ctx)), len(scale_object_sets(ctx))) == (261, 312)

    def test_restricted_walks(self, seeded):
        rng = seeded(471)
        tight = 0
        for source in range(12):
            ctx = reduced_42x15(seeded(472, source))
            carrying = scale_carrying_sets(ctx)
            masks = [indices_to_mask(delta_adjust(ctx, "1/2").attributes)]
            masks += [indices_to_mask(rng.sample_indices(ctx.n_attributes, 8)) for _ in range(4)]
            for within in masks:
                concepts = len(_lectic_walk(ctx, within)[0])
                inside = sum(1 for walked in carrying if walked & ~within == 0)
                assert concepts <= 1 + inside
                tight += concepts == 1 + inside
        # 18 of the 60 walks meet the bound with equality.
        assert tight >= 12

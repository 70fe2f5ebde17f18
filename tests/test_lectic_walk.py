"""The canonical-base walk against NextClosure, the order it replaced."""

import sys

import pytest

from contrascale.context import (
    FormalContext,
    SubcontextSelection,
    apply_selection,
    indices_to_mask,
    mask_to_indices,
)
from contrascale.datasets import medical_diagnosis
from contrascale.lattice import _lectic_walk, _RuleIndex, canonical_base
from conftest import (
    context_from_rows,
    count_walk_reads,
    random_context,
    reduced_42x15,
)


def _next_closure_walk(ctx):
    """Reference: NextClosure over the sets closed under the implications found so far.

    Returns the intent masks and the ``(pseudo-intent, closure)`` mask pairs
    in lectic order, recomputing each visited set's closure in the context.
    """
    n = ctx.n_attributes
    rules = _RuleIndex()
    intents = []
    pseudo = []
    current = 0
    while True:
        closed = ctx.closure_mask(current)
        if closed == current:
            intents.append(current)
        else:
            rules.add(current, closed)
            pseudo.append((current, closed))
        for i in reversed(range(n)):
            bit = 1 << i
            if current & bit:
                continue
            below = bit - 1
            candidate = rules.close((current & below) | bit, below & ~current)
            if not candidate & below & ~current:
                current = candidate
                break
        else:
            return intents, pseudo


def _unpruned_candidates(ctx):
    """L-closures of the same depth-first Close-by-One walk with no witnesses kept."""
    n = ctx.n_attributes
    rules = _RuleIndex()
    count = 0

    def walk(current, extent, low):
        nonlocal count
        closed = ctx.intent_mask(extent)
        if closed != current:
            rules.add(current, closed)
        for i in reversed(range(low, n)):
            bit = 1 << i
            if current & bit:
                continue
            forbidden = (bit - 1) & ~current
            count += 1
            candidate = rules.close(current | bit, forbidden)
            if not candidate & forbidden:
                walk(candidate, extent & ctx.col(i), i + 1)

    walk(0, ctx.all_objects_mask, 0)
    return count


def _assert_walks_agree(ctx):
    intents, extents, pseudo = _lectic_walk(ctx)
    assert (intents, pseudo) == _next_closure_walk(ctx)
    assert extents == [ctx.extent_mask(intent) for intent in intents]


def _assert_restricted_walk_agrees(ctx, attributes):
    """The walk masked to ``attributes`` is NextClosure's on that subcontext, spread back."""
    sub = apply_selection(SubcontextSelection(ctx, tuple(range(ctx.n_objects)), attributes))

    def spread(mask):
        return indices_to_mask(attributes[j] for j in mask_to_indices(mask))

    intents, extents, pseudo = _lectic_walk(ctx, indices_to_mask(attributes))
    sub_intents, sub_pseudo = _next_closure_walk(sub)
    assert intents == [spread(intent) for intent in sub_intents]
    assert pseudo == [(spread(p), spread(closed)) for p, closed in sub_pseudo]
    assert extents == [ctx.extent_mask(intent) for intent in intents]


def _staircase(n):
    """Object g has attributes 0..g."""
    labels = [f"m{m}" for m in range(n)]
    return FormalContext.from_masks(labels, labels, [(1 << (g + 1)) - 1 for g in range(n)])


class TestLecticWalk:
    def test_matches_next_closure_on_random_contexts(self, seeded):
        rng = seeded(420)
        for _ in range(320):
            _assert_walks_agree(random_context(rng, 12, 12))
        _assert_walks_agree(medical_diagnosis())

    def test_matches_next_closure_on_degenerate_contexts(self):
        for ctx in [
            context_from_rows(["000", "000"]),
            context_from_rows(["111", "111"]),
            context_from_rows(["1011"]),
            context_from_rows(["1", "0", "1"]),
            FormalContext.from_masks([], ["a", "b", "c"], []),
            FormalContext.from_masks(["g", "h", "i"], [], [0, 0, 0]),
            FormalContext.from_masks([], [], []),
        ]:
            _assert_walks_agree(ctx)

    def test_pruning_skips_candidates_on_42x15_inputs(self, seeded, monkeypatch):
        contexts = [reduced_42x15(seeded(421, source)) for source in range(3)]
        unpruned = [_unpruned_candidates(ctx) for ctx in contexts]
        reads = count_walk_reads(monkeypatch)
        for ctx, most in zip(contexts, unpruned):
            reads.clear()
            _lectic_walk(ctx)
            assert 0 < reads["candidates"] < most
        monkeypatch.undo()
        for ctx in contexts:
            _assert_walks_agree(ctx)

    def test_walks_a_deep_staircase_without_recursion(self):
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        ctx = _staircase(200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            intents, extents, pseudo = _lectic_walk(ctx)
        finally:
            sys.setrecursionlimit(limit)
        # The intents are the 200 prefixes; the pseudo-intents are the empty
        # set (closed to {0}) and {0, m} for m >= 2 (closed to 0..m).
        assert intents == [(1 << (g + 1)) - 1 for g in range(200)]
        assert extents == [ctx.col(g) for g in range(200)]
        assert sorted(pseudo) == [(0, 1)] + [(1 | 1 << m, (1 << (m + 1)) - 1) for m in range(2, 200)]
        base = canonical_base(ctx)
        assert (base.concepts, len(base)) == (200, 199)


class TestIntentDerivation:
    """The walk reads each candidate's intent from the byte tables in its own
    loop, one lookup per byte of the extent that holds an object."""

    @pytest.mark.parametrize("n_objects", [7, 8, 9, 63, 64, 65, 130])
    def test_matches_next_closure_around_the_byte_boundaries(self, seeded, n_objects):
        rng = seeded(422, n_objects)
        for _ in range(4):
            ctx = random_context(rng, n_objects, 10, min_objects=n_objects, min_attributes=6)
            _assert_walks_agree(ctx)
            attributes = tuple(m for m in range(ctx.n_attributes) if rng.randrange(2))
            _assert_restricted_walk_agrees(ctx, attributes)

    def test_matches_next_closure_on_a_sparse_context_past_64_objects(self, seeded, monkeypatch):
        rng = seeded(423)
        ctx = random_context(rng, 300, 12, densities=(0.1,), min_objects=300, min_attributes=12)
        reads = count_walk_reads(monkeypatch)
        _lectic_walk(ctx)
        # Most extents hold a few objects spread over 300, or none, so the
        # walk jumps over most of the 38 tables a candidate could read.
        assert len(ctx._intent_tables()) == 38
        assert reads["lookups"] < 2 * reads["candidates"]
        monkeypatch.undo()
        _assert_walks_agree(ctx)
        _assert_restricted_walk_agrees(ctx, (0, 2, 3, 5, 7, 8, 11))

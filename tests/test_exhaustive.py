"""Bounded-exhaustive checks of the scale stream, its writers, the cubic sets,
the lectic walk and preprocessing.

Every context up to 4x4, and every 3x5 and 5x3 one, is checked against the
oracles.  Rows are drawn as sorted multisets, because the order of the rows
changes no answer, only the object numbering.
"""

from collections import Counter
from itertools import combinations_with_replacement

import pytest

from contrascale import cli
from contrascale.adjust import cubic_sets, influence
from contrascale.context import (
    FormalContext,
    SubcontextSelection,
    apply_selection,
    clarify,
    indices_to_mask,
    mask_to_indices,
    reduce_context,
)
from contrascale.lattice import (
    _lectic_walk,
    canonical_base,
    enumerate_concepts,
    generated_sub_meet_semilattice,
)
from contrascale.scales import (
    _walk,
    count_scales,
    enumerate_bronkerbosch,
    enumerate_scales,
    max_dimension,
)
from oracles import enumerate_bruteforce
from test_adjust import bruteforce_cubic_oracle
from test_cli import _reference_json, _reference_lines
from test_lattice import brute_pseudo_intent_masks

SHAPES = [(n, m) for n in range(5) for m in range(5)] + [(3, 5), (5, 3)]
UP_TO_4X4 = [(n, m) for n, m in SHAPES if n <= 4 and m <= 4]


def _row_sorted_contexts(n_objects, n_attributes):
    objects = [f"g{i}" for i in range(n_objects)]
    attributes = [f"m{j}" for j in range(n_attributes)]
    for rows in combinations_with_replacement(range(1 << n_attributes), n_objects):
        yield FormalContext.from_masks(objects, attributes, rows)


@pytest.mark.parametrize("n_objects, n_attributes", SHAPES, ids=[f"{n}x{m}" for n, m in SHAPES])
def test_scale_stream_on_every_context(n_objects, n_attributes):
    for ctx in _row_sorted_contexts(n_objects, n_attributes):
        stream = list(enumerate_scales(ctx))
        pairs = sorted(s.pairs for s in stream)
        assert pairs == sorted(s.pairs for s in enumerate_bruteforce(ctx))
        assert pairs == sorted(s.pairs for s in enumerate_bronkerbosch(ctx))
        count = count_scales(ctx)
        assert count.total == len(stream)
        assert count.histogram == Counter(s.dimension for s in stream)
        assert max_dimension(ctx) == max((s.dimension for s in stream), default=0)
        for k in (2, 3, 4):
            kept = [s for s in stream if s.dimension >= k]
            assert list(enumerate_scales(ctx, min_dimension=k)) == kept
            assert count_scales(ctx, min_dimension=k).histogram == {
                d: c for d, c in count.histogram.items() if d >= k
            }
        for attrs, _, extent, _ in _walk(ctx):
            assert extent == ctx.extent_mask(indices_to_mask(attrs))
        references = {False: _reference_json(ctx), True: _reference_lines(ctx, stream)}
        for pretty, reference in references.items():
            chunks = []
            cli._write_scales(stream, ctx, chunks.append, pretty)
            assert "".join(chunks) == reference


@pytest.mark.parametrize("n_objects, n_attributes", SHAPES, ids=[f"{n}x{m}" for n, m in SHAPES])
def test_cubic_sets_on_every_context(n_objects, n_attributes):
    for ctx in _row_sorted_contexts(n_objects, n_attributes):
        expected = bruteforce_cubic_oracle(ctx)
        assert cubic_sets(ctx, require_preprocessed=False) == expected
        counts = [Counter() for _ in range(n_attributes)]
        for cube in expected:
            for m in cube.attributes:
                counts[m][cube.dimension] += 1
        report = influence(ctx, require_preprocessed=False)
        assert [a.cubic_counts for a in report.per_attribute] == counts


def _brute_closure(ctx, attributes):
    """B'' straight from the rows: the attributes every object carrying B shares."""
    closed = ctx.all_attributes_mask
    for row in ctx.rows():
        if row & attributes == attributes:
            closed &= row
    return closed


@pytest.mark.parametrize("n_objects, n_attributes", SHAPES, ids=[f"{n}x{m}" for n, m in SHAPES])
def test_concepts_and_base_on_every_context(n_objects, n_attributes):
    for ctx in _row_sorted_contexts(n_objects, n_attributes):
        closures = [_brute_closure(ctx, b) for b in range(1 << n_attributes)]
        assert [ctx.closure_mask(b) for b in range(1 << n_attributes)] == closures
        concepts = enumerate_concepts(ctx)
        assert [c.intent_mask for c in concepts] == sorted(
            set(closures), key=lambda b: [m for m in range(n_attributes) if b >> m & 1]
        )
        for c in concepts:
            assert c.extent_mask == ctx.extent_mask(c.intent_mask)
        base = canonical_base(ctx)
        assert base.concepts == len(concepts)
        pseudo = brute_pseudo_intent_masks(ctx)
        assert sorted(i.premise_mask for i in base) == pseudo
        assert sorted(i.conclusion_mask for i in base) == sorted(
            closures[p] & ~p for p in pseudo
        )


def _rebuild_clarified(reduced, trace, n_objects, n_attributes):
    """The clarified context's rows, from the reduced one and the reduction's witnesses."""
    kept_objects = trace.kept_objects(n_objects)
    kept_attributes = trace.kept_attributes(n_attributes)
    rows = [0] * n_objects
    for g, reduced_row in zip(kept_objects, reduced.rows()):
        for j, m in enumerate(kept_attributes):
            if reduced_row >> j & 1:
                rows[g] |= 1 << m
    for m, witnesses in trace.removed_attributes:
        for g in kept_objects:
            if all(rows[g] >> w & 1 for w in witnesses):
                rows[g] |= 1 << m
    for g, witnesses in trace.removed_objects:
        rows[g] = (1 << n_attributes) - 1
        for w in witnesses:
            rows[g] &= rows[w]
    return rows


@pytest.mark.parametrize("n_objects, n_attributes", SHAPES, ids=[f"{n}x{m}" for n, m in SHAPES])
def test_preprocessing_reconstructs_every_context(n_objects, n_attributes):
    for ctx in _row_sorted_contexts(n_objects, n_attributes):
        clarified, cmap = clarify(ctx)
        reduced, trace = reduce_context(clarified)
        rows = _rebuild_clarified(reduced, trace, clarified.n_objects, clarified.n_attributes)
        assert tuple(rows) == clarified.rows()
        for g, objects in enumerate(cmap.object_classes):
            for m, attributes in enumerate(cmap.attribute_classes):
                cell = rows[g] >> m & 1
                assert all(ctx.row(h) >> a & 1 == cell for h in objects for a in attributes)
        assert canonical_base(reduced).concepts == canonical_base(ctx).concepts


def _spread(mask, indices):
    """A subcontext's attribute mask, as a mask of the parent's attributes."""
    out = 0
    for j, m in enumerate(indices):
        if mask >> j & 1:
            out |= 1 << m
    return out


@pytest.mark.parametrize(
    "n_objects, n_attributes", UP_TO_4X4, ids=[f"{n}x{m}" for n, m in UP_TO_4X4]
)
def test_masked_walk_is_the_subcontext_walk_on_every_attribute_set(n_objects, n_attributes):
    for ctx in _row_sorted_contexts(n_objects, n_attributes):
        for within in range(1 << n_attributes):
            indices = mask_to_indices(within)
            intents, extents, pseudo = _lectic_walk(ctx, within)
            sub = apply_selection(SubcontextSelection(ctx, tuple(range(n_objects)), indices))
            sub_intents, sub_extents, sub_pseudo = _lectic_walk(sub)
            assert intents == [_spread(b, indices) for b in sub_intents]
            assert extents == sub_extents
            assert pseudo == [(_spread(p, indices), _spread(c, indices)) for p, c in sub_pseudo]
            base = canonical_base(sub)
            assert (len(intents), len(pseudo)) == (base.concepts, len(base))
            # The paper's claim: restricting to N keeps the meet-semilattice N generates.
            semilattice = generated_sub_meet_semilattice(ctx, indices)
            assert sorted(extents) == sorted(c.extent_mask for c in semilattice)

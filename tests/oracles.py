"""Definition-level oracles that the tests compare the package against.

None is used by the package itself: ``enumerate_bruteforce`` is the third
scale oracle beside the backtracking stream and Bron-Kerbosch,
``family_is_valid_rowwise`` checks a ``ScaleFamily`` one object row at a time,
and ``close_under`` closes an attribute set under a list of implications.
"""

from itertools import combinations
from typing import Iterable, Iterator

from contrascale.context import FormalContext, indices_to_mask, mask_to_indices
from contrascale.lattice import Implication, _RuleIndex
from contrascale.scales import ContranominalScale, ScaleFamily


def enumerate_bruteforce(ctx: FormalContext) -> Iterator[ContranominalScale]:
    """Third, definition-level oracle: test every (H, N) pair directly."""
    n_obj, n_att = ctx.n_objects, ctx.n_attributes
    limit = min(n_obj, n_att)
    scales = []
    for k in range(1, limit + 1):
        for atts in combinations(range(n_att), k):
            att_mask = 0
            for m in atts:
                att_mask |= 1 << m
            for objs in combinations(range(n_obj), k):
                # Within (H, N) each row must miss exactly one attribute and
                # the misses must cover all k columns.
                misses = []
                ok = True
                for g in objs:
                    gap = att_mask & ~ctx.row(g)
                    if gap.bit_count() != 1:
                        ok = False
                        break
                    misses.append(gap)
                if not ok:
                    continue
                union = 0
                for gap in misses:
                    union |= gap
                if union != att_mask:
                    continue
                pairs = sorted(
                    ((g, gap.bit_length() - 1) for g, gap in zip(objs, misses)),
                    key=lambda p: p[1],
                )
                scales.append(ContranominalScale(tuple(pairs)))
    scales.sort(key=ContranominalScale.sort_key)
    yield from scales


def family_is_valid_rowwise(family: ScaleFamily, ctx: FormalContext) -> bool:
    """``ScaleFamily.is_valid_in`` as a row lookup per object of every class.

    Each object of class i must have, within the family's attributes,
    exactly every attribute but ``attributes[i]``; the attributes must lie
    in range and ascend strictly, and the classes must be nonempty, pairwise
    disjoint and within the objects.
    """
    attrs, wits = family.attributes, family.witness_masks
    if not attrs or len(wits) != len(attrs):
        return False
    if attrs[0] < 0 or attrs[-1] >= ctx.n_attributes:
        return False
    if any(a >= b for a, b in zip(attrs, attrs[1:])):
        return False
    rows = ctx.rows()
    all_objects = ctx.all_objects_mask
    attribute_mask = indices_to_mask(attrs)
    seen = 0
    for m, w in zip(attrs, wits):
        if w <= 0 or w & ~all_objects or w & seen:
            return False
        seen |= w
        own = attribute_mask & ~(1 << m)
        while w:
            low = w & -w
            if rows[low.bit_length() - 1] & attribute_mask != own:
                return False
            w ^= low
    return True


def close_under(implications: Iterable[Implication], attributes: Iterable[int]) -> tuple[int, ...]:
    rules = _RuleIndex((i.premise_mask, i.conclusion_mask) for i in implications)
    return mask_to_indices(rules.close(indices_to_mask(attributes)))

"""Concept enumeration, sub-meet-semilattices, and implication bases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .context import FormalContext, indices_to_mask, mask_to_indices

__all__ = [
    "FormalConcept",
    "ConceptSet",
    "Implication",
    "ImplicationBase",
    "enumerate_concepts",
    "meet",
    "attribute_concept",
    "generated_sub_meet_semilattice",
    "is_boolean_suborder",
    "is_valid_implication",
    "canonical_base",
    "restrict_base_on_removal",
    "close_under",
]


@dataclass(frozen=True)
class FormalConcept:
    """Extent/intent pair with extent' = intent and intent' = extent."""

    extent: tuple[int, ...]
    intent: tuple[int, ...]

    @property
    def extent_mask(self) -> int:
        return indices_to_mask(self.extent)

    @property
    def intent_mask(self) -> int:
        return indices_to_mask(self.intent)


class ConceptSet:
    """Deduplicated concepts, sorted by intent in lexicographic order."""

    def __init__(self, concepts: Iterable[FormalConcept]):
        items = sorted(set(concepts), key=lambda c: c.intent)
        extents = [c.extent for c in items]
        if len(set(extents)) != len(extents):
            raise ValueError("concepts must have pairwise distinct extents")
        self.concepts: tuple[FormalConcept, ...] = tuple(items)

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[FormalConcept]:
        return iter(self.concepts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptSet):
            return NotImplemented
        return self.concepts == other.concepts

    def __repr__(self) -> str:
        return f"ConceptSet({len(self.concepts)} concepts)"

    def top(self) -> FormalConcept:
        """The concept with the largest extent."""
        return max(self.concepts, key=lambda c: len(c.extent))


def _concept_from_extent_mask(ctx: FormalContext, extent_mask: int) -> FormalConcept:
    return FormalConcept(
        mask_to_indices(extent_mask),
        mask_to_indices(ctx.intent_mask(extent_mask)),
    )


def enumerate_concepts(ctx: FormalContext) -> ConceptSet:
    """All formal concepts: the intents the lectic walk passes, with their extents."""
    intents, extents, _ = _lectic_walk(ctx)
    return ConceptSet(
        FormalConcept(mask_to_indices(extent), mask_to_indices(intent))
        for intent, extent in zip(intents, extents)
    )


def _require_concept(ctx: FormalContext, c: FormalConcept) -> None:
    if ctx.intent_mask(c.extent_mask) != c.intent_mask or ctx.extent_mask(
        c.intent_mask
    ) != c.extent_mask:
        raise ValueError(f"{c} is not a concept of this context")


def meet(ctx: FormalContext, c1: FormalConcept, c2: FormalConcept) -> FormalConcept:
    """Infimum: extent intersection, intent derived from it."""
    _require_concept(ctx, c1)
    _require_concept(ctx, c2)
    return _concept_from_extent_mask(ctx, c1.extent_mask & c2.extent_mask)


def attribute_concept(ctx: FormalContext, m: int) -> FormalConcept:
    if not 0 <= m < ctx.n_attributes:
        raise IndexError(f"attribute index {m} out of range")
    return _concept_from_extent_mask(ctx, ctx.col(m))


def generated_sub_meet_semilattice(
    ctx: FormalContext, attributes: Iterable[int]
) -> ConceptSet:
    """Smallest meet-closed concept set holding the attribute concepts and the top."""
    # Meeting a meet-closed set that holds the top with one more column
    # keeps it meet-closed, and the top's meet adds the column itself.
    closed = {ctx.extent_mask(0)}
    for m in attributes:
        if not 0 <= m < ctx.n_attributes:
            raise IndexError(f"attribute index {m} out of range")
        col = ctx.col(m)
        closed |= {c & col for c in closed}
    return ConceptSet(_concept_from_extent_mask(ctx, mask) for mask in closed)


def is_boolean_suborder(s: ConceptSet, k: int) -> bool:
    """Whether ``s`` with extent-inclusion order is the powerset lattice of a k-set.

    Every element is fingerprinted by the atoms below it; the suborder is
    Boolean of dimension k exactly when that fingerprint is an order
    isomorphism onto all 2**k atom subsets.  Sizes above 2**8 are refused.
    """
    masks = sorted(c.extent_mask for c in s)
    mask_set = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b not in mask_set:
                raise ValueError("concept set is not meet-closed")
    if k < 0 or len(masks) != 1 << k:
        return False
    if len(masks) > 256:
        raise ValueError("boolean-suborder test limited to 2**8 elements")
    if k == 0:
        return True
    bottom = masks[0]
    for m in masks:
        bottom &= m
    if bottom not in mask_set:
        return False
    strictly_above = [m for m in masks if m != bottom]
    atoms = [
        m
        for m in strictly_above
        if not any(other != m and other & m == other for other in strictly_above)
    ]
    if len(atoms) != k:
        return False
    fingerprint = {}
    for m in masks:
        fp = 0
        for i, atom in enumerate(atoms):
            if atom & m == atom:
                fp |= 1 << i
        fingerprint[m] = fp
    # An injective fingerprint is an order isomorphism: a & b is in the set
    # and fp(a & b) = fp(a) & fp(b), so fp(a) <= fp(b) forces a & b == a.
    return len(set(fingerprint.values())) == 1 << k


# -- implications -----------------------------------------------------------


@dataclass(frozen=True)
class Implication:
    """Premise and conclusion attribute sets, stored as sorted index tuples."""

    premise: tuple[int, ...]
    conclusion: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "premise", tuple(sorted(set(self.premise))))
        object.__setattr__(self, "conclusion", tuple(sorted(set(self.conclusion))))

    @property
    def premise_mask(self) -> int:
        return indices_to_mask(self.premise)

    @property
    def conclusion_mask(self) -> int:
        return indices_to_mask(self.conclusion)


class ImplicationBase:
    """The result of ``canonical_base``; ``close_under`` evaluates closures under it.

    ``concepts`` is the number of intents its lectic (Close-by-One) walk
    passed, that is, the number of formal concepts; ``enumerate_concepts``
    builds its concepts from the intents and extents of that same walk.
    """

    def __init__(self, implications: Iterable[Implication], concepts: int):
        self.implications: tuple[Implication, ...] = tuple(implications)
        self.concepts = concepts

    def __len__(self) -> int:
        return len(self.implications)

    def __iter__(self) -> Iterator[Implication]:
        return iter(self.implications)


class _RuleIndex:
    """Implications indexed by premise attribute, for closures that fire each rule once.

    Rule ``r`` is bit ``r`` of a rule bitset: ``conclusions[r]`` is its
    conclusion mask, ``blockers[m]`` pairs attribute ``m``'s bit with the
    rules whose premise holds ``m``, and ``every`` has a bit for each rule.
    A closure round ORs the blockers of the attributes the set lacks, fires
    every not yet fired rule outside them at once and marks those fired, so
    a closure looks at each rule once (Wild 1995).
    """

    __slots__ = ("conclusions", "blockers", "every")

    def __init__(self, rules: Iterable[tuple[int, int]] = ()):
        self.conclusions: list[int] = []
        self.blockers: list[tuple[int, int]] = []
        self.every = 0
        for premise, conclusion in rules:
            self.add(premise, conclusion)

    def add(self, premise: int, conclusion: int) -> None:
        rule = 1 << len(self.conclusions)
        self.conclusions.append(conclusion)
        self.every |= rule
        blockers = self.blockers
        blockers.extend((1 << m, 0) for m in range(len(blockers), premise.bit_length()))
        for m in mask_to_indices(premise):
            bit, rules = blockers[m]
            blockers[m] = (bit, rules | rule)

    def close(self, mask: int, forbidden: int = 0) -> int:
        """Closure of ``mask`` under the rules, cut short once it meets ``forbidden``.

        The closure is returned whole when it misses ``forbidden``.  Otherwise
        the result is the first set the closure reaches that meets
        ``forbidden``: it holds ``mask`` and lies inside the closure.
        """
        if mask & forbidden:
            return mask
        conclusions = self.conclusions
        pending = self.every
        while True:
            blocked = 0
            for bit, rules in self.blockers:
                if not mask & bit:
                    blocked |= rules
            fire = pending & ~blocked
            if not fire:
                return mask
            pending ^= fire
            while fire:
                low = fire & -fire
                mask |= conclusions[low.bit_length() - 1]
                fire ^= low
            if mask & forbidden:
                return mask


def close_under(implications: Iterable[Implication], attributes: Iterable[int]) -> tuple[int, ...]:
    rules = _RuleIndex((i.premise_mask, i.conclusion_mask) for i in implications)
    return mask_to_indices(rules.close(indices_to_mask(attributes)))


def is_valid_implication(ctx: FormalContext, imp: Implication) -> bool:
    """True when every object carrying the premise carries the conclusion."""
    for m in imp.premise + imp.conclusion:
        if not 0 <= m < ctx.n_attributes:
            raise IndexError(f"attribute index {m} out of range")
    premise_extent = ctx.extent_mask(imp.premise_mask)
    conclusion_extent = ctx.extent_mask(imp.conclusion_mask)
    return premise_extent & conclusion_extent == premise_extent


def _lectic_walk(ctx: FormalContext) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The intents and the pseudo-intents, in lectic order.

    Returns the intent masks, their extent masks and the
    ``(pseudo-intent, closure)`` mask pairs.  The walk passes the sets closed
    under the implications L found so far, which are exactly the intents and
    the pseudo-intents (Ganter 2010).  It is a depth-first Close-by-One tree
    on an explicit stack: a set's children add one attribute above the one
    that produced it, in descending order.  That is lectic order, so every
    pseudo-intent below a candidate is already in L.  A child's extent is its
    parent's extent AND the new column, since every rule in L holds in the
    context, so each set costs one ``intent_mask`` call.

    A candidate at attribute i fails canonicity, and its L-closure stops,
    once it meets an attribute below i that the set lacks.  The attributes
    it met there are kept as a witness: the later siblings and their
    subtrees skip i while their set misses the witness, because the
    L-closure only grows with the set and with L (FCbO: Outrata and
    Vychodil 2012; on the base as in LinCbO: Janostik, Konecny and
    Krajca 2021).
    """
    n = ctx.n_attributes
    cols = ctx.cols()
    intent_mask = ctx.intent_mask
    rules = _RuleIndex()
    intents: list[int] = []
    extents: list[int] = []
    pseudo: list[tuple[int, int]] = []

    def visit(current: int, extent: int) -> None:
        closed = intent_mask(extent)
        if closed == current:
            intents.append(current)
            extents.append(extent)
        else:
            rules.add(current, closed)
            pseudo.append((current, closed))

    full = ctx.all_attributes_mask
    top = ctx.all_objects_mask
    visit(0, top)
    # A frame is a set, its extent, the attributes left to try as a mask,
    # its witnesses by attribute, and whether it owns that list.
    stack = [(0, top, full, [0] * n, False)]
    while stack:
        current, extent, untried, witnesses, owned = stack.pop()
        while untried:
            i = untried.bit_length() - 1
            bit = 1 << i
            untried ^= bit
            if witnesses[i] & ~current:
                continue
            forbidden = (bit - 1) & ~current
            candidate = rules.close(current | bit, forbidden)
            if candidate & forbidden:
                if not owned:
                    witnesses = witnesses.copy()
                    owned = True
                witnesses[i] = candidate & forbidden
                continue
            child_extent = extent & cols[i]
            visit(candidate, child_extent)
            stack.append((current, extent, untried, witnesses, owned))
            above = full & ~((bit << 1) - 1)
            stack.append((candidate, child_extent, above & ~candidate, witnesses, False))
            break
    return intents, extents, pseudo


def canonical_base(ctx: FormalContext) -> ImplicationBase:
    """Minimum-cardinality sound and complete implication base.

    The premises are the pseudo-intents the lectic walk passes.  Conclusions
    are stored saturated (full closure minus the premise) and the result is
    re-sorted by premise.  The other sets the walk passes are the intents,
    so their number is returned as the concept count.
    """
    intents, _, pseudo = _lectic_walk(ctx)
    found = [
        Implication(mask_to_indices(premise), mask_to_indices(closed & ~premise))
        for premise, closed in pseudo
    ]
    found.sort(key=lambda imp: imp.premise)
    return ImplicationBase(found, len(intents))


def restrict_base_on_removal(base: Sequence[Implication], m: int) -> list[Implication]:
    """Generating set for the context without attribute ``m``.

    Implications free of ``m`` are kept; ``m`` is stripped from conclusions
    (dropping implications whose conclusion empties).  An implication whose
    premise contains ``m`` is removed, and for every implication that
    introduces ``m`` in its conclusion a combined implication is added so the
    removed one can still fire once ``m`` itself is gone.  The result is
    sound and closure-complete for the restricted context but in general not
    minimal.
    """
    introducers = [
        imp
        for imp in base
        if m in imp.conclusion and m not in imp.premise
    ]
    out: list[Implication] = []
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()

    def push(premise: Iterable[int], conclusion: Iterable[int]) -> None:
        prem = tuple(sorted(set(premise)))
        concl = tuple(sorted(set(conclusion) - set(prem)))
        if not concl:
            return
        key = (prem, concl)
        if key not in seen:
            seen.add(key)
            out.append(Implication(prem, concl))

    for imp in base:
        if m in imp.premise:
            reduced_premise = [a for a in imp.premise if a != m]
            conclusion = [a for a in imp.conclusion if a != m]
            for intro in introducers:
                push(
                    set(reduced_premise) | set(intro.premise),
                    conclusion,
                )
        else:
            push(imp.premise, (a for a in imp.conclusion if a != m))
    return out

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
    """All formal concepts: the intents the lectic walk passes."""
    intents, _ = _lectic_walk(ctx)
    return ConceptSet(
        FormalConcept(mask_to_indices(ctx.extent_mask(intent)), mask_to_indices(intent))
        for intent in intents
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
    seeds = {ctx.extent_mask(0)}
    for m in attributes:
        if not 0 <= m < ctx.n_attributes:
            raise IndexError(f"attribute index {m} out of range")
        seeds.add(ctx.col(m))
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        mask = frontier.pop()
        for other in list(closed):
            inter = mask & other
            if inter not in closed:
                closed.add(inter)
                frontier.append(inter)
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
    if len(set(fingerprint.values())) != 1 << k:
        return False
    for a in masks:
        for b in masks:
            if (a & b == a) != (fingerprint[a] & fingerprint[b] == fingerprint[a]):
                return False
    return True


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

    ``concepts`` is the number of intents its lectic walk passed, that is,
    the number of formal concepts; ``enumerate_concepts`` builds its
    concepts from the intents of that same walk.
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

    def close(self, mask: int, forbidden: int = 0) -> int | None:
        """Closure of ``mask`` under the rules, or ``None`` once it meets ``forbidden``."""
        if mask & forbidden:
            return None
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
                return None


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


def _lectic_walk(ctx: FormalContext) -> tuple[list[int], list[tuple[int, int]]]:
    """NextClosure over the sets closed under the implications found so far.

    Returns the intent masks and the ``(pseudo-intent, closure)`` mask pairs
    in lectic order: the walk visits exactly the intents and the
    pseudo-intents (Ganter 2010), at one context closure each.  A candidate
    at position i fails canonicity, and its L-closure stops, once it meets
    an attribute below i that the current set lacks.
    """
    n = ctx.n_attributes
    rules = _RuleIndex()
    intents: list[int] = []
    pseudo: list[tuple[int, int]] = []
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
            if candidate is not None:
                current = candidate
                break
        else:
            return intents, pseudo


def canonical_base(ctx: FormalContext) -> ImplicationBase:
    """Minimum-cardinality sound and complete implication base.

    The premises are the pseudo-intents the lectic walk passes.  Conclusions
    are stored saturated (full closure minus the premise) and the result is
    re-sorted by premise.  The other sets the walk passes are the intents,
    so their number is returned as the concept count.
    """
    intents, pseudo = _lectic_walk(ctx)
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

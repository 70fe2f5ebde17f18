"""Concept enumeration, sub-meet-semilattices, and implication bases."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .context import FormalContext, _Record, _check_indices, indices_to_mask, mask_to_indices

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
]


class FormalConcept(_Record):
    """Extent/intent pair with extent' = intent and intent' = extent.

    ``extent`` and ``intent`` are sorted tuples of object and attribute indices.
    """

    __slots__ = ("extent", "intent")

    @property
    def extent_mask(self) -> int:
        return indices_to_mask(self.extent)

    @property
    def intent_mask(self) -> int:
        return indices_to_mask(self.intent)


class ConceptSet(_Record):
    """Deduplicated concepts, sorted by intent in lexicographic order."""

    __slots__ = ("concepts",)

    def __post_init__(self) -> None:
        items = tuple(sorted(set(self.concepts), key=lambda c: c.intent))
        if len({c.extent for c in items}) != len(items):
            raise ValueError("concepts must have pairwise distinct extents")
        if any(a.intent == b.intent for a, b in zip(items, items[1:])):
            raise ValueError("concepts must have pairwise distinct intents")
        object.__setattr__(self, "concepts", items)

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self) -> Iterator[FormalConcept]:
        return iter(self.concepts)

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
    _check_indices((m,), ctx.n_attributes, "attribute")
    return _concept_from_extent_mask(ctx, ctx.col(m))


def generated_sub_meet_semilattice(
    ctx: FormalContext, attributes: Iterable[int]
) -> ConceptSet:
    """Smallest meet-closed concept set holding the attribute concepts and the top."""
    # Meeting a meet-closed set that holds the top with one more column
    # keeps it meet-closed, and the top's meet adds the column itself.
    closed = {ctx.extent_mask(0)}
    for m in _check_indices(attributes, ctx.n_attributes, "attribute"):
        col = ctx.col(m)
        closed |= {c & col for c in closed}
    return ConceptSet(_concept_from_extent_mask(ctx, mask) for mask in closed)


def is_boolean_suborder(s: ConceptSet, k: int) -> bool:
    """Whether ``s`` with extent-inclusion order is the powerset lattice of a k-set.

    Every element is fingerprinted by the atoms below it; the suborder is
    Boolean of dimension k exactly when that fingerprint is an order
    isomorphism onto all 2**k atom subsets.
    """
    masks = sorted(c.extent_mask for c in s)
    mask_set = set(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b not in mask_set:
                raise ValueError("concept set is not meet-closed")
    # 2**k is built only for a k whose 2**k does not exceed the set's size.
    if not 0 <= k < len(masks).bit_length() or len(masks) != 1 << k:
        return False
    # Meet-closed, so the meet of all masks is in the set: it is the least one.
    strictly_above = masks[1:]
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


class Implication(_Record):
    """Premise and conclusion attribute sets, stored as sorted index tuples."""

    __slots__ = ("premise", "conclusion")

    def __post_init__(self) -> None:
        object.__setattr__(self, "premise", tuple(sorted(set(self.premise))))
        object.__setattr__(self, "conclusion", tuple(sorted(set(self.conclusion))))

    @property
    def premise_mask(self) -> int:
        return indices_to_mask(self.premise)

    @property
    def conclusion_mask(self) -> int:
        return indices_to_mask(self.conclusion)


_set_premise = Implication.premise.__set__  # type: ignore[attr-defined]
_set_conclusion = Implication.conclusion.__set__  # type: ignore[attr-defined]


def _sorted_implication(premise: tuple[int, ...], conclusion: tuple[int, ...]) -> Implication:
    """The ``Implication`` of two index tuples that are already sorted and duplicate-free.

    It stores them as they are, without the set and sort of ``__post_init__``;
    ``mask_to_indices`` gives such tuples.
    """
    imp = object.__new__(Implication)
    _set_premise(imp, premise)
    _set_conclusion(imp, conclusion)
    return imp


class ImplicationBase(_Record):
    """The result of ``canonical_base``.

    ``concepts`` is the number of intents its lectic (Close-by-One) walk
    passed, that is, the number of formal concepts; ``enumerate_concepts``
    builds its concepts from the intents and extents of that same walk.
    """

    __slots__ = ("implications", "concepts")

    def __post_init__(self) -> None:
        object.__setattr__(self, "implications", tuple(self.implications))

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

    def close(self, mask: int, forbidden: int = 0, upper: int = -1) -> int:
        """Closure of ``mask`` under the rules, cut short once it meets ``forbidden``.

        The closure is returned whole when it misses ``forbidden``.  Otherwise
        the result holds ``mask``, lies inside the closure and meets
        ``forbidden``; when ``mask`` misses ``forbidden``, as in every call the
        walk makes, it is the first set the closure reaches that meets it.

        ``upper`` is a set known to hold the closure, such as the closure of
        ``mask`` in a context where every rule holds.  The closure stops
        after the first round that leaves it equal to ``upper``, since no
        rule can add more; the default -1 equals no set.
        """
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
            if mask & forbidden or mask == upper:
                return mask


def is_valid_implication(ctx: FormalContext, imp: Implication) -> bool:
    """True when every object carrying the premise carries the conclusion."""
    _check_indices(imp.premise + imp.conclusion, ctx.n_attributes, "attribute")
    premise_extent = ctx.extent_mask(imp.premise_mask)
    conclusion_extent = ctx.extent_mask(imp.conclusion_mask)
    return premise_extent & conclusion_extent == premise_extent


def _lectic_walk(
    ctx: FormalContext, attributes: int | None = None
) -> tuple[list[int], list[int], list[tuple[int, int]]]:
    """The intents and the pseudo-intents, in lectic order.

    Returns the intent masks, their extent masks and the
    ``(pseudo-intent, closure)`` mask pairs.  The walk passes the sets closed
    under the implications L found so far, which are exactly the intents and
    the pseudo-intents (Ganter 2010).  It is a depth-first Close-by-One tree
    on an explicit stack: a set's children add one attribute above the one
    that produced it, in descending order.  That is lectic order, so every
    pseudo-intent below a candidate is already in L.  The walk goes on into
    a child as soon as it passes, with the parent's frame left on the stack;
    a child with no attribute left to try leaves no frame.

    Every rule in L holds in the context, so a candidate's L-closure keeps
    its extent, the parent's extent AND the new column, and lies inside its
    closure C in the context.  The walk derives C first, in its own loop
    over the context's byte tables (``FormalContext._intent_tables``): one
    lookup per byte of the extent that holds an object, jumping over the
    empty bytes, so a dense extent costs one lookup per 8 objects and a
    sparse one at most one per object.  A candidate that equals C is an
    intent and needs no L-closure, which lies between the candidate and C
    and so would add nothing.  Any other candidate costs one L-closure.
    That closure stops once it meets an attribute below i that the set
    lacks, in which case the candidate fails canonicity, or once it equals
    C, since no rule can add more.  A canonical candidate is an intent when
    its L-closure is C, and a pseudo-intent with conclusion C when not.

    The attributes a failed L-closure met are kept as a witness: the later
    siblings and their subtrees skip i while their set misses the witness,
    because the L-closure only grows with the set and with L (FCbO: Outrata
    and Vychodil 2012; on the base as in LinCbO: Janostik, Konecny and
    Krajca 2021).

    With an attribute mask N, the walk is that of the context restricted to
    N, run on ``ctx`` itself: children add attributes of N only, and each
    intent is the context's intent of its extent, cut down to N.  The
    restricted context's intents are the traces of the original's on N and
    its columns are the original's, so the masks returned are those of its
    own walk spread back onto N.
    """
    n = ctx.n_attributes
    within = ctx.all_attributes_mask if attributes is None else attributes
    cols = ctx.cols()
    tables = ctx._intent_tables()
    rules = _RuleIndex()
    close = rules.close
    intents: list[int] = []
    extents: list[int] = []
    pseudo: list[tuple[int, int]] = []

    extent = ctx.all_objects_mask
    closed = ctx.intent_mask(extent) & within
    if closed:
        rules.add(0, closed)
        pseudo.append((0, closed))
    else:
        intents.append(0)
        extents.append(extent)
    # A frame is a set, its extent, the attributes left to try as a mask,
    # its witnesses by attribute, and whether it owns that list.
    current, untried, witnesses, owned = 0, within, [0] * n, False
    # The attributes of N above i, which the children of a set made with i try.
    above = [within & ~((2 << i) - 1) for i in range(n)]
    stack = []
    while True:
        while untried:
            i = untried.bit_length() - 1
            bit = 1 << i
            untried ^= bit
            if witnesses[i] & ~current:
                continue
            child_extent = extent & cols[i]
            closed = within
            rest = child_extent
            k = 0
            while rest:
                if byte := rest & 255:
                    closed &= tables[k][byte]
                    rest >>= 8
                    k += 1
                else:
                    # Jump over the bytes with no object of the extent.
                    skip = ((rest & -rest).bit_length() - 1) >> 3
                    rest >>= skip << 3
                    k += skip
            candidate = current | bit
            if candidate != closed:
                forbidden = (bit - 1) & ~current
                candidate = close(candidate, forbidden, closed)
                if candidate & forbidden:
                    if not owned:
                        witnesses = witnesses.copy()
                        owned = True
                    witnesses[i] = candidate & forbidden
                    continue
            if candidate == closed:
                intents.append(candidate)
                extents.append(child_extent)
            else:
                rules.add(candidate, closed)
                pseudo.append((candidate, closed))
            child_untried = above[i] & ~candidate
            if child_untried:
                stack.append((current, extent, untried, witnesses, owned))
                current, extent, untried, owned = candidate, child_extent, child_untried, False
        if not stack:
            return intents, extents, pseudo
        current, extent, untried, witnesses, owned = stack.pop()


def canonical_base(ctx: FormalContext) -> ImplicationBase:
    """Minimum-cardinality sound and complete implication base.

    The premises are the pseudo-intents the lectic walk passes.  Conclusions
    are stored saturated (full closure minus the premise) and the result is
    re-sorted by premise.  The other sets the walk passes are the intents,
    so their number is returned as the concept count.
    """
    intents, _, pseudo = _lectic_walk(ctx)
    found = [
        _sorted_implication(mask_to_indices(premise), mask_to_indices(closed & ~premise))
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
    introduced = [set(imp.premise) for imp in base if m in imp.conclusion and m not in imp.premise]
    # A dict keeps the first of equal implications, in the order they are made.
    out: dict[Implication, None] = {}
    for imp in base:
        conclusion = set(imp.conclusion) - {m}
        if m in imp.premise:
            premises = [set(imp.premise) - {m} | intro for intro in introduced]
        else:
            premises = [set(imp.premise)]
        for premise in premises:
            if rest := conclusion - premise:
                out.setdefault(Implication(premise, rest))
    return list(out)

from itertools import combinations

import pytest

from contrascale.adjust import cubic_sets
from contrascale.context import (
    FormalContext,
    SubcontextSelection,
    apply_selection,
    clarify,
    make_contranominal,
    mask_to_indices,
    reduce_context,
)
from contrascale.datasets import medical_diagnosis
from contrascale.lattice import (
    ConceptSet,
    FormalConcept,
    Implication,
    attribute_concept,
    canonical_base,
    close_under,
    enumerate_concepts,
    generated_sub_meet_semilattice,
    is_boolean_suborder,
    is_valid_implication,
    meet,
    restrict_base_on_removal,
    _RuleIndex,
)
from conftest import random_context


HALF_ADJUSTED = tuple("dehijlno")


def diagnosis_half_adjusted():
    ctx = medical_diagnosis()
    atts = tuple(ctx.attributes.index(label) for label in HALF_ADJUSTED)
    return ctx, atts


def brute_pseudo_intent_masks(ctx):
    """Pseudo-intents straight from the recursive definition."""
    n = ctx.n_attributes
    pseudos = []
    for size in range(n + 1):
        for comb in combinations(range(n), size):
            mask = 0
            for m in comb:
                mask |= 1 << m
            if ctx.closure_mask(mask) == mask:
                continue
            if all(
                ctx.closure_mask(q) & mask == ctx.closure_mask(q)
                for q in pseudos
                if q & mask == q and q != mask
            ):
                pseudos.append(mask)
    return sorted(pseudos)


class TestConcepts:
    def test_contranominal_counts(self):
        for k in range(1, 9):
            assert len(enumerate_concepts(make_contranominal(k))) == 2**k

    def test_diagnosis_concepts(self):
        assert len(enumerate_concepts(medical_diagnosis())) == 88

    def test_concepts_are_closed_pairs(self, seeded):
        rng = seeded(401)
        for _ in range(15):
            ctx = random_context(rng, 6, 6)
            concepts = enumerate_concepts(ctx)
            for c in concepts:
                assert ctx.intent_mask(c.extent_mask) == c.intent_mask
                assert ctx.extent_mask(c.intent_mask) == c.extent_mask
            # against brute force over all extent candidates
            brute = {ctx.extent_mask(ctx.intent_mask(mask)) for mask in range(1 << ctx.n_objects)}
            brute.add(ctx.extent_mask(0))
            assert {c.extent_mask for c in concepts} == brute

    def test_degenerate_contexts(self):
        assert len(enumerate_concepts(FormalContext(["g"], [], [[]]))) == 1
        assert len(enumerate_concepts(FormalContext([], ["m"], []))) == 1


class TestMeet:
    def test_idempotent_and_top(self, seeded):
        ctx = random_context(seeded(402), 6, 6)
        concepts = enumerate_concepts(ctx)
        top = concepts.top()
        for c in concepts:
            assert meet(ctx, c, c) == c
            assert meet(ctx, top, c) == c

    def test_is_greatest_lower_bound(self, seeded):
        rng = seeded(403)
        for _ in range(8):
            ctx = random_context(rng, 5, 5)
            concepts = list(enumerate_concepts(ctx))
            for c1 in concepts:
                for c2 in concepts:
                    got = meet(ctx, c1, c2)
                    lower = [
                        c
                        for c in concepts
                        if c.extent_mask & c1.extent_mask == c.extent_mask
                        and c.extent_mask & c2.extent_mask == c.extent_mask
                    ]
                    best = max(lower, key=lambda c: c.extent_mask.bit_count())
                    assert got.extent_mask == best.extent_mask

    def test_foreign_concept_rejected(self):
        ctx = make_contranominal(2)
        fake = FormalConcept((0,), (0,))
        with pytest.raises(ValueError):
            meet(ctx, fake, fake)


class TestAttributeConcept:
    def test_full_column_gives_top(self):
        ctx = FormalContext(["a", "b"], ["x", "y"], [[1, 1], [1, 0]])
        top = enumerate_concepts(ctx).top()
        assert attribute_concept(ctx, 0) == top

    def test_contranominal(self):
        c = attribute_concept(make_contranominal(3), 0)
        assert c.extent == (1, 2)
        assert c.intent == (0,)

    def test_extent_is_column_support(self):
        ctx = medical_diagnosis()
        for m in range(ctx.n_attributes):
            assert attribute_concept(ctx, m).extent == mask_to_indices(ctx.col(m))


class TestSubMeetSemilattice:
    def test_empty_generator_set_gives_top(self, seeded):
        ctx = random_context(seeded(404), 5, 5)
        s = generated_sub_meet_semilattice(ctx, [])
        assert len(s) == 1
        assert s.concepts[0] == enumerate_concepts(ctx).top()

    def test_contranominal_generates_everything(self):
        ctx = make_contranominal(3)
        assert len(generated_sub_meet_semilattice(ctx, [0, 1, 2])) == 8

    def test_matches_meet_closure_fixpoint(self, seeded):
        rng = seeded(405)
        for _ in range(10):
            ctx = random_context(rng, 6, 6)
            atts = [m for m in range(ctx.n_attributes) if rng.randrange(2)]
            got = {c.extent_mask for c in generated_sub_meet_semilattice(ctx, atts)}
            want = {ctx.extent_mask(0)} | {ctx.col(m) for m in atts}
            grew = True
            while grew:
                grew = False
                for a in list(want):
                    for b in list(want):
                        if a & b not in want:
                            want.add(a & b)
                            grew = True
            assert got == want

    def test_diagnosis_half_adjusted_generates_29(self):
        ctx, atts = diagnosis_half_adjusted()
        assert len(generated_sub_meet_semilattice(ctx, atts)) == 29


class TestBooleanSuborder:
    def test_single_top_is_zero_dimensional(self, seeded):
        ctx = random_context(seeded(406), 4, 4)
        s = generated_sub_meet_semilattice(ctx, [])
        assert is_boolean_suborder(s, 0)
        assert not is_boolean_suborder(s, 1)

    def test_contranominal_lattices_are_boolean(self):
        for k in range(1, 5):
            s = enumerate_concepts(make_contranominal(k))
            assert is_boolean_suborder(s, k)

    def test_chain_is_not_boolean(self):
        ctx = FormalContext(
            ["a", "b", "c"], ["x", "y"], [[1, 1], [1, 0], [0, 0]]
        )  # concepts form a 3-chain
        s = enumerate_concepts(ctx)
        assert len(s) == 3
        assert not is_boolean_suborder(s, 1)

    def test_non_meet_closed_input_rejected(self):
        ctx = make_contranominal(2)
        concepts = enumerate_concepts(ctx)
        atoms = [c for c in concepts if len(c.extent) == 1]
        with pytest.raises(ValueError):
            is_boolean_suborder(ConceptSet(atoms), 1)

    def test_cubic_sets_generate_boolean_suborders(self, seeded):
        rng = seeded(407)
        for _ in range(10):
            ctx = random_context(rng, 6, 6, densities=(0.3, 0.5, 0.7))
            ctx, _ = clarify(ctx)
            ctx, _ = reduce_context(ctx)
            if ctx.n_attributes == 0:
                continue
            for cube in cubic_sets(ctx):
                s = generated_sub_meet_semilattice(ctx, cube.attributes)
                assert is_boolean_suborder(s, cube.dimension)
                for m in range(ctx.n_attributes):
                    if m in cube.attributes:
                        continue
                    bigger = generated_sub_meet_semilattice(
                        ctx, cube.attributes + (m,)
                    )
                    assert not is_boolean_suborder(bigger, cube.dimension + 1)


class TestImplicationValidity:
    def test_reflexive(self, seeded):
        ctx = random_context(seeded(408), 5, 5)
        atts = tuple(range(0, ctx.n_attributes, 2))
        assert is_valid_implication(ctx, Implication(atts, atts))

    def test_contranominal_counterexample(self):
        ctx = make_contranominal(2)
        assert not is_valid_implication(ctx, Implication((0,), (1,)))

    def test_base_is_sound(self):
        ctx = medical_diagnosis()
        for imp in canonical_base(ctx):
            assert is_valid_implication(ctx, imp)

    def test_validity_transfers_between_context_and_subcontext(self, seeded):
        rng = seeded(409)
        for _ in range(10):
            ctx = random_context(rng, 6, 6)
            n = ctx.n_attributes
            size = min(3, n)
            atts = tuple(sorted(rng.sample_indices(n, size)))
            sub = apply_selection(
                SubcontextSelection(ctx, tuple(range(ctx.n_objects)), atts)
            )
            pos = {m: i for i, m in enumerate(atts)}
            subsets = [
                tuple(s)
                for size2 in range(len(atts) + 1)
                for s in combinations(atts, size2)
            ]
            for premise in subsets:
                for conclusion in subsets:
                    in_full = is_valid_implication(ctx, Implication(premise, conclusion))
                    in_sub = is_valid_implication(
                        sub,
                        Implication(
                            tuple(pos[m] for m in premise),
                            tuple(pos[m] for m in conclusion),
                        ),
                    )
                    assert in_full == in_sub


class TestCanonicalBase:
    def test_contranominal_base_is_empty(self):
        for k in range(1, 5):
            ctx = make_contranominal(k)
            assert len(canonical_base(ctx)) == 0
            # brute force: every attribute subset is closed
            for bits in range(1 << k):
                assert ctx.closure_mask(bits) == bits

    def test_diagnosis_base_sizes(self):
        ctx, atts = diagnosis_half_adjusted()
        assert len(canonical_base(ctx)) == 40
        sub = apply_selection(SubcontextSelection(ctx, tuple(range(14)), atts))
        assert len(canonical_base(sub)) == 11

    def test_concept_count_matches_enumeration(self, seeded):
        rng = seeded(415)
        contexts = [medical_diagnosis()] + [
            random_context(rng, 9, 9, min_objects=0, min_attributes=0) for _ in range(320)
        ]
        shapes = {(c.n_objects == 0, c.n_attributes == 0) for c in contexts}
        assert {(True, False), (False, True)} <= shapes
        for ctx in contexts:
            assert canonical_base(ctx).concepts == len(enumerate_concepts(ctx))

    def test_premises_are_exactly_the_pseudo_intents(self, seeded):
        rng = seeded(410)
        for _ in range(25):
            ctx = random_context(rng, 6, 6)
            base = canonical_base(ctx)
            assert sorted(i.premise_mask for i in base) == brute_pseudo_intent_masks(ctx)

    def test_implications_match_the_pseudo_intent_oracle(self, seeded):
        rng = seeded(416)
        for _ in range(60):
            ctx = random_context(rng, 8, 8, densities=(0.5, 0.6, 0.7, 0.8, 0.9))
            got = sorted((i.premise_mask, i.conclusion_mask) for i in canonical_base(ctx))
            want = [
                (p, ctx.closure_mask(p) & ~p) for p in brute_pseudo_intent_masks(ctx)
            ]
            assert got == want

    def test_close_mask_stops_exactly_when_the_closure_meets_forbidden(self, seeded):
        rng = seeded(417)
        stopped = 0
        for _ in range(1000):
            n = 1 + rng.randrange(8)
            full = (1 << n) - 1
            rules = [
                (rng.randrange(1 << n), rng.randrange(1 << n))
                for _ in range(rng.randrange(10))
            ]
            mask = rng.randrange(1 << n)
            forbidden = rng.randrange(1 << n)
            if rng.randrange(2):
                forbidden &= ~mask
            # The least superset of ``mask`` that every rule respects.
            closure = full
            for x in range(1 << n):
                if x & mask == mask and all(p & x != p or c & x == c for p, c in rules):
                    closure &= x
            assert _RuleIndex(rules).close(mask) == closure
            if closure & forbidden:
                stopped += 1
                assert _RuleIndex(rules).close(mask, forbidden) is None
            else:
                assert _RuleIndex(rules).close(mask, forbidden) == closure
        assert stopped > 300

    def test_rule_index_closes_by_definition_while_rules_arrive(self, seeded):
        # As in canonical_base: rules are added between closures, and each
        # closure sees exactly the rules added so far.
        rng = seeded(418)
        stopped = closed = 0
        for _ in range(300):
            n = rng.randrange(11)
            index = _RuleIndex()
            rules = []
            for _ in range(rng.randrange(16)):
                if rng.randrange(3):
                    premise = rng.randrange(1 << n) & rng.randrange(1 << n)
                    if not rng.randrange(5):
                        premise = 0
                    rules.append((premise, rng.randrange(1 << n)))
                    index.add(*rules[-1])
                mask = rng.randrange(1 << n) & rng.randrange(1 << n)
                forbidden = rng.randrange(1 << n)
                if rng.randrange(2):
                    forbidden &= ~mask
                closure = _least_respecting_superset(rules, mask, n)
                assert index.close(mask) == closure
                if closure & forbidden:
                    stopped += 1
                    assert index.close(mask, forbidden) is None
                else:
                    closed += 1
                    assert index.close(mask, forbidden) == closure
        assert stopped > 500 and closed > 500

    def test_one_context_closure_per_closed_set_visited(self, seeded, monkeypatch):
        rng = seeded(419)
        contexts = [
            medical_diagnosis(),
            FormalContext.from_masks([], ["a", "b", "c"], []),
            FormalContext.from_masks(["g", "h", "i"], [], [0, 0, 0]),
        ]
        for _ in range(4):
            raw = random_context(rng, 42, 15, densities=(0.7,), min_objects=42, min_attributes=15)
            contexts.append(reduce_context(clarify(raw)[0])[0])
        calls = 0
        closure_mask = FormalContext.closure_mask

        def counted(self, mask):
            nonlocal calls
            calls += 1
            return closure_mask(self, mask)

        # FormalContext has slots, so the method is patched on the class.
        monkeypatch.setattr(FormalContext, "closure_mask", counted)
        per_input = []
        for ctx in contexts:
            calls = 0
            base = canonical_base(ctx)
            assert calls == base.concepts + len(base)
            per_input.append(calls)
        assert per_input[:3] == [88 + 40, 2, 1]

    def test_sound_and_complete(self, seeded):
        rng = seeded(411)
        for _ in range(15):
            ctx = random_context(rng, 6, 6)
            base = canonical_base(ctx)
            for imp in base:
                assert is_valid_implication(ctx, imp)
                assert imp.conclusion  # non-empty conclusions only
            for bits in range(1 << ctx.n_attributes):
                assert set(close_under(base, mask_to_indices(bits))) == set(
                    mask_to_indices(ctx.closure_mask(bits))
                )

    def test_deterministic_premise_order(self, seeded):
        ctx = random_context(seeded(412), 6, 6)
        base = canonical_base(ctx)
        premises = [imp.premise for imp in base]
        assert premises == sorted(premises)


def _least_respecting_superset(rules, mask, n):
    """The least superset of ``mask`` within ``n`` attributes that every rule respects."""
    closure = (1 << n) - 1
    rest = closure & ~mask
    sub = rest
    while True:
        x = mask | sub
        if all(p & x != p or c & x == c for p, c in rules):
            closure &= x
        if not sub:
            return closure
        sub = (sub - 1) & rest


class TestBaseSizeMonotonicity:
    def test_usually_shrinks_under_attribute_removal(self, seeded):
        rng = seeded(413)
        shrank = 0
        for _ in range(20):
            ctx = random_context(rng, 6, 6)
            full = len(canonical_base(ctx))
            n = ctx.n_attributes
            keep = tuple(sorted(rng.sample_indices(n, max(1, n - 1))))
            sub = apply_selection(
                SubcontextSelection(ctx, tuple(range(ctx.n_objects)), keep)
            )
            if len(canonical_base(sub)) <= full:
                shrank += 1
        assert shrank >= 18  # monotone in the typical case, but see below

    def test_known_counterexample(self):
        # Base size is NOT monotone under attribute removal in general: this
        # 6x6 context has a 5-attribute restriction with a larger base.
        rows = (10, 32, 52, 55, 37, 57)
        ctx = FormalContext(
            [f"g{i}" for i in range(6)],
            [f"m{j}" for j in range(6)],
            [[(r >> j) & 1 for j in range(6)] for r in rows],
        )
        sub = apply_selection(
            SubcontextSelection(ctx, tuple(range(6)), (0, 1, 2, 3, 4))
        )
        assert len(canonical_base(ctx)) == 6
        assert len(canonical_base(sub)) == 7


class TestRestrictBaseOnRemoval:
    def test_unrelated_attribute_changes_nothing(self):
        assert restrict_base_on_removal([Implication((0,), (1,))], 2) == [Implication((0,), (1,))]

    def test_conclusion_only_implication_is_dropped(self):
        assert restrict_base_on_removal([Implication((0,), (1,))], 1) == []

    def test_sound_and_complete_for_subcontext(self, seeded):
        rng = seeded(414)
        for _ in range(20):
            ctx = random_context(rng, 5, 5)
            n = ctx.n_attributes
            base = canonical_base(ctx)
            removals = tuple(
                sorted(rng.sample_indices(n, rng.randrange(min(2, n)) + 1))
            )
            keep = tuple(m for m in range(n) if m not in removals)
            imps = list(base)
            for m in removals:
                imps = restrict_base_on_removal(imps, m)
            for imp in imps:
                assert is_valid_implication(ctx, imp)
                assert not (set(imp.premise) | set(imp.conclusion)) & set(removals)
            sub = apply_selection(
                SubcontextSelection(ctx, tuple(range(ctx.n_objects)), keep)
            )
            pos = {m: i for i, m in enumerate(keep)}
            for size in range(len(keep) + 1):
                for chosen in combinations(keep, size):
                    got = {pos[a] for a in close_under(imps, chosen)}
                    sub_mask = 0
                    for m in chosen:
                        sub_mask |= 1 << pos[m]
                    want = set(mask_to_indices(sub.closure_mask(sub_mask)))
                    assert got == want


class TestSerialization:
    def test_implication_line(self, cli_stdout):
        ctx = FormalContext(["g", "h", "i"], ["p", "q", "r"], [[1, 0, 0], [0, 0, 1], [1, 1, 1]])
        lines = cli_stdout(ctx, "base", "--pretty").splitlines()
        assert lines == ["p, r -> q", "q -> p, r"]

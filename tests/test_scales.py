import tracemalloc
from itertools import combinations, product
from math import comb

import pytest

from contrascale import scales
from contrascale.context import (
    FormalContext,
    clarify,
    complement,
    make_contranominal,
    pq_core,
    reduce_context,
)
from contrascale.scales import (
    BipartiteGraph,
    ContranominalScale,
    ScaleFamily,
    conflict_graph,
    count_scales,
    enumerate_bronkerbosch,
    enumerate_scales,
    induced_matchings,
    iter_scale_families,
    max_dimension,
    scales_from_clarified,
    scales_from_reduced,
    to_bipartite,
)
from contrascale.datasets import medical_diagnosis
from conftest import context_from_rows, inject_duplicates, random_context
from oracles import enumerate_bruteforce, family_is_valid_rowwise


def pairs_multiset(stream):
    return sorted(s.pairs for s in stream)


def full_context(n, m):
    return FormalContext(
        [f"g{i}" for i in range(n)],
        [f"m{j}" for j in range(m)],
        [[1] * m for _ in range(n)],
    )


class TestConflictGraph:
    def test_full_incidence_has_no_vertices(self):
        graph = conflict_graph(full_context(3, 3))
        assert graph.vertices == () and graph.edges == ()

    def test_two_dimensional_contranominal(self):
        graph = conflict_graph(make_contranominal(2))
        assert graph.vertices == ((0, 0), (1, 1))
        assert graph.edges == ((0, 1),)

    def test_empty_incidence_has_isolated_vertices(self):
        ctx = complement(full_context(2, 3))
        graph = conflict_graph(ctx)
        assert len(graph.vertices) == 6
        assert graph.edges == ()


class TestBacktrackingEnumeration:
    def test_contranominal_three(self):
        scales = list(enumerate_scales(make_contranominal(3)))
        dims = sorted(s.dimension for s in scales)
        assert dims == [1, 1, 1, 2, 2, 2, 3]

    def test_empty_incidence_two_by_two(self):
        ctx = complement(full_context(2, 2))
        scales = list(enumerate_scales(ctx))
        assert len(scales) == 4
        assert all(s.dimension == 1 for s in scales)

    def test_no_duplicates(self, seeded):
        rng = seeded(301)
        for _ in range(20):
            ctx = random_context(rng, 7, 7)
            scales = [s.pairs for s in enumerate_scales(ctx)]
            assert len(scales) == len(set(scales))

    def test_every_emission_is_a_valid_scale(self, seeded):
        rng = seeded(302)
        for _ in range(15):
            ctx = random_context(rng, 7, 7)
            for scale in enumerate_scales(ctx):
                assert scale.is_valid_in(ctx)

    def test_counting_law_on_contranominals(self):
        for k in range(1, 6):
            ctx = make_contranominal(k)
            count = count_scales(ctx)
            assert count.total == 2**k - 1
            assert count.histogram == {j: comb(k, j) for j in range(1, k + 1)}
            brute = pairs_multiset(enumerate_bruteforce(ctx))
            assert len(brute) == count.total

    def test_stream_order_is_sorted_order(self, seeded):
        rng = seeded(303)
        for _ in range(10):
            ctx = random_context(rng, 7, 7)
            streamed = [s.pairs for s in enumerate_scales(ctx)]
            assert streamed == sorted(
                streamed, key=lambda p: (tuple(m for _, m in p), tuple(g for g, _ in p))
            )

    def test_count_only_matches_enumeration(self, seeded):
        rng = seeded(305)
        for _ in range(10):
            ctx = random_context(rng, 7, 7)
            count = count_scales(ctx)
            scales = list(enumerate_scales(ctx))
            assert count.total == len(scales)
            hist = {}
            for s in scales:
                hist[s.dimension] = hist.get(s.dimension, 0) + 1
            assert count.histogram == hist

    def test_anti_monotone_generators(self, seeded):
        # every subset of a scale-carrying attribute set carries a scale
        rng = seeded(306)
        for _ in range(10):
            ctx = random_context(rng, 6, 6)
            generators = {f.attributes for f in iter_scale_families(ctx)}
            for attrs in generators:
                if len(attrs) > 1:
                    for drop in range(len(attrs)):
                        sub = attrs[:drop] + attrs[drop + 1 :]
                        assert sub in generators

    def test_walk_yields_each_family_when_found(self, monkeypatch):
        built = []
        family = scales.ScaleFamily

        def counted(attributes, witness_masks):
            built.append(attributes)
            return family(attributes, witness_masks)

        monkeypatch.setattr(scales, "ScaleFamily", counted)
        ctx = make_contranominal(4)
        assert next(iter_scale_families(ctx)).attributes == (0,)
        assert built == [(0,)]


def _walk_contexts(rng, n):
    """Degenerate contexts (empty, full, one row, one column), then random ones."""
    yield FormalContext.from_masks([], [], [])
    yield FormalContext.from_masks([], ["a", "b", "c"], [])
    yield FormalContext.from_masks(["g", "h", "i"], [], [0, 0, 0])
    yield full_context(3, 4)
    yield complement(full_context(3, 4))
    yield context_from_rows(["0110"])
    yield context_from_rows(["1", "0", "0"])
    yield make_contranominal(4)
    for _ in range(n):
        yield random_context(rng, 7, 7)


class TestRawWalk:
    def test_leaf_flag_means_no_walked_child(self, seeded):
        for ctx in _walk_contexts(seeded(311), 40):
            walked = {attrs: leaf for attrs, _, _, leaf in scales._walk(ctx)}
            for attrs, leaf in walked.items():
                children = [m for m in range(ctx.n_attributes) if attrs + (m,) in walked]
                assert leaf == (not children)

    def test_walk_yields_the_extent(self, seeded):
        for ctx in _walk_contexts(seeded(312), 40):
            for attrs, _, extent, _ in scales._walk(ctx):
                assert extent == ctx.extent_mask(sum(1 << m for m in attrs))

    def test_wrapper_streams_the_raw_walk(self, seeded):
        for ctx in _walk_contexts(seeded(313), 20):
            n = ctx.n_objects
            raw = [(attrs, scales._classes(lanes, n)) for attrs, lanes, _, _ in scales._walk(ctx)]
            streamed = [(f.attributes, f.witness_masks) for f in iter_scale_families(ctx)]
            assert streamed == raw

    def test_count_histogram_matches_bruteforce(self, seeded):
        for ctx in _walk_contexts(seeded(314), 40):
            hist = {}
            for scale in enumerate_bruteforce(ctx):
                hist[scale.dimension] = hist.get(scale.dimension, 0) + 1
            assert count_scales(ctx).histogram == hist


class TestOracleEquivalence:
    def test_bronkerbosch_on_two_dimensional(self):
        scales = pairs_multiset(enumerate_bronkerbosch(make_contranominal(2)))
        assert scales == [((0, 0),), ((0, 0), (1, 1)), ((1, 1),)]

    def test_bronkerbosch_full_incidence_empty(self):
        assert list(enumerate_bronkerbosch(full_context(3, 2))) == []

    def test_three_way_equivalence(self, seeded):
        rng = seeded(307)
        for _ in range(25):
            ctx = random_context(rng, 6, 6)
            a = pairs_multiset(enumerate_scales(ctx))
            b = pairs_multiset(enumerate_bronkerbosch(ctx))
            c = pairs_multiset(enumerate_bruteforce(ctx))
            assert a == b == c

    def test_bronkerbosch_stream_order_on_diagnosis(self):
        diag = medical_diagnosis()
        assert list(enumerate_scales(diag)) == list(enumerate_bronkerbosch(diag))


class TestScaleCheck:
    CTX = make_contranominal(3)

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param(((0, 99),), id="attribute-too-large"),
            pytest.param(((0, -1),), id="attribute-negative"),
            pytest.param(((5, 0),), id="object-too-large"),
            pytest.param(((-3, 0), (1, 1)), id="object-negative"),
            pytest.param(((10**8, 0),), id="object-huge"),
        ],
    )
    def test_index_outside_the_context_fails(self, pairs):
        # The range is checked before any shift: 1 << 10**8 alone takes 12.5 MB.
        tracemalloc.start()
        try:
            assert not ContranominalScale(pairs).is_valid_in(self.CTX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_empty_scale_fails(self):
        assert not ContranominalScale(()).is_valid_in(self.CTX)

    def test_against_the_check_written_out(self):
        # Every tuple of up to three pairs, indices one past each end included.
        def written_out(pairs, ctx):
            objs = [g for g, _ in pairs]
            atts = [m for _, m in pairs]
            return (
                bool(pairs)
                and len(set(objs)) == len(objs)
                and len(set(atts)) == len(atts)
                and atts == sorted(atts)
                and all(0 <= g < ctx.n_objects for g in objs)
                and all(0 <= m < ctx.n_attributes for m in atts)
                and all(
                    ctx.incident(g, m) == (i != j)
                    for i, (g, _) in enumerate(pairs)
                    for j, (_, m) in enumerate(pairs)
                )
            )

        ctx = FormalContext(["a", "b", "c"], ["x", "y", "z"], [[0, 1, 1], [1, 0, 1], [1, 1, 1]])
        cells = list(product(range(-1, 4), repeat=2))
        verdicts = set()
        for size in range(4):
            for pairs in product(cells, repeat=size):
                verdict = ContranominalScale(pairs).is_valid_in(ctx)
                assert verdict == written_out(pairs, ctx), pairs
                verdicts.add(verdict)
        assert verdicts == {True, False}


def _every_scale_valid(family, ctx):
    return all(s.is_valid_in(ctx) for s in family.iter_scales())


def _walked(ctx, families):
    """A stand-in for ``scales._walk(ctx)`` that yields ``families`` as raw sets.

    Each family's classes are packed into lanes as the walk packs them; the
    stream reads neither the extent nor the leaf flag.
    """
    width = ctx.n_objects + 1
    for f in families:
        lanes = sum(w << i * width for i, w in enumerate(f.witness_masks))
        yield f.attributes, lanes, 0, True


def _checked_families(monkeypatch, ctx, min_dimension=None):
    """The families ``enumerate_scales`` checks, in order, and the scales it streams."""
    checked = []
    check = scales._family_is_valid

    def recorded(attrs, wits, *context):
        checked.append(ScaleFamily(attrs, tuple(wits)))
        return check(attrs, wits, *context)

    with monkeypatch.context() as patch:
        patch.setattr(scales, "_family_is_valid", recorded)
        streamed = list(enumerate_scales(ctx, min_dimension=min_dimension))
    return checked, streamed


class TestFamilyCheck:
    # g0 and g1 miss m0, g2 misses m1, g3 misses m2: one family, two scales.
    CTX = context_from_rows(["011", "011", "101", "110"])
    VALID = ScaleFamily((0, 1, 2), (0b0011, 0b0100, 0b1000))

    def test_walked_family_is_valid(self):
        assert self.VALID in list(iter_scale_families(self.CTX))
        assert self.VALID.is_valid_in(self.CTX)

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(ScaleFamily((0, 1, 2), (0b0001, 0b0110, 0b1000)), id="moved-object"),
            pytest.param(ScaleFamily((0, 1, 2), (0b0011, 0b0110, 0b1000)), id="shared-object"),
            pytest.param(ScaleFamily((0, 1, 2), (0b0011, 0, 0b1000)), id="empty-class"),
            pytest.param(ScaleFamily((1, 0, 2), (0b0100, 0b0011, 0b1000)), id="unsorted-attributes"),
            pytest.param(ScaleFamily((0, 1, 3), (0b0011, 0b0100, 0b1000)), id="attribute-out-of-range"),
            pytest.param(ScaleFamily((0, 1, 2), (0b10011, 0b0100, 0b1000)), id="object-out-of-range"),
            pytest.param(ScaleFamily((), ()), id="no-attributes"),
        ],
    )
    def test_corrupted_family_fails(self, family):
        assert not family.is_valid_in(self.CTX)

    def test_equals_every_scale_check_on_walked_families(self, seeded):
        rng = seeded(312)
        for _ in range(25):
            ctx = random_context(rng, 7, 7)
            for family in iter_scale_families(ctx):
                assert family.is_valid_in(ctx) == _every_scale_valid(family, ctx)

    def test_equals_every_scale_check_on_perturbed_families(self, seeded):
        # Classes redrawn at random, objects moved or shared between
        # classes, two attributes swapped: the family check agrees
        # with checking each scale whenever every class is nonempty.
        rng = seeded(313)
        verdicts = set()
        for _ in range(25):
            ctx = random_context(rng, 7, 7)
            n = ctx.n_objects
            for family in iter_scale_families(ctx):
                attrs, wits = list(family.attributes), list(family.witness_masks)
                k = len(attrs)
                i, j = rng.randrange(k), rng.randrange(k)
                g = 1 << rng.randrange(n)
                redrawn = [w & (1 + rng.randrange((1 << n) - 1)) or w for w in wits]
                moved = wits.copy()
                moved[i] &= ~g
                moved[j] |= g
                swapped_attrs = attrs.copy()
                swapped_attrs[i], swapped_attrs[j] = attrs[j], attrs[i]
                for candidate in (
                    ScaleFamily(tuple(attrs), tuple(redrawn)),
                    ScaleFamily(tuple(attrs), tuple(moved)),
                    ScaleFamily(tuple(swapped_attrs), tuple(wits)),
                    ScaleFamily(tuple(attrs), tuple(1 + rng.randrange((1 << n) - 1) for _ in wits)),
                ):
                    if all(candidate.witness_masks):
                        verdict = candidate.is_valid_in(ctx)
                        assert verdict == _every_scale_valid(candidate, ctx)
                        verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_stream_asserts_the_family_check(self, monkeypatch):
        corrupted = ScaleFamily((0, 1, 2), (0b0011, 0b0110, 0b1000))
        monkeypatch.setattr(scales, "_walk", lambda ctx: _walked(ctx, [corrupted]))
        with pytest.raises(AssertionError):
            list(enumerate_scales(self.CTX))


def _nonzero_mask(rng, n):
    """A random nonzero mask of n bits, drawn as ``TestFamilyCheck`` draws it below 64."""
    if n < 64:
        return 1 + rng.randrange((1 << n) - 1)
    # randrange never returns for a bound above 2**64, so wide masks are
    # drawn 32 bits at a time.
    mask = 0
    while not mask:
        for _ in range(0, n, 32):
            mask = mask << 32 | rng.randrange(1 << 32)
        mask &= (1 << n) - 1
    return mask


def _perturbed_families(rng, ctx):
    """Four perturbations of each walked family, drawn as ``TestFamilyCheck`` draws them.

    Classes redrawn at random, an object moved or shared between classes,
    two attributes swapped, and all-new classes.
    """
    n = ctx.n_objects
    for family in iter_scale_families(ctx):
        attrs, wits = list(family.attributes), list(family.witness_masks)
        k = len(attrs)
        i, j = rng.randrange(k), rng.randrange(k)
        g = 1 << rng.randrange(n)
        redrawn = [w & _nonzero_mask(rng, n) or w for w in wits]
        moved = wits.copy()
        moved[i] &= ~g
        moved[j] |= g
        swapped_attrs = attrs.copy()
        swapped_attrs[i], swapped_attrs[j] = attrs[j], attrs[i]
        yield ScaleFamily(tuple(attrs), tuple(redrawn))
        yield ScaleFamily(tuple(attrs), tuple(moved))
        yield ScaleFamily(tuple(swapped_attrs), tuple(wits))
        yield ScaleFamily(tuple(attrs), tuple(_nonzero_mask(rng, n) for _ in wits))


def _wide_contexts(rng):
    """Random contexts of 63, 64 and 70 objects, four of each."""
    for n in (63, 64, 70):
        for _ in range(4):
            yield random_context(rng, n, 8, min_objects=n)


class TestFamilyCheckAgainstRows:
    """``ScaleFamily.is_valid_in`` against the row-by-row check it replaced."""

    CTX = TestFamilyCheck.CTX
    # g0 misses m0 and m1, g1 only m0, g2 only m1.
    BOTH_MISSED = context_from_rows(["00", "01", "10"])

    def _agree(self, family, ctx):
        verdict = family.is_valid_in(ctx)
        assert verdict == family_is_valid_rowwise(family, ctx)
        return verdict

    def test_walked_families(self, seeded):
        rng = seeded(318)
        contexts = [random_context(rng, 7, 7) for _ in range(25)]
        for ctx in contexts + list(_wide_contexts(rng)):
            for family in iter_scale_families(ctx):
                assert self._agree(family, ctx)

    def test_perturbed_families(self, seeded):
        rng = seeded(313)
        verdicts = set()
        for _ in range(25):
            ctx = random_context(rng, 7, 7)
            verdicts.update(self._agree(f, ctx) for f in _perturbed_families(rng, ctx))
        assert verdicts == {True, False}

    def test_perturbed_families_of_wide_contexts(self, seeded):
        rng = seeded(319)
        verdicts = set()
        for ctx in _wide_contexts(rng):
            verdicts.update(self._agree(f, ctx) for f in _perturbed_families(rng, ctx))
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "family, ctx",
        [
            pytest.param(ScaleFamily((0, 0, 2), (0b0011, 0b0100, 0b1000)), CTX, id="repeated-attribute"),
            pytest.param(ScaleFamily((-1, 1, 2), (0b0011, 0b0100, 0b1000)), CTX, id="negative-attribute"),
            pytest.param(ScaleFamily((0,), (0b10011,)), CTX, id="witness-at-n-objects"),
            pytest.param(
                ScaleFamily((0, 1, 2), (0b10011, 0b0100, 0b1000)), CTX, id="witness-at-n-objects-k3"
            ),
            pytest.param(ScaleFamily((0, 1), (0b011, 0b101)), BOTH_MISSED, id="shared-object"),
            pytest.param(ScaleFamily((0, 2), (0b0111, 0b1000)), CTX, id="holds-own-attribute"),
        ],
    )
    def test_corrupted_family(self, family, ctx):
        # Each differs from a valid family in one point only.
        assert not self._agree(family, ctx)

    def test_valid_neighbours_of_the_corrupted_families(self):
        assert self._agree(ScaleFamily((0,), (0b0011,)), self.CTX)
        assert self._agree(ScaleFamily((0, 2), (0b0011, 0b1000)), self.CTX)
        assert self._agree(ScaleFamily((0, 1), (0b010, 0b100)), self.BOTH_MISSED)

    def test_witness_at_n_objects_of_wide_contexts(self, seeded):
        # A one-attribute family passes the column identity even with an
        # object beyond the context, so only the range test refuses it.
        tested = 0
        for ctx in _wide_contexts(seeded(320)):
            n = ctx.n_objects
            for family in iter_scale_families(ctx):
                if family.dimension == 1:
                    (w,) = family.witness_masks
                    assert not self._agree(ScaleFamily(family.attributes, (w | 1 << n,)), ctx)
                    tested += 1
        assert tested


class TestChainedStream:
    CTX = TestFamilyCheck.CTX
    VALID = TestFamilyCheck.VALID

    def test_nothing_runs_before_the_first_next(self, monkeypatch):
        calls = []
        core, walk = scales._min_dimension_core, scales._walk

        def recorded_core(ctx, min_dimension):
            calls.append("core")
            return core(ctx, min_dimension)

        def recorded_walk(ctx):
            calls.append("walk")
            return walk(ctx)

        expected = [s for s in enumerate_scales(self.CTX) if s.dimension >= 2]
        monkeypatch.setattr(scales, "_min_dimension_core", recorded_core)
        monkeypatch.setattr(scales, "_walk", recorded_walk)
        stream = enumerate_scales(self.CTX, min_dimension=2)
        assert calls == []
        first = next(stream)
        assert calls == ["core", "walk"]
        assert [first, *stream] == expected

    def test_assert_precedes_the_first_scale_of_a_corrupted_family(self, monkeypatch):
        corrupted = ScaleFamily((0, 1, 2), (0b0011, 0b0110, 0b1000))
        valid_scales = list(self.VALID.iter_scales())
        built = []

        def recorded(pairs):
            built.append(pairs)
            return ContranominalScale(pairs)

        monkeypatch.setattr(scales, "_walk", lambda ctx: _walked(ctx, [self.VALID, corrupted]))
        monkeypatch.setattr(scales, "ContranominalScale", recorded)
        streamed = []
        with pytest.raises(AssertionError):
            for scale in enumerate_scales(self.CTX):
                streamed.append(scale)
        # The corrupted family's check fails before any of its scales is
        # built, let alone streamed.
        assert streamed == valid_scales
        assert built == [s.pairs for s in valid_scales]

    def test_min_dimension_skips_smaller_families(self):
        ctx = make_contranominal(4)
        # The (2, 2)-core is the whole context, so the walk reaches the
        # families below dimension 3 and the stream must skip them.
        core = scales._min_dimension_core(ctx, 3)
        assert min(f.dimension for f in iter_scale_families(core)) == 1
        streamed = list(enumerate_scales(ctx, min_dimension=3))
        assert sorted(s.dimension for s in streamed) == [3, 3, 3, 3, 4]
        assert streamed == [s for s in enumerate_scales(ctx) if s.dimension >= 3]


class TestStreamAgainstFamilies:
    """The stream reads the walk's lanes itself; ``iter_scale_families`` is the other reading."""

    @pytest.mark.parametrize("min_dimension", [None, 2, 3])
    def test_stream_expands_the_families_in_order(self, seeded, min_dimension):
        rng = seeded(321)
        contexts = [random_context(rng, 12, 10) for _ in range(30)]
        least = min_dimension or 0
        nonempty = 0
        for ctx in contexts + [make_contranominal(6), medical_diagnosis()]:
            core = scales._min_dimension_core(ctx, min_dimension)
            expected = [
                s
                for f in iter_scale_families(core)
                if f.dimension >= least
                for s in f.iter_scales()
            ]
            assert list(enumerate_scales(ctx, min_dimension=min_dimension)) == expected
            nonempty += bool(expected)
        assert nonempty > len(contexts) // 4, nonempty


def _zipped_scales(family):
    """The scales of ``family``, one ``zip`` of each choice of objects with the attributes."""
    for choice in product(*family.witness_indices()):
        yield ContranominalScale(tuple(zip(choice, family.attributes)))


class TestFamilyScales:
    def _assert_zipped(self, families):
        for family in families:
            assert list(family.iter_scales()) == list(_zipped_scales(family))

    def test_random_families(self, seeded):
        rng = seeded(316)
        for _ in range(30):
            self._assert_zipped(iter_scale_families(random_context(rng, 12, 10)))

    def test_contranominal(self):
        families = list(iter_scale_families(make_contranominal(8)))
        assert len(families) == 2**8 - 1
        self._assert_zipped(families)

    def test_families_mapped_back_from_a_core(self, monkeypatch, seeded):
        rng = seeded(317)
        contexts = [medical_diagnosis()] + [random_context(rng, 12, 10) for _ in range(20)]
        gaps = 0
        for ctx in contexts:
            families, streamed = _checked_families(monkeypatch, ctx, 3)
            assert [s for f in families for s in f.iter_scales()] == streamed
            self._assert_zipped(families)
            # Some core must drop an object below a kept one, where a copied
            # subcontext would renumber the objects.
            sel = pq_core(ctx, 2, 2)
            gaps += sel.object_indices != tuple(range(len(sel.object_indices)))
        assert gaps


class TestMaxDimension:
    def test_contranominal(self):
        for k in (1, 2, 4):
            assert max_dimension(make_contranominal(k)) == k

    def test_full_incidence(self):
        assert max_dimension(full_context(4, 4)) == 0


class TestCorePruning:
    def test_high_dimension_scales_survive_core(self, seeded):
        rng = seeded(308)
        for _ in range(12):
            ctx = random_context(rng, 9, 9)
            for k in (2, 3, 4):
                direct = sorted(
                    s.pairs for s in enumerate_scales(ctx) if s.dimension >= k
                )
                via_core = pairs_multiset(enumerate_scales(ctx, min_dimension=k))
                assert direct == via_core
                full = count_scales(ctx).histogram
                assert count_scales(ctx, min_dimension=k).histogram == {
                    d: c for d, c in full.items() if d >= k
                }

    def test_core_stream_checks_each_family_once(self, monkeypatch):
        checks, streamed = _checked_families(monkeypatch, medical_diagnosis(), 2)
        # One check per yielded family, made on the re-indexed family whose
        # scales are exactly the ones streamed.
        assert streamed
        assert len({f.attributes for f in checks}) == len(checks)
        assert [s for f in checks for s in f.iter_scales()] == streamed


class TestReconstruction:
    def test_trivial_clarification_is_identity(self):
        ctx = make_contranominal(3)
        _, cmap = clarify(ctx)
        scales = list(enumerate_scales(ctx))
        assert pairs_multiset(scales_from_clarified(scales, cmap)) == pairs_multiset(scales)

    def test_duplicated_attribute_doubles_scales(self):
        # column y duplicates column x; scales touching x must reappear with y
        ctx = FormalContext(
            ["a", "b"],
            ["x", "y", "z"],
            [[0, 0, 1], [1, 1, 0]],
        )
        clarified, cmap = clarify(ctx)
        expanded = pairs_multiset(
            scales_from_clarified(enumerate_scales(clarified), cmap)
        )
        assert expanded == pairs_multiset(enumerate_bruteforce(ctx))

    def test_trivial_reduction_is_identity(self):
        ctx = make_contranominal(3)
        reduced, trace = reduce_context(ctx)
        scales = list(enumerate_scales(reduced))
        assert pairs_multiset(scales_from_reduced(scales, trace, ctx)) == pairs_multiset(
            scales
        )

    def test_restores_scales_of_removed_column(self):
        # column z = x AND y gets reduced away but still carries scales
        ctx = FormalContext(
            ["g1", "g2", "g3"],
            ["x", "y", "z"],
            [[1, 0, 0], [1, 1, 1], [0, 1, 0]],
        )
        reduced, trace = reduce_context(ctx)
        restored = pairs_multiset(
            scales_from_reduced(enumerate_scales(reduced), trace, ctx)
        )
        assert restored == pairs_multiset(enumerate_bruteforce(ctx))

    def test_pipeline_equals_direct_enumeration(self, seeded):
        rng = seeded(309)
        for _ in range(20):
            ctx = inject_duplicates(random_context(rng, 6, 6), rng)
            clarified, cmap = clarify(ctx)
            reduced, trace = reduce_context(clarified)
            restored = scales_from_reduced(enumerate_scales(reduced), trace, clarified)
            expanded = pairs_multiset(scales_from_clarified(restored, cmap))
            assert expanded == pairs_multiset(enumerate_scales(ctx))

    def test_mismatched_map_rejected(self):
        ctx = make_contranominal(2)
        _, cmap = clarify(ctx)
        alien = ContranominalScale(((5, 7),))
        with pytest.raises(ValueError):
            list(scales_from_clarified([alien], cmap))

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param(((-1, -1),), id="both-negative"),
            pytest.param(((0, -1),), id="attribute-negative"),
            pytest.param(((-1, 0),), id="object-negative"),
            pytest.param(((3, 0),), id="object-too-large"),
            pytest.param(((0, 3),), id="attribute-too-large"),
        ],
    )
    def test_index_outside_the_map_rejected(self, pairs):
        ctx = make_contranominal(3)
        _, cmap = clarify(ctx)
        _, trace = reduce_context(ctx)
        alien = ContranominalScale(pairs)
        with pytest.raises(ValueError, match="clarification map"):
            list(scales_from_clarified([alien], cmap))
        with pytest.raises(ValueError, match="reduction trace"):
            list(scales_from_reduced([alien], trace, ctx))

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param(((0, 0), (0, 1)), id="repeated-object"),
            pytest.param(((0, 0), (1, 0)), id="repeated-attribute"),
            pytest.param(((1, 1), (0, 0)), id="unsorted"),
            pytest.param((), id="empty"),
        ],
    )
    def test_what_is_not_shaped_as_a_scale_of_the_clarified_context_is_rejected(self, pairs):
        # The clarified context keeps objects a, b and attributes x, z; its
        # one scale of dimension 2 is ((0, 0), (1, 1)).
        ctx = FormalContext(["a", "b"], ["x", "y", "z"], [[0, 0, 1], [1, 1, 0]])
        _, cmap = clarify(ctx)
        assert list(scales_from_clarified([ContranominalScale(((0, 0), (1, 1)))], cmap)) == [
            ContranominalScale(((0, 0), (1, 2))),
            ContranominalScale(((0, 1), (1, 2))),
        ]
        with pytest.raises(ValueError, match="^scale does not match the clarification map$"):
            list(scales_from_clarified([ContranominalScale(pairs)], cmap))

    @pytest.mark.parametrize(
        "pairs",
        [
            pytest.param(((1, 0), (1, 1)), id="repeated-object"),
            pytest.param(((0, 1), (1, 0)), id="unsorted"),
            pytest.param(((0, 0),), id="incident-pair"),
            pytest.param((), id="empty"),
        ],
    )
    def test_what_is_not_a_scale_of_the_reduced_context_is_rejected(self, pairs):
        # The reduced context keeps objects g1, g3 and attributes x, y; its
        # one scale of dimension 2 is ((1, 0), (0, 1)).
        ctx = FormalContext(
            ["g1", "g2", "g3"],
            ["x", "y", "z"],
            [[1, 0, 0], [1, 1, 1], [0, 1, 0]],
        )
        _, trace = reduce_context(ctx)
        with pytest.raises(ValueError, match="^scale does not match the reduction trace$"):
            list(scales_from_reduced([ContranominalScale(pairs)], trace, ctx))


class TestBipartiteAdapter:
    def test_complete_bipartite_has_only_single_edges(self):
        graph = BipartiteGraph(
            ("s0", "s1"), ("t0", "t1"), ((0, 0), (0, 1), (1, 0), (1, 1))
        )
        matchings = sorted(induced_matchings(graph))
        assert matchings == [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]

    def test_perfect_matching_yields_all_submatchings(self):
        for k in range(1, 5):
            graph = BipartiteGraph(
                tuple(f"s{i}" for i in range(k)),
                tuple(f"t{i}" for i in range(k)),
                tuple((i, i) for i in range(k)),
            )
            matchings = set(induced_matchings(graph))
            assert len(matchings) == 2**k - 1
            for size in range(1, k + 1):
                for chosen in combinations(range(k), size):
                    assert tuple((i, i) for i in chosen) in matchings

    def test_edgeless_graph_has_no_matchings(self):
        graph = BipartiteGraph(("s0",), ("t0", "t1"), ())
        assert list(induced_matchings(graph)) == []

    @pytest.mark.parametrize("edge", [(5, 0), (0, 7), (-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_edge_outside_the_vertex_sets_is_refused(self, edge):
        graph = BipartiteGraph(("s0", "s1"), ("t0", "t1"), ((0, 0), (1, 1), edge))
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            list(induced_matchings(graph))

    def test_adapter_round_trip(self, seeded):
        rng = seeded(311)
        for _ in range(10):
            ctx = random_context(rng, 5, 5)
            matchings = sorted(induced_matchings(to_bipartite(ctx)))
            assert matchings == pairs_multiset(enumerate_scales(ctx))


class TestSerialization:
    def test_line_format(self, cli_stdout):
        lines = cli_stdout(make_contranominal(2), "scales", "--pretty").splitlines()
        assert lines == [
            "dim=1; pairs=(1,1)",
            "dim=2; pairs=(1,1),(2,2)",
            "dim=1; pairs=(2,2)",
        ]

from itertools import combinations, product
from math import comb

import pytest

from contrascale import scales
from contrascale.context import (
    FormalContext,
    clarify,
    complement,
    make_contranominal,
    reduce_context,
)
from contrascale.scales import (
    BipartiteGraph,
    ContranominalScale,
    ScaleFamily,
    conflict_graph,
    count_scales,
    enumerate_bronkerbosch,
    enumerate_bruteforce,
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

    def test_forbidden_is_the_complement_of_the_extent(self, seeded):
        for ctx in _walk_contexts(seeded(312), 40):
            for attrs, _, forbidden, _ in scales._walk(ctx):
                extent = ctx.extent_mask(sum(1 << m for m in attrs))
                assert forbidden == ctx.all_objects_mask & ~extent

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
        ],
    )
    def test_index_outside_the_context_fails(self, pairs):
        assert not ContranominalScale(pairs).is_valid_in(self.CTX)


def _every_scale_valid(family, ctx):
    return all(s.is_valid_in(ctx) for s in family.iter_scales())


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
        monkeypatch.setattr(scales, "iter_scale_families", lambda ctx: iter([corrupted]))
        with pytest.raises(AssertionError):
            list(enumerate_scales(self.CTX))


def _zipped_scales(family):
    """The scales of ``family``, one ``zip`` of each choice of objects with the attributes."""
    for choice in product(*family.witness_indices()):
        yield ContranominalScale(tuple(zip(choice, family.attributes)))


def _mapped_families(monkeypatch, ctx, min_dimension):
    """The families ``enumerate_scales`` maps back from the core and streams."""
    checked = []
    is_valid_in = ScaleFamily.is_valid_in

    def recorded(family, context):
        checked.append(family)
        return is_valid_in(family, context)

    with monkeypatch.context() as patch:
        patch.setattr(ScaleFamily, "is_valid_in", recorded)
        for _ in enumerate_scales(ctx, min_dimension=min_dimension):
            pass
    return checked


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
            families = _mapped_families(monkeypatch, ctx, 3)
            self._assert_zipped(families)
            # A core that drops an object below a kept one renumbers the objects.
            _, sel = scales._min_dimension_core(ctx, 3)
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
        checks = []
        is_valid_in = ScaleFamily.is_valid_in

        def counted(family, ctx):
            checks.append(family)
            return is_valid_in(family, ctx)

        monkeypatch.setattr(ScaleFamily, "is_valid_in", counted)
        streamed = list(enumerate_scales(medical_diagnosis(), min_dimension=2))
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

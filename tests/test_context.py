import pytest

from contrascale.context import (
    FormalContext,
    NotClarifiedError,
    SubcontextSelection,
    apply_selection,
    clarify,
    complement,
    derive_attributes,
    derive_objects,
    make_contranominal,
    pq_core,
    reduce_context,
)
from contrascale.datasets import medical_diagnosis
from conftest import context_from_rows, inject_duplicates, random_context


def brute_derive_attributes(ctx, objects):
    result = set(range(ctx.n_attributes))
    for g in objects:
        result &= {m for m in range(ctx.n_attributes) if ctx.incident(g, m)}
    return tuple(sorted(result))


def brute_derive_objects(ctx, attributes):
    result = set(range(ctx.n_objects))
    for m in attributes:
        result &= {g for g in range(ctx.n_objects) if ctx.incident(g, m)}
    return tuple(sorted(result))


class TestConstruction:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FormalContext(["a", "a"], ["x"], [[1], [0]])
        with pytest.raises(ValueError):
            FormalContext(["a", "b"], ["x", "x"], [[1, 0], [0, 1]])

    def test_ragged_incidence_rejected(self):
        with pytest.raises(ValueError):
            FormalContext(["a"], ["x", "y"], [[1]])
        with pytest.raises(ValueError):
            FormalContext(["a", "b"], ["x"], [[1]])

    def test_from_masks_rejects_out_of_range_masks(self):
        for objects, attributes, rows, bad in (
            (["g"], ["m"], [0b10], 0),
            (["g", "h"], ["m", "n"], [0b01, -1], 1),
            (["g", "h"], [], [0, 1], 1),
        ):
            with pytest.raises(ValueError, match=f"row {bad} "):
                FormalContext.from_masks(objects, attributes, rows)
        assert FormalContext.from_masks(["g", "h"], ["m", "n"], [0b11, 0]).rows() == (0b11, 0)

    def test_make_contranominal(self):
        one = make_contranominal(1)
        assert one.n_objects == one.n_attributes == 1
        assert not one.incident(0, 0)
        three = make_contranominal(3)
        crosses = sum(sum(row) for row in three.incidence_rows())
        assert crosses == 6
        assert all(not three.incident(i, i) for i in range(3))

    def test_make_contranominal_rejects_zero(self):
        with pytest.raises(ValueError):
            make_contranominal(0)

    def test_empty_contexts_are_legal(self):
        no_objects = FormalContext([], ["x"], [])
        assert derive_attributes(no_objects, []) == (0,)
        no_attributes = FormalContext(["a"], [], [[]])
        assert derive_objects(no_attributes, []) == (0,)


class TestDerivations:
    def test_empty_object_set_yields_all_attributes(self):
        ctx = make_contranominal(4)
        assert derive_attributes(ctx, []) == (0, 1, 2, 3)

    def test_empty_attribute_set_yields_all_objects(self):
        ctx = make_contranominal(4)
        assert derive_objects(ctx, []) == (0, 1, 2, 3)

    def test_contranominal_single_object(self):
        ctx = make_contranominal(3)
        assert derive_attributes(ctx, [0]) == (1, 2)

    def test_contranominal_attribute_pair(self):
        ctx = make_contranominal(3)
        assert derive_objects(ctx, [1, 2]) == (0,)

    def test_out_of_range(self):
        ctx = make_contranominal(2)
        with pytest.raises(IndexError):
            derive_attributes(ctx, [5])
        with pytest.raises(IndexError):
            derive_objects(ctx, [-1])

    def test_against_brute_force(self, seeded):
        rng = seeded(101)
        for _ in range(30):
            ctx = random_context(rng, 6, 6)
            for _ in range(5):
                objs = [g for g in range(ctx.n_objects) if rng.randrange(2)]
                atts = [m for m in range(ctx.n_attributes) if rng.randrange(2)]
                assert derive_attributes(ctx, objs) == brute_derive_attributes(ctx, objs)
                assert derive_objects(ctx, atts) == brute_derive_objects(ctx, atts)

    def test_antitone_and_extensive(self, seeded):
        rng = seeded(102)
        for _ in range(20):
            ctx = random_context(rng, 6, 6)
            objs = [g for g in range(ctx.n_objects) if rng.randrange(2)]
            sub = objs[: len(objs) // 2]
            assert set(derive_attributes(ctx, objs)) <= set(derive_attributes(ctx, sub))
            closure = derive_objects(ctx, derive_attributes(ctx, objs))
            assert set(objs) <= set(closure)


class TestComplement:
    def test_full_becomes_empty(self):
        ctx = FormalContext(["a", "b"], ["x", "y"], [[1, 1], [1, 1]])
        comp = complement(ctx)
        assert all(not any(row) for row in comp.incidence_rows())

    def test_contranominal_complement_is_identity_relation(self):
        comp = complement(make_contranominal(4))
        for i in range(4):
            for j in range(4):
                assert comp.incident(i, j) == (i == j)

    def test_involution(self, seeded):
        rng = seeded(103)
        for _ in range(10):
            ctx = random_context(rng)
            assert complement(complement(ctx)) == ctx


class TestClarify:
    def test_identity_on_clarified(self):
        ctx = make_contranominal(3)
        clarified, cmap = clarify(ctx)
        assert clarified == ctx
        assert cmap.is_trivial

    def test_merges_identical_columns(self):
        ctx = context_from_rows(["110", "011"])  # columns 0 and ... none equal
        ctx = FormalContext(["a", "b"], ["x", "y", "z"], [[1, 1, 0], [0, 0, 1]])
        clarified, cmap = clarify(ctx)
        assert clarified.n_attributes == 2
        assert (0, 1) in cmap.attribute_classes

    def test_round_trip_reconstruction(self, seeded):
        rng = seeded(104)
        for _ in range(25):
            base = random_context(rng, 6, 6)
            ctx = inject_duplicates(base, rng)
            clarified, cmap = clarify(ctx)
            # expand: original cell = clarified cell of the representative classes
            obj_of = {}
            for i, cls in enumerate(cmap.object_classes):
                for member in cls:
                    obj_of[member] = i
            att_of = {}
            for j, cls in enumerate(cmap.attribute_classes):
                for member in cls:
                    att_of[member] = j
            for g in range(ctx.n_objects):
                for m in range(ctx.n_attributes):
                    assert ctx.incident(g, m) == clarified.incident(obj_of[g], att_of[m])

    def test_idempotent(self, seeded):
        rng = seeded(105)
        for _ in range(10):
            ctx = inject_duplicates(random_context(rng, 5, 5), rng)
            once, _ = clarify(ctx)
            twice, cmap = clarify(once)
            assert once == twice and cmap.is_trivial


class TestReduce:
    def test_contranominal_is_already_reduced(self):
        ctx = make_contranominal(4)
        reduced, trace = reduce_context(ctx)
        assert reduced == ctx
        assert trace.is_trivial

    def test_intersection_column_removed(self):
        # column z equals the cell-wise AND of x and y
        ctx = FormalContext(
            ["g1", "g2", "g3"],
            ["x", "y", "z"],
            [[1, 0, 0], [1, 1, 1], [0, 1, 0]],
        )
        reduced, trace = reduce_context(ctx)
        assert reduced.attributes == ("x", "y")
        assert trace.removed_attributes == ((2, (0, 1)),)

    def test_reducible_attribute_and_object(self):
        # column e = AND of columns c,d; row 5's attributes = AND of rows 4,6
        ctx = FormalContext(
            ["1", "2", "3", "4", "5", "6"],
            ["a", "b", "c", "d", "e"],
            [
                [1, 1, 0, 0, 0],
                [1, 0, 1, 0, 0],
                [0, 1, 1, 0, 0],
                [0, 0, 1, 1, 1],
                [0, 0, 0, 1, 0],
                [0, 1, 0, 1, 0],
            ],
        )
        reduced, trace = reduce_context(ctx)
        assert trace.removed_attributes == ((4, (2, 3)),)
        assert trace.removed_objects == ((4, (3, 5)),)
        assert reduced.attributes == ("a", "b", "c", "d")
        assert reduced.objects == ("1", "2", "3", "4", "6")

    def test_diagnosis_fixture_already_reduced(self):
        ctx = medical_diagnosis()
        reduced, trace = reduce_context(ctx)
        assert reduced == ctx
        assert trace.is_trivial

    def test_rejects_unclarified_input(self):
        ctx = FormalContext(["a", "b"], ["x", "y"], [[1, 1], [0, 0]])
        with pytest.raises(NotClarifiedError):
            reduce_context(ctx)

    def test_idempotent(self, seeded):
        rng = seeded(106)
        for _ in range(15):
            ctx, _ = clarify(random_context(rng, 6, 6))
            once, _ = reduce_context(ctx)
            twice, trace = reduce_context(once)
            assert once == twice and trace.is_trivial


class TestPQCore:
    def test_zero_zero_is_full(self, seeded):
        ctx = random_context(seeded(107))
        sel = pq_core(ctx, 0, 0)
        assert sel.object_indices == tuple(range(ctx.n_objects))
        assert sel.attribute_indices == tuple(range(ctx.n_attributes))

    def test_contranominal_survives_two_two(self):
        ctx = make_contranominal(3)
        sel = pq_core(ctx, 2, 2)
        assert sel.object_indices == (0, 1, 2)
        assert sel.attribute_indices == (0, 1, 2)

    def test_oversized_p_empties_selection(self):
        ctx = make_contranominal(3)
        sel = pq_core(ctx, 4, 0)
        assert sel.object_indices == ()

    def test_unique_regardless_of_peeling_order(self, seeded):
        rng = seeded(108)
        for _ in range(20):
            ctx = random_context(rng, 7, 7)
            p, q = rng.randrange(4), rng.randrange(4)
            sel = pq_core(ctx, p, q)
            # independent peeler: random single removals until stable
            objs = set(range(ctx.n_objects))
            atts = set(range(ctx.n_attributes))
            while True:
                bad_objs = [
                    g for g in objs if sum(ctx.incident(g, m) for m in atts) < p
                ]
                bad_atts = [
                    m for m in atts if sum(ctx.incident(g, m) for g in objs) < q
                ]
                candidates = [("g", g) for g in bad_objs] + [("m", m) for m in bad_atts]
                if not candidates:
                    break
                kind, idx = candidates[rng.randrange(len(candidates))]
                (objs if kind == "g" else atts).discard(idx)
            assert sel.object_indices == tuple(sorted(objs))
            assert sel.attribute_indices == tuple(sorted(atts))


class TestApplySelection:
    def test_full_selection_copies(self, seeded):
        ctx = random_context(seeded(109))
        sel = SubcontextSelection(
            ctx, tuple(range(ctx.n_objects)), tuple(range(ctx.n_attributes))
        )
        assert apply_selection(sel) == ctx

    def test_empty_attribute_selection(self, seeded):
        ctx = random_context(seeded(110))
        sel = SubcontextSelection(ctx, tuple(range(ctx.n_objects)), ())
        sub = apply_selection(sel)
        assert sub.n_attributes == 0 and sub.n_objects == ctx.n_objects

    def test_cellwise(self, seeded):
        rng = seeded(111)
        for _ in range(15):
            ctx = random_context(rng, 7, 7)
            objs = tuple(g for g in range(ctx.n_objects) if rng.randrange(2))
            atts = tuple(m for m in range(ctx.n_attributes) if rng.randrange(2))
            sub = apply_selection(SubcontextSelection(ctx, objs, atts))
            for i, g in enumerate(objs):
                for j, m in enumerate(atts):
                    assert sub.incident(i, j) == ctx.incident(g, m)

    def test_invalid_selection_rejected(self):
        ctx = make_contranominal(2)
        with pytest.raises(ValueError):
            SubcontextSelection(ctx, (1, 0), (0,))
        with pytest.raises(ValueError):
            SubcontextSelection(ctx, (0,), (5,))

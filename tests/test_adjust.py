from fractions import Fraction

import pytest

from contrascale.adjust import (
    AttributeInfluence,
    CubicSet,
    InfluenceReport,
    NotPreprocessedError,
    cubic_sets,
    delta_adjust,
    influence,
    select_attributes,
)
from contrascale.context import (
    FormalContext,
    SubcontextSelection,
    apply_selection,
    clarify,
    make_contranominal,
    reduce_context,
)
from contrascale.datasets import medical_diagnosis
from contrascale.lattice import enumerate_concepts
from contrascale.scales import enumerate_bruteforce, enumerate_scales, iter_scale_families
from conftest import random_context

# Golden influence table of the bundled diagnosis context: cubic-set counts
# per dimension and the influence score, per attribute.
DIAGNOSIS_INFLUENCE = {
    "a": ({2: 1, 3: 22, 4: 6}, 84.7),
    "b": ({2: 1, 3: 29}, 79.3),
    "c": ({2: 1, 3: 31, 4: 9}, 120.7),
    "d": ({2: 2, 3: 19}, 54.7),
    "e": ({3: 16, 4: 3}, 54.7),
    "f": ({2: 1, 3: 31}, 84.7),
    "g": ({2: 2, 3: 24, 4: 5}, 88.0),
    "h": ({2: 1, 3: 18, 4: 5}, 70.0),
    "i": ({2: 3, 3: 16}, 48.7),
    "j": ({2: 1, 3: 19, 4: 1}, 56.7),
    "k": ({2: 1, 3: 33}, 90.0),
    "l": ({2: 3, 3: 17}, 51.3),
    "m": ({3: 21, 4: 7}, 84.0),
    "n": ({2: 2, 3: 23, 4: 3}, 77.3),
    "o": ({2: 1, 3: 26, 4: 1}, 75.3),
}

HALF_ADJUSTED = tuple("dehijlno")


def preprocessed(ctx):
    ctx, _ = clarify(ctx)
    ctx, _ = reduce_context(ctx)
    return ctx


def cubic_oracle(ctx):
    """Walked attribute sets with no walked set one attribute larger."""
    walked = {f.attributes: f.witness_indices() for f in iter_scale_families(ctx)}
    carriers = {frozenset(attrs) for attrs in walked}
    return [
        CubicSet(attrs, len(attrs), witnesses)
        for attrs, witnesses in walked.items()
        if not any(
            frozenset(attrs) | {m} in carriers
            for m in range(ctx.n_attributes)
            if m not in attrs
        )
    ]


def bruteforce_cubic_oracle(ctx):
    """Cubic sets from the definition, on the brute-force scales alone.

    The attribute sets of all scales, less those with a one-attribute
    superset among them; attribute a_i of a set A is witnessed by the
    objects g with row(g) & A == A - {a_i}.
    """
    carriers = {frozenset(s.attribute_indices) for s in enumerate_bruteforce(ctx)}
    cubes = []
    for carrier in carriers:
        if any(carrier | {m} in carriers for m in range(ctx.n_attributes) if m not in carrier):
            continue
        attrs = tuple(sorted(carrier))
        mask = sum(1 << m for m in attrs)
        witnesses = tuple(
            tuple(g for g in range(ctx.n_objects) if ctx.row(g) & mask == mask & ~(1 << m))
            for m in attrs
        )
        cubes.append(CubicSet(attrs, len(attrs), witnesses))
    return sorted(cubes, key=lambda c: c.attributes)


class TestCubicSets:
    def test_contranominal_has_one_maximal_set(self):
        cubes = cubic_sets(make_contranominal(3))
        assert len(cubes) == 1
        cube = cubes[0]
        assert cube.attributes == (0, 1, 2)
        assert cube.dimension == 3
        assert cube.witnesses == ((0,), (1,), (2,))

    def test_full_incidence_has_none(self):
        # full incidence is itself unclarified, so skip the gate explicitly
        ctx = FormalContext(["a", "b"], ["x", "y"], [[1, 1], [1, 1]])
        assert cubic_sets(ctx, require_preprocessed=False) == []

    def test_witness_choices_are_scales(self, seeded):
        rng = seeded(501)
        for _ in range(10):
            ctx = preprocessed(random_context(rng, 6, 6))
            if ctx.n_attributes == 0:
                continue
            all_scales = {s.pairs for s in enumerate_scales(ctx)}
            for cube in cubic_sets(ctx):
                first_choice = tuple(w[0] for w in cube.witnesses)
                pairs = tuple(zip(first_choice, cube.attributes))
                assert pairs in all_scales

    def test_random_contexts_match_oracle(self, seeded):
        rng = seeded(506)
        for _ in range(30):
            raw = random_context(rng, 8, 8)
            assert cubic_sets(raw, require_preprocessed=False) == cubic_oracle(raw)
            ctx = preprocessed(raw)
            expected = cubic_oracle(ctx)
            assert cubic_sets(ctx) == expected
            for entry in influence(ctx).per_attribute:
                counts: dict[int, int] = {}
                for cube in expected:
                    if entry.attribute in cube.attributes:
                        counts[cube.dimension] = counts.get(cube.dimension, 0) + 1
                assert entry.cubic_counts == counts

    def test_random_contexts_match_bruteforce_oracle(self, seeded):
        rng = seeded(507)
        for _ in range(30):
            raw = random_context(rng, 7, 7)
            assert cubic_sets(raw, require_preprocessed=False) == bruteforce_cubic_oracle(raw)
            ctx = preprocessed(raw)
            assert cubic_sets(ctx) == bruteforce_cubic_oracle(ctx)

    def test_rejects_unclarified(self):
        ctx = FormalContext(["a", "b"], ["x", "y"], [[1, 1], [0, 0]])
        with pytest.raises(NotPreprocessedError):
            cubic_sets(ctx)

    def test_rejects_unreduced(self):
        # column z is the intersection of x and y
        ctx = FormalContext(
            ["g1", "g2", "g3"],
            ["x", "y", "z"],
            [[1, 0, 0], [1, 1, 1], [0, 1, 0]],
        )
        with pytest.raises(NotPreprocessedError):
            cubic_sets(ctx)


class TestInfluence:
    def test_diagnosis_counts_and_scores(self):
        report = influence(medical_diagnosis())
        assert len(report.per_attribute) == 15
        for entry in report.per_attribute:
            counts, zeta = DIAGNOSIS_INFLUENCE[entry.label]
            assert dict(entry.cubic_counts) == counts
            assert abs(entry.zeta - zeta) <= 0.05

    def test_diagnosis_attribute_c_row(self):
        report = influence(medical_diagnosis())
        entry = report.per_attribute[2]
        assert entry.label == "c"
        assert dict(entry.cubic_counts) == {2: 1, 3: 31, 4: 9}

    def test_contranominal_scores(self):
        report = influence(make_contranominal(3))
        for entry in report.per_attribute:
            assert entry.cubic_counts == {3: 1}
            assert entry.zeta_exact == Fraction(8, 3)

    def test_score_matches_formula(self, seeded):
        rng = seeded(502)
        for _ in range(10):
            ctx = preprocessed(random_context(rng, 6, 6))
            for entry in influence(ctx).per_attribute:
                assert entry.zeta_exact == sum(
                    (Fraction(2**k, k) * c for k, c in entry.cubic_counts.items()),
                    start=Fraction(0),
                )


class TestDeltaAdjust:
    def test_diagnosis_half_selection(self):
        ctx = medical_diagnosis()
        selection = delta_adjust(ctx, 0.5)
        labels = tuple(ctx.attributes[m] for m in selection.attributes)
        assert labels == HALF_ADJUSTED

    def test_extremes(self, seeded):
        ctx = preprocessed(random_context(seeded(503), 6, 6, densities=(0.5,)))
        assert delta_adjust(ctx, 0).attributes == ()
        assert delta_adjust(ctx, 1).attributes == tuple(range(ctx.n_attributes))

    def test_out_of_range_delta(self):
        ctx = make_contranominal(2)
        with pytest.raises(ValueError):
            delta_adjust(ctx, 1.5)
        with pytest.raises(ValueError):
            delta_adjust(ctx, -0.1)

    def test_selection_size_is_ceiling(self):
        ctx = medical_diagnosis()
        assert len(delta_adjust(ctx, 0.5).attributes) == 8  # ceil(7.5)
        assert len(delta_adjust(ctx, "1/15").attributes) == 1
        # decimal deltas are read at decimal precision: 0.2 of 15 is exactly 3
        assert len(delta_adjust(ctx, 0.2).attributes) == 3

    def test_monotone_in_delta(self, seeded):
        rng = seeded(504)
        ctx = medical_diagnosis()
        report = influence(ctx)
        previous: set[int] = set()
        for i in range(16):
            chosen = set(select_attributes(report, Fraction(i, 15)))
            assert previous <= chosen
            previous = chosen

    def test_selection_depends_only_on_score_order(self):
        report = influence(medical_diagnosis())
        scaled = InfluenceReport(
            tuple(
                AttributeInfluence(
                    a.attribute, a.label, a.cubic_counts, a.zeta_exact * 17
                )
                for a in report.per_attribute
            )
        )
        for delta in ("0", "0.25", "0.5", "0.75", "1"):
            assert select_attributes(report, delta) == select_attributes(scaled, delta)

    def test_no_new_scales_and_sub_meet_semilattice(self, seeded):
        rng = seeded(505)
        for _ in range(12):
            ctx = preprocessed(random_context(rng, 7, 7, densities=(0.3, 0.5, 0.7)))
            if ctx.n_attributes == 0:
                continue
            delta = Fraction(rng.randrange(11), 10)
            chosen = delta_adjust(ctx, delta).attributes
            sub = apply_selection(
                SubcontextSelection(ctx, tuple(range(ctx.n_objects)), chosen)
            )
            full_scales = {s.pairs for s in enumerate_scales(ctx)}
            for s in enumerate_scales(sub):
                mapped = tuple((g, chosen[m]) for g, m in s.pairs)
                assert mapped in full_scales
            sub_extents = {c.extent_mask for c in enumerate_concepts(sub)}
            full_extents = {c.extent_mask for c in enumerate_concepts(ctx)}
            assert sub_extents <= full_extents
            for a in sub_extents:
                for b in sub_extents:
                    assert a & b in sub_extents


class TestRendering:
    def test_diagnosis_table(self, cli_stdout):
        table = cli_stdout(medical_diagnosis(), "influence", "--pretty", "--delta", "0.5")
        lines = table.splitlines()
        assert lines[0].split() == ["attribute", "2", "3", "4", "zeta", "selected"]
        c_row = next(line for line in lines if line.startswith("c "))
        assert c_row.split() == ["c", "1", "31", "9", "120.7"]
        i_row = next(line for line in lines if line.startswith("i "))
        assert i_row.split() == ["i", "3", "16", "0", "48.7", "*"]

    def test_contranominal_table_rounds_scores(self, cli_stdout):
        table = cli_stdout(make_contranominal(3), "influence", "--pretty")
        for line in table.splitlines()[1:]:
            assert line.split()[-1] == "2.7"

    def test_empty_context_renders_empty(self, cli_stdout):
        assert cli_stdout(FormalContext([], [], []), "influence", "--pretty") == "\n"

    def test_csv_and_json_forms(self, cli_stdout):
        ctx = medical_diagnosis()
        csv_text = cli_stdout(ctx, "influence", "--csv")
        assert csv_text.splitlines()[0] == "attribute,2,3,4,zeta"
        assert "c,1,31,9,120.7" in csv_text
        import json

        payload = json.loads(cli_stdout(ctx, "influence"))
        assert payload[2]["label"] == "c"
        assert payload[2]["counts"] == {"2": 1, "3": 31, "4": 9}

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Random corpora are seeded per criterion
with a fixed master seed; seeds were chosen up front, not tuned to outcomes.
Large public datasets are not bundled: criterion 8 (and the optional
mushroom arm of criterion 9) run only when a context file is dropped under
``tests/data/``, and are reported as SKIP otherwise.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from contrascale.adjust import delta_adjust, influence
from contrascale.bench import ExperimentConfig, run_knowledge_experiment
from contrascale.cli import main
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
from contrascale.formats import dumps_cxt, load_context
from contrascale.lattice import (
    Implication,
    canonical_base,
    enumerate_concepts,
    is_valid_implication,
    restrict_base_on_removal,
)
from contrascale.rng import SplitMix64, derive_seed
from contrascale.scales import (
    count_scales,
    enumerate_bronkerbosch,
    enumerate_scales,
    scales_from_clarified,
    scales_from_reduced,
)
from conftest import random_context
from oracles import close_under, enumerate_bruteforce

MASTER_SEED = 0xC0FFEE
DATA_DIR = Path(__file__).parent / "data"

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


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE criterion {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({title}): PASS")


def rng_for(criterion_number: int) -> SplitMix64:
    return SplitMix64(derive_seed(MASTER_SEED, criterion_number))


def pairs_multiset(stream):
    return sorted(s.pairs for s in stream)


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence"):
        start = time.perf_counter()
        rng = rng_for(1)
        contexts = [
            random_context(rng, 8, 8, densities=(0.1, 0.3, 0.5, 0.7, 0.9))
            for _ in range(200)
        ]
        contexts.extend(make_contranominal(k) for k in range(1, 6))
        for ctx in contexts:
            primary = [s.pairs for s in enumerate_scales(ctx)]
            assert len(primary) == len(set(primary)), "duplicate scale emitted"
            assert (
                sorted(primary)
                == pairs_multiset(enumerate_bronkerbosch(ctx))
                == pairs_multiset(enumerate_bruteforce(ctx))
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_02_diagnosis_golden():
    with criterion(2, "diagnosis-context golden reproduction"):
        start = time.perf_counter()
        ctx = medical_diagnosis()
        report = influence(ctx)
        for entry in report.per_attribute:
            counts, zeta = DIAGNOSIS_INFLUENCE[entry.label]
            assert dict(entry.cubic_counts) == counts, entry.label
            assert abs(entry.zeta - zeta) <= 0.05, entry.label
        chosen = delta_adjust(ctx, 0.5).attributes
        assert tuple(ctx.attributes[m] for m in chosen) == tuple("dehijlno")
        assert len(enumerate_concepts(ctx)) == 88
        sub = apply_selection(SubcontextSelection(ctx, tuple(range(14)), chosen))
        assert len(enumerate_concepts(sub)) == 29
        assert len(canonical_base(ctx)) == 40
        assert len(canonical_base(sub)) == 11
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_03_counting_laws():
    with criterion(3, "counting laws on contranominal scales"):
        for k in range(1, 13):
            assert len(enumerate_concepts(make_contranominal(k))) == 2**k
        for k in range(1, 6):
            ctx = make_contranominal(k)
            count = count_scales(ctx)
            assert count.total == 2**k - 1
            assert count.histogram == {j: comb(k, j) for j in range(1, k + 1)}
            brute = pairs_multiset(enumerate_bruteforce(ctx))
            assert count.total == len(brute)
            hist = {}
            for pairs in brute:
                hist[len(pairs)] = hist.get(len(pairs), 0) + 1
            assert count.histogram == hist


def test_criterion_04_core_pruning():
    with criterion(4, "core pruning preserves large scales"):
        rng = rng_for(4)
        for _ in range(50):
            ctx = random_context(rng, 10, 10)
            full = list(enumerate_scales(ctx))
            for k in (2, 3, 4):
                direct = sorted(s.pairs for s in full if s.dimension >= k)
                via_core = pairs_multiset(enumerate_scales(ctx, min_dimension=k))
                assert direct == via_core


def inject_duplicates_and_reducibles(ctx: FormalContext, rng: SplitMix64) -> FormalContext:
    rows = [list(r) for r in ctx.incidence_rows()]
    n_att = len(rows[0])
    # duplicate one row and one column
    rows.append(list(rows[rng.randrange(len(rows))]))
    dup_col = rng.randrange(n_att)
    for row in rows:
        row.append(row[dup_col])
    # a column that is the AND of two columns, and a row that is the AND of two rows
    c1, c2 = rng.randrange(n_att), rng.randrange(n_att)
    for row in rows:
        row.append(row[c1] & row[c2])
    r1, r2 = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows.append([a & b for a, b in zip(rows[r1], rows[r2])])
    return FormalContext(
        [f"g{i}" for i in range(len(rows))],
        [f"m{j}" for j in range(len(rows[0]))],
        rows,
    )


def test_criterion_05_reconstruction():
    with criterion(5, "reconstruction from clarified+reduced contexts"):
        rng = rng_for(5)
        for _ in range(50):
            ctx = inject_duplicates_and_reducibles(random_context(rng, 6, 6), rng)
            clarified, cmap = clarify(ctx)
            reduced, trace = reduce_context(clarified)
            restored = scales_from_reduced(enumerate_scales(reduced), trace, clarified)
            expanded = pairs_multiset(scales_from_clarified(restored, cmap))
            assert expanded == pairs_multiset(enumerate_scales(ctx))


def test_criterion_06_implication_properties():
    with criterion(6, "implication properties under attribute restriction"):
        rng = rng_for(6)
        for _ in range(50):
            ctx = random_context(rng, 7, 7)
            n_obj, n_att = ctx.n_objects, ctx.n_attributes
            base = canonical_base(ctx)
            base_size = len(base)
            for size in range(0, min(4, n_att) + 1):
                for keep in combinations(range(n_att), size):
                    sub = apply_selection(
                        SubcontextSelection(ctx, tuple(range(n_obj)), keep)
                    )
                    pos = {m: i for i, m in enumerate(keep)}
                    # validity over the subset agrees between both contexts
                    subsets = [
                        tuple(c)
                        for s2 in range(size + 1)
                        for c in combinations(keep, s2)
                    ]
                    for premise in subsets:
                        for conclusion in subsets:
                            assert is_valid_implication(
                                ctx, Implication(premise, conclusion)
                            ) == is_valid_implication(
                                sub,
                                Implication(
                                    tuple(pos[m] for m in premise),
                                    tuple(pos[m] for m in conclusion),
                                ),
                            )
                    # canonical base never grows
                    assert len(canonical_base(sub)) <= base_size
                    # altered base stays sound and closure-complete
                    imps = list(base)
                    for m in range(n_att):
                        if m not in keep:
                            imps = restrict_base_on_removal(imps, m)
                    removed = set(range(n_att)) - set(keep)
                    for imp in imps:
                        assert is_valid_implication(ctx, imp)
                        assert not (set(imp.premise) | set(imp.conclusion)) & removed
                    for chosen in subsets:
                        got = {pos[a] for a in close_under(imps, chosen)}
                        sub_mask = 0
                        for m in chosen:
                            sub_mask |= 1 << pos[m]
                        assert got == set(mask_to_indices(sub.closure_mask(sub_mask)))


def test_criterion_07_adjusting_structure():
    with criterion(7, "delta-adjusting yields sub-meet-semilattices, no new scales"):
        rng = rng_for(7)
        done = 0
        while done < 50:
            raw = random_context(rng, 7, 7, densities=(0.3, 0.5, 0.7))
            ctx, _ = clarify(raw)
            ctx, _ = reduce_context(ctx)
            if ctx.n_attributes == 0:
                continue
            done += 1
            delta = Fraction(rng.randrange(11), 10)
            chosen = delta_adjust(ctx, delta).attributes
            sub = apply_selection(
                SubcontextSelection(ctx, tuple(range(ctx.n_objects)), chosen)
            )
            full_scales = {s.pairs for s in enumerate_scales(ctx)}
            for s in enumerate_scales(sub):
                assert tuple((g, chosen[m]) for g, m in s.pairs) in full_scales
            sub_extents = {c.extent_mask for c in enumerate_concepts(sub)}
            full_extents = {c.extent_mask for c in enumerate_concepts(ctx)}
            assert sub_extents <= full_extents
            for a in sub_extents:
                for b in sub_extents:
                    assert a & b in sub_extents


ZOO_PATH = DATA_DIR / "zoo.cxt"


@pytest.mark.skipif(
    not ZOO_PATH.exists(),
    reason=(
        "criterion 8 is conditional: the published preprocessed zoo context is "
        "not redistributable here and cannot be reconstructed offline; drop a "
        "Burmeister file at tests/data/zoo.cxt to enable the check"
    ),
)
def test_criterion_08_zoo_scale():
    with criterion(8, "zoo-scale reproduction"):
        ctx = load_context(ZOO_PATH, "cxt")
        start = time.perf_counter()
        count = count_scales(ctx)
        elapsed = time.perf_counter() - start
        assert elapsed < 600, f"count-only run took {elapsed:.0f}s, budget 600s"
        assert count.max_dimension == 7
        assert 4.05e7 <= count.total <= 4.15e7
        assert len(enumerate_concepts(ctx)) == 4579
        assert len(canonical_base(ctx)) == 401


MUSHROOM_PATH = DATA_DIR / "mushroom.cxt"


def test_criterion_09_knowledge_experiment():
    with criterion(9, "knowledge experiment (soft, statistical)"):
        ctx = medical_diagnosis()
        results = {}
        for method in ("adjusted", "sampled"):
            cfg = ExperimentConfig(
                seed=derive_seed(MASTER_SEED, 9),
                delta=0.5,
                repetitions=1000,
                split_fraction=0.5,
                method=method,
            )
            (results[method],) = run_knowledge_experiment(ctx, cfg)
        adjusted = results["adjusted"].mean_accuracy
        sampled = results["sampled"].mean_accuracy
        print(
            f"  diagnosis context: adjusted {adjusted:.3f} "
            f"({results['adjusted'].std_accuracy:.3f}), "
            f"sampled {sampled:.3f} ({results['sampled'].std_accuracy:.3f})"
        )
        assert adjusted >= sampled - 0.05
        if MUSHROOM_PATH.exists():
            mushroom = load_context(MUSHROOM_PATH, "cxt")
            (result,) = run_knowledge_experiment(
                mushroom,
                ExperimentConfig(
                    seed=derive_seed(MASTER_SEED, 9, 1),
                    delta=0.5,
                    repetitions=1000,
                    split_fraction=0.5,
                    method="adjusted",
                ),
            )
            assert abs(result.mean_accuracy - 0.98) <= 0.10
        else:
            print("  mushroom fixture absent; that arm not run")


def test_criterion_10_determinism(tmp_path, capsys):
    """Byte-identical outputs across three runs of each command.

    The ``bench`` subcommand is excluded: its payload is wall-clock timing,
    which is diagnostic rather than data.
    """
    with criterion(10, "deterministic pipeline outputs"):
        diagnosis = tmp_path / "diagnosis.cxt"
        diagnosis.write_text(dumps_cxt(medical_diagnosis()))
        dup = tmp_path / "dup.csv"
        dup.write_text(",x,y,z\na,1,1,0\nb,1,1,0\nc,0,0,1\n")
        fixture = str(diagnosis)
        commands: list[list[str]] = [
            ["convert", "--to", "csv", fixture],
            ["stats", "--full", fixture],
            ["preprocess", str(dup)],
            ["core", "-p", "2", "-q", "2", fixture],
            ["scales", fixture],
            ["scales", "--count-only", fixture],
            ["scales", "--pretty", fixture],
            ["influence", fixture],
            ["adjust", "--delta", "0.5", fixture],
            ["concepts", fixture],
            ["base", fixture],
            ["experiment", "structure", "--delta", "0.5", "--seed", "3", fixture],
            ["experiment", "knowledge", "--repetitions", "20", "--seed", "3", fixture],
        ]

        def run_bytes(argv: list[str]) -> bytes:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, argv
            return out.encode()

        for argv in commands:
            first = run_bytes(argv)
            assert run_bytes(argv) == first, f"second run differs for {argv}"
            assert run_bytes(argv) == first, f"third run differs for {argv}"

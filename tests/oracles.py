"""Definition-level oracles that the tests compare the package against.

None is used by the package itself: ``enumerate_bruteforce`` is the third
scale oracle beside the backtracking stream and Bron-Kerbosch,
``family_is_valid_rowwise`` checks a ``ScaleFamily`` one object row at a time,
``close_under`` closes an attribute set under a list of implications, and
``knowledge_one_at_a_time`` runs the knowledge experiment one repetition and
one scalar draw at a time.
"""

import math
from itertools import combinations
from typing import Iterable, Iterator

from contrascale import bench
from contrascale.adjust import delta_adjust
from contrascale.bench import ExperimentConfig, RepetitionRecord
from contrascale.context import FormalContext, indices_to_mask, mask_to_indices
from contrascale.lattice import Implication, _RuleIndex
from contrascale.rng import SplitMix64, derive_seed
from contrascale.tree import train_tree
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


def knowledge_one_at_a_time(ctx: FormalContext, cfg: ExperimentConfig) -> tuple:
    """The repetition records of ``run_knowledge_experiment``, one tuple per
    arm, drawn one repetition and one scalar ``randrange`` at a time.

    Each repetition derives its three sub-seeds, draws its label, checks its
    feature set, draws the ``n - cut`` split places that fix the test set and,
    for the sampled arm, a partial Fisher-Yates sample of the other attributes.
    """
    methods = bench.METHODS if cfg.method == "both" else (cfg.method,)
    selection = delta_adjust(ctx, cfg.delta).attributes
    cols = ctx.cols()
    everything = tuple(range(ctx.n_attributes))
    records = [[] for _ in methods]
    for rep in range(cfg.repetitions):
        label_seed, split_seed, features_seed = (
            derive_seed(cfg.seed, rep, tag)
            for tag in (bench._STREAM_LABEL, bench._STREAM_SPLIT, bench._STREAM_FEATURES)
        )
        label = SplitMix64(label_seed).randrange(ctx.n_attributes)
        adjusted = tuple(m for m in selection if m != label)
        if not adjusted:
            raise ValueError("the feature set is empty; use a larger delta")
        n = ctx.n_objects
        if n < 2:
            raise ValueError("need at least 2 objects to split")
        cut = math.floor(n * cfg.split_fraction)
        if not 0 < cut < n:
            raise ValueError("split leaves an empty train or test set")
        rng = SplitMix64(split_seed)
        order = list(range(n))
        test = 0
        for i in range(n - 1, cut - 1, -1):
            j = rng.randrange(i + 1)
            test |= 1 << order[j]
            order[j] = order[i]
        train = ((1 << n) - 1) ^ test
        for method, arm in zip(methods, records):
            if method == "adjusted":
                features = adjusted
            else:
                others = everything[:label] + everything[label + 1:]
                rng = SplitMix64(features_seed)
                pool = list(range(len(others)))
                for i in range(len(adjusted)):
                    j = i + rng.randrange(len(others) - i)
                    pool[i], pool[j] = pool[j], pool[i]
                features = tuple(sorted(others[p] for p in pool[:len(adjusted)]))
            tree = train_tree(cols, cols[label], train, features)
            accuracy = tree.accuracy(cols, cols[label], test)
            arm.append(RepetitionRecord(rep, label, features, accuracy))
    return tuple(map(tuple, records))

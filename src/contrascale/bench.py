"""Evaluation pipeline: structure shrinkage, the label-prediction experiment,
and enumeration timing."""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter
from typing import Iterable, Sequence

from .adjust import delta_adjust
from .context import FormalContext, _Record, indices_to_mask
from .lattice import _lectic_walk, canonical_base
from .rng import SplitMix64, _stream_seeds, derive_seed
from .scales import ALGORITHMS, _bronkerbosch_scales, _family_sizes
from .tree import train_tree

__all__ = [
    "ExperimentConfig",
    "RepetitionRecord",
    "ExperimentResult",
    "sample_attributes",
    "decision_tree_accuracy",
    "run_knowledge_experiment",
    "run_structure_experiment",
    "benchmark_enumeration",
]

METHODS = ("adjusted", "sampled")

# Fixed stream tags for per-repetition sub-seeds, so that the label and the
# train/test split are identical across methods under one master seed.
_STREAM_LABEL = 0
_STREAM_SPLIT = 1
_STREAM_FEATURES = 2
_STREAM_STRUCTURE = 3


class ExperimentConfig(_Record, delta=0.5, repetitions=1000, split_fraction=0.5, method="adjusted"):
    """The knowledge experiment's settings: ``method`` names one arm or ``"both"``."""

    __slots__ = ("seed", "delta", "repetitions", "split_fraction", "method")

    def __post_init__(self) -> None:
        if self.method not in (*METHODS, "both"):
            raise ValueError(f"method must be one of {METHODS} or 'both'")
        if not 0 < self.split_fraction < 1:
            raise ValueError("split_fraction must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


class RepetitionRecord(_Record):
    """One repetition: the label attribute, the features and the held-out accuracy."""

    __slots__ = ("index", "label_attribute", "features", "accuracy")


class ExperimentResult(_Record):
    """One arm of the knowledge experiment, with its repetitions in order."""

    __slots__ = (
        "config", "mean_accuracy", "std_accuracy", "concept_count", "base_size", "repetitions"
    )


def sample_attributes(ctx: FormalContext, n: int, seed: int) -> tuple[int, ...]:
    """Uniform attribute sample without replacement, deterministic per seed."""
    return tuple(sorted(SplitMix64(seed).sample_indices(ctx.n_attributes, n)))


def _split_masks(n: int, split_fraction: float, seed: int) -> tuple[int, int]:
    """The train and test object masks of one seeded shuffle of ``n`` objects.

    The train set is the first ``cut`` places of ``SplitMix64(seed).shuffle``
    of ``range(n)``, the test set the rest.  Fisher-Yates fills the places from
    the back, one draw each, and a filled place never changes again, so the
    ``n - cut`` draws that fill places ``n-1 … cut`` fix the test set; the
    remaining draws would only reorder the train set, and are not made.
    """
    if n < 2:
        raise ValueError("need at least 2 objects to split")
    cut = math.floor(n * split_fraction)
    if not 0 < cut < n:
        raise ValueError("split leaves an empty train or test set")
    rng = SplitMix64(seed)
    order = list(range(n))
    test = 0
    for i in range(n - 1, cut - 1, -1):
        j = rng.randrange(i + 1)
        test |= 1 << order[j]
        order[j] = order[i]
    return ((1 << n) - 1) ^ test, test


def decision_tree_accuracy(
    ctx: FormalContext,
    features: Iterable[int],
    label: int,
    split_fraction: float,
    seed: int,
) -> float:
    """Held-out accuracy of a tree predicting one attribute of ``ctx`` from others."""
    features = tuple(features)
    for index in (label, *features):
        if not 0 <= index < ctx.n_attributes:
            raise ValueError(f"attribute index {index} out of range [0, {ctx.n_attributes})")
    if label in features:
        raise ValueError("label attribute must not be among the features")
    train, test = _split_masks(ctx.n_objects, split_fraction, seed)
    cols = ctx.cols()
    tree = train_tree(cols, cols[label], train, features)
    return tree.accuracy(cols, cols[label], test)


def _structure_metrics(ctx: FormalContext, attributes: Sequence[int]) -> tuple[int, int]:
    """Concept and implication counts of ``ctx`` restricted to ``attributes``.

    The walk runs on ``ctx`` on an attribute mask, not on a copied
    subcontext, so every restricted walk shares the context's intent tables.
    """
    intents, _, pseudo = _lectic_walk(ctx, indices_to_mask(attributes))
    return len(intents), len(pseudo)


def _sampled_structure_means(
    ctx: FormalContext, size: int, samples: int, seed: int
) -> tuple[float, float]:
    """Mean concept and base counts over ``samples`` seeded attribute samples."""
    concepts = bases = 0
    for j in range(samples):
        picked = sample_attributes(ctx, size, derive_seed(seed, j, _STREAM_STRUCTURE))
        c, b = _structure_metrics(ctx, picked)
        concepts += c
        bases += b
    return concepts / samples, bases / samples


def run_knowledge_experiment(
    ctx: FormalContext, cfg: ExperimentConfig
) -> tuple[ExperimentResult, ...]:
    """Repeatedly predict a random attribute from a method-chosen feature set.

    The delta-adjusted selection is computed once on the whole context.  Per
    repetition a label attribute is drawn; the adjusted arm's features are
    that selection with the label dropped (never backfilled), the sampled
    arm draws the same number of attributes uniformly from the rest.
    Each repetition trains and scores on a fresh train/test split.

    ``cfg.method`` names one arm or ``"both"``, and the result holds one
    ``ExperimentResult`` per arm, whose ``config.method`` names it.  The arms
    share each repetition's label and split, drawn from the same seeds as for
    one arm alone, so each result equals that arm's own run.
    """
    methods = METHODS if cfg.method == "both" else (cfg.method,)
    if ctx.n_attributes < 2:
        raise ValueError("need at least 2 attributes")
    selection = delta_adjust(ctx, cfg.delta).attributes
    cols = ctx.cols()
    everything = tuple(range(ctx.n_attributes))
    adjusted_features = [tuple(m for m in selection if m != label) for label in everything]
    records: list[list[RepetitionRecord]] = [[] for _ in methods]
    seeds = _stream_seeds(
        cfg.seed, cfg.repetitions, _STREAM_LABEL, _STREAM_SPLIT, _STREAM_FEATURES
    )
    for rep, (label_seed, split_seed, features_seed) in enumerate(seeds):
        label = SplitMix64(label_seed).randrange(ctx.n_attributes)
        adjusted = adjusted_features[label]
        # The sampled arm draws as many features, so both arms fail here alike,
        # and before the split is drawn.
        if not adjusted:
            raise ValueError("the feature set is empty; use a larger delta")
        train, test = _split_masks(ctx.n_objects, cfg.split_fraction, split_seed)
        labels = cols[label]
        for method, arm in zip(methods, records):
            if method == "adjusted":
                features = adjusted
            else:
                others = everything[:label] + everything[label + 1:]
                picks = SplitMix64(features_seed).sample_indices(len(others), len(adjusted))
                features = tuple(sorted(map(others.__getitem__, picks)))
            tree = train_tree(cols, labels, train, features)
            arm.append(RepetitionRecord(rep, label, features, tree.accuracy(cols, labels, test)))
    results = []
    for method, arm in zip(methods, records):
        accs = [r.accuracy for r in arm]
        mean = sum(accs) / len(accs)
        std = math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs))
        if method == "adjusted":
            concept_count, base_size = _structure_metrics(ctx, selection)
        else:
            concept_count, base_size = _sampled_structure_means(ctx, len(selection), 10, cfg.seed)
        config = ExperimentConfig(cfg.seed, cfg.delta, cfg.repetitions, cfg.split_fraction, method)
        results.append(ExperimentResult(config, mean, std, concept_count, base_size, tuple(arm)))
    return tuple(results)


def run_structure_experiment(
    ctx: FormalContext,
    delta: float | str | Fraction,
    *,
    samples: int = 10,
    seed: int = 0,
) -> dict:
    """Concept and base counts for the original, adjusted, and sampled contexts."""
    if samples < 1:
        raise ValueError("need at least one sampling seed")
    # delta_adjust refuses a bad delta or a raw context before any base walk.
    selection = delta_adjust(ctx, delta)
    chosen = selection.attributes
    base = canonical_base(ctx)
    concepts_original, base_original = base.concepts, len(base)
    concepts_adjusted, base_adjusted = _structure_metrics(ctx, chosen)
    sampled_concepts, sampled_bases = _sampled_structure_means(ctx, len(chosen), samples, seed)
    return {
        "delta": selection.delta,
        "concepts_original": concepts_original,
        "concepts_adjusted": concepts_adjusted,
        "base_original": base_original,
        "base_adjusted": base_adjusted,
        "sampled_means": {
            "concepts": sampled_concepts,
            "base": sampled_bases,
            "samples": samples,
        },
    }


class _OverBudget(Exception):
    """Raised inside a timed run of ``benchmark_enumeration`` once its budget is spent."""


def benchmark_enumeration(
    ctx: FormalContext,
    algorithms: Sequence[str] = ALGORITHMS,
    timeout: float | None = None,
) -> dict:
    """Wall-clock comparison of the enumeration algorithms, counts cross-checked.

    A run that exceeds the timeout is reported as unfinished, not failed.
    Timing values are diagnostics and vary between runs; counts do not.  A
    name given twice runs once, and an unknown name is refused before any run.
    """
    algorithms = tuple(dict.fromkeys(algorithms))
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    report: dict = {}
    for algorithm in algorithms:
        start = perf_counter()

        def check_budget() -> None:
            if timeout is not None and perf_counter() - start > timeout:
                raise _OverBudget

        total = 0
        max_dim = 0
        finished = True
        try:
            if algorithm == "backtracking":
                items = _family_sizes(ctx)
            else:
                # Building the conflict graph can take longer than the search.
                items = ((s.dimension, 1) for s in _bronkerbosch_scales(ctx, check_budget))
            for dimension, scales in items:
                total += scales
                max_dim = max(max_dim, dimension)
                check_budget()
        except _OverBudget:
            finished = False
        report[algorithm] = {
            "seconds": perf_counter() - start,
            "finished": finished,
            "count": total if finished else None,
            "max_dimension": max_dim if finished else None,
        }
    finished_counts = {
        payload["count"] for payload in report.values() if payload["finished"]
    }
    report["consistent"] = len(finished_counts) <= 1
    return report

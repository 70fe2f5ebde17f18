"""Evaluation pipeline: structure shrinkage, the label-prediction experiment,
and enumeration timing."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .adjust import delta_adjust, _delta_fraction
from .context import FormalContext, SubcontextSelection, apply_selection, indices_to_mask
from .lattice import canonical_base
from .rng import SplitMix64, derive_seed
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


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    delta: float | Fraction = 0.5
    repetitions: int = 1000
    split_fraction: float = 0.5
    method: str = "adjusted"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0 < self.split_fraction < 1:
            raise ValueError("split_fraction must lie strictly between 0 and 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass(frozen=True)
class RepetitionRecord:
    index: int
    label_attribute: int
    features: tuple[int, ...]
    accuracy: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    mean_accuracy: float
    std_accuracy: float
    concept_count: float
    base_size: float
    repetitions: tuple[RepetitionRecord, ...] = field(repr=False)


def sample_attributes(ctx: FormalContext, n: int, seed: int) -> tuple[int, ...]:
    """Uniform attribute sample without replacement, deterministic per seed."""
    if not 0 <= n <= ctx.n_attributes:
        raise ValueError(f"sample size {n} out of range [0, {ctx.n_attributes}]")
    rng = SplitMix64(seed)
    return tuple(sorted(rng.sample_indices(ctx.n_attributes, n)))


def _split_masks(n: int, split_fraction: float, seed: int) -> tuple[int, int]:
    """The train and test object masks of one seeded shuffle of ``n`` objects."""
    if n < 2:
        raise ValueError("need at least 2 objects to split")
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    cut = math.floor(n * split_fraction)
    train, test = order[:cut], order[cut:]
    if not train or not test:
        raise ValueError("split leaves an empty train or test set")
    return indices_to_mask(train), indices_to_mask(test)


def decision_tree_accuracy(
    ctx: FormalContext,
    features: Iterable[int],
    label: int,
    split_fraction: float,
    seed: int,
) -> float:
    """Held-out accuracy of a tree predicting one attribute of ``ctx`` from others."""
    features = tuple(features)
    if label in features:
        raise ValueError("label attribute must not be among the features")
    train, test = _split_masks(ctx.n_objects, split_fraction, seed)
    cols = ctx.cols()
    tree = train_tree(cols, cols[label], train, features)
    return tree.accuracy(cols, cols[label], test)


def _structure_metrics(ctx: FormalContext, attributes: Sequence[int]) -> tuple[int, int]:
    """Concept and implication counts of ``ctx`` restricted to ``attributes``."""
    sub = apply_selection(
        SubcontextSelection(ctx, tuple(range(ctx.n_objects)), tuple(attributes))
    )
    base = canonical_base(sub)
    return base.concepts, len(base)


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


def run_knowledge_experiment(ctx: FormalContext, cfg: ExperimentConfig) -> ExperimentResult:
    """Repeatedly predict a random attribute from a method-chosen feature set.

    The delta-adjusted selection is computed once on the whole context.  Per
    repetition a label attribute is drawn; the adjusted arm's features are
    that selection with the label dropped (never backfilled), the sampled
    arm draws the same number of attributes uniformly from the rest.
    Each repetition trains and scores on a fresh train/test split.
    """
    return _knowledge_arms(ctx, cfg, (cfg.method,))[0]


def _knowledge_arms(
    ctx: FormalContext, cfg: ExperimentConfig, methods: Sequence[str]
) -> list[ExperimentResult]:
    """``run_knowledge_experiment`` for each of ``methods``, in one pass.

    Each repetition draws its label and its split once, and every arm trains
    and scores on them; the draws come from the same seeds as for one arm
    alone, so each result equals that arm's own run.
    """
    if ctx.n_attributes < 2:
        raise ValueError("need at least 2 attributes")
    delta = _delta_fraction(cfg.delta)
    selection = delta_adjust(ctx, delta).attributes
    cols = ctx.cols()
    records: list[list[RepetitionRecord]] = [[] for _ in methods]
    for rep in range(cfg.repetitions):
        label = SplitMix64(derive_seed(cfg.seed, rep, _STREAM_LABEL)).randrange(
            ctx.n_attributes
        )
        adjusted = tuple(m for m in selection if m != label)
        # The sampled arm draws as many features, so both arms fail here alike,
        # and before the split is drawn.
        if not adjusted:
            raise ValueError("the feature set is empty; use a larger delta")
        train, test = _split_masks(
            ctx.n_objects, cfg.split_fraction, derive_seed(cfg.seed, rep, _STREAM_SPLIT)
        )
        labels = cols[label]
        for method, arm in zip(methods, records):
            if method == "adjusted":
                features = adjusted
            else:
                rng = SplitMix64(derive_seed(cfg.seed, rep, _STREAM_FEATURES))
                others = [m for m in range(ctx.n_attributes) if m != label]
                features = tuple(
                    sorted(others[i] for i in rng.sample_indices(len(others), len(adjusted)))
                )
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
            concept_count, base_size = _sampled_structure_means(
                ctx, math.ceil(delta * ctx.n_attributes), 10, cfg.seed
            )
        results.append(ExperimentResult(
            config=replace(cfg, method=method),
            mean_accuracy=mean,
            std_accuracy=std,
            concept_count=concept_count,
            base_size=base_size,
            repetitions=tuple(arm),
        ))
    return results


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
    value = _delta_fraction(delta)
    # delta_adjust refuses a raw context before the original's base is walked.
    chosen = delta_adjust(ctx, value).attributes
    base = canonical_base(ctx)
    concepts_original, base_original = base.concepts, len(base)
    concepts_adjusted, base_adjusted = _structure_metrics(ctx, chosen)
    sampled_concepts, sampled_bases = _sampled_structure_means(ctx, len(chosen), samples, seed)
    return {
        "delta": float(value),
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


def benchmark_enumeration(
    ctx: FormalContext,
    algorithms: Sequence[str] = ALGORITHMS,
    timeout: float | None = None,
) -> dict:
    """Wall-clock comparison of the enumeration algorithms, counts cross-checked.

    A run that exceeds the timeout is reported as unfinished, not failed.
    Timing values are diagnostics and vary between runs; counts do not.
    """
    report: dict = {}
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        start = time.perf_counter()
        total = 0
        max_dim = 0
        finished = True
        if algorithm == "backtracking":
            items = _family_sizes(ctx)
        else:
            items = ((s.dimension, 1) for s in _bronkerbosch_scales(ctx))
        for dimension, scales in items:
            total += scales
            max_dim = max(max_dim, dimension)
            if timeout is not None and time.perf_counter() - start > timeout:
                finished = False
                break
        report[algorithm] = {
            "seconds": time.perf_counter() - start,
            "finished": finished,
            "count": total if finished else None,
            "max_dimension": max_dim if finished else None,
        }
    finished_counts = {
        payload["count"] for payload in report.values() if payload["finished"]
    }
    report["consistent"] = len(finished_counts) <= 1
    return report

"""Attribute influence scoring and delta-adjusted attribute selection.

An attribute set is *cubic* when it carries a contranominal scale and no
proper superset does.  Each attribute is scored by summing 2**k / k over the
k-sized cubic sets containing it; selecting the lowest-scoring attributes
shrinks the concept lattice while keeping every implication among the
survivors valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .context import FormalContext, _reducible, is_clarified, mask_to_indices
from .scales import _classes, _cubic_families

__all__ = [
    "CubicSet",
    "AttributeInfluence",
    "InfluenceReport",
    "AdjustedSelection",
    "NotPreprocessedError",
    "require_clarified_reduced",
    "cubic_sets",
    "influence",
    "select_attributes",
    "delta_adjust",
]


class NotPreprocessedError(ValueError):
    """Raised when influence scoring gets a context that was not clarified and reduced."""


@dataclass(frozen=True)
class CubicSet:
    """A maximal scale-carrying attribute set with its witness classes."""

    attributes: tuple[int, ...]
    dimension: int
    witnesses: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AttributeInfluence:
    attribute: int
    label: str
    cubic_counts: Mapping[int, int]
    zeta_exact: Fraction

    @property
    def zeta(self) -> float:
        return float(self.zeta_exact)


@dataclass(frozen=True)
class InfluenceReport:
    per_attribute: tuple[AttributeInfluence, ...]


@dataclass(frozen=True)
class AdjustedSelection:
    delta: float
    attributes: tuple[int, ...]
    report: InfluenceReport


def require_clarified_reduced(ctx: FormalContext) -> None:
    """Reject contexts that still contain duplicate or reducible rows/columns.

    Influence scores of a context and of its clarified/reduced form differ,
    so preprocessing is never applied silently; run clarify() and
    reduce_context() first and decide which context you mean.
    """
    if not is_clarified(ctx):
        raise NotPreprocessedError(
            "context has duplicate rows or columns; apply clarify() first"
        )
    if _reducible(ctx.cols(), ctx.all_objects_mask) or _reducible(
        ctx.rows(), ctx.all_attributes_mask
    ):
        raise NotPreprocessedError(
            "context has reducible rows or columns; apply reduce_context() first"
        )


def cubic_sets(ctx: FormalContext, *, require_preprocessed: bool = True) -> list[CubicSet]:
    """All maximal scale-carrying attribute sets with their witness classes."""
    if require_preprocessed:
        require_clarified_reduced(ctx)
    n = ctx.n_objects
    return [
        CubicSet(attrs, len(attrs), tuple(map(mask_to_indices, _classes(lanes, n))))
        for attrs, lanes in _cubic_families(ctx)
    ]


def influence(ctx: FormalContext, *, require_preprocessed: bool = True) -> InfluenceReport:
    """Per-attribute cubic-set counts and the influence score zeta.

    zeta(m) = sum over k of (number of k-sized cubic sets containing m) * 2**k / k,
    kept exact as a fraction; round only for display.
    """
    if require_preprocessed:
        require_clarified_reduced(ctx)
    counts: list[dict[int, int]] = [{} for _ in range(ctx.n_attributes)]
    for attrs, _ in _cubic_families(ctx):
        k = len(attrs)
        for m in attrs:
            counts[m][k] = counts[m].get(k, 0) + 1
    per_attribute = []
    for m in range(ctx.n_attributes):
        zeta = sum(
            (Fraction(2**k, k) * c for k, c in counts[m].items()),
            start=Fraction(0),
        )
        per_attribute.append(
            AttributeInfluence(
                attribute=m,
                label=ctx.attributes[m],
                cubic_counts=dict(sorted(counts[m].items())),
                zeta_exact=zeta,
            )
        )
    return InfluenceReport(tuple(per_attribute))


def _delta_fraction(delta: float | str | Fraction) -> Fraction:
    # Floats go through their shortest decimal repr so that e.g. 0.1 * 30
    # selects 3 attributes, not 4.
    if isinstance(delta, str):
        try:
            value = Fraction(delta)
        except ZeroDivisionError:
            raise ValueError(f"delta {delta!r} has a zero denominator") from None
    elif isinstance(delta, Fraction):
        value = delta
    else:
        value = Fraction(str(delta))
    if not 0 <= value <= 1:
        raise ValueError("delta must lie in [0, 1]")
    return value


def select_attributes(report: InfluenceReport, delta: float | str | Fraction) -> tuple[int, ...]:
    """The ceil(delta * |M|) attributes of smallest influence.

    Ties are broken by the original attribute index, ascending, so the
    selection is deterministic and monotone in delta.
    """
    value = _delta_fraction(delta)
    n = len(report.per_attribute)
    size = math.ceil(value * n)
    ranked = sorted(report.per_attribute, key=lambda a: (a.zeta_exact, a.attribute))
    return tuple(sorted(a.attribute for a in ranked[:size]))


def delta_adjust(
    ctx: FormalContext,
    delta: float | str | Fraction,
    *,
    require_preprocessed: bool = True,
) -> AdjustedSelection:
    """Select the lowest-influence attribute subset of relative size >= delta."""
    value = _delta_fraction(delta)
    report = influence(ctx, require_preprocessed=require_preprocessed)
    chosen = select_attributes(report, value)
    return AdjustedSelection(delta=float(value), attributes=chosen, report=report)

"""Bounded-exhaustive checks of the scale stream and its writers.

Every context up to 4x4, and every 3x5 and 5x3 one, is checked against the
oracles.  Rows are drawn as sorted multisets, because the order of the rows
changes no answer, only the object numbering.
"""

from collections import Counter
from itertools import combinations_with_replacement

import pytest

from contrascale import cli
from contrascale.context import FormalContext
from contrascale.scales import (
    count_scales,
    enumerate_bronkerbosch,
    enumerate_bruteforce,
    enumerate_scales,
)
from test_cli import _reference_json

SHAPES = [(n, m) for n in range(5) for m in range(5)] + [(3, 5), (5, 3)]


def _row_sorted_contexts(n_objects, n_attributes):
    objects = [f"g{i}" for i in range(n_objects)]
    attributes = [f"m{j}" for j in range(n_attributes)]
    for rows in combinations_with_replacement(range(1 << n_attributes), n_objects):
        yield FormalContext.from_masks(objects, attributes, rows)


def _reference_lines(ctx, scales):
    """The ``scales --pretty`` text, formatted scale by scale."""
    lines = []
    for scale in scales:
        pairs = ",".join(f"({ctx.objects[g]},{ctx.attributes[m]})" for g, m in scale.pairs)
        lines.append(f"dim={scale.dimension}; pairs={pairs}\n")
    return "".join(lines) or "\n"


@pytest.mark.parametrize("n_objects, n_attributes", SHAPES, ids=[f"{n}x{m}" for n, m in SHAPES])
def test_scale_stream_on_every_context(n_objects, n_attributes):
    for ctx in _row_sorted_contexts(n_objects, n_attributes):
        stream = list(enumerate_scales(ctx))
        pairs = sorted(s.pairs for s in stream)
        assert pairs == sorted(s.pairs for s in enumerate_bruteforce(ctx))
        assert pairs == sorted(s.pairs for s in enumerate_bronkerbosch(ctx))
        count = count_scales(ctx)
        assert count.total == len(stream)
        assert count.histogram == Counter(s.dimension for s in stream)
        chunks = []
        cli._write_scales_json(stream, ctx, chunks.append)
        assert "".join(chunks) == _reference_json(ctx)
        lines = []
        cli._write_scale_lines(stream, ctx, lines.append)
        assert "".join(lines) == _reference_lines(ctx, stream)

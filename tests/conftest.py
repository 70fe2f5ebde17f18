"""Shared helpers: deterministic random contexts and small builders."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from contrascale.cli import main
from contrascale import lattice
from contrascale.context import FormalContext, clarify, reduce_context
from contrascale.formats import dumps_cxt
from contrascale.lattice import _RuleIndex
from contrascale.rng import SplitMix64, derive_seed


def random_context(
    rng: SplitMix64,
    max_objects: int = 8,
    max_attributes: int = 8,
    densities: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9),
    min_objects: int = 1,
    min_attributes: int = 1,
) -> FormalContext:
    n_obj = min_objects + rng.randrange(max_objects - min_objects + 1)
    n_att = min_attributes + rng.randrange(max_attributes - min_attributes + 1)
    density = densities[rng.randrange(len(densities))]
    threshold = int(density * 1000)
    rows = [
        [1 if rng.randrange(1000) < threshold else 0 for _ in range(n_att)]
        for _ in range(n_obj)
    ]
    return FormalContext(
        [f"g{i}" for i in range(n_obj)],
        [f"m{j}" for j in range(n_att)],
        rows,
    )


def reduced_42x15(rng: SplitMix64) -> FormalContext:
    """A clarified, reduced context drawn as 42x15 at density 0.7."""
    raw = random_context(rng, 42, 15, (0.7,), min_objects=42, min_attributes=15)
    return reduce_context(clarify(raw)[0])[0]


def count_context_calls(monkeypatch) -> Counter:
    """Count calls to the context's derivation operators from now on."""
    calls: Counter = Counter()
    for name in ("intent_mask", "extent_mask", "closure_mask"):
        method = getattr(FormalContext, name)

        def counted(self, mask, name=name, method=method):
            calls[name] += 1
            return method(self, mask)

        # FormalContext has slots, so the method is patched on the class.
        monkeypatch.setattr(FormalContext, name, counted)
    return calls


def count_walk_reads(monkeypatch) -> Counter:
    """Count the lectic walk's reads of columns and of byte tables, from now on.

    The walk reads the column a candidate adds once per candidate it tests,
    and derives the candidate's extent and then its intent from it, so
    ``candidates`` counts its derivations past the root's.  ``lookups``
    counts its reads of byte table entries.  It takes both from
    ``FormalContext.cols`` and ``FormalContext._intent_tables``, which this
    wraps; reads by other code are not counted.
    """
    calls: Counter = Counter()
    walk = lattice._lectic_walk.__code__

    def counting(kind):
        class Counted(tuple):
            __slots__ = ()

            def __getitem__(self, i):
                if sys._getframe(1).f_code is walk:
                    calls[kind] += 1
                return super().__getitem__(i)

        return Counted

    columns, table = counting("candidates"), counting("lookups")
    cols, intent_tables = FormalContext.cols, FormalContext._intent_tables
    monkeypatch.setattr(FormalContext, "cols", lambda self: columns(cols(self)))
    monkeypatch.setattr(
        FormalContext, "_intent_tables", lambda self: tuple(map(table, intent_tables(self)))
    )
    return calls


def count_rule_closures(monkeypatch) -> Counter:
    """Count calls to ``_RuleIndex.close``, the walk's L-closures, from now on."""
    calls: Counter = Counter()
    close = _RuleIndex.close

    def counted(self, *args):
        calls["close"] += 1
        return close(self, *args)

    # _RuleIndex has slots, so the method is patched on the class.
    monkeypatch.setattr(_RuleIndex, "close", counted)
    return calls


def context_from_rows(rows: list[str]) -> FormalContext:
    """Rows given as strings of 0/1 characters."""
    n_att = len(rows[0]) if rows else 0
    return FormalContext(
        [f"g{i}" for i in range(len(rows))],
        [f"m{j}" for j in range(n_att)],
        [[int(c) for c in row] for row in rows],
    )


def inject_duplicates(ctx: FormalContext, rng: SplitMix64) -> FormalContext:
    """Append copies of random rows and columns (labels made fresh)."""
    rows = [list(r) for r in ctx.incidence_rows()]
    n_extra_rows = 1 + rng.randrange(2)
    for _ in range(n_extra_rows):
        rows.append(list(rows[rng.randrange(len(rows))]))
    n_extra_cols = 1 + rng.randrange(2)
    for _ in range(n_extra_cols):
        source = rng.randrange(len(rows[0]))
        for row in rows:
            row.append(row[source])
    return FormalContext(
        [f"g{i}" for i in range(len(rows))],
        [f"m{j}" for j in range(len(rows[0]))],
        rows,
    )


@pytest.fixture
def seeded():
    def make(*parts: int) -> SplitMix64:
        return SplitMix64(derive_seed(0xC0FFEE, *parts))

    return make


@pytest.fixture
def cli_stdout(capsys, tmp_path):
    """Run one command on ``ctx``, written to a ``.cxt`` file; its stdout."""

    def run(ctx: FormalContext, *argv: str) -> str:
        path = tmp_path / "input.cxt"
        path.write_text(dumps_cxt(ctx))
        assert main([*argv, str(path)]) == 0
        return capsys.readouterr().out

    return run

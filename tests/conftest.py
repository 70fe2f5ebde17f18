"""Shared helpers: deterministic random contexts and small builders."""

from __future__ import annotations

import pytest

from contrascale.cli import main
from contrascale.context import FormalContext
from contrascale.formats import dumps_cxt
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

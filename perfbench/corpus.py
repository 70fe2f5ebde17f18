"""Seeded inputs for the benchmark workloads.

This module does not import contrascale: the inputs a commit is measured on
must not depend on the code under test.  The generator therefore carries its
own copy of splitmix64, of the cell rule of ``tests/conftest.py:random_context``
and of clarification and reduction; ``test_perfbench.py`` checks each copy
against the package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Sub-seed from a master seed and index parts (as ``contrascale.rng``)."""
    state = _mix(master)
    for part in parts:
        state = _mix(state ^ _mix(part + _GOLDEN))
    return state


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n


@dataclass(frozen=True)
class Context:
    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    rows: tuple[int, ...]  # bit m of rows[g] set when object g has attribute m

    def cols(self) -> tuple[int, ...]:
        return tuple(
            sum(1 << g for g, row in enumerate(self.rows) if row >> m & 1)
            for m in range(len(self.attributes))
        )

    def select(self, objects: list[int], attributes: list[int]) -> "Context":
        rows = tuple(
            sum(1 << j for j, m in enumerate(attributes) if self.rows[g] >> m & 1)
            for g in objects
        )
        return Context(
            tuple(self.objects[g] for g in objects),
            tuple(self.attributes[m] for m in attributes),
            rows,
        )

    def to_cxt(self) -> str:
        """Burmeister text, byte-identical to ``contrascale.formats.dumps_cxt``."""
        n = len(self.attributes)
        out = ["B", "", str(len(self.objects)), str(n), ""]
        out.extend(self.objects)
        out.extend(self.attributes)
        out.extend("".join("X" if row >> m & 1 else "." for m in range(n)) for row in self.rows)
        return "\n".join(out) + "\n"


def random_context(rng: SplitMix64, n_objects: int, n_attributes: int, density: float) -> Context:
    """Cells set when ``randrange(1000) < density * 1000``, row by row."""
    threshold = int(density * 1000)
    rows = tuple(
        sum(1 << m for m in range(n_attributes) if rng.randrange(1000) < threshold)
        for _ in range(n_objects)
    )
    return Context(
        tuple(f"g{i}" for i in range(n_objects)),
        tuple(f"m{j}" for j in range(n_attributes)),
        rows,
    )


def _first_of_each_class(masks: tuple[int, ...]) -> list[int]:
    seen: dict[int, int] = {}
    for i, mask in enumerate(masks):
        seen.setdefault(mask, i)
    return sorted(seen.values())


def _irreducible(masks: tuple[int, ...], full: int) -> list[int]:
    """Indices whose mask is not the intersection of the other masks above it."""
    keep = []
    for x, mask in enumerate(masks):
        inter = full
        for y, other in enumerate(masks):
            if y != x and other & mask == mask:
                inter &= other
        if inter != mask:
            keep.append(x)
    return keep


def clarify_reduce(ctx: Context) -> Context:
    """One clarification then one reduction, as ``clarify`` + ``reduce_context``."""
    ctx = ctx.select(_first_of_each_class(ctx.rows), _first_of_each_class(ctx.cols()))
    all_objects = (1 << len(ctx.objects)) - 1
    all_attributes = (1 << len(ctx.attributes)) - 1
    return ctx.select(
        _irreducible(ctx.rows, all_attributes), _irreducible(ctx.cols(), all_objects)
    )


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    """One job's input: a context file and, for the knowledge jobs, a seed."""

    cxt: str
    experiment_seed: int | None = None

    def sha256(self) -> str:
        h = hashlib.sha256(self.cxt.encode())
        if self.experiment_seed is not None:
            h.update(b"\0seed=%d" % self.experiment_seed)
        return h.hexdigest()


@dataclass(frozen=True)
class Synthetic:
    tag: int  # keeps the context streams of different workloads apart
    objects: int
    attributes: int
    preprocessed: bool
    count: int
    density: float = 0.7


# Sizes keep one job at a few tenths of a second on CPython 3.11, so that a run
# covers enough distinct contexts for its mean to be steady across seeds.
SYNTHETIC = {
    "adjust-synth": Synthetic(tag=1, objects=40, attributes=16, preprocessed=False, count=160),
    "structure-synth": Synthetic(tag=2, objects=42, attributes=15, preprocessed=True, count=160),
    "stream-synth": Synthetic(tag=4, objects=18, attributes=10, preprocessed=False, count=320),
}
KNOWLEDGE_TAG = 3
KNOWLEDGE_SEEDS = 160
WORKLOADS = ("adjust-synth", "structure-synth", "knowledge-diagnosis", "stream-synth")


def make_corpus(workload: str, seed: int) -> list[Input]:
    """The inputs of one workload; the same seed always gives the same list."""
    if workload == "knowledge-diagnosis":
        cxt = (DATA_DIR / "diagnosis.cxt").read_text(encoding="utf-8")
        return [
            Input(cxt, derive_seed(seed, KNOWLEDGE_TAG, i)) for i in range(KNOWLEDGE_SEEDS)
        ]
    spec = SYNTHETIC[workload]
    inputs = []
    for i in range(spec.count):
        ctx = random_context(
            SplitMix64(derive_seed(seed, spec.tag, i)), spec.objects, spec.attributes, spec.density
        )
        if spec.preprocessed:
            ctx = clarify_reduce(ctx)
        inputs.append(Input(ctx.to_cxt()))
    return inputs

"""Layer spans for the traced run, recorded from outside the package.

Spans come from rebinding public names in the contrascale modules that call
them and from wrapping two methods; nothing under ``src/`` is edited.  A call
is one span.  A generator is one span whose busy time is the sum of its
``next()`` calls, so that the consumer's work between items is not charged to
it.  Self time is busy time minus the busy time of child spans.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from types import FunctionType
from typing import Callable

perf_counter = time.perf_counter


class Span:
    __slots__ = ("job", "name", "parent", "start", "busy", "child", "items", "closures", "bytes")

    def __init__(self, job: int, name: str, parent: int, start: float):
        self.job = job
        self.name = name
        self.parent = parent
        self.start = start
        self.busy = 0.0
        self.child = 0.0
        self.items = 0
        self.closures = 0
        self.bytes = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = 0
        self.closures_outside = 0

    def reset(self) -> None:
        self.spans.clear()
        self.closures_outside = 0

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(self.job, name, parent, perf_counter()))
        self.stack.append(index)
        return index

    def _close(self, index: int, busy: float) -> Span:
        self.stack.pop()
        span = self.spans[index]
        span.busy += busy
        if self.stack:
            self.spans[self.stack[-1]].child += busy
        return span

    def call(self, name: str, fn: Callable, items: Callable | None = None, nbytes: Callable | None = None) -> Callable:
        """Wrap ``fn``; ``items(result)`` and ``nbytes(*args)`` fill the span's counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index, perf_counter() - start)
            if items is not None:
                span.items += items(result)
            if nbytes is not None:
                span.bytes += nbytes(*args)
            return result

        return traced

    def generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name: str, inner):
        index = None
        while True:
            if index is None:
                index = self._open(name)
            else:
                self.stack.append(index)
            start = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                self._close(index, perf_counter() - start)
                return
            except BaseException:
                self._close(index, perf_counter() - start)
                raise
            self._close(index, perf_counter() - start).items += 1
            yield item

    def counter(self, fn: Callable) -> Callable:
        """Count calls against the innermost open span, without timing them."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.stack:
                self.spans[self.stack[-1]].closures += 1
            else:
                self.closures_outside += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        [s.job, i, s.parent, s.name, s.start, s.busy, s.busy - s.child,
                         s.items, s.closures, s.bytes]
                    )
                    + "\n"
                )


def _file_size(source, *_args) -> int:
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


def _cubic_sets(report) -> int:
    """Σ_k (Σ_m counts[m][k]) / k: each k-set is counted once per member."""
    per_k: dict[int, int] = {}
    for a in report.per_attribute:
        for k, c in a.cubic_counts.items():
            per_k[k] = per_k.get(k, 0) + c
    return sum(total // k for k, total in per_k.items())


def install(tracer: Tracer) -> None:
    """Rebind the traced names in every contrascale module that holds them."""
    from contrascale import adjust, bench, cli, context, formats, lattice, scales, tree

    wrappers = {
        formats.load_context: tracer.call("formats.load", formats.load_context, nbytes=_file_size),
        formats.dumps_cxt: tracer.call("formats.dump", formats.dumps_cxt),
        formats.dumps_csv: tracer.call("formats.dump", formats.dumps_csv),
        context.clarify: tracer.call("context.preprocess", context.clarify),
        context.reduce_context: tracer.call("context.preprocess", context.reduce_context),
        context.apply_selection: tracer.call("context.apply_selection", context.apply_selection),
        scales.iter_scale_families: tracer.generator("scales.walk", scales.iter_scale_families),
        scales.count_scales: tracer.call("scales.count", scales.count_scales),
        scales.enumerate_scales: tracer.generator("scales.stream", scales.enumerate_scales),
        adjust.require_clarified_reduced: tracer.call(
            "adjust.require_preprocessed", adjust.require_clarified_reduced
        ),
        adjust.influence: tracer.call("adjust.influence", adjust.influence, items=_cubic_sets),
        lattice.enumerate_concepts: tracer.call("lattice.concepts", lattice.enumerate_concepts, items=len),
        lattice.canonical_base: tracer.call("lattice.base", lattice.canonical_base, items=len),
        tree.train_tree: tracer.call("tree.train", tree.train_tree, items=lambda _: 1),
        bench.run_structure_experiment: tracer.call("bench.structure", bench.run_structure_experiment),
        bench.run_knowledge_experiment: tracer.call("bench.knowledge", bench.run_knowledge_experiment),
    }
    for module in (adjust, bench, cli, context, formats, lattice, scales, tree):
        for attr, value in list(vars(module).items()):
            if isinstance(value, FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
    context.FormalContext.closure_mask = tracer.counter(context.FormalContext.closure_mask)
    tree.DecisionTree.accuracy = tracer.call("tree.score", tree.DecisionTree.accuracy)


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job layer figures from the recorded spans."""
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    items: dict[str, int] = {}
    closures: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    walked_by_influence = 0
    for s in tracer.spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.busy
        own[s.name] = own.get(s.name, 0.0) + s.busy - s.child
        items[s.name] = items.get(s.name, 0) + s.items
        closures[s.name] = closures.get(s.name, 0) + s.closures
        nbytes[s.name] = nbytes.get(s.name, 0) + s.bytes
        if s.name == "scales.walk" and s.parent >= 0 and tracer.spans[s.parent].name == "adjust.influence":
            walked_by_influence += s.items

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    streamed = items.get("scales.stream", 0)
    concepts = items.get("lattice.concepts", 0)
    figures = {
        "formats.load_s": busy.get("formats.load", 0.0),
        "formats.dump_s": busy.get("formats.dump", 0.0),
        "formats.bytes_in": nbytes.get("formats.load", 0),
        "context.preprocess_s": busy.get("context.preprocess", 0.0),
        "context.apply_selection_s": busy.get("context.apply_selection", 0.0),
        "context.closure_calls": sum(closures.values()) + tracer.closures_outside,
        "scales.walk_s": busy.get("scales.walk", 0.0),
        "scales.families": items.get("scales.walk", 0),
        "scales.count_s": busy.get("scales.count", 0.0),
        "scales.stream_s": busy.get("scales.stream", 0.0),
        "scales.scales_streamed": streamed,
        "adjust.require_preprocessed_s": busy.get("adjust.require_preprocessed", 0.0),
        "adjust.influence_s": busy.get("adjust.influence", 0.0),
        "adjust.filter_s": own.get("adjust.influence", 0.0),
        "adjust.cubic_sets": items.get("adjust.influence", 0),
        "adjust.influence_calls": sum(1 for s in tracer.spans if s.name == "adjust.influence"),
        "lattice.concepts_s": busy.get("lattice.concepts", 0.0),
        "lattice.concepts": concepts,
        "lattice.base_s": busy.get("lattice.base", 0.0),
        "lattice.implications": items.get("lattice.base", 0),
        "lattice.base_candidates": closures.get("lattice.base", 0),
        "tree.train_s": busy.get("tree.train", 0.0),
        "tree.trees": items.get("tree.train", 0),
        "tree.score_s": busy.get("tree.score", 0.0),
        "bench.knowledge_self_s": own.get("bench.knowledge", 0.0),
        "bench.structure_self_s": own.get("bench.structure", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
    }
    per_job = {name: value / jobs for name, value in figures.items()}
    per_job["scales.stream_per_scale_us"] = 1e6 * ratio(busy.get("scales.stream", 0.0), streamed)
    per_job["adjust.cubic_yield"] = ratio(items.get("adjust.influence", 0), walked_by_influence)
    per_job["lattice.concept_yield"] = ratio(concepts, closures.get("lattice.concepts", 0))
    return per_job

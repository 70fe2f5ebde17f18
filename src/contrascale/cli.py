"""Command-line driver for the whole pipeline.

Library calls return data; this module builds every command's text.
Structured results go to stdout as JSON (human-readable tables behind
``--pretty``, contexts behind ``--to``); diagnostics go to stderr.  Exit
status: 0 success, also when the reader closes the pipe early; 1 usage
error; 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from contextlib import contextmanager
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import __version__
from .context import (
    FormalContext,
    SubcontextSelection,
    apply_selection,
    clarify,
    pq_core,
    reduce_context,
)
from .formats import _refuse_labels, dumps_csv, dumps_cxt, infer_format, load_context

if TYPE_CHECKING:
    from fractions import Fraction

    from .adjust import InfluenceReport
    from .bench import ExperimentResult
    from .scales import ContranominalScale

# Every command needs the modules above.  Each other module, the scale walk
# included, is imported by the command that uses it, when it runs, so no
# other command loads it.  Its names are read from it at each call and never
# kept here, so a rebinding in that module is seen.  Likewise a subcommand's
# options are declared only when the command line selects it (``_Commands``).

USAGE_EXIT = 1
DATA_EXIT = 2

_DataError = (ValueError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@contextmanager
def _output(args: argparse.Namespace) -> Iterator[Callable[[str], object]]:
    """The ``write`` of the command's output: the ``-o`` file, else stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh.write
    else:
        yield sys.stdout.write


def _json(payload: object) -> str:
    """The JSON text of every structured output."""
    return json.dumps(payload, indent=2)


def _emit(args: argparse.Namespace, output: object) -> None:
    """Write ``output``, text as it is and any other payload as JSON, ending in a newline."""
    text = output if isinstance(output, str) else _json(output)
    if not text.endswith("\n"):
        text += "\n"
    with _output(args) as write:
        write(text)


def _context_text(args: argparse.Namespace, ctx: FormalContext) -> str:
    """The text of ``ctx`` in the ``--to`` format."""
    return dumps_cxt(ctx) if args.to == "cxt" else dumps_csv(ctx)


class _Commands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when ``parse_args`` first selects them.

    Until then a command's entry in ``_name_parser_map`` is the ``declare``
    that adds its options, so usage, ``--help`` and the invalid-choice error
    list every command, in order, without building one.  The built parser
    replaces that entry in place, which keeps the order.
    """

    def add(
        self, name: str, summary: str, declare: Callable[[argparse.ArgumentParser], None]
    ) -> None:
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), summary))
        self._name_parser_map[name] = declare

    def __call__(self, parser, namespace, values, option_string=None):  # noqa: D102
        name = values[0]
        entry = self._name_parser_map[name]
        if not isinstance(entry, argparse.ArgumentParser):
            command = self._parser_class(prog=f"{self._prog_prefix} {name}")
            entry(command)
            self._name_parser_map[name] = command
        super().__call__(parser, namespace, values, option_string)


def _command(
    sub: _Commands,
    name: str,
    func: Callable[[argparse.Namespace, FormalContext], None],
    summary: str,
    declare: Callable[[argparse.ArgumentParser], None],
) -> None:
    """Add subcommand ``name``: its input, ``--format``, ``-o``, then what ``declare`` adds.

    ``main`` runs ``func``.
    """

    def declare_command(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("input", help="context file, or - for stdin")
        parser.add_argument(
            "--format",
            choices=("cxt", "csv"),
            help="input format (default: from the file extension)",
        )
        parser.add_argument("-o", "--output", help="write to this file instead of stdout")
        parser.set_defaults(func=func)
        declare(parser)

    sub.add(name, summary, declare_command)


def _algorithm_list(text: str) -> tuple[str, ...]:
    """The ``--algorithms`` value: a nonempty comma-separated list of known names.

    A name given twice is run once; the report has one entry per algorithm.
    """
    from .scales import ALGORITHMS

    names = tuple(dict.fromkeys(a.strip() for a in text.split(",") if a.strip()))
    if not names:
        raise argparse.ArgumentTypeError("name at least one of: " + ", ".join(ALGORITHMS))
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r}; choose from: " + ", ".join(ALGORITHMS)
            )
    return names


def _positive_seconds(text: str) -> float:
    """The ``--timeout`` value: a number of seconds above zero."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def build_parser() -> _Parser:
    """The ``contrascale`` parser; each subcommand's options are declared on first use."""
    parser = _Parser(prog="contrascale", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, action=_Commands)

    def convert(p: argparse.ArgumentParser) -> None:
        p.add_argument("--to", choices=("cxt", "csv"), required=True)

    _command(sub, "convert", cmd_convert, "convert between cxt and csv", convert)

    def stats(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--full",
            action="store_true",
            help="also compute concept and base statistics (can be slow)",
        )

    _command(sub, "stats", cmd_stats, "size and density descriptives", stats)

    def preprocess(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("clarify", "reduce", "both"), default="both")
        p.add_argument("--to", choices=("cxt", "csv"), default="cxt")
        p.add_argument("--trace", help="write the clarification/reduction trace JSON here")

    _command(sub, "preprocess", cmd_preprocess, "clarify and/or reduce a context", preprocess)

    def core(p: argparse.ArgumentParser) -> None:
        p.add_argument("-p", type=int, required=True, help="minimum crosses per object")
        p.add_argument("-q", type=int, required=True, help="minimum crosses per attribute")
        p.add_argument("--to", choices=("cxt", "csv"), help="emit the core as a context file")

    _command(sub, "core", cmd_core, "peel to the (p,q)-core", core)

    def scales(p: argparse.ArgumentParser) -> None:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--count-only", action="store_true")
        mode.add_argument("--pretty", action="store_true", help="one scale per line instead of JSON")
        p.add_argument("--min-dim", type=int, help="peel a core and keep dimensions >= this")

    _command(sub, "scales", cmd_scales, "enumerate contranominal scales", scales)

    def influence(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", help="mark the selection for this delta in the table")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--pretty", action="store_true")
        mode.add_argument("--csv", action="store_true")

    _command(sub, "influence", cmd_influence, "per-attribute influence report", influence)

    def adjust(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", required=True)
        p.add_argument("--to", choices=("cxt", "csv"), help="emit the adjusted subcontext")

    _command(sub, "adjust", cmd_adjust, "select the low-influence attribute subset", adjust)

    def concepts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--count-only", action="store_true")

    _command(sub, "concepts", cmd_concepts, "enumerate formal concepts", concepts)

    def base(p: argparse.ArgumentParser) -> None:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--count-only", action="store_true")
        mode.add_argument("--pretty", action="store_true", help="one implication per line")

    _command(sub, "base", cmd_base, "canonical implication base", base)

    def experiment(p: argparse.ArgumentParser) -> None:
        exp = p.add_subparsers(dest="experiment", required=True, action=_Commands)

        def structure(ps: argparse.ArgumentParser) -> None:
            ps.add_argument("--delta", default="0.5")
            ps.add_argument("--samples", type=int, default=10)
            ps.add_argument("--seed", type=int, default=0)

        _command(
            exp,
            "structure",
            cmd_experiment_structure,
            "concept/base shrinkage for one delta",
            structure,
        )

        def knowledge(pk: argparse.ArgumentParser) -> None:
            pk.add_argument("--delta", default="0.5")
            pk.add_argument("--repetitions", type=int, default=1000)
            pk.add_argument("--split", type=float, default=0.5)
            pk.add_argument("--seed", type=int, required=True)
            pk.add_argument("--method", choices=("adjusted", "sampled", "both"), default="both")
            pk.add_argument("--csv", action="store_true", help="summary CSV instead of JSON")

        _command(
            exp, "knowledge", cmd_experiment_knowledge, "decision-tree label prediction", knowledge
        )

    sub.add("experiment", "structure or knowledge experiments", experiment)

    def bench(p: argparse.ArgumentParser) -> None:
        from .scales import ALGORITHMS

        p.add_argument(
            "--algorithms",
            type=_algorithm_list,
            default=ALGORITHMS,
            help="comma-separated subset of: " + ", ".join(ALGORITHMS),
        )
        p.add_argument(
            "--timeout", type=_positive_seconds, help="per-algorithm budget in seconds (> 0)"
        )

    _command(sub, "bench", cmd_bench, "time the enumeration algorithms", bench)

    return parser


# -- text forms -----------------------------------------------------------------


def _refuse_line_breaks(labels: Sequence[str]) -> None:
    """Refuse a line break in ``labels``: ``--pretty`` gives each item one line."""
    _refuse_labels(labels, "\n\r", "a line break, which --pretty cannot hold")


class _PairText(dict):
    """``(g, m) -> objects[g] + attributes[m]``, each pair's text built on first use.

    A large context pays only for the pairs its scales hold.
    """

    def __init__(self, objects: Sequence[str], attributes: Sequence[str]) -> None:
        super().__init__()
        self.objects, self.attributes = objects, attributes

    def __missing__(self, pair: tuple[int, int]) -> str:
        g, m = pair
        text = self[pair] = self.objects[g] + self.attributes[m]
        return text


# Scales joined into one write: far fewer calls than one per scale, while a
# chunk's size stays bounded by the scales it holds, not the whole stream.
_SCALES_PER_WRITE = 256


def _write_scales(
    scales: Iterable[ContranominalScale],
    ctx: FormalContext,
    write: Callable[[str], object],
    pretty: bool,
) -> None:
    """Write the scales as JSON, or under ``pretty`` one ``dim=k; pairs=(g,m),...`` line each.

    The JSON equals ``_json([{"dim": k, "pairs": [[object, attribute],
    ...]}, ...])`` followed by a newline; each label is encoded once.  Each
    scale's text opens with the text that ends the scale before it, and
    the texts of up to ``_SCALES_PER_WRITE`` scales are joined into one
    chunk, so a chunk holds whole scales.  One closing chunk follows:
    ``"[]\n"`` or ``"\n"`` alone when there is no scale.
    """
    if pretty:
        objects = [f"({g}," for g in ctx.objects]
        attributes = [f"{m})" for m in ctx.attributes]
        header, separator = "dim=%d; pairs=", ","
        first, between, empty, closing = "", "\n", "\n", "\n"
    else:
        from json.encoder import encode_basestring_ascii

        objects = [f"      [\n        {encode_basestring_ascii(g)},\n" for g in ctx.objects]
        attributes = [f"        {encode_basestring_ascii(m)}\n      ]" for m in ctx.attributes]
        header, separator = '  {\n    "dim": %d,\n    "pairs": [\n', ",\n"
        first, between, empty = "[\n", "\n    ]\n  },\n", "[]\n"
        closing = "\n    ]\n  }\n]\n"
    # A pair (g, m) is object g's text followed by attribute m's.
    pair_text = _PairText(objects, attributes).__getitem__
    headers = [header % k for k in range(ctx.n_attributes + 1)]
    texts = (
        f"{between}{headers[len(pairs)]}{separator.join(map(pair_text, pairs))}"
        for pairs in map(attrgetter("pairs"), scales)
    )
    chunk = "".join(islice(texts, _SCALES_PER_WRITE))
    if not chunk:
        write(empty)
        return
    # The first scale opens the output, not the end of a scale before it.
    write(first + chunk[len(between):])
    while chunk := "".join(islice(texts, _SCALES_PER_WRITE)):
        write(chunk)
    write(closing)


def _influence_rows(report: InfluenceReport) -> list[list[str]]:
    """The header and one row per attribute: label, cubic sets per size, zeta."""
    ks = sorted({k for a in report.per_attribute for k in a.cubic_counts})
    rows = [["attribute", *map(str, ks), "zeta"]]
    for a in report.per_attribute:
        rows.append([a.label, *(str(a.cubic_counts.get(k, 0)) for k in ks), f"{a.zeta:.1f}"])
    return rows


def _influence_table(report: InfluenceReport, delta: Fraction | None) -> str:
    """The rows in aligned columns, plus a ``selected`` column when ``delta`` is given."""
    if not report.per_attribute:
        return ""
    rows = _influence_rows(report)
    if delta is not None:
        from .adjust import select_attributes

        chosen = set(select_attributes(report, delta))
        rows[0].append("selected")
        for a, row in zip(report.per_attribute, rows[1:]):
            row.append("*" if a.attribute in chosen else "")
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def _write_knowledge_json(
    results: Sequence[ExperimentResult], write: Callable[[str], object]
) -> None:
    """Write the experiment arms as JSON, one chunk per arm, then a newline.

    The text equals ``_json`` of the payload, a list of arms or the one arm
    alone, followed by a newline.  Each arm's header goes through ``_json``;
    its repetitions are formatted here, as the encoder would indent them.
    """
    pad = "  " if len(results) > 1 else ""
    brace, key, item = pad + "    ", pad + "      ", pad + "        "
    between_features = ",\n" + item
    opening = "[\n" if pad else ""
    for result in results:
        cfg = result.config
        header = _json({
            "config": {
                "seed": cfg.seed,
                "delta": float(cfg.delta),
                "repetitions": cfg.repetitions,
                "split_fraction": cfg.split_fraction,
                "method": cfg.method,
            },
            "mean_accuracy": result.mean_accuracy,
            "std_accuracy": result.std_accuracy,
            "concept_count": result.concept_count,
            "base_size": result.base_size,
        })
        # The header without its closing "\n}", re-indented to the arm's depth.
        head = pad + header[:-2].replace("\n", "\n" + pad)
        repetitions = ",\n".join([
            f'{brace}{{\n{key}"index": {r.index},\n{key}"label": {r.label_attribute},\n'
            f'{key}"features": [\n{item}{between_features.join(map(str, r.features))}\n'
            f'{key}],\n{key}"accuracy": {float.__repr__(r.accuracy)}\n{brace}}}'
            for r in result.repetitions
        ])
        write(f'{opening}{head},\n{pad}  "repetitions": [\n{repetitions}\n{pad}  ]\n{pad}}}')
        opening = ",\n"
    write("\n]\n" if pad else "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_convert(args: argparse.Namespace, ctx: FormalContext) -> None:
    _emit(args, _context_text(args, ctx))


def cmd_stats(args: argparse.Namespace, ctx: FormalContext) -> None:
    payload: dict = {
        "objects": ctx.n_objects,
        "attributes": ctx.n_attributes,
        "density": round(ctx.density, 6),
    }
    if args.full:
        from .lattice import _lectic_walk

        intents, extents, pseudo = _lectic_walk(ctx)
        n = len(intents)
        payload["concepts"] = n
        payload["mean_objects_per_concept"] = round(
            sum(extent.bit_count() for extent in extents) / n, 4
        )
        payload["mean_attributes_per_concept"] = round(
            sum(intent.bit_count() for intent in intents) / n, 4
        )
        payload["canonical_base_size"] = len(pseudo)
    _emit(args, payload)


def cmd_preprocess(args: argparse.Namespace, ctx: FormalContext) -> None:
    if args.trace and args.output:
        try:
            same = os.path.samefile(args.trace, args.output)
        except OSError:  # one of them is not there yet
            same = os.path.realpath(args.trace) == os.path.realpath(args.output)
        if same:
            raise ValueError(f"--trace and -o name the same file: {args.output!r}")
    trace_payload: dict = {}
    if args.mode in ("clarify", "both"):
        ctx, cmap = clarify(ctx)
        trace_payload["object_classes"] = [list(c) for c in cmap.object_classes]
        trace_payload["attribute_classes"] = [list(c) for c in cmap.attribute_classes]
    if args.mode in ("reduce", "both"):
        ctx, trace = reduce_context(ctx)
        trace_payload["removed_attributes"] = [
            {"index": x, "replacement": list(w)} for x, w in trace.removed_attributes
        ]
        trace_payload["removed_objects"] = [
            {"index": x, "replacement": list(w)} for x, w in trace.removed_objects
        ]
    # The text is built, and both files opened, before either is emptied or
    # written; a trace file this run made goes again if the output cannot be
    # opened.  A label no writer can hold, or a path that cannot be opened,
    # then leaves no new file behind and no existing one changed.
    text = _context_text(args, ctx)
    if not args.trace:
        _emit(args, text)
        return
    made = not os.path.exists(args.trace)
    trace = open(args.trace, "a", encoding="utf-8")
    opened = False
    try:
        with trace, _output(args) as write:
            opened = True
            trace.truncate(0)
            trace.write(_json(trace_payload) + "\n")
            write(text)
    except OSError:
        if made and not opened:
            os.remove(args.trace)
        raise


def cmd_core(args: argparse.Namespace, ctx: FormalContext) -> None:
    selection = pq_core(ctx, args.p, args.q)
    if args.to:
        _emit(args, _context_text(args, apply_selection(selection)))
    else:
        _emit(args, {
            "objects": [ctx.objects[g] for g in selection.object_indices],
            "attributes": [ctx.attributes[m] for m in selection.attribute_indices],
        })


def cmd_scales(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .scales import count_scales, enumerate_scales

    if args.count_only:
        count = count_scales(ctx, min_dimension=args.min_dim)
        _emit(args, {
            "total": count.total,
            "max_dimension": count.max_dimension,
            "histogram": {str(k): v for k, v in count.histogram.items()},
        })
        return
    if args.pretty:
        _refuse_line_breaks(ctx.objects + ctx.attributes)
    stream = enumerate_scales(ctx, min_dimension=args.min_dim)
    with _output(args) as write:
        _write_scales(stream, ctx, write, args.pretty)


def cmd_influence(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .adjust import _delta_fraction, influence

    if args.pretty:
        _refuse_line_breaks(ctx.attributes)
    delta = None if args.delta is None else _delta_fraction(args.delta)
    report = influence(ctx)
    if args.pretty:
        _emit(args, _influence_table(report, delta))
    elif args.csv:
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(_influence_rows(report))
        _emit(args, buf.getvalue())
    else:
        _emit(args, [
            {
                "label": a.label,
                "counts": {str(k): c for k, c in a.cubic_counts.items()},
                "zeta": a.zeta,
            }
            for a in report.per_attribute
        ])


def cmd_adjust(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .adjust import delta_adjust

    selection = delta_adjust(ctx, args.delta)
    if args.to:
        sub = SubcontextSelection(ctx, tuple(range(ctx.n_objects)), selection.attributes)
        _emit(args, _context_text(args, apply_selection(sub)))
    else:
        chosen = set(selection.attributes)
        _emit(args, {
            "delta": selection.delta,
            "chosen": [ctx.attributes[m] for m in selection.attributes],
            "excluded": [label for m, label in enumerate(ctx.attributes) if m not in chosen],
        })


def cmd_concepts(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .lattice import _lectic_walk, enumerate_concepts

    if args.count_only:
        _emit(args, {"concepts": len(_lectic_walk(ctx)[0])})
    else:
        _emit(args, [
            {
                "extent": [ctx.objects[g] for g in c.extent],
                "intent": [ctx.attributes[m] for m in c.intent],
            }
            for c in enumerate_concepts(ctx)
        ])


def cmd_base(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .lattice import canonical_base

    if args.pretty:
        _refuse_line_breaks(ctx.attributes)
    base = canonical_base(ctx)
    labels = ctx.attributes
    if args.count_only:
        _emit(args, {"implications": len(base)})
    elif args.pretty:
        _emit(args, "\n".join(
            ", ".join(labels[m] for m in imp.premise)
            + " -> "
            + ", ".join(labels[m] for m in imp.conclusion)
            for imp in base
        ))
    else:
        _emit(args, [
            {
                "premise": [labels[m] for m in imp.premise],
                "conclusion": [labels[m] for m in imp.conclusion],
            }
            for imp in base
        ])


def cmd_experiment_structure(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .bench import run_structure_experiment

    payload = run_structure_experiment(
        ctx, args.delta, samples=args.samples, seed=args.seed
    )
    _emit(args, payload)


def cmd_experiment_knowledge(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .adjust import _delta_fraction
    from .bench import ExperimentConfig, run_knowledge_experiment

    cfg = ExperimentConfig(
        seed=args.seed,
        delta=_delta_fraction(args.delta),
        repetitions=args.repetitions,
        split_fraction=args.split,
        method=args.method,
    )
    results = run_knowledge_experiment(ctx, cfg)
    if args.csv:
        lines = ["method,mean_accuracy,std_accuracy,concept_count,base_size"]
        lines.extend(
            f"{r.config.method},{r.mean_accuracy:.4f},{r.std_accuracy:.4f},"
            f"{r.concept_count},{r.base_size}"
            for r in results
        )
        _emit(args, "\n".join(lines))
    else:
        with _output(args) as write:
            _write_knowledge_json(results, write)


def cmd_bench(args: argparse.Namespace, ctx: FormalContext) -> None:
    from .bench import benchmark_enumeration

    _emit(args, benchmark_enumeration(ctx, args.algorithms, timeout=args.timeout))


# One parser serves every ``main`` call in a process; ``build_parser`` builds afresh.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        source = sys.stdin if args.input == "-" else args.input
        args.func(args, load_context(source, args.format or infer_format(args.input)))
    except BrokenPipeError:
        # The reader stopped early, as ``| head`` does; that is not a data
        # error.  Stdout goes to devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())

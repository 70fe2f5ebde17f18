"""Command-line driver for the whole pipeline.

Library calls return data; this module builds every command's text.
Structured results go to stdout as JSON (human-readable tables behind
``--pretty``, contexts behind ``--to``); diagnostics go to stderr.  Exit
status: 0 success, also when the reader closes the pipe early; 1 usage
error; 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator

from . import __version__
from .adjust import (
    InfluenceReport,
    NotPreprocessedError,
    _delta_fraction,
    delta_adjust,
    influence,
    select_attributes,
)
from .bench import (
    ExperimentConfig,
    ExperimentResult,
    benchmark_enumeration,
    run_knowledge_experiment,
    run_structure_experiment,
)
from .context import (
    FormalContext,
    NotClarifiedError,
    SubcontextSelection,
    apply_selection,
    clarify,
    pq_core,
    reduce_context,
)
from .formats import ContextParseError, dumps_csv, dumps_cxt, infer_format, load_context
from .lattice import _lectic_walk, canonical_base, enumerate_concepts
from .scales import ALGORITHMS, ContranominalScale, count_scales, enumerate_scales

USAGE_EXIT = 1
DATA_EXIT = 2

_DataError = (ContextParseError, NotClarifiedError, NotPreprocessedError, ValueError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _read_context(args: argparse.Namespace) -> FormalContext:
    fmt = args.format or infer_format(args.input)
    if args.input == "-":
        return load_context(sys.stdin, fmt)
    return load_context(args.input, fmt)


@contextmanager
def _output(args: argparse.Namespace) -> Iterator[Callable[[str], object]]:
    """The ``write`` of the command's output: the ``-o`` file, else stdout."""
    if getattr(args, "output", None):
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


def _emit_context(args: argparse.Namespace, ctx: FormalContext) -> None:
    """Write ``ctx`` in the ``--to`` format."""
    _emit(args, dumps_cxt(ctx) if args.to == "cxt" else dumps_csv(ctx))


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="context file, or - for stdin")
    parser.add_argument(
        "--format",
        choices=("cxt", "csv"),
        help="input format (default: from the file extension)",
    )


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", help="write to this file instead of stdout")


def _algorithm_list(text: str) -> tuple[str, ...]:
    """The ``--algorithms`` value: a nonempty comma-separated list of known names.

    A name given twice is run once; the report has one entry per algorithm.
    """
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
    parser = _Parser(prog="contrascale", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between cxt and csv")
    _add_input(p)
    _add_output(p)
    p.add_argument("--to", choices=("cxt", "csv"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="size and density descriptives")
    _add_input(p)
    _add_output(p)
    p.add_argument(
        "--full",
        action="store_true",
        help="also compute concept and base statistics (can be slow)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("preprocess", help="clarify and/or reduce a context")
    _add_input(p)
    _add_output(p)
    p.add_argument("--mode", choices=("clarify", "reduce", "both"), default="both")
    p.add_argument("--to", choices=("cxt", "csv"), default="cxt")
    p.add_argument("--trace", help="write the clarification/reduction trace JSON here")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("core", help="peel to the (p,q)-core")
    _add_input(p)
    _add_output(p)
    p.add_argument("-p", type=int, required=True, help="minimum crosses per object")
    p.add_argument("-q", type=int, required=True, help="minimum crosses per attribute")
    p.add_argument("--to", choices=("cxt", "csv"), help="emit the core as a context file")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("scales", help="enumerate contranominal scales")
    _add_input(p)
    _add_output(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--min-dim", type=int, help="peel a core and keep dimensions >= this")
    p.add_argument("--pretty", action="store_true", help="one scale per line instead of JSON")
    p.set_defaults(func=cmd_scales)

    p = sub.add_parser("influence", help="per-attribute influence report")
    _add_input(p)
    _add_output(p)
    p.add_argument("--delta", help="mark the selection for this delta in the table")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--pretty", action="store_true")
    mode.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("adjust", help="select the low-influence attribute subset")
    _add_input(p)
    _add_output(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--to", choices=("cxt", "csv"), help="emit the adjusted subcontext")
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("concepts", help="enumerate formal concepts")
    _add_input(p)
    _add_output(p)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_concepts)

    p = sub.add_parser("base", help="canonical implication base")
    _add_input(p)
    _add_output(p)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--pretty", action="store_true", help="one implication per line")
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("experiment", help="structure or knowledge experiments")
    exp = p.add_subparsers(dest="experiment", required=True)

    ps = exp.add_parser("structure", help="concept/base shrinkage for one delta")
    _add_input(ps)
    _add_output(ps)
    ps.add_argument("--delta", default="0.5")
    ps.add_argument("--samples", type=int, default=10)
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=cmd_experiment_structure)

    pk = exp.add_parser("knowledge", help="decision-tree label prediction")
    _add_input(pk)
    _add_output(pk)
    pk.add_argument("--delta", default="0.5")
    pk.add_argument("--repetitions", type=int, default=1000)
    pk.add_argument("--split", type=float, default=0.5)
    pk.add_argument("--seed", type=int, required=True)
    pk.add_argument("--method", choices=("adjusted", "sampled", "both"), default="both")
    pk.add_argument("--csv", action="store_true", help="summary CSV instead of JSON")
    pk.set_defaults(func=cmd_experiment_knowledge)

    p = sub.add_parser("bench", help="time the enumeration algorithms")
    _add_input(p)
    _add_output(p)
    p.add_argument(
        "--algorithms",
        type=_algorithm_list,
        default=ALGORITHMS,
        help="comma-separated subset of: " + ", ".join(ALGORITHMS),
    )
    p.add_argument(
        "--timeout", type=_positive_seconds, help="per-algorithm budget in seconds (> 0)"
    )
    p.set_defaults(func=cmd_bench)

    return parser


# -- text forms -----------------------------------------------------------------


def _write_scale_lines(
    scales: Iterable[ContranominalScale], ctx: FormalContext, write: Callable[[str], object]
) -> None:
    """Write one ``dim=k; pairs=(g,m),...`` line per scale; a lone newline when there is none."""
    empty = True
    for scale in scales:
        pairs = ",".join(f"({ctx.objects[g]},{ctx.attributes[m]})" for g, m in scale.pairs)
        write(f"dim={scale.dimension}; pairs={pairs}\n")
        empty = False
    if empty:
        write("\n")


def _write_scales_json(
    scales: Iterable[ContranominalScale], ctx: FormalContext, write: Callable[[str], object]
) -> None:
    """Write the scales as a JSON list, one chunk per scale, then a newline.

    The text equals ``_json([{"dim": k, "pairs": [[object, attribute],
    ...]}, ...])`` followed by a newline; each label is encoded once.
    """
    # A pair [g, m] is object g's text followed by attribute m's.
    objects = [f'      [\n        {encode_basestring_ascii(g)},\n' for g in ctx.objects]
    attributes = [f'        {encode_basestring_ascii(m)}\n      ]' for m in ctx.attributes]
    opening = "[\n"
    for scale in scales:
        pairs = ",\n".join([objects[g] + attributes[m] for g, m in scale.pairs])
        write(f'{opening}  {{\n    "dim": {scale.dimension},\n    "pairs": [\n{pairs}\n    ]\n  }}')
        opening = ",\n"
    write("[]\n" if opening == "[\n" else "\n]\n")


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
        chosen = set(select_attributes(report, delta))
        rows[0].append("selected")
        for a, row in zip(report.per_attribute, rows[1:]):
            row.append("*" if a.attribute in chosen else "")
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def _experiment_payload(result: ExperimentResult) -> dict:
    """The JSON payload of one experiment arm."""
    return {
        "config": {**asdict(result.config), "delta": float(result.config.delta)},
        "mean_accuracy": result.mean_accuracy,
        "std_accuracy": result.std_accuracy,
        "concept_count": result.concept_count,
        "base_size": result.base_size,
        "repetitions": [
            {
                "index": r.index,
                "label": r.label_attribute,
                "features": list(r.features),
                "accuracy": r.accuracy,
            }
            for r in result.repetitions
        ],
    }


# -- subcommands ----------------------------------------------------------------


def cmd_convert(args: argparse.Namespace) -> int:
    _emit_context(args, _read_context(args))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    payload: dict = {
        "objects": ctx.n_objects,
        "attributes": ctx.n_attributes,
        "density": round(ctx.density, 6),
    }
    if args.full:
        intents, pseudo = _lectic_walk(ctx)
        n = len(intents)
        payload["concepts"] = n
        payload["mean_objects_per_concept"] = round(
            sum(ctx.extent_mask(intent).bit_count() for intent in intents) / n, 4
        )
        payload["mean_attributes_per_concept"] = round(
            sum(intent.bit_count() for intent in intents) / n, 4
        )
        payload["canonical_base_size"] = len(pseudo)
    _emit(args, payload)
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
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
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(_json(trace_payload) + "\n")
    _emit_context(args, ctx)
    return 0


def cmd_core(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    selection = pq_core(ctx, args.p, args.q)
    if args.to:
        _emit_context(args, apply_selection(selection))
    else:
        _emit(args, {
            "objects": [ctx.objects[g] for g in selection.object_indices],
            "attributes": [ctx.attributes[m] for m in selection.attribute_indices],
        })
    return 0


def cmd_scales(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    if args.count_only:
        count = count_scales(ctx, min_dimension=args.min_dim)
        _emit(args, {
            "total": count.total,
            "max_dimension": count.max_dimension,
            "histogram": {str(k): v for k, v in count.histogram.items()},
        })
        return 0
    stream = enumerate_scales(ctx, min_dimension=args.min_dim)
    with _output(args) as write:
        if args.pretty:
            _write_scale_lines(stream, ctx, write)
        else:
            _write_scales_json(stream, ctx, write)
    return 0


def cmd_influence(args: argparse.Namespace) -> int:
    delta = None if args.delta is None else _delta_fraction(args.delta)
    ctx = _read_context(args)
    report = influence(ctx)
    if args.pretty:
        _emit(args, _influence_table(report, delta))
    elif args.csv:
        _emit(args, "\n".join(map(",".join, _influence_rows(report))))
    else:
        _emit(args, [
            {
                "label": a.label,
                "counts": {str(k): c for k, c in a.cubic_counts.items()},
                "zeta": a.zeta,
            }
            for a in report.per_attribute
        ])
    return 0


def cmd_adjust(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    selection = delta_adjust(ctx, args.delta)
    if args.to:
        sub = SubcontextSelection(ctx, tuple(range(ctx.n_objects)), selection.attributes)
        _emit_context(args, apply_selection(sub))
    else:
        chosen = set(selection.attributes)
        _emit(args, {
            "delta": selection.delta,
            "chosen": [ctx.attributes[m] for m in selection.attributes],
            "excluded": [label for m, label in enumerate(ctx.attributes) if m not in chosen],
        })
    return 0


def cmd_concepts(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
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
    return 0


def cmd_base(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
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
    return 0


def cmd_experiment_structure(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    payload = run_structure_experiment(
        ctx, args.delta, samples=args.samples, seed=args.seed
    )
    _emit(args, payload)
    return 0


def cmd_experiment_knowledge(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    methods = ("adjusted", "sampled") if args.method == "both" else (args.method,)
    results = [
        run_knowledge_experiment(
            ctx,
            ExperimentConfig(
                seed=args.seed,
                delta=_delta_fraction(args.delta),
                repetitions=args.repetitions,
                split_fraction=args.split,
                method=method,
            ),
        )
        for method in methods
    ]
    if args.csv:
        lines = ["method,mean_accuracy,std_accuracy,concept_count,base_size"]
        lines.extend(
            f"{r.config.method},{r.mean_accuracy:.4f},{r.std_accuracy:.4f},"
            f"{r.concept_count},{r.base_size}"
            for r in results
        )
        _emit(args, "\n".join(lines))
    else:
        payloads = [_experiment_payload(r) for r in results]
        _emit(args, payloads if len(payloads) > 1 else payloads[0])
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    ctx = _read_context(args)
    _emit(args, benchmark_enumeration(ctx, args.algorithms, timeout=args.timeout))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader stopped early, as ``| head`` does; that is not a data
        # error.  Stdout goes to devnull so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Reading and writing contexts in Burmeister CXT and CSV form."""

from __future__ import annotations

import io
import os
from typing import IO, Sequence

from .context import FormalContext

__all__ = [
    "ContextParseError",
    "load_context",
    "save_context",
    "loads_cxt",
    "loads_csv",
    "dumps_cxt",
    "dumps_csv",
    "infer_format",
]

FORMATS = ("burmeister-cxt", "csv")
_ALIASES = {"cxt": "burmeister-cxt", "burmeister-cxt": "burmeister-cxt", "csv": "csv"}


class ContextParseError(ValueError):
    """Malformed context file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def infer_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower().lstrip(".")
    if ext in _ALIASES:
        return _ALIASES[ext]
    raise ValueError(f"cannot infer context format from {path!r}; pass format 'cxt' or 'csv'")


def _normalize_format(fmt: str) -> str:
    key = fmt.lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown context format {fmt!r}; expected one of {FORMATS}")
    return _ALIASES[key]


def load_context(source: IO[str] | str | os.PathLike, format: str = "burmeister-cxt") -> FormalContext:
    """Read a context from an open text stream or a file path."""
    fmt = _normalize_format(format)
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return loads_cxt(text) if fmt == "burmeister-cxt" else loads_csv(text)


def save_context(ctx: FormalContext, target: IO[str] | str | os.PathLike, format: str = "burmeister-cxt") -> None:
    fmt = _normalize_format(format)
    text = dumps_cxt(ctx) if fmt == "burmeister-cxt" else dumps_csv(ctx)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- Burmeister CXT --------------------------------------------------------


def loads_cxt(text: str) -> FormalContext:
    # Editors on Windows may start the file with a UTF-8 byte order mark.
    text = text.removeprefix("\ufeff")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    def get(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise ContextParseError(len(lines), f"unexpected end of file, expected {what}")
        return lines[idx]

    if get(0, "header 'B'").strip() != "B":
        raise ContextParseError(1, "expected Burmeister header 'B'")
    if get(1, "blank line").strip() != "":
        raise ContextParseError(2, "expected blank line after header")
    sizes = []
    for idx, what in ((2, "object count"), (3, "attribute count")):
        try:
            sizes.append(int(get(idx, what).strip()))
        except ValueError as exc:
            raise ContextParseError(idx + 1, f"bad size header: {exc}") from None
        if sizes[-1] < 0:
            raise ContextParseError(idx + 1, "sizes must be non-negative")
    n_objects, n_attributes = sizes
    if get(4, "blank line").strip() != "":
        raise ContextParseError(5, "expected blank line after sizes")
    base = 5
    objects = [get(base + i, "object name") for i in range(n_objects)]
    attributes = [get(base + n_objects + i, "attribute name") for i in range(n_attributes)]
    rows = []
    row_base = base + n_objects + n_attributes
    for i in range(n_objects):
        lineno = row_base + i + 1
        raw = get(row_base + i, "incidence row")
        if len(raw) != n_attributes:
            raise ContextParseError(
                lineno, f"incidence row has {len(raw)} cells, expected {n_attributes}"
            )
        mask = 0
        for j, ch in enumerate(raw):
            if ch in "Xx":
                mask |= 1 << j
            elif ch != ".":
                raise ContextParseError(lineno, f"bad incidence character {ch!r}")
        rows.append(mask)
    for extra in range(row_base + n_objects, len(lines)):
        if lines[extra].strip() != "":
            raise ContextParseError(extra + 1, "trailing content after incidence rows")
    try:
        return FormalContext.from_masks(objects, attributes, rows)
    except ValueError as exc:
        # Only a repeated label fails here; name the line of its second use.
        i = _repeat(objects)
        line = base + 1 + (i if i is not None else n_objects + _repeat(attributes))
        raise ContextParseError(line, str(exc)) from None


def _repeat(labels: list[str]) -> int | None:
    """Index of the first label that repeats an earlier one."""
    first: dict[str, int] = {}
    return next((i for i, label in enumerate(labels) if first.setdefault(label, i) != i), None)


def _refuse_labels(labels: Sequence[str], chars: str, why: str) -> None:
    for label in labels:
        if any(ch in label for ch in chars):
            raise ValueError(f"label {label!r} contains {why}")


def dumps_cxt(ctx: FormalContext) -> str:
    # CXT holds one label per line, so a label with a line break cannot be read back.
    _refuse_labels(ctx.objects + ctx.attributes, "\n\r", "a line break, which CXT cannot hold")
    out = ["B", "", str(ctx.n_objects), str(ctx.n_attributes), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for row in ctx.incidence_rows():
        out.append("".join("X" if cell else "." for cell in row))
    return "\n".join(out) + "\n"


# -- CSV --------------------------------------------------------------------
# ``csv`` is imported by the two functions that use it, so CXT runs never load it.

_TRUE_CELLS = {"1", "x", "X"}
_FALSE_CELLS = {"0", ""}


def loads_csv(text: str) -> FormalContext:
    import csv

    # Strict mode rejects malformed quoting, such as a quoted cell that is
    # never closed, instead of reading it to the end of the text.
    reader = csv.reader(io.StringIO(text, newline=None), strict=True)
    # Records keep the line they start on, since a quoted cell may span lines.
    records = []
    start = 1
    try:
        for record in reader:
            records.append((start, record))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ContextParseError(reader.line_num, str(exc)) from None
    if not records:
        raise ContextParseError(1, "empty file")
    header = records[0][1]
    attributes = header[1:]
    objects = []
    rows = []
    for lineno, record in records[1:]:
        if not record:
            continue
        if len(record) != len(header):
            raise ContextParseError(
                lineno, f"row has {len(record)} cells, expected {len(header)}"
            )
        objects.append(record[0])
        mask = 0
        for j, cell in enumerate(record[1:]):
            value = cell.strip()
            if value in _TRUE_CELLS:
                mask |= 1 << j
            elif value not in _FALSE_CELLS:
                raise ContextParseError(lineno, f"bad cell value {cell!r}")
        rows.append(mask)
    try:
        return FormalContext.from_masks(objects, attributes, rows)
    except ValueError as exc:
        # Only a repeated label fails here: an object on its record's line, an attribute on line 1.
        i = _repeat(objects)
        line = 1 if i is None else [n for n, record in records[1:] if record][i]
        raise ContextParseError(line, str(exc)) from None


def dumps_csv(ctx: FormalContext) -> str:
    import csv

    # ``loads_csv`` reads with universal newlines, which turn every ``\r`` into
    # ``\n`` (or drop it at the end of a line), so such a label cannot be read back.
    _refuse_labels(ctx.objects + ctx.attributes, "\r", "a carriage return, which CSV cannot hold")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(ctx.attributes))
    for label, row in zip(ctx.objects, ctx.incidence_rows()):
        writer.writerow([label] + ["1" if cell else "0" for cell in row])
    return buf.getvalue()

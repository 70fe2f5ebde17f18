"""Formal contexts and the structural operations on them.

A formal context is a binary object/attribute table.  Rows and columns are
stored as integer bitmasks, so derivations and the enumeration algorithms in
the rest of the package reduce to chains of bitwise ANDs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "FormalContext",
    "SubcontextSelection",
    "ClarificationMap",
    "ReductionTrace",
    "NotClarifiedError",
    "derive_attributes",
    "derive_objects",
    "complement",
    "clarify",
    "reduce_context",
    "pq_core",
    "apply_selection",
    "make_contranominal",
    "mask_to_indices",
    "indices_to_mask",
]


class NotClarifiedError(ValueError):
    """Raised when an operation that needs a clarified context gets a raw one."""


def indices_to_mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_to_indices(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class FormalContext:
    """Immutable object/attribute incidence table.

    ``objects`` and ``attributes`` are ordered label tuples; the attribute
    order is fixed at construction and defines the order in which the
    enumeration algorithms walk attribute subsets.
    """

    __slots__ = ("objects", "attributes", "_rows", "_cols", "_tables")

    def __init__(
        self,
        objects: Sequence[str],
        attributes: Sequence[str],
        incidence: Sequence[Sequence[int | bool]],
    ):
        self._set_labels(objects, attributes, len(incidence))
        rows = []
        for g, row in enumerate(incidence):
            cells = list(row)
            if len(cells) != len(self.attributes):
                raise ValueError(
                    f"incidence row {g} has {len(cells)} cells, "
                    f"expected {len(self.attributes)}"
                )
            rows.append(indices_to_mask(m for m, cell in enumerate(cells) if cell))
        self._set_rows(rows)

    @classmethod
    def from_masks(
        cls,
        objects: Sequence[str],
        attributes: Sequence[str],
        rows: Sequence[int],
    ) -> "FormalContext":
        """Build from per-object attribute bitmasks (bit ``m`` = attribute m)."""
        ctx = cls.__new__(cls)
        ctx._set_labels(objects, attributes, len(rows))
        n = len(ctx.attributes)
        for g, mask in enumerate(rows):
            if mask < 0 or mask >> n:
                raise ValueError(f"row {g} mask {mask} is outside [0, 2**{n}) for {n} attributes")
        ctx._set_rows(rows)
        return ctx

    def _set_labels(
        self, objects: Sequence[str], attributes: Sequence[str], n_rows: int
    ) -> None:
        self.objects: tuple[str, ...] = tuple(str(o) for o in objects)
        self.attributes: tuple[str, ...] = tuple(str(a) for a in attributes)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object labels must be pairwise distinct")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attribute labels must be pairwise distinct")
        if n_rows != len(self.objects):
            raise ValueError(f"incidence has {n_rows} rows, expected {len(self.objects)}")

    def _set_rows(self, rows: Iterable[int]) -> None:
        self._rows: tuple[int, ...] = tuple(rows)
        cols = [0] * len(self.attributes)
        for g, row_mask in enumerate(self._rows):
            bit = 1 << g
            rest = row_mask
            while rest:
                low = rest & -rest
                cols[low.bit_length() - 1] |= bit
                rest ^= low
        self._cols: tuple[int, ...] = tuple(cols)
        self._tables: tuple[tuple[int, ...], ...] | None = None

    # -- size and lookups ------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def all_objects_mask(self) -> int:
        return (1 << len(self.objects)) - 1

    @property
    def all_attributes_mask(self) -> int:
        return (1 << len(self.attributes)) - 1

    def incident(self, g: int, m: int) -> bool:
        return bool(self._rows[g] >> m & 1)

    def row(self, g: int) -> int:
        """Attribute bitmask of object ``g``."""
        return self._rows[g]

    def col(self, m: int) -> int:
        """Object bitmask of attribute ``m``."""
        return self._cols[m]

    def rows(self) -> tuple[int, ...]:
        return self._rows

    def cols(self) -> tuple[int, ...]:
        return self._cols

    @property
    def density(self) -> float:
        cells = len(self.objects) * len(self.attributes)
        if cells == 0:
            return 0.0
        return sum(r.bit_count() for r in self._rows) / cells

    def incidence_rows(self) -> Iterator[tuple[bool, ...]]:
        n = len(self.attributes)
        for mask in self._rows:
            yield tuple(bool(mask >> m & 1) for m in range(n))

    # -- mask-level derivations (hot path for the algorithms) ------------

    def intent_mask(self, object_mask: int) -> int:
        """Attributes shared by the objects in ``object_mask`` (all attributes for none).

        The AND of the objects' rows; a bit beyond the objects raises ``IndexError``,
        and a negative mask ``ValueError``.
        """
        out = self.all_attributes_mask
        for g in mask_to_indices(object_mask):
            out &= self._rows[g]
        return out

    def _intent_tables(self) -> tuple[tuple[int, ...], ...]:
        """Per 8 objects, the intent of each subset of them, indexed by its byte.

        Entry ``v`` of table ``k`` is the AND of the rows ``8k + j`` for the
        set bits ``j`` of ``v``, and entry 0 is every attribute (the "four
        Russians" trick, Arlazarov et al. 1970).  ``lattice._lectic_walk``
        is their one reader: the first walk on the context builds them, and
        later calls return the kept tables.
        """
        if self._tables is not None:
            return self._tables
        full = self.all_attributes_mask
        rows = self._rows
        tables = []
        for base in range(0, len(rows), 8):
            table = [full]
            for row in rows[base : base + 8]:
                table += [t & row for t in table]
            tables.append(tuple(table))
        self._tables = tuple(tables)
        return self._tables

    def extent_mask(self, attribute_mask: int) -> int:
        out = self.all_objects_mask
        for m in mask_to_indices(attribute_mask):
            out &= self._cols[m]
        return out

    def closure_mask(self, attribute_mask: int) -> int:
        """Attribute closure B -> B'' as bitmasks."""
        return self.intent_mask(self.extent_mask(attribute_mask))

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalContext):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.attributes == other.attributes
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.objects, self.attributes, self._rows))

    # The intent tables are a cache: pickles and copies hold the incidence only.
    def __reduce__(self) -> tuple[object, tuple[object, ...]]:
        return type(self).from_masks, (self.objects, self.attributes, self._rows)

    def __repr__(self) -> str:
        return (
            f"FormalContext({len(self.objects)} objects, "
            f"{len(self.attributes)} attributes, density={self.density:.3f})"
        )


class _Record:
    """Base of the immutable record types: each subclass names its fields in ``__slots__``.

    A subclass gets an ``__init__`` that takes its fields positionally or by
    keyword and then calls the subclass's ``__post_init__``, if it has one;
    ``==`` with records of its own class; the hash of its field tuple; the
    repr ``Name(field=value, ...)``; positional ``match`` patterns; and
    pickling and copying by its fields.  Class keywords give the trailing
    fields defaults, as in ``class Config(_Record, rounds=1)``.
    Setting or deleting any attribute raises ``AttributeError``.  That is what
    a frozen ``dataclass`` gives.  It is not a ``dataclass`` because importing
    ``dataclasses`` and running its class decorator cost every command a
    large share of its start-up, and because a frozen dataclass's
    ``__init__`` is slower than one slot store per field, a cost that
    ``enumerate_scales`` pays once per scale.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults: object) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        trailing = fields[len(fields) - len(defaults):]
        if set(defaults) != set(trailing):
            raise TypeError(f"{cls.__qualname__} defaults must name its trailing fields")
        # Each field is stored through its slot's descriptor, since
        # __setattr__ refuses; one exec per class keeps the __init__ free of
        # loops over the fields, as in dataclasses.
        setters = {f"_set_{name}": cls.__dict__[name].__set__ for name in fields}
        body = [f"_set_{name}(self, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(fields)}):\n    " + "\n    ".join(body), setters)
        init = setters["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple([defaults[name] for name in trailing])
        cls.__init__ = init
        cls.__match_args__ = fields

    def _values(self) -> tuple[object, ...]:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._values()


class SubcontextSelection(_Record):
    """A row/column selection of a parent context, kept as sorted index tuples.

    ``parent`` is the ``FormalContext``; ``object_indices`` and
    ``attribute_indices`` are tuples of its indices.
    """

    __slots__ = ("parent", "object_indices", "attribute_indices")

    def __post_init__(self) -> None:
        for name, indices, limit in (
            ("object", self.object_indices, self.parent.n_objects),
            ("attribute", self.attribute_indices, self.parent.n_attributes),
        ):
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"{name} indices must be sorted and duplicate-free")
            if indices and (indices[0] < 0 or indices[-1] >= limit):
                raise ValueError(f"{name} index out of range")


class ClarificationMap(_Record):
    """Duplicate-row/column classes removed by :func:`clarify`.

    Each class is a sorted tuple of original indices; the first entry is the
    representative kept in the clarified context.  Classes are ordered by
    representative, so class ``i`` corresponds to row/column ``i`` of the
    clarified context.
    """

    __slots__ = ("object_classes", "attribute_classes")

    @property
    def is_trivial(self) -> bool:
        return all(len(c) == 1 for c in self.object_classes) and all(
            len(c) == 1 for c in self.attribute_classes
        )


class ReductionTrace(_Record):
    """What :func:`reduce_context` removed, with replacement witnesses.

    ``removed_attributes`` lists ``(index, replacement)`` pairs where
    ``replacement`` is the maximal set of irreducible attributes whose
    column intersection equals the removed column; dually for objects.
    Indices refer to the context that was reduced.
    """

    __slots__ = ("removed_attributes", "removed_objects")

    @property
    def is_trivial(self) -> bool:
        return not self.removed_attributes and not self.removed_objects

    def kept_attributes(self, n_attributes: int) -> tuple[int, ...]:
        removed = {m for m, _ in self.removed_attributes}
        return tuple(m for m in range(n_attributes) if m not in removed)

    def kept_objects(self, n_objects: int) -> tuple[int, ...]:
        removed = {g for g, _ in self.removed_objects}
        return tuple(g for g in range(n_objects) if g not in removed)


# -- derivations ---------------------------------------------------------


def _check_indices(indices: Iterable[int], limit: int, what: str) -> tuple[int, ...]:
    out = tuple(indices)
    for i in out:
        if not 0 <= i < limit:
            raise IndexError(f"{what} index {i} out of range")
    return out


def derive_attributes(ctx: FormalContext, objects: Iterable[int]) -> tuple[int, ...]:
    """Attributes shared by every object in the set (all attributes for the empty set)."""
    objs = _check_indices(objects, ctx.n_objects, "object")
    return mask_to_indices(ctx.intent_mask(indices_to_mask(objs)))


def derive_objects(ctx: FormalContext, attributes: Iterable[int]) -> tuple[int, ...]:
    """Objects carrying every attribute in the set (all objects for the empty set)."""
    atts = _check_indices(attributes, ctx.n_attributes, "attribute")
    return mask_to_indices(ctx.extent_mask(indices_to_mask(atts)))


def complement(ctx: FormalContext) -> FormalContext:
    """Same labels, incidence negated.  Involutive."""
    full = ctx.all_attributes_mask
    return FormalContext.from_masks(
        ctx.objects, ctx.attributes, [full & ~r for r in ctx.rows()]
    )


# -- clarification and reduction ------------------------------------------


def _duplicate_classes(masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    by_mask: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        by_mask.setdefault(mask, []).append(i)
    # A dict keeps insertion order and the indices ascend, so the classes come
    # out by least index; so do reduce_context's witnesses, filled in index order.
    return tuple([tuple(v) for v in by_mask.values()])


def clarify(ctx: FormalContext) -> tuple[FormalContext, ClarificationMap]:
    """Merge identical rows and identical columns, keeping the lowest index."""
    object_classes = _duplicate_classes(ctx.rows())
    attribute_classes = _duplicate_classes(ctx.cols())
    keep_objs = tuple(c[0] for c in object_classes)
    keep_atts = tuple(c[0] for c in attribute_classes)
    clarified = apply_selection(SubcontextSelection(ctx, keep_objs, keep_atts))
    return clarified, ClarificationMap(object_classes, attribute_classes)


def is_clarified(ctx: FormalContext) -> bool:
    return len(set(ctx.rows())) == ctx.n_objects and len(set(ctx.cols())) == ctx.n_attributes


def _reducible(masks: Sequence[int], full: int) -> list[int]:
    """Indices whose mask equals the intersection of all strictly larger masks."""
    n = len(masks)
    reducible = []
    for x in range(n):
        inter = full
        for y in range(n):
            if y != x and masks[y] & masks[x] == masks[x]:
                inter &= masks[y]
        if inter == masks[x]:
            reducible.append(x)
    return reducible


def _reducible_with_witness(
    masks: Sequence[int], full: int
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Split indices into irreducible ones and reducible ones with witnesses.

    Index ``x`` is reducible when its mask equals the intersection of all
    strictly larger masks.  The witness recorded for ``x`` is the set of all
    *irreducible* indices with a larger mask; maximality makes it unique.
    """
    reducible = _reducible(masks, full)
    reducible_set = set(reducible)
    irreducible = [i for i in range(len(masks)) if i not in reducible_set]
    witnesses: dict[int, tuple[int, ...]] = {}
    for x in reducible:
        ws = tuple(y for y in irreducible if masks[y] & masks[x] == masks[x])
        inter = full
        for y in ws:
            inter &= masks[y]
        if inter != masks[x]:
            raise AssertionError(
                "irreducible witnesses do not reproduce the removed derivation"
            )
        witnesses[x] = ws
    return irreducible, witnesses


def reduce_context(ctx: FormalContext) -> tuple[FormalContext, ReductionTrace]:
    """Drop reducible attributes and objects; record replacement witnesses.

    Requires a clarified context: reducibility of duplicated rows or columns
    is not well defined.
    """
    if not is_clarified(ctx):
        raise NotClarifiedError(
            "context has duplicate rows or columns; apply clarify() first"
        )
    irr_atts, att_witness = _reducible_with_witness(ctx.cols(), ctx.all_objects_mask)
    irr_objs, obj_witness = _reducible_with_witness(ctx.rows(), ctx.all_attributes_mask)
    selection = SubcontextSelection(ctx, tuple(irr_objs), tuple(irr_atts))
    trace = ReductionTrace(tuple(att_witness.items()), tuple(obj_witness.items()))
    return apply_selection(selection), trace


# -- (p,q)-cores -----------------------------------------------------------


def pq_core(ctx: FormalContext, p: int, q: int) -> SubcontextSelection:
    """Maximal subcontext where every row has >= p and every column >= q crosses.

    Computed by peeling to a fixpoint; the result is unique, so peeling order
    does not matter.
    """
    if p < 0 or q < 0:
        raise ValueError("p and q must be non-negative")
    objs = ctx.all_objects_mask
    atts = ctx.all_attributes_mask
    changed = True
    while changed:
        changed = False
        for g in mask_to_indices(objs):
            if (ctx.row(g) & atts).bit_count() < p:
                objs &= ~(1 << g)
                changed = True
        for m in mask_to_indices(atts):
            if (ctx.col(m) & objs).bit_count() < q:
                atts &= ~(1 << m)
                changed = True
    return SubcontextSelection(ctx, mask_to_indices(objs), mask_to_indices(atts))


def apply_selection(sel: SubcontextSelection) -> FormalContext:
    """Materialize the selected subcontext, preserving relative orders."""
    parent = sel.parent
    attributes = tuple(enumerate(sel.attribute_indices))
    rows = []
    for g in sel.object_indices:
        row = parent.row(g)
        mask = 0
        for j, m in attributes:
            if row >> m & 1:
                mask |= 1 << j
        rows.append(mask)
    return FormalContext.from_masks(
        [parent.objects[g] for g in sel.object_indices],
        [parent.attributes[m] for m in sel.attribute_indices],
        rows,
    )


def make_contranominal(k: int) -> FormalContext:
    """The k-dimensional contranominal scale ({1..k}, {1..k}, !=)."""
    if k < 1:
        raise ValueError("dimension must be at least 1")
    labels = [str(i + 1) for i in range(k)]
    full = (1 << k) - 1
    return FormalContext.from_masks(labels, labels, [full & ~(1 << i) for i in range(k)])

"""Enumeration of contranominal scales.

A contranominal scale of dimension k is a k x k subcontext whose only
non-incidences form the diagonal.  The primary enumerator is a depth-first
backtracking search over attribute subsets; a Bron-Kerbosch clique search on
the conflict graph serves as an independent cross-check.  Folds over the same
walk count the scales and find the cubic sets that ``adjust`` scores.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable, Iterable, Iterator, Sequence

from .context import (
    ClarificationMap,
    FormalContext,
    ReductionTrace,
    _Record,
    indices_to_mask,
    mask_to_indices,
    pq_core,
)

__all__ = [
    "ContranominalScale",
    "ScaleFamily",
    "ScaleCount",
    "ConflictGraph",
    "BipartiteGraph",
    "ALGORITHMS",
    "iter_scale_families",
    "enumerate_scales",
    "count_scales",
    "max_dimension",
    "conflict_graph",
    "enumerate_bronkerbosch",
    "scales_from_clarified",
    "scales_from_reduced",
    "to_bipartite",
    "induced_matchings",
]

ALGORITHMS = ("backtracking", "bronkerbosch")


class ContranominalScale(_Record):
    """Witness of one scale: (object, attribute) pairs sorted by attribute.

    Pair i marks the single non-incidence of object i within the attribute
    set; every other (object, attribute) combination of the scale is
    incident.
    """

    __slots__ = ("pairs",)

    @property
    def dimension(self) -> int:
        return len(self.pairs)

    @property
    def object_indices(self) -> tuple[int, ...]:
        return tuple([g for g, _ in self.pairs])

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return tuple([m for _, m in self.pairs])

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.attribute_indices, self.object_indices)

    def is_valid_in(self, ctx: FormalContext) -> bool:
        """``ScaleFamily.is_valid_in`` on one-object classes, the objects' range checked first."""
        objs = self.object_indices
        if not all(0 <= g < ctx.n_objects for g in objs):
            return False
        return ScaleFamily(self.attribute_indices, tuple([1 << g for g in objs])).is_valid_in(ctx)


class ScaleFamily(_Record):
    """All scales sharing one attribute set, encoded by witness classes.

    ``witness_masks[i]`` is the object bitmask of candidates for attribute
    ``attributes[i]``; picking one object per class yields one scale, and
    every choice is valid.
    """

    __slots__ = ("attributes", "witness_masks")

    @property
    def dimension(self) -> int:
        return len(self.attributes)

    def witness_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(mask_to_indices(m) for m in self.witness_masks)

    def iter_scales(self) -> Iterator[ContranominalScale]:
        # Class i as its (object, attributes[i]) pairs, built once per family
        # in one bit loop over its mask, so that each product tuple is
        # already a scale's pairs.
        classes = []
        for m, w in zip(self.attributes, self.witness_masks):
            pairs = []
            while w:
                low = w & -w
                pairs.append((low.bit_length() - 1, m))
                w ^= low
            classes.append(pairs)
        return map(ContranominalScale, product(*classes))

    def is_valid_in(self, ctx: FormalContext) -> bool:
        """Whether every choice of one object per class is a scale of ``ctx``.

        This is ``_family_is_valid`` on ``ctx``'s attribute count, objects and
        columns, the one statement of what a valid family is.
        """
        return _family_is_valid(
            self.attributes, self.witness_masks, ctx.n_attributes, ctx.all_objects_mask, ctx.cols()
        )


def _family_is_valid(
    attrs: Sequence[int],
    wits: Sequence[int],
    n_attributes: int,
    all_objects: int,
    cols: Sequence[int],
) -> bool:
    """Whether every choice of one object per class ``wits[i]`` is a scale.

    The context is given as its attribute count, its all-objects mask and
    its columns, so that a stream reads them once.  The attributes must lie
    in range and ascend strictly, there must be one class per attribute,
    and the classes must be nonempty, pairwise disjoint and within the
    objects.  Each object of class i must then be incident with every
    attribute of the family except ``attrs[i]``.  With one object per class,
    that is the definition of a scale, and ``ContranominalScale.is_valid_in``
    is this check; the condition belongs to each object alone, so it holds
    for every choice.

    It is tested once per attribute, not once per object: with U the union
    of the classes, it holds exactly when ``U & ~cols[attrs[j]] == wits[j]``
    for every j.  The objects of U that miss attribute j are then those of
    class j and no others, which is the per-object condition read column by
    column, since each object of U lies in exactly one class.
    """
    if not attrs or len(wits) != len(attrs):
        return False
    # A plain loop beats any() over a generator on the stream's hot path.
    last = -1
    for m in attrs:
        if m <= last:
            return False
        last = m
    if last >= n_attributes:
        return False
    union = 0
    for w in wits:
        if w <= 0 or w & union:
            return False
        union |= w
    if union & ~all_objects:
        return False
    for m, w in zip(attrs, wits):
        if union & ~cols[m] != w:
            return False
    return True


class ScaleCount(_Record):
    """Scales in all, per dimension as ``{dimension: count}``, and the largest dimension."""

    __slots__ = ("total", "histogram", "max_dimension")


class ConflictGraph(_Record):
    """Graph on non-incident pairs; edges join pairs that can share a scale.

    ``vertices`` are (object, attribute) pairs, and ``edges`` pairs of vertex indices.
    """

    __slots__ = ("vertices", "edges")


class BipartiteGraph(_Record):
    """Labels of the left and right vertices, and edges as (left, right) index pairs."""

    __slots__ = ("left", "right", "edges")


# -- backtracking enumeration ------------------------------------------------


def _lane_layout(
    ctx: FormalContext,
) -> tuple[list[tuple[int, int, int, int]], list[tuple[int, int, int]]]:
    """``(tables, depths)``: the masks of the lane test described in ``_walk``.

    ``tables[m]`` is ``(1 << m, all objects & ~col(m), col(m), spread[m])``,
    where ``spread[m]`` is col(m) copied into every lane.  ``depths[k]`` is
    ``(low[k], guard[k], k * (n + 1))``: ``low[k]`` holds the all-objects mask
    2**n - 1 in lanes 0..k-1, ``guard[k]`` their guard bits, and the shift
    puts a new class into lane k.
    """
    n = ctx.n_objects
    width = n + 1
    all_objects = ctx.all_objects_mask
    lane = (1 << width) - 1
    # repunits[k] has bit 0 of lanes 0..k-1 set.
    repunits = [((1 << k * width) - 1) // lane for k in range(ctx.n_attributes + 1)]
    tables = [
        (1 << m, all_objects & ~col, col, col * repunits[-1])
        for m, col in enumerate(ctx.cols())
    ]
    depths = [(all_objects * r, r << n, k * width) for k, r in enumerate(repunits)]
    return tables, depths


def _classes(lanes: int, n_objects: int) -> tuple[int, ...]:
    """The witness masks held in ``lanes``, lane 0 first.

    Walked lanes are never 0, so shifting stops after the last class.
    """
    full = (1 << n_objects) - 1
    classes = []
    while lanes:
        classes.append(lanes & full)
        lanes >>= n_objects + 1
    return tuple(classes)


def _walk(ctx: FormalContext) -> Iterator[tuple[tuple[int, ...], int, int, bool]]:
    """Raw ``(attrs, lanes, extent, leaf)`` of every scale-carrying attribute set.

    Sets come in canonical order: depth-first by ascending attribute index,
    which equals sorting by the attribute tuple.  ``lanes`` holds the k
    witness masks of the family in one int: with n objects, class i sits in
    bits ``[i*(n+1), i*(n+1)+n)``, its lane, and the lane's guard bit
    ``i*(n+1)+n`` stays 0 (``_classes`` unpacks them).  ``extent`` is the
    object mask of ``attrs``' extent, and ``leaf`` says that no set
    ``attrs + (m,)`` carries a scale.

    Extending A by m needs an object of the extent that misses m and an
    object of ``col(m)`` in every witness class.  For the second test one
    AND with ``spread[m]`` filters all k classes, and adding ``low[k]`` puts
    2**n - 1 into each lane, which carries into the lane's guard bit exactly
    when the lane is not 0 and never into the next lane; so every class kept
    an object when ``(filtered + low[k]) & guard[k] == guard[k]`` (SWAR:
    Lamport, "Multiple byte processing with full-word instructions", CACM
    1975).  The new class is ORed in as lane k.  Both tests only get harder
    as A grows, so a child A + (x,) tests just the m > x that passed for A;
    the stack carries that survivor mask with each unvisited sibling.  Each
    set is yielded as soon as its children are tested, and a set with no
    survivors to test is a leaf at once.
    """
    tables, depths = _lane_layout(ctx)
    # Children are pushed with m descending so that popping visits them in
    # ascending order; child m carries the parent's survivors above m, the
    # only attributes it has left to test.  The root has no classes, so its
    # children need only the first test, and the root itself is not yielded.
    stack = []
    push, pop = stack.append, stack.pop
    survivors = 0
    for m in reversed(range(len(tables))):
        bit, fresh, col, _ = tables[m]
        if fresh:
            push(((m,), fresh, col, survivors))
            survivors |= bit
    while stack:
        attrs, lanes, extent, candidates = pop()
        if not candidates:
            yield attrs, lanes, extent, True
            continue
        low, guard, shift = depths[len(attrs)]
        survivors = 0
        while candidates:
            m = candidates.bit_length() - 1
            bit, outside, col, spread = tables[m]
            candidates ^= bit
            fresh = extent & outside
            if not fresh:
                continue
            filtered = lanes & spread
            # A class that drains to zero kills every extension as well.
            if (filtered + low) & guard != guard:
                continue
            push((attrs + (m,), filtered | fresh << shift, extent & col, survivors))
            survivors |= bit
        yield attrs, lanes, extent, not survivors


def _cubic_families(ctx: FormalContext) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(attrs, lanes)`` of the walked sets that have no scale-carrying superset.

    Set A extends by attribute m exactly when some object of its extent
    misses m and every witness class of A keeps an object in col(m); it
    suffices to test one-attribute extensions because scale-carrying sets
    are closed under subsets.  A set with a child in the walk is not cubic,
    and a leaf of the walk has no extension by an m above its last
    attribute, so only leaves are tested, and only against the m below that
    attribute.  For m in A the first test fails, so no membership test is
    needed, and the test holds on any context.  The second test is the
    walk's own lane test (see ``_walk``).
    """
    tables, depths = _lane_layout(ctx)
    for attrs, lanes, extent, leaf in _walk(ctx):
        if not leaf:
            continue
        low, guard, _ = depths[len(attrs)]
        # A column that extends the leaf breaks out of the loop; a leaf with
        # none is cubic.  Plain loops run about twice as fast as any()/all()
        # over generators in this, the hot part of influence.
        for _, outside, _, spread in tables[: attrs[-1]]:
            if extent & outside and ((lanes & spread) + low) & guard == guard:
                break
        else:
            yield attrs, lanes


def _family_sizes(ctx: FormalContext) -> Iterator[tuple[int, int]]:
    """``(dimension, number of scales)`` of every walked family, in walk order.

    A family's scales are its choices of one object per class, so its size
    is the product of the class sizes, read lane by lane.
    """
    width = ctx.n_objects + 1
    full = ctx.all_objects_mask
    for attrs, lanes, _, _ in _walk(ctx):
        # Walked sets are nonempty, so lane 0 always holds a class.
        size = (lanes & full).bit_count()
        lanes >>= width
        while lanes:
            size *= (lanes & full).bit_count()
            lanes >>= width
        yield len(attrs), size


def iter_scale_families(ctx: FormalContext) -> Iterator[ScaleFamily]:
    """Stream one ``ScaleFamily`` per scale-carrying attribute set, in canonical order.

    Canonical order is depth-first by ascending attribute index, which equals
    sorting by the attribute tuple.  This is a thin wrapper over the raw
    walk, which tests a set's children only against the attributes that
    extended its parent (both extension tests only get harder as the set
    grows).  Each family is built as soon as the walk reaches it, and the
    walk holds only the stack of unvisited siblings.
    """
    n = ctx.n_objects
    for attrs, lanes, _, _ in _walk(ctx):
        yield ScaleFamily(attrs, _classes(lanes, n))


def _min_dimension_core(ctx: FormalContext, min_dimension: int | None) -> FormalContext:
    """The context to walk for scales of dimension >= ``min_dimension``.

    A scale of dimension k lies in the (k-1, k-1)-core, so for k > 1 the walk
    runs on that core, kept on ``ctx``'s own labels and indices: each object
    outside it gets a full row, and each attribute outside it a full column.
    An object that misses no attribute and an attribute that no object misses
    sit in no scale, and the incidences inside the core are unchanged.
    """
    if min_dimension is None or min_dimension <= 1:
        return ctx
    sel = pq_core(ctx, min_dimension - 1, min_dimension - 1)
    full = ctx.all_attributes_mask
    dropped = full & ~indices_to_mask(sel.attribute_indices)
    rows = [full] * ctx.n_objects
    for g in sel.object_indices:
        rows[g] = ctx.row(g) | dropped
    return FormalContext.from_masks(ctx.objects, ctx.attributes, rows)


def _checked_scales(
    ctx: FormalContext, min_dimension: int | None
) -> Iterator[Iterator[ContranominalScale]]:
    """The scales of each family ``enumerate_scales`` streams, one iterator per family.

    The walk's raw sets are read here, not through ``iter_scale_families``:
    one pass over a set's lanes takes out each witness mask and turns it
    into its class's ``(object, attribute)`` pairs, so that each product
    tuple is already a scale's pairs.  ``_family_is_valid`` then checks the
    family on ``ctx``'s attribute count, objects and columns, read once per
    stream, and its assert precedes the family's first scale; no
    ``ScaleFamily`` record is built.
    """
    core = _min_dimension_core(ctx, min_dimension)
    least = min_dimension or 0
    n_attributes, all_objects, cols = ctx.n_attributes, ctx.all_objects_mask, ctx.cols()
    width = core.n_objects + 1
    for attrs, lanes, _, _ in _walk(core):
        if len(attrs) < least:
            continue
        wits = []
        classes = []
        for m in attrs:
            w = lanes & all_objects
            lanes >>= width
            wits.append(w)
            pairs = []
            while w:
                low = w & -w
                pairs.append((low.bit_length() - 1, m))
                w ^= low
            classes.append(pairs)
        assert _family_is_valid(attrs, wits, n_attributes, all_objects, cols)
        yield map(ContranominalScale, product(*classes))


def enumerate_scales(
    ctx: FormalContext, *, min_dimension: int | None = None
) -> Iterator[ContranominalScale]:
    """Stream every contranominal scale of ``ctx`` exactly once, in canonical order.

    Returns a lazy iterator: nothing is walked before the first ``next()``,
    and each scale is built as its family is walked.  Every family is
    checked once with the family check behind ``ScaleFamily.is_valid_in``,
    which covers each of its scales, before its first scale; the scales
    then pass from the family's product to the caller through
    ``itertools.chain`` without a Python frame.  ``min_dimension=k`` walks
    the (k-1, k-1)-core, which keeps every scale of dimension >= k, and
    skips smaller families; it is opt-in because cores silently drop small
    scales.  Bron-Kerbosch
    (``enumerate_bronkerbosch``) is the independent cross-check of this
    stream.  Scales of a clarified or reduced context map back to the
    original through ``scales_from_clarified`` and ``scales_from_reduced``.
    """
    return chain.from_iterable(_checked_scales(ctx, min_dimension))


def count_scales(ctx: FormalContext, *, min_dimension: int | None = None) -> ScaleCount:
    """Scale totals per dimension without materializing the scales."""
    least = min_dimension or 0
    core = _min_dimension_core(ctx, min_dimension)
    # Every family holds at least one scale, so a dimension with no family
    # is exactly one whose total stays 0.
    totals = [0] * (core.n_attributes + 1)
    for dim, size in _family_sizes(core):
        totals[dim] += size
    histogram = {k: v for k, v in enumerate(totals) if v and k >= least}
    return ScaleCount(sum(histogram.values()), histogram, max(histogram, default=0))


def max_dimension(ctx: FormalContext) -> int:
    """Largest scale dimension; 0 when the incidence is full."""
    return max((len(attrs) for attrs, _, _, _ in _walk(ctx)), default=0)


# -- conflict graph and Bron-Kerbosch cross-check ----------------------------


def conflict_graph(ctx: FormalContext) -> ConflictGraph:
    vertices = to_bipartite(ctx).edges
    rows = _conflict_rows(ctx, vertices)
    return ConflictGraph(vertices, tuple((i, j) for i, row in enumerate(rows) for j in row))


def _conflict_rows(
    ctx: FormalContext,
    vertices: tuple[tuple[int, int], ...],
    before_row: Callable[[], object] = lambda: None,
) -> Iterator[list[int]]:
    """Per vertex i, the vertices j > i it shares an edge with, calling ``before_row()`` first.

    The rows are quadratic in the non-incident pairs; a caller with a time
    budget stops them by raising from ``before_row``.
    """
    for i, (g, m) in enumerate(vertices):
        before_row()
        row = []
        for j in range(i + 1, len(vertices)):
            h, n = vertices[j]
            if ctx.incident(g, n) and ctx.incident(h, m):
                row.append(j)
        yield row


def _maximal_cliques(
    adj: list[set[int]], before_step: Callable[[], object] = lambda: None
) -> Iterator[frozenset[int]]:
    """Bron-Kerbosch with pivoting, calling ``before_step()`` at each recursive call."""

    def expand(r: set[int], p: set[int], x: set[int]) -> Iterator[frozenset[int]]:
        before_step()
        if not p and not x:
            yield frozenset(r)
            return
        # Only the root has an empty r, and there p holds every vertex, so
        # adj[v] & p is adj[v] and the pivot is a vertex of largest degree.
        pivot = max(p | x, key=(lambda v: len(adj[v] & p)) if r else (lambda v: len(adj[v])))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    yield from expand(set(), set(range(len(adj))), set())


def _clique_subsets(clique: Sequence[int]) -> Iterator[tuple[int, ...]]:
    members = sorted(clique)
    for bits in range(1, 1 << len(members)):
        yield tuple(members[i] for i in range(len(members)) if bits >> i & 1)


def _bronkerbosch_scales(
    ctx: FormalContext, check: Callable[[], object] = lambda: None
) -> Iterator[ContranominalScale]:
    """Scales via cliques of the conflict graph, in discovery order.

    Bron-Kerbosch yields the maximal cliques; every clique is then recovered
    by subset expansion with global de-duplication, since any clique of the
    conflict graph corresponds to exactly one scale.  ``check()`` is called
    ahead of each row of the graph and each step of the clique search; a
    caller with a time budget stops the run by raising from it.
    """
    vertices = to_bipartite(ctx).edges
    # The adjacency grows row by row, so that no stretch of it runs unchecked.
    adj: list[set[int]] = [set() for _ in vertices]
    for i, row in enumerate(_conflict_rows(ctx, vertices, check)):
        adj[i].update(row)
        for j in row:
            adj[j].add(i)
    seen: set[tuple[int, ...]] = set()
    for clique in _maximal_cliques(adj, check):
        for subset in _clique_subsets(tuple(clique)):
            if subset in seen:
                continue
            seen.add(subset)
            pairs = sorted((vertices[v] for v in subset), key=lambda p: p[1])
            scale = ContranominalScale(tuple(pairs))
            assert scale.is_valid_in(ctx)
            yield scale


def enumerate_bronkerbosch(ctx: FormalContext) -> Iterator[ContranominalScale]:
    """All scales via cliques of the conflict graph, in canonical stream order."""
    yield from sorted(_bronkerbosch_scales(ctx), key=ContranominalScale.sort_key)


# -- reconstruction from clarified / reduced contexts ------------------------


def scales_from_clarified(
    scales: Iterable[ContranominalScale], cmap: ClarificationMap
) -> Iterator[ContranominalScale]:
    """Expand scales of the clarified context to the original one.

    Every object and attribute of a scale is substituted by each member of
    its duplicate class; the expansions of all scales are exactly the scales
    of the unclarified context.  A scale that is empty, repeats an object,
    has attributes not strictly ascending or an index outside the map raises
    ``ValueError``.  An incident pair is not refused: telling one needs the
    clarified context, which the map does not hold.
    """
    obj_classes = cmap.object_classes
    att_classes = cmap.attribute_classes
    for scale in scales:
        pairs = scale.pairs
        objs, atts = scale.object_indices, scale.attribute_indices
        if not (
            pairs
            and len(set(objs)) == len(pairs)
            and all(a < b for a, b in zip(atts, atts[1:]))
            and all(0 <= g < len(obj_classes) and 0 <= m < len(att_classes) for g, m in pairs)
        ):
            raise ValueError("scale does not match the clarification map")
        options = [[(go, mo) for mo in att_classes[m] for go in obj_classes[g]] for g, m in pairs]
        for combo in product(*options):
            yield ContranominalScale(tuple(sorted(combo, key=lambda p: p[1])))


def _stand_ins(
    kept: Sequence[int],
    removed: Sequence[tuple[int, tuple[int, ...]]],
    other: int,
    lines: Sequence[int],
) -> list[list[int]]:
    """For each kept index i: i, then each removed x that can stand in for it.

    x can when i is among x's witnesses and, within ``other``, ``lines[x]``
    lacks only what ``lines[i]`` lacks.
    """
    return [
        [i] + [x for x, witness in removed if i in witness and other & ~lines[x] & lines[i] == 0]
        for i in kept
    ]


def scales_from_reduced(
    scales: Iterable[ContranominalScale],
    trace: ReductionTrace,
    ctx_original: FormalContext,
) -> Iterator[ContranominalScale]:
    """Expand scales of the reduced context to the context it came from.

    A removed attribute x can stand in for a kept attribute n of a scale when
    n is among x's replacement witnesses and x is non-incident only where n
    is within the scale's object set; dually for removed objects.  Distinct
    scales can expand to the same one, so results are de-duplicated.  Input
    that is not a scale of the reduced context raises ``ValueError``.
    """
    kept_atts = trace.kept_attributes(ctx_original.n_attributes)
    kept_objs = trace.kept_objects(ctx_original.n_objects)
    cols = ctx_original.cols()
    rows = ctx_original.rows()
    seen: set[tuple[tuple[int, int], ...]] = set()

    for scale in scales:
        if not all(0 <= g < len(kept_objs) and 0 <= m < len(kept_atts) for g, m in scale.pairs):
            raise ValueError("scale does not match the reduction trace")
        base_pairs = tuple((kept_objs[g], kept_atts[m]) for g, m in scale.pairs)
        if not ContranominalScale(base_pairs).is_valid_in(ctx_original):
            raise ValueError("scale does not match the reduction trace")
        objs = [g for g, _ in base_pairs]
        atts = [m for _, m in base_pairs]
        att_options = _stand_ins(atts, trace.removed_attributes, indices_to_mask(objs), cols)
        for att_choice in product(*att_options):
            obj_options = _stand_ins(objs, trace.removed_objects, indices_to_mask(att_choice), rows)
            for obj_choice in product(*obj_options):
                pairs = tuple(
                    sorted(zip(obj_choice, att_choice), key=lambda p: p[1])
                )
                if pairs in seen:
                    continue
                seen.add(pairs)
                restored = ContranominalScale(pairs)
                assert restored.is_valid_in(ctx_original)
                yield restored


# -- bipartite graph adapter --------------------------------------------------


def to_bipartite(ctx: FormalContext) -> BipartiteGraph:
    """Associated bipartite graph of the complement context."""
    edges = [
        (g, m)
        for g in range(ctx.n_objects)
        for m in range(ctx.n_attributes)
        if not ctx.incident(g, m)
    ]
    return BipartiteGraph(ctx.objects, ctx.attributes, tuple(edges))


def induced_matchings(graph: BipartiteGraph) -> Iterator[tuple[tuple[int, int], ...]]:
    """All induced matchings of a bipartite graph, as sorted edge tuples.

    The edges of the graph are the non-incidences of a context on the same
    vertex sets; induced matchings of size k correspond exactly to scales of
    dimension k there.  An edge outside the vertex sets raises ``ValueError``.
    """
    n_left, n_right = len(graph.left), len(graph.right)
    rows = [(1 << n_right) - 1] * n_left
    for i, j in graph.edges:
        if not (0 <= i < n_left and 0 <= j < n_right):
            raise ValueError(f"edge {(i, j)} is outside the graph's vertex sets")
        rows[i] &= ~(1 << j)
    ctx = FormalContext.from_masks(
        [f"L{i}" for i in range(n_left)],
        [f"R{j}" for j in range(n_right)],
        rows,
    )
    for scale in enumerate_scales(ctx):
        yield scale.pairs

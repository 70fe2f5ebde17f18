"""Enumeration of contranominal scales.

A contranominal scale of dimension k is a k x k subcontext whose only
non-incidences form the diagonal.  The primary enumerator is a depth-first
backtracking search over attribute subsets; a Bron-Kerbosch clique search on
the conflict graph serves as an independent cross-check.  Folds over the same
walk count the scales and find the cubic sets that ``adjust`` scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

from .context import (
    ClarificationMap,
    FormalContext,
    ReductionTrace,
    SubcontextSelection,
    apply_selection,
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
    "enumerate_bruteforce",
    "scales_from_clarified",
    "scales_from_reduced",
    "to_bipartite",
    "induced_matchings",
]

ALGORITHMS = ("backtracking", "bronkerbosch")


@dataclass(frozen=True)
class ContranominalScale:
    """Witness of one scale: (object, attribute) pairs sorted by attribute.

    Pair i marks the single non-incidence of object i within the attribute
    set; every other (object, attribute) combination of the scale is
    incident.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.pairs)

    @property
    def object_indices(self) -> tuple[int, ...]:
        return tuple(g for g, _ in self.pairs)

    @property
    def attribute_indices(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.pairs)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.attribute_indices, self.object_indices)

    def is_valid_in(self, ctx: FormalContext) -> bool:
        pairs = self.pairs
        if not pairs:
            return False
        objs = [g for g, _ in pairs]
        atts = [m for _, m in pairs]
        if len(set(objs)) != len(objs) or len(set(atts)) != len(atts):
            return False
        if atts != sorted(atts):
            return False
        if min(objs) < 0 or max(objs) >= ctx.n_objects:
            return False
        if atts[0] < 0 or atts[-1] >= ctx.n_attributes:
            return False
        for i, (g, _) in enumerate(pairs):
            for j, (_, m) in enumerate(pairs):
                if ctx.incident(g, m) != (i != j):
                    return False
        return True


@dataclass(frozen=True)
class ScaleFamily:
    """All scales sharing one attribute set, encoded by witness classes.

    ``witness_masks[i]`` is the object bitmask of candidates for attribute
    ``attributes[i]``; picking one object per class yields one scale, and
    every choice is valid.
    """

    attributes: tuple[int, ...]
    witness_masks: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.attributes)

    def witness_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(mask_to_indices(m) for m in self.witness_masks)

    def iter_scales(self) -> Iterator[ContranominalScale]:
        # Class i as its (object, attributes[i]) pairs, built once per family,
        # so that each product tuple is already a scale's pairs.
        classes = [
            [(g, m) for g in mask_to_indices(w)]
            for m, w in zip(self.attributes, self.witness_masks)
        ]
        return map(ContranominalScale, product(*classes))

    def is_valid_in(self, ctx: FormalContext) -> bool:
        """Whether every choice of one object per class is a scale of ``ctx``.

        The attributes must ascend strictly, every class must be nonempty,
        and each object of class i must be incident with every attribute of
        the family except ``attributes[i]``.  That last condition belongs to
        each object alone, so it holds exactly when every scale of the family
        passes ``ContranominalScale.is_valid_in``.  It also makes the classes
        pairwise disjoint, which is checked all the same.
        """
        attrs, wits = self.attributes, self.witness_masks
        if not attrs or len(wits) != len(attrs):
            return False
        if attrs[0] < 0 or attrs[-1] >= ctx.n_attributes:
            return False
        if any(a >= b for a, b in zip(attrs, attrs[1:])):
            return False
        rows = ctx.rows()
        all_objects = ctx.all_objects_mask
        family = indices_to_mask(attrs)
        seen = 0
        for m, w in zip(attrs, wits):
            if w <= 0 or w & ~all_objects or w & seen:
                return False
            seen |= w
            own = family & ~(1 << m)
            while w:
                low = w & -w
                if rows[low.bit_length() - 1] & family != own:
                    return False
                w ^= low
        return True


@dataclass(frozen=True)
class ScaleCount:
    total: int
    histogram: dict[int, int]
    max_dimension: int

    @classmethod
    def from_histogram(cls, histogram: dict[int, int]) -> ScaleCount:
        """Totals of a ``{dimension: count}`` histogram, stored sorted by dimension."""
        return cls(
            total=sum(histogram.values()),
            histogram=dict(sorted(histogram.items())),
            max_dimension=max(histogram, default=0),
        )


@dataclass(frozen=True)
class ConflictGraph:
    """Graph on non-incident pairs; edges join pairs that can share a scale."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.vertices]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class BipartiteGraph:
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]


# -- backtracking enumeration ------------------------------------------------


def _lane_layout(ctx: FormalContext) -> tuple[list[int], list[int], list[int]]:
    """``(spread, low, guard)``: the masks of the lane test described in ``_walk``.

    ``spread[m]`` is col(m) copied into every lane, ``low[k]`` holds the
    all-objects mask 2**n - 1 in lanes 0..k-1 and ``guard[k]`` their guard
    bits.
    """
    n = ctx.n_objects
    lane = (1 << n + 1) - 1
    # repunits[k] has bit 0 of lanes 0..k-1 set.
    repunits = [((1 << k * (n + 1)) - 1) // lane for k in range(ctx.n_attributes + 1)]
    spread = [col * repunits[-1] for col in ctx.cols()]
    low = [ctx.all_objects_mask * r for r in repunits]
    guard = [r << n for r in repunits]
    return spread, low, guard


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
    """Raw ``(attrs, lanes, forbidden, leaf)`` of every scale-carrying attribute set.

    Sets come in canonical order: depth-first by ascending attribute index,
    which equals sorting by the attribute tuple.  ``lanes`` holds the k
    witness masks of the family in one int: with n objects, class i sits in
    bits ``[i*(n+1), i*(n+1)+n)``, its lane, and the lane's guard bit
    ``i*(n+1)+n`` stays 0 (``_classes`` unpacks them).  ``forbidden`` is the
    complement of the extent of ``attrs`` (the objects that miss one of its
    attributes), and ``leaf`` says that no set ``attrs + (m,)`` carries a
    scale.

    Extending A by m needs an object outside ``forbidden`` that misses m and
    an object of ``col(m)`` in every witness class.  For the second test one
    AND with ``spread[m]`` filters all k classes, and adding ``low[k]`` puts
    2**n - 1 into each lane, which carries into the lane's guard bit exactly
    when the lane is not 0 and never into the next lane; so every class kept
    an object when ``(filtered + low[k]) & guard[k] == guard[k]`` (SWAR:
    Lamport, "Multiple byte processing with full-word instructions", CACM
    1975).  The new class is ORed in as lane k.  Both tests only get harder
    as A grows, so a child A + (x,) tests just the m > x that passed for A;
    the stack carries that survivor mask with each unvisited sibling.  Each
    set is yielded as soon as its children are tested.
    """
    cols = ctx.cols()
    width = ctx.n_objects + 1
    non_incidence = [ctx.all_objects_mask & ~c for c in cols]
    spread, low, guard = _lane_layout(ctx)
    # Children are pushed with m descending so that popping visits them in
    # ascending order; child m carries the parent's survivors above m, the
    # only attributes it has left to test.
    stack = [((), 0, 0, ctx.all_attributes_mask)]
    while stack:
        attrs, lanes, forbidden, candidates = stack.pop()
        k = len(attrs)
        low_k, guard_k, shift = low[k], guard[k], k * width
        survivors = 0
        while candidates:
            m = candidates.bit_length() - 1
            candidates ^= 1 << m
            fresh = non_incidence[m] & ~forbidden
            if not fresh:
                continue
            filtered = lanes & spread[m]
            # A class that drains to zero kills every extension as well.
            if (filtered + low_k) & guard_k != guard_k:
                continue
            child = attrs + (m,), filtered | fresh << shift, forbidden | non_incidence[m], survivors
            stack.append(child)
            survivors |= 1 << m
        if attrs:
            yield attrs, lanes, forbidden, not survivors


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
    cols = ctx.cols()
    full = ctx.all_objects_mask
    spread, low, guard = _lane_layout(ctx)
    for attrs, lanes, forbidden, leaf in _walk(ctx):
        if not leaf:
            continue
        extent = full & ~forbidden
        k = len(attrs)
        low_k, guard_k = low[k], guard[k]
        # A column that extends the leaf breaks out of the loop; a leaf with
        # none is cubic.  Plain loops run about twice as fast as any()/all()
        # over generators in this, the hot part of influence.
        for col, spread_m in zip(cols[: attrs[-1]], spread):
            if extent & ~col and ((lanes & spread_m) + low_k) & guard_k == guard_k:
                break
        else:
            yield attrs, lanes


def _family_sizes(ctx: FormalContext) -> Iterator[tuple[int, int]]:
    """``(dimension, number of scales)`` of every walked family, in walk order.

    A family's scales are its choices of one object per class, so its size
    is the product of the class sizes, read lane by lane.
    """
    n = ctx.n_objects
    full = (1 << n) - 1
    for attrs, lanes, _, _ in _walk(ctx):
        size = 1
        while lanes:
            size *= (lanes & full).bit_count()
            lanes >>= n + 1
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


def _min_dimension_core(
    ctx: FormalContext, min_dimension: int | None
) -> tuple[FormalContext, SubcontextSelection | None]:
    """The context to walk for scales of dimension >= ``min_dimension``.

    A scale of dimension k lies in the (k-1, k-1)-core, so for k > 1 the walk
    runs on that core and its selection maps results back; otherwise it runs
    on ``ctx`` itself and the selection is ``None``.
    """
    if min_dimension is None or min_dimension <= 1:
        return ctx, None
    sel = pq_core(ctx, min_dimension - 1, min_dimension - 1)
    return apply_selection(sel), sel


def enumerate_scales(
    ctx: FormalContext, *, min_dimension: int | None = None
) -> Iterator[ContranominalScale]:
    """Stream every contranominal scale of ``ctx`` exactly once, in canonical order.

    Each scale is yielded as its family is walked.  Every family is checked
    once with ``ScaleFamily.is_valid_in``, which covers each of its scales.
    ``min_dimension=k`` walks the (k-1, k-1)-core, which keeps every scale of
    dimension >= k, and skips smaller families; it is opt-in because cores
    silently drop small scales.  Bron-Kerbosch
    (``enumerate_bronkerbosch``) is the independent cross-check of this
    stream.  Scales of a clarified or reduced context map back to the
    original through ``scales_from_clarified`` and ``scales_from_reduced``.
    """
    core, sel = _min_dimension_core(ctx, min_dimension)
    least = min_dimension or 0
    for family in iter_scale_families(core):
        if family.dimension < least:
            continue
        if sel is not None:
            # Both index maps are increasing, so canonical order is kept.
            objs = sel.object_indices
            family = ScaleFamily(
                tuple(sel.attribute_indices[m] for m in family.attributes),
                tuple(
                    indices_to_mask(objs[g] for g in mask_to_indices(w))
                    for w in family.witness_masks
                ),
            )
        assert family.is_valid_in(ctx)
        yield from family.iter_scales()


def count_scales(ctx: FormalContext, *, min_dimension: int | None = None) -> ScaleCount:
    """Scale totals per dimension without materializing the scales."""
    core, _ = _min_dimension_core(ctx, min_dimension)
    least = min_dimension or 0
    histogram: dict[int, int] = {}
    for dim, size in _family_sizes(core):
        histogram[dim] = histogram.get(dim, 0) + size
    return ScaleCount.from_histogram({k: v for k, v in histogram.items() if k >= least})


def max_dimension(ctx: FormalContext) -> int:
    """Largest scale dimension; 0 when the incidence is full."""
    return count_scales(ctx).max_dimension


# -- conflict graph and Bron-Kerbosch cross-check ----------------------------


def conflict_graph(ctx: FormalContext) -> ConflictGraph:
    vertices = [
        (g, m)
        for g in range(ctx.n_objects)
        for m in range(ctx.n_attributes)
        if not ctx.incident(g, m)
    ]
    edges = []
    for i in range(len(vertices)):
        g, m = vertices[i]
        for j in range(i + 1, len(vertices)):
            h, n = vertices[j]
            if ctx.incident(g, n) and ctx.incident(h, m):
                edges.append((i, j))
    return ConflictGraph(tuple(vertices), tuple(edges))


def _maximal_cliques(adj: list[set[int]]) -> Iterator[frozenset[int]]:
    """Bron-Kerbosch with pivoting."""

    def expand(r: set[int], p: set[int], x: set[int]) -> Iterator[frozenset[int]]:
        if not p and not x:
            yield frozenset(r)
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            yield from expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    yield from expand(set(), set(range(len(adj))), set())


def _clique_subsets(clique: Sequence[int]) -> Iterator[tuple[int, ...]]:
    members = sorted(clique)
    for bits in range(1, 1 << len(members)):
        yield tuple(members[i] for i in range(len(members)) if bits >> i & 1)


def _bronkerbosch_scales(ctx: FormalContext) -> Iterator[ContranominalScale]:
    """Scales via cliques of the conflict graph, in discovery order.

    Bron-Kerbosch yields the maximal cliques; every clique is then recovered
    by subset expansion with global de-duplication, since any clique of the
    conflict graph corresponds to exactly one scale.
    """
    graph = conflict_graph(ctx)
    if not graph.vertices:
        return
    adj = graph.adjacency()
    seen: set[tuple[int, ...]] = set()
    for clique in _maximal_cliques(adj):
        for subset in _clique_subsets(tuple(clique)):
            if subset in seen:
                continue
            seen.add(subset)
            pairs = sorted((graph.vertices[v] for v in subset), key=lambda p: p[1])
            scale = ContranominalScale(tuple(pairs))
            assert scale.is_valid_in(ctx)
            yield scale


def enumerate_bronkerbosch(ctx: FormalContext) -> Iterator[ContranominalScale]:
    """All scales via cliques of the conflict graph, in canonical stream order."""
    yield from sorted(_bronkerbosch_scales(ctx), key=ContranominalScale.sort_key)


def enumerate_bruteforce(ctx: FormalContext) -> Iterator[ContranominalScale]:
    """Third, definition-level oracle: test every (H, N) pair directly."""
    from itertools import combinations

    n_obj, n_att = ctx.n_objects, ctx.n_attributes
    limit = min(n_obj, n_att)
    scales = []
    for k in range(1, limit + 1):
        for atts in combinations(range(n_att), k):
            att_mask = 0
            for m in atts:
                att_mask |= 1 << m
            for objs in combinations(range(n_obj), k):
                # Within (H, N) each row must miss exactly one attribute and
                # the misses must cover all k columns.
                misses = []
                ok = True
                for g in objs:
                    gap = att_mask & ~ctx.row(g)
                    if gap.bit_count() != 1:
                        ok = False
                        break
                    misses.append(gap)
                if not ok:
                    continue
                union = 0
                for gap in misses:
                    union |= gap
                if union != att_mask:
                    continue
                pairs = sorted(
                    ((g, gap.bit_length() - 1) for g, gap in zip(objs, misses)),
                    key=lambda p: p[1],
                )
                scales.append(ContranominalScale(tuple(pairs)))
    scales.sort(key=ContranominalScale.sort_key)
    yield from scales


# -- reconstruction from clarified / reduced contexts ------------------------


def scales_from_clarified(
    scales: Iterable[ContranominalScale], cmap: ClarificationMap
) -> Iterator[ContranominalScale]:
    """Expand scales of the clarified context to the original one.

    Every object and attribute of a scale is substituted by each member of
    its duplicate class; the expansions of all scales are exactly the scales
    of the unclarified context.
    """
    obj_classes = cmap.object_classes
    att_classes = cmap.attribute_classes
    for scale in scales:
        options = []
        for g, m in scale.pairs:
            if not (0 <= g < len(obj_classes) and 0 <= m < len(att_classes)):
                raise ValueError("scale does not match the clarification map")
            options.append([(go, mo) for mo in att_classes[m] for go in obj_classes[g]])
        for combo in product(*options):
            yield ContranominalScale(tuple(sorted(combo, key=lambda p: p[1])))


def scales_from_reduced(
    scales: Iterable[ContranominalScale],
    trace: ReductionTrace,
    ctx_original: FormalContext,
) -> Iterator[ContranominalScale]:
    """Expand scales of the reduced context to the context it came from.

    A removed attribute x can stand in for a kept attribute n of a scale when
    n is among x's replacement witnesses and x is non-incident only where n
    is within the scale's object set; dually for removed objects.  Distinct
    substitution choices can collide, so results are de-duplicated.
    """
    kept_atts = trace.kept_attributes(ctx_original.n_attributes)
    kept_objs = trace.kept_objects(ctx_original.n_objects)
    removed_atts = trace.removed_attributes
    removed_objs = trace.removed_objects
    all_objs = ctx_original.all_objects_mask
    all_atts = ctx_original.all_attributes_mask
    cols = ctx_original.cols()
    rows = ctx_original.rows()
    seen: set[tuple[tuple[int, int], ...]] = set()

    for scale in scales:
        if not all(0 <= g < len(kept_objs) and 0 <= m < len(kept_atts) for g, m in scale.pairs):
            raise ValueError("scale does not match the reduction trace")
        base_pairs = [(kept_objs[g], kept_atts[m]) for g, m in scale.pairs]
        h_mask = 0
        for g, _ in base_pairs:
            h_mask |= 1 << g

        att_options = []
        for _, m in base_pairs:
            opts = [m]
            for x, witness in removed_atts:
                if m in witness and (h_mask & ~cols[x] & all_objs) & cols[m] == 0:
                    opts.append(x)
            att_options.append(opts)

        for att_choice in product(*att_options):
            if len(set(att_choice)) != len(att_choice):
                continue
            n_mask = 0
            for m in att_choice:
                n_mask |= 1 << m
            obj_options = []
            for g, _ in base_pairs:
                opts = [g]
                for y, witness in removed_objs:
                    if g in witness and (n_mask & ~rows[y] & all_atts) & rows[g] == 0:
                        opts.append(y)
                obj_options.append(opts)
            for obj_choice in product(*obj_options):
                if len(set(obj_choice)) != len(obj_choice):
                    continue
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
    dimension k there.
    """
    edge_set = set(graph.edges)
    rows = []
    for i in range(len(graph.left)):
        mask = 0
        for j in range(len(graph.right)):
            if (i, j) not in edge_set:
                mask |= 1 << j
        rows.append(mask)
    ctx = FormalContext.from_masks(
        [f"L{i}" for i in range(len(graph.left))],
        [f"R{j}" for j in range(len(graph.right))],
        rows,
    )
    for scale in enumerate_scales(ctx):
        yield scale.pairs

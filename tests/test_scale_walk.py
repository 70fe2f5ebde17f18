"""The scale walk's witness lanes against the tuple walk they replaced."""

from math import prod

from contrascale import scales
from contrascale.context import FormalContext, make_contranominal
from conftest import context_from_rows, random_context


def _tuple_walk(ctx):
    """Reference: the walk with one witness mask per class, kept in a tuple.

    Yields ``(attrs, wits, forbidden, leaf)`` in canonical order.
    """
    cols = ctx.cols()
    non_incidence = [ctx.all_objects_mask & ~c for c in cols]
    stack = [((), (), 0, ctx.all_attributes_mask)]
    while stack:
        attrs, wits, forbidden, candidates = stack.pop()
        survivors = 0
        while candidates:
            m = candidates.bit_length() - 1
            candidates ^= 1 << m
            fresh = non_incidence[m] & ~forbidden
            if not fresh:
                continue
            filtered = tuple(map(cols[m].__and__, wits))
            if 0 in filtered:
                continue
            child = attrs + (m,), filtered + (fresh,), forbidden | non_incidence[m], survivors
            stack.append(child)
            survivors |= 1 << m
        if attrs:
            yield attrs, wits, forbidden, not survivors


def _tuple_cubic(ctx):
    """Reference: the leaves of the tuple walk that no attribute below extends."""
    cols = ctx.cols()
    full = ctx.all_objects_mask
    for attrs, wits, forbidden, leaf in _tuple_walk(ctx):
        extent = full & ~forbidden
        if leaf and not any(
            extent & ~col and all(w & col for w in wits) for col in cols[: attrs[-1]]
        ):
            yield attrs, wits


def _unpack(lanes, n, k):
    """The k classes of ``lanes``, checking the layout: no guard bit, no empty
    lane and nothing above lane k - 1."""
    full = (1 << n) - 1
    classes = []
    for i in range(k):
        lane = lanes >> i * (n + 1)
        assert not lane >> n & 1, f"guard bit of lane {i} is set"
        assert lane & full, f"lane {i} is empty"
        classes.append(lane & full)
    assert not lanes >> k * (n + 1), f"more than {k} lanes"
    return tuple(classes)


def _assert_walks_agree(ctx):
    n = ctx.n_objects
    unpacked = []
    for attrs, lanes, forbidden, leaf in scales._walk(ctx):
        classes = _unpack(lanes, n, len(attrs))
        assert scales._classes(lanes, n) == classes
        unpacked.append((attrs, classes, forbidden, leaf))
    assert unpacked == list(_tuple_walk(ctx))
    sizes = [(len(a), prod(map(int.bit_count, c))) for a, c, _, _ in unpacked]
    assert list(scales._family_sizes(ctx)) == sizes
    cubic = [(a, _unpack(lanes, n, len(a))) for a, lanes in scales._cubic_families(ctx)]
    assert cubic == list(_tuple_cubic(ctx))


def _wide(rng, n_objects):
    return random_context(
        rng, n_objects, 8, (0.5, 0.75, 0.9), min_objects=n_objects, min_attributes=5
    )


class TestLaneWalk:
    def test_matches_the_tuple_walk_on_random_contexts(self, seeded):
        rng = seeded(430)
        for _ in range(320):
            _assert_walks_agree(random_context(rng, 10, 10))

    def test_matches_the_tuple_walk_on_degenerate_contexts(self):
        for ctx in [
            context_from_rows(["000", "000"]),
            context_from_rows(["111", "111"]),
            context_from_rows(["1011"]),
            context_from_rows(["1", "0", "1"]),
            FormalContext.from_masks([], [], []),
            FormalContext.from_masks([], ["a", "b", "c"], []),
            FormalContext.from_masks(["g", "h", "i"], [], [0, 0, 0]),
        ]:
            _assert_walks_agree(ctx)

    def test_contranominal_scale_fills_every_lane(self):
        ctx = make_contranominal(12)
        _assert_walks_agree(ctx)
        # Every nonempty attribute set is a family of one object per class.
        assert scales.count_scales(ctx).total == (1 << 12) - 1

    def test_lanes_wider_than_a_machine_word(self, seeded):
        # Lanes of 64, 65, 71 and 131 bits: classes and guard bits straddle
        # 64-bit edges at every depth.
        for n_objects in (63, 64, 70, 130):
            rng = seeded(431, n_objects)
            for _ in range(3):
                _assert_walks_agree(_wide(rng, n_objects))

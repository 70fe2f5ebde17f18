"""A minimal decision tree on object bitmasks.

A sample is an object bitmask and a feature is its column mask, so the split
on feature f sends ``sample & ~cols[f]`` left and ``sample & cols[f]`` right,
and label counts are popcounts against the label column.  Binary splits on
single attributes, Gini impurity, grown until a node is pure or no split
strictly reduces impurity, majority vote at the leaves, no pruning.

A split into sides with z_i zeros and o_i ones among n_i objects has the
lowest weighted Gini when S = sum_i (z_i² + o_i²) / n_i is largest, and it
beats the unsplit node of z zeros and o ones among n objects when
S · n > z² + o².  S is compared by integer cross-multiplication, so ties are
real ties, and they break deterministically: equal splits pick the lowest
feature index, tied majorities predict 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["DecisionTree", "train_tree"]


@dataclass
class _Node:
    feature: int | None = None
    left: "_Node | None" = None   # objects without the feature
    right: "_Node | None" = None  # objects with the feature
    value: int = 0


def _hits(node: _Node, cols: Sequence[int], labels: int, objs: int) -> int:
    """Objects of ``objs`` whose label bit the subtree at ``node`` predicts."""
    if node.feature is None:
        return (objs & labels if node.value else objs & ~labels).bit_count()
    col = cols[node.feature]
    return _hits(node.left, cols, labels, objs & ~col) + _hits(node.right, cols, labels, objs & col)


class DecisionTree:
    def __init__(self, root: _Node):
        self._root = root

    def accuracy(self, cols: Sequence[int], labels: int, sample: int) -> float:
        """Share of the objects in ``sample`` whose bit in ``labels`` is predicted."""
        if not sample:
            raise ValueError("cannot score an empty sample")
        return _hits(self._root, cols, labels, sample) / sample.bit_count()


def _grow(cols: Sequence[int], labels: int, features: Sequence[int], sample: int) -> _Node:
    n = sample.bit_count()
    ones = (sample & labels).bit_count()
    zeros = n - ones
    if not zeros or not ones:
        return _Node(value=int(ones > zeros))
    # The unsplit node is the candidate to beat: S = (z² + o²) / n.
    best_num, best_den, best_feature = zeros * zeros + ones * ones, n, None
    for feature in features:
        right = sample & cols[feature]
        n1 = right.bit_count()
        n0 = n - n1
        if not n0 or not n1:
            continue
        o1 = (right & labels).bit_count()
        o0 = ones - o1
        z0, z1 = n0 - o0, n1 - o1
        num = (z0 * z0 + o0 * o0) * n1 + (z1 * z1 + o1 * o1) * n0
        den = n0 * n1
        if num * best_den > best_num * den:
            best_num, best_den, best_feature = num, den, feature
    if best_feature is None:
        return _Node(value=int(ones > zeros))
    col = cols[best_feature]
    return _Node(
        feature=best_feature,
        left=_grow(cols, labels, features, sample & ~col),
        right=_grow(cols, labels, features, sample & col),
    )


def train_tree(
    cols: Sequence[int], labels: int, sample: int, features: Sequence[int]
) -> DecisionTree:
    """Grow a tree on the objects of ``sample`` predicting their ``labels`` bit
    from the columns ``cols[f]`` of ``features``."""
    if not sample:
        raise ValueError("cannot train on an empty sample")
    return DecisionTree(_grow(cols, labels, tuple(features), sample))

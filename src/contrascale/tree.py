"""A minimal decision tree on object bitmasks.

A sample is an object bitmask and a feature is its column mask, so the split
on feature f sends ``sample & ~cols[f]`` left and ``sample & cols[f]`` right,
and label counts are popcounts against the label column.  Binary splits on
single attributes, Gini impurity, grown until a node is pure or no split
strictly reduces impurity, majority vote at the leaves, no pruning.

A leaf is the ``bool`` it predicts, and an internal node is the tuple
``(feature, left, right)``, whose left subtree takes the objects without the
feature and whose right subtree those with it.  A node computes its best
split's label counts anyway, so it makes a pure side a leaf itself and grows
only the impure ones.

A split into sides with z_i zeros and o_i ones among n_i objects has the
lowest weighted Gini when S = sum_i (z_i² + o_i²) / n_i is largest, and it
beats the unsplit node of z zeros and o ones among n objects when
S · n > z² + o².  S is compared by integer cross-multiplication, so ties are
real ties, and they break deterministically: equal splits pick the lowest
feature index, tied majorities predict 0.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["DecisionTree", "train_tree"]


def _hits(node: bool | tuple, cols: Sequence[int], labels: int, objs: int) -> int:
    """Objects of ``objs`` whose label bit the subtree at ``node`` predicts.

    Each object reaches one leaf, so the objects predicted 1 are the union
    of what reaches the ``True`` leaves, and an object is a hit when its
    label bit equals its bit in that union.  The walk goes left at once and
    keeps each right subtree that is not a leaf on an explicit stack, so a
    tree of any depth is scored without recursion.
    """
    positive = 0
    waiting = []
    reached = objs
    while True:
        if node is True:
            positive |= reached
        elif node is not False:
            feature, left, right = node
            inside = reached & cols[feature]
            if right is True:
                positive |= inside
            elif right is not False:
                waiting.append((right, inside))
            node, reached = left, reached ^ inside
            continue
        if not waiting:
            return (objs & ~(positive ^ labels)).bit_count()
        node, reached = waiting.pop()


class DecisionTree:
    def __init__(self, root: bool | tuple):
        self._root = root

    def accuracy(self, cols: Sequence[int], labels: int, sample: int) -> float:
        """Share of the objects in ``sample`` whose bit in ``labels`` is predicted."""
        if not sample:
            raise ValueError("cannot score an empty sample")
        return _hits(self._root, cols, labels, sample) / sample.bit_count()


def _grow(
    cols: Sequence[int], labels: int, features: Sequence[int], sample: int, n: int, ones: int
) -> bool | tuple:
    """The subtree of ``sample``, whose ``n`` objects hold ``ones`` label bits, 0 < ones < n.

    The loop grows one impure node at a time and keeps its unfinished
    ancestors on an explicit stack, so a tree of any depth grows without
    recursion.  An ancestor waits as ``(feature, right, n1, o1)`` while its
    left side grows, and as ``(feature, left)`` while its right side grows;
    each finished subtree is handed up the stack until an ancestor still
    has a side to grow.
    """
    waiting = []
    while True:
        zeros = n - ones
        # The unsplit node is the candidate to beat: S = (z² + o²) / n.
        best_num, best_den, best = zeros * zeros + ones * ones, n, None
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
                best_num, best_den, best = num, den, (feature, right, n1, o1)
        if best is None:
            done = ones > zeros
        else:
            # Both sides are nonempty, so a pure side predicts 1 exactly when it has a 1.
            feature, right, n1, o1 = best
            n0, o0 = n - n1, ones - o1
            if 0 < o0 < n0:
                waiting.append(best)
                sample, n, ones = sample ^ right, n0, o0
                continue
            if 0 < o1 < n1:
                waiting.append((feature, o0 > 0))
                sample, n, ones = right, n1, o1
                continue
            done = (feature, o0 > 0, o1 > 0)
        while waiting:
            ancestor = waiting.pop()
            if len(ancestor) == 2:
                done = (*ancestor, done)
                continue
            feature, right, n1, o1 = ancestor
            if 0 < o1 < n1:
                waiting.append((feature, done))
                sample, n, ones = right, n1, o1
                break
            done = (feature, done, o1 > 0)
        else:
            return done


def train_tree(
    cols: Sequence[int], labels: int, sample: int, features: Sequence[int]
) -> DecisionTree:
    """Grow a tree on the objects of ``sample`` predicting their ``labels`` bit
    from the columns ``cols[f]`` of ``features``."""
    if not sample:
        raise ValueError("cannot train on an empty sample")
    n = sample.bit_count()
    ones = (sample & labels).bit_count()
    if 0 < ones < n:
        return DecisionTree(_grow(cols, labels, tuple(features), sample, n, ones))
    return DecisionTree(ones > 0)

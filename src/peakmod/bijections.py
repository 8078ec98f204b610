"""The bijection between k-Dyck paths and (k+1)-ary trees.

The paper defines it recursively: a nonempty path splits around its final
down-step as P_0 u ... u P_k d, and the tree of P puts the tree of the
i-fold cyclic shift of P_i at child position i+1.  One node is created per
down-step, and the statistic vector (pk_0, ..., pk_{k-1}, dd) of the path
becomes the position-count vector (e_1, ..., e_{k+1}) of the tree.

Here the recursion is unrolled over one matching pass (``_closing_ups``).
Take a factor Q of the path with right-peak blocks Q_0..Q_{kn-1} and
trailing run d^n.  The tree of its i-fold shift is a spine of n nodes
linked at position k+1.  Spine node w holds at position j+1 (j < k) the
tree of the j-fold shift of block wk + ((j - i) mod k), and the ups
separating window w are the ones closed by the w-th last down of Q.  So a
shift is an index offset, never a rebuilt path: the builder keeps
(start, end, shift) ranges on an explicit stack, and :func:`tree_to_path`
walks the spines back the same way.

The labeled variant transports the feature labels of the original path
onto tree nodes: the root takes the rightmost peak's label, child i+1
(i < k) takes the label of the rightmost peak of part P_i, and child k+1
takes the label of the vertex closing part P_k, which is a double descent
whenever P_k is nonempty.  On the spine of a factor ending at index b,
node 0 thus carries the peak of down b-n and node w >= 1 the double
descent of down b-w, so labels are a lookup by down-step index.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    DOWN,
    UP,
    ArityMismatchError,
    EmptyPathError,
    FamilySpec,
    LatticePath,
    NodeLabel,
    PositionalTree,
    Step,
    tree_from_records,
)
from .statistics import label_features
from .transforms import (
    _closing_ups,
    _require_pure,
    check_permutation,
    permute_subtrees,
)


def _build(path: LatticePath,
           labels: dict[int, NodeLabel] | None) -> PositionalTree:
    """The tree of a nonempty pure path; ``labels`` is keyed by down-step."""
    k = path.spec.k
    closes, run, _ = _closing_ups(path)
    records: list = []
    todo = [(0, len(path.steps), 0, -1, 0)]  # (start, end, shift, parent, pos)
    while todo:
        lo, hi, shift, parent, pos = todo.pop()
        n = run[hi - 1]
        for w in range(n):
            node = len(records)
            down = hi - n if w == 0 else hi - w
            records.append((parent, pos,
                            None if labels is None else labels[down]))
            seps = closes[hi - 1 - w]
            starts = [lo] + [p + 1 for p in seps]
            for j in range(k):
                s = (j - shift) % k
                if starts[s] < seps[s]:
                    todo.append((starts[s], seps[s], j, node, j + 1))
            lo = starts[k]
            parent, pos = node, k + 1
    return tree_from_records(k + 1, records)


def path_to_tree(path: LatticePath) -> PositionalTree | None:
    """Map a pure k-Dyck path to its (k+1)-ary tree (None when empty)."""
    _require_pure(path, "path_to_tree")
    return _build(path, None) if path.steps else None


def path_to_labeled_tree(path: LatticePath) -> PositionalTree:
    """Like :func:`path_to_tree`, with original feature labels on nodes."""
    if path.is_empty():
        raise EmptyPathError("cannot label the tree of an empty path")
    _require_pure(path, "path_to_labeled_tree")
    # labels keyed by the down-step whose left endpoint carries the feature
    return _build(path, {i + 1: lab
                         for i, lab in label_features(path).items()})


def tree_to_path(tree: PositionalTree | None, k: int) -> LatticePath:
    """Inverse of :func:`path_to_tree` for trees of arity k+1.

    A subtree read with shift i is a spine along position k+1; window w of
    its path holds, in slot s, the path of spine node w's child at
    position (s + i) mod k + 1, read with that shift, then an up-step.
    The windows are followed by one down-step per spine node.
    """
    spec = FamilySpec(k)
    if tree is None:
        return LatticePath(spec)
    if tree.arity != k + 1:
        raise ArityMismatchError(
            f"tree arity {tree.arity} does not match k+1 = {k + 1}")
    steps: list[Step] = []
    todo: list = [(tree, 0)]  # steps, or (subtree, shift) still to expand
    while todo:
        item = todo.pop()
        if isinstance(item, Step):
            steps.append(item)
            continue
        node, shift = item
        spine = []
        while node is not None:
            spine.append(dict(node.children))
            node = spine[-1].get(k + 1)
        todo.extend([DOWN] * len(spine))
        for kids in reversed(spine):
            for s in range(k - 1, -1, -1):
                todo.append(UP)
                j = (s + shift) % k
                if j + 1 in kids:
                    todo.append((kids[j + 1], j))
    return LatticePath(spec, tuple(steps))


def permute_statistics(path: LatticePath,
                       sigma: Sequence[int]) -> LatticePath:
    """The path whose statistic vector is the sigma-rearrangement of P's.

    Slot i <= k holds pk_{i-1} and slot k+1 holds dd; the value in slot i
    moves to slot sigma(i).  Realized by permuting subtrees of the tree
    image, so it is a bijection on each family and composes like the
    underlying permutations.
    """
    k = path.spec.k
    sig = check_permutation(sigma, k + 1)
    tree = path_to_tree(path)
    if tree is None:
        return path
    return tree_to_path(permute_subtrees(tree, sig), k)

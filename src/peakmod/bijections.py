"""The bijection between k-Dyck paths and (k+1)-ary trees.

The paper defines it recursively: a nonempty path splits around its final
down-step as P_0 u ... u P_k d, and the tree of P puts the tree of the
i-fold cyclic shift of P_i at child position i+1.  One node is created per
down-step, and the statistic vector (pk_0, ..., pk_{k-1}, dd) of the path
becomes the position-count vector (e_1, ..., e_{k+1}) of the tree.

The maps run on a tree's (parent index, position, label) records, each
parent before its children: :func:`path_to_tree` hands the records it
builds to ``tree_from_records``, and :func:`tree_to_path` walks the
records a tree keeps, so neither builds a tree node.  The builder lists
them in text order (each node, then its children's subtrees by key, as in
JSON text), and ``map psi`` writes the text from them in one pass, each
label as its wire text from the scan of :func:`label_features`.

The recursion is unrolled over one matching pass (``_closing_ups``).
Take a factor Q of the path with right-peak blocks Q_0..Q_{kn-1} and
trailing run d^n.  The tree of its i-fold shift is a spine of n nodes
linked at position k+1.  Spine node w holds at position j+1 (j < k) the
tree of the j-fold shift of block wk + ((j - i) mod k), and the ups
separating window w are the ones closed by the w-th last down of Q.  So a
shift is an index offset, never a rebuilt path: the builder keeps
(start, end, shift) ranges, each with the spine node it is at, on an
explicit stack, and :func:`_walk` places each window back from the sizes
of the subtrees before it.

The labeled variant transports the feature labels of the original path
onto tree nodes: the root takes the rightmost peak's label, child i+1
(i < k) takes the label of the rightmost peak of part P_i, and child k+1
takes the label of the vertex closing part P_k, which is a double descent
whenever P_k is nonempty.  On the spine of a factor ending at index b,
node 0 thus carries the peak ending at down b-n and node w >= 1 the double
descent ending at down b-w, so labels are a lookup by block index.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from functools import lru_cache

from .core import (
    DOWN,
    UP,
    ArityMismatchError,
    EmptyPathError,
    FamilySpec,
    LatticePath,
    PositionalTree,
    TreeError,
    _int_arg,
    check_permutation,
    pure_spec,
    tree_from_records,
)
from .statistics import label_features
from .transforms import _closing_ups, _permuted, _require_pure


@lru_cache(maxsize=16)  # a few arities, so a huge k is not kept for good
def _slots(k: int) -> tuple[int, ...]:
    """The child slots j (at position j + 1) of a (k+1)-ary node, the
    last in text order first."""
    return tuple(sorted(range(k + 1), key=lambda j: str(j + 1),
                        reverse=True))


def _records(path: LatticePath, labels: dict | None) -> list:
    """The records of a pure path's tree in text order, labeled when
    ``labels`` maps block indices to labels (:func:`label_features`)."""
    k = path.spec.k
    steps = path.steps
    closes = _closing_ups(path)[0]
    slots = _slots(k)
    records: list = []
    # (start, end, shift, parent, pos, w, n): spine node w of the factor
    # steps[start:end], read with that shift, whose final down-run is d^n
    # (n = 0 when not yet counted)
    todo = [(0, len(steps), 0, -1, 0, 0, 0)] if steps else []
    while todo:
        lo, hi, shift, parent, pos, w, n = todo.pop()
        if not n:  # the factor opens with an up, so its final run is in it
            n = 1
            while steps[hi - 1 - n].kind == "d":
                n += 1
        node = len(records)
        block = hi - n - 1 if w == 0 else hi - w - 1
        records.append((parent, pos,
                        None if labels is None else labels[block]))
        seps = closes[hi - 1 - w]
        for j in slots:
            if j < k:
                s = (j - shift) % k
                begin = seps[s - 1] + 1 if s else lo
                if begin < seps[s]:
                    todo.append((begin, seps[s], j, node, j + 1, 0, 0))
            elif w + 1 < n:  # the spine goes on at position k + 1
                todo.append((seps[-1] + 1, hi, shift, node, k + 1, w + 1, n))
    return records


def _walk(spec: FamilySpec, records) -> LatticePath:
    """The path in the pure family ``spec`` of the tree given by records.

    Read with shift i, a subtree is a spine along position k+1: window w
    holds, in slot s, the path of spine node w's child at position
    (s + i) mod k + 1, read with that shift, then an up-step; one down per
    spine node follows the windows.  A subtree of m nodes spells (k+1)m
    steps, so each window is placed from its parent's, and the (k+1)m
    steps from the window of node v (m its subtree's size) end in a down
    of its spine, a different one for each spine node.
    """
    k = spec.k
    a = k + 1
    span = [a] * len(records)  # the steps spelled by each node's subtree
    kids = [-1] * (a * len(records))  # kids[a*v + j]: child at position j+1
    for idx in range(len(records) - 1, 0, -1):
        parent, pos, _ = records[idx]
        span[parent] += span[idx]
        kids[a * parent + pos - 1] = idx
    order = [None] * k  # by shift i: positions (s + i) mod k of slots s
    start = [0] * len(records)  # where each node's window starts
    shift = [0] * len(records)
    steps = [UP] * (a * len(records))
    for v in range(len(records)):  # parents before children
        at, i, base = start[v], shift[v], a * v
        steps[at + span[v] - 1] = DOWN
        slots = order[i]
        if slots is None:  # made for the first node read with shift i
            slots = order[i] = [*range(i, k), *range(i)]
        for j in slots:
            c = kids[base + j]
            if c >= 0:
                start[c], shift[c] = at, j
                at += span[c]
            at += 1
        c = kids[base + k]
        if c >= 0:
            start[c], shift[c] = at, i
    return LatticePath(spec, tuple(steps))


def path_to_tree(path: LatticePath) -> PositionalTree | None:
    """Map a pure k-Dyck path to its (k+1)-ary tree (None when empty)."""
    _require_pure(path, "path_to_tree", from_zero=True)
    records = _records(path, None)
    return tree_from_records(path.spec.k + 1, records) if records else None


def path_to_labeled_tree(path: LatticePath) -> PositionalTree:
    """Like :func:`path_to_tree`, with original feature labels on nodes."""
    if path.is_empty():
        raise EmptyPathError("cannot label the tree of an empty path")
    _require_pure(path, "path_to_labeled_tree", from_zero=True)
    return tree_from_records(path.spec.k + 1,
                             _records(path, label_features(path)))


def tree_to_path(tree: PositionalTree | None, k: int) -> LatticePath:
    """Inverse of :func:`path_to_tree` for trees of arity k+1."""
    k = _int_arg("k", k, 1, TreeError)
    if tree is None:
        return LatticePath(pure_spec(k))
    if tree.arity != k + 1:
        raise ArityMismatchError(
            f"tree arity {tree.arity} does not match k+1 = {k + 1}")
    n = len(tree._flat)
    if (k + 1) * n > sys.maxsize:  # no list could hold the steps
        raise TreeError(f"k must be < {sys.maxsize // n} for a tree of this "
                        f"size, got {k}")
    return _walk(pure_spec(k), tree._flat)


def permute_statistics(path: LatticePath,
                       sigma: Sequence[int]) -> LatticePath:
    """The path whose statistic vector is the sigma-rearrangement of P's.

    Slot i <= k holds pk_{i-1} and slot k+1 holds dd; the value in slot i
    moves to slot sigma(i).  Realized by permuting subtrees of the tree
    image, so it is a bijection on each family and composes like the
    underlying permutations.
    """
    spec = path.spec
    sig = check_permutation(sigma, spec.k + 1)
    _require_pure(path, "permute_statistics", from_zero=True)
    if path.is_empty():
        return path
    return _walk(pure_spec(spec.k), _permuted(_records(path, None), sig))

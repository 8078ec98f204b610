"""Peak and double-descent statistics, in plain, weak, and starred variants.

A peak is a ``ud`` block; its height is the height of the vertex between
the two steps.  A double descent is a ``dd`` block.  The weak variants
admit level steps: ``ud``, ``u l``, and a level step opening the path are
weak peaks, while ``dd`` and ``l d`` are weak double descents.  Plain and
weak statistics exclude the rightmost (weak) peak; the starred variants
count it too, which is the right bookkeeping for ballot paths.

Residue classes are heights reduced modulo k, so a statistic vector has k
peak counters plus one double-descent counter.

Read left to right, every block closes on the step that ends it, and
:data:`TRANSITIONS`, the one place that says which, lists for each variant
the (previous kind, kind) pairs on which a step closes a peak at the
current height (the height before the step) or a double descent, with
``""`` for the start of the path.  :func:`stat_vector` folds a path over
its rows (:func:`closing_rows`), and the family walk of
:mod:`peakmod.enumeration` reads the same rows on its own stack.
"""

from __future__ import annotations

from functools import cache

from .core import (
    LABEL_DD,
    LABEL_PEAK,
    LABEL_RIGHTMOST,
    EmptyPathError,
    LatticePath,
    NodeLabel,
    PositionalTree,
    TreeError,
    _Frozen,
    _int_arg,
    _label_text,
    _node_label,
    height_profile,
)

PLAIN = "plain"
WEAK = "weak"
PLAIN_STARRED = "plain_starred"
WEAK_STARRED = "weak_starred"
VARIANTS = (PLAIN, WEAK, PLAIN_STARRED, WEAK_STARRED)
STARRED = (PLAIN_STARRED, WEAK_STARRED)

# the blocks a step closes, by (previous kind, kind); "" is the start
PEAK = "peak"
DD = "dd"
_PLAIN_BLOCKS = {("u", "d"): PEAK, ("d", "d"): DD}
_WEAK_BLOCKS = {**_PLAIN_BLOCKS,
                ("u", "l"): PEAK, ("", "l"): PEAK, ("l", "d"): DD}
TRANSITIONS = {PLAIN: _PLAIN_BLOCKS, WEAK: _WEAK_BLOCKS,
               PLAIN_STARRED: _PLAIN_BLOCKS, WEAK_STARRED: _WEAK_BLOCKS}


@cache
def closing_rows(variant: str | None, k: int) -> dict:
    """:data:`TRANSITIONS` as rows: ``rows[prev][kind]`` is the block (or
    None) a step of ``kind`` closes after one of ``prev`` ("" at the
    start), the row ``rows[kind]`` for the next step, and the step's height
    change.  Variant None closes no block."""
    blocks = TRANSITIONS[variant] if variant else {}
    rise = {"u": 1, "d": -k, "l": 0}
    rows = {prev: {} for prev in ("", *rise)}
    for prev, row in rows.items():
        for kind in rise:
            row[kind] = (blocks.get((prev, kind)), rows[kind], rise[kind])
    return rows


class StatVector(_Frozen):
    """Counts (pk_0, ..., pk_{k-1}, dd) for one of the four variants."""

    _FIELDS = ("k", "variant", "pk", "dd")

    def __init__(self, k: int, variant: str, pk: tuple[int, ...], dd: int):
        vars(self).update(k=k, variant=variant, pk=pk, dd=dd)

    def key(self) -> tuple[int, ...]:
        """The (k+1)-tuple used as a histogram / monomial exponent key."""
        return self.pk + (self.dd,)

    def total_peaks(self) -> int:
        return sum(self.pk)

    def to_json(self) -> dict:
        return {"k": self.k, "variant": self.variant,
                "pk": list(self.pk), "dd": self.dd}


def peaks(path: LatticePath) -> list[tuple[int, int]]:
    """All ``ud`` blocks as (index of the up-step, height between them)."""
    steps = path.steps
    heights = height_profile(path)
    out = []
    for i in range(len(steps) - 1):
        if steps[i].kind == "u" and steps[i + 1].kind == "d":
            out.append((i, heights[i + 1]))
    return out


def double_descents(path: LatticePath) -> list[int]:
    """Indices of the first step of every ``dd`` block."""
    steps = path.steps
    return [i for i in range(len(steps) - 1)
            if steps[i].kind == "d" and steps[i + 1].kind == "d"]


def weak_peaks(path: LatticePath) -> list[tuple[int, int]]:
    """Weak peaks as (block start index, height of the peak vertex).

    Blocks ``ud`` and ``u l`` qualify, as does a level step that opens the
    path (its height is then the start height).
    """
    steps = path.steps
    heights = height_profile(path)
    out = []
    if steps and steps[0].kind == "l":
        out.append((0, heights[0]))
    for i in range(len(steps) - 1):
        if steps[i].kind == "u" and steps[i + 1].kind in ("d", "l"):
            out.append((i, heights[i + 1]))
    return out


def weak_double_descents(path: LatticePath) -> list[int]:
    """Indices of the first step of every ``dd`` or ``l d`` block."""
    steps = path.steps
    return [i for i in range(len(steps) - 1)
            if steps[i].kind in ("d", "l") and steps[i + 1].kind == "d"]


def stat_vector(path: LatticePath, variant: str = PLAIN) -> StatVector:
    """The joint statistic vector of ``path`` under the given variant.

    On level-free paths the weak variants coincide with the plain ones.
    The non-starred variants drop the rightmost (weak) peak, which is the
    one with the largest step index.

    One pass over the steps, folded over :func:`closing_rows`, gives the
    same counts as tallying :func:`peaks` / :func:`weak_peaks` and
    :func:`double_descents` / :func:`weak_double_descents`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    k = path.spec.k
    # the latest peak's residue is held back until a later peak turns up,
    # and counted at the end only by the starred variants
    pk, dd, held = [0] * k, 0, -1
    h, row = path.start_height, closing_rows(variant, k)[""]
    for s in path.steps:
        block, row, rise = row[s.kind]
        if block is not None:
            if block is PEAK:
                if held >= 0:
                    pk[held] += 1
                held = h % k
            else:
                dd += 1
        h += rise
    if held >= 0 and variant in STARRED:
        pk[held] += 1
    return StatVector(k, variant, tuple(pk), dd)


def label_features(path: LatticePath) -> dict[int, NodeLabel]:
    """Label every peak and double descent of a nonempty pure k-Dyck path.

    Keys are block start indices (the up-step of a peak, the first down of
    a double descent).  The rightmost peak gets ``r``; the j-th remaining
    peak at height i mod k, read left to right, gets ``i_j``; the j-th
    double descent gets ``d_j``.  One pass over the steps, folded over the
    plain :func:`closing_rows` as :func:`stat_vector` is, finds the blocks
    :func:`peaks` and :func:`double_descents` list, and makes each label
    unchecked; ``map psi --labels`` shares it (:func:`_label_texts`).
    """
    return _label_texts(path, _node_label)


def _label_texts(path: LatticePath, make=_label_text) -> dict:
    """The labels of :func:`label_features` as wire text, or as
    ``make(kind, residue, ordinal)`` makes them."""
    if path.is_empty():
        raise EmptyPathError("cannot label an empty path")
    # validation admits a level step only where the spec has levels
    if path.spec.has_levels:
        raise ValueError("feature labels are defined on pure k-Dyck paths")
    k = path.spec.k
    labels: dict = {}
    ordinals = [0] * k
    dd = 0
    # the latest peak as (up-step index, residue), held back until a later
    # peak turns up; the one held at the end is the rightmost
    held = None
    h, row = path.start_height, closing_rows(PLAIN, k)[""]
    for i, s in enumerate(path.steps):
        block, row, rise = row[s.kind]
        if block is PEAK:
            if held is not None:
                j, res = held
                ordinals[res] += 1
                labels[j] = make(LABEL_PEAK, res, ordinals[res])
            held = (i - 1, h % k)
        elif block is DD:
            dd += 1
            labels[i - 1] = make(LABEL_DD, None, dd)
        h += rise
    if held is None:
        raise ValueError("feature labels need a peak")
    labels[held[0]] = make(LABEL_RIGHTMOST)
    return labels


def e_vector(tree: PositionalTree | None, arity: int | None = None
             ) -> tuple[int, ...]:
    """Counts (e_1, ..., e_m): how many nodes sit at each child position."""
    if arity is not None:
        arity = _int_arg("arity", arity, 1, TreeError)
    m = arity if tree is None else tree.arity
    if m is None:
        raise ValueError("arity required for the empty tree")
    if arity is not None and arity != m:
        raise ValueError(f"arity mismatch: tree has {m}, requested {arity}")
    counts = [0] * m
    # the root's record, the first, has no position
    for _, pos, _ in tree._flat[1:] if tree else ():
        counts[pos - 1] += 1
    return tuple(counts)

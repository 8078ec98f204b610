"""Liftings, canonical decompositions, the cyclic shift, and related maps.

Every nonempty pure k-Dyck path Q whose maximal trailing down-run has
length n splits uniquely as

    Q = Q_0 u Q_1 u ... Q_{kn-1} u d^n,

where block Q_j is itself a k-Dyck path sitting at height j.  The cyclic
shift rotates the blocks inside each window of k consecutive slots; its
k-th power is the identity.  The other decomposition peels the final
down-step instead:

    P = P_0 u P_1 u ... u P_k d L,

with L a (possibly empty) run of trailing level steps, or P = L alone when
the path consists of level steps only.  Ballot paths ending at height m
split at the m last up-steps leaving heights 0..m-1 for good.

All of these cut a path at last-passage up-steps, and ``_closing_ups`` is
the one scan that finds them.  Its final ``last_up`` list holds the cuts
of the whole path: the right-peak separators of a path ending in d^n are
its first kn entries, the last-step cuts its first k and the ballot cuts
its first m.  ``_cut`` splits a path at such cuts and ``_join``, its
inverse, glues parts back with an up-step after each; the cyclic shift
joins the blocks straight from their index ranges in rotated order.
Deutsch's involution and the path/tree bijection split any factor of the
path by index lookups instead of copying it, through the same scan's
``closes``: the ups that each down-step closes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from numbers import Real
from operator import length_hint

from .core import (
    DOWN,
    UP,
    EmptyPathError,
    FamilySpec,
    LatticePath,
    NegativeHeightError,
    PathError,
    PositionalTree,
    Step,
    WrongEndHeightError,
    WrongKError,
    _Frozen,
    _int_arg,
    _integral,
    check_permutation,
    pure_spec,
    tree_from_records,
)


# ---------------------------------------------------------------------------
# the last-passage scan (shared with the bijection module)
# ---------------------------------------------------------------------------

def _closing_ups(path: LatticePath) -> tuple[list, list[int], int]:
    """``closes``, ``last_up`` and the number of steps after the last up.

    ``last_up[h]`` ends as the last up-step leaving height h, read from the
    start height; a level step keeps the height, and a dip below the start
    raises NegativeHeightError.  ``closes[t]`` lists the k up-steps that the
    down-step t closes.  A factor of the path that is itself a k-Dyck path
    and ends with the down-run d^n at index b has its right-peak separators,
    window by window, in closes[b-1], closes[b-2], ..., closes[b-n].  A
    nonempty pure path ends with the down-run d^n, n the third result.
    """
    k = path.spec.k
    steps = path.steps
    last_up = [0] * (len(steps) + 1)
    closes: list = [None] * len(steps)
    h = top = 0  # top: one past the last up so far
    for t, s in enumerate(steps):
        kind = s.kind
        if kind == "u":
            last_up[h] = t
            h += 1
            top = t + 1
        elif kind == "d":
            h -= k
            if h < 0:
                raise NegativeHeightError("path dips below its start height")
            closes[t] = last_up[h: h + k]
    return closes, last_up, len(steps) - top


def _cut(spec: FamilySpec, steps: Sequence[Step],
         seps: list[int]) -> tuple[LatticePath, ...]:
    """The paths between consecutive separators, then the rest."""
    starts = [0] + [p + 1 for p in seps]
    ends = seps + [len(steps)]
    return tuple(LatticePath(spec, steps[a:b]) for a, b in zip(starts, ends))


def _join(parts: Iterable[Sequence[Step]], ups: int,
          tail: Sequence[Step]) -> list[Step]:
    """The inverse of :func:`_cut`: the parts, with an up-step after each of
    the first ``ups``, then ``tail``."""
    steps: list[Step] = []
    for i, part in enumerate(parts):
        steps += part
        if i < ups:
            steps.append(UP)
    steps += tail
    return steps


def _require_pure(path: LatticePath, op: str, from_zero: bool = False
                  ) -> None:
    # validation admits a level step only where the spec has levels
    if path.spec.has_levels and any(s.kind == "l" for s in path.steps):
        raise ValueError(f"{op} requires a pure k-Dyck path without level "
                         "steps")
    if path.spec.end_height != 0:
        raise WrongEndHeightError(
            f"{op} requires a path returning to its start height")
    if from_zero and path.start_height:  # the tree maps read from 0
        raise PathError(f"{op} requires a path starting at height 0, "
                        f"got {path.start_height}")


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def lift(path: LatticePath, amount: int) -> LatticePath:
    """The same step sequence started ``amount`` >= 0 units higher; a
    non-integral number is left for :class:`LatticePath` to refuse."""
    if not (isinstance(amount, Real) and not _integral(amount)):
        amount = _int_arg("amount", amount, 0)
    return LatticePath(path.spec, path.steps, path.start_height + amount)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

class RightPeakDecomposition(_Frozen):
    """Blocks Q_0..Q_{kn-1} plus the trailing down-run length n."""

    _FIELDS = ("k", "blocks", "suffix_downs")

    def __init__(self, k: int, blocks: tuple[LatticePath, ...],
                 suffix_downs: int):
        vars(self).update(k=k, blocks=blocks, suffix_downs=suffix_downs)

    def reassemble(self) -> LatticePath:
        return LatticePath(pure_spec(self.k), _join(
            (b.steps for b in self.blocks), len(self.blocks),
            [DOWN] * self.suffix_downs))


def right_peak_decompose(path: LatticePath) -> RightPeakDecomposition:
    """Split a nonempty pure k-Dyck path around its trailing down-run."""
    if path.is_empty():
        raise EmptyPathError("cannot decompose the empty path")
    _require_pure(path, "right_peak_decompose")
    k = path.spec.k
    _, last_up, n = _closing_ups(path)
    # the rest after the last block's up-step is empty
    blocks = _cut(pure_spec(k), path.steps[:-n], last_up[:k * n])[:-1]
    return RightPeakDecomposition(k, blocks, n)


class LastStepDecomposition(_Frozen):
    """Parts P_0..P_k around the final down-step, plus the level suffix.

    ``parts`` is None exactly when the path consists of level steps only
    (then the whole path is the suffix).
    """

    _FIELDS = ("spec", "parts", "level_suffix")

    def __init__(self, spec: FamilySpec,
                 parts: tuple[LatticePath, ...] | None,
                 level_suffix: tuple[Step, ...]):
        vars(self).update(spec=spec, parts=parts, level_suffix=level_suffix)

    @property
    def is_level_only(self) -> bool:
        return self.parts is None

    def reassemble(self) -> LatticePath:
        if self.parts is None:
            return LatticePath(self.spec, self.level_suffix)
        return LatticePath(self.spec, _join(
            (p.steps for p in self.parts), self.spec.k,
            (DOWN, *self.level_suffix)))


def last_step_decompose(path: LatticePath) -> LastStepDecomposition:
    """Split around the last down-step: P = P_0 u P_1 u ... u P_k d L."""
    if path.spec.end_height != 0:
        raise WrongEndHeightError(
            "last-step decomposition needs a height-0 family")
    steps = path.steps
    t = len(steps)
    while t > 0 and steps[t - 1].kind == "l":
        t -= 1
    spec = path.spec
    if t == 0:
        return LastStepDecomposition(spec, None, steps)
    if steps[t - 1].kind != "d":
        raise ValueError("malformed path: expected a down-step before the "
                         "level suffix")
    # only level steps follow the final down, so the ups it closes are
    # the last ones leaving heights 0..k-1
    _, last_up, _ = _closing_ups(path)
    return LastStepDecomposition(
        spec, _cut(spec, steps[: t - 1], last_up[:spec.k]), steps[t:])


class BallotDecomposition(_Frozen):
    """Parts P_0..P_m of a ballot path, P_i sitting at height i."""

    _FIELDS = ("spec", "end_height", "parts")

    def __init__(self, spec: FamilySpec, end_height: int,
                 parts: tuple[LatticePath, ...]):
        vars(self).update(spec=spec, end_height=end_height, parts=parts)

    def reassemble(self) -> LatticePath:
        return LatticePath(self.spec, _join(
            (p.steps for p in self.parts), self.end_height, ()))


def ballot_decompose(path: LatticePath,
                     m: int | None = None) -> BallotDecomposition:
    """Split a ballot path at the m last up-steps through heights 0..m-1."""
    end = path.spec.end_height
    m = end if m is None else _int_arg("m", m, 0)
    if m != end:
        raise WrongEndHeightError(f"path ends {end} above its start, not {m}")
    _, last_up, _ = _closing_ups(path)
    spec = path.spec
    if not m:  # the parts are paths of the path's own family
        part_spec = spec
    elif spec.levels:
        part_spec = FamilySpec(spec.k, spec.levels)
    else:
        part_spec = pure_spec(spec.k)
    return BallotDecomposition(
        spec, m, _cut(part_spec, path.steps, last_up[:m]))


# ---------------------------------------------------------------------------
# cyclic shift
# ---------------------------------------------------------------------------

def cyclic_shift(path: LatticePath, power: int = 1) -> LatticePath:
    """Rotate the right-peak blocks within each window of k slots.

    Slot j of the result holds block j+k-i when j mod k < i and block j-i
    otherwise (i = power mod k), so the power-k shift is the identity.  The
    empty path is fixed.  Acts on the underlying step sequence; a nonzero
    start height is carried through unchanged.
    """
    power = _int_arg("power", power, 0)
    _require_pure(path, "cyclic_shift")
    k = path.spec.k
    i = power % k
    if not path.steps or i == 0:
        return path
    _, last_up, n = _closing_ups(path)
    seps = last_up[:k * n]
    starts = [0] + [p + 1 for p in seps]
    order = [j + k - i if j % k < i else j - i for j in range(k * n)]
    return LatticePath(path.spec, _join(
        [path.steps[starts[b]: seps[b]] for b in order], k * n,
        path.steps[-n:]), path.start_height)


# ---------------------------------------------------------------------------
# the peak/double-descent exchange on ordinary Dyck paths
# ---------------------------------------------------------------------------

def deutsch_involution(path: LatticePath) -> LatticePath:
    """Deutsch's involution on Dyck paths (k = 1 only).

    Maps P_0 u P_1 d to eta(P_1) u eta(P_0) d, exchanging the peak and
    double-descent counts.  The image has as many steps as the path, so it
    is placed in a list of up-steps: a factor steps[lo:hi] whose image
    starts at offset ``at`` splits at the up-step p its final down closes,
    writes that down at at + hi - lo - 1, and leaves eta(P_1) to start at
    ``at`` and eta(P_0) after the up-step between them.  The factors wait
    on an explicit stack as (lo, hi, at) ranges, so depth is unbounded.
    """
    if path.spec.k != 1:
        raise WrongKError("the involution is defined for k = 1")
    _require_pure(path, "deutsch_involution")
    closes = _closing_ups(path)[0]
    steps = [UP] * len(path.steps)
    todo = [(0, len(steps), 0)] if steps else []  # nonempty factors only
    while todo:
        lo, hi, at = todo.pop()
        (p,) = closes[hi - 1]
        steps[at + hi - lo - 1] = DOWN
        if p + 1 < hi - 1:
            todo.append((p + 1, hi - 1, at))
        if lo < p:
            todo.append((lo, p, at + hi - p - 1))
    return LatticePath(path.spec, steps, path.start_height)


# ---------------------------------------------------------------------------
# subtree permutation
# ---------------------------------------------------------------------------

def _permuted(records, sig: tuple[int, ...]) -> list:
    """Tree records with each child moved from position i to sig[i - 1].

    The root's record has position 0, which every reader of records
    ignores."""
    return [(parent, sig[pos - 1], label) for parent, pos, label in records]


def permute_subtrees(tree: PositionalTree | None,
                     sigma: Sequence[int]) -> PositionalTree | None:
    """Move every child from position i to position sigma(i), at every node.

    sigma must permute 1..arity, and 1..len(sigma) for the empty tree,
    which it leaves empty."""
    sig = check_permutation(
        sigma, tree.arity if tree is not None else length_hint(sigma))
    if tree is None:
        return None
    return tree_from_records(tree.arity, _permuted(tree._flat, sig))

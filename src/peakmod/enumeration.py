"""Exhaustive generation of path families and positional trees.

These generators are the brute-force oracle behind every identity in the
package: depth-first backtracking over step choices with height pruning,
yielding each object exactly once in a deterministic order (up-steps
before down-steps before level steps sorted by run-length and color).
The path walk keeps its remaining length and height as running state and
its choices on an explicit stack, so path length is unbounded: nothing
recurses to the depth of a path.  The tree walk does the same over
slot-occupancy masks, independently of the paths.

The path walk also carries the statistic of its prefix: the peak and
double-descent counters, and the residue of the latest (weak) peak, held
back until a later peak closes.  Each step updates them from the rows of
:func:`peakmod.statistics.closing_rows`, one per step kind (the start, u,
d and l), as :func:`stat_vector` does; each depth keeps the state from
before its step, so paths that share a prefix share its statistic.
:func:`family_histogram` tallies these states and :func:`gen_kac` yields
the paths of the same walk.

The bottom of the walk's prefix tree repeats itself: the same (remaining
length, height) states come up again and again.  So once the remaining
length is at most a depth R, the walk reads the rest of the path from a
completion table built once per walk: a state's tails in the walk's own
order, and two {key increment: count} tallies, for the tails that keep
the peak the prefix holds and for those that release it.  The walk
yields one batch per table it reaches: the prefix, the table, and the
prefix's key and held residue.  :func:`gen_kac` yields the prefix plus
each tail, counting each path against the cap.  :func:`family_histogram`
counts a whole table against the cap at once, still builds and validates
every path of it by :class:`LatticePath`, and adds the two tallies at
the batch's key.  A forced run (only downs, or only ups, can still reach
the end height) is a one-tail table below R and walked like any state
above it.

Every move keeps (steps taken - height) in one class mod g, the gcd of
the run-lengths and, when a down fits in the length, of k + 1, so a
family with (length - m) % g != 0 is empty: it gets no table and the walk
returns at once.  With g = 0 (no level step and no room for a down) only
length m has a path.

R is bounded by the tables' size, not by a depth alone: it is the largest
depth up to length // 2 at which the completions over all table keys fit
:data:`TABLE_ENTRIES`.  The tables are built in one pass from rem = 0 up,
a layer of states per rem.  A layer's completions are counted from the
tails of the layers below, c per tail for c colors, before the layer is
built, so the pass stops at the first layer past the budget.

A hard cap guards against runaway requests; generators raise
:class:`ResourceLimitError` instead of exhausting memory.  The default cap
is 10**7 objects and can be overridden per call or through the
PEAKMOD_MAX_OBJECTS environment variable.  ``max_objects`` is read as
every integer argument is, by :func:`peakmod.core._int_arg` (3.0 is 3;
2.5, "3" and -1 raise ValueError), and the variable as command-line
numbers are (:func:`peakmod.core.ascii_int`: ASCII digits, no "_").  A
bad cap of either kind raises before anything is generated.
The path walk lists its moves, one per color of each run-length that
fits the length, before the cap can act, so 10**12 colors of such a run
never reach a first path; a run longer than the path lists none.  A
length past ``sys.maxsize`` is refused with a ValueError, since no list
could hold the steps of such a path.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from math import gcd

from .core import (DOWN, UP, FamilySpec, LatticePath, PositionalTree, Step,
                   _Frozen, _int_arg, _packing, _unpack, ascii_int, level,
                   permute_coordinates, tree_from_records)
from .statistics import (DD, PEAK, PLAIN, STARRED, VARIANTS, closing_rows,
                         stat_vector)

DEFAULT_MAX_OBJECTS = 10 ** 7
ENV_MAX_OBJECTS = "PEAKMOD_MAX_OBJECTS"


class ResourceLimitError(RuntimeError):
    """The configured object cap was exceeded."""


def resolve_cap(max_objects: int | None) -> int:
    if max_objects is not None:
        return _int_arg("--limit (max_objects)", max_objects, 0)
    env = os.environ.get(ENV_MAX_OBJECTS)
    if env is not None:
        try:
            cap = ascii_int(env)
            if cap is None or cap < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{ENV_MAX_OBJECTS} must be an integer >= 0, "
                             f"got {env!r}") from None
        return cap
    return DEFAULT_MAX_OBJECTS


class _Budget:
    __slots__ = ("cap", "used")

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.cap:
            raise ResourceLimitError(
                f"object cap {self.cap} exceeded (set {ENV_MAX_OBJECTS} or "
                "pass max_objects to raise it)")


def k_dyck_family(k: int, n: int) -> tuple[FamilySpec, int]:
    """The spec and total length of the pure k-Dyck paths of down-size n."""
    k, n = _int_arg("k", k, 1), _int_arg("n", n, 0)
    return FamilySpec(k), (k + 1) * n


def ballot_family(k: int, m: int, n: int) -> tuple[FamilySpec, int]:
    """The spec and total length of the (k, m)-ballot paths of down-size n
    (k*n + m ups, ending at m)."""
    k, m, n = _int_arg("k", k, 1), _int_arg("m", m, 0), _int_arg("n", n, 0)
    return FamilySpec(k, end_height=m), (k + 1) * n + m


def gen_k_dyck(k: int, n: int,
               max_objects: int | None = None) -> Iterator[LatticePath]:
    """All pure k-Dyck paths of down-size n, in lexicographic order (u < d)."""
    yield from gen_kac(*k_dyck_family(k, n), max_objects)


def gen_ballot(k: int, m: int, n: int,
               max_objects: int | None = None) -> Iterator[LatticePath]:
    """All (k, m)-ballot paths of down-size n (k*n + m ups, ending at m).

    Level-bearing ballot families are enumerated by total length instead;
    see :func:`gen_kac` with a spec whose end_height is m.
    """
    yield from gen_kac(*ballot_family(k, m, n), max_objects)


def gen_kac(spec: FamilySpec, length: int,
            max_objects: int | None = None) -> Iterator[LatticePath]:
    """All paths of the given family with total length |P| = length.

    Up and down steps have length 1 and a level step of run-length a has
    length a.  Works for end_height 0 and for ballot-style end heights.
    """
    length, budget = _family_args(length, max_objects)
    for head, (tails, _, _), _, _ in _walk(spec, length, None, [0]):
        for tail in tails:
            budget.tick()
            yield LatticePath(spec, head + tail)


def _family_args(length: int,
                 max_objects: int | None) -> tuple[int, _Budget]:
    """The length of a family walk, refused past ``sys.maxsize``, and its
    budget, both read before anything is generated."""
    length = _int_arg("length", length, 0)
    if length > sys.maxsize:  # no list could hold the steps of a path
        raise ValueError(f"path length must be <= {sys.maxsize}, "
                         f"got {length}")
    return length, _Budget(resolve_cap(max_objects))


def _walk(spec: FamilySpec, length: int, variant: str | None,
          weight: list[int]) -> Iterator[tuple[tuple, tuple, int, int]]:
    """(head, table, key, held) for every completion table the walk
    reaches, in canonical order: the family's paths are head + tail for
    each tail of the table (tails, kept, released) in turn.

    ``variant`` names the statistic (None: no statistic) and ``weight``
    is :func:`peakmod.core._packing` of it ([0] for none).  ``key`` packs
    the residue counters a path of this length can reach, and dd, over the
    blocks of head but its latest peak, whose residue is ``held`` (-1 for
    none), into one integer.  A tail counted at inc in ``kept`` adds inc
    to key and still holds the peak; one counted at inc in ``released``
    adds weight[held] + inc.  ``length`` is read by :func:`_family_args`.
    """
    k = spec.k
    m = spec.end_height
    # (step, height change, length) in the canonical order u < d < levels
    moves = [(UP, 1, 1), (DOWN, -k, 1)]
    moves += [(level(a, b), 0, a) for a, c in spec.levels if a <= length
              for b in range(1, c + 1)]
    nmoves = len(moves)
    # closes[p][j]: the block that move j closes right after move p, or at
    # the start for p = nmoves; the moves of one kind share one row
    kinds = [s.kind for s, _, _ in moves]
    rows = closing_rows(variant, k)
    row_of = {p: [rows[p][kind][0] for kind in kinds] for p in rows}
    closes = [row_of[p] for p in kinds + [""]]
    key = 0
    depth, tables = _completions(spec, length, rows, weight,
                                 variant in STARRED)
    if not tables:  # the family is empty
        return
    if length == 0:  # the empty path, a state of no step before it
        yield (), tables[0, 0, "u"], key, -1
        return
    prefix: list[Step] = []
    # per step in prefix: the next move to try after it, and the closes
    # row, held residue and key from before it
    undo: list[tuple] = []
    rem, h, i = length, 0, 0    # i: the next move to try after prefix
    row, held = closes[nmoves], -1
    while True:
        if i < nmoves:
            step, rise, size = moves[i]
            block = row[i]
            i += 1
            nrem = rem - size
            nh = h + rise
            # the fewest steps from nh to m: ups alone, or the fewest downs
            # and the ups that make their drop land on m exactly; with the
            # class test of _completions the bound is exact for families
            # with no level step or with a run-length-1 level
            if nh < 0 or nrem < (m - nh if nh <= m
                                 else m - nh - (k + 1) * ((m - nh) // k)):
                continue
            if block is None:
                nkey, nheld = key, held
            elif block == PEAK:  # count the held peak and hold this one
                nkey, nheld = key + weight[held], h % k
            else:  # DD
                nkey, nheld = key + weight[-2], held
            if nrem <= depth:  # the rest of each path is in a table
                # (a state with no completion has none)
                table = tables.get((nrem, nh, step.kind))
                if table:
                    yield (*prefix, step), table, nkey, nheld
                continue
            prefix.append(step)
            undo.append((i, row, held, key))
            row, held, key = closes[i - 1], nheld, nkey
            rem, h, i = nrem, nh, 0
        elif undo:
            prefix.pop()
            i, row, held, key = undo.pop()
            _, rise, size = moves[i - 1]
            rem += size
            h -= rise
        else:
            return


# The most completions the tables of one walk hold, over all their keys.
# On the oracle benchmark families (2-core x86-64, CPython 3.11) budgets
# from 512 to 8,192 gave the same speed within noise; at 2,048 the largest
# tables trace under 80 KiB, as the kinds of one (rem, h) share its tails.
TABLE_ENTRIES = 2048


def _completions(spec: FamilySpec, length: int, rows: dict,
                 weight: list[int], starred: bool) -> tuple[int, dict]:
    """The depth R of a walk's completion tables, and the tables.

    ``tables[rem, h, kind]`` holds the completions of a prefix that ends
    with a step of ``kind`` at height h with rem length left, as (tails,
    kept, released): the tails in canonical order and the {key increment:
    count} tallies of those that keep the prefix's held peak and of those
    that release it (``starred``: plus the peak held after the tail).
    Each table is built from its sub-tables: a dd block shifts both
    tallies by weight[-2], a peak at residue r shifts ``released`` by
    weight[r] and moves ``kept`` into it (shifted too if starred), and c
    colors count each tail c times.  Only states with a completion and
    h <= length - rem get a table.

    The tables are built in one pass, a layer of states per rem from 0
    up: a layer's completions are counted from the tails of the layers
    below, c per tail for c colors, before it is built, and R is the last
    rem up to length // 2 at which all layers so far fit
    :data:`TABLE_ENTRIES`.

    Every move keeps (steps taken - height) in one class mod g, the gcd of
    the run-lengths and, when a down fits (length - m >= k + 1), of k + 1:
    a path with a down climbs k above its end.  So a state with a
    completion has (rem + h - m) % g == 0, and the walk reaches it, with
    (length - rem - h) % g == 0, only if (length - m) % g == 0: a family
    failing that, or with g = 0 and length != m, is empty and gets no
    table.  Past that test the layers do not run dry: every layer with
    rem <= m holds h = m - rem, with level steps h = 0 comes back at least
    every shortest run-length, and without them every layer holds h =
    (m - rem) % (k + 1).  So the budget, not the length, bounds the pass.
    """
    k, m = spec.k, spec.end_height
    kinds = ("u", "d", "l") if spec.levels else ("u", "d")
    g = gcd(k + 1 if length - m > k else 0, *(a for a, _ in spec.levels))
    if m > length or ((length - m) % g if g else length > m):
        return length // 2, {}
    # (kind, height change, length, steps) in canonical order
    groups = [("u", 1, 1, (UP,)), ("d", -k, 1, (DOWN,))]
    groups += [("l", 0, a, tuple(level(a, b) for b in range(1, c + 1)))
               for a, c in spec.levels if a <= length // 2]
    layers = [{m: [()]}]  # layers[rem]: {h: the tails from (rem, h)}
    tables = {(0, m, prev): ([()], {0: 1}, {}) for prev in kinds}
    total = len(kinds)
    for rem in range(1, length // 2 + 1):
        # subs[h]: the groups that lead from (rem, h) to a state with a
        # completion, each with that state's table, in canonical order
        subs: dict[int, list] = {}
        for kind, rise, size, steps in groups:
            for h in layers[rem - size] if size <= rem else ():
                if 0 <= h - rise <= length - rem:
                    subs.setdefault(h - rise, []).append(
                        (kind, steps, tables[rem - size, h, kind]))
        total += len(kinds) * sum(len(steps) * len(sub[0])
                                  for group in subs.values()
                                  for _, steps, sub in group)
        if total > TABLE_ENTRIES:
            break
        layer = {}
        for h, group in subs.items():
            tails = layer[h] = [(s,) + t for _, steps, sub in group
                                for s in steps for t in sub[0]]
            for prev in kinds:
                kept: dict[int, int] = {}
                released: dict[int, int] = {}
                for kind, steps, (_, sub_kept, sub_released) in group:
                    block = rows[prev][kind][0]
                    if block == PEAK:  # release the held peak, hold h's
                        r = weight[h % k]
                        moves = ((sub_released, r, released),
                                 (sub_kept, r if starred else 0, released))
                    else:
                        d = weight[-2] if block == DD else 0
                        moves = ((sub_kept, d, kept),
                                 (sub_released, d, released))
                    for tally, d, into in moves:
                        for inc, c in tally.items():
                            inc += d
                            into[inc] = into.get(inc, 0) + len(steps) * c
                tables[rem, h, prev] = tails, kept, released
        layers.append(layer)
    return len(layers) - 1, tables


def gen_trees(arity: int, n: int,
              max_objects: int | None = None
              ) -> Iterator[PositionalTree | None]:
    """All positional trees of the given arity on n nodes.

    Yields None for n = 0 (the empty tree).  The count matches the number
    of (arity-1)-Dyck paths of down-size n.  Trees come lazily: an
    explicit stack holds the nodes' slot-occupancy masks in breadth-first
    order (a Łukasiewicz-style word), each tried in increasing order.  A
    mask that opens too many slots jumps to mask + (mask & -mask): every
    mask it skips has more set bits, so opens too many as well.
    """
    arity, n = _int_arg("arity", arity, 1), _int_arg("n", n, 0)
    budget = _Budget(resolve_cap(max_objects))
    if n == 0:
        budget.tick()
        yield None
        return
    full = 1 << arity
    masks: list[int] = []  # bit j of a mask: position j+1 holds a child
    slots: list = []       # (parent, position, None); node i fills slot i-1
    mask = 0               # the next mask to try for node len(masks)
    while mask < full or masks:
        if mask == full:
            mask = masks.pop()
            del slots[len(slots) - mask.bit_count():]
        elif (size := len(slots) + mask.bit_count()) >= n:
            mask += (mask & -mask) - 1  # slots never reach n, so mask > 0
        elif len(masks) < size:
            # the next node finds an open slot, and no slot is left over
            slots += [(len(masks), pos, None) for pos in range(1, arity + 1)
                      if mask >> (pos - 1) & 1]
            masks.append(mask)
            mask = -1
        elif size == len(masks) == n - 1:
            budget.tick()
            yield tree_from_records(arity, [(-1, 0, None)] + slots)
            mask = full - 1  # the last node can only be a leaf
        mask += 1


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

class Histogram(_Frozen):
    """Exact multiset of statistic tuples with arbitrary-precision counts,
    equal to another of equal counts and total, and with no hash."""

    _FIELDS = ("variant", "k", "counts", "total")

    def __init__(self, variant: str, k: int | None,
                 counts: dict[tuple[int, ...], int], total: int):
        vars(self).update(variant=variant, k=k, counts=counts, total=total)

    def entries(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.counts.items())

    def permuted(self, sigma: Iterable[int]) -> "Histogram":
        """Move the value in coordinate i to coordinate sigma(i) (1-based).

        Raises BadPermutationError unless sigma permutes 1..m, where m is
        the length of the statistic tuples.
        """
        sig = list(sigma)
        m = len(next(iter(self.counts), sig))
        return Histogram(self.variant, self.k,
                         permute_coordinates(self.counts, sig, m, 1),
                         self.total)

    def marginal(self, coord: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for key, c in self.counts.items():
            out[key[coord]] = out.get(key[coord], 0) + c
        return out

    def to_json(self) -> dict:
        return {"total": self.total,
                "entries": [{"stats": list(k), "count": c}
                            for k, c in self.entries()]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.counts == other.counts and self.total == other.total


def family_histogram(spec: FamilySpec, length: int, variant: str = PLAIN,
                     max_objects: int | None = None) -> Histogram:
    """The histogram of a whole family, equal to
    ``histogram(gen_kac(spec, length, max_objects), variant)`` and tallied
    on the walk's own statistic, with its k set to spec.k."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    k = spec.k
    length, budget = _family_args(length, max_objects)
    weight = _packing(k, length)
    starred = variant in STARRED  # count the held peak too
    tally: Counter = Counter()
    for head, (tails, kept, released), key, held in _walk(spec, length,
                                                          variant, weight):
        budget.tick(len(tails))
        for tail in tails:
            LatticePath(spec, head + tail)
        freed = key + weight[held]
        if starred:
            key = freed
        for inc, c in kept.items():
            tally[key + inc] += c
        for inc, c in released.items():
            tally[freed + inc] += c
    reached = len(weight) - 2  # the residues _packing packs; the rest 0
    counts = {}
    for key, c in tally.items():
        digits = _unpack(key, reached + 1, length + 1)
        counts[digits[:reached] + (0,) * (k - reached) + digits[-1:]] = c
    return Histogram(variant, k, counts, sum(counts.values()))


def histogram(paths: Iterable[LatticePath], variant: str = PLAIN) -> Histogram:
    """Tally the statistic vectors of a homogeneous path stream."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    counts = Counter(stat_vector(p, variant).key() for p in paths)
    # a key is (pk_0, ..., pk_{k-1}, dd)
    k = len(next(iter(counts))) - 1 if counts else None
    return Histogram(variant, k, dict(counts), sum(counts.values()))


def histogram_from_keys(keys: Iterable[tuple[int, ...]],
                        variant: str = PLAIN,
                        k: int | None = None) -> Histogram:
    """Build a histogram directly from statistic tuples (tree e-vectors,
    precomputed keys, and the like)."""
    if k is not None:
        k = _int_arg("k", k, 1)
    counts = Counter(map(tuple, keys))
    return Histogram(variant, k, dict(counts), sum(counts.values()))

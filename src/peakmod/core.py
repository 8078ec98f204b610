"""Data model for generalized lattice paths and positional trees.

A path is a sequence of steps drawn from three kinds:

  * ``u``       an up-step (1, 1),
  * ``d``       a down-step (1, -k) for the family parameter k,
  * ``l<a>_<b>`` a level step (a, 0) of run-length a in color b.

A :class:`FamilySpec` fixes k, the allowed level steps with their color
counts, and the target end height m.  The classical families are special
cases: pure k-Dyck paths (no level steps, m = 0), colored Motzkin and
Schroder paths (level steps of length 1 resp. 2, m = 0), and ballot paths
(m > 0).  Paths may start at a nonzero height; validation always checks
nonnegativity of every prefix height from the actual start.

Trees here are "positional" m-ary trees: every child occupies an explicit
slot in 1..m and slots may be skipped.  The empty tree (zero nodes) is
represented by ``None`` throughout the package.  A :class:`PositionalTree`
holds its (parent, position, label) records and builds its nodes only
when ``children`` is read.  One emitter writes JSON text in one pass from
records in text order (each node, then its children's subtrees by key),
and puts records of any other order in text order first.
:func:`records_from_json_text` reads records back with the walk
of :func:`tree_from_json`, over the C decoder's tuples of pairs; text the
decoder cannot read, or whose tree the walk refuses, is read again on an
explicit stack at any depth, whose dicts the same walk reads to word
every fault.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cache, cached_property, lru_cache
from itertools import accumulate, repeat
from operator import attrgetter, itemgetter, length_hint, mul


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class PathError(ValueError):
    """Base class for path construction and parsing failures."""


class NegativeHeightError(PathError):
    """Some prefix of the path dips below height zero."""


class WrongEndHeightError(PathError):
    """The path does not end at start_height + spec.end_height."""


class IllegalStepError(PathError):
    """A step is not in the alphabet permitted by the family spec."""


class EmptyPathError(PathError):
    """The operation requires a nonempty path."""


class WrongKError(PathError):
    """The operation is only defined for a specific k."""


class ParseError(PathError):
    """Malformed path text.  Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TreeError(ValueError):
    """Base class for positional-tree failures."""


class DuplicatePositionError(TreeError):
    """Two children of one node claim the same position."""


class PositionOutOfRangeError(TreeError):
    """A child position lies outside 1..arity."""


class ArityMismatchError(TreeError):
    """The tree arity does not match the requested operation."""


class BadPermutationError(ValueError):
    """The given sequence is not a permutation of 1..m."""


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

# A value refuses every name, field or not, with the error and message of a
# frozen dataclass; dataclasses is imported only when one is refused.
def _refuse_assignment(self, name: str, value) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Frozen:
    """Base of the value types: ``==``, hash, repr and ``match`` by the
    fields ``_FIELDS`` names in constructor order, which ``__init__`` sets
    past ``__setattr__``; any later assignment or deletion is refused."""

    __slots__ = ()
    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __init_subclass__(cls):
        cls.__match_args__ = cls._FIELDS
        cls._values = attrgetter(*cls._FIELDS)  # not bound: pass the value

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self._FIELDS, self._values(self)))
        return f"{type(self).__qualname__}({shown})"


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

class Step(_Frozen):
    """A single step: kind is 'u', 'd', or 'l' (level).

    For level steps ``length`` is the horizontal run-length a >= 1 and
    ``color`` is the 1-based color index b.  Up and down steps always have
    length 1 and color 0.
    """

    _FIELDS = ("kind", "length", "color")

    def __init__(self, kind: str, length: int = 1, color: int = 0):
        # one by one, not by vars(self).update: CPython reads the fields
        # of an object whose dict was never made faster, and every path
        # loop reads a step's fields
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "color", color)

    def token(self) -> str:
        """The step's text; a level step's numbers are written as ints, so
        equal steps render alike (``Step("l", True, 1)`` as ``l1_1``)."""
        if self.kind == "l":
            return f"l{int(self.length)}_{int(self.color)}"
        return self.kind


UP = Step("u")
DOWN = Step("d")


# The level steps the cache of level() keeps alive.  The cache only shares
# step objects: LatticePath checks a level step by its fields, so nothing
# depends on a step's identity.
_LEVEL_CACHE = 4096


@lru_cache(maxsize=_LEVEL_CACHE)
def level(a: int, b: int) -> Step:
    """The level step of run-length ``a`` in color ``b``, one object per
    step while it stays in the cache."""
    return Step("l", a, b)


def _integral(x) -> bool:
    """Whether ``x`` equals its int(): True and 1.0 do, 1.5 and "1" not."""
    try:
        return x == int(x)
    except (TypeError, ValueError, OverflowError):
        return False


def _int_arg(name: str, x, least: int | None = None,
             error: type[ValueError] = ValueError) -> int:
    """``x`` as an int under :func:`_integral`'s rule (4.0 is 4, True is
    1), at least ``least`` if given: the one reader of the library's integer
    arguments.  Else ``error``, a ValueError, names the parameter."""
    if x.__class__ is not int:
        if not _integral(x):
            raise error(f"{name} must be an integer, got {x!r}")
        x = int(x)
    if least is not None and x < least:
        raise error(f"{name} must be >= {least}, got {x}")
    return x


# ---------------------------------------------------------------------------
# packed keys and permuted coordinates, shared by the counting routes
# ---------------------------------------------------------------------------

def _packing(k: int, length: int) -> list[int]:
    """Weights that pack (pk_0, ..., pk_{r-1}, dd) into one integer, for
    the r = min(k, L + 1) residues a length-L family reaches (no height
    passes L), so weight r, at index -2, is dd's: a counter is at most L,
    so coordinate i is digit i in base L + 1.  The last weight, at index
    -1, is 0: adding it counts nothing, as for the residue -1 of no peak."""
    base = length + 1
    return [*accumulate(repeat(base, min(k, base)), mul, initial=1), 0]


def _unpack(key: int, ndigits: int, base: int) -> tuple[int, ...]:
    """The digits of key in base ``base``, least significant first: the
    inverse of packing coordinate i at weight base**i, as :func:`_packing`
    does with base L + 1 for the family walk, and the series engine of
    :mod:`peakmod.counting` does for its outer markers, with its own
    bases."""
    digits = []
    for _ in range(ndigits):
        key, digit = divmod(key, base)
        digits.append(digit)
    return tuple(digits)


def check_permutation(sigma: Sequence[int], m: int,
                      first: int = 1) -> tuple[int, ...]:
    """Validate sigma as images of first..first+m-1 and return a tuple of
    ints; each entry must be an integer, as :func:`_int_arg` reads one
    (True and 1.0 pass, 1.9 and "1" do not).  A sigma that is no sequence,
    such as None, is no permutation either."""
    try:
        sig = list(sigma)
        ok = all(map(_integral, sig)) and \
            sorted(map(int, sig)) == list(range(first, first + m))
    except TypeError:  # sigma is no sequence
        sig, ok = sigma, False
    if not ok:
        raise BadPermutationError(
            f"{sig!r} is not a permutation of {first}..{first + m - 1}")
    return tuple(map(int, sig))


def permute_coordinates(table: dict[tuple[int, ...], int],
                        sigma: Sequence[int], m: int,
                        first: int) -> dict[tuple[int, ...], int]:
    """Move coordinate i of every m-coordinate key to coordinate
    sigma[i] - first, keeping the values.

    sigma is checked by :func:`check_permutation`, so no two keys merge.
    """
    sig = check_permutation(sigma, m, first)
    source = sorted(range(m), key=lambda i: sig[i])
    return {tuple(key[i] for i in source): c for key, c in table.items()}


# ---------------------------------------------------------------------------
# family specification
# ---------------------------------------------------------------------------

class FamilySpec(_Frozen):
    """Parameters of a path family.

    ``k`` is the down-step drop, ``levels`` maps run-length a to its color
    count c_a (the empty map forbids level steps entirely and gives pure
    k-Dyck / ballot paths), and ``end_height`` is the target height m >= 0
    relative to the start (0 for Dyck-like families).  Each number is read
    by :func:`_int_arg` and kept as an int.
    """

    _FIELDS = ("k", "levels", "end_height")

    def __init__(self, k: int, levels: Mapping | Sequence = (),
                 end_height: int = 0):
        k = _int_arg("k", k, 1)
        end_height = _int_arg("end_height", end_height, 0)
        pairs = levels.items() if isinstance(levels, Mapping) else levels
        try:
            pairs = [(a, c) for a, c in pairs]
        except (TypeError, ValueError):
            raise ValueError(f"levels must map run-lengths to color counts, "
                             f"got {levels!r}") from None
        items = [(_int_arg("level run-length", a, 1),
                  _int_arg("color count", c, 1)) for a, c in pairs]
        colors = dict(items)
        if len(colors) != len(items):
            raise ValueError("duplicate level run-length")
        # _colors maps run-length to color count for every level-step check
        vars(self).update(k=k, levels=tuple(sorted(items)),
                          end_height=end_height, _colors=colors)

    @property
    def has_levels(self) -> bool:
        return bool(self.levels)

    @property
    def ell(self) -> int:
        """The quotient in end_height = ell*k + residue."""
        return self.end_height // self.k

    @property
    def residue(self) -> int:
        """The remainder in end_height = ell*k + residue."""
        return self.end_height % self.k

    def color_count(self, a: int) -> int:
        return self._colors.get(a, 0)

    def level_steps(self) -> Iterator[Step]:
        """All allowed level steps in canonical (a, b) order."""
        for a, c in self.levels:
            for b in range(1, c + 1):
                yield level(a, b)

    def check_step(self, step: Step) -> None:
        """IllegalStepError unless ``step`` is an allowed level step."""
        if not isinstance(step, Step):
            raise IllegalStepError(f"not a step: {step!r}")
        if step.kind != "l":
            raise IllegalStepError(f"unknown step kind {step.kind!r}")
        # a run-length that is no integer, such as a list, has no colors
        c = self.color_count(step.length) if _integral(step.length) else 0
        if c == 0:
            raise IllegalStepError(
                f"level run-length {step.length} not allowed by this family")
        if not (_integral(step.color) and 1 <= step.color <= c):
            raise IllegalStepError(
                f"color {step.color} out of range 1..{c} "
                f"for level run-length {step.length}")


@cache
def pure_spec(k: int) -> FamilySpec:
    """The level-free family of drop k ending at its start height, built
    once per k."""
    return FamilySpec(k)


# ---------------------------------------------------------------------------
# lattice paths
# ---------------------------------------------------------------------------

class LatticePath(_Frozen):
    """A validated step sequence within a family.

    Construction validates everything: steps must be legal for the spec,
    the start height an integer (kept as an int), every prefix height
    nonnegative, and the final height equal to start_height +
    spec.end_height.  A path is a frozen value kept in slots, with no
    per-instance ``__dict__``; its ``__init__`` checks the arguments and
    sets each field once, ``steps`` as a tuple.  A copy or a pickle is
    made by the constructor, so it is validated again.

    That validator is one loop.  It tests ``UP`` and ``DOWN`` by identity
    first and any other step by its fields: a level step whose color is an
    int in 1..c_a for its run-length a passes at once, and any other step
    that is no u or d goes to :meth:`FamilySpec.check_step`, the one place
    that words a fault.  So does an object that is no step, or a level step
    whose run-length has no hash, when the test raises on it.  The first
    fault in step order raises.

    A path hashes by its text (see :meth:`__hash__`).
    """

    __slots__ = _FIELDS = ("spec", "steps", "start_height")

    def __init__(self, spec: FamilySpec, steps: Iterable[Step] = (),
                 start_height: int = 0):
        try:
            steps = tuple(steps)
        except TypeError:
            try:  # a TypeError from inside an iterable is not ours to word
                iter(steps)
            except TypeError:
                raise PathError(f"steps must be an iterable of steps, "
                                f"got {steps!r}") from None
            raise
        h = start_height
        if h.__class__ is not int:  # True or 1.0 is kept as an int
            if not _integral(h):
                raise PathError(f"start height {h!r} is not an integer")
            h = int(h)
        if h < 0:
            raise NegativeHeightError(f"start height {h} is negative")
        try:
            k, want, colors = spec.k, h + spec.end_height, spec._colors
        except AttributeError:
            raise PathError(f"spec must be a FamilySpec, got {spec!r}") \
                from None
        _set_spec(self, spec)
        _set_steps(self, steps)
        _set_start_height(self, h)
        it = iter(steps)
        try:
            for s in it:
                if s is UP:
                    h += 1
                elif s is DOWN:
                    h -= k
                    if h < 0:
                        break
                # this test only accepts: check_step words every fault
                elif not (s.kind == "l" and s.color.__class__ is int
                          and 0 < s.color <= colors.get(s.length, 0)):
                    if s.kind == "u":
                        h += 1
                    elif s.kind != "d":
                        spec.check_step(s)
                    else:
                        h -= k
                        if h < 0:
                            break
            else:
                if h != want:
                    raise WrongEndHeightError(
                        f"path ends at height {h}, expected {want}")
                return
        except (AttributeError, TypeError):
            # s is no Step, or its run-length has no hash
            spec.check_step(s)
            raise
        idx = len(steps) - length_hint(it) - 1  # it holds the later steps
        raise NegativeHeightError(f"height {h} after step {idx} is negative")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.steps, self.start_height) == \
            (other.spec, other.steps, other.start_height)

    def __hash__(self) -> int:
        """Hash of the spec, the start height and the text, which equal
        paths share: equal steps render alike."""
        return hash((self.spec, self.start_height, render_path(self)))

    def __reduce__(self):
        return LatticePath, (self.spec, self.steps, self.start_height)

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def down_size(self) -> int:
        """Number of down-steps (the size parameter n)."""
        return sum(1 for s in self.steps if s.kind == "d")

    @property
    def up_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "u")

    @property
    def path_length(self) -> int:
        """Total length |P|: ups and downs count 1, a level step counts a."""
        return sum(s.length for s in self.steps)

    @property
    def end_height(self) -> int:
        return self.start_height + self.spec.end_height

    def is_empty(self) -> bool:
        return not self.steps

    def text(self) -> str:
        return render_path(self)

    def __str__(self) -> str:
        return render_path(self)


_set_spec = LatticePath.__dict__["spec"].__set__
_set_steps = LatticePath.__dict__["steps"].__set__
_set_start_height = LatticePath.__dict__["start_height"].__set__


def validate(spec: FamilySpec, steps: Iterable[Step],
             start_height: int = 0) -> LatticePath:
    """Validate ``steps`` against ``spec`` and return the path value."""
    return LatticePath(spec, tuple(steps), start_height)


def height_profile(path: LatticePath) -> list[int]:
    """Heights at each lattice vertex, starting with the start height.

    The result has one more entry than the path has steps; a level step
    contributes a single constant-height transition regardless of its
    run-length.
    """
    k = path.spec.k
    h = path.start_height
    out = [h]
    for s in path.steps:
        if s.kind == "u":
            h += 1
        elif s.kind == "d":
            h -= k
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# path text format
# ---------------------------------------------------------------------------

_UD_RUN = re.compile("[ud]+")
# level numbers are ASCII digits: str.isdigit also takes other scripts'
# digits, which int() reads, and superscripts, which int() rejects
_DIGITS = re.compile("[0-9]+")
_UD_STEP = {"u": UP, "d": DOWN}


def parse_steps(text: str) -> list[Step]:
    """Parse the token grammar  u | d | l<INT>_<INT>  (whitespace ignored)."""
    steps = []
    i, n = 0, len(text)
    while i < n:
        run = _UD_RUN.match(text, i)
        if run:  # a whole run of u and d in one move
            steps += map(_UD_STEP.__getitem__, run.group())
            i = run.end()
            continue
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "l":
            i += 1
            a, i = _parse_int(text, i, "level run-length")
            if i >= n or text[i] != "_":
                raise ParseError("expected '_' after level run-length", i)
            b, i = _parse_int(text, i + 1, "level color")
            steps.append(level(a, b))
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return steps


def ascii_int(text: str) -> int | None:
    """int() on ASCII text with no "_": an optional sign and ASCII digits,
    with whitespace around.  int() alone also reads other scripts' digits
    and "_" separators; for such text this returns None.  ASCII text that
    int() rejects raises int()'s own ValueError."""
    if text.isascii() and "_" not in text:
        return int(text)
    return None


def _parse_int(text: str, i: int, what: str) -> tuple[int, int]:
    digits = _DIGITS.match(text, i)
    if digits is None:
        raise ParseError(f"expected digits for {what}", i)
    return int(digits.group()), digits.end()


def parse_path(text: str, spec: FamilySpec,
               start_height: int = 0) -> LatticePath:
    """Parse and validate a path from its text form."""
    return validate(spec, parse_steps(text), start_height)


def render_path(path: LatticePath) -> str:
    """Canonical text form: tokens concatenated without whitespace."""
    return "".join([s.kind if s.kind != "l" else s.token()
                    for s in path.steps])


# ---------------------------------------------------------------------------
# node labels
# ---------------------------------------------------------------------------

LABEL_RIGHTMOST = "r"
LABEL_PEAK = "peak"
LABEL_DD = "dd"


# repr recurses through nested lists and objects; a label nested deeper
# than this is named by its type in the error message instead
_SHOWN_DEPTH = 100


def _shown(value) -> str:
    """``repr(value)`` of a decoded JSON value, or its type when its lists
    and objects nest more than ``_SHOWN_DEPTH`` deep."""
    inner = [value]  # the lists and objects one level further in
    for _ in range(_SHOWN_DEPTH):
        inner = [v for c in inner if c.__class__ in (list, dict)
                 for v in (c.values() if c.__class__ is dict else c)
                 if v.__class__ in (list, dict)]
        if not inner:
            return repr(value)
    return f"a {type(value).__name__} nested over {_SHOWN_DEPTH} deep"


class NodeLabel(_Frozen):
    """Label of a path feature: the rightmost peak, the j-th non-rightmost
    peak in residue class i, or the j-th double descent."""

    _FIELDS = ("kind", "residue", "ordinal")

    def __init__(self, kind: str, residue: int | None = None,
                 ordinal: int | None = None):
        if kind not in (LABEL_RIGHTMOST, LABEL_PEAK, LABEL_DD):
            raise ValueError(f"unknown label kind {kind!r}")
        if kind == LABEL_PEAK and (residue is None or ordinal is None):
            raise ValueError("peak labels need residue and ordinal")
        if kind == LABEL_DD and ordinal is None:
            raise ValueError("double-descent labels need an ordinal")
        # the fields the kind writes are ints >= 0; it keeps no other
        fields = {"residue": residue, "ordinal": ordinal}
        for name, writes in (("residue", kind == LABEL_PEAK),
                             ("ordinal", kind != LABEL_RIGHTMOST)):
            value = fields[name]
            if value is not None:
                if not writes:
                    raise ValueError(f"{kind!r} labels take no {name}, "
                                     f"got {value!r}")
                fields[name] = value = _int_arg(name, value, 0)
                try:
                    str(value)
                except ValueError:  # more digits than str() writes
                    raise ValueError(f"{name} has too many digits") from None
        vars(self).update(kind=kind, **fields)

    def json_str(self) -> str:
        """Wire form: "r", "p<i>_<j>", or "dd_<j>"."""
        return _label_text(self.kind, self.residue, self.ordinal)

    def display(self) -> str:
        """Figure form: "r", "<i>_<j>", or "d_<j>"."""
        if self.kind == LABEL_RIGHTMOST:
            return "r"
        if self.kind == LABEL_PEAK:
            return f"{self.residue}_{self.ordinal}"
        return f"d_{self.ordinal}"

    @classmethod
    def parse(cls, text: str) -> "NodeLabel":
        if not isinstance(text, str):
            raise TreeError(
                f"node label must be a string, got {_shown(text)}")
        if text == "r":
            return _node_label(LABEL_RIGHTMOST)
        if text.isascii():  # then isdigit means 0-9 only
            try:
                if text.startswith("dd_") and text[3:].isdigit():
                    return _node_label(LABEL_DD, None, int(text[3:]))
                if text.startswith("p"):
                    i, _, j = text[1:].partition("_")
                    if i.isdigit() and j.isdigit():
                        return _node_label(LABEL_PEAK, int(i), int(j))
            except ValueError:  # more digits than int() reads
                pass
        raise TreeError(f"unrecognized node label {text!r}")


def _label_text(kind: str, residue: int | None = None,
                ordinal: int | None = None) -> str:
    """The wire form of the label of these fields, as :meth:`json_str`."""
    if kind == LABEL_RIGHTMOST:
        return "r"
    if kind == LABEL_PEAK:
        return f"p{residue}_{ordinal}"
    return f"dd_{ordinal}"


def _node_label(kind: str, residue: int | None = None,
                ordinal: int | None = None) -> NodeLabel:
    """The label of these fields, unchecked: its callers give the fields of
    a valid label, as ``NodeLabel(kind, residue, ordinal)`` checks them."""
    label = object.__new__(NodeLabel)
    vars(label).update(kind=kind, residue=residue, ordinal=ordinal)
    return label


# ---------------------------------------------------------------------------
# positional trees
# ---------------------------------------------------------------------------

class PositionalTree:
    """A nonempty rooted tree whose children occupy explicit slots 1..arity.

    ``children`` holds (position, subtree) pairs, kept sorted by position.
    The empty tree is represented by ``None`` wherever a tree is optional.
    Every operation on whole trees is iterative, so depth is unbounded.

    A tree made by :func:`tree_from_records` keeps its records and builds
    no node until ``children`` is first read; one made by this constructor
    checks its children and lists its records on demand, in canonical
    order.  The package reads the records in the order kept; :meth:`records`
    gives them in canonical order, for ``hash`` and every other caller, and
    ``==`` compares them when the kept records differ.
    """

    def __init__(self, arity: int,
                 children: Iterable[tuple[int, "PositionalTree"]] = (),
                 label: NodeLabel | None = None):
        arity = _int_arg("arity", arity, 1, TreeError)
        if label is not None and not isinstance(label, NodeLabel):
            raise TreeError(f"label must be a NodeLabel or None, got {label!r}")
        try:
            pairs = [(p, c) for p, c in children]
        except (TypeError, ValueError):
            raise TreeError(f"children must be (position, subtree) pairs, "
                            f"got {children!r}") from None
        kids = tuple(sorted(((_int_arg("child position", p, error=TreeError),
                              c) for p, c in pairs), key=_POSITION))
        for i, (pos, child) in enumerate(kids):
            if not 1 <= pos <= arity:
                raise PositionOutOfRangeError(
                    f"child position {pos} outside 1..{arity}")
            if i and kids[i - 1][0] == pos:
                raise DuplicatePositionError(f"duplicate child position {pos}")
            if not isinstance(child, PositionalTree):
                raise TreeError(f"child at position {pos} must be a "
                                f"PositionalTree, got {child!r}")
            if child.arity != arity:
                raise ArityMismatchError(
                    f"child arity {child.arity} != parent arity {arity}")
        vars(self).update(arity=arity, children=kids, label=label)

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    @cached_property
    def children(self) -> tuple[tuple[int, "PositionalTree"], ...]:
        """The root's (position, subtree) pairs, built from the kept
        records on first read (the constructor sets them itself)."""
        return _nodes(self.arity, self._flat)

    @cached_property
    def _flat(self) -> list[tuple[int, int, NodeLabel | None]]:
        """The records, each parent before its children: those
        :func:`tree_from_records` kept, else read from the nodes
        breadth-first, siblings by position."""
        out = [(-1, 0, self.label)]
        nodes = [self]
        for idx, node in enumerate(nodes):  # grows while iterating
            for pos, child in node.children:
                out.append((idx, pos, child.label))
                nodes.append(child)
        return out

    def node_count(self) -> int:
        return len(self._flat)

    def iter_nodes(self) -> Iterator["PositionalTree"]:
        """Preorder traversal, children in position order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(c for _, c in reversed(node.children))

    def records(self) -> list[tuple[int, int, NodeLabel | None]]:
        """(parent index, position, label) in breadth-first order.

        The root comes first as (-1, 0, label); siblings follow each other
        in position order.  :func:`tree_from_records` inverts this.  Kept
        records already in that order (the root's record (-1, 0, label),
        then parents non-decreasing and sibling positions rising) come back
        as a copy, with nothing sorted.
        """
        flat = self._flat
        parent, pos, _ = flat[0]
        if parent == -1 and pos == 0:
            for p, q, _ in flat[1:]:
                if p < parent or p == parent and q <= pos:
                    break
                parent, pos = p, q
            else:
                return list(flat)
        kids: list[list] = [[] for _ in flat]
        for idx in range(len(flat) - 1, 0, -1):
            parent, pos, _ = flat[idx]
            kids[parent].append((pos, idx))
        out = [(-1, 0, self.label)]
        order = [0]  # the kept index of each record of out
        for new, old in enumerate(order):  # grows while iterating
            ks = kids[old]
            if len(ks) > 1:
                ks.sort()
            for pos, idx in ks:
                out.append((new, pos, flat[idx][2]))
                order.append(idx)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PositionalTree):
            return NotImplemented
        # equal kept records give one tree, whatever their order
        return self is other or (self.arity == other.arity and (
            self._flat == other._flat or self.records() == other.records()))

    def __hash__(self) -> int:
        return hash((self.arity, tuple(self.records())))

    def __repr__(self) -> str:
        return f"PositionalTree({self.arity}, {tree_to_json_text(self)})"

    def strip_labels(self) -> "PositionalTree":
        return tree_from_records(self.arity, [
            (p, pos, None) for p, pos, _ in self._flat])


_POSITION = itemgetter(0)


def tree_from_records(arity: int, records) -> PositionalTree:
    """The tree given by (parent index, position, label) records, which it
    keeps; no node is built until its ``children`` are read.

    Record 0 is the root, whose parent and position are ignored; every
    other record names an earlier one as its parent, at a position in
    1..arity that no sibling takes.  The records are not checked: the
    package's builders and :func:`records_from_json_text` give such lists.
    """
    tree = object.__new__(PositionalTree)
    vars(tree).update(arity=arity, label=records[0][2], _flat=records)
    return tree


def _nodes(arity: int, records) -> tuple:
    """The root's (position, subtree) pairs of the tree the records give,
    each subtree built as nodes, children before parents."""
    kids: list[list] = [[] for _ in records]
    for idx in range(len(records) - 1, 0, -1):
        parent, pos, label = records[idx]
        node = object.__new__(PositionalTree)
        vars(node).update(arity=arity, label=label,
                          children=tuple(sorted(kids[idx], key=_POSITION)))
        kids[parent].append((pos, node))
    return tuple(sorted(kids[0], key=_POSITION))


def tree_to_json(tree: PositionalTree | None):
    """Nested-object form: position strings map to child objects, with an
    optional "label" entry.  The empty tree serializes to ``None``."""
    if tree is None:
        return None
    objs: list[dict] = []
    for parent, pos, label in tree.records():
        obj = {} if label is None else {"label": label.json_str()}
        if parent >= 0:
            objs[parent][str(pos)] = obj
        objs.append(obj)
    return objs[0]


# the arities up to which the key tables of tree text, the writer's opening
# tokens and the reader's canonical keys, cover every position; each is
# built once per arity
_TABLED_ARITY = 64


def tree_to_json_text(tree: PositionalTree | None) -> str:
    """The compact wire form: ``json.dumps(tree_to_json(tree),
    sort_keys=True, separators=(",", ":"))``, written by :func:`_tree_text`
    from the tree's records, so no node is built and depth is unbounded."""
    if tree is None:
        return "null"
    return _tree_text(tree.arity, tree._flat, NodeLabel.json_str)


def _tree_text(arity: int, records, text) -> str:
    """The JSON text of the tree the records give, each label as
    ``text(label)``, in one pass over a stack of open nodes when the
    records come in text order (each node, then its children's subtrees in
    the order json.dumps sorts their keys, "10" < "2"); records of another
    order are put in text order first, by :func:`_text_order`."""
    rank, first, rest = _arity_tokens(arity) if arity <= _TABLED_ARITY \
        else _key_tokens({pos for _, pos, _ in records[1:]})
    out = ["{"]
    stack = [-1, 0]  # the open nodes, on a floor that closes them all
    n = len(records)
    for idx in range(1, n + 1):
        parent, pos, _ = records[idx] if idx < n else _CLOSE_ALL
        if parent == idx - 1:
            out.append(first[rank[pos]])
        else:
            while stack[-1] > parent:  # close the nodes above parent
                v = stack.pop()
                label = records[v][2]  # "label" sorts after digits
                out.append("}" if label is None else
                           f'{"," if v < idx - 1 else ""}"label":"'
                           f'{text(label)}"}}')
            if parent < 0:
                break
            r = rank[pos]  # v is the sibling before, if parent is open
            if stack[-1] != parent or rank[records[v][1]] >= r:
                return _tree_text(arity, _text_order(records, rank), text)
            out.append(rest[r])
        stack.append(idx)
    return "".join(out)


_CLOSE_ALL = (-1, 0, None)


def _text_order(records, rank) -> list:
    """The records in text order, from each node's children sorted by the
    ``rank`` of their keys."""
    kids: list[list] = [[] for _ in records]
    for idx in range(len(records) - 1, 0, -1):
        parent, pos, _ = records[idx]
        kids[parent].append((rank[pos], idx))
    out: list = []
    todo = [(-1, 0)]  # (new index of the parent, record index)
    while todo:
        parent, v = todo.pop()
        _, pos, label = records[v]
        ks, new = kids[v], len(out)
        if len(ks) > 1:
            ks.sort(reverse=True)
        for _, c in ks:
            todo.append((new, c))
        out.append((parent, pos, label))
    return out


@cache
def _arity_tokens(arity: int) -> tuple:
    return _key_tokens(range(1, arity + 1))


def _key_tokens(positions) -> tuple:
    """``(rank, first, rest)`` for writing children at these positions:
    ``rank[pos]`` orders the keys as json.dumps sorts them, as strings
    (past arity 9 "10" < "2"), and ``first[r]`` / ``rest[r]`` open the
    child of rank r as the first of its siblings (``"3":{``) or a later
    one (``,"3":{``)."""
    keys = sorted(map(str, positions))
    return ({int(key): r for r, key in enumerate(keys)},
            [f'"{key}":{{' for key in keys], [f',"{key}":{{' for key in keys])


def _position(key: str, arity: int) -> int:
    """The child position an object key names; it must lie in 1..arity."""
    if not (key.isascii() and key.isdecimal()):
        raise TreeError(f"bad child position key {key!r}")
    pos = int(key)
    if not 1 <= pos <= arity:
        raise PositionOutOfRangeError(
            f"child position {pos} outside 1..{arity}")
    return pos


def _not_an_object(value) -> TreeError:
    return TreeError(f"expected an object, got {type(value).__name__}")


def _tree_records(value, arity: int, obj=dict) -> list:
    """The (parent, position, label) records of a tree in nested-object
    form, breadth-first, so a node's children are adjacent records; ``[]``
    for ``None``.  ``arity`` is an int, as the callers read it.  A node is
    an ``obj``: a dict, or the tuple of pairs that ``_PAIRS`` makes of an
    object, refused when it repeats a key.

    The first fault met breadth-first raises: a node that is no object, or
    a bad key, position or label.  Then come the checks the nested
    constructor makes of nodes built bottom-up: an arity below 1, and a
    position given twice at one node (``"1"`` and ``"01"``: only a key not
    in :func:`_child_keys` can do that), the last such parent first, its
    smallest such position.
    """
    if value is None:
        return []
    keys = _child_keys(max(0, min(arity, _TABLED_ARITY)))
    pairs = obj is tuple
    records = [(-1, 0, None)]
    nodes = [value]
    doubled = False  # whether a key outside keys named a position
    for idx, node in enumerate(nodes):  # grows as it goes
        if pairs:  # the node is its own (key, value) pairs
            if node.__class__ is not tuple:
                raise _not_an_object(node)
            if len(node) > 1 and len(dict(node)) < len(node):
                _unique_keys(node)  # raises
        elif isinstance(node, dict):
            node = node.items()
        else:
            raise _not_an_object(node)
        for key, child in node:
            pos = keys.get(key)
            if pos is None:
                if key == "label":
                    parent, pos, _ = records[idx]
                    records[idx] = (parent, pos, NodeLabel.parse(child))
                    continue
                pos, doubled = _position(key, arity), True
            records.append((idx, pos, None))
            nodes.append(child)
    _int_arg("arity", arity, 1, TreeError)
    if doubled and len(set(map(_PARENT_POSITION, records))) < len(records):
        twice = [pair for pair, n in
                 Counter(map(_PARENT_POSITION, records)).items() if n > 1]
        last = max(parent for parent, _ in twice)
        pos = min(pos for parent, pos in twice if parent == last)
        raise DuplicatePositionError(f"duplicate child position {pos}")
    return records


_PARENT_POSITION = itemgetter(0, 1)


def tree_from_json(obj, arity: int) -> PositionalTree | None:
    """Inverse of :func:`tree_to_json`."""
    arity = _int_arg("arity", arity, error=TreeError)
    records = _tree_records(obj, arity)
    return tree_from_records(arity, records) if records else None


_WS = re.compile(r"[ \t\n\r]*")


def _skip(text: str, i: int) -> int:
    """The index of the first non-whitespace character from i on."""
    return _WS.match(text, i).end() if text[i: i + 1] in " \t\n\r" else i


def _json_key(text: str, i: int) -> tuple[str, int]:
    """Read ``"key" :`` at i; return the key and the index of its value."""
    if text[i: i + 1] != '"':
        raise json.JSONDecodeError(
            "Expecting property name enclosed in double quotes", text, i)
    key, i = json.decoder.scanstring(text, i + 1)
    i = _skip(text, i)
    if text[i: i + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
    return key, _skip(text, i + 1)


def _unique_keys(pairs: list) -> dict:
    """The object of one JSON object's (key, value) pairs; a key given
    twice raises :class:`DuplicatePositionError`."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise DuplicatePositionError(
            f"duplicate key among {sorted(key for key, _ in pairs)}")
    return obj


# the C scanner makes each object the tuple of its (key, value) pairs
_PAIRS = json.JSONDecoder(object_pairs_hook=tuple)


def _json_value(text: str, i: int, scan) -> tuple[object, int]:
    """The JSON value at i and the index after it, read like ``json.loads``
    with an explicit stack of open containers instead of recursion; each
    object is made by :func:`_unique_keys` when it closes.  ``scan`` is a
    decoder's ``scan_once``."""
    frames: list[list] = []  # [items] for an array, [pairs, key] for an object
    while True:
        c = text[i: i + 1]
        if c == "{" or c == "[":
            i = _skip(text, i + 1)
            if text[i: i + 1] == ("}" if c == "{" else "]"):
                value, i = ({} if c == "{" else []), i + 1
            elif c == "[":
                frames.append([[]])
                continue
            else:
                key, i = _json_key(text, i)
                frames.append([[], key])
                continue
        else:
            try:
                value, i = scan(text, i)
            except StopIteration as exc:
                raise json.JSONDecodeError("Expecting value", text,
                                           exc.value) from None
        while frames:  # hand the finished value to its container
            frame = frames[-1]
            is_obj = len(frame) == 2
            frame[0].append((frame[1], value) if is_obj else value)
            i = _skip(text, i)
            c = text[i: i + 1]
            if c == ",":
                i = _skip(text, i + 1)
                if is_obj:
                    frame[1], i = _json_key(text, i)
                break
            if c != ("}" if is_obj else "]"):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
            frames.pop()
            value = _unique_keys(frame[0]) if is_obj else frame[0]
            i += 1
        else:
            return value, i


def _stack_loads(text: str):
    """The C decoder's value of ``text`` or its error, each object a dict
    made by :func:`_unique_keys`, read on an explicit stack at any depth
    (:func:`_json_value`); like ``decode``, it has no BOM message."""
    value, i = _json_value(text, _skip(text, 0), _PAIRS.scan_once)
    i = _skip(text, i)
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return value


@cache
def _child_keys(arity: int) -> dict[str, int]:
    """The child keys "1".."arity" and the positions they name."""
    return {str(pos): pos for pos in range(1, arity + 1)}


def records_from_json_text(text: str, arity: int) -> list:
    """The (parent, position, label) records of the tree in JSON text form,
    breadth-first; ``[]`` for ``null``.

    This is :func:`_tree_records` of ``json.loads(text)``, so it reports
    the fault that :func:`tree_from_json` of that value meets first.  It
    walks the tuples of pairs that ``_PAIRS`` decodes with no Python call
    per object.  Text the C decoder cannot read (bad JSON, or too deep), or
    whose tree the walk refuses, is read again by :func:`_stack_loads`,
    and the walk of its dicts words the fault.
    """
    arity = _int_arg("arity", arity, error=TreeError)
    try:
        return _tree_records(_PAIRS.decode(text), arity, tuple)
    except (RecursionError, ValueError):
        pass
    try:
        obj = _stack_loads(text)
    except DuplicatePositionError:
        raise
    except ValueError as exc:
        raise TreeError(f"bad tree JSON: {exc}") from exc
    return _tree_records(obj, arity)


def tree_from_json_text(text: str, arity: int) -> PositionalTree | None:
    """Parse the JSON text form, rejecting duplicate position keys."""
    arity = _int_arg("arity", arity, error=TreeError)
    records = records_from_json_text(text, arity)
    return tree_from_records(arity, records) if records else None

"""The value semantics of the package's record types: repr text, equality,
hash, copy and pickle, construction, pattern matching and, on the frozen
ones, the refusal of every assignment and deletion."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from peakmod import (
    BallotDecomposition,
    FamilySpec,
    Histogram,
    LastStepDecomposition,
    LatticePath,
    NodeLabel,
    RightPeakDecomposition,
    StatVector,
    path_to_tree,
    solve_f,
)
from peakmod.core import DOWN, UP, Step, level
from peakmod.verify import VerifyReport

K1 = FamilySpec(1)
MOTZKIN = FamilySpec(1, {1: 1})
UD = LatticePath(K1, (UP, DOWN))
FLAT = LatticePath(MOTZKIN, (level(1, 1),))

K1_REPR = "FamilySpec(k=1, levels=(), end_height=0)"
MOTZKIN_REPR = "FamilySpec(k=1, levels=((1, 1),), end_height=0)"
U_REPR = "Step(kind='u', length=1, color=0)"
D_REPR = "Step(kind='d', length=1, color=0)"
L_REPR = "Step(kind='l', length=1, color=1)"
UD_REPR = (f"LatticePath(spec={K1_REPR}, steps=({U_REPR}, {D_REPR}), "
           f"start_height=0)")
FLAT_REPR = f"LatticePath(spec={MOTZKIN_REPR}, steps=({L_REPR},), " \
            f"start_height=0)"

# (class, fields in order, repr of the value they make)
VALUES = [
    (Step, {"kind": "l", "length": 2, "color": 1},
     "Step(kind='l', length=2, color=1)"),
    (FamilySpec, {"k": 2, "levels": ((1, 2), (3, 1)), "end_height": 1},
     "FamilySpec(k=2, levels=((1, 2), (3, 1)), end_height=1)"),
    (LatticePath, {"spec": K1, "steps": (UP, DOWN), "start_height": 1},
     f"LatticePath(spec={K1_REPR}, steps=({U_REPR}, {D_REPR}), "
     f"start_height=1)"),
    (NodeLabel, {"kind": "peak", "residue": 1, "ordinal": 2},
     "NodeLabel(kind='peak', residue=1, ordinal=2)"),
    (StatVector, {"k": 2, "variant": "plain", "pk": (1, 0), "dd": 3},
     "StatVector(k=2, variant='plain', pk=(1, 0), dd=3)"),
    (Histogram, {"variant": "weak", "k": 1, "counts": {(1, 0): 2},
                 "total": 2},
     "Histogram(variant='weak', k=1, counts={(1, 0): 2}, total=2)"),
    (RightPeakDecomposition, {"k": 1, "blocks": (UD,), "suffix_downs": 1},
     f"RightPeakDecomposition(k=1, blocks=({UD_REPR},), suffix_downs=1)"),
    (LastStepDecomposition, {"spec": MOTZKIN, "parts": (FLAT, FLAT),
                             "level_suffix": (level(1, 1),)},
     f"LastStepDecomposition(spec={MOTZKIN_REPR}, parts=({FLAT_REPR}, "
     f"{FLAT_REPR}), level_suffix=({L_REPR},))"),
    (BallotDecomposition, {"spec": FamilySpec(1, end_height=1),
                           "end_height": 1, "parts": (UD, UD)},
     f"BallotDecomposition(spec=FamilySpec(k=1, levels=(), end_height=1), "
     f"end_height=1, parts=({UD_REPR}, {UD_REPR}))"),
    (VerifyReport, {"suite": "figures", "params": {"n": 1}, "checks": 2,
                    "failures": [{"check": "x"}]},
     "VerifyReport(suite='figures', params={'n': 1}, checks=2, "
     "failures=[{'check': 'x'}])"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]
UNHASHABLE = (Histogram, VerifyReport)
FROZEN = [case for case in VALUES if case[0] is not VerifyReport]


def make(cls, fields):
    return cls(*fields.values())


def other(cls, fields):
    """A value of ``cls`` unequal to ``make(cls, fields)``."""
    if cls is Histogram:  # compared by counts and total alone
        return Histogram("weak", 1, {(1, 0): 3}, 3)
    if cls is LatticePath:
        return LatticePath(K1, (UP, DOWN), 2)
    if cls is FamilySpec:
        return FamilySpec(3)
    changed = dict(fields)
    name = next(iter(changed))
    changed[name] = {"kind": "r", "k": 3, "suite": "series",
                     "spec": FamilySpec(2)}[name]
    if cls is NodeLabel:
        changed.update(residue=None, ordinal=None)
    return make(cls, changed)


@pytest.mark.parametrize("cls,fields,text", VALUES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, cls, fields, text):
        assert repr(make(cls, fields)) == text

    def test_equality(self, cls, fields, text):
        value, same = make(cls, fields), make(cls, fields)
        assert value == same and not value != same
        unequal = other(cls, fields)
        assert value != unequal and not value == unequal
        # a value of another class, or the tuple of the fields, is unequal
        stranger = make(*VALUES[IDS.index(cls.__name__) - 1][:2])
        for x in (stranger, tuple(fields.values()), None):
            assert value != x and not value == x
            assert x != value and not x == value
        with pytest.raises(TypeError):
            value < same

    def test_hash(self, cls, fields, text):
        value, same = make(cls, fields), make(cls, fields)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(same)
            assert len({value, same, other(cls, fields)}) == 2

    def test_copies(self, cls, fields, text):
        value = make(cls, fields)
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol))
                   for protocol in range(2, 6)]
        for c in copies:
            assert c.__class__ is cls and c == value and repr(c) == text
        assert copies[1] is not value

    def test_construction(self, cls, fields, text):
        assert cls.__match_args__ == tuple(fields)
        value = cls(**fields)
        assert value == make(cls, fields) and repr(value) == text
        assert [getattr(value, name) for name in fields] == \
            [getattr(make(cls, fields), name) for name in fields]
        match value:
            case cls(a, b, c):
                assert (a, b, c) == tuple(getattr(value, name)
                                          for name in fields)[:3]
            case _:
                pytest.fail("no match by position")


@pytest.mark.parametrize("cls,fields,text", FROZEN, ids=IDS[:-1])
@pytest.mark.parametrize("name", ["field", "foo"])
def test_frozen(cls, fields, text, name):
    value = make(cls, fields)
    name = next(iter(fields)) if name == "field" else name
    with pytest.raises(FrozenInstanceError) as exc:
        setattr(value, name, 1)
    assert str(exc.value) == f"cannot assign to field {name!r}"
    with pytest.raises(FrozenInstanceError) as exc:
        delattr(value, name)
    assert str(exc.value) == f"cannot delete field {name!r}"
    assert value == make(cls, fields) and repr(value) == text


def test_another_type_is_unequal():
    # the tree and the series answer NotImplemented to a stranger, so the
    # comparison falls back to identity
    for value in (path_to_tree(UD), solve_f(1, 2)):
        assert value != 1 and not value == 1
        assert 1 != value and not 1 == value


class TestDefaults:
    def test_defaults(self):
        assert Step("u") == Step("u", 1, 0) == UP
        assert FamilySpec(2) == FamilySpec(2, (), 0)
        assert LatticePath(K1) == LatticePath(K1, (), 0)
        assert repr(NodeLabel("r")) == \
            "NodeLabel(kind='r', residue=None, ordinal=None)"

    def test_unknown_label_kind(self):
        with pytest.raises(ValueError) as exc:
            NodeLabel("x")
        assert str(exc.value) == "unknown label kind 'x'"

    def test_report_is_mutable(self):
        a, b = VerifyReport("figures", {}), VerifyReport("figures", {})
        assert a == b and a.checks == 0 and a.failures == []
        a.record("check", False)
        assert a.checks == 1 and len(a.failures) == 1 and b.failures == []
        a.checks = 5
        del a.params
        assert a.checks == 5 and not hasattr(a, "params")

    def test_histogram_equality_reads_counts_and_total(self):
        assert Histogram("weak", 1, {(1, 0): 2}, 2) == \
            Histogram("plain", None, {(1, 0): 2}, 2)

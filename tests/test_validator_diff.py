"""A differential check of the path validator.

``reference`` below is the step-by-step loop that validated every path
before the check in ``LatticePath.__init__`` became one loop: it reads each
step's kind and words every error.  On a few thousand seeded step
sequences over pure, ballot and level-bearing specs, the one loop must give
the same path or the same (error type, message).  The only inputs on which
they differ are those with a number that is no integer, listed in
``INTEGER_RULE``: the reference accepts them, the one loop does not.
"""

import random
from collections import Counter

import pytest

from peakmod.core import (
    DOWN,
    UP,
    FamilySpec,
    IllegalStepError,
    LatticePath,
    NegativeHeightError,
    PathError,
    Step,
    WrongEndHeightError,
    level,
)


def reference(spec, steps, start):
    """Validate as the former exact loop did; None for a valid path."""
    h = start
    if h < 0:
        raise NegativeHeightError(f"start height {h} is negative")
    k = spec.k
    want = h + spec.end_height
    for idx, s in enumerate(steps):
        kind = s.kind
        if kind == "u":
            h += 1
        elif kind == "d":
            h -= k
            if h < 0:
                raise NegativeHeightError(
                    f"height {h} after step {idx} is negative")
        elif kind != "l":
            raise IllegalStepError(f"unknown step kind {kind!r}")
        else:
            c = spec.color_count(s.length)
            if c == 0:
                raise IllegalStepError(
                    f"level run-length {s.length} not allowed by this family")
            if not 1 <= s.color <= c:
                raise IllegalStepError(
                    f"color {s.color} out of range 1..{c} "
                    f"for level run-length {s.length}")
    if h != want:
        raise WrongEndHeightError(f"path ends at height {h}, expected {want}")


def verdict(validate, spec, steps, start):
    """("ok", steps, start) for a valid path, else (error type, message)."""
    try:
        path = validate(spec, steps, start)
    except PathError as exc:
        return type(exc), str(exc)
    if path is None:  # the reference returns nothing
        return "ok", tuple(steps), start
    return "ok", path.steps, path.start_height


SPECS = (
    FamilySpec(1), FamilySpec(2), FamilySpec(3),
    FamilySpec(2, end_height=1), FamilySpec(1, end_height=3),
    FamilySpec(1, {1: 1}), FamilySpec(1, {1: 2, 2: 1}),
    FamilySpec(2, {1: 1}, end_height=2),
    # many colors: the validator checks a level step by its fields
    FamilySpec(2, {1: 70}, end_height=1),
    FamilySpec(1, {2: 1, 3: 100}),
)


def fresh(step):
    """An equal step that is not the shared object."""
    return Step(step.kind, step.length, step.color)


def draw_case(rng):
    """A spec, a start height and a step sequence: a random walk closed to
    the end height, then at most one fault."""
    spec = rng.choice(SPECS)
    k = spec.k
    start = rng.choice((0, 0, 0, 0, 1, 2, 3, -1))
    h = max(start, 0)
    colors = [(a, b) for a, c in spec.levels
              for b in sorted({1, c, min(c, 65)})]
    steps = []
    for _ in range(rng.randrange(12)):
        r = rng.random()
        if colors and r < 0.3:
            steps.append(level(*rng.choice(colors)))
        elif h >= k and r < 0.65:
            steps.append(DOWN)
            h -= k
        else:
            steps.append(UP)
            h += 1
    want = max(start, 0) + spec.end_height
    while h < want or (h - want) % k:
        steps.append(UP)
        h += 1
    steps += [DOWN] * ((h - want) // k)
    steps = [fresh(s) if rng.random() < 0.15 else s for s in steps]
    fault = rng.randrange(9)
    at = rng.randrange(len(steps) + 1)
    if fault == 0:
        steps.insert(at, rng.choice((DOWN, Step("d"))))
    elif fault == 1:
        steps.insert(rng.choice((0, len(steps))), DOWN)
    elif fault == 2:
        steps.insert(at, rng.choice((UP, Step("u"))))
    elif fault == 3:
        steps.insert(at, rng.choice((Step("x"), Step("x", 1, 1))))
    elif fault == 4:
        a, c = rng.choice(spec.levels) if spec.levels else (1, 0)
        bad = rng.choice((level(a, c + 1), Step("l", a, c + 1),
                          level(a + 5, 1), Step("l", 4, 1)))
        steps.insert(at, bad)
    elif fault == 5 and steps:
        del steps[rng.randrange(len(steps))]
    return spec, steps, start


# inputs the reference accepts and the one loop rejects: a number of the
# path that is no integer
INTEGER_RULE = [
    (FamilySpec(1, {1: 2}), [Step("l", 1, 1.5)], 0, IllegalStepError,
     "color 1.5 out of range 1..2 for level run-length 1"),
    (FamilySpec(1, {2: 3}), [UP, Step("l", 2, 2.25), DOWN], 0,
     IllegalStepError, "color 2.25 out of range 1..3 for level run-length 2"),
    (FamilySpec(2), [UP, UP, DOWN], 0.5, PathError,
     "start height 0.5 is not an integer"),
    (FamilySpec(1, end_height=1), [UP], 2.5, PathError,
     "start height 2.5 is not an integer"),
]


@pytest.mark.parametrize("spec, steps, start, error, message", INTEGER_RULE)
def test_integer_rule_is_the_one_difference(spec, steps, start, error,
                                            message):
    assert verdict(reference, spec, steps, start)[0] == "ok"
    assert verdict(LatticePath, spec, steps, start) == (error, message)


def test_matches_the_reference():
    rng = random.Random(18)
    outcomes = Counter()
    for _ in range(4000):
        spec, steps, start = draw_case(rng)
        want = verdict(reference, spec, steps, start)
        assert verdict(LatticePath, spec, steps, start) == want, \
            (spec, steps, start)
        if want[0] is NegativeHeightError and "after step" in want[1]:
            idx = int(want[1].split()[4])
            where = ("first" if idx == 0 else
                     "last" if idx == len(steps) - 1 else "middle")
            outcomes["dip at the " + where] += 1
        else:
            outcomes[want[0] if want[0] == "ok" else want[0].__name__] += 1
    # every kind of verdict is met many times over
    for kind in ("ok", "dip at the first", "dip at the middle",
                 "dip at the last", "IllegalStepError",
                 "WrongEndHeightError", "NegativeHeightError"):
        assert outcomes[kind] >= 40, outcomes

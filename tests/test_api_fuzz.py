"""A fuzzer of the library's integer arguments.

Every function and class exported from ``peakmod`` that takes an integer,
or a vector of integers, has a small valid call in ``TABLE`` below, with
the slots that hold its integers: ``("k",)`` for an argument, ``("r",)``
for a whole vector and ``("r", 0)`` for one of its entries.  Each draw
puts one hostile value in one slot.  The rule is the one of
``peakmod.core._int_arg``:

  * 1.5, "1", None and [1] are no integers, and -1 is below every slot's
    lower bound: the call raises ValueError or one of its subclasses
    (``PathError``, ``TreeError``, ``BadPermutationError``), never
    returns;
  * True and 2.0 are read as 1 and 2: the call gives what it gives with
    those ints, the same value or an error of the same type;
  * None, where a parameter's default is None, is that default;
  * a whole vector replaced by any of these values is no vector, and
    the call raises ValueError;
  * nothing raises TypeError, AttributeError, IndexError, KeyError or
    RecursionError.

Every generator is consumed, and every family is small, whatever an
integral value makes of it.  The draws are derandomized and the example
database is off, so each run makes the same draws.
"""

import functools
import inspect
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peakmod
from peakmod import (
    DOWN,
    UP,
    BadPermutationError,
    FamilySpec,
    LatticePath,
    NodeLabel,
    PositionalTree,
    TreeError,
    TruncSeries,
    ballot_decompose,
    count_ballot_joint,
    count_joint,
    count_marginal,
    count_pk,
    cyclic_shift,
    e_vector,
    family_histogram,
    fuss_catalan,
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    gen_trees,
    histogram_from_keys,
    lagrange_coefficient,
    lift,
    narayana,
    parse_path,
    permute_statistics,
    permute_subtrees,
    solve_f,
    solve_f_kac,
    solve_g,
    solve_g_kac,
    tree_from_json,
    tree_from_json_text,
    tree_to_path,
    validate,
)
from peakmod.core import check_permutation, tree_from_json_text
from peakmod.enumeration import k_dyck_family
from peakmod.verify import SUITES

MOTZKIN = FamilySpec(1, {1: 1})
K1 = FamilySpec(1)
DYCK = parse_path("uudd", K1)
LEAF = PositionalTree(2)
TREE = PositionalTree(2, [(1, LEAF)])

NON_INTEGERS = (1.5, "1", None, [1])
INTEGRAL = (True, 2.0)
HOSTILE = NON_INTEGERS + (-1,) + INTEGRAL
FORBIDDEN = (TypeError, AttributeError, IndexError, KeyError, RecursionError)


def _listed(gen):
    """``gen`` with its generator consumed into a list."""
    @functools.wraps(gen)
    def listed(**args):
        return list(gen(**args))
    return listed


# name -> (call, keyword arguments of a valid call, integer slots)
TABLE = {
    "FamilySpec": (FamilySpec, dict(k=2, levels=[(1, 2)], end_height=1),
                   [("k",), ("end_height",), ("levels",), ("levels", 0, 0),
                    ("levels", 0, 1)]),
    "LatticePath": (LatticePath, dict(spec=K1, steps=(UP, DOWN),
                                      start_height=0), [("start_height",)]),
    "validate": (validate, dict(spec=K1, steps=(UP, DOWN), start_height=0),
                 [("start_height",)]),
    "parse_path": (parse_path, dict(text="ud", spec=K1, start_height=0),
                   [("start_height",)]),
    "NodeLabel": (NodeLabel, dict(kind="peak", residue=1, ordinal=2),
                  [("residue",), ("ordinal",)]),
    "PositionalTree": (PositionalTree, dict(arity=2, children=[(1, LEAF)]),
                       [("arity",), ("children", 0, 0)]),
    "tree_from_json": (tree_from_json, dict(obj={"1": {}}, arity=2),
                       [("arity",)]),
    "tree_from_json_text": (tree_from_json_text,
                            dict(text='{"1":{}}', arity=2), [("arity",)]),
    "e_vector": (e_vector, dict(tree=TREE, arity=2), [("arity",)]),
    "lift": (lift, dict(path=DYCK, amount=1), [("amount",)]),
    "cyclic_shift": (cyclic_shift, dict(path=parse_path("uuduud",
                                                        FamilySpec(2)),
                                        power=1), [("power",)]),
    "ballot_decompose": (ballot_decompose,
                         dict(path=parse_path("uud", FamilySpec(1, (), 1)),
                              m=1), [("m",)]),
    "permute_subtrees": (permute_subtrees, dict(tree=TREE, sigma=[2, 1]),
                         [("sigma",), ("sigma", 0)]),
    "permute_statistics": (permute_statistics, dict(path=DYCK, sigma=[2, 1]),
                           [("sigma",), ("sigma", 0)]),
    "check_permutation": (check_permutation, dict(sigma=[2, 1], m=2),
                          [("sigma",), ("sigma", 0)]),
    "tree_to_path": (tree_to_path, dict(tree=TREE, k=1), [("k",)]),
    "gen_k_dyck": (_listed(gen_k_dyck), dict(k=1, n=2, max_objects=100),
                   [("k",), ("n",), ("max_objects",)]),
    "gen_ballot": (_listed(gen_ballot), dict(k=1, m=1, n=1, max_objects=100),
                   [("k",), ("m",), ("n",), ("max_objects",)]),
    "gen_kac": (_listed(gen_kac), dict(spec=MOTZKIN, length=3,
                                       max_objects=100),
                [("length",), ("max_objects",)]),
    "gen_trees": (_listed(gen_trees), dict(arity=2, n=2, max_objects=100),
                  [("arity",), ("n",), ("max_objects",)]),
    "family_histogram": (family_histogram,
                         dict(spec=MOTZKIN, length=3, variant="weak",
                              max_objects=100),
                         [("length",), ("max_objects",)]),
    "histogram_from_keys": (histogram_from_keys,
                            dict(keys=[(1, 0)], variant="plain", k=1),
                            [("k",)]),
    "fuss_catalan": (fuss_catalan, dict(k=2, n=3), [("k",), ("n",)]),
    "count_joint": (count_joint, dict(k=1, n=3, r=[1, 1]),
                    [("k",), ("n",), ("r",), ("r", 0)]),
    "count_marginal": (count_marginal, dict(k=2, n=3, r=1),
                       [("k",), ("n",), ("r",)]),
    "count_pk": (count_pk, dict(k=2, n=3, r=1), [("k",), ("n",), ("r",)]),
    "narayana": (narayana, dict(n=4, r=2), [("n",), ("r",)]),
    "count_ballot_joint": (count_ballot_joint,
                           dict(k=2, ell=0, r=1, n=2, s=[1, 1, 0]),
                           [("k",), ("ell",), ("r",), ("n",), ("s",),
                            ("s", 0)]),
    "lagrange_coefficient": (lagrange_coefficient, dict(k=1, n=3, r=[1, 1]),
                             [("k",), ("n",), ("r",), ("r", 0)]),
    "solve_f": (solve_f, dict(k=1, order=3), [("k",), ("order",)]),
    "solve_f_kac": (solve_f_kac, dict(spec=MOTZKIN, order=3), [("order",)]),
    "solve_g": (solve_g, dict(k=2, m=1, order=3),
                [("k",), ("m",), ("order",)]),
    "solve_g_kac": (solve_g_kac, dict(spec=MOTZKIN, m=1, order=3),
                    [("m",), ("order",)]),
    "TruncSeries": (TruncSeries, dict(order=1, nmarkers=1, coeffs=[{}, {}]),
                    [("order",), ("nmarkers",)]),
}

# exported callables whose integers are no arguments the library reads
NOT_READ = {
    "Step": "a step is checked by LatticePath (IllegalStepError)",
    "level": "a step is checked by LatticePath (IllegalStepError)",
    "StatVector": "a record of computed values, kept as given",
    "Histogram": "a record of computed values, kept as given",
    "RightPeakDecomposition": "a record of computed values, kept as given",
    "BallotDecomposition": "a record of computed values, kept as given",
}
# integer parameters of table entries that are no argument the library reads
NOT_READ_PARAMETERS = {("histogram_from_keys", "keys"):
                       "statistic tuples, tallied as given"}


def with_value(args, slot, value):
    """``args`` with ``value`` at ``slot``, each vector on the way copied
    as a list."""
    args = dict(args)
    name, *path = slot
    if not path:
        args[name] = value
        return args
    outer = inner = [list(x) if isinstance(x, tuple) else x
                     for x in args[name]]
    for i in path[:-1]:
        inner[i] = list(inner[i])
        inner = inner[i]
    inner[path[-1]] = value
    args[name] = outer
    return args


def outcome(call, args):
    """("value", result) or ("error", type) of ``call(**args)``; a
    forbidden error fails the test at once."""
    try:
        return ("value", call(**args))
    except FORBIDDEN as exc:
        pytest.fail(f"{type(exc).__name__}: {exc} from {args}")
    except Exception as exc:
        return ("error", type(exc))


def optional(call, param):
    """Whether ``param`` of ``call`` defaults to None."""
    return inspect.signature(call).parameters[param].default is None


def check(name, slot, value):
    call, base, _ = TABLE[name]
    got = outcome(call, with_value(base, slot, value))
    if value is None and len(slot) == 1 and optional(call, slot[0]):
        return
    vector = len(slot) == 1 and isinstance(base[slot[0]], list)
    if value.__class__ in (bool, float) and value == int(value) \
            and not vector:
        want = outcome(call, with_value(base, slot, int(value)))
        assert got == want, (name, slot, value)
    else:
        assert got[0] == "error" and issubclass(got[1], ValueError), \
            (name, slot, value, got)


def public_callables():
    """(name, object) of every callable ``peakmod`` exports that is no
    exception class."""
    for name in dir(peakmod):
        obj = getattr(peakmod, name)
        if name.startswith("_") or not callable(obj) or \
                (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        yield name, obj


def integer_parameters(obj):
    return [p.name for p in inspect.signature(obj).parameters.values()
            if re.search(r"\bint\b", str(p.annotation))]


def test_every_integer_parameter_has_a_slot():
    for name, obj in public_callables():
        params = integer_parameters(obj)
        if not params or name in NOT_READ:
            continue
        assert name in TABLE, f"{name} takes {params} and has no table entry"
        slotted = {slot[0] for slot in TABLE[name][2]}
        for param in params:
            assert param in slotted or (name, param) in NOT_READ_PARAMETERS, \
                f"{name}({param}) has no slot"


@pytest.mark.parametrize("name", sorted(TABLE))
def test_the_valid_call_returns(name):
    call, base, _ = TABLE[name]
    assert outcome(call, base)[0] == "value"


@pytest.mark.parametrize("name", sorted(TABLE))
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_hostile_integers(name, data):
    slot = data.draw(st.sampled_from(TABLE[name][2]), label="slot")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    check(name, slot, value)


@pytest.mark.parametrize("name, slot, value", [
    ("gen_trees", ("n",), 2.5),
    ("cyclic_shift", ("power",), 1.5),
    ("solve_f", ("order",), 2.5),
    ("solve_f", ("order",), "3"),
    ("gen_k_dyck", ("n",), 2.0),
    ("count_marginal", ("n",), 3.0),
    ("narayana", ("n",), 3.5),
    ("fuss_catalan", ("n",), "3"),
    ("lift", ("amount",), "1"),
    ("count_joint", ("r",), None),
    ("gen_k_dyck", ("max_objects",), 2.5),
    ("gen_k_dyck", ("max_objects",), "3"),
    ("FamilySpec", ("levels",), "1:1"),
    ("FamilySpec", ("levels",), 5),
    ("FamilySpec", ("levels",), [1]),
    ("permute_subtrees", ("sigma",), None),
])
def test_known_probes(name, slot, value):
    # calls that once raised TypeError, or returned for a non-integral
    # size; the draws above cannot promise to reach every one
    check(name, slot, value)


@pytest.mark.parametrize("name, slot, param", [
    ("gen_trees", ("n",), "n"),
    ("solve_f", ("order",), "order"),
    ("narayana", ("n",), "n"),
    ("count_joint", ("r",), "r"),
    ("gen_k_dyck", ("max_objects",), "max_objects"),
    ("FamilySpec", ("levels",), "levels"),
])
def test_the_error_names_the_parameter(name, slot, param):
    call, base, _ = TABLE[name]
    for value in ("1:1", 2.5):
        with pytest.raises(ValueError) as err:
            call(**with_value(base, slot, value))
        assert re.search(rf"\b{param}\b", str(err.value)), str(err.value)


def test_tree_arguments_raise_tree_errors():
    with pytest.raises(TreeError, match="^arity must be >= 1, got 0$"):
        e_vector(None, 0)
    with pytest.raises(TreeError, match="^k must be >= 1, got 0$"):
        tree_to_path(None, 0)
    with pytest.raises(BadPermutationError, match="^None is not"):
        check_permutation(None, 2)


def test_a_k_past_an_index_is_refused():
    # k + 1 markers, or (k + 1) * n steps, could not be listed
    with pytest.raises(ValueError, match=r"^k must be < \d+, got 10{40}$"):
        solve_f(10 ** 40, 3)
    tree = tree_from_json_text("{}", 10 ** 40 + 1)
    with pytest.raises(TreeError, match=r"^k must be < \d+ .*, got 10{40}$"):
        tree_to_path(tree, 10 ** 40)


def test_a_length_past_an_index_is_refused():
    # no list could hold the steps of such a path: the walk would never
    # reach its first path, so the object cap could never act
    with pytest.raises(ValueError,
                       match=r"^path length must be <= \d+, got 10{40}$"):
        list(gen_kac(FamilySpec(1), 10 ** 40))
    # a k-Dyck family of down-size 1 has length k + 1
    for variant in ("plain", "plain_starred"):
        with pytest.raises(ValueError,
                           match=r"^path length must be <= \d+, got 10{39}1$"):
            family_histogram(*k_dyck_family(10 ** 40, 1), variant)


@pytest.mark.parametrize("variant", ["plain", "weak_starred"])
def test_a_family_histogram_keys_ints(variant):
    # a length of 4.0 is read as 4, so no key is counted in floats
    got = family_histogram(MOTZKIN, 4.0, variant)
    assert got == family_histogram(MOTZKIN, 4, variant)
    assert {x.__class__ for key in got.counts for x in key} == {int}


def _least(param):
    """The lower bound of a verify suite's integer parameter."""
    return 1 if param in ("k", "max_k") else 0


SUITE_PARAMS = [(suite, param) for suite, run in sorted(SUITES.items())
                for param in inspect.signature(run).parameters]


@pytest.mark.parametrize("suite, param, value", [
    (suite, param, value) for suite, param in SUITE_PARAMS
    for value in (2.5, "3", -1, 0) if value != 0 or _least(param) == 1])
def test_a_verify_bound_is_read_as_an_integer(suite, param, value):
    with pytest.raises(ValueError, match=f"^{param} must be "):
        SUITES[suite](**{param: value})


@pytest.mark.parametrize("suite, param", SUITE_PARAMS)
def test_a_verify_bound_reads_true_and_4_0_as_ints(suite, param):
    # the other bounds at their least keep each run small
    run = SUITES[suite]
    least = {p: _least(p) for p in inspect.signature(run).parameters}
    for value, want in ((True, 1), (4.0, 4)):
        report = run(**{**least, param: value})
        assert report.params == {**least, param: want}
        assert report.params[param].__class__ is int
        assert report.to_json() == run(**{**least, param: want}).to_json()

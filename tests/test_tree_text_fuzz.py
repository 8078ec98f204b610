"""Drawn tree texts: the tree reader reads as json's C decoder and a walk
of its dicts do.

``records_from_json_text`` walks the C decoder's tuples of pairs and reads
any text that this refuses again on an explicit stack, walking its dicts.
The reference here decodes with the C decoder itself, to dicts, and takes
the explicit stack only past the decoder's depth, so the shallow faulty
texts also check the stack's words against the decoder's.

Each draw writes a tree of arity 2-4, from ``gen_trees`` or
``path_to_labeled_tree``, as JSON text with its keys shuffled, whitespace
between tokens, and some keys written as ``"01"`` or with an escape.  It
may then corrupt the text: a repeated key, a second label, an array,
number, string or null as a node, a bad or non-string label, extra data,
truncation, a leading byte order mark, or nesting past 1,000 levels.  The
reader must give what the reference gives: the same records, or an
exception of the same type with the same message.

The draws are derandomized and the example database is off, so each run
makes the same draws.
"""

import json
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from peakmod import FamilySpec, NodeLabel, parse_path, path_to_labeled_tree
from peakmod import core
from peakmod.core import (
    DuplicatePositionError,
    TreeError,
    records_from_json_text,
    tree_to_json,
)
from peakmod.enumeration import gen_trees

from conftest import uniform_path

CORRUPTIONS = ("repeated key", "second label", "not an object", "bad label",
               "extra data", "truncation", "byte order mark", "deep")
NOT_OBJECTS = ("[]", "[{}]", "0", "1.5", "-2e3", "null", "true", '"x"')
BAD_LABELS = ('"x"', '"p0"', '"dd_"', '"p1_\\u00b2"', '"r0"', '"P0_1"',
              "5", "null", "[]", "{}", '["r"]')
SPACES = ("", "", "", " ", "\n", "\t", " \r\n  ")


# the reference decoder: json's C decoder, a key given twice in one object
# raising when the object closes
DECODER = json.JSONDecoder(object_pairs_hook=core._unique_keys)


def loads(text):
    """The value of ``text`` by ``DECODER``, or past its depth by the
    explicit stack."""
    try:
        return DECODER.decode(text)
    except RecursionError:
        return core._stack_loads(text)


def checked(text, arity):
    """The text decoded to dicts and walked by ``_tree_records``, worded
    as ``records_from_json_text``."""
    try:
        obj = loads(text)
    except DuplicatePositionError:
        raise
    except ValueError as exc:
        raise TreeError(f"bad tree JSON: {exc}") from exc
    return core._tree_records(obj, arity)


def outcome(read, text, arity):
    try:
        return read(text, arity)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@cache
def small_trees(arity):
    return [tree for n in range(6 if arity < 4 else 5)
            for tree in gen_trees(arity, n)]


def pairs(obj):
    """A tree in nested-object form as (key, value) pair lists, each value
    a pair list or the JSON text of a label."""
    return [(key, pairs(value) if isinstance(value, dict)
             else json.dumps(value)) for key, value in obj.items()]


def nodes(node):
    yield node
    for _, value in node:
        if isinstance(value, list):
            yield from nodes(value)


def write(node, rnd):
    """The JSON text of pair lists, keys shuffled and spaced at random; a
    position key may be written "0"-padded or with an escaped digit."""
    items = list(node)
    rnd.shuffle(items)
    out = []
    for key, value in items:
        if key != "label" and rnd.random() < 0.1:
            key = "0" + key
        text = json.dumps(key)
        if key != "label" and rnd.random() < 0.05:
            text = '"\\u%04x%s' % (ord(key[0]), text[2:])
        body = value if isinstance(value, str) else write(value, rnd)
        out.append(f"{rnd.choice(SPACES)}{text}{rnd.choice(SPACES)}:"
                   f"{rnd.choice(SPACES)}{body}{rnd.choice(SPACES)}")
    return "{" + ",".join(out) + rnd.choice(SPACES) + "}"


def corrupt(root, kind, rnd):
    """Corrupt one drawn node of the pair lists in place."""
    node = rnd.choice(list(nodes(root)))
    if kind == "repeated key":
        if node:
            key, value = rnd.choice(node)
            node.insert(rnd.randrange(len(node) + 1),
                        (key, rnd.choice((value, []))))
    elif kind == "second label":
        node.append(("label", '"r"'))
        node.insert(rnd.randrange(len(node)), ("label", '"dd_1"'))
    elif kind == "not an object":
        children = [i for i, (key, _) in enumerate(node) if key != "label"]
        if children:
            i = rnd.choice(children)
            node[i] = (node[i][0], rnd.choice(NOT_OBJECTS))
    elif kind == "bad label":
        node[:] = [pair for pair in node if pair[0] != "label"]
        node.insert(rnd.randrange(len(node) + 1),
                    ("label", rnd.choice(BAD_LABELS)))


@st.composite
def tree_texts(draw):
    """(text, arity, corruptions) of a drawn tree."""
    rnd = draw(st.randoms(use_true_random=False))
    arity = draw(st.integers(2, 4))
    if draw(st.booleans()):
        tree = rnd.choice(small_trees(arity))
    else:
        k = arity - 1
        n = draw(st.integers(1, 8))
        tree = path_to_labeled_tree(
            parse_path(uniform_path(rnd, k, n), FamilySpec(k)))
    kinds = draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=2))
    obj = tree_to_json(tree)
    if obj is None:
        text = rnd.choice(("null", " null\n"))
    else:
        root = pairs(obj)
        for kind in kinds:
            corrupt(root, kind, rnd)
        text = write(root, rnd)
    if "extra data" in kinds:
        text += rnd.choice((" {}", "x", "]", "}", ",{}", " null"))
    if "truncation" in kinds:
        text = text[:rnd.randrange(len(text))]
    if "deep" in kinds:
        depth = draw(st.integers(1001, 4000))
        text = '{"1":' * depth + text + "}" * depth
    if "byte order mark" in kinds:
        text = "\ufeff" + text
    read_arity = draw(st.sampled_from((arity, arity, arity, arity - 1,
                                       arity + 1, 0, 12)))
    return text, read_arity, arity, kinds


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(tree_texts())
def test_both_routes_read_alike(case):
    text, read_arity, arity, kinds = case
    got = outcome(records_from_json_text, text, read_arity)
    assert got == outcome(checked, text, read_arity)
    if isinstance(got, list):
        assert all(label is None or type(label) is NodeLabel
                   for _, _, label in got)
        if not kinds and read_arity == arity:
            assert got == core._tree_records(json.loads(text), arity)
    elif not kinds and read_arity >= arity:
        raise AssertionError(f"a sound text was refused: {got}")

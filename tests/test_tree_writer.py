"""The tree-text writer on records in every order the package makes.

``tree_to_json_text`` writes records that come in text order (each node,
then its children's subtrees in the order ``json.dumps`` sorts their keys)
in one pass, and first puts records of any other order into text order.
Each draw makes a tree of arity 2-12 by one of the package's routes, whose
records come breadth-first, in text order or shuffled, and its text must
be ``json.dumps`` of ``tree_to_json``, which reads the canonical records.

The draws are derandomized and the example database is off, so each run
makes the same draws.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakmod import (
    FamilySpec,
    PositionalTree,
    gen_trees,
    parse_path,
    path_to_labeled_tree,
    path_to_tree,
    permute_subtrees,
    tree_to_json,
    tree_to_json_text,
)
from peakmod import core
from peakmod.bijections import _records
from peakmod.core import records_from_json_text, tree_from_records

from conftest import uniform_path


def dumps(tree):
    return json.dumps(tree_to_json(tree), sort_keys=True,
                      separators=(",", ":"))


def constructed(tree):
    """The tree built bottom-up by the checking constructor, which lists
    its records breadth-first."""
    records = tree.records()
    kids = [[] for _ in records]
    for idx in range(len(records) - 1, 0, -1):
        parent, pos, label = records[idx]
        kids[parent].append((pos, PositionalTree(tree.arity, kids[idx],
                                                 label)))
    return PositionalTree(tree.arity, kids[0], records[0][2])


def shuffled(tree, rng):
    """The tree given by its records in a random order, each parent still
    before its children."""
    records = tree._flat
    kids = [[] for _ in records]
    for idx, (parent, _, _) in enumerate(records[1:], 1):
        kids[parent].append(idx)
    order, ready = [], [0]
    while ready:
        order.append(ready.pop(rng.randrange(len(ready))))
        ready += kids[order[-1]]
    new = {old: i for i, old in enumerate(order)}
    return tree_from_records(tree.arity, [
        (new.get(parent, -1), pos, label)
        for parent, pos, label in map(records.__getitem__, order)])


ROUTES = ("path_to_tree", "path_to_labeled_tree", "records_from_json_text",
          "gen_trees", "permute_subtrees", "strip_labels", "constructor",
          "shuffled")


@pytest.mark.parametrize("route", ROUTES)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 11), st.integers(1, 40),
       st.randoms(use_true_random=False))
def test_the_text_is_json_dumps_on_every_order(route, k, n, rng):
    path = parse_path(uniform_path(rng, k, n), FamilySpec(k))
    labeled = route == "path_to_labeled_tree" or (
        route != "path_to_tree" and rng.random() < 0.5)
    tree = path_to_labeled_tree(path) if labeled else path_to_tree(path)
    if route == "records_from_json_text":
        tree = tree_from_records(k + 1, records_from_json_text(
            json.dumps(tree_to_json(tree)), k + 1))
    elif route == "gen_trees":
        tree = rng.choice(list(gen_trees(k % 3 + 2, n % 5 + 1)))
    elif route == "permute_subtrees":
        sigma = list(range(1, k + 2))
        rng.shuffle(sigma)
        tree = permute_subtrees(tree, sigma)
    elif route == "strip_labels":
        tree = tree.strip_labels()
    elif route == "constructor":
        tree = constructed(tree)
    elif route == "shuffled":
        tree = shuffled(tree, rng)
    assert tree_to_json_text(tree) == dumps(tree)


def test_records_come_in_text_order():
    for k in range(1, 13):
        rng = random.Random(f"records in text order:{k}")
        for n in (1, 2, 3, 10, 60):
            path = parse_path(uniform_path(rng, k, n), FamilySpec(k))
            records = _records(path, None)
            rank = core._arity_tokens(k + 1)[0]
            assert core._text_order(records, rank) == records

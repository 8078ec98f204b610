"""``peakmod map`` on tree records, checked against the public compositions.

``map psi`` (with and without ``--labels``), ``map psi-inv`` and ``map
permute --tree`` read and write tree JSON straight from records and build
no tree node.  Their stdout, stderr and exit code must be
those of the compositions over trees: ``tree_to_json_text(path_to_tree(p))``,
``render_path(tree_to_path(tree_from_json_text(t, k + 1), k))`` and
``tree_to_json_text(permute_subtrees(...))``.  Where a reference can
avoid the record reader and writer altogether, it does: ``json.dumps`` of
``tree_to_json`` and ``tree_from_json`` of ``json.loads``.
"""

import json
import random

import pytest

from peakmod import (
    FamilySpec,
    NodeLabel,
    PositionalTree,
    TreeError,
    gen_k_dyck,
    parse_path,
    path_to_labeled_tree,
    path_to_tree,
    permute_subtrees,
    render_path,
    tree_from_json,
    tree_from_json_text,
    tree_to_json,
    tree_to_json_text,
    tree_to_path,
)
from peakmod import core
from peakmod.cli import main
from peakmod.core import records_from_json_text

from conftest import uniform_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def dumps(tree):
    """The sorted compact JSON of a tree, by the json module."""
    return json.dumps(tree_to_json(tree), sort_keys=True,
                      separators=(",", ":"))


SIZES = (0, 1, 2, 3, 5, 17, 60, 200)


class TestSeededInputs:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_psi_matches_the_tree_compositions(self, capsys, k):
        rng = random.Random(f"map psi:{k}")
        for n in SIZES:
            path = parse_path(uniform_path(rng, k, n), FamilySpec(k))
            text = render_path(path)
            tree = path_to_tree(path)
            want = tree_to_json_text(tree)
            assert want == dumps(tree)
            assert run(capsys, "map", "psi", "--k", str(k), "--path",
                       text) == (0, want + "\n", "")
            labeled = path_to_labeled_tree(path) if n else None
            want = tree_to_json_text(labeled)
            assert want == dumps(labeled)
            assert run(capsys, "map", "psi", "--labels", "--k", str(k),
                       "--path", text) == (0, want + "\n", "")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_psi_inv_matches_the_tree_compositions(self, capsys, k):
        rng = random.Random(f"map psi-inv:{k}")
        for n in SIZES:
            tree = path_to_tree(parse_path(uniform_path(rng, k, n),
                                           FamilySpec(k)))
            if n and rng.random() < 0.5:  # labels are read, then dropped
                tree = path_to_labeled_tree(tree_to_path(tree, k))
            for text in (tree_to_json_text(tree),
                         json.dumps(tree_to_json(tree), indent=1)):
                want = render_path(tree_to_path(
                    tree_from_json(json.loads(text), k + 1), k))
                assert want == render_path(tree_to_path(
                    tree_from_json_text(text, k + 1), k))
                assert run(capsys, "map", "psi-inv", "--k", str(k),
                           "--tree", text) == (0, want + "\n", "")

    @pytest.mark.parametrize("labels", [False, True])
    def test_permute_tree_at_arity_12(self, capsys, labels):
        # keys sort as strings there: "10" < "11" < "12" < "2"
        rng = random.Random(f"map permute --tree:{labels}")
        spec = FamilySpec(11)
        for n in SIZES[1:7]:
            path = parse_path(uniform_path(rng, 11, n), spec)
            tree = path_to_labeled_tree(path) if labels \
                else path_to_tree(path)
            sigma = list(range(1, 13))
            rng.shuffle(sigma)
            text = tree_to_json_text(tree)
            moved = permute_subtrees(tree_from_json(json.loads(text), 12),
                                     sigma)
            want = dumps(moved)
            assert want == tree_to_json_text(moved)
            assert run(capsys, "map", "permute", "--tree", text, "--sigma",
                       ",".join(map(str, sigma))) == (0, want + "\n", "")


class TestDeepChains:
    """k = 1 chains 3,000 deep, at the interpreter's default recursion
    limit: the references are written out, since json.dumps and
    json.loads recurse."""

    DEPTH = 3000

    def test_psi_and_back(self, capsys):
        path = "u" * self.DEPTH + "d" * self.DEPTH
        tree = '{"2":' * (self.DEPTH - 1) + "{}" + "}" * (self.DEPTH - 1)
        assert run(capsys, "map", "psi", "--k", "1", "--path",
                   path) == (0, tree + "\n", "")
        assert run(capsys, "map", "psi-inv", "--k", "1", "--tree",
                   tree) == (0, path + "\n", "")
        moved = tree.replace('"2"', '"1"')
        assert run(capsys, "map", "permute", "--tree", tree, "--sigma",
                   "2,1") == (0, moved + "\n", "")

    def test_labeled_psi(self, capsys):
        path = parse_path("u" * self.DEPTH + "d" * self.DEPTH, FamilySpec(1))
        want = tree_to_json_text(path_to_labeled_tree(path))
        assert want.count('"label"') == self.DEPTH
        assert run(capsys, "map", "psi", "--labels", "--k", "1", "--path",
                   render_path(path)) == (0, want + "\n", "")


class TestPsiRoute:
    """``map psi`` writes records it builds in text order, with each label
    as its wire text; its stdout must be the library's tree text."""

    def check(self, capsys, path):
        argv = ("map", "psi", "--k", str(path.spec.k), "--path",
                render_path(path))
        want = tree_to_json_text(path_to_tree(path))
        assert run(capsys, *argv) == (0, want + "\n", "")
        want = tree_to_json_text(path_to_labeled_tree(path)
                                 if path.steps else None)
        assert run(capsys, *argv, "--labels") == (0, want + "\n", "")

    @pytest.mark.parametrize("k, max_n", [(1, 8), (2, 6), (3, 6)])
    def test_every_small_path(self, capsys, k, max_n):
        for n in range(max_n + 1):
            for path in gen_k_dyck(k, n):
                self.check(capsys, path)

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 10, 11, 12])
    def test_seeded_paths(self, capsys, k):
        # from k = 9 on, keys sort as strings: "10" < "2"
        rng = random.Random(f"map psi route:{k}")
        for n in (500,) * 3 if k <= 3 else (1, 2, 7, 40, 200):
            self.check(capsys, parse_path(uniform_path(rng, k, n),
                                          FamilySpec(k)))

    def test_a_hundred_thousand_deep_chain(self, capsys):
        self.check(capsys, parse_path("u" * 10**5 + "d" * 10**5,
                                      FamilySpec(1)))

    def test_the_empty_path_prints_null(self, capsys):
        for labels in ((), ("--labels",)):
            assert run(capsys, "map", "psi", "--k", "2", "--path", "",
                       *labels) == (0, "null\n", "")


# (map arguments, exit code, stdout, stderr), each as the program gave it
# while map still built a PositionalTree on every route
HOSTILE = [
    (("psi-inv", "--k", "2", "--tree", '{"1":{},"1":{}}'),
     2, "", "peakmod: duplicate key among ['1', '1']\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{"2":{},"2":{}},"1":{}}'),
     2, "", "peakmod: duplicate key among ['2', '2']\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":"r","label":"r"}'),
     2, "", "peakmod: duplicate key among ['label', 'label']\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{},"01":{}}'),
     2, "", "peakmod: duplicate child position 1\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{},"2":{},"02":{}}'),
     2, "", "peakmod: duplicate child position 2\n"),
    (("psi-inv", "--k", "2", "--tree",
      '{"1":{"2":{},"02":{}},"3":{"1":{},"01":{}}}'),
     2, "", "peakmod: duplicate child position 1\n"),
    (("psi-inv", "--k", "2", "--tree",
      '{"1":{"1":{"3":{},"03":{}}},"2":{},"02":{}}'),
     2, "", "peakmod: duplicate child position 3\n"),
    (("psi-inv", "--k", "2", "--tree",
      '{"1":{"1":{"2":{},"02":{}}},"2":{"3":{},"03":{}}}'),
     2, "", "peakmod: duplicate child position 2\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{"1":{},"01":{}},"x":{}}'),
     2, "", "peakmod: bad child position key 'x'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"4":{}}'),
     2, "", "peakmod: child position 4 outside 1..3\n"),
    (("psi-inv", "--k", "2", "--tree", '{"0":{}}'),
     2, "", "peakmod: child position 0 outside 1..3\n"),
    (("psi-inv", "--k", "2", "--tree", '{"x":{}}'),
     2, "", "peakmod: bad child position key 'x'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"-1":{}}'),
     2, "", "peakmod: bad child position key '-1'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{"x":{}},"2":5}'),
     2, "", "peakmod: bad child position key 'x'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":5,"2":{"x":{}}}'),
     2, "", "peakmod: expected an object, got int\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":5,"label":7}'),
     2, "", "peakmod: node label must be a string, got 7\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":null}'),
     2, "", "peakmod: expected an object, got NoneType\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":[]}'),
     2, "", "peakmod: expected an object, got list\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":"a"}'),
     2, "", "peakmod: expected an object, got str\n"),
    (("psi-inv", "--k", "2", "--tree", "[]"),
     2, "", "peakmod: expected an object, got list\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":5}'),
     2, "", "peakmod: node label must be a string, got 5\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":["r"]}'),
     2, "", "peakmod: node label must be a string, got ['r']\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":"dd_"}'),
     2, "", "peakmod: unrecognized node label 'dd_'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":"r"} {}'),
     2, "", "peakmod: bad tree JSON: Extra data: line 1 column 15 "
            "(char 14)\n"),
    (("psi-inv", "--k", "2", "--tree", '{"x":{}} x'),
     2, "", "peakmod: bad tree JSON: Extra data: line 1 column 10 "
            "(char 9)\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1": {},}'),
     2, "", "peakmod: bad tree JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 10 (char 9)\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{}'),
     2, "", "peakmod: bad tree JSON: Expecting ',' delimiter: line 1 "
            "column 8 (char 7)\n"),
    (("psi-inv", "--k", "2", "--tree", ""),
     2, "", "peakmod: bad tree JSON: Expecting value: line 1 column 1 "
            "(char 0)\n"),
    (("psi-inv", "--k", "2", "--tree",
      ' \n{ "3" : { } ,\t"label" : "r" , "1":{}}\r\n'),
     0, "uuduuuudd\n", ""),
    (("psi-inv", "--k", "2", "--tree", '{"\\u0033":{},"label":"\\u0072"}'),
     0, "uuuudd\n", ""),
    (("psi-inv", "--k", "2", "--tree", " null "), 0, "\n", ""),
    (("psi-inv", "--k", "0", "--tree", "{}"),
     2, "", "peakmod: k must be >= 1, got 0\n"),
    (("psi-inv", "--k", "-1", "--tree", "{}"),
     2, "", "peakmod: arity must be >= 1, got 0\n"),
    (("psi-inv", "--k", "-1", "--tree", '{"1":{}}'),
     2, "", "peakmod: child position 1 outside 1..0\n"),
    (("permute", "--tree", '{"1":{}}', "--sigma", ""),
     2, "", "peakmod: invalid literal for int() with base 10: ''\n"),
    # sigma is checked for the empty tree too: 1..len(sigma)
    (("permute", "--tree", "null", "--sigma", "1,1"),
     2, "", "peakmod: [1, 1] is not a permutation of 1..2\n"),
    (("permute", "--tree", '{"1":{}}', "--sigma", "1,1"),
     2, "", "peakmod: [1, 1] is not a permutation of 1..2\n"),
    (("permute", "--tree", '{"1":{},"01":{}}', "--sigma", "1,1"),
     2, "", "peakmod: duplicate child position 1\n"),
    (("permute", "--tree", '{"3":{"1":{},"2":{},"002":{}}}', "--sigma",
      "2,3,1"), 2, "", "peakmod: duplicate child position 2\n"),
    (("permute", "--tree", '{"4":{}}', "--sigma", "3,1,2"),
     2, "", "peakmod: child position 4 outside 1..3\n"),
    (("permute", "--tree", '{"1":{},"2":{"label":"p0_1"},"label":"r"}',
      "--sigma", "3,1,2"),
     0, '{"1":{"label":"p0_1"},"3":{},"label":"r"}\n', ""),
    (("permute", "--tree", '{"1":{"label":"dd_1"},"10":{},"2":{}}',
      "--sigma", "2,3,4,5,6,7,8,9,10,11,12,1"),
     0, '{"11":{},"2":{"label":"dd_1"},"3":{}}\n', ""),
    (("psi", "--k", "2", "--labels", "--path", ""), 0, "null\n", ""),
    (("psi", "--k", "2", "--path", "uudd"),
     2, "", "peakmod: height -2 after step 3 is negative\n"),
    # the text readers take ASCII digits only
    (("psi", "--k", "1", "--path", "ul\u00b2_1d"), 2, "",
     "peakmod: expected digits for level run-length (at position 2)\n"),
    (("psi", "--k", "1", "--path", "ul\u0661_1d"), 2, "",
     "peakmod: expected digits for level run-length (at position 2)\n"),
    (("psi-inv", "--k", "2", "--tree", '{"\u0661":{}}'),
     2, "", "peakmod: bad child position key '\u0661'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":"dd_\u00b2"}'),
     2, "", "peakmod: unrecognized node label 'dd_\u00b2'\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{"label":"p\u00b2_1"}}'),
     2, "", "peakmod: unrecognized node label 'p\u00b2_1'\n"),
    # an object label is shown as a dict, a key repeated within it raises,
    # and a repeated key raises when its object closes, before a later
    # syntax error
    (("psi-inv", "--k", "2", "--tree", '{"label":{"a":1}}'),
     2, "", "peakmod: node label must be a string, got {'a': 1}\n"),
    (("psi-inv", "--k", "2", "--tree", '{"label":{"a":1,"a":2}}'),
     2, "", "peakmod: duplicate key among ['a', 'a']\n"),
    (("psi-inv", "--k", "2", "--tree", '{"1":{"2":{},"2":{}},'),
     2, "", "peakmod: duplicate key among ['2', '2']\n"),
    # a label number of more digits than int() reads is no label
    (("psi-inv", "--k", "2", "--tree", '{"label":"dd_' + "1" * 5000 + '"}'),
     2, "", "peakmod: unrecognized node label 'dd_" + "1" * 5000 + "'\n"),
    (("psi-inv", "--k", "2", "--tree",
      '{"1":{"label":"p1_' + "2" * 5000 + '"}}'),
     2, "", "peakmod: unrecognized node label 'p1_" + "2" * 5000 + "'\n"),
]


class TestHostileInput:
    @pytest.mark.parametrize("argv,code,out,err", HOSTILE)
    def test_same_outcome(self, capsys, argv, code, out, err):
        assert run(capsys, "map", *argv) == (code, out, err)

    @pytest.mark.parametrize("argv,code,out,err", [
        case for case in HOSTILE if case[0][0] == "psi-inv"])
    def test_psi_inv_matches_the_tree_composition(self, capsys, argv, code,
                                                  out, err):
        k, text = int(argv[2]), argv[4]
        try:
            want = (0, render_path(tree_to_path(
                tree_from_json_text(text, k + 1), k)) + "\n", "")
        except ValueError as exc:
            want = (2, "", f"peakmod: {exc}\n")
        assert want == (code, out, err)


class TestNoNodeIsBuilt:
    ARGVS = [
        ("psi", "--k", "2", "--path", "uuduuuuududduuuduuuuududduuudd"),
        ("psi", "--labels", "--k", "2", "--path",
         "uuduuuuududduuuduuuuududduuudd"),
        ("psi", "--labels", "--k", "1", "--path", "u" * 1500 + "d" * 1500),
        ("psi-inv", "--k", "2", "--tree",
         '{"1":{"2":{}},"3":{"label":"dd_1"},"label":"r"}'),
        ("permute", "--tree", '{"1":{"2":{}},"3":{"label":"dd_1"}}',
         "--sigma", "3,1,2"),
        ("permute", "--tree", '{"1":{},"01":{}}', "--sigma", "3,1,2"),
        ("psi-inv", "--k", "2", "--tree", '{"1":{"label":"x"}}'),
    ]

    def test_map_routes_build_no_tree(self, capsys, monkeypatch):
        before = [run(capsys, "map", *argv) for argv in self.ARGVS]

        def refuse(*args):
            raise AssertionError("a tree node was built")

        monkeypatch.setattr(core, "_nodes", refuse)
        monkeypatch.setattr(PositionalTree, "__init__", refuse)
        tree = path_to_tree(parse_path("ud", FamilySpec(1)))
        with pytest.raises(AssertionError):
            tree.children
        after = [run(capsys, "map", *argv) for argv in self.ARGVS]
        assert after == before
        assert [code for code, _, _ in after] == [0, 0, 0, 0, 0, 2, 2]


def seeded_tree_texts():
    """(text, arity) of the trees that TestSeededInputs reads, drawn anew
    from the same seeds: the psi-inv trees, compact and indented, and the
    arity-12 permute trees."""
    for k in (1, 2, 3):
        rng = random.Random(f"map psi-inv:{k}")
        for n in SIZES:
            tree = path_to_tree(parse_path(uniform_path(rng, k, n),
                                           FamilySpec(k)))
            if n and rng.random() < 0.5:
                tree = path_to_labeled_tree(tree_to_path(tree, k))
            yield tree_to_json_text(tree), k + 1
            yield json.dumps(tree_to_json(tree), indent=1), k + 1
    for labels in (False, True):
        rng = random.Random(f"map permute --tree:{labels}")
        for n in SIZES[1:7]:
            path = parse_path(uniform_path(rng, 11, n), FamilySpec(11))
            tree = path_to_labeled_tree(path) if labels \
                else path_to_tree(path)
            rng.shuffle(list(range(1, 13)))  # the test's sigma draw
            yield tree_to_json_text(tree), 12


def outcome(text, arity):
    try:
        return records_from_json_text(text, arity)
    except ValueError as exc:
        return type(exc), str(exc)


class TooDeep(json.JSONDecoder):
    """A decoder that gives up on every text, as the C decoder does on text
    nested past its depth; its scanner still reads values.  It counts the
    texts it was asked to decode."""

    decodes = 0

    def decode(self, text):
        self.decodes += 1
        raise RecursionError


class TestTextReader:
    """``records_from_json_text`` decodes with the C decoder and, on text
    nested past its depth or refused by the walk, again on an explicit
    stack; both routes give the same records or the same error."""

    @staticmethod
    def both_routes(monkeypatch, cases):
        first = [outcome(*case) for case in cases]
        # text the C decoder cannot read goes to the explicit stack at once
        decoder = TooDeep()
        monkeypatch.setattr(core, "_PAIRS", decoder)
        second = [outcome(*case) for case in cases]
        assert decoder.decodes == len(cases), "the C decoder was tried twice"
        return first, second

    def test_arity_is_read_at_entry(self):
        assert records_from_json_text('{"1":{}}', 2.0) == [
            (-1, 0, None), (0, 1, None)]
        for arity, message in (("3", "arity must be an integer, got '3'"),
                               (None, "arity must be an integer, got None"),
                               (1.5, "arity must be an integer, got 1.5")):
            for text in ('{"1":{}}', "[", "null"):
                with pytest.raises(TreeError) as err:
                    records_from_json_text(text, arity)
                assert str(err.value) == message

    def test_canonical_text_takes_no_checked_route(self, monkeypatch):
        cases = list(seeded_tree_texts()) + [(" null ", 2)]
        want = [outcome(*case) for case in cases]

        def refuse(*args):
            raise AssertionError("the text was read again on the stack")

        monkeypatch.setattr(core, "_stack_loads", refuse)
        assert [records_from_json_text(*case) for case in cases] == want

    def test_hostile_texts_read_alike(self, monkeypatch):
        texts = [argv[argv.index("--tree") + 1] for argv, *_ in HOSTILE
                 if "--tree" in argv] + ["\ufeff{}", '{"1":{}}}', "[{}]"]
        cases = [(text, arity) for text in texts for arity in (0, 1, 3, 12)]
        c_route, stack_route = self.both_routes(monkeypatch, cases)
        assert stack_route == c_route
        assert sum(isinstance(w, list) for w in c_route) >= 10
        assert sum(isinstance(w, tuple) for w in c_route) >= 100

    def test_seeded_trees_read_alike(self, monkeypatch):
        cases = list(seeded_tree_texts())
        assert len(cases) == 60
        c_route, stack_route = self.both_routes(monkeypatch, cases)
        assert stack_route == c_route
        assert all(isinstance(w, list) for w in c_route)

    def test_records_are_breadth_first(self):
        text = '{"3":{"1":{}},"1":{"2":{"label":"r"}},"label":"dd_1"}'
        assert records_from_json_text(text, 3) == [
            (-1, 0, NodeLabel("dd", ordinal=1)), (0, 3, None), (0, 1, None),
            (1, 1, None), (2, 2, NodeLabel("r"))]

    DEPTH = 10 ** 5
    DEEP = [
        ("a chain", '{"2":' * (DEPTH - 1) + "{}" + "}" * (DEPTH - 1),
         0, "u" * DEPTH + "d" * DEPTH + "\n", ""),
        ("an array child", '{"1":' * DEPTH + "[]" + "}" * DEPTH,
         2, "", "peakmod: expected an object, got list\n"),
        ("an unclosed run", '{"1":' * DEPTH,
         2, "", "peakmod: bad tree JSON: Expecting value: line 1 column "
                "500001 (char 500000)\n"),
        ("a doubled key", '{"2":' * 3000 + '{"2":{},"2":{}}' + "}" * 3000,
         2, "", "peakmod: duplicate key among ['2', '2']\n"),
        ("a doubled key over a deep value",
         '{"2":' * 3000 + '{"2":{},"2":' + '{"1":' * DEPTH + "{}"
         + "}" * DEPTH + "}" + "}" * 3000,
         2, "", "peakmod: duplicate key among ['2', '2']\n"),
        ("a doubled position", '{"1":' * DEPTH + '{"1":{},"01":{}}'
         + "}" * DEPTH, 2, "", "peakmod: duplicate child position 1\n"),
        # decode has no byte order mark message of its own, as loads does
        ("a byte order mark", "\ufeff{}", 2, "",
         "peakmod: bad tree JSON: Expecting value: line 1 column 1 "
         "(char 0)\n"),
    ]

    @pytest.mark.parametrize("name,text,code,out,err", DEEP,
                             ids=[case[0] for case in DEEP])
    def test_deep_and_hostile_text(self, capsys, name, text, code, out,
                                   err):
        assert run(capsys, "map", "psi-inv", "--k", "1", "--tree",
                   text) == (code, out, err)

    def test_a_deep_label_ends_in_one_line(self, capsys):
        text = '{"label":' + "[" * self.DEPTH + "]" * self.DEPTH + "}"
        message = "node label must be a string, got a list nested over " \
            "100 deep"
        with pytest.raises(TreeError) as err:
            tree_from_json_text(text, 2)
        assert str(err.value) == message
        for argv in (("map", "psi-inv", "--k", "1"), ("render", "--k", "1")):
            assert run(capsys, *argv, "--tree", text) == (
                2, "", f"peakmod: {message}\n")

    def test_labels_are_shown_in_full_to_100_levels(self):
        label = {"a": [1]}  # two levels
        for _ in range(98):
            label = [label]
        for value, shown in ((label, repr(label)),
                             ([label], "a list nested over 100 deep")):
            with pytest.raises(TreeError) as err:
                tree_from_json_text(json.dumps({"label": value}), 2)
            assert str(err.value) == \
                f"node label must be a string, got {shown}"

"""Path/tree bijection, label transport, and statistic permutation."""

import json
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given

from peakmod import (
    ArityMismatchError,
    EmptyPathError,
    FamilySpec,
    LatticePath,
    PositionalTree,
    e_vector,
    gen_k_dyck,
    gen_trees,
    histogram,
    path_to_labeled_tree,
    path_to_tree,
    permute_statistics,
    permute_subtrees,
    stat_vector,
    tree_from_json,
    tree_from_json_text,
    tree_to_json,
    tree_to_json_text,
    tree_to_path,
)
from peakmod.statistics import PLAIN

from conftest import K2, dyck, k_dyck_paths

FIG1_TREE_JSON = {
    "label": "r",
    "1": {"label": "p0_2",
          "1": {"label": "p0_1"},
          "3": {"label": "dd_1", "2": {"label": "p1_1"}}},
    "2": {"label": "p1_3",
          "2": {"label": "p1_2"},
          "3": {"label": "dd_2", "1": {"label": "p0_3"}}},
    "3": {"label": "dd_3"},
}


class TestPathToTree:
    def test_empty(self):
        assert path_to_tree(LatticePath(K2)) is None

    def test_example(self, example_path):
        t = path_to_tree(example_path)
        assert t.node_count() == 10
        assert e_vector(t) == (3, 3, 3)

    def test_chain(self):
        t = path_to_tree(dyck("uuduuduud"))
        assert e_vector(t) == (2, 0, 0)
        node, depth = t, 0
        while node.children:
            assert [pos for pos, _ in node.children] == [1]
            node = node.children[0][1]
            depth += 1
        assert depth == 2

    @given(k_dyck_paths())
    def test_node_count_is_down_size(self, path):
        tree = path_to_tree(path)
        count = tree.node_count() if tree is not None else 0
        assert count == path.down_size

    @given(k_dyck_paths())
    def test_statistic_transport(self, path):
        tree = path_to_tree(path)
        assert stat_vector(path).key() == e_vector(tree, path.spec.k + 1)


class TestLabeledTree:
    def test_example_matches_figure(self, example_path):
        assert tree_to_json(path_to_labeled_tree(example_path)) == \
            FIG1_TREE_JSON

    def test_single_node(self):
        t = path_to_labeled_tree(dyck("uud"))
        assert t.children == () and t.label.display() == "r"

    def test_descent_chain(self):
        # the root closes over the whole path, so the later double descent
        # labels the child and the earlier one the grandchild
        t = path_to_labeled_tree(dyck("uuuuuuddd"))
        assert t.label.display() == "r"
        (pos, child), = t.children
        assert (pos, child.label.display()) == (3, "d_2")
        (pos, grand), = child.children
        assert (pos, grand.label.display()) == (3, "d_1")

    def test_empty_rejected(self):
        with pytest.raises(EmptyPathError):
            path_to_labeled_tree(LatticePath(K2))

    @given(k_dyck_paths(max_n=4))
    def test_labels_sit_at_matching_positions(self, path):
        if path.is_empty():
            return
        k = path.spec.k
        tree = path_to_labeled_tree(path)
        assert tree.strip_labels() == path_to_tree(path)
        assert tree.label.kind == "r"
        stack = [tree]
        while stack:
            node = stack.pop()
            for pos, child in node.children:
                if pos <= k:
                    assert child.label.kind == "peak"
                    assert child.label.residue == pos - 1
                else:
                    assert child.label.kind == "dd"
                stack.append(child)


class TestTreeToPath:
    def test_empty(self):
        assert tree_to_path(None, 2).is_empty()

    def test_example_round_trip(self, example_path):
        assert tree_to_path(path_to_tree(example_path), 2) == example_path

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            tree_to_path(PositionalTree(4), 2)

    def test_arity_mismatch_message(self):
        tree = path_to_tree(dyck("uud"))
        with pytest.raises(ArityMismatchError) as err:
            tree_to_path(tree, 1)
        assert str(err.value) == "tree arity 3 does not match k+1 = 2"

    def test_all_small_trees_round_trip(self):
        for k in (1, 2):
            for n in range(6):
                for t in gen_trees(k + 1, n):
                    assert path_to_tree(tree_to_path(t, k)) == t

    @given(k_dyck_paths())
    def test_all_paths_round_trip(self, path):
        assert tree_to_path(path_to_tree(path), path.spec.k) == path

    def test_a_wide_node_is_walked_in_linear_space(self):
        # the walk lists the k slots once per shift it meets, not for all
        # k shifts: a k * k table would hold 4,000,000 entries here
        tree = tree_from_json_text("{}", 2001)
        tracemalloc.start()
        try:
            path = tree_to_path(tree, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.text() == "u" * 2000 + "d"
        assert peak < 1_000_000


class TestDeepStructures:
    def test_chain_beyond_default_recursion_limit(self):
        # chain paths nest the recursion as deep as the down-size
        import sys

        n = sys.getrecursionlimit() + 300
        from peakmod.core import DOWN, UP

        path = LatticePath(FamilySpec(2), (UP, UP, DOWN) * n)
        tree = path_to_tree(path)
        assert tree.node_count() == n
        assert e_vector(tree, 3) == stat_vector(path).key()
        assert tree_to_path(tree, 2) == path
        from peakmod import permute_subtrees
        assert e_vector(permute_subtrees(tree, (3, 2, 1))) == (0, 0, n - 1)

    def test_hundred_thousand_deep_chain(self):
        # u^n d^n is a chain along position 2; every map runs on explicit
        # stacks, so the interpreter limit is neither hit nor raised
        import sys

        from peakmod import deutsch_involution
        from peakmod.core import DOWN, UP

        limit = sys.getrecursionlimit()
        n = 10 ** 5
        path = LatticePath(FamilySpec(1), (UP,) * n + (DOWN,) * n)
        zigzag = LatticePath(FamilySpec(1), (UP, DOWN) * n)
        tree = path_to_tree(path)
        assert e_vector(tree) == (0, n - 1) == stat_vector(path).key()
        labeled = path_to_labeled_tree(path)
        node, depth = labeled, 0
        while node.children:
            (pos, node), = node.children
            depth += 1
            assert (pos, node.label.display()) == (2, f"d_{n - depth}")
        assert depth == n - 1
        assert tree_to_path(tree, 1) == path
        assert permute_statistics(path, (2, 1)) == zigzag
        assert deutsch_involution(path) == zigzag
        assert deutsch_involution(zigzag) == path
        assert sys.getrecursionlimit() == limit

    def test_no_module_raises_the_recursion_limit(self):
        from pathlib import Path

        import peakmod

        package = Path(peakmod.__file__).parent
        offenders = [f.name for f in sorted(package.glob("*.py"))
                     if "setrecursionlimit" in f.read_text()]
        assert offenders == []


class TestPermuteStatistics:
    def test_identity(self, example_path):
        assert permute_statistics(example_path, (1, 2, 3)) == example_path

    def test_dyck_swap_matches_involution_distribution(self):
        # swapping the two statistic slots redistributes (pk, dd) exactly
        # like the classical involution does
        for n in range(7):
            paths = list(gen_k_dyck(1, n))
            swapped = histogram(
                (permute_statistics(p, (2, 1)) for p in paths), PLAIN)
            base = histogram(paths, PLAIN)
            assert swapped == base
            for p in paths:
                v = stat_vector(p).key()
                w = stat_vector(permute_statistics(p, (2, 1))).key()
                assert (v[1], v[0]) == w

    def test_figure_tally_slot_swap(self):
        paths = list(gen_k_dyck(2, 3))
        base = histogram(paths, PLAIN)
        image = histogram(
            (permute_statistics(p, (3, 2, 1)) for p in paths), PLAIN)
        assert image == base
        for p in paths:
            old = stat_vector(p).key()
            new = stat_vector(permute_statistics(p, (3, 2, 1))).key()
            assert new == (old[2], old[1], old[0])

    def test_bijective_per_family(self):
        for k, n in ((1, 5), (2, 4), (3, 3)):
            paths = list(gen_k_dyck(k, n))
            for sigma in permutations(range(1, k + 2)):
                images = {permute_statistics(p, sigma) for p in paths}
                assert len(images) == len(paths)

    def test_composition(self):
        sigma, tau = (3, 1, 2), (2, 3, 1)
        composed = tuple(sigma[tau[i] - 1] for i in range(3))
        for p in gen_k_dyck(2, 4):
            assert permute_statistics(permute_statistics(p, tau), sigma) == \
                permute_statistics(p, composed)

    def test_matches_the_tree_composition(self):
        # reference: permute the subtrees of the PositionalTree and map the
        # tree back, as permute_statistics did before it ran on records
        for k, max_n in ((1, 10), (2, 6), (3, 4)):
            for n in range(max_n + 1):
                for p in gen_k_dyck(k, n):
                    tree = path_to_tree(p)
                    for sigma in permutations(range(1, k + 2)):
                        want = p if tree is None else tree_to_path(
                            permute_subtrees(tree, sigma), k)
                        assert permute_statistics(p, sigma) == want, \
                            (p.text(), sigma)


class TestRecordsInside:
    def test_no_node_is_built(self, monkeypatch):
        # a tree keeps its records: the tree maps, the JSON readers and the
        # verify loops build no node, and reading children builds them
        from peakmod import core
        from peakmod.verify import verify_bijection, verify_equidistribution

        built = []
        nodes = core._nodes

        def recording(arity, records):
            built.append(len(records))
            return nodes(arity, records)

        def refuse(*args):
            raise AssertionError("a tree was built by its constructor")

        monkeypatch.setattr(core, "_nodes", recording)
        monkeypatch.setattr(PositionalTree, "__init__", refuse)
        path = dyck("uuduuduud")
        image = permute_statistics(path, (3, 1, 2))
        assert image.text() == "uuuuuuddd"
        tree = path_to_tree(path)
        labeled = path_to_labeled_tree(path)
        text = '{"1":{"label":"p0_1"},"3":{"2":{}},"label":"r"}'
        trees = [tree, labeled, labeled.strip_labels(),
                 permute_subtrees(labeled, (3, 1, 2)),
                 tree_from_json(json.loads(text), 3),
                 tree_from_json_text(text, 3), *gen_trees(3, 3)]
        for t in trees:
            assert tree_from_json(tree_to_json(t), 3) == t
            assert path_to_tree(tree_to_path(t, 2)) == t.strip_labels()
            wire = tree_to_json_text(t)
            assert repr(t) == f"PositionalTree(3, {wire})"
            assert hash(t) == hash(tree_from_json_text(wire, 3))
            assert sum(e_vector(t)) == t.node_count() - 1
        assert verify_equidistribution(k=2, max_n=3, weak_max_len=2).ok
        assert verify_bijection(max_k=2, max_n=3, max_nodes=3).ok
        assert built == []
        (pos, child), = tree.children
        assert (pos, child.node_count()) == (1, 2) and built == [3]
        assert tree.children[0][1] is child and built == [3]
        assert [(pos, c.label) for pos, c in labeled.children] == [
            (pos, label) for parent, pos, label in labeled.records()
            if parent == 0] and built == [3, 3]


class TestVerifyBijectionWalks:
    @pytest.mark.parametrize("max_n,max_nodes", [(5, 5), (2, 4), (4, 2)])
    def test_each_tree_family_is_walked_once(self, monkeypatch, max_n,
                                             max_nodes):
        import peakmod.verify as verify

        walks = []
        gen_trees = verify.gen_trees

        def recording(arity, n, *args):
            walks.append((arity, n))
            return gen_trees(arity, n, *args)

        monkeypatch.setattr(verify, "gen_trees", recording)
        rep = verify.verify_bijection(max_k=2, max_n=max_n,
                                      max_nodes=max_nodes)
        assert rep.ok and rep.checks == 2 * (3 * (max_n + 1) + max_nodes + 1)
        assert sorted(walks) == sorted(set(walks)) == [
            (arity, n) for arity in (2, 3)
            for n in range(max(max_n, max_nodes) + 1)]


class TestVerifyClosedFormsWalks:
    @pytest.mark.parametrize("max_k,max_n", [(3, 5), (1, 3), (2, 0)])
    def test_each_family_is_walked_once(self, monkeypatch, max_k, max_n):
        # the Narayana checks read the k = 1 histograms of the loop above
        import peakmod.verify as verify

        walks = []
        family_histogram = verify.family_histogram

        def recording(spec, length, *args):
            walks.append((spec.k, length))
            return family_histogram(spec, length, *args)

        monkeypatch.setattr(verify, "family_histogram", recording)
        rep = verify.verify_closed_forms(max_k=max_k, max_n=max_n)
        assert rep.ok
        assert sorted(walks) == sorted(set(walks)) == sorted(
            {(k, (k + 1) * n) for k in range(1, max_k + 1)
             for n in range(1, max_n + 1)}
            | {(1, 2 * n) for n in range(1, max_n + 1)})


class TestVerifyClosedFormsCoverage:
    """The closed-form checks visit the vectors that count something, not
    only vectors of count zero, on which every route agrees trivially."""

    @pytest.mark.parametrize("suite,formula,check", [
        ("verify_closed_forms", "count_joint", "joint count "),
        ("verify_ballot", "count_ballot_joint", "ballot closed form "),
    ])
    def test_a_count_off_where_nonzero_fails_the_suite(
            self, monkeypatch, suite, formula, check):
        import peakmod.verify as verify

        count = getattr(verify, formula)

        def off_by_one(*args):
            value = count(*args)
            return value + 1 if value else value

        monkeypatch.setattr(verify, formula, off_by_one)
        rep = getattr(verify, suite)()
        assert not rep.ok
        assert all(f["check"].startswith(check) for f in rep.failures)

    def test_visited_counts_sum_to_the_family_size(self, monkeypatch):
        import peakmod.verify as verify
        from peakmod import fuss_catalan

        totals = {}
        count_joint = verify.count_joint

        def recording(k, n, r):
            count = count_joint(k, n, r)
            totals[k, n] = totals.get((k, n), 0) + count
            return count

        monkeypatch.setattr(verify, "count_joint", recording)
        assert verify.verify_closed_forms(max_k=3, max_n=5).ok
        assert totals == {(k, n): fuss_catalan(k, n)
                          for k in range(1, 4) for n in range(1, 6)}


class TestVerifyReadsEachStatisticOnce:
    @staticmethod
    def count_calls(monkeypatch):
        """Count stat_vector calls made through any peakmod module."""
        import sys

        import peakmod.statistics as statistics

        calls = []

        def counting(path, *args):
            calls.append(path)
            return statistics.stat_vector(path, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("peakmod.") and \
                    getattr(module, "stat_vector", None) is \
                    statistics.stat_vector and module is not statistics:
                monkeypatch.setattr(module, "stat_vector", counting)
        return calls

    def test_equidistribution(self, monkeypatch):
        # one call per path for its statistic and one per sigma for the
        # image's; the plain histogram is tallied from the former
        from peakmod.verify import verify_equidistribution

        calls = self.count_calls(monkeypatch)
        for k, max_n in ((1, 4), (2, 3)):
            calls.clear()
            assert verify_equidistribution(k=k, max_n=max_n,
                                           weak_max_len=2).ok
            paths = sum(1 for n in range(max_n + 1) for _ in gen_k_dyck(k, n))
            sigmas = len(list(permutations(range(k + 1))))
            assert len(calls) == paths * (1 + sigmas), (k, max_n)

    def test_ballot(self, monkeypatch):
        # one call per path for its starred statistic and one per ballot
        # part, of which there are m + 1
        from peakmod import gen_ballot
        from peakmod.verify import verify_ballot

        calls = self.count_calls(monkeypatch)
        assert verify_ballot(max_k=3, max_m=3, max_n=1,
                             identity_max_n=2).ok
        want = sum((m + 2) * sum(1 for _ in gen_ballot(k, m, n))
                   for k in range(1, 4) for m in range(4) for n in range(3))
        assert len(calls) == want

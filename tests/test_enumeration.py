"""Exhaustive generators and histogram construction."""

import copy
import pickle
import sys
import time
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakmod import (
    BadPermutationError,
    FamilySpec,
    LatticePath,
    PathError,
    PositionalTree,
    ResourceLimitError,
    e_vector,
    family_histogram,
    fuss_catalan,
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    gen_trees,
    histogram,
    histogram_from_keys,
    stat_vector,
    validate,
)
from peakmod import enumeration
from peakmod.cli import main
from peakmod.core import DOWN, UP, _packing
from peakmod.enumeration import _completions
from peakmod.statistics import (PLAIN, PLAIN_STARRED, VARIANTS, WEAK,
                                WEAK_STARRED, closing_rows)
from peakmod.verify import _compositions

from conftest import MOTZKIN, SCHROEDER, block_tallies, oracle_grid

FIG2_TALLY = {(0, 0, 2): 1, (0, 1, 1): 3, (1, 0, 1): 3,
              (1, 1, 0): 3, (0, 2, 0): 1, (2, 0, 0): 1}
FIG3_TALLY = {(0, 0): 2, (0, 1): 5, (1, 0): 5,
              (1, 1): 7, (2, 0): 1, (0, 2): 1}


class TestGenKDyck:
    def test_figure_family_size(self):
        assert sum(1 for _ in gen_k_dyck(2, 3)) == 12

    def test_catalan(self):
        assert sum(1 for _ in gen_k_dyck(1, 4)) == 14

    def test_down_size_zero(self):
        paths = list(gen_k_dyck(2, 0))
        assert len(paths) == 1 and paths[0].is_empty()

    def test_unique_and_sorted(self):
        texts = [p.text() for p in gen_k_dyck(2, 4)]
        assert len(set(texts)) == len(texts)
        # lexicographic with u ordered before d
        key = {"u": 0, "d": 1}
        ranked = [[key[c] for c in t] for t in texts]
        assert ranked == sorted(ranked)

    def test_fuss_catalan_totals(self):
        for k in (1, 2, 3):
            for n in range(6):
                assert sum(1 for _ in gen_k_dyck(k, n)) == fuss_catalan(k, n)


class TestGenKac:
    def test_motzkin_length_5(self):
        assert sum(1 for _ in gen_kac(MOTZKIN, 5)) == 21

    def test_schroeder_length_2(self):
        assert [p.text() for p in gen_kac(SCHROEDER, 2)] == ["ud", "l2_1"]

    def test_length_zero(self):
        paths = list(gen_kac(MOTZKIN, 0))
        assert len(paths) == 1 and paths[0].is_empty()

    def test_motzkin_numbers(self):
        sizes = [sum(1 for _ in gen_kac(MOTZKIN, L)) for L in range(7)]
        assert sizes == [1, 1, 2, 4, 9, 21, 51]

    def test_colored_levels(self):
        # two colors double every level step choice
        spec = FamilySpec(1, {1: 2})
        assert sum(1 for _ in gen_kac(spec, 1)) == 2
        assert sum(1 for _ in gen_kac(spec, 2)) == 5  # ud, 4 colored ll

    def test_end_height_families(self):
        spec = FamilySpec(1, {1: 1}, end_height=1)
        for L in range(6):
            for p in gen_kac(spec, L):
                assert p.end_height == 1
                assert p.path_length == L

    def test_a_huge_k_builds_no_key_weights(self):
        # gen_kac tallies no statistic, so it builds none of the k + 1
        # weights that pack one: a family of k = 10**9 is found empty at once
        start = time.perf_counter()
        assert next(iter(gen_kac(FamilySpec(10 ** 9), 20)), None) is None
        assert time.perf_counter() - start < 1.0


class TestGenBallot:
    def test_seven_paths(self):
        assert sum(1 for _ in gen_ballot(2, 1, 2)) == 7

    def test_m_zero_matches_dyck(self):
        for n in range(5):
            assert list(gen_ballot(2, 0, n)) == list(gen_k_dyck(2, n))

    def test_down_size_zero(self):
        paths = list(gen_ballot(2, 1, 0))
        assert [p.text() for p in paths] == ["u"]

    def test_up_count(self):
        for p in gen_ballot(3, 2, 2):
            assert p.up_count == 3 * 2 + 2


class TestGenTrees:
    def test_matches_path_family(self):
        assert sum(1 for _ in gen_trees(3, 3)) == 12

    def test_single_node(self):
        trees = list(gen_trees(4, 1))
        assert len(trees) == 1 and trees[0].node_count() == 1

    def test_binary_catalan(self):
        assert sum(1 for _ in gen_trees(2, 4)) == 14

    def test_zero_nodes(self):
        assert list(gen_trees(3, 0)) == [None]

    def test_unique(self):
        trees = list(gen_trees(3, 4))
        assert len(set(trees)) == len(trees) == fuss_catalan(2, 4)

    def test_first_tree_comes_before_the_rest(self):
        # the walk is lazy: the first tree needs no list of the others
        first = next(gen_trees(2, 13, max_objects=1))
        assert first.node_count() == 13

    def test_deep_first_tree(self):
        # and iterative: the first tree of 10^4 nodes is a chain
        limit = sys.getrecursionlimit()
        first = next(gen_trees(2, 10 ** 4, max_objects=1))
        assert e_vector(first) == (10 ** 4 - 1, 0)
        assert sys.getrecursionlimit() == limit

    def test_wide_arity_builds_no_mask_table(self):
        # no list over the 2^arity masks: a mask opening too many slots
        # jumps past every mask with more set bits
        start = time.perf_counter()
        assert next(gen_trees(64, 1)).node_count() == 1
        trees = list(gen_trees(200, 2))
        assert len(trees) == len(set(trees)) == 200
        assert time.perf_counter() - start < 1.0

    def test_same_trees_as_subtree_products(self):
        # reference: a tree is a root over one smaller tree (or none) per
        # position, with the sizes summing to n - 1
        def reference(arity, n):
            trees = {0: [None]}
            for size in range(1, n + 1):
                trees[size] = []
                for sizes in _compositions(size - 1, arity):
                    for kids in product(*(trees[s] for s in sizes)):
                        trees[size].append(PositionalTree(arity, tuple(
                            (i + 1, t) for i, t in enumerate(kids)
                            if t is not None)))
            return trees[n]

        for arity, max_n in ((1, 6), (2, 6), (3, 5), (4, 4)):
            for n in range(max_n + 1):
                got = list(gen_trees(arity, n))
                assert len(set(got)) == len(got)
                assert set(got) == set(reference(arity, n))


class TestCompositions:
    """The vectors the verify suites visit, listed by stars and bars."""

    def test_matches_nested_loops(self):
        def nested(total, parts):
            out = [()]
            for _ in range(parts):
                out = [t + (i,) for t in out
                       for i in range(total - sum(t) + 1)]
            return [t for t in out if sum(t) == total]

        for total in range(8):
            for parts in range(1, 6):
                assert list(_compositions(total, parts)) == \
                    nested(total, parts)

    def test_many_parts_do_not_recurse(self):
        got = list(_compositions(1, 1200))
        assert len(got) == 1200
        assert got[0] == (0,) * 1199 + (1,)
        assert got[-1] == (1,) + (0,) * 1199


def reference_walk(spec, length):
    """Step tuples of the family by plain recursion, u < d < level steps."""
    k, m = spec.k, spec.end_height
    moves = [(UP, 1, 1), (DOWN, -k, 1)]
    moves += [(s, 0, s.length) for s in spec.level_steps()]
    out = []

    def rec(prefix, rem, h):
        if rem == 0:
            if h == m:
                out.append(tuple(prefix))
            return
        for step, rise, size in moves:
            # a height above m + k*rem can no longer come down to m
            if size <= rem and 0 <= h + rise <= m + k * (rem - size):
                rec(prefix + [step], rem - size, h + rise)

    rec([], length, 0)
    return out


class TestOracleStream:
    def test_same_paths_in_the_same_order(self):
        for spec, length in oracle_grid():
            assert [p.steps for p in gen_kac(spec, length)] == \
                reference_walk(spec, length), (spec, length)

    def test_family_wrappers(self):
        for k in (1, 2, 3):
            for m in range(4):
                for n in range(4):
                    want = reference_walk(FamilySpec(k, end_height=m),
                                          (k + 1) * n + m)
                    assert [p.steps for p in gen_ballot(k, m, n)] == want
                    if m == 0:
                        assert [p.steps for p in gen_k_dyck(k, n)] == want

    def test_output_revalidates(self):
        for spec, length in oracle_grid():
            for p in gen_kac(spec, length):
                assert p == validate(p.spec, p.steps, p.start_height)

    def test_exactly_cap_objects_pass(self):
        for spec, length in ((FamilySpec(2), 9), (MOTZKIN, 6),
                             (FamilySpec(1, {1: 2, 3: 1}, 1), 5)):
            want = reference_walk(spec, length)
            for cap in (0, 1, len(want) // 2, len(want) - 1):
                stream = gen_kac(spec, length, max_objects=cap)
                assert [next(stream).steps for _ in range(cap)] == \
                    want[:cap]
                with pytest.raises(ResourceLimitError):
                    next(stream)
            got = list(gen_kac(spec, length, max_objects=len(want)))
            assert [p.steps for p in got] == want


class TestDeepFamilies:
    def test_first_path_of_a_deep_family(self):
        limit = sys.getrecursionlimit()
        n = 10 ** 4
        first = next(gen_k_dyck(1, n))
        assert first.steps == (UP,) * n + (DOWN,) * n
        first = next(gen_kac(MOTZKIN, 2 * n))
        assert first.steps == (UP,) * n + (DOWN,) * n
        assert sys.getrecursionlimit() == limit


class TestResourceCap:
    def test_cap_triggers(self):
        with pytest.raises(ResourceLimitError):
            list(gen_k_dyck(2, 3, max_objects=5))
        with pytest.raises(ResourceLimitError):
            list(gen_trees(3, 3, max_objects=5))

    @pytest.mark.parametrize("arity, n, cap", [
        (3, 3, 0), (3, 3, 1), (3, 3, 5), (3, 3, 11), (2, 0, 0), (2, 9, 100),
    ])
    def test_trees_yielded_up_to_the_cap(self, arity, n, cap):
        got = []
        with pytest.raises(ResourceLimitError):
            for tree in gen_trees(arity, n, max_objects=cap):
                got.append(tree)
        assert len(got) == cap

    def test_many_colors_are_set_up_in_linear_memory(self):
        # the walk shares one closing row per step kind, so 4,000 colors
        # cost a few lists of 4,000 entries, not a table of 16 million
        import tracemalloc

        tracemalloc.start()
        try:
            first = next(gen_kac(FamilySpec(1, {1: 4000}), 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.text() == "l1_1"
        assert peak < 10 * 2 ** 20

    def test_cap_on_a_many_colored_family(self):
        # the tables are bounded by their entries, not by their depth:
        # 300 colors keep them one step deep, so the cap acts at once
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            family_histogram(FamilySpec(1, {1: 300}), 16, PLAIN, 1000)
        assert time.perf_counter() - start < 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PEAKMOD_MAX_OBJECTS", "2")
        with pytest.raises(ResourceLimitError):
            list(gen_k_dyck(1, 3))
        monkeypatch.setenv("PEAKMOD_MAX_OBJECTS", "100")
        assert sum(1 for _ in gen_k_dyck(1, 3)) == 5


class TestHistogram:
    def test_figure_2(self):
        h = histogram(gen_k_dyck(2, 3), PLAIN)
        assert h.counts == FIG2_TALLY and h.total == 12

    def test_figure_3(self):
        h = histogram(gen_kac(MOTZKIN, 5), WEAK)
        assert h.counts == FIG3_TALLY and h.total == 21

    def test_empty_stream(self):
        h = histogram(iter(()), PLAIN)
        assert h.total == 0 and h.counts == {}
        assert h.to_json() == {"total": 0, "entries": []}

    def test_k_is_the_stream_k(self):
        assert histogram(iter(()), PLAIN).k is None
        for k in (1, 2, 3):
            assert histogram(gen_k_dyck(k, 3), PLAIN).k == k
        assert histogram(gen_kac(MOTZKIN, 4), WEAK).k == MOTZKIN.k

    def test_equals_histogram_from_keys(self):
        for spec, L in ((FamilySpec(2), 9), (MOTZKIN, 6), (SCHROEDER, 6)):
            for variant in (PLAIN, WEAK, PLAIN_STARRED):
                paths = list(gen_kac(spec, L))
                keys = [stat_vector(p, variant).key() for p in paths]
                assert histogram(paths, variant) == \
                    histogram_from_keys(keys, variant, spec.k)

    def test_json_sorted(self):
        h = histogram(gen_k_dyck(2, 3), PLAIN)
        stats = [tuple(e["stats"]) for e in h.to_json()["entries"]]
        assert stats == sorted(stats)

    def test_permutation_invariance_small(self):
        for k, max_n in ((1, 6), (2, 5), (3, 4)):
            for n in range(max_n + 1):
                h = histogram(gen_k_dyck(k, n), PLAIN)
                for sigma in permutations(range(1, k + 2)):
                    assert h.permuted(sigma) == h

    def test_permuted_rejects_non_permutation(self):
        h = histogram(gen_k_dyck(2, 3), PLAIN)
        for sigma in ((1, 1, 3), (1, 2), (1, 2, 3, 4), (0, 1, 2)):
            with pytest.raises(BadPermutationError):
                h.permuted(sigma)

    def test_weak_invariance(self):
        for spec in (MOTZKIN, SCHROEDER):
            for L in range(8):
                h = histogram(gen_kac(spec, L), WEAK)
                assert h.permuted((2, 1)) == h

    def test_ballot_grouped_invariance(self):
        # starred tallies are symmetric within residues 0..r and r+1..k-1
        for k, m in ((2, 1), (3, 1), (3, 2), (2, 3)):
            r = m % k
            for n in range(4):
                h = histogram(gen_ballot(k, m, n), PLAIN_STARRED)
                for group in (range(r + 1), range(r + 1, k)):
                    group = list(group)
                    for perm in permutations(group):
                        sigma = list(range(1, k + 2))
                        for a, b in zip(group, perm):
                            sigma[a] = b + 1
                        assert h.permuted(sigma) == h

    def test_tree_histogram_matches_path_histogram(self):
        from peakmod import e_vector
        for k, n in ((1, 4), (2, 3)):
            trees = histogram_from_keys(
                (e_vector(t, k + 1) for t in gen_trees(k + 1, n)), PLAIN, k)
            paths = histogram(gen_k_dyck(k, n), PLAIN)
            assert trees == paths

    def test_marginal_reversal(self):
        # every single statistic is distributed as the reverse of the
        # non-rightmost peak total
        for k, n in ((1, 5), (2, 4)):
            h = histogram(gen_k_dyck(k, n), PLAIN)
            pk_total: dict[int, int] = {}
            for p in gen_k_dyck(k, n):
                t = stat_vector(p).total_peaks()
                pk_total[t] = pk_total.get(t, 0) + 1
            for coord in range(k + 1):
                marg = h.marginal(coord)
                for r in range(n):
                    assert marg.get(r, 0) == pk_total.get(n - 1 - r, 0)


class TestFamilyHistogram:
    def test_equals_the_stream_and_the_block_tallies(self):
        for spec, length in oracle_grid():
            paths = list(gen_kac(spec, length))
            blocks = [block_tallies(p) for p in paths]
            for variant in VARIANTS:
                got = family_histogram(spec, length, variant)
                assert got == histogram(paths, variant), (spec, length)
                assert got.counts == Counter(b[variant] for b in blocks)
                assert got.variant == variant and got.k == spec.k

    def test_a_k_past_the_length_packs_the_reached_residues(self):
        # no peak of a length-L path is higher than L, so only residues
        # below min(k, L + 1) are packed; the others read back as 0
        for spec in (FamilySpec(5, {1: 1}), FamilySpec(9, {1: 1, 2: 1}, 2),
                     FamilySpec(4, end_height=1), FamilySpec(6)):
            for length in range(9):
                paths = list(gen_kac(spec, length))
                for variant in VARIANTS:
                    got = family_histogram(spec, length, variant)
                    assert got == histogram(paths, variant), (spec, length)
                    assert got.k == spec.k
        assert len(_packing(10 ** 5, 5)) == 8  # six residues, dd and 0

    def test_a_huge_k_packs_few_weights(self):
        start = time.perf_counter()
        assert family_histogram(FamilySpec(10 ** 11), 5).counts == {}
        got = family_histogram(FamilySpec(10 ** 5, {1: 1}), 3, WEAK_STARRED)
        assert got.counts == {(1,) + (0,) * 10 ** 5: 1}
        assert time.perf_counter() - start < 1.0

    def test_length_zero_is_the_empty_path(self):
        for spec in (FamilySpec(3), MOTZKIN, SCHROEDER):
            for variant in VARIANTS:
                h = family_histogram(spec, 0, variant)
                assert h.counts == {(0,) * (spec.k + 1): 1} and h.total == 1

    def test_length_below_the_end_height_is_empty(self):
        for spec, length in ((FamilySpec(2, end_height=3), 2),
                             (FamilySpec(1, {1: 1}, 2), 1),
                             (FamilySpec(1, end_height=1), 0)):
            for variant in VARIANTS:
                h = family_histogram(spec, length, variant)
                assert h.counts == {} and h.total == 0 and h.k == spec.k
                assert h == histogram(gen_kac(spec, length), variant)

    def test_exactly_cap_paths_then_the_cap(self):
        for spec, length in ((FamilySpec(2), 9), (MOTZKIN, 6),
                             (FamilySpec(1, {1: 2, 3: 1}, 1), 5)):
            size = sum(1 for _ in gen_kac(spec, length))
            for variant in VARIANTS:
                h = family_histogram(spec, length, variant, max_objects=size)
                assert h.total == size
                with pytest.raises(ResourceLimitError):
                    family_histogram(spec, length, variant, size - 1)
        with pytest.raises(ResourceLimitError):
            family_histogram(MOTZKIN, 0, max_objects=0)

    def test_first_cap_of_a_deep_family(self):
        limit = sys.getrecursionlimit()
        for variant in (PLAIN, PLAIN_STARRED):
            with pytest.raises(ResourceLimitError):
                family_histogram(FamilySpec(1), 2 * 10 ** 4, variant,
                                 max_objects=1)
        assert sys.getrecursionlimit() == limit

    def test_every_path_is_built_and_validated(self, monkeypatch):
        want = [p.steps for p in gen_kac(MOTZKIN, 6)]
        built = []
        init = LatticePath.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.steps)

        monkeypatch.setattr(LatticePath, "__init__", recording)
        family_histogram(MOTZKIN, 6, WEAK)
        assert built == want

    @pytest.mark.parametrize("spec, length", [
        (FamilySpec(1), 8), (MOTZKIN, 6), (FamilySpec(2, {1: 2, 3: 1}, 2), 6),
    ])
    def test_one_validation_per_path_in_stream_order(self, monkeypatch,
                                                     spec, length):
        want = [p.steps for p in gen_kac(spec, length)]
        built = []
        init = LatticePath.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.steps)

        monkeypatch.setattr(LatticePath, "__init__", recording)
        for variant in VARIANTS:
            built.clear()
            family_histogram(spec, length, variant)
            assert built == want, variant

    def test_every_cap_below_the_size(self):
        # twelve paths, read from several tables
        spec, length = FamilySpec(2), 9
        want = [p.steps for p in gen_kac(spec, length)]
        assert len(want) == 12
        assert len(list(enumeration._walk(spec, length, None, [0]))) > 1
        for cap in range(len(want)):
            for variant in VARIANTS:
                with pytest.raises(ResourceLimitError):
                    family_histogram(spec, length, variant, cap)
            stream = gen_kac(spec, length, cap)
            assert [next(stream).steps for _ in range(cap)] == want[:cap]
            with pytest.raises(ResourceLimitError):
                next(stream)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="unknown variant"):
            family_histogram(MOTZKIN, 3, "starred")
        with pytest.raises(ValueError) as exc:
            histogram(gen_kac(MOTZKIN, 3), "bogus")
        assert str(exc.value) == "unknown variant 'bogus'"
        with pytest.raises(ValueError, match="length must be >= 0"):
            family_histogram(MOTZKIN, -1)
        with pytest.raises(ValueError, match="--limit"):
            family_histogram(MOTZKIN, 3, max_objects=-1)


LEVEL_MAPS = ({}, {1: 1}, {2: 1}, {1: 2, 3: 1})


def forced_grid(pure_top, level_top):
    """(spec, length) over k <= 3, end height m <= 4 and LEVEL_MAPS, with
    lengths up to pure_top (level_top with levels) less one for k >= 2."""
    for k in (1, 2, 3):
        for m in range(5):
            for levels in LEVEL_MAPS:
                top = (level_top if levels else pure_top) - (k > 1)
                for length in range(top + 1):
                    yield FamilySpec(k, levels, m), length


def jumped(path):
    """Whether the walk ends this path with a forced run: after some step
    but the last, only downs or only ups can still reach the end height."""
    k, m = path.spec.k, path.spec.end_height
    rem, h = path.path_length, 0
    for s in path.steps[:-1]:
        rem -= s.length
        h += {"u": 1, "d": -k}.get(s.kind, 0)
        if h - k * rem == m or h + rem == m:
            return True
    return False


def filter_over_all_words(spec, length):
    """The family's step tuples, in the order of the words over u < d <
    level steps that validate."""
    moves = [UP, DOWN, *spec.level_steps()]
    want = []
    for n in range(length + 1):
        for word in product(range(len(moves)), repeat=n):
            steps = [moves[j] for j in word]
            if sum(s.length for s in steps) == length:
                try:
                    want.append((word, validate(spec, steps).steps))
                except PathError:
                    pass
    return [steps for _, steps in sorted(want)]


class TestForcedRuns:
    """The walk reads each path's tail from a completion table: a forced
    run of downs or ups is a one-entry table below the table depth, and is
    walked step by step above it."""

    def test_histograms_match_the_stat_vector_route(self):
        for spec, length in forced_grid(12, 8):
            paths = list(gen_kac(spec, length))
            for variant in VARIANTS:
                assert family_histogram(spec, length, variant) == \
                    histogram(paths, variant), (spec, length, variant)

    def test_order_is_a_filter_over_all_words(self):
        for spec, length in forced_grid(6, 6):
            assert [p.steps for p in gen_kac(spec, length)] == \
                filter_over_all_words(spec, length), (spec, length)

    @pytest.mark.parametrize("spec, length", [
        (FamilySpec(1), 8), (FamilySpec(3), 8),
        (FamilySpec(1, end_height=2), 6), (FamilySpec(2, end_height=1), 7),
        (FamilySpec(1, {1: 1}, 1), 5), (FamilySpec(2, {1: 2, 3: 1}, 2), 6),
    ])
    def test_cap_at_a_jumped_last_path(self, spec, length):
        paths = list(gen_kac(spec, length))
        assert jumped(paths[-1])
        size = len(paths)
        assert list(gen_kac(spec, length, size)) == paths
        with pytest.raises(ResourceLimitError):
            list(gen_kac(spec, length, size - 1))
        for variant in VARIANTS:
            assert family_histogram(spec, length, variant, size).total == size
            with pytest.raises(ResourceLimitError):
                family_histogram(spec, length, variant, size - 1)


def walk_tables(spec, length):
    """The depth and tables the walk builds for a family; their tails are
    the same in every variant."""
    return _completions(spec, length, closing_rows(None, spec.k),
                        _packing(spec.k, length), False)


class TestTableBoundary:
    """Families drawn around the depth R at which the walk starts reading
    tables, with level runs that straddle rem = R."""

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(st.integers(1, 3), st.integers(0, 4),
           st.sampled_from(({2: 1}, {3: 1}, {1: 2, 3: 1})),
           st.integers(0, 3), st.integers(-1, 3))
    def test_walk_equals_the_references(self, k, m, levels, depth, offset):
        spec = FamilySpec(k, levels, m)
        length = max(depth + offset, 0)
        # a budget of exactly the entries up to depth makes R = depth, or
        # length // 2 if that is less
        tables = walk_tables(spec, length)[1]
        budget = sum(len(tails) for (rem, _, _), (tails, _, _) in
                     tables.items() if rem <= depth)
        saved = enumeration.TABLE_ENTRIES
        enumeration.TABLE_ENTRIES = budget
        try:
            assert walk_tables(spec, length)[0] >= min(depth, length // 2)
            paths = list(gen_kac(spec, length))
            assert [p.steps for p in paths] == \
                filter_over_all_words(spec, length)
            for variant in VARIANTS:
                assert family_histogram(spec, length, variant) == \
                    histogram(paths, variant), variant
            if not tables:  # an empty family has no table
                assert paths == []
                for variant in VARIANTS:
                    assert family_histogram(spec, length, variant).counts \
                        == {}
        finally:
            enumeration.TABLE_ENTRIES = saved


class TestEmptyFamilies:
    """A family whose end height is not in the class that every move keeps
    (steps taken - height) in, mod gcd(k + 1, run-lengths), gets no table,
    so both consumers return at once even where the length is far past
    what a walk could finish."""

    @pytest.mark.parametrize("spec, length", [
        (FamilySpec(1), 1001),
        (FamilySpec(2), 62),
        (FamilySpec(1, {2: 1}), 301),
        (FamilySpec(3, end_height=2), 403),
    ], ids=["k1", "k2", "k1-levels-2", "k3-ballot"])
    def test_nothing_is_walked(self, spec, length):
        assert walk_tables(spec, length)[1] == {}
        assert list(gen_kac(spec, length)) == []
        for variant in VARIANTS:
            hist = family_histogram(spec, length, variant)
            assert hist.counts == {} and hist.total == 0, variant

    def test_no_down_lands_on_the_end_height(self):
        # the gcd class holds this family (gcd(k + 1, 3) = 1), but from any
        # height above 0 the fewest steps back to 0 are k = 10**6, so the
        # walk takes level steps only, and 200 is no multiple of 3
        spec = FamilySpec(10 ** 6, {3: 1})
        start = time.perf_counter()
        assert list(gen_kac(spec, 200)) == []
        for variant in VARIANTS:
            hist = family_histogram(spec, 200, variant)
            assert hist.counts == {} and hist.total == 0, variant
        assert time.perf_counter() - start < 1.0

    def test_no_sum_of_run_lengths_makes_the_length(self):
        # no down fits in 201 steps at k = 10**6, so the class is mod
        # gcd(4, 6) = 2 alone, and 201 is odd: no table, nothing walked
        spec = FamilySpec(10 ** 6, {4: 1, 6: 1})
        start = time.perf_counter()
        assert walk_tables(spec, 201)[1] == {}
        assert list(gen_kac(spec, 201)) == []
        for variant in VARIANTS:
            hist = family_histogram(spec, 201, variant)
            assert hist.counts == {} and hist.total == 0, variant
        assert time.perf_counter() - start < 1.0

    def test_a_family_with_no_move_but_ups(self):
        # no level step and no room for a down: only length m has a path
        spec = FamilySpec(5, end_height=3)
        assert walk_tables(spec, 4)[1] == {}
        assert list(gen_kac(spec, 4)) == []
        assert [p.text() for p in gen_kac(spec, 3)] == ["uuu"]
        for variant in VARIANTS:
            assert family_histogram(spec, 4, variant).total == 0, variant
            assert family_histogram(spec, 3, variant) == \
                histogram(gen_kac(spec, 3), variant), variant

    @pytest.mark.parametrize("argv, out", [
        (["enumerate", "--length", "0", "--levels", "3:1000000000000"],
         "\n"),
        (["histogram", "--k", "2", "--levels", "5:1000000000000",
          "--length", "4", "--variant", "weak"],
         '{"entries":[],"total":0}\n'),
    ], ids=["empty-path", "empty-family"])
    def test_colors_of_runs_that_cannot_fit_are_not_listed(self, capsys,
                                                           argv, out):
        # 10**12 colors of a run longer than the path make no move
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_packing_weights_are_powers_of_the_base(self):
        for k in range(1, 8):
            for length in range(10):
                assert _packing(k, length) == \
                    [(length + 1) ** i
                     for i in range(min(k, length + 1) + 1)] + [0]


class TestSizeArguments:
    """The walks read their sizes by the one integer rule at entry."""

    @pytest.mark.parametrize("name, call", [
        ("length", lambda x: list(gen_kac(FamilySpec(1), x))),
        ("length", lambda x: family_histogram(FamilySpec(1), x)),
        ("n", lambda x: list(gen_k_dyck(1, x))),
        ("n", lambda x: list(gen_ballot(1, 1, x))),
        ("arity", lambda x: list(gen_trees(x, 2))),
        ("n", lambda x: list(gen_trees(2, x))),
    ], ids=["gen_kac", "family_histogram", "gen_k_dyck", "gen_ballot",
            "gen_trees-arity", "gen_trees-n"])
    @pytest.mark.parametrize("bad", [2.5, "4", None])
    def test_non_integral_sizes_name_the_parameter(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(bad)

    def test_integral_values_are_read_as_ints(self):
        assert list(gen_kac(FamilySpec(1), 4.0)) == \
            list(gen_kac(FamilySpec(1), 4))
        assert family_histogram(FamilySpec(1), 4.0) == \
            family_histogram(FamilySpec(1), 4)
        assert list(gen_k_dyck(2, 2.0)) == list(gen_k_dyck(2, 2))
        assert list(gen_trees(2.0, 3)) == list(gen_trees(2, 3))
        assert list(gen_trees(2, 3.0)) == list(gen_trees(2, 3))
        assert [p.text() for p in gen_kac(MOTZKIN, True)] == ["l1_1"]


class TestPathValues:
    """LatticePath is a frozen value with slots."""

    def test_frozen(self):
        p = next(gen_kac(MOTZKIN, 3))
        for field in ("spec", "steps", "start_height"):
            with pytest.raises(FrozenInstanceError):
                setattr(p, field, getattr(p, field))
            with pytest.raises(FrozenInstanceError):
                delattr(p, field)
        assert not hasattr(p, "__dict__")

    @pytest.mark.parametrize("name", ["spec", "steps", "start_height", "k",
                                      "foo", "__dict__"])
    @pytest.mark.parametrize("delete", [False, True], ids=["set", "delete"])
    def test_every_name_is_frozen(self, name, delete):
        # names that are no field, "foo" among them, included
        p = next(gen_kac(MOTZKIN, 3))
        with pytest.raises(FrozenInstanceError):
            if delete:
                delattr(p, name)
            else:
                setattr(p, name, 1)
        assert p == next(gen_kac(MOTZKIN, 3))

    def test_equality_and_hash(self):
        for spec, length in ((FamilySpec(2), 6), (MOTZKIN, 4)):
            paths = list(gen_kac(spec, length))
            copies = [LatticePath(spec, list(p.steps)) for p in paths]
            assert copies == paths
            assert [hash(q) for q in copies] == [hash(p) for p in paths]
            assert len(set(paths) | set(copies)) == len(paths)
        p = LatticePath(FamilySpec(2), (UP, UP, DOWN))
        assert p != LatticePath(FamilySpec(2), p.steps, 1)
        assert p != LatticePath(FamilySpec(2, end_height=3), (UP, UP, UP))
        assert p != p.steps

    def test_repr_and_copies(self):
        p = LatticePath(FamilySpec(1), (UP, DOWN), 2)
        assert repr(p) == (
            "LatticePath(spec=FamilySpec(k=1, levels=(), end_height=0), "
            "steps=(Step(kind='u', length=1, color=0), "
            "Step(kind='d', length=1, color=0)), start_height=2)")
        for q in (pickle.loads(pickle.dumps(p)), copy.copy(p),
                  copy.deepcopy(p)):
            assert q == p and hash(q) == hash(p)

"""Peak/double-descent statistics in all four variants, plus labeling."""

import random

import pytest
from hypothesis import given

from peakmod import (
    EmptyPathError,
    FamilySpec,
    LatticePath,
    NodeLabel,
    PositionalTree,
    double_descents,
    e_vector,
    gen_k_dyck,
    gen_kac,
    label_features,
    parse_path,
    peaks,
    stat_vector,
    weak_double_descents,
    weak_peaks,
)
from peakmod.core import parse_steps
from peakmod.statistics import (
    DD,
    PEAK,
    PLAIN,
    PLAIN_STARRED,
    STARRED,
    TRANSITIONS,
    VARIANTS,
    WEAK,
    WEAK_STARRED,
)

from conftest import (
    EXAMPLE_BLOCK,
    K2,
    MOTZKIN,
    block_tallies,
    dyck,
    k_dyck_paths,
    oracle_grid,
    uniform_path,
)


class TestPeaks:
    def test_three_equal_peaks(self):
        assert [h for _, h in peaks(dyck("uuduuduud"))] == [2, 2, 2]

    def test_empty(self):
        assert peaks(LatticePath(K2)) == []

    def test_single_high_peak(self):
        assert [h for _, h in peaks(dyck("uuuuuuddd"))] == [6]

    def test_lifted_heights(self):
        p = LatticePath(K2, parse_path("uud", K2).steps, start_height=3)
        assert peaks(p) == [(1, 5)]


class TestDoubleDescents:
    def test_two(self):
        assert double_descents(dyck("uuuuuuddd")) == [6, 7]

    def test_none(self):
        assert double_descents(dyck("uud")) == []
        assert double_descents(dyck("uuduuduud")) == []


class TestStatVector:
    def test_unknown_variant(self):
        with pytest.raises(ValueError) as exc:
            stat_vector(dyck("uud"), "bogus")
        assert str(exc.value) == "unknown variant 'bogus'"

    def test_example_block(self):
        v = stat_vector(dyck(EXAMPLE_BLOCK))
        assert v.pk == (1, 1) and v.dd == 1

    def test_motzkin_weak(self):
        v = stat_vector(parse_path("ul1_1dl1_1l1_1", MOTZKIN), WEAK)
        assert (v.pk[0], v.dd) == (0, 1)

    def test_plain_starred(self):
        v = stat_vector(dyck("uuduuduud"), PLAIN_STARRED)
        assert v.pk == (3, 0) and v.dd == 0

    def test_starred_adds_rightmost_residue(self):
        # derived by a direct scan of each figure path
        for text in ("uuuuuuddd", "uuduuduud", "uuuuududd"):
            p = dyck(text)
            plain = stat_vector(p, PLAIN)
            star = stat_vector(p, PLAIN_STARRED)
            rightmost_res = peaks(p)[-1][1] % 2
            diff = [s - q for s, q in zip(star.pk, plain.pk)]
            assert diff[rightmost_res] == 1 and sum(diff) == 1
            assert star.dd == plain.dd

    def test_feature_budget_plain(self):
        # every down except the rightmost peak's carries one feature
        for n in range(1, 5):
            from peakmod import gen_k_dyck
            for p in gen_k_dyck(2, n):
                v = stat_vector(p)
                assert sum(v.pk) + v.dd == n - 1

    def test_feature_budget_starred_ballot(self):
        from peakmod import gen_ballot
        for n in range(4):
            for p in gen_ballot(2, 1, n):
                v = stat_vector(p, PLAIN_STARRED)
                assert sum(v.pk) + v.dd == n

    def test_every_down_is_accounted_for(self):
        # each down-step is preceded by u (a peak), d, or l (a weak double
        # descent), so peak blocks plus weak double descents count the downs
        from peakmod import gen_kac
        from conftest import SCHROEDER
        for spec in (MOTZKIN, SCHROEDER):
            for L in range(7):
                for p in gen_kac(spec, L):
                    assert len(peaks(p)) + len(weak_double_descents(p)) == \
                        p.down_size

    def test_weak_starred_adds_rightmost_weak_residue(self):
        from peakmod import gen_kac
        for L in range(6):
            for p in gen_kac(MOTZKIN, L):
                weak = stat_vector(p, WEAK)
                star = stat_vector(p, WEAK_STARRED)
                wp = weak_peaks(p)
                if not wp:
                    assert weak.key() == star.key()
                    continue
                diff = [s - q for s, q in zip(star.pk, weak.pk)]
                assert diff[wp[-1][1] % p.spec.k] == 1 and sum(diff) == 1
                assert star.dd == weak.dd

    @given(k_dyck_paths())
    def test_weak_equals_plain_without_levels(self, path):
        assert stat_vector(path, WEAK).key() == stat_vector(path, PLAIN).key()
        assert stat_vector(path, WEAK_STARRED).key() == \
            stat_vector(path, PLAIN_STARRED).key()

    def test_json_shape(self):
        v = stat_vector(dyck("uud"))
        assert v.to_json() == {"k": 2, "variant": "plain",
                               "pk": [0, 0], "dd": 0}


class TestWeakBlocks:
    def test_level_only_path_has_one_weak_peak(self):
        p = parse_path("l1_1l1_1l1_1", MOTZKIN)
        assert weak_peaks(p) == [(0, 0)]
        v = stat_vector(p, WEAK)
        assert v.pk == (0,) and v.dd == 0

    def test_level_then_descend(self):
        # l u l d l: opening level step and u-l block are weak peaks,
        # the l-d block is a weak double descent
        p = parse_path("l1_1ul1_1dl1_1", MOTZKIN)
        assert [h for _, h in weak_peaks(p)] == [0, 1]
        assert weak_double_descents(p) == [2]

    def test_ul_and_ld_share_a_level_step(self):
        p = parse_path("ul1_1d", MOTZKIN)
        assert len(weak_peaks(p)) == 1
        assert len(weak_double_descents(p)) == 1

    def test_ud_weak_peak_height_is_its_top(self):
        # the peak vertex of the ud block sits at height 2; the height
        # after the down-step, 0, has the same residue mod 2
        p = parse_path("uudl1_1", FamilySpec(2, {1: 1}))
        assert [h for _, h in weak_peaks(p)] == [2]


class TestOnePassStatVector:
    def test_matches_block_tallies(self):
        # the oracle grid and its copies lifted to start heights 1..3
        opening_levels = 0
        for spec, length in oracle_grid():
            for p in gen_kac(spec, length):
                if p.steps and p.steps[0].kind == "l":
                    opening_levels += 1
                for start in range(4):
                    q = LatticePath(spec, p.steps, start) if start else p
                    got = {v: stat_vector(q, v).key() for v in VARIANTS}
                    assert got == block_tallies(q), (q.text(), start)
        assert opening_levels > 0


def table_scan(path, variant):
    """The statistic vector read off TRANSITIONS step by step."""
    k = path.spec.k
    blocks = TRANSITIONS[variant]
    pk, dd, held = [0] * k, 0, -1
    h, prev = path.start_height, ""
    for s in path.steps:
        block = blocks.get((prev, s.kind))
        if block == PEAK:
            if held >= 0:
                pk[held] += 1
            held = h % k
        elif block == DD:
            dd += 1
        h += {"u": 1, "d": -k}.get(s.kind, 0)
        prev = s.kind
    if held >= 0 and variant in STARRED:
        pk[held] += 1
    return tuple(pk) + (dd,)


class TestTransitions:
    def test_the_table(self):
        plain = {("u", "d"): PEAK, ("d", "d"): DD}
        weak = {**plain, ("u", "l"): PEAK, ("", "l"): PEAK, ("l", "d"): DD}
        assert TRANSITIONS == {PLAIN: plain, PLAIN_STARRED: plain,
                               WEAK: weak, WEAK_STARRED: weak}
        assert STARRED == (PLAIN_STARRED, WEAK_STARRED)

    def test_matches_block_tallies(self):
        for spec, length in oracle_grid():
            for p in gen_kac(spec, length):
                for start in range(3):
                    q = LatticePath(spec, p.steps, start) if start else p
                    got = {v: table_scan(q, v) for v in VARIANTS}
                    assert got == block_tallies(q), (q.text(), start)


class TestLabelFeatures:
    def test_example_sequence(self, example_path):
        labels = label_features(example_path)
        displayed = [labels[i].display() for i in sorted(labels)]
        assert displayed == ["0_1", "1_1", "0_2", "d_1", "1_2",
                             "0_3", "1_3", "d_2", "r", "d_3"]

    def test_smallest(self):
        assert {i: lab.display() for i, lab in
                label_features(dyck("uud")).items()} == {1: "r"}

    def test_single_peak_two_descents(self):
        labels = label_features(dyck("uuuuuuddd"))
        assert {i: lab.display() for i, lab in labels.items()} == \
            {5: "r", 6: "d_1", 7: "d_2"}

    def test_empty_path_rejected(self):
        with pytest.raises(EmptyPathError):
            label_features(LatticePath(K2))

    @given(k_dyck_paths(max_n=4))
    def test_label_count_and_gapless_ordinals(self, path):
        if path.is_empty():
            return
        labels = label_features(path)
        v = stat_vector(path)
        assert len(labels) == sum(v.pk) + v.dd + 1
        per_class: dict = {}
        for i in sorted(labels):
            lab = labels[i]
            if lab.kind == "peak":
                per_class.setdefault(lab.residue, []).append(lab.ordinal)
            elif lab.kind == "dd":
                per_class.setdefault("dd", []).append(lab.ordinal)
        for ordinals in per_class.values():
            assert ordinals == list(range(1, len(ordinals) + 1))


def labels_by_definition(path):
    """The feature labels read off :func:`peaks` and
    :func:`double_descents`, each made by the checked constructor."""
    k = path.spec.k
    pts = peaks(path)
    labels, ordinals = {}, [0] * k
    for i, h in pts[:-1]:
        ordinals[h % k] += 1
        labels[i] = NodeLabel("peak", residue=h % k,
                              ordinal=ordinals[h % k])
    labels[pts[-1][0]] = NodeLabel("r")
    for j, i in enumerate(double_descents(path), start=1):
        labels[i] = NodeLabel("dd", ordinal=j)
    return labels


def assert_labels_by_definition(path):
    labels = label_features(path)
    assert labels == labels_by_definition(path)
    for label in labels.values():
        assert type(label) is NodeLabel
        assert label == NodeLabel(label.kind, label.residue, label.ordinal)
        assert vars(label) == vars(NodeLabel(label.kind, label.residue,
                                             label.ordinal))


class TestLabelsOnePass:
    """label_features finds the features in one pass and makes its labels
    unchecked; they are the labels of the definition, as the checked
    constructor makes them (the dict's key order may differ)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_small_path(self, k):
        count = 0
        for n in range(1, 7):
            for path in gen_k_dyck(k, n):
                assert_labels_by_definition(path)
                count += 1
        assert count == {1: 196, 2: 1772, 3: 8220}[k]

    def test_seeded_long_paths(self):
        rng = random.Random("label_features n=500")
        for i in range(20):
            k = 1 + i % 3
            path = parse_path(uniform_path(rng, k, 500), FamilySpec(k))
            assert_labels_by_definition(path)

    def test_lifted_start(self):
        # a path started higher may open with a down-step
        spec = FamilySpec(1)
        path = LatticePath(spec, parse_steps("duud"), 1)
        assert_labels_by_definition(path)
        with pytest.raises(ValueError, match="feature labels need a peak"):
            label_features(LatticePath(spec, parse_steps("du"), 1))

    def test_level_families_refused(self):
        with pytest.raises(ValueError, match="pure k-Dyck"):
            label_features(parse_path("ud", FamilySpec(1, {1: 1})))


class TestEVector:
    def test_single_node(self):
        assert e_vector(PositionalTree(3)) == (0, 0, 0)

    def test_chain(self):
        chain = PositionalTree(
            3, ((1, PositionalTree(3, ((1, PositionalTree(3)),))),))
        assert e_vector(chain) == (2, 0, 0)

    def test_example_tree(self, example_path):
        from peakmod import path_to_tree
        assert e_vector(path_to_tree(example_path)) == (3, 3, 3)

    def test_empty_tree_needs_arity(self):
        assert e_vector(None, 4) == (0, 0, 0, 0)
        with pytest.raises(ValueError):
            e_vector(None)

    def test_records_count_matches_the_node_walk(self):
        # reference: the children of every node, reached by iter_nodes
        from peakmod import gen_trees

        def node_counts(tree):
            counts = [0] * tree.arity
            for node in tree.iter_nodes():
                for pos, _ in node.children:
                    counts[pos - 1] += 1
            return tuple(counts)

        for arity, max_n in ((1, 5), (2, 6), (3, 5), (4, 4), (12, 3)):
            for n in range(1, max_n + 1):
                for tree in gen_trees(arity, n):
                    assert e_vector(tree) == node_counts(tree)
                    assert e_vector(tree, arity) == node_counts(tree)
        with pytest.raises(ValueError):
            e_vector(PositionalTree(3), 4)

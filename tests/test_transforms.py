"""Decompositions, the cyclic shift, the involution, subtree permutation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from peakmod import (
    BadPermutationError,
    EmptyPathError,
    FamilySpec,
    LatticePath,
    NegativeHeightError,
    PathError,
    PositionalTree,
    WrongEndHeightError,
    WrongKError,
    ballot_decompose,
    cyclic_shift,
    deutsch_involution,
    e_vector,
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    height_profile,
    last_step_decompose,
    lift,
    parse_path,
    permute_subtrees,
    right_peak_decompose,
    stat_vector,
)
from peakmod.bijections import (path_to_labeled_tree, path_to_tree,
                                 permute_statistics)
from peakmod.core import parse_steps

from conftest import (
    EXAMPLE_BLOCK,
    K2,
    MOTZKIN,
    SCHROEDER,
    dyck,
    k_dyck_paths,
)


class TestLift:
    def test_heights_shift(self):
        p = lift(dyck("uud"), 1)
        assert height_profile(p) == [1, 2, 3, 1]

    def test_empty(self):
        p = lift(LatticePath(K2), 5)
        assert p.is_empty() and p.start_height == 5

    def test_example_middle_block(self):
        p = lift(dyck(EXAMPLE_BLOCK), 1)
        assert height_profile(p) == \
            [1, 2, 3, 1, 2, 3, 4, 5, 6, 4, 5, 3, 1]


class TestRightPeakDecompose:
    def test_example_block(self):
        d = right_peak_decompose(dyck(EXAMPLE_BLOCK))
        assert d.suffix_downs == 2
        assert [b.text() for b in d.blocks] == ["uud", "", "", "uud"]

    def test_smallest(self):
        d = right_peak_decompose(dyck("uud"))
        assert d.suffix_downs == 1
        assert [b.text() for b in d.blocks] == ["", ""]

    def test_all_blocks_empty(self):
        d = right_peak_decompose(dyck("uuuuuuddd"))
        assert d.suffix_downs == 3
        assert [b.text() for b in d.blocks] == [""] * 6

    def test_empty_path_rejected(self):
        with pytest.raises(EmptyPathError):
            right_peak_decompose(LatticePath(K2))

    @given(k_dyck_paths())
    def test_reassembly_and_uniqueness(self, path):
        if path.is_empty():
            return
        d = right_peak_decompose(path)
        again = d.reassemble()
        assert again == path
        d2 = right_peak_decompose(again)
        assert d2.blocks == d.blocks and d2.suffix_downs == d.suffix_downs


class TestCyclicShift:
    def test_worked_example(self):
        assert cyclic_shift(dyck(EXAMPLE_BLOCK)).text() == "uuuduuuduudd"

    def test_fixed_point(self):
        assert cyclic_shift(dyck("uud")).text() == "uud"

    def test_empty(self):
        assert cyclic_shift(LatticePath(K2)).is_empty()

    def test_order_divides_k_exhaustive(self):
        for n in range(6):
            for p in gen_k_dyck(2, n):
                assert cyclic_shift(cyclic_shift(p)) == p

    @given(k_dyck_paths(), st.integers(0, 6))
    def test_power_formula_matches_iteration(self, path, power):
        by_formula = cyclic_shift(path, power)
        stepwise = path
        for _ in range(power):
            stepwise = cyclic_shift(stepwise)
        assert by_formula == stepwise

    @given(k_dyck_paths())
    def test_kth_power_is_identity(self, path):
        assert cyclic_shift(path, path.spec.k) == path

    def test_hundred_thousand_down_steps(self):
        # w windows of two slots with "uud" in the first slot of each, then
        # d^w: down-size 2w = 10^5.  One shift swaps the slots of every
        # window; the cuts come from one scan, so the interpreter limit is
        # neither hit nor raised
        import sys

        limit = sys.getrecursionlimit()
        w = 5 * 10 ** 4
        path = dyck("uuduu" * w + "d" * w)
        shifted = cyclic_shift(path)
        assert shifted == dyck("uuudu" * w + "d" * w)
        assert cyclic_shift(shifted) == path
        assert cyclic_shift(path, 2) == path
        assert sys.getrecursionlimit() == limit

    @given(k_dyck_paths())
    def test_lowering_preserves_block_residues(self, path):
        # peaks inside blocks keep their heights mod k between the lifted
        # path and every power of the shift; double descents are untouched
        if path.is_empty():
            return
        k = path.spec.k
        for power in range(k + 1):
            assert _block_residues(lift(path, power)) == \
                _block_residues(cyclic_shift(path, power))
            assert stat_vector(cyclic_shift(path, power)).dd == \
                stat_vector(path).dd


def _block_residues(path):
    """Multiset of in-block peak residues of the right-peak decomposition,
    computed at the path's own start height."""
    from peakmod import peaks, right_peak_decompose

    base = LatticePath(FamilySpec(path.spec.k), path.steps)
    d = right_peak_decompose(base)
    k = path.spec.k
    out = []
    h = path.start_height
    for j, block in enumerate(d.blocks):
        lifted = LatticePath(block.spec, block.steps, path.start_height + j)
        out.extend(ht % k for _, ht in peaks(lifted))
    return sorted(out)


class TestLastStepDecompose:
    def test_example(self, example_path):
        d = last_step_decompose(example_path)
        assert [p.text() for p in d.parts] == \
            [EXAMPLE_BLOCK, EXAMPLE_BLOCK, "uud"]
        assert d.level_suffix == ()

    def test_smallest(self):
        d = last_step_decompose(dyck("uud"))
        assert [p.text() for p in d.parts] == ["", "", ""]

    def test_motzkin_level_suffix(self):
        d = last_step_decompose(parse_path("ul1_1dl1_1l1_1", MOTZKIN))
        assert not d.is_level_only
        assert [p.text() for p in d.parts] == ["", "l1_1"]
        assert [s.token() for s in d.level_suffix] == ["l1_1", "l1_1"]
        assert d.reassemble().text() == "ul1_1dl1_1l1_1"

    def test_level_only(self):
        d = last_step_decompose(parse_path("l1_1l1_1", MOTZKIN))
        assert d.is_level_only
        assert [s.token() for s in d.level_suffix] == ["l1_1", "l1_1"]

    def test_empty_is_degenerate(self):
        d = last_step_decompose(LatticePath(K2))
        assert d.is_level_only and d.level_suffix == ()

    @given(k_dyck_paths())
    def test_reassembly(self, path):
        assert last_step_decompose(path).reassemble() == path


class TestBallotDecompose:
    def test_single_up(self):
        p = parse_path("u", FamilySpec(2, end_height=1))
        d = ballot_decompose(p)
        assert [q.text() for q in d.parts] == ["", ""]

    def test_last_passage(self):
        p = parse_path("uudu", FamilySpec(2, end_height=1))
        d = ballot_decompose(p)
        assert [q.text() for q in d.parts] == ["uud", ""]
        assert d.reassemble() == p

    def test_m_zero_is_whole_path(self):
        p = dyck("uuduud")
        d = ballot_decompose(p)
        assert [q.text() for q in d.parts] == ["uuduud"]

    def test_wrong_m_rejected(self):
        p = parse_path("u", FamilySpec(2, end_height=1))
        with pytest.raises(WrongEndHeightError):
            ballot_decompose(p, 2)

    def test_reassembly_exhaustive(self):
        from peakmod import gen_ballot
        for k, m in ((1, 2), (2, 1), (2, 3), (3, 2)):
            for n in range(3):
                for p in gen_ballot(k, m, n):
                    assert ballot_decompose(p).reassemble() == p


class TestLastPassageCuts:
    def test_level_bearing_reassembly(self):
        for levels in ({1: 1}, {2: 1}, {1: 2, 3: 1}):
            for m in (0, 2):
                spec = FamilySpec(1, levels, m)
                for length in range(8):
                    for p in gen_kac(spec, length):
                        assert ballot_decompose(p).reassemble() == p
                        if m == 0:
                            assert last_step_decompose(p).reassemble() == p

    def test_lifted_cuts_match_unlifted(self):
        paths = [p for k, max_n in ((1, 5), (2, 4), (3, 3))
                 for n in range(max_n + 1) for p in gen_k_dyck(k, n)]
        paths += [p for n in range(4) for p in gen_ballot(2, 2, n)]
        paths += [p for spec in (MOTZKIN, SCHROEDER)
                  for length in range(7) for p in gen_kac(spec, length)]
        for p in paths:
            pure = p.spec.end_height == 0 and not p.spec.has_levels
            for amount in (1, 2, 3):
                q = lift(p, amount)
                assert ballot_decompose(q) == ballot_decompose(p)
                if p.spec.end_height == 0:
                    assert last_step_decompose(q) == last_step_decompose(p)
                if pure and not p.is_empty():
                    assert right_peak_decompose(q) == \
                        right_peak_decompose(p)
                if pure:
                    for power in range(p.spec.k + 1):
                        assert cyclic_shift(q, power) == \
                            lift(cyclic_shift(p, power), amount)


class TestRequirePure:
    """The operations on pure k-Dyck paths refuse a level step, and the
    tree maps, which read the steps from height 0, a lifted path."""

    OPS = {"path_to_tree": path_to_tree,
           "path_to_labeled_tree": path_to_labeled_tree,
           "permute_statistics": lambda p: permute_statistics(p, [2, 1]),
           "right_peak_decompose": right_peak_decompose,
           "cyclic_shift": cyclic_shift,
           "deutsch_involution": deutsch_involution}

    def test_level_steps_are_refused(self):
        for text, spec in (("ul1_1d", MOTZKIN), ("l2_1", SCHROEDER),
                           ("ul1_1", FamilySpec(1, {1: 1}, 1))):
            p = parse_path(text, spec)
            for name, op in self.OPS.items():
                with pytest.raises(ValueError) as err:
                    op(p)
                assert str(err.value) == (f"{name} requires a pure k-Dyck "
                                          "path without level steps")

    def test_the_tree_maps_refuse_a_lifted_path(self):
        # read from height 0 the witness would map to e-vector (0, 1, 2),
        # while its statistic vector is (1, 0, 2)
        witness = lift(dyck("uuuuuuududdd"), 1)
        maps = {"path_to_tree": path_to_tree,
                "path_to_labeled_tree": path_to_labeled_tree,
                "permute_statistics": lambda p: permute_statistics(
                    p, [1, 2, 3])}
        for name, op in maps.items():
            with pytest.raises(PathError) as err:
                op(witness)
            assert str(err.value) == (f"{name} requires a path starting at "
                                      "height 0, got 1")
            for p in [LatticePath(K2), *gen_k_dyck(2, 4)]:
                for amount in (1, 2, 5):
                    if p.steps or name != "path_to_labeled_tree":
                        with pytest.raises(PathError, match=name):
                            op(lift(p, amount))

    def test_a_level_family_without_level_steps_passes(self):
        p, q = parse_path("uudd", MOTZKIN), dyck("uudd", 1)
        assert path_to_tree(p) == path_to_tree(q)
        assert cyclic_shift(p).steps == cyclic_shift(q).steps
        assert deutsch_involution(p).steps == deutsch_involution(q).steps


class TestDeutschInvolution:
    def test_smallest(self):
        assert deutsch_involution(dyck("ud", 1)).text() == "ud"

    def test_one_recursion(self):
        assert deutsch_involution(dyck("uudd", 1)).text() == "udud"

    def test_requires_k1(self):
        with pytest.raises(WrongKError):
            deutsch_involution(dyck("uud"))

    def test_involution_and_swap(self):
        for n in range(8):
            for p in gen_k_dyck(1, n):
                q = deutsch_involution(p)
                assert deutsch_involution(q) == p
                sp, sq = stat_vector(p), stat_vector(q)
                assert (sp.pk[0], sp.dd) == (sq.dd, sq.pk[0])

    def test_matches_the_recursive_definition(self):
        def eta(text):
            # eta(P_0 u P_1 d) = eta(P_1) u eta(P_0) d, where the u is the
            # up-step the final down closes
            if not text:
                return ""
            h = 0
            for i in range(len(text) - 1, -1, -1):
                h += 1 if text[i] == "d" else -1
                if h == 0:
                    break
            return eta(text[i + 1:-1]) + "u" + eta(text[:i]) + "d"

        for n in range(10):
            for p in gen_k_dyck(1, n):
                assert deutsch_involution(p).text() == eta(p.text())

    def test_chain_and_zigzag_at_depth(self):
        # the steps are placed from a stack of index ranges, so a chain
        # of 10^5 nested factors raises no RecursionError
        n = 10 ** 5
        chain = dyck("u" * n + "d" * n, 1)
        zigzag = dyck("ud" * n, 1)
        assert deutsch_involution(chain) == zigzag
        assert deutsch_involution(zigzag) == chain


def _chain(positions, arity=3):
    """A path-shaped tree: node at each listed position under its parent."""
    node = PositionalTree(arity)
    for pos in reversed(positions):
        node = PositionalTree(arity, ((pos, node),))
    return node


class TestPermuteSubtrees:
    def test_identity(self):
        t = _chain([1, 1])
        assert permute_subtrees(t, (1, 2, 3)) == t

    def test_chain_swap(self):
        t = _chain([1, 1])
        assert e_vector(t) == (2, 0, 0)
        swapped = permute_subtrees(t, (3, 2, 1))
        assert e_vector(swapped) == (0, 0, 2)

    def test_balanced_tree_unmoved_counts(self, example_path):
        from peakmod import path_to_tree
        t = path_to_tree(example_path)
        for sigma in ((2, 3, 1), (3, 1, 2), (1, 3, 2)):
            assert e_vector(permute_subtrees(t, sigma)) == (3, 3, 3)

    def test_contravariant_e_vector(self):
        t = _chain([1, 2, 3, 1])
        old = e_vector(t)
        sigma = (2, 3, 1)
        new = e_vector(permute_subtrees(t, sigma))
        for i in range(3):
            assert new[sigma[i] - 1] == old[i]

    def test_composition(self):
        t = _chain([1, 2, 1, 3])
        sigma, tau = (3, 1, 2), (2, 3, 1)
        composed = tuple(sigma[tau[i] - 1] for i in range(3))
        assert permute_subtrees(permute_subtrees(t, tau), sigma) == \
            permute_subtrees(t, composed)

    def test_bad_permutation(self):
        with pytest.raises(BadPermutationError):
            permute_subtrees(_chain([1]), (1, 1, 3))

    def test_empty_tree_checks_sigma(self):
        # for the empty tree sigma must permute 1..len(sigma)
        for sigma in ((), (1,), (2, 3, 1), [2, 1]):
            assert permute_subtrees(None, sigma) is None
        for sigma, message in ((None, "None is not a permutation of 1..0"),
                               ([1, 1], "[1, 1] is not a permutation of "
                                        "1..2"),
                               ((0, 1), "[0, 1] is not a permutation of "
                                        "1..2")):
            with pytest.raises(BadPermutationError) as err:
                permute_subtrees(None, sigma)
            assert str(err.value) == message
        with pytest.raises(BadPermutationError):
            permute_subtrees(_chain([1]), (1, 2))


class TestSpecReuse:
    def test_no_spec_is_built_for_pure_inputs(self, monkeypatch):
        from peakmod import path_to_tree, tree_to_path
        from peakmod.core import pure_spec

        path = dyck(EXAMPLE_BLOCK)
        tree = path_to_tree(path)
        ballots = [next(gen_ballot(2, m, 2)) for m in (0, 1, 3)]

        def calls():
            dec = right_peak_decompose(path)
            parts = [ballot_decompose(b) for b in ballots]
            return (dec, dec.reassemble(), tree_to_path(tree, 2), parts,
                    [d.reassemble() for d in parts])

        want = calls()
        pure_spec(2)  # built once per k

        def refuse(self, *args, **kwargs):
            raise AssertionError("a FamilySpec was built")

        monkeypatch.setattr(FamilySpec, "__init__", refuse)
        assert calls() == want

    def test_parts_keep_their_families(self):
        levels = FamilySpec(2, {1: 1})
        dec = right_peak_decompose(LatticePath(levels, dyck(EXAMPLE_BLOCK)
                                               .steps))
        assert {b.spec for b in dec.blocks} == {K2}
        assert dec.reassemble().spec == K2
        for spec in (FamilySpec(1, {1: 1}, 2), FamilySpec(2, end_height=1),
                     FamilySpec(1, {2: 1})):
            for p in gen_kac(spec, 5):
                dec = ballot_decompose(p)
                assert {q.spec for q in dec.parts} == \
                    {FamilySpec(spec.k, spec.levels)}
                assert dec.reassemble() == p


class TestRefusedPaths:
    """Paths each map refuses, worded as the map words them."""

    def test_a_dip_below_the_start_height(self):
        dips = [(cyclic_shift, LatticePath(K2, parse_steps("duu"), 2)),
                (right_peak_decompose,
                 LatticePath(FamilySpec(1), parse_steps("du"), 1)),
                (deutsch_involution,
                 LatticePath(FamilySpec(1), parse_steps("du"), 1))]
        for op, path in dips:
            with pytest.raises(NegativeHeightError) as exc:
                op(path)
            assert str(exc.value) == "path dips below its start height"

    def test_a_ballot_path(self):
        path = next(gen_ballot(1, 1, 1))
        with pytest.raises(WrongEndHeightError) as exc:
            cyclic_shift(path)
        assert str(exc.value) == \
            "cyclic_shift requires a path returning to its start height"
        with pytest.raises(WrongEndHeightError) as exc:
            last_step_decompose(path)
        assert str(exc.value) == \
            "last-step decomposition needs a height-0 family"

    def test_no_down_step_before_the_level_suffix(self):
        path = LatticePath(MOTZKIN, parse_steps("dul1_1"), 1)
        with pytest.raises(ValueError) as exc:
            last_step_decompose(path)
        assert type(exc.value) is ValueError
        assert str(exc.value) == \
            "malformed path: expected a down-step before the level suffix"

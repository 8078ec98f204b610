"""Path and tree data model: validation, parsing, serialization."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakmod import (
    DuplicatePositionError,
    FamilySpec,
    IllegalStepError,
    LatticePath,
    NegativeHeightError,
    NodeLabel,
    ParseError,
    PathError,
    PositionOutOfRangeError,
    PositionalTree,
    TreeError,
    WrongEndHeightError,
    height_profile,
    level,
    parse_path,
    render_path,
    tree_from_json,
    tree_from_json_text,
    tree_to_json,
    tree_to_json_text,
    validate,
)
from peakmod.core import DOWN, UP, Step, parse_steps

from conftest import K1, K2, MOTZKIN, k_dyck_paths

# label fields: None, ints of any size and sign, and values that are no int
FIELDS = (st.none(), st.integers(-2, 3), st.integers(), st.booleans(),
          st.floats(allow_nan=False), st.text(max_size=3))


class TestFamilySpec:
    def test_basic(self):
        spec = FamilySpec(2, {1: 1, 3: 2}, end_height=5)
        assert spec.levels == ((1, 1), (3, 2))
        assert spec.ell == 2 and spec.residue == 1
        assert spec.color_count(3) == 2 and spec.color_count(2) == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FamilySpec(0)
        with pytest.raises(ValueError):
            FamilySpec(1, {0: 1})
        with pytest.raises(ValueError):
            FamilySpec(1, {1: 0})
        with pytest.raises(ValueError):
            FamilySpec(1, end_height=-1)

    def test_color_lookup_is_no_field(self):
        # the run-length -> colors map is built once and read by every
        # level-step check; it stays out of equality, hash and repr
        spec = FamilySpec(2, {3: 1, 1: 2})
        assert [spec.color_count(a) for a in range(5)] == [0, 2, 0, 1, 0]
        same = FamilySpec(2, [(1, 2), (3, 1)])
        assert spec == same and hash(spec) == hash(same)
        assert repr(spec) == ("FamilySpec(k=2, levels=((1, 2), (3, 1)), "
                              "end_height=0)")
        moved = FamilySpec(spec.k, {1: 1}, spec.end_height)
        assert moved.color_count(1) == 1 and moved.color_count(3) == 0
        assert pickle.loads(pickle.dumps(spec)).color_count(1) == 2

    def test_many_colors(self):
        # a level step is checked by its fields, whatever its color
        spec = FamilySpec(1, {1: 10 ** 4, 2: 3})
        path = LatticePath(spec, [level(1, 10 ** 4), level(1, 1), level(2, 3)])
        assert path.text() == "l1_10000l1_1l2_3"
        with pytest.raises(IllegalStepError):
            LatticePath(spec, [level(1, 10 ** 4 + 1)])

    def test_a_trillion_colors(self):
        # the spec keeps color counts, not steps, so it is built at once
        spec = FamilySpec(1, {1: 10 ** 12})
        path = LatticePath(spec, [level(1, 10 ** 12)])
        assert path.text() == "l1_1000000000000"
        with pytest.raises(IllegalStepError) as err:
            LatticePath(spec, [Step("l", 1, 10 ** 12 + 1)])
        assert str(err.value) == ("color 1000000000001 out of range "
                                  "1..1000000000000 for level run-length 1")

    def test_empty_level_map_means_no_level_steps(self):
        assert not FamilySpec(2).has_levels
        with pytest.raises(IllegalStepError):
            validate(FamilySpec(2), [level(1, 1), UP, UP, DOWN])


class TestValidate:
    def test_smallest_2_dyck(self):
        p = validate(K2, [UP, UP, DOWN])
        assert p.down_size == 1
        assert p.text() == "uud"

    def test_negative_height(self):
        with pytest.raises(NegativeHeightError):
            validate(K2, [UP, DOWN])

    def test_figure_path(self):
        p = parse_path("uuduuduud", K2)
        assert p.down_size == 3

    def test_wrong_end_height(self):
        with pytest.raises(WrongEndHeightError):
            validate(K2, [UP])
        # the same steps are fine when the family ends at height 1
        p = validate(FamilySpec(2, end_height=1), [UP])
        assert p.end_height == 1

    def test_a_spec_that_is_no_family_spec(self):
        for spec in (None, 2):
            with pytest.raises(PathError) as err:
                LatticePath(spec, ())
            assert str(err.value) == f"spec must be a FamilySpec, got {spec}"

    @pytest.mark.parametrize("steps", [None, 5])
    def test_steps_that_are_not_iterable(self, steps):
        with pytest.raises(PathError) as err:
            LatticePath(K2, steps)
        assert str(err.value) == \
            f"steps must be an iterable of steps, got {steps}"

    def test_a_type_error_inside_the_steps_is_not_reworded(self):
        def steps():
            yield UP
            raise TypeError("from inside")
        with pytest.raises(TypeError, match="from inside"):
            LatticePath(K2, steps())

    def test_level_color_range(self):
        spec = FamilySpec(1, {2: 2})
        validate(spec, [level(2, 2)])
        with pytest.raises(IllegalStepError):
            validate(spec, [level(2, 3)])

    def test_lifted_start(self):
        # lifted paths may open with a down-step; heights are re-checked
        # from the actual start
        p = validate(K2, [DOWN, UP, UP], start_height=2)
        assert p.end_height == 2
        assert height_profile(p) == [2, 0, 1, 2]
        with pytest.raises(NegativeHeightError):
            validate(K2, [DOWN, UP, UP], start_height=1)

    @pytest.mark.parametrize("spec, steps, start, error, message", [
        (K1, [DOWN], 0, NegativeHeightError,
         "height -1 after step 0 is negative"),
        (MOTZKIN, [UP, level(1, 1), DOWN, level(1, 1), DOWN], 0,
         NegativeHeightError, "height -1 after step 4 is negative"),
        (MOTZKIN, [level(3, 1)], 0, IllegalStepError,
         "level run-length 3 not allowed by this family"),
        (MOTZKIN, [level(1, 2)], 0, IllegalStepError,
         "color 2 out of range 1..1 for level run-length 1"),
        (FamilySpec(1, {2: 2}), [level(2, 3)], 0, IllegalStepError,
         "color 3 out of range 1..2 for level run-length 2"),
        (K1, [UP], 0, WrongEndHeightError,
         "path ends at height 1, expected 0"),
        (K1, [DOWN], -1, NegativeHeightError, "start height -1 is negative"),
        # the first offending step wins
        (MOTZKIN, [UP, level(3, 1), DOWN, DOWN], 0, IllegalStepError,
         "level run-length 3 not allowed by this family"),
        (MOTZKIN, [UP, DOWN, DOWN, level(3, 1)], 0, NegativeHeightError,
         "height -1 after step 2 is negative"),
        # a step kind outside u, d and l is not taken for a level step
        (MOTZKIN, [Step("x", 1, 1)], 0, IllegalStepError,
         "unknown step kind 'x'"),
        # a run-length with no hash, and an object that is no step
        (MOTZKIN, [Step("l", [1], 1)], 0, IllegalStepError,
         "level run-length [1] not allowed by this family"),
        (K1, [UP, "d"], 0, IllegalStepError, "not a step: 'd'"),
        (K1, [UP, DOWN, DOWN, "d"], 0, NegativeHeightError,
         "height -1 after step 2 is negative"),
    ])
    def test_error_surface(self, spec, steps, start, error, message):
        with pytest.raises(PathError) as err:
            validate(spec, steps, start)
        assert type(err.value) is error and str(err.value) == message

    def test_ballot_up_count(self):
        spec = FamilySpec(2, end_height=1)
        p = parse_path("uudu", spec)
        assert p.up_count == 2 * p.down_size + 1


WIDE = FamilySpec(1, {1: 100})  # a hundred colors, checked by fields


class TestIdentityPass:
    """UP and DOWN are validated by identity, any other step by its
    fields; either way the verdict is the one the step kinds give."""

    @pytest.mark.parametrize("spec, steps, start, want", [
        # fresh steps equal to the shared ones
        (K1, [Step("u"), Step("d")], 0, "ud"),
        (MOTZKIN, [UP, Step("l", 1, 1), DOWN], 0, "ul1_1d"),
        (K1, [UP, Step("u"), DOWN, Step("d")], 0, "uudd"),
        (MOTZKIN, [Step("l", 1, 1), level(1, 1), UP, DOWN], 0, "l1_1l1_1ud"),
        # shared steps only
        (K2, [UP, UP, DOWN, UP, UP, DOWN], 0, "uuduud"),
        (K2, [DOWN, UP, UP], 2, "duu"),
        (FamilySpec(2, end_height=1), [UP, UP, UP, DOWN], 0, "uuud"),
        (FamilySpec(1, {1: 2, 2: 1}), [level(2, 1), UP, level(1, 2), DOWN],
         0, "l2_1ul1_2d"),
        (WIDE, [level(1, 1), level(1, 100)], 0, "l1_1l1_100"),
        # steps the spec does not allow
        (MOTZKIN, [level(1, 2)], 0,
         (IllegalStepError, "color 2 out of range 1..1 for level run-length 1")),
        (MOTZKIN, [UP, DOWN, level(3, 1)], 0,
         (IllegalStepError, "level run-length 3 not allowed by this family")),
        (K1, [level(1, 1)], 0,
         (IllegalStepError, "level run-length 1 not allowed by this family")),
        (WIDE, [level(1, 101)], 0, (IllegalStepError,
                                    "color 101 out of range 1..100 "
                                    "for level run-length 1")),
        (MOTZKIN, [Step("l", 1, 2)], 0,
         (IllegalStepError, "color 2 out of range 1..1 for level run-length 1")),
        (MOTZKIN, [UP, Step("x"), DOWN], 0,
         (IllegalStepError, "unknown step kind 'x'")),
        # heights
        (K1, [UP, DOWN], -1,
         (NegativeHeightError, "start height -1 is negative")),
        (K1, [UP, DOWN, DOWN, UP], 0,
         (NegativeHeightError, "height -1 after step 2 is negative")),
        (K1, [UP, Step("d"), DOWN, UP], 0,
         (NegativeHeightError, "height -1 after step 2 is negative")),
        (K2, [UP, UP, DOWN, UP, DOWN], 0,
         (NegativeHeightError, "height -1 after step 4 is negative")),
        (K2, [DOWN, UP, UP], 1,
         (NegativeHeightError, "height -1 after step 0 is negative")),
        (K1, [UP, UP, DOWN], 0,
         (WrongEndHeightError, "path ends at height 1, expected 0")),
        (MOTZKIN, [level(1, 1), UP], 0,
         (WrongEndHeightError, "path ends at height 1, expected 0")),
        (FamilySpec(2, end_height=1), [UP, UP, DOWN], 0,
         (WrongEndHeightError, "path ends at height 0, expected 1")),
        (K2, [UP, UP, DOWN, UP], 3,
         (WrongEndHeightError, "path ends at height 4, expected 3")),
        # the first fault wins, shared or fresh
        (MOTZKIN, [UP, Step("l", 3, 1), DOWN, DOWN], 0,
         (IllegalStepError, "level run-length 3 not allowed by this family")),
        (MOTZKIN, [UP, DOWN, DOWN, Step("l", 3, 1)], 0,
         (NegativeHeightError, "height -1 after step 2 is negative")),
        (MOTZKIN, [UP, Step("l", [1], 1), DOWN, DOWN], 0, (IllegalStepError,
         "level run-length [1] not allowed by this family")),
        (K1, [UP, DOWN, UP, "d", DOWN, DOWN], 0,
         (IllegalStepError, "not a step: 'd'")),
        (K1, [UP, DOWN, DOWN, "d"], 0,
         (NegativeHeightError, "height -1 after step 2 is negative")),
    ])
    def test_table(self, spec, steps, start, want):
        if isinstance(want, str):
            path = LatticePath(spec, steps, start)
            assert path == parse_path(want, spec, start)
            assert hash(path) == hash(parse_path(want, spec, start))
            return
        error, message = want
        with pytest.raises(PathError) as err:
            LatticePath(spec, steps, start)
        assert type(err.value) is error and str(err.value) == message

    def test_after_the_level_cache_is_cleared(self):
        spec = FamilySpec(1, {1: 2})
        shared = level(1, 2)
        level.cache_clear()
        fresh = level(1, 2)
        assert fresh is not shared and fresh == shared
        for step in (shared, fresh):
            assert LatticePath(spec, [UP, step, DOWN]).text() == "ul1_2d"
        with pytest.raises(IllegalStepError) as err:
            LatticePath(spec, [level(1, 3)])
        assert str(err.value) == \
            "color 3 out of range 1..2 for level run-length 1"
        # a spec built after the clear takes the old and the new step
        again = FamilySpec(1, {1: 2})
        assert again == spec
        assert LatticePath(again, [shared]) == LatticePath(spec, [fresh])

    def test_copied_specs_check_level_steps_alike(self):
        import copy

        spec = FamilySpec(1, {1: 2})
        for other in (copy.copy(spec), copy.deepcopy(spec),
                      pickle.loads(pickle.dumps(spec))):
            assert other == spec
            assert LatticePath(other, [level(1, 2)]).text() == "l1_2"
            with pytest.raises(IllegalStepError):
                LatticePath(other, [Step("l", 1, 3)])


class TestPathHash:
    def test_shared_and_fresh_steps_hash_alike(self):
        for spec, fresh in (
                (K1, [Step("u"), Step("u"), Step("d"), Step("d")]),
                (MOTZKIN, [Step("u"), Step("l", 1, 1), Step("d")])):
            p = LatticePath(spec, fresh)
            q = parse_path(p.text(), spec)
            assert p == q and hash(p) == hash(q)
            assert {p: 1}[q] == 1

    def test_unequal_paths_stay_apart(self):
        # Step("u", 5) renders as "u", yet the paths are not equal
        odd = LatticePath(K1, [Step("u", 5), DOWN])
        plain = parse_path("ud", K1)
        assert odd != plain and len({odd, plain}) == 2
        assert parse_path("ud", K1, 1) != plain
        assert parse_path("ud", FamilySpec(1)) == plain

    def test_level_step_text_round_trips(self):
        # True == 1, so the level steps are equal and render alike
        plain = parse_path("l1_1", MOTZKIN)
        for odd in (LatticePath(MOTZKIN, [Step("l", True, 1)]),
                    LatticePath(MOTZKIN, [Step("l", 1.0, True)])):
            assert odd == plain and hash(odd) == hash(plain)
            assert odd.text() == plain.text() == "l1_1"
            assert parse_path(odd.text(), MOTZKIN) == odd
            assert {odd: 1}[plain] == 1


class TestIntegerRule:
    """Every number of a valid path is an integer, a value equal to its
    int(): k, heights, run-lengths, color counts and colors."""

    def test_non_integral_color(self):
        with pytest.raises(IllegalStepError) as err:
            LatticePath(FamilySpec(1, {1: 2}), [Step("l", 1, 1.5)])
        assert str(err.value) == \
            "color 1.5 out of range 1..2 for level run-length 1"
        for color in (float("nan"), float("inf"), "1", None, 2.000001):
            with pytest.raises(IllegalStepError):
                LatticePath(FamilySpec(1, {1: 3}), [Step("l", 1, color)])

    @pytest.mark.parametrize("levels", [
        {1.5: 1}, [(1.5, 1)], {1: 1.5}, [(1, 2.5)], {1: "2"}, [("1", 2)],
        {float("nan"): 1}, {1: float("inf")}, {None: 1}, {0: 1}, [(1, 0)],
        {-1: 1}])
    def test_levels_need_integers_of_at_least_one(self, levels):
        with pytest.raises(ValueError):
            FamilySpec(1, levels)

    def test_k_and_end_height(self):
        spec = FamilySpec(2.0, end_height=True)
        assert spec == FamilySpec(2, end_height=1)
        assert type(spec.k) is int and type(spec.end_height) is int
        for k, m in ((1.5, 0), (2, 0.5), ("2", 0), (2, None)):
            with pytest.raises(ValueError, match="must be an integer"):
                FamilySpec(k, end_height=m)

    def test_both_levels_forms_read_alike(self):
        for levels in ({1.0: 2}, [(True, 2.0)], [(1, 2)]):
            spec = FamilySpec(1, levels)
            assert spec == FamilySpec(1, {1: 2}) and spec.levels == ((1, 2),)
            assert [type(x) for x in spec.levels[0]] == [int, int]
        for mapping in ({2: 1, 1: 3}, {}):
            assert FamilySpec(1, mapping) == \
                FamilySpec(1, list(mapping.items()))
        with pytest.raises(ValueError, match="duplicate"):
            FamilySpec(1, [(1, 1), (1, 2)])

    def test_non_integral_start_height(self):
        from peakmod import lift

        spec = FamilySpec(2)
        steps = parse_steps("uuduud")
        for start in (0.5, 1.5, -0.5, float("nan"), "1"):
            with pytest.raises(PathError) as err:
                LatticePath(spec, steps, start)
            assert type(err.value) is PathError
        with pytest.raises(PathError) as err:
            lift(LatticePath(spec, steps), 0.5)
        assert str(err.value) == "start height 0.5 is not an integer"

    def test_integral_start_height_is_kept_as_an_int(self):
        from peakmod import label_features, stat_vector

        spec = FamilySpec(2)
        want = parse_path("uuduud", spec, 1)
        for start in (1.0, True):
            path = LatticePath(spec, parse_steps("uuduud"), start)
            assert type(path.start_height) is int and path == want
            assert stat_vector(path, "plain_starred") == \
                stat_vector(want, "plain_starred")
            assert label_features(path) == label_features(want)

    def test_true_and_float_level_numbers_stay_valid(self):
        plain = parse_path("l1_1", MOTZKIN)
        for step in (Step("l", True, 1), Step("l", 1.0, True)):
            path = LatticePath(MOTZKIN, [step])
            assert path == plain and path.text() == "l1_1"

    def test_check_step_takes_level_steps_only(self):
        for step in (UP, DOWN, Step("x")):
            with pytest.raises(IllegalStepError, match="unknown step kind"):
                MOTZKIN.check_step(step)
        MOTZKIN.check_step(Step("l", 1, 1))


class TestLevelSteps:
    def test_one_object_per_step(self):
        assert level(1, 1) is level(1, 1)
        assert level(2, 3) is level(2, 3) and level(2, 3) == Step("l", 2, 3)
        assert level(1, 2) is not level(2, 1)

    def test_the_cache_is_bounded(self):
        bound = level.cache_info().maxsize
        assert bound is not None
        shared = level(1, 1)
        try:
            n = 10 ** 5
            steps = parse_steps("".join(f"l1_{b}" for b in range(1, n + 1)))
            assert len(steps) == n and steps[-1] == Step("l", 1, n)
            assert level.cache_info().currsize <= bound
            # the cache let level(1, 1) go; the fresh one passes by fields
            assert level(1, 1) is not shared and level(1, 1) == shared
            path = parse_path("l1_1", MOTZKIN)
            assert path == LatticePath(MOTZKIN, [Step("l", 1, 1)])
            assert path.text() == "l1_1"
            with pytest.raises(IllegalStepError):
                parse_path("l1_2", MOTZKIN)
        finally:
            level.cache_clear()


class TestHeightProfile:
    def test_uud(self):
        assert height_profile(parse_path("uud", K2)) == [0, 1, 2, 0]

    def test_empty(self):
        assert height_profile(LatticePath(K2)) == [0]

    def test_uuduud(self):
        assert height_profile(parse_path("uuduud", K2)) == \
            [0, 1, 2, 0, 1, 2, 0]

    def test_level_steps_are_one_transition(self):
        p = parse_path("ul1_1dl1_1l1_1", MOTZKIN)
        assert height_profile(p) == [0, 1, 1, 0, 0, 0]
        assert p.path_length == 5
        assert len(p.steps) == 5


class TestPathText:
    def test_round_trip(self):
        assert render_path(parse_path("uud", K2)) == "uud"

    def test_whitespace_is_ignored(self):
        assert parse_path("u u d", K2) == parse_path("uud", K2)

    def test_motzkin_tokens(self):
        p = parse_path("ul1_1dl1_1l1_1", MOTZKIN)
        assert render_path(p) == "ul1_1dl1_1l1_1"

    def test_long_level_token(self):
        spec = FamilySpec(1, {3: 2})
        p = parse_path("l3_2", spec)
        assert p.steps[0] == level(3, 2)
        assert p.path_length == 3

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_path("uxd", K2)
        assert err.value.position == 1
        with pytest.raises(ParseError) as err:
            parse_path("ul1d", MOTZKIN)
        assert err.value.position == 3

    @pytest.mark.parametrize("text, message, position", [
        ("x", "unexpected character 'x'", 0),
        ("uudx", "unexpected character 'x'", 3),
        ("U", "unexpected character 'U'", 0),
        ("L1_1", "unexpected character 'L'", 0),
        ("udé", "unexpected character 'é'", 2),
        ("l1_1_", "unexpected character '_'", 4),
        ("uudd_", "unexpected character '_'", 4),
        ("u d x", "unexpected character 'x'", 4),
        ("uu\tdd\nq", "unexpected character 'q'", 6),
        ("ud\xa0x", "unexpected character 'x'", 3),
        ("l", "expected digits for level run-length", 1),
        ("uuduul", "expected digits for level run-length", 6),
        ("l_1", "expected digits for level run-length", 1),
        ("l-1_1", "expected digits for level run-length", 1),
        ("ud l1_1 l", "expected digits for level run-length", 9),
        ("l1", "expected '_' after level run-length", 2),
        ("l1d", "expected '_' after level run-length", 2),
        ("l1_", "expected digits for level color", 3),
        ("l12_", "expected digits for level color", 4),
        ("l1_x", "expected digits for level color", 3),
        ("l1__1", "expected digits for level color", 3),
        # whitespace inside a level token is no separator
        ("l 1_1", "expected digits for level run-length", 1),
        ("l1 _1", "expected '_' after level run-length", 2),
        ("l1_ 1", "expected digits for level color", 3),
        # ASCII digits only: no other script's digits, no superscripts
        ("l\u0661_1", "expected digits for level run-length", 1),
        ("l\u00b2_1", "expected digits for level run-length", 1),
        ("ul1\u00b2_1", "expected '_' after level run-length", 3),
        ("l1_\u0661", "expected digits for level color", 3),
        ("l1_\uff11", "expected digits for level color", 3),
        ("l1_1\u00b2", "unexpected character '\u00b2'", 4),
    ])
    def test_parse_error_table(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_steps(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_whitespace_between_tokens(self):
        want = [UP, level(1, 1), DOWN, DOWN, level(12, 3)]
        for text in ("ul1_1ddl12_3", " u l1_1\td d\nl12_3 ",
                     "u\u2003l1_1dd\x1cl12_3"):
            assert parse_steps(text) == want

    @given(k_dyck_paths())
    def test_round_trip_property(self, path):
        assert parse_path(render_path(path), path.spec) == path

    def test_round_trip_with_levels(self):
        from peakmod import gen_kac
        specs = (MOTZKIN, FamilySpec(1, {2: 1}), FamilySpec(2, {1: 2, 3: 1}))
        for spec in specs:
            for L in range(6):
                for p in gen_kac(spec, L):
                    assert parse_path(render_path(p), spec) == p


class TestTrees:
    def test_single_node(self):
        t = PositionalTree(3)
        assert tree_to_json(t) == {}
        assert tree_from_json({}, 3) == t

    def test_two_children(self):
        t = PositionalTree(3, ((1, PositionalTree(3)), (3, PositionalTree(3))))
        assert tree_to_json(t) == {"1": {}, "3": {}}
        assert tree_from_json({"1": {}, "3": {}}, 3) == t

    def test_empty_tree(self):
        assert tree_to_json(None) is None
        assert tree_from_json(None, 3) is None

    def test_duplicate_position(self):
        with pytest.raises(DuplicatePositionError):
            PositionalTree(3, ((1, PositionalTree(3)),
                               (1, PositionalTree(3))))
        with pytest.raises(DuplicatePositionError):
            tree_from_json_text('{"1": {}, "1": {}}', 3)

    def test_position_out_of_range(self):
        with pytest.raises(PositionOutOfRangeError):
            PositionalTree(3, ((4, PositionalTree(3)),))
        with pytest.raises(PositionOutOfRangeError):
            tree_from_json({"0": {}}, 3)

    def test_labels_round_trip(self):
        for text in ("r", "p0_2", "dd_3"):
            assert NodeLabel.parse(text).json_str() == text
        t = PositionalTree(2, (), NodeLabel.parse("p1_4"))
        assert tree_from_json(tree_to_json(t), 2) == t

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(st.sampled_from(("r", "peak", "dd")), st.one_of(*FIELDS),
           st.one_of(*FIELDS))
    def test_every_label_reads_back(self, kind, residue, ordinal):
        # a label the constructor accepts writes text that json reads and
        # that parses back to it
        try:
            label = NodeLabel(kind, residue, ordinal)
        except ValueError:
            return
        assert NodeLabel.parse(label.json_str()) == label
        tree = PositionalTree(2, label=label)
        text = tree_to_json_text(tree)
        assert text == json.dumps(tree_to_json(tree), sort_keys=True,
                                  separators=(",", ":"))
        assert tree_from_json_text(text, 2) == tree

    @pytest.mark.parametrize("args,message", [
        (("peak", 'a"b', 1), "residue must be an integer, got 'a\"b'"),
        (("dd", None, -1), "ordinal must be >= 0, got -1"),
        (("r", 5, 7), "'r' labels take no residue, got 5"),
        (("r", None, 7), "'r' labels take no ordinal, got 7"),
        (("dd", 0, 1), "'dd' labels take no residue, got 0"),
        (("peak", 1.5, 1), "residue must be an integer, got 1.5"),
    ])
    def test_a_label_keeps_only_what_it_writes(self, args, message):
        with pytest.raises(ValueError) as err:
            NodeLabel(*args)
        assert str(err.value) == message

    def test_label_fields_are_read_as_ints(self):
        label = NodeLabel("peak", True, 2.0)
        assert vars(label) == vars(NodeLabel("peak", 1, 2))
        assert type(label.residue) is int and type(label.ordinal) is int

    @pytest.mark.parametrize("args,name", [
        (("dd", None, 10 ** 5000), "ordinal"),
        (("peak", 10 ** 5000, 1), "residue"),
        (("peak", 1, 10 ** 5000), "ordinal"),
    ])
    def test_label_fields_are_written_as_text(self, args, name):
        # an int of more digits than str() writes could be no label text
        with pytest.raises(ValueError) as err:
            NodeLabel(*args)
        assert str(err.value) == f"{name} has too many digits"

    def test_label_display(self):
        assert NodeLabel.parse("p1_2").display() == "1_2"
        assert NodeLabel.parse("dd_3").display() == "d_3"
        assert NodeLabel.parse("r").display() == "r"

    def test_ten_node_labeled_tree_round_trips(self, example_path):
        from peakmod import path_to_labeled_tree
        tree = path_to_labeled_tree(example_path)
        assert tree.node_count() == 10
        assert tree_from_json(tree_to_json(tree), 3) == tree
        import json
        text = json.dumps(tree_to_json(tree))
        assert tree_from_json_text(text, 3) == tree

    @pytest.mark.parametrize("children,message", [
        (None, "children must be (position, subtree) pairs, got None"),
        ([(1,)], "children must be (position, subtree) pairs, got [(1,)]"),
        ([(1, None)], "child at position 1 must be a PositionalTree, "
                      "got None"),
    ])
    def test_bad_children_name_the_argument(self, children, message):
        with pytest.raises(TreeError) as err:
            PositionalTree(2, children)
        assert str(err.value) == message

    @pytest.mark.parametrize("label", ["r", ("p", 0, 1), {"kind": "p"}])
    def test_a_label_that_is_no_node_label(self, label):
        with pytest.raises(TreeError) as err:
            PositionalTree(2, (), label)
        assert str(err.value) == \
            f"label must be a NodeLabel or None, got {label!r}"

    def test_edge_count_invariant(self):
        leaf = PositionalTree(3)
        t = PositionalTree(3, ((2, PositionalTree(3, ((1, leaf),))),
                               (3, leaf)))
        from peakmod import e_vector
        assert sum(e_vector(t)) == t.node_count() - 1


def _deep_chain(depth, arity=3, pos=1):
    node = PositionalTree(arity, (), NodeLabel.parse("dd_1"))
    for _ in range(depth - 1):
        node = PositionalTree(arity, ((pos, node),), NodeLabel.parse("r"))
    return node


class TestTreeWireFormat:
    def _trees(self):
        leaf = PositionalTree(12, (), NodeLabel.parse("p0_1"))
        yield None
        yield PositionalTree(3)
        yield PositionalTree(3, ((1, PositionalTree(3)),
                                 (3, PositionalTree(3))))
        # keys sort as strings, so "10" < "2" < "label"
        yield PositionalTree(12, ((2, leaf), (10, PositionalTree(12)),
                                  (12, leaf)), NodeLabel.parse("r"))

    def test_text_matches_sorted_compact_json(self, example_path):
        import json

        from peakmod import path_to_labeled_tree
        trees = list(self._trees()) + [path_to_labeled_tree(example_path)]
        for tree in trees:
            want = json.dumps(tree_to_json(tree), sort_keys=True,
                              separators=(",", ":"))
            assert tree_to_json_text(tree) == want
            arity = 3 if tree is None else tree.arity
            assert tree_from_json_text(want, arity) == tree

    def test_text_past_the_tabled_arity(self):
        # past 64 the writer's key tables cover the positions present, and
        # the reader takes a key past 64 to _position, not to its table
        leaf = PositionalTree(100, (), NodeLabel.parse("dd_2"))
        tree = PositionalTree(100, ((100, leaf), (9, PositionalTree(100)),
                                    (65, leaf), (10, leaf)))
        want = json.dumps(tree_to_json(tree), sort_keys=True,
                          separators=(",", ":"))
        assert tree_to_json_text(tree) == want
        assert tree_from_json_text(want, 100) == tree
        with pytest.raises(PositionOutOfRangeError):
            tree_from_json_text(want, 99)

    def test_reader_accepts_any_json_layout(self):
        text = ' {\n "3" : { } ,\t"label" : "r\\u0030" , "1":{}}\r\n'
        with pytest.raises(TreeError):  # "r0" is not a label
            tree_from_json_text(text, 3)
        tree = tree_from_json_text(text.replace("\\u0030", ""), 3)
        assert tree == PositionalTree(3, ((1, PositionalTree(3)),
                                          (3, PositionalTree(3))),
                                      NodeLabel.parse("r"))

    @pytest.mark.parametrize("text", [
        "", "{", '{"1": {}', '{"1" {}}', '{"1": {},}', "[1 2]", "{} {}",
        '{"1": tru}', '"abc', "{1: {}}"])
    def test_malformed_json_is_a_tree_error(self, text):
        with pytest.raises(TreeError) as exc:
            tree_from_json_text(text, 3)
        assert type(exc.value) is TreeError

    @pytest.mark.parametrize("text,error", [
        ('{"1": {"2": {}, "2": {}}}', DuplicatePositionError),
        ('{"01": {}, "1": {}}', DuplicatePositionError),
        ('{"4": {}}', PositionOutOfRangeError),
        ('{"x": {}}', TreeError),
        ('{"1": null}', TreeError),
        ('{"1": []}', TreeError),
        ("[]", TreeError),
        ('{"label": 5}', TreeError),
        ('{"label": ["r"]}', TreeError),
        ('{"label": "dd_"}', TreeError)])
    def test_bad_trees_keep_their_error_class(self, text, error):
        with pytest.raises(error):
            tree_from_json_text(text, 3)

    @pytest.mark.parametrize("text", [
        "dd_\u00b2", "p\u00b2_1", "p1_\u0661", "dd_\u0661", "p\uff11_1"])
    def test_labels_take_ascii_digits_only(self, text):
        for read in (lambda: NodeLabel.parse(text),
                     lambda: tree_from_json({"label": text}, 3),
                     lambda: tree_from_json_text(
                         json.dumps({"label": text}), 3)):
            with pytest.raises(TreeError) as err:
                read()
            assert str(err.value) == f"unrecognized node label {text!r}"

    @pytest.mark.parametrize("key", ["\u0661", "\u00b2", "1\u0660", "\uff11"])
    def test_position_keys_take_ascii_digits_only(self, key):
        for read in (lambda: tree_from_json({key: {}}, 3),
                     lambda: tree_from_json_text(json.dumps({key: {}}), 3),
                     lambda: tree_from_json_text(
                         json.dumps({key: {}}, ensure_ascii=False), 3)):
            with pytest.raises(TreeError) as err:
                read()
            assert type(err.value) is TreeError
            assert str(err.value) == f"bad child position key {key!r}"

    def test_null_is_the_empty_tree(self):
        assert tree_from_json_text(" null ", 3) is None

    @pytest.mark.parametrize("obj,arity,error,message", [
        ({"1": {}, "01": {}}, 3, DuplicatePositionError,
         "duplicate child position 1"),
        ({"2": {}, "02": {}, "1": {}, "001": {}}, 3, DuplicatePositionError,
         "duplicate child position 1"),
        # the last parent with a doubled position is reported
        ({"1": {"2": {}, "02": {}}, "3": {"1": {}, "01": {}}}, 3,
         DuplicatePositionError, "duplicate child position 1"),
        ({}, 0, TreeError, "arity must be >= 1, got 0"),
        ({"label": "r"}, -1, TreeError, "arity must be >= 1, got -1")])
    def test_both_readers_check_the_nodes(self, obj, arity, error, message):
        # no node is built from the records read, so the readers make
        # the nested constructor's checks themselves
        for read in (lambda: tree_from_json(obj, arity),
                     lambda: tree_from_json_text(json.dumps(obj), arity)):
            with pytest.raises(error) as err:
                read()
            assert type(err.value) is error
            assert str(err.value) == message


class TestDeepTrees:
    # every operation on whole trees runs on explicit stacks, so a chain
    # far deeper than the default recursion limit is an ordinary value
    DEPTH = 5000

    def test_equality_and_hash(self):
        a, b = _deep_chain(self.DEPTH), _deep_chain(self.DEPTH)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != _deep_chain(self.DEPTH, pos=2)
        assert a != _deep_chain(self.DEPTH + 1)
        assert len({a, b}) == 1

    def test_repr(self):
        tree = _deep_chain(self.DEPTH)
        text = repr(tree)
        assert text == f"PositionalTree(3, {tree_to_json_text(tree)})"
        assert repr(_deep_chain(2, pos=2)) == \
            'PositionalTree(3, {"2":{"label":"dd_1"},"label":"r"})'

    def test_strip_labels(self):
        stripped = _deep_chain(self.DEPTH).strip_labels()
        assert stripped.node_count() == self.DEPTH
        assert all(node.label is None for node in stripped.iter_nodes())

    def test_json_round_trips(self):
        import json

        tree = _deep_chain(self.DEPTH)
        assert tree_from_json(tree_to_json(tree), 3) == tree
        text = tree_to_json_text(tree)
        assert text.startswith('{"1":{"1":') and text.count("{") == \
            self.DEPTH
        assert tree_from_json_text(text, 3) == tree
        assert tree_from_json_text(text.replace(":", ": "), 3) == tree
        with pytest.raises(TreeError):
            tree_from_json_text(text[:-1], 3)
        small = _deep_chain(50)
        assert tree_to_json_text(small) == json.dumps(
            tree_to_json(small), sort_keys=True, separators=(",", ":"))


"""Closed-form counts, series solvers, and their three-way agreement."""

import copy
import json
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest

from peakmod import (
    FamilySpec,
    TruncSeries,
    count_ballot_joint,
    count_joint,
    count_marginal,
    count_pk,
    fuss_catalan,
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    histogram,
    lagrange_coefficient,
    narayana,
    solve_f,
    solve_f_kac,
    solve_g,
    solve_g_kac,
    stat_vector,
)
from peakmod import BadPermutationError, permute_statistics
from peakmod import counting
from peakmod.core import check_permutation
from peakmod.counting import NonIntegerResultError, _exact_int, _lagrange_top
from peakmod.statistics import PLAIN, PLAIN_STARRED, WEAK, WEAK_STARRED
from peakmod.verify import _compositions

from conftest import MOTZKIN, SCHROEDER


class TestCountJoint:
    def test_figure_values(self):
        assert count_joint(2, 3, (0, 1, 1)) == 3
        assert count_joint(2, 3, (2, 0, 0)) == 1

    def test_dyck_value(self):
        # brute force over the 14 Dyck paths of semilength 4
        brute = sum(1 for p in gen_k_dyck(1, 4)
                    if stat_vector(p).key() == (1, 2))
        assert brute == 6
        assert count_joint(1, 4, (1, 2)) == 6

    def test_wrong_weight_is_zero(self):
        assert count_joint(2, 3, (1, 1, 1)) == 0

    def test_full_agreement(self):
        for k in (1, 2, 3):
            for n in range(1, 5):
                hist = histogram(gen_k_dyck(k, n), PLAIN)
                for r in _compositions(n - 1, k + 1):
                    assert count_joint(k, n, r) == hist.counts.get(r, 0)


class TestIntegerEntries:
    """Statistic vectors and permutations take integers by the rule of
    FamilySpec: True and 1.0 are read as ints, 1.5 and "1" raise."""

    @pytest.mark.parametrize("call, want", [
        (lambda: count_joint(2, 3, (1.7, 0.9, 1)), ValueError),
        (lambda: count_joint(2, 3, ("1", 0, 1)), ValueError),
        (lambda: count_joint(2, 3, (1, 0, 1.5)), ValueError),
        (lambda: count_ballot_joint(1, 1, 0, 2, (1.5, 0.5)), ValueError),
        (lambda: count_ballot_joint(1, 1, 0, 2, ("1", 1)), ValueError),
        (lambda: lagrange_coefficient(2, 3, (1.7, 0.9, 1)), ValueError),
        (lambda: lagrange_coefficient(2, 3, (None, 1, 1)), ValueError),
        (lambda: check_permutation([1.9, 2.2, 3], 3), BadPermutationError),
        (lambda: check_permutation(["1", 2, 3], 3), BadPermutationError),
        (lambda: check_permutation([1, 2, float("nan")], 3),
         BadPermutationError),
        (lambda: permute_statistics(next(gen_k_dyck(2, 2)), [1.9, 2.2, 3]),
         BadPermutationError),
        (lambda: histogram(gen_k_dyck(2, 2)).permuted(["1", "2", "3"]),
         BadPermutationError),
        (lambda: count_joint(2, 3, (True, 0, 1.0)), 3),
        (lambda: count_ballot_joint(1, 1, 0, 2, (1.0, True)), 2),
        (lambda: lagrange_coefficient(2, 3, (1.0, 0, True)), 3),
        (lambda: check_permutation([True, 3.0, 2], 3), (1, 3, 2)),
    ])
    def test_table(self, call, want):
        if isinstance(want, type):
            with pytest.raises(want):
                call()
            return
        got = call()
        assert got == want and repr(got) == repr(want)  # ints, not floats


class TestMarginals:
    def test_figure_marginals(self):
        assert count_marginal(2, 3, 0) == 5
        assert count_marginal(2, 3, 1) == 6
        assert count_marginal(2, 3, 2) == 1

    def test_reversal(self):
        for k in (1, 2, 3):
            for n in range(1, 6):
                for r in range(n):
                    assert count_marginal(k, n, r) == \
                        count_pk(k, n, n - 1 - r)

    def test_sum_is_family_size(self):
        for k in (1, 2, 3):
            for n in range(1, 6):
                assert sum(count_marginal(k, n, r) for r in range(n)) == \
                    fuss_catalan(k, n)

    def test_pk_counts_total_peaks(self):
        # count_pk(k, n, r) counts paths with r+1 peaks overall
        for k, n in ((1, 5), (2, 4)):
            tally: dict[int, int] = {}
            for p in gen_k_dyck(k, n):
                t = stat_vector(p).total_peaks()
                tally[t] = tally.get(t, 0) + 1
            for r in range(n):
                assert count_pk(k, n, r) == tally.get(r, 0)


class TestNarayana:
    def test_values(self):
        assert narayana(4, 2) == 6
        assert narayana(3, 2) == 3
        for n in range(1, 8):
            assert narayana(n, 1) == 1

    def test_matches_peak_histogram(self):
        for n in range(1, 7):
            tally: dict[int, int] = {}
            for p in gen_k_dyck(1, n):
                t = stat_vector(p).total_peaks() + 1
                tally[t] = tally.get(t, 0) + 1
            for r in range(1, n + 1):
                assert narayana(n, r) == tally.get(r, 0)

    def test_symmetry(self):
        for n in range(1, 11):
            for r in range(1, n + 1):
                assert narayana(n, r) == narayana(n, n + 1 - r)


class TestBallotJoint:
    def test_worked_values(self):
        assert count_ballot_joint(2, 0, 1, 2, (1, 1, 0)) == 3
        assert count_ballot_joint(2, 0, 1, 2, (0, 0, 2)) == 0

    def test_reduces_to_joint_at_height_zero(self):
        # at m = 0 the starred vector shifts the residue-0 slot by one
        for n in range(1, 5):
            for s in _compositions(n, 3):
                if s[0] == 0:
                    continue
                assert count_ballot_joint(2, 0, 0, n, s) == \
                    count_joint(2, n, (s[0] - 1, s[1], s[2]))

    def test_brute_force_agreement(self):
        for k in (1, 2, 3):
            for m in range(4):
                ell, r = divmod(m, k)
                for n in range(1, 4):
                    hist = histogram(gen_ballot(k, m, n), PLAIN_STARRED)
                    for s in _compositions(n, k + 1):
                        assert count_ballot_joint(k, ell, r, n, s) == \
                            hist.counts.get(s, 0), (k, m, n, s)

    def test_down_size_zero(self):
        assert count_ballot_joint(2, 0, 1, 0, (0, 0, 0)) == 1
        assert count_ballot_joint(2, 0, 1, 0, (1, 0, 0)) == 0


class TestLagrange:
    def test_figure_value(self):
        assert lagrange_coefficient(2, 3, (0, 1, 1)) == 3

    def test_smallest(self):
        assert lagrange_coefficient(1, 2, (1, 0)) == 1

    def test_agrees_with_closed_form(self):
        for k in (1, 2):
            for n in range(1, 6):
                for r in _compositions(n - 1, k + 1):
                    assert lagrange_coefficient(k, n, r) == \
                        count_joint(k, n, r)

    def test_one_cached_expansion_serves_interleaved_sweeps(self):
        # Sweeps of several (k, n), each cut in three chunks and shuffled,
        # so the one-entry cache is refilled many times, twice at least
        # between two n of the same k.  Off-sum vectors give the zeros.
        chunks = []
        for k, n in ((2, 10), (3, 8), (2, 8), (3, 6)):
            vectors = [r for total in (n - 2, n - 1, n)
                       for r in _compositions(total, k + 1)]
            chunks += [(k, n, vectors[i::3]) for i in range(3)]
        random.Random(8).shuffle(chunks)
        assert any(a[0] == b[0] and a[1] != b[1]
                   for a, b in zip(chunks, chunks[1:]))
        assert _lagrange_top.cache_info().maxsize == 1
        for k, n, vectors in chunks:
            for r in vectors:
                assert lagrange_coefficient(k, n, r) == \
                    count_joint(k, n, r), (k, n, r)
            assert _lagrange_top.cache_info().currsize == 1


class TestSolveF:
    def test_first_coefficients(self):
        f = solve_f(2, 3)
        assert f.coefficient(0) == {}
        assert f.coefficient(1) == {(0, 0, 0): 1}
        assert f.coefficient(3) == {
            (2, 0, 0): 1, (1, 1, 0): 3, (1, 0, 1): 3,
            (0, 2, 0): 1, (0, 1, 1): 3, (0, 0, 2): 1}

    def test_matches_enumeration(self):
        for k in (1, 2):
            f = solve_f(k, 5)
            for n in range(1, 6):
                hist = histogram(gen_k_dyck(k, n), PLAIN)
                assert f.coefficient(n) == hist.counts

    def test_marker_symmetry(self):
        for k in (1, 2, 3):
            f = solve_f(k, 4)
            for sigma in permutations(range(k + 1)):
                assert f.permute_markers(sigma) == f

    def test_rejects_k_below_one(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                solve_f(k, 3)
            with pytest.raises(ValueError, match="k must be >= 1"):
                solve_g(k, 1, 3)

    def test_fuss_catalan_at_ones(self):
        for k in (1, 2, 3):
            f = solve_f(k, 5)
            assert f.at_ones() == [fuss_catalan(k, n) if n else 0
                                   for n in range(6)]

    def test_specializations_reproduce_marginals(self):
        k, order = 2, 5
        f = solve_f(k, order)
        for n in range(1, order + 1):
            by_first: dict[int, int] = {}
            by_dd: dict[int, int] = {}
            for key, c in f.coefficient(n).items():
                by_first[key[0]] = by_first.get(key[0], 0) + c
                by_dd[key[k]] = by_dd.get(key[k], 0) + c
            for r in range(n):
                assert by_first.get(r, 0) == count_marginal(k, n, r)
                assert by_dd.get(r, 0) == count_marginal(k, n, r)
                # total peaks n-1-dd, so the dd marginal read backwards
                # reproduces the peak-count formula
                assert by_dd.get(n - 1 - r, 0) == count_pk(k, n, r)


# families with c_a > 1 colors for some run-length a
COLORED = (FamilySpec(1, {1: 3}), FamilySpec(1, {1: 2, 3: 1}),
           FamilySpec(2, {1: 2}))


class TestSolveFKac:
    def test_motzkin_tallies(self):
        f = solve_f_kac(MOTZKIN, 5)
        assert f.coefficient(0) == {}
        assert f.coefficient(1) == {(0, 0): 1}
        assert f.coefficient(5) == {
            (0, 0): 2, (0, 1): 5, (1, 0): 5,
            (1, 1): 7, (2, 0): 1, (0, 2): 1}

    def test_schroeder_small(self):
        f = solve_f_kac(SCHROEDER, 4)
        assert f.coefficient(2) == {(0, 0): 2}

    def test_matches_enumeration(self):
        for spec in (MOTZKIN, SCHROEDER, *COLORED):
            f = solve_f_kac(spec, 8)
            for L in range(1, 9):
                hist = histogram(gen_kac(spec, L), WEAK)
                assert f.coefficient(L) == hist.counts, (spec, L)

    def test_symmetry(self):
        for spec in (MOTZKIN, SCHROEDER, FamilySpec(2, {1: 2})):
            f = solve_f_kac(spec, 6)
            for sigma in permutations(range(spec.k + 1)):
                assert f.permute_markers(sigma) == f

    def test_level_free_spec_reindexes_solve_f(self):
        # with no level steps the length equation counts by (k+1) * n
        k, order = 2, 9
        by_length = solve_f_kac(FamilySpec(k), order)
        by_size = solve_f(k, order // (k + 1))
        for L in range(order + 1):
            if L % (k + 1) == 0 and L > 0:
                assert by_length.coefficient(L) == \
                    by_size.coefficient(L // (k + 1))
            else:
                assert by_length.coefficient(L) == {}


class TestSolveG:
    def test_height_zero_shifts_residue_zero(self):
        k = 2
        g = solve_g(k, 0, 4)
        for n in range(5):
            hist = histogram(gen_ballot(k, 0, n), PLAIN_STARRED)
            assert g.coefficient(n) == hist.counts

    def test_seven_paths(self):
        g = solve_g(2, 1, 2)
        assert sum(g.coefficient(2).values()) == 7

    def test_symmetry_at_m1(self):
        g = solve_g(2, 1, 4)
        assert g.permute_markers((1, 0, 2)) == g

    def test_matches_enumeration(self):
        for k in (1, 2):
            for m in range(4):
                g = solve_g(k, m, 4)
                for n in range(5):
                    hist = histogram(gen_ballot(k, m, n), PLAIN_STARRED)
                    assert g.coefficient(n) == hist.counts, (k, m, n)


class TestThreeWayAgreement:
    def test_series_equals_ballot_closed_form_directly(self):
        # the functional-equation route and the closed formula agree
        # without passing through enumeration
        for k in (1, 2, 3):
            for m in range(4):
                ell, r = divmod(m, k)
                g = solve_g(k, m, 4)
                for n in range(1, 5):
                    coeff = g.coefficient(n)
                    for s in _compositions(n, k + 1):
                        assert coeff.get(s, 0) == \
                            count_ballot_joint(k, ell, r, n, s), (k, m, n, s)

    def test_series_equals_joint_closed_form_directly(self):
        for k in (1, 2, 3):
            f = solve_f(k, 5)
            for n in range(1, 6):
                coeff = f.coefficient(n)
                for rv in _compositions(n - 1, k + 1):
                    assert coeff.get(rv, 0) == count_joint(k, n, rv)


class TestBeyondEnumeration:
    # the series and reversion routes against the closed forms at sizes
    # the brute-force oracle cannot reach
    def test_solve_f_equals_joint_closed_form(self):
        for k in (1, 2):
            f = solve_f(k, 16)
            for n in range(1, 17):
                coeff = f.coefficient(n)
                for rv in _compositions(n - 1, k + 1):
                    assert coeff.get(rv, 0) == count_joint(k, n, rv), (k, n)

    def test_solve_g_equals_ballot_closed_form(self):
        for k in (1, 2):
            for m in range(4):
                ell, r = divmod(m, k)
                g = solve_g(k, m, 12)
                for n in range(13):
                    coeff = g.coefficient(n)
                    for s in _compositions(n, k + 1):
                        assert coeff.get(s, 0) == \
                            count_ballot_joint(k, ell, r, n, s), (k, m, n, s)

    def test_lagrange_equals_joint_closed_form(self):
        for k, n in ((2, 8), (3, 6)):
            for r in _compositions(n - 1, k + 1):
                assert lagrange_coefficient(k, n, r) == \
                    count_joint(k, n, r), (k, n, r)

    @pytest.mark.parametrize("k, order", [(2, 20), (3, 14)])
    def test_solve_f_at_higher_orders(self, k, order):
        f = solve_f(k, order)
        for n in range(1, order + 1):
            assert f.coefficient(n) == {
                rv: c for rv in _compositions(n - 1, k + 1)
                if (c := count_joint(k, n, rv))}, (k, n)

    def test_solve_g_k3_equals_ballot_closed_form(self):
        for m in range(5):
            ell, r = divmod(m, 3)
            g = solve_g(3, m, 10)
            for n in range(11):
                assert g.coefficient(n) == {
                    s: c for s in _compositions(n, 4)
                    if (c := count_ballot_joint(3, ell, r, n, s))}, (m, n)


class TestSolveGKac:
    def test_matches_enumeration(self):
        for base in (FamilySpec(1, {1: 1}), FamilySpec(2, {1: 1}), *COLORED):
            for m in range(3):
                g = solve_g_kac(base, m, 7)
                spec = FamilySpec(base.k, base.levels, end_height=m)
                for L in range(8):
                    hist = histogram(gen_kac(spec, L), WEAK_STARRED)
                    assert g.coefficient(L) == hist.counts, (base, m, L)

    def test_length_prefactor(self):
        g = solve_g_kac(MOTZKIN, 2, 5)
        assert g.coefficient(0) == {} and g.coefficient(1) == {}
        assert g.coefficient(2) == {(0, 0): 1}

    def test_end_height_beyond_order_is_zero(self):
        # the factor x^m leaves nothing below degree m; the powers of the
        # marked products are squared, so m = 3000 costs a dozen products
        g = solve_g_kac(MOTZKIN, 3000, 6)
        assert [g.coefficient(n) for n in range(7)] == [{}] * 7


class TestTruncSeries:
    def test_dump_format(self):
        lines = solve_f(2, 3).dump_lines()
        assert lines[0] == "x^0: 0"
        assert lines[1] == "x^1: 1"
        assert lines[2] == "x^2: 1*q0 + 1*q1 + 1*q2"
        assert lines[3] == ("x^3: 1*q0^2 + 3*q0*q1 + 3*q0*q2 "
                            "+ 1*q1^2 + 3*q1*q2 + 1*q2^2")

    def test_json_round_numbers(self):
        doc = solve_f(1, 2).to_json()
        assert doc["order"] == 2 and doc["markers"] == 2
        assert doc["coefficients"][2]["terms"] == [
            {"exponents": [1, 0], "coefficient": 1},
            {"exponents": [0, 1], "coefficient": 1}]

    def test_all_coefficients_nonnegative(self):
        for series in (solve_f(2, 5), solve_f_kac(MOTZKIN, 6),
                       solve_g(2, 3, 4),
                       solve_g_kac(FamilySpec(1, {1: 2, 3: 1}), 2, 7)):
            for n in range(series.order + 1):
                assert all(c > 0 for c in series.coefficient(n).values())

    @pytest.mark.parametrize("coeffs,degree", [
        ([{}, {(1,): 1}], 1),  # the packed product used to pad it to (1, 0)
        ([{(0, 0, 0): 1}, {}], 0),
        ([{(0, 0): 1}, {(1, 0): 2, (1,): 1}], 1),
        ([{(0, 0): 1}, {}, {(): 3}], 2)])
    def test_exponent_width_is_checked(self, coeffs, degree):
        with pytest.raises(ValueError, match=f"at degree {degree} must have "
                                             "2 entries"):
            TruncSeries(len(coeffs) - 1, 2, coeffs)

    def test_row_count_is_checked(self):
        # too few rows left coefficient(2) an IndexError, and too many
        # printed a line past the order
        with pytest.raises(ValueError, match=r"order \+ 1 = 4 coefficients, "
                                             "got 1"):
            TruncSeries(3, 1, [{(0,): 1}])
        with pytest.raises(ValueError, match=r"order \+ 1 = 2 coefficients, "
                                             "got 3"):
            TruncSeries(1, 1, [{}, {}, {(0,): 5}])

    def test_negative_sizes_are_rejected(self):
        # a negative index used to pick a term from the top of the list
        one = _one(3, 1)
        for j in (-1, -4):
            with pytest.raises(ValueError, match="need j >= 0"):
                one.mul_x(j)
        series = solve_f(1, 3)
        for n in (-1, -4, 4):
            with pytest.raises(IndexError):
                series.coefficient(n)
        assert one.mul_x(4) == TruncSeries(3, 1, [{}] * 4)
        assert one.mul_x(0) == one

    @pytest.mark.parametrize("args, error", [
        ((1, -1), "nmarkers must be >= 0, got -1"),
        (("1", 1), "order must be an integer, got '1'"),
        ((1.5, 1), "order must be an integer, got 1.5"),
        ((-1, 1), "order must be >= 0, got -1")])
    def test_sizes_are_read_as_integers(self, args, error):
        # the first three once built a series, raised a bare TypeError and
        # asked for 2.5 coefficients
        with pytest.raises(ValueError) as err:
            TruncSeries(*args, [{}, {}])
        assert str(err.value) == error
        series = TruncSeries(True, 1.0, [{}, {(2,): 1}])
        assert (type(series.order), series.order) == (int, 1)
        assert (type(series.nmarkers), series.nmarkers) == (int, 1)

    @pytest.mark.parametrize("solve", [
        lambda order: solve_f(1, order),
        lambda order: solve_f_kac(MOTZKIN, order),
        lambda order: solve_g(2, 1, order),
        lambda order: solve_g_kac(MOTZKIN, 1, order)])
    def test_solvers_reject_a_negative_order(self, solve):
        for order in (-1, -5):
            with pytest.raises(ValueError, match="order must be >= 0"):
                solve(order)
        assert solve(0).order == 0


def _one(order, nmarkers):
    """The series 1, written out."""
    return TruncSeries(order, nmarkers,
                       [{(0,) * nmarkers: 1}] + [{}] * order)


def _tuple_sum(a, b):
    out = [dict(p) for p in a.coeffs]
    for row, q in zip(out, b.coeffs):
        for e, c in q.items():
            row[e] = row.get(e, 0) + c
    return TruncSeries(a.order, a.nmarkers, out)


def _tuple_product(a, b):
    """a * b on exponent tuples, one term pair at a time: the reference
    for the engine's packed products."""
    out = [{} for _ in range(a.order + 1)]
    for d1, p in enumerate(a.coeffs):
        for d2, q in enumerate(b.coeffs[:a.order + 1 - d1]):
            row = out[d1 + d2]
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    row[e] = row.get(e, 0) + c1 * c2
    return TruncSeries(a.order, a.nmarkers,
                       [{e: c for e, c in row.items() if c} for row in out])


def _tuple_power(a, e):
    out = _one(a.order, a.nmarkers)
    for _ in range(e):
        out = _tuple_product(out, a)
    return out


def _marked_plus_one(f, i):
    """q_i f + 1: raise exponent i of every term, then add 1 at x^0."""
    rows = [{e[:i] + (e[i] + 1,) + e[i + 1:]: c for e, c in p.items()}
            for p in f.coeffs]
    return _tuple_sum(TruncSeries(f.order, f.nmarkers, rows),
                      _one(f.order, f.nmarkers))


def _truncated(series, order):
    return TruncSeries(order, series.nmarkers, series.coeffs[:order + 1])


LEVEL_MAPS = ({}, {1: 1}, {2: 1}, {1: 2, 3: 1}, {1: 3})
TOP = 9  # the differential tests run every order up to TOP


@lru_cache(maxsize=None)
def _reference_f(k, spec=None):
    """f to order TOP on exponent tuples, for pure k-Dyck paths by
    down-size (spec None) or for the level family spec by length, by
    fixed-point iteration of f = c_A(x) (f + 1) + x^s prod_i (q_i f + 1):
    each pass fixes one more coefficient, since s >= 1 and c_A(0) = 0."""
    s, levels = (1, {}) if spec is None else (k + 1, dict(spec.levels))
    zero = (0,) * (k + 1)
    c_a = TruncSeries(TOP, k + 1, [{zero: levels[a]} if a in levels else {}
                                   for a in range(TOP + 1)])
    f = TruncSeries(TOP, k + 1, [{}] * (TOP + 1))
    for _ in range(TOP):
        phi = _one(TOP, k + 1)
        for i in range(k + 1):
            phi = _tuple_product(phi, _marked_plus_one(f, i))
        f = _tuple_sum(phi.mul_x(s),
                       _tuple_product(c_a, _tuple_sum(f, _one(TOP, k + 1))))
    return f


def _product_form(f, k, m):
    """prod_{i<=r} (q_i f + 1)^(ell+1) * prod_{r<i<k} (q_i f + 1)^ell for
    m = ell*k + r, multiplied out on exponent tuples."""
    ell, r = divmod(m, k)
    g = _one(f.order, f.nmarkers)
    for i in range(k):
        factor = _marked_plus_one(f, i)
        g = _tuple_product(g, _tuple_power(factor, ell + 1 if i <= r else ell))
    return g


class TestReferenceSolutions:
    """Every solver against f solved on exponent tuples with no packed
    row (``_reference_f``), at every order up to TOP: k <= 3, pure and
    with each of LEVEL_MAPS."""

    def test_solve_f(self):
        for k in (1, 2, 3):
            want = _reference_f(k)
            for order in range(TOP + 1):
                assert solve_f(k, order) == _truncated(want, order), (
                    k, order)

    def test_solve_f_kac(self):
        for k in (1, 2, 3):
            for levels in LEVEL_MAPS:
                spec = FamilySpec(k, levels)
                want = _reference_f(k, spec)
                for order in range(TOP + 1):
                    assert solve_f_kac(spec, order) == \
                        _truncated(want, order), (k, levels, order)

    def test_lagrange_coefficient(self):
        # (1/n) [t^(n-1)] prod_i (q_i t + 1)^n, multiplied out on tuples
        for k in (1, 2, 3):
            for n in range(1, TOP + 1):
                t = _one(n - 1, k + 1).mul_x(1)
                phi = _one(n - 1, k + 1)
                for i in range(k + 1):
                    phi = _tuple_product(phi, _marked_plus_one(t, i))
                top = _tuple_power(phi, n).coefficient(n - 1)
                for r in _compositions(n - 1, k + 1):
                    assert top[r] % n == 0
                    assert lagrange_coefficient(k, n, r) == top[r] // n, (
                        k, n, r)
                assert lagrange_coefficient(k, n, (n,) + (0,) * k) == 0


class TestHomogeneousRows:
    """The pure solvers drop q_k inside the engine and restore it from
    the row's marker degree: d - 1 at x^d of f and d at x^d of g."""

    def test_solve_f_and_solve_g(self):
        for k in (1, 2, 3):
            for series, shift in [(solve_f(k, 12), -1)] + [
                    (solve_g(k, m, 10), 0) for m in range(7)]:
                for d, p in enumerate(series.coeffs):
                    for e in p:
                        assert min(e) >= 0 and sum(e) == d + shift, (k, d, e)


class TestBallotProductForm:
    """The ballot solvers take g = P_k^ell * P_{r+1} from the solver's
    partial products P_j = prod_{i<j} (q_i f + 1); the reference builds
    the paper's product of the two marker groups factor by factor on
    exponent tuples, from the reference f, with no packed row."""

    def test_solve_g(self):
        for k in (1, 2, 3):
            f = _reference_f(k)
            for m in range(8):
                want = _product_form(f, k, m)
                for order in range(TOP + 1):
                    assert solve_g(k, m, order) == _truncated(want, order), (
                        k, m, order)

    def test_solve_g_kac(self):
        for k in (1, 2, 3):
            for levels in LEVEL_MAPS:
                spec = FamilySpec(k, levels)
                f = _reference_f(k, spec)
                for m in range(8):
                    want = _product_form(f, k, m).mul_x(m)
                    for order in range(TOP + 1):
                        assert solve_g_kac(spec, m, order) == \
                            _truncated(want, order), (k, levels, m, order)


def _engine_results():
    """(label, solver call) of every engine result on the grid of the text
    test: k <= 3, orders 0..TOP, end heights m <= 5 and LEVEL_MAPS."""
    for k in (1, 2, 3):
        for order in range(TOP + 1):
            yield (k, order), lambda k=k, o=order: solve_f(k, o)
            for m in range(6):
                yield (k, m, order), lambda k=k, m=m, o=order: solve_g(k, m, o)
            for levels in LEVEL_MAPS:
                spec = FamilySpec(k, levels)
                yield (k, levels, order), \
                    lambda s=spec, o=order: solve_f_kac(s, o)
                for m in range(6):
                    yield (k, levels, m, order), \
                        lambda s=spec, m=m, o=order: solve_g_kac(s, m, o)
    yield "x^3000", lambda: solve_g_kac(MOTZKIN, 3000, 6)


def _reference_lines(series):
    """The documented text of a series, from its exponent tuples: terms in
    descending exponent order, each written c*q_i^e (q_i for e = 1, no
    factor for e = 0), joined by " + ", and 0 for no term."""
    lines = []
    for d, p in enumerate(series.coeffs):
        terms = ["*".join([str(p[e])] + [f"q{i}" if x == 1 else f"q{i}^{x}"
                                         for i, x in enumerate(e) if x])
                 for e in sorted(p, reverse=True)]
        lines.append(f"x^{d}: " + (" + ".join(terms) or "0"))
    return lines


class TestTextWriter:
    """A solver's result is written straight from its packed rows; the
    text must be what the documented rule makes of its exponent tuples,
    and what a series built from those tuples writes."""

    def test_engine_results(self):
        for label, make in _engine_results():
            series = make()
            lines = series.dump_lines()  # before coeffs is first read
            assert lines == _reference_lines(series), label
            assert series.dump_lines() == lines, label
            plain = TruncSeries(series.order, series.nmarkers, series.coeffs)
            assert plain.dump_lines() == lines, label

    def test_dict_built_series(self):
        series = TruncSeries(2, 3, [{(0, 0, 0): 4},
                                    {(2, 0, 1): 1, (0, 11, 0): 2},
                                    {(1, 1, 1): 3, (1, 0, 2): 5}])
        assert series.dump_lines() == [
            "x^0: 4", "x^1: 1*q0^2*q2 + 2*q1^11",
            "x^2: 3*q0*q1*q2 + 5*q0*q2^2"]
        assert series.dump_lines() == _reference_lines(series)


def _reference_json(series):
    """The documented JSON of a series, from its exponent tuples: order,
    markers, and per power of x its terms in descending exponent order,
    each {"exponents": [...], "coefficient": c}, written by json.dumps."""
    return json.dumps({
        "order": series.order, "markers": series.nmarkers,
        "coefficients": [
            {"x": d, "terms": [{"exponents": list(e), "coefficient": p[e]}
                               for e in sorted(p, reverse=True)]}
            for d, p in enumerate(series.coeffs)]})


class TestJsonWriter:
    """The JSON counterpart of TestTextWriter: a solver's result, shifted
    or not, is written from its packed rows, and the JSON must be what the
    documented rule makes of its exponent tuples, before and after they
    are read, and what a series built from those tuples writes."""

    def test_engine_results(self):
        for label, make in _engine_results():
            for j in (0, 1, 3):
                series = make().mul_x(j)
                doc = json.dumps(series.to_json())  # coeffs not yet read
                assert doc == _reference_json(series), (label, j)
                assert json.dumps(series.to_json()) == doc, (label, j)
                plain = TruncSeries(series.order, series.nmarkers,
                                    series.coeffs)
                assert json.dumps(plain.to_json()) == doc, (label, j)


LAZY = [lambda: solve_f(2, 7), lambda: solve_g(3, 4, 6),
        lambda: solve_f_kac(FamilySpec(2, {1: 2, 3: 1}), 9),
        lambda: solve_g_kac(MOTZKIN, 2, 8)]


class TestLazyResult:
    """A solver's result unpacks its rows when ``coeffs`` is first read;
    before and after that read it copies, pickles, compares and shifts
    like the series built from its exponent tuples."""

    @pytest.fixture(params=[False, True], ids=["unread", "read"])
    def fresh(self, request):
        def make(solve):
            series = solve()
            if request.param:
                series.coeffs
            return series
        return make

    @pytest.mark.parametrize("solve", LAZY)
    def test_copies(self, solve, fresh):
        want = solve()
        for protocol in range(2, 6):
            back = pickle.loads(pickle.dumps(fresh(solve), protocol))
            assert back == want and back.dump_lines() == want.dump_lines()
        for dup in (copy.copy, copy.deepcopy):
            back = dup(fresh(solve))
            assert back == want and back.dump_lines() == want.dump_lines()

    @pytest.mark.parametrize("solve", LAZY)
    def test_equals_the_tuple_series(self, solve, fresh):
        want = solve()
        plain = TruncSeries(want.order, want.nmarkers, want.coeffs)
        assert fresh(solve) == plain
        assert plain == fresh(solve)
        for j in range(want.order + 3):
            shifted = fresh(solve).mul_x(j)
            assert shifted == plain.mul_x(j), j
            assert shifted.dump_lines() == plain.mul_x(j).dump_lines(), j
            assert fresh(solve).mul_x(j).at_ones() == \
                plain.mul_x(j).at_ones(), j


def _binomial(n, r):
    return comb(n, r) if 0 <= r <= n else 0


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


class TestClosedFormsInIntegers:
    """Each closed form divides once in integers; a Fraction evaluation of
    the formula in its docstring is the reference."""

    def test_fuss_catalan(self):
        for k in range(1, 5):
            for n in range(30):
                want = Fraction(_binomial((k + 1) * n, n), k * n + 1)
                assert fuss_catalan(k, n) == want, (k, n)

    def test_joint(self):
        for k in (1, 2, 3):
            for n in range(1, 9):
                for r in product(range(n + 1), repeat=k + 1):
                    want = (Fraction(_prod(_binomial(n, x) for x in r), n)
                            if sum(r) == n - 1 else 0)
                    assert count_joint(k, n, r) == want, (k, n, r)

    def test_marginal_pk_and_narayana(self):
        for k in range(1, 5):
            for n in range(1, 25):
                for r in range(n):
                    assert count_marginal(k, n, r) == Fraction(
                        _binomial(n, r) * _binomial(k * n, n - 1 - r), n)
                    assert count_pk(k, n, r) == Fraction(
                        _binomial(n, r + 1) * _binomial(k * n, r), n)
        for n in range(1, 30):
            for r in range(1, n + 1):
                assert narayana(n, r) == Fraction(
                    _binomial(n, r) * _binomial(n, r - 1), n)

    def test_ballot_joint(self):
        for k in (1, 2, 3):
            for ell in range(4):
                for r in range(k):
                    for n in range(8):
                        for s in product(range(n + 1), repeat=k + 1):
                            assert count_ballot_joint(k, ell, r, n, s) == (
                                _ballot_formula(k, ell, r, n, s)), (
                                k, ell, r, n, s)

    def test_non_integer_quotient_in_lowest_terms(self):
        with pytest.raises(NonIntegerResultError) as err:
            _exact_int(14, 12, "ctx")
        assert str(err.value) == "ctx evaluated to 7/6"
        with pytest.raises(NonIntegerResultError) as err:
            _exact_int(-14, 12, "ctx")
        assert str(err.value) == "ctx evaluated to -7/6"
        assert _exact_int(-14, 7, "ctx") == -2
        assert _exact_int(0, 5, "ctx") == 0


def _ballot_formula(k, ell, r, n, s):
    if n == 0:
        return int(not any(s))
    if sum(s) != n:
        return 0
    bracket = (Fraction(ell + 1, n + ell + 1) * sum(s[:r + 1])
               + Fraction(ell, n + ell) * sum(s[r + 1:k]))
    return (Fraction(1, n) * bracket
            * _prod(_binomial(n + ell + 1, x) for x in s[:r + 1])
            * _prod(_binomial(n + ell, x) for x in s[r + 1:k])
            * _binomial(n, s[k]))


def test_cli_import_loads_no_rational_arithmetic():
    # counting divides in integers: neither fractions nor decimal (which
    # fractions imports) is loaded by the command line
    src = Path(counting.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import peakmod.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout == "[]\n"

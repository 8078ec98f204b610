"""Acceptance criteria, one test per criterion at its stated bounds.

Every check is exact (integer equality); there are no tolerances
anywhere.  Each test prints a single pass line (visible with ``pytest
-s``) after its assertions hold.  The whole module reruns the package's
headline identities: figure reproductions, joint equidistribution, the
path/tree bijection, the closed forms, the functional equations, the
ballot results, and the classical involution.
"""

from peakmod import (
    count_ballot_joint,
    fuss_catalan,
    gen_ballot,
    gen_k_dyck,
    histogram,
)
from peakmod.verify import (
    _compositions,
    verify_ballot,
    verify_bijection,
    verify_closed_forms,
    verify_equidistribution,
    verify_figures,
    verify_involution,
    verify_series,
)


def _passed(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS: {text}")


def test_criterion_01_figure2_tally():
    report = verify_figures()
    assert report.ok, report.summary_lines()
    _passed(1, "2-Dyck down-size-3 tally matches exactly (total 12)")


def test_criterion_02_figure3_tally():
    report = verify_figures()
    assert report.ok, report.summary_lines()
    _passed(2, "Motzkin length-5 weak tally matches exactly (total 21)")


def test_criterion_03_worked_example():
    report = verify_figures()
    assert report.ok, report.summary_lines()
    _passed(3, "worked cyclic shift and the 10-node labeled ternary tree")


def test_criterion_04_joint_equidistribution():
    for k, max_n in ((1, 10), (2, 6), (3, 4)):
        report = verify_equidistribution(k=k, max_n=max_n)
        assert report.ok, report.summary_lines()
    _passed(4, "all (k+1)! permutations realized bijectively "
               "(k=1 n<=10, k=2 n<=6, k=3 n<=4)")


def test_criterion_05_bijection_round_trip():
    report = verify_bijection(max_k=3, max_n=5, max_nodes=5)
    assert report.ok, report.summary_lines()
    _passed(5, "path/tree round trips and statistic transport "
               "(k<=3 n<=5, arities<=4 nodes<=5)")


def test_criterion_06_closed_forms():
    report = verify_closed_forms(max_k=3, max_n=5)
    assert report.ok, report.summary_lines()
    _passed(6, "joint formula, series reversion, and enumeration agree "
               "(k<=3 n<=5); marginals reverse")


def test_criterion_07_functional_equations():
    report = verify_series(max_k=2, max_n=5, weak_max_len=8,
                           ballot_max_m=3, ballot_max_n=4)
    assert report.ok, report.summary_lines()
    _passed(7, "series coefficients equal enumeration tallies with full or "
               "grouped marker symmetry (k<=2)")


def test_criterion_08_ballot_closed_form():
    assert sum(1 for _ in gen_ballot(2, 1, 2)) == 7
    for m in (1, 2, 3):
        ell, r = divmod(m, 2)
        for n in range(1, 5):
            hist = histogram(gen_ballot(2, m, n), "plain_starred")
            vectors = set(hist.counts)
            for s in _compositions(n, 3):
                assert count_ballot_joint(2, ell, r, n, s) == \
                    hist.counts.get(s, 0), (m, n, s)
                vectors.discard(s)
            assert not vectors
    _passed(8, "ballot count formula matches brute force "
               "(k=2, m in 1..3, n<=4); the (2,1) family of down-size 2 "
               "has 7 paths")


def test_criterion_09_ballot_residue_recursion():
    report = verify_ballot(max_k=3, max_m=4, max_n=1, identity_max_n=3)
    assert report.ok, report.summary_lines()
    _passed(9, "starred counts split over ballot parts per residue class "
               "(k<=3, m<=4, n<=3)")


def test_criterion_10_involution_and_reversal():
    report = verify_involution(max_semilength=8, narayana_max_n=10)
    assert report.ok, report.summary_lines()
    _passed(10, "involution squares to identity and swaps (pk, dd) "
                "(semilength<=8); peak histogram reversal (n<=10)")


def test_criterion_11_totals_sanity():
    for k in (1, 2, 3):
        for n in range(6):
            assert sum(1 for _ in gen_k_dyck(k, n)) == fuss_catalan(k, n)
    _passed(11, "enumeration totals equal C((k+1)n, n)/(kn+1) "
                "(k<=3, n<=5)")

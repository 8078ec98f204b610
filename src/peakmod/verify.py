"""Machine-checkable property suites behind the ``verify`` CLI command.

Each suite replays one group of the package's identities at configurable
desk-scale bounds and reports every failed comparison with its inputs.
The suites add no logic of their own: they drive the enumeration oracle
against the transforms, bijections, closed forms, and series solvers.
Every integer parameter is read at entry by the library's integer reader,
``core._int_arg`` (4.0 is 4, True is 1): ``k`` and ``max_k`` must be at
least 1 and the other bounds at least 0, else a ValueError names the
parameter.  A report's ``params`` keep the ints read.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, permutations

from .bijections import (
    path_to_labeled_tree,
    path_to_tree,
    permute_statistics,
    tree_to_path,
)
from .core import (
    LABEL_DD,
    LABEL_PEAK,
    LABEL_RIGHTMOST,
    FamilySpec,
    LatticePath,
    PositionalTree,
    _Frozen,
    _int_arg,
    parse_path,
    tree_to_json,
)
from .counting import (
    count_ballot_joint,
    count_joint,
    count_marginal,
    count_pk,
    fuss_catalan,
    lagrange_coefficient,
    narayana,
    solve_f,
    solve_f_kac,
    solve_g,
    solve_g_kac,
)
from .enumeration import (
    ballot_family,
    family_histogram,
    gen_ballot,
    gen_k_dyck,
    gen_trees,
    histogram_from_keys,
    k_dyck_family,
)
from .statistics import (
    PLAIN,
    PLAIN_STARRED,
    WEAK,
    WEAK_STARRED,
    e_vector,
    stat_vector,
)
from .transforms import ballot_decompose, cyclic_shift, deutsch_involution

MOTZKIN = FamilySpec(1, {1: 1})
SCHROEDER = FamilySpec(1, {2: 1})


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``parts`` nonnegative integers summing to ``total``,
    in lexicographic order: stars and bars, with no recursion per part."""
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


class VerifyReport(_Frozen):
    """The checks of one suite and its failures, filled in as the checks
    run: the one value type that takes assignment, and has no hash."""

    _FIELDS = ("suite", "params", "checks", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite: str, params: dict, checks: int = 0,
                 failures: list | None = None):
        self.suite, self.params, self.checks = suite, params, checks
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, ok: bool, inputs=None,
               expected=None, got=None) -> None:
        self.checks += 1
        if not ok:
            self.failures.append({
                "check": name,
                "inputs": inputs,
                "expected": repr(expected),
                "got": repr(got),
            })

    def expect(self, name: str, expected, got, inputs=None) -> None:
        self.record(name, expected == got, inputs, expected, got)

    def to_json(self) -> dict:
        return {"suite": self.suite, "params": self.params,
                "checks": self.checks, "failures": self.failures,
                "ok": self.ok}

    def summary_lines(self) -> list[str]:
        lines = [f"suite {self.suite}: {self.checks} checks, "
                 f"{len(self.failures)} failures"]
        for f in self.failures:
            lines.append(f"  FAIL {f['check']} inputs={f['inputs']} "
                         f"expected={f['expected']} got={f['got']}")
        return lines


def _least(name: str) -> int:
    """The least value of the suite parameter ``name``, which the CLI
    applies to its flag too: 1 for ``k`` and ``max_k``, 0 for the rest."""
    return 1 if name in ("k", "max_k") else 0


def _report(suite: str, **bounds) -> VerifyReport:
    """The empty report of a suite, whose integer parameters are read at
    entry by :func:`_int_arg`, each at least :func:`_least` of its name."""
    return VerifyReport(suite, {name: _int_arg(name, x, _least(name))
                                for name, x in bounds.items()})


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

FIG2_TALLY = {(0, 0, 2): 1, (0, 1, 1): 3, (1, 0, 1): 3,
              (1, 1, 0): 3, (0, 2, 0): 1, (2, 0, 0): 1}
FIG3_TALLY = {(0, 0): 2, (0, 1): 5, (1, 0): 5,
              (1, 1): 7, (2, 0): 1, (0, 2): 1}

EXAMPLE_BLOCK = "uuduuuuududd"
EXAMPLE_BLOCK_SHIFTED = "uuuduuuduudd"
EXAMPLE_PATH = EXAMPLE_BLOCK + "u" + EXAMPLE_BLOCK + "u" + "uud" + "d"

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


def verify_figures() -> VerifyReport:
    rep = _report("figures")
    h2 = family_histogram(*k_dyck_family(2, 3), PLAIN)
    rep.expect("2-dyck down-size-3 tally", FIG2_TALLY, h2.counts)
    rep.expect("2-dyck down-size-3 total", 12, h2.total)
    h3 = family_histogram(MOTZKIN, 5, WEAK)
    rep.expect("motzkin length-5 tally", FIG3_TALLY, h3.counts)
    rep.expect("motzkin length-5 total", 21, h3.total)

    spec = FamilySpec(2)
    block = parse_path(EXAMPLE_BLOCK, spec)
    rep.expect("cyclic shift of the example block",
               EXAMPLE_BLOCK_SHIFTED, cyclic_shift(block).text(),
               inputs=EXAMPLE_BLOCK)
    big = parse_path(EXAMPLE_PATH, spec)
    tree = path_to_tree(big)
    rep.expect("example tree size", 10, tree.node_count())
    rep.expect("example tree position counts", (3, 3, 3), e_vector(tree))
    rep.expect("example labeled tree", FIG1_TREE_JSON,
               tree_to_json(path_to_labeled_tree(big)))
    rep.expect("example tree inverts", big, tree_to_path(tree, 2))
    return rep


# ---------------------------------------------------------------------------
# joint equidistribution
# ---------------------------------------------------------------------------

def verify_equidistribution(k: int = 2, max_n: int = 5,
                            weak_max_len: int = 8) -> VerifyReport:
    rep = _report("equidistribution", k=k, max_n=max_n,
                  weak_max_len=weak_max_len)
    k, max_n, weak_max_len = rep.params.values()
    for n in range(max_n + 1):
        paths = list(gen_k_dyck(k, n))
        olds = [stat_vector(p).key() for p in paths]
        hist = histogram_from_keys(olds, PLAIN, k)
        for sigma in permutations(range(1, k + 2)):
            rep.record(f"histogram invariance n={n} sigma={sigma}",
                       hist.permuted(sigma) == hist,
                       inputs={"k": k, "n": n, "sigma": sigma})
            bad = None
            images = set()
            for p, old in zip(paths, olds):
                q = permute_statistics(p, sigma)
                images.add(q)
                new = stat_vector(q).key()
                if any(new[sigma[i] - 1] != old[i] for i in range(k + 1)):
                    bad = (p.text(), old, new)
                    break
            rep.record(f"statistic rearrangement n={n} sigma={sigma}",
                       bad is None and len(images) == len(paths),
                       inputs={"k": k, "n": n, "sigma": sigma,
                               "witness": bad})
    for spec, name in ((MOTZKIN, "motzkin"), (SCHROEDER, "schroeder")):
        for length in range(weak_max_len + 1):
            hist = family_histogram(spec, length, WEAK)
            for sigma in permutations(range(1, spec.k + 2)):
                rep.record(
                    f"weak invariance {name} len={length} sigma={sigma}",
                    hist.permuted(sigma) == hist,
                    inputs={"family": name, "length": length,
                            "sigma": sigma})
    return rep


# ---------------------------------------------------------------------------
# path/tree bijection
# ---------------------------------------------------------------------------

def verify_bijection(max_k: int = 3, max_n: int = 5,
                     max_nodes: int = 5) -> VerifyReport:
    rep = _report("bijection", max_k=max_k, max_n=max_n, max_nodes=max_nodes)
    max_k, max_n, max_nodes = rep.params.values()
    tree_bad = {}  # (arity, n) -> the first tree failing its round trip
    for k in range(1, max_k + 1):
        for n in range(max_n + 1):
            bad_round = bad_stats = None
            count = 0
            for p in gen_k_dyck(k, n):
                count += 1
                tree = path_to_tree(p)
                if tree_to_path(tree, k) != p:
                    bad_round = p.text()
                    break
                if stat_vector(p).key() != e_vector(tree, k + 1):
                    bad_stats = p.text()
                    break
                if n and not _labels_agree(p, k, tree):
                    bad_stats = p.text() + " (labels)"
                    break
            rep.record(f"path round trip k={k} n={n}", bad_round is None,
                       inputs={"k": k, "n": n, "witness": bad_round})
            rep.record(f"statistic transport k={k} n={n}", bad_stats is None,
                       inputs={"k": k, "n": n, "witness": bad_stats})
            trees, tree_bad[k + 1, n] = _tree_pass(k + 1, n, n <= max_nodes)
            rep.expect(f"family sizes match k={k} n={n}", count, trees,
                       inputs={"k": k, "n": n})
    for arity in range(2, max_k + 2):
        for n in range(max_nodes + 1):
            bad = tree_bad[arity, n] if n <= max_n else \
                _tree_pass(arity, n, True)[1]
            rep.record(f"tree round trip arity={arity} n={n}", bad is None,
                       inputs={"arity": arity, "n": n, "witness": bad})
    return rep


def _tree_pass(arity: int, n: int, round_trip: bool) -> tuple[int, object]:
    """One walk over the trees of the given arity on n nodes: how many
    there are and, if ``round_trip``, the JSON of the first tree that the
    path map does not bring back (None if every one comes back)."""
    count, bad = 0, None
    for t in gen_trees(arity, n):
        count += 1
        if round_trip and bad is None and \
                path_to_tree(tree_to_path(t, arity - 1)) != t:
            bad = tree_to_json(t)
    return count, bad


def _labels_agree(path: LatticePath, k: int, tree: PositionalTree) -> bool:
    """The labeled tree has the unlabeled ``tree``'s shape, every node at
    position i+1 carries a residue-i peak label (i < k) or a
    double-descent label (i = k), and the root is the unique r."""
    labeled = path_to_labeled_tree(path)
    records = labeled.records()
    if labeled.arity != tree.arity or \
            [r[:2] for r in records] != [r[:2] for r in tree.records()]:
        return False
    if records[0][2].kind != LABEL_RIGHTMOST:
        return False
    for _, pos, lab in records[1:]:
        if pos <= k:
            if lab.kind != LABEL_PEAK or lab.residue != pos - 1:
                return False
        elif lab.kind != LABEL_DD:
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def verify_closed_forms(max_k: int = 3, max_n: int = 5) -> VerifyReport:
    rep = _report("closed-forms", max_k=max_k, max_n=max_n)
    max_k, max_n = rep.params.values()
    k1_hists = {}  # n -> the k = 1 histogram, read again by Narayana
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            hist = family_histogram(*k_dyck_family(k, n), PLAIN)
            if k == 1:
                k1_hists[n] = hist
            rep.expect(f"family size k={k} n={n}",
                       fuss_catalan(k, n), hist.total)
            for r in _compositions(n - 1, k + 1):
                want = hist.counts.get(r, 0)
                rep.expect(f"joint count k={k} n={n} r={r}", want,
                           count_joint(k, n, r), inputs={"r": r})
                rep.expect(f"reversion route k={k} n={n} r={r}", want,
                           lagrange_coefficient(k, n, r), inputs={"r": r})
            dd_marginal = hist.marginal(k)
            pk0_marginal = hist.marginal(0)
            for r in range(n):
                rep.expect(f"marginal k={k} n={n} r={r}",
                           pk0_marginal.get(r, 0), count_marginal(k, n, r))
                rep.expect(f"marginal reversal k={k} n={n} r={r}",
                           count_marginal(k, n, r),
                           count_pk(k, n, n - 1 - r))
                total_peaks = dd_marginal.get(n - 1 - r, 0)
                rep.expect(f"peak-total count k={k} n={n} r={r}",
                           total_peaks, count_pk(k, n, r))
    for n in range(1, max_n + 1):
        # all peaks but the rightmost, so r peaks show as r - 1
        peak_hist = k1_hists[n].marginal(0)
        for r in range(1, n + 1):
            rep.expect(f"narayana n={n} r={r}", peak_hist.get(r - 1, 0),
                       narayana(n, r))
    return rep


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------

def verify_series(max_k: int = 2, max_n: int = 5, weak_max_len: int = 8,
                  ballot_max_m: int = 3, ballot_max_n: int = 4
                  ) -> VerifyReport:
    rep = _report("series", max_k=max_k, max_n=max_n,
                  weak_max_len=weak_max_len, ballot_max_m=ballot_max_m,
                  ballot_max_n=ballot_max_n)
    max_k, max_n, weak_max_len, ballot_max_m, ballot_max_n = \
        rep.params.values()
    for k in range(1, max_k + 1):
        f = solve_f(k, max_n)
        rep.expect(f"empty-path coefficient k={k}", {}, f.coefficient(0))
        for n in range(max_n + 1):
            hist = family_histogram(*k_dyck_family(k, n), PLAIN)
            want = {key: c for key, c in hist.counts.items()} if n else {}
            rep.expect(f"series vs enumeration k={k} n={n}", want,
                       f.coefficient(n))
        for sigma in permutations(range(k + 1)):
            rep.record(f"series marker symmetry k={k} sigma={sigma}",
                       f.permute_markers(sigma) == f,
                       inputs={"k": k, "sigma": sigma})
    for spec, name in ((MOTZKIN, "motzkin"), (SCHROEDER, "schroeder")):
        f = solve_f_kac(spec, weak_max_len)
        for length in range(weak_max_len + 1):
            hist = family_histogram(spec, length, WEAK)
            want = hist.counts if length else {}
            rep.expect(f"weak series vs enumeration {name} len={length}",
                       want, f.coefficient(length))
        for sigma in permutations(range(spec.k + 1)):
            rep.record(f"weak series symmetry {name} sigma={sigma}",
                       f.permute_markers(sigma) == f,
                       inputs={"family": name, "sigma": sigma})
    for k in range(1, max_k + 1):
        for m in range(ballot_max_m + 1):
            g = solve_g(k, m, ballot_max_n)
            for n in range(ballot_max_n + 1):
                hist = family_histogram(*ballot_family(k, m, n),
                                        PLAIN_STARRED)
                rep.expect(f"ballot series k={k} m={m} n={n}",
                           hist.counts, g.coefficient(n))
            _check_grouped_symmetry(rep, g, k, m, f"ballot series k={k} m={m}")
        levels = FamilySpec(k, {1: 1})
        for m in range(min(ballot_max_m, 2) + 1):
            order = min(weak_max_len, 6)
            g = solve_g_kac(levels, m, order)
            spec_m = FamilySpec(k, {1: 1}, end_height=m)
            for length in range(order + 1):
                hist = family_histogram(spec_m, length, WEAK_STARRED)
                rep.expect(f"level ballot series k={k} m={m} len={length}",
                           hist.counts, g.coefficient(length))
            _check_grouped_symmetry(rep, g, k, m,
                                    f"level ballot series k={k} m={m}")
    return rep


def _check_grouped_symmetry(rep: VerifyReport, series, k: int, m: int,
                            name: str) -> None:
    """Symmetry within marker groups 0..r and r+1..k-1 (dd marker fixed)."""
    r = m % k
    for group in (range(r + 1), range(r + 1, k)):
        group = list(group)
        for perm in permutations(group):
            sigma = list(range(k + 1))
            for a, b in zip(group, perm):
                sigma[a] = b
            rep.record(f"{name} group symmetry sigma={tuple(sigma)}",
                       series.permute_markers(sigma) == series,
                       inputs={"sigma": sigma})


# ---------------------------------------------------------------------------
# ballot identities
# ---------------------------------------------------------------------------

def verify_ballot(max_k: int = 3, max_m: int = 4, max_n: int = 4,
                  identity_max_n: int = 3) -> VerifyReport:
    rep = _report("ballot", max_k=max_k, max_m=max_m, max_n=max_n,
                  identity_max_n=identity_max_n)
    max_k, max_m, max_n, identity_max_n = rep.params.values()
    for k in range(1, max_k + 1):
        for m in range(max_m + 1):
            ell, r = divmod(m, k)
            for n in range(1, max_n + 1):
                hist = family_histogram(*ballot_family(k, m, n),
                                        PLAIN_STARRED)
                for s in _compositions(n, k + 1):
                    rep.expect(
                        f"ballot closed form k={k} m={m} n={n} s={s}",
                        hist.counts.get(s, 0),
                        count_ballot_joint(k, ell, r, n, s),
                        inputs={"s": s})
            for n in range(identity_max_n + 1):
                bad = None
                for p in gen_ballot(k, m, n):
                    if not _residue_split_holds(p, k):
                        bad = p.text()
                        break
                rep.record(f"residue recursion k={k} m={m} n={n}",
                           bad is None,
                           inputs={"k": k, "m": m, "n": n, "witness": bad})
    return rep


def _residue_split_holds(path: LatticePath, k: int) -> bool:
    """Starred counts split over the ballot parts: the plain counts of
    part j shifted j times, plus one for each nonempty part whose floor
    (height j) sits in the residue class."""
    dec = ballot_decompose(path)
    if dec.reassemble() != path:
        return False
    total = [0] * k
    for j, part in enumerate(dec.parts):
        for i, c in enumerate(stat_vector(cyclic_shift(part, j), PLAIN).pk):
            total[i] += c
        if not part.is_empty():
            total[j % k] += 1
    return tuple(total) == stat_vector(path, PLAIN_STARRED).pk


# ---------------------------------------------------------------------------
# peak/double-descent exchange and Narayana reversal
# ---------------------------------------------------------------------------

def verify_involution(max_semilength: int = 8,
                      narayana_max_n: int = 10) -> VerifyReport:
    rep = _report("involution", max_semilength=max_semilength,
                  narayana_max_n=narayana_max_n)
    max_semilength, narayana_max_n = rep.params.values()
    for n in range(max_semilength + 1):
        bad = None
        for p in gen_k_dyck(1, n):
            q = deutsch_involution(p)
            sp, sq = stat_vector(p), stat_vector(q)
            if deutsch_involution(q) != p or \
                    (sp.pk[0], sp.dd) != (sq.dd, sq.pk[0]):
                bad = p.text()
                break
        rep.record(f"involution exchanges counts n={n}", bad is None,
                   inputs={"n": n, "witness": bad})
    for n in range(1, narayana_max_n + 1):
        hist = family_histogram(*k_dyck_family(1, n), PLAIN)
        pk_m = hist.marginal(0)
        dd_m = hist.marginal(1)
        rep.record(f"peak/dd reversal n={n}",
                   all(pk_m.get(r, 0) == dd_m.get(n - 1 - r, 0)
                       for r in range(n)),
                   inputs={"n": n})
        rep.record(f"narayana symmetry n={n}",
                   all(narayana(n, r) == narayana(n, n + 1 - r)
                       for r in range(1, n + 1)),
                   inputs={"n": n})
    return rep


SUITES = {
    "figures": verify_figures,
    "equidistribution": verify_equidistribution,
    "bijection": verify_bijection,
    "closed-forms": verify_closed_forms,
    "series": verify_series,
    "ballot": verify_ballot,
    "involution": verify_involution,
}

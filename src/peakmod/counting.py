"""Closed-form counts and the truncated generating-function engine.

Everything here is exact and in integers: each closed form puts its
terms over one common denominator and divides once, and a failed
integrality assertion raises rather than rounding.  The solvers return
:class:`TruncSeries`: power series in x truncated at a fixed order whose
coefficients are sparse multivariate polynomials in the markers
q_0..q_k (q_i marks peaks in residue class i, q_k marks double descents).

The master series f for pure k-Dyck paths solves

    f = x * (q_0 f + 1)(q_1 f + 1) ... (q_k f + 1),

with x tracking down-size.  The level-step generalization tracks total
length and satisfies

    f = c_A(x) (f + 1) + x^(k+1) * prod_i (q_i f + 1),

where c_A(x) sums c_a x^a over the allowed level run-lengths.  Ballot
families ending at height m = ell*k + r multiply out

    g = (prod_{i<=r} (q_i f + 1))^(ell+1) * (prod_{r<i<k} (q_i f + 1))^ell,

optionally with an x^m prefactor when x tracks length.  Both equations
for f are solved coefficient by coefficient: with P_0 = 1 and
P_{j+1} = P_j + q_j (f P_j), the x^d coefficient of every P_j needs only
f_1..f_d, and f_n reads P_{k+1} and f below degree n.  Each coefficient
of f and of the partial products is computed exactly once.  The two
marker groups of g together make P_k, so g = P_k^ell * P_{r+1}: the
ballot solvers finish the solver's own rows of the P_j that g reads up
to the order and build no marked product of their own.

Inside the engine a series is a list of rows, one per power of x (or
of f), and a row is a dict from an *outer* key to an integer of
*digits*.  The outer markers q_0..q_{j-1} are packed into the key
sum_i e_i * B^i (the layout of :func:`peakmod.core._packing`, which
the family walk of :mod:`peakmod.enumeration` shares from ``core``),
and the powers of one *inner* marker q_j are the W-bit digits of the
integer: the term c * q_0^e_0 ... q_j^e_j is c << (e_j * W) at key
sum_{i<j} e_i * B^i.  A marker is a pair (step, shift): multiplying by
an outer marker adds B^i to the key, and by the inner one shifts the
digits by W bits.  A row product is then ``out[k1 + k2] += v1 * v2``,
one C big-integer product per pair of keys (Kronecker substitution in
the inner marker).  A *ring* is one value (product-sum, constant row,
markers): the row arithmetic and one marker per q_i, which each builder
reads from it.

- **Which marker is inner.**  The pure series are homogeneous: row d of
  every P_j and of g has marker degree d, f_n has degree n - 1, and
  [f^d] Phi(f)^n has degree d.  So :func:`solve_f`, :func:`solve_g` and
  the Lagrange route drop q_k (step 0, shift 0) and restore its
  exponent from the degree when unpacking; q_{k-1} is inner and
  q_0..q_{k-2} are outer.  The level-step series are not homogeneous
  (a level step carries no marker), so :func:`solve_f_kac` and
  :func:`solve_g_kac` keep q_0..q_{k-1} outer and q_k inner.
- **B.**  A coefficient at x^d (or f^d) has total marker degree at most
  d <= order, since every marker comes with a factor f of x-degree at
  least one, so no outer exponent reaches B = order + 1 (B = n for the
  Lagrange expansion, whose rows stop at f^(n-1)) and no key carries.
- **W.**  The engine multiplies only series it builds itself, from the
  color counts c_a >= 1 of a :class:`FamilySpec` and markers of
  coefficient 1, so every coefficient is positive and no sum of
  products cancels to zero.  Every row it makes feeds a row of the
  result, and is therefore at most that row: each digit of any row,
  and each partial sum that makes it, is at most some result row's
  value with every marker at 1.  A shadow run of the same builder on
  the ring of ints, a row being its value with every marker at 1,
  gives the result's values, and W is the bit length of the largest:
  no digit carries into the next or borrows from it.

A result keeps its packed rows, read by one walker, :func:`_row_keys`:
into exponent tuples when ``coeffs`` is first read, and into the text and
the JSON without them.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache
from math import comb, gcd
from operator import getitem
from types import MappingProxyType

from .core import FamilySpec, _int_arg, _unpack, permute_coordinates


class NonIntegerResultError(ArithmeticError):
    """A count formula failed to produce an integer (an internal bug)."""


def _exact_int(num: int, den: int, context: str) -> int:
    """num / den for den > 0, which must be an integer; otherwise the
    error gives the quotient in lowest terms."""
    quotient, rest = divmod(num, den)
    if rest:
        g = gcd(num, den)
        raise NonIntegerResultError(
            f"{context} evaluated to {num // g}/{den // g}")
    return quotient


def _entries(name: str, r: Sequence[int], size: int) -> tuple[int, ...]:
    """The ``size`` entries of the vector ``name``, read as ints >= 0."""
    try:
        r = tuple(r)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {r!r}") from None
    if len(r) != size:
        raise ValueError(f"{name} needs {size} entries, got {len(r)}")
    name += " entry"
    return tuple([_int_arg(name, x, 0) for x in r])


def _joint_args(k: int, n: int, r: Sequence[int]) -> tuple:
    """k >= 1, n >= 1 and the k + 1 entries of r, as ints."""
    k, n = _int_arg("k", k, 1), _int_arg("n", n, 1)
    return k, n, _entries("r", r, k + 1)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def fuss_catalan(k: int, n: int) -> int:
    """Number of k-Dyck paths of down-size n: C((k+1)n, n) / (kn + 1)."""
    k, n = _int_arg("k", k, 1), _int_arg("n", n, 0)
    return _exact_int(comb((k + 1) * n, n), k * n + 1,
                      f"fuss_catalan({k}, {n})")


def count_joint(k: int, n: int, r: Sequence[int]) -> int:
    """Paths of down-size n with statistic vector r = (r_0, ..., r_k).

    Zero unless the entries sum to n - 1 (each down-step except the one
    after the rightmost peak carries exactly one feature); otherwise
    (1/n) * prod_i C(n, r_i).
    """
    k, n, r = _joint_args(k, n, r)
    if sum(r) != n - 1:
        return 0
    num = 1
    for ri in r:
        num *= comb(n, ri)
    return _exact_int(num, n, f"count_joint({k}, {n}, {r})")


def count_marginal(k: int, n: int, r: int) -> int:
    """Paths of down-size n on which one fixed statistic equals r:
    (1/n) C(n, r) C(kn, n-1-r)."""
    k, n, r = _marginal_args(k, n, r)
    return _exact_int(comb(n, r) * comb(k * n, n - 1 - r), n,
                      f"count_marginal({k}, {n}, {r})")


def count_pk(k: int, n: int, r: int) -> int:
    """Paths of down-size n with r non-rightmost peaks, i.e. r+1 peaks in
    total: (1/n) C(n, r+1) C(kn, r).  Reversal partner of
    :func:`count_marginal`: count_pk(k, n, n-1-r) == count_marginal(k, n, r).
    """
    k, n, r = _marginal_args(k, n, r)
    return _exact_int(comb(n, r + 1) * comb(k * n, r), n,
                      f"count_pk({k}, {n}, {r})")


def _marginal_args(k: int, n: int, r: int) -> tuple[int, int, int]:
    """k >= 1, n >= 1 and 0 <= r <= n - 1, as ints."""
    k, n, r = _int_arg("k", k, 1), _int_arg("n", n, 1), _int_arg("r", r, 0)
    if r > n - 1:
        raise ValueError(f"need r <= n - 1, got r = {r} and n = {n}")
    return k, n, r


def narayana(n: int, r: int) -> int:
    """Dyck paths of semilength n with exactly r peaks:
    (1/n) C(n, r) C(n, r-1)."""
    n, r = _int_arg("n", n, 1), _int_arg("r", r, 1)
    if r > n:
        raise ValueError(f"need r <= n, got r = {r} and n = {n}")
    return _exact_int(comb(n, r) * comb(n, r - 1), n,
                      f"narayana({n}, {r})")


def count_ballot_joint(k: int, ell: int, r: int, n: int,
                       s: Sequence[int]) -> int:
    """Ballot paths ending at height ell*k + r with starred statistics s.

    s = (s_0, ..., s_{k-1}, s_k) where s_i counts all peaks in residue
    class i (rightmost included) and s_k the double descents; the entries
    must sum to n.  Evaluates

        (1/n) [ (ell+1)/(n+ell+1) * sum_{i<=r} s_i
                + ell/(n+ell)     * sum_{r<i<k} s_i ]
        * prod_{i<=r} C(n+ell+1, s_i)
        * prod_{r<i<k} C(n+ell, s_i) * C(n, s_k)

    in integers, with the bracket over (n+ell+1)(n+ell).
    """
    k, ell = _int_arg("k", k, 1), _int_arg("ell", ell, 0)
    r, n = _int_arg("r", r, 0), _int_arg("n", n, 0)
    if r > k - 1:
        raise ValueError(f"need r <= k - 1, got r = {r} and k = {k}")
    s = _entries("s", s, k + 1)
    if n == 0:
        return 1 if all(x == 0 for x in s) else 0
    if sum(s) != n:
        return 0
    low = sum(s[i] for i in range(r + 1))
    high = sum(s[i] for i in range(r + 1, k))
    bracket = (ell + 1) * (n + ell) * low + ell * (n + ell + 1) * high
    prod = 1
    for i in range(r + 1):
        prod *= comb(n + ell + 1, s[i])
    for i in range(r + 1, k):
        prod *= comb(n + ell, s[i])
    prod *= comb(n, s[k])
    return _exact_int(bracket * prod, n * (n + ell + 1) * (n + ell),
                      f"count_ballot_joint({k}, {ell}, {r}, {n}, {s})")


def lagrange_coefficient(k: int, n: int, r: Sequence[int]) -> int:
    """Independent route to :func:`count_joint` via series reversion.

    Lagrange inversion of f = x * Phi(f) with Phi(f) = prod_i (q_i f + 1)
    gives [x^n] f = (1/n) [f^(n-1)] Phi(f)^n.  Phi(f)^n is expanded as a
    series in f, truncated at f^(n-1), and the count is
    (1/n) times the coefficient of f^(n-1) prod q_i^(r_i).  No solver
    and no closed form is involved.  The expansion is made once per
    (k, n) and kept for the most recent (k, n) only, so a sweep over every
    r of one (k, n) expands Phi(f)^n once.
    """
    k, n, r = _joint_args(k, n, r)
    return _exact_int(_lagrange_top(k, n).get(r, 0), n,
                      f"lagrange_coefficient({k}, {n}, {r})")


@lru_cache(maxsize=1)
def _lagrange_top(k: int, n: int) -> Mapping[tuple[int, ...], int]:
    """[f^(n-1)] Phi(f)^n as a read-only marker polynomial."""
    def build(ring):
        f = [ring[1](int(d == 1)) for d in range(n)]
        return _series_pow(ring, _marked_product(ring, f), n)

    rows, layout = _packed(build, k + 1, n, True)
    top = TruncSeries._from_rows(0, k + 1, rows[n - 1:], layout, n - 1)
    return MappingProxyType(top.coeffs[0])


# ---------------------------------------------------------------------------
# packed rows
# ---------------------------------------------------------------------------

def _packed(build: Callable[[tuple], list], nmarkers: int, base: int,
            homogeneous: bool) -> tuple[list[dict], tuple]:
    """The rows of the series that ``build`` makes, and their layout.

    ``build(ring)`` runs the engine on ``ring`` and returns its result.
    It must keep one invariant: coefficients are positive, and every row
    that feeds a result row is at most some row of the result.  A first
    run on the ring of ints then gives W, the bit length of the largest
    result row.  The second run packs markers 0..j-1 into keys in base
    ``base`` and marker j into W-bit digits, where j is the last marker,
    or the one before it when the result is ``homogeneous`` and the last
    marker is dropped.  The layout is (j, base, W, homogeneous)."""
    width = max(build((_int_dot, int, [None] * nmarkers)),
                default=0).bit_length()
    outer = nmarkers - 1 - homogeneous
    markers = [(base ** i, 0) for i in range(outer)] + [(0, width)]
    if homogeneous:
        markers.append((0, 0))
    return (build((_poly_dot, lambda c: {0: c} if c else {}, markers)),
            (outer, base, width, homogeneous))


def _row_keys(row: dict, degree: int, layout: tuple) -> list[tuple]:
    """The keys of a packed row of marker degree ``degree`` by descending
    outer exponents, each as (outer exponent tuple, its digits lowest
    first, the degree left for a dropped marker): the one packed reader."""
    outer, base, width, _ = layout
    mask = (1 << width) - 1
    keys = []
    for e, digits in sorted([(_unpack(key, outer, base), digits)
                             for key, digits in row.items()], reverse=True):
        cs = []
        while digits:
            cs.append(digits & mask)
            digits >>= width
        keys.append((e, cs, degree - sum(e)))
    return keys


def _poly_dot(pairs: Iterable[tuple[dict, dict]],
              marker: tuple[int, int] = (0, 0),
              start: dict | None = None) -> dict:
    """start (default 0) plus the sum of p * q over the (p, q) pairs times
    the marker (step, shift); start itself is left as it is.  The
    engine's coefficients are all positive, so no sum cancels and the
    result holds no zero entry."""
    step, shift = marker
    out = dict(start) if start else {}
    get = out.get
    for p, q in pairs:
        if len(p) > len(q):
            p, q = q, p
        if not p:
            continue
        q = q.items()
        for e1, c1 in p.items():
            e1 += step
            c1 <<= shift
            for e2, c2 in q:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return out


def _int_dot(pairs: Iterable[tuple], marker=None, start: int = 0) -> int:
    """:func:`_poly_dot` with every marker at 1, where a row is its value."""
    return start + sum([p * q for p, q in pairs])


def _series_mul(ring: tuple, a: list, b: list) -> list:
    """The product of two packed series of one order."""
    dot = ring[0]
    return [dot(zip(a[:d + 1], reversed(b[:d + 1]))) for d in range(len(a))]


def _series_pow(ring: tuple, a: list, e: int) -> list:
    """A packed series to the power e >= 1, by repeated squaring; the
    first factor is taken as it is rather than multiplied into the
    series 1."""
    out = None
    while e:
        if e & 1:
            out = a if out is None else _series_mul(ring, out, a)
        e >>= 1
        if e:
            a = _series_mul(ring, a, a)
    return out


def _next_row(dot: Callable, rows: list, f: list, d: int,
              marker: tuple[int, int]):
    """[x^d] of P + q (f P), for the packed series f with f_0 = 0, P = rows
    (rows 0..d suffice) and the marker q."""
    return dot(zip(f[1:d + 1], reversed(rows[:d])), marker, rows[d])


def _marked_product(ring: tuple, f: list) -> list:
    """prod over the markers q of ``ring`` of (q f + 1), for the packed
    series f."""
    out = [ring[1](1)] + [ring[1](0)] * (len(f) - 1)
    for q in ring[2]:
        out = [_next_row(ring[0], out, f, d, q) for d in range(len(f))]
    return out


def _factors(nmarkers: int, exponents: Iterable[int]) -> list[dict]:
    """Per marker i, its factor in a term by exponent: "", "*qi", "*qi^e"."""
    return [{e: f"*q{i}^{e}" if e > 1 else f"*q{i}" if e == 1 else ""
             for e in exponents} for i in range(nmarkers)]


def _row_line(row: dict, degree: int, layout: tuple, factors: list) -> str:
    """The terms of a packed row of marker degree ``degree``: keys by
    descending outer exponents, each key's digits top down."""
    homogeneous = layout[3]
    inner, last = factors[layout[0]], factors[-1]
    terms = []
    for e, cs, rest in _row_keys(row, degree, layout):
        head = "".join(map(getitem, factors, e))
        for j in range(len(cs) - 1, -1, -1):
            if cs[j]:
                terms.append(f"{cs[j]}{head}{inner[j]}{last[rest - j]}"
                             if homogeneous else f"{cs[j]}{head}{inner[j]}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

class TruncSeries:
    """Power series in x mod x^(order+1) with marker-polynomial coefficients.

    The series engine's result type.  Coefficient polynomials are dicts
    from exponent tuples (one slot per marker, each exponent >= 0) to
    integers, all positive when the engine makes them; instances are never
    mutated after construction; ``order`` and ``nmarkers`` are ints >= 0.
    The engine does its arithmetic on packed rows, so this class has none
    beyond :meth:`mul_x`.  A solver's result keeps its rows and their
    layout as plain data, unpacked when ``coeffs`` is first read.
    """

    __slots__ = ("order", "nmarkers", "_coeffs", "_rows")

    def __init__(self, order: int, nmarkers: int, coeffs: Sequence[dict]):
        order = _int_arg("order", order, 0)
        nmarkers = _int_arg("nmarkers", nmarkers, 0)
        copies = []
        for degree, c in enumerate(coeffs):
            copy = dict(c)
            if copy and set(map(len, copy)) != {nmarkers}:
                raise ValueError(
                    f"exponent tuples at degree {degree} must have "
                    f"{nmarkers} entries, got {sorted(set(map(len, copy)))}")
            copies.append(copy)
        if len(copies) != order + 1:
            raise ValueError(f"need order + 1 = {order + 1} coefficients, "
                             f"got {len(copies)}")
        self.order, self.nmarkers = order, nmarkers
        self._coeffs, self._rows = tuple(copies), None

    @classmethod
    def _from_rows(cls, order: int, nmarkers: int, rows: list[dict],
                   layout: tuple, offset: int) -> "TruncSeries":
        """The series of packed rows, row d at marker degree d + offset."""
        self = object.__new__(cls)
        self.order, self.nmarkers = order, nmarkers
        self._coeffs, self._rows = None, (rows, layout, offset)
        return self

    @property
    def coeffs(self) -> tuple[dict, ...]:
        """The coefficient of each power of x, {exponent tuple: int}."""
        if self._coeffs is None:
            rows, layout, offset = self._rows
            homogeneous = layout[3]
            self._coeffs = tuple([
                {e + ((j, rest - j) if homogeneous else (j,)): cs[j]
                 for e, cs, rest in _row_keys(row, d + offset, layout)
                 for j in range(len(cs) - 1, -1, -1) if cs[j]}
                for d, row in enumerate(rows)])
        return self._coeffs

    def _like(self, coeffs) -> "TruncSeries":
        return TruncSeries(self.order, self.nmarkers, coeffs)

    def mul_x(self, j: int) -> "TruncSeries":
        if j < 0:
            raise ValueError("need j >= 0")
        j = min(j, self.order + 1)
        if self._rows is None:
            return self._like([{}] * j + list(self._coeffs)[:-j or None])
        rows, layout, offset = self._rows
        return self._from_rows(self.order, self.nmarkers,
                               [{}] * j + rows[:-j or None], layout,
                               offset - j)

    # queries --------------------------------------------------------------

    def coefficient(self, n: int) -> dict:
        """The coefficient of x^n; IndexError unless 0 <= n <= order."""
        if n < 0:
            raise IndexError(f"no coefficient of x^{n}")
        return dict(self.coeffs[n])

    def at_ones(self) -> list[int]:
        """Total count per x-degree (all markers specialized to 1)."""
        return [sum(p.values()) for p in self.coeffs]

    def permute_markers(self, sigma: Sequence[int]) -> "TruncSeries":
        """Move marker i to slot sigma[i] (0-based images).

        Raises BadPermutationError, a ValueError, unless sigma permutes
        0..nmarkers-1.
        """
        sig = list(sigma)
        return self._like([permute_coordinates(p, sig, self.nmarkers, 0)
                           for p in self.coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order == other.order
                and self.nmarkers == other.nmarkers
                and self.coeffs == other.coeffs)

    __hash__ = None

    # output -----------------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """A line "x^d: <terms>" per power of x, 0 for none, else terms by
        descending exponent tuples, each c*q_i^e (q_i for e = 1, nothing
        for e = 0), joined by " + "; a solver's from its packed rows."""
        if self._rows is None:
            factors = _factors(self.nmarkers, {e for p in self._coeffs
                                               for t in p for e in t})
            lines = [" + ".join([str(p[e]) + "".join(map(getitem, factors, e))
                                 for e in sorted(p, reverse=True)])
                     for p in self._coeffs]
        else:
            rows, layout, offset = self._rows
            factors = _factors(self.nmarkers, range(self.order + 1))
            lines = [_row_line(row, d + offset, layout, factors)
                     for d, row in enumerate(rows)]
        return [f"x^{d}: {line or 0}" for d, line in enumerate(lines)]

    def to_json(self) -> dict:
        """Terms by descending exponent tuples; a solver's from its packed
        rows."""
        if self._rows is None:
            rows = [[{"exponents": list(e), "coefficient": p[e]}
                     for e in sorted(p, reverse=True)] for p in self._coeffs]
        else:
            rows, layout, offset = self._rows
            homogeneous = layout[3]
            rows = [[{"exponents": [*e, j, rest - j] if homogeneous
                      else [*e, j], "coefficient": cs[j]}
                     for e, cs, rest in _row_keys(row, d + offset, layout)
                     for j in range(len(cs) - 1, -1, -1) if cs[j]]
                    for d, row in enumerate(rows)]
        return {
            "order": self.order,
            "markers": self.nmarkers,
            "coefficients": [{"x": d, "terms": terms}
                             for d, terms in enumerate(rows)],
        }


# ---------------------------------------------------------------------------
# functional equation solvers
# ---------------------------------------------------------------------------

def _solve(k: int, order: int, s: int, levels: Sequence[tuple[int, int]],
           ring: tuple) -> tuple[list, list[list]]:
    """Solve f = sum_a c_a x^a (f + 1) + x^s prod_{i<=k} (q_i f + 1) as a
    packed series on ``ring``, whose markers are q_0..q_k; return f and
    ``prods``.

    ``prods[j][d]`` is [x^d] P_j for P_0 = 1, P_{j+1} = P_j + q_j (f P_j).
    Since s >= 1 and every run-length a >= 1, f_n needs only f_1..f_{n-1}
    and rows d <= n - s of the partial products, so ``prods[j]`` for
    j >= 1 holds rows 0..max(0, order - s).  Row 0 of f is 0.
    """
    dot, row, markers = ring
    one, zero, levels = row(1), row(0), [(a, row(c)) for a, c in levels]
    f = [zero]
    prods = [[one] + [zero] * order] + [[one] for _ in range(k + 1)]
    for n in range(1, order + 1):
        d = n - s
        if d > 0:
            for j in range(k + 1):
                prods[j + 1].append(_next_row(dot, prods[j], f, d, markers[j]))
        fn = prods[k + 1][d] if d >= 0 else zero
        if levels:
            fn = dot(((c, one if a == n else f[n - a])
                      for a, c in levels if a <= n), start=fn)
        f.append(fn)
    return f, prods


def _series(k: int, order: int, spec: FamilySpec | None,
            m: int | None) -> TruncSeries:
    """The solution f of :func:`_solve` (``m`` None) or the ballot series
    g of end height m, as a TruncSeries in the k + 1 markers: for pure
    k-Dyck paths by down-size when ``spec`` is None, else for the level
    family ``spec`` by length.  The pure series are homogeneous: row d of
    f has marker degree d - 1 and row d of g degree d, which restores the
    dropped q_k."""
    order = _int_arg("order", order, 0)
    if order > sys.maxsize:  # no list of the rows could be indexed
        raise ValueError(f"order must be <= {sys.maxsize}")
    if k >= sys.maxsize:  # nor a list of the k + 1 markers
        raise ValueError(f"k must be < {sys.maxsize}, got {k}")
    s, levels = (1, ()) if spec is None else (k + 1, spec.levels)

    def build(ring):
        f, prods = _solve(k, order, s, levels, ring)
        return f if m is None else _ballot_product(ring, f, prods, k, m)

    rows, layout = _packed(build, k + 1, order + 1, spec is None)
    return TruncSeries._from_rows(order, k + 1, rows, layout,
                                  -1 if m is None else 0)


def solve_f(k: int, order: int) -> TruncSeries:
    """Joint generating series of pure k-Dyck paths by down-size.

    The x^n coefficient is the generating polynomial of
    (pk_0, ..., pk_{k-1}, dd) over paths of down-size n; the constant term
    vanishes because only nonempty paths are counted.
    """
    return _series(_int_arg("k", k, 1), order, None, None)


def solve_f_kac(spec: FamilySpec, order: int) -> TruncSeries:
    """Joint generating series of level-bearing paths by total length.

    The x^L coefficient is the generating polynomial of the weak
    statistics (wpk_0, ..., wpk_{k-1}, wdd) over paths of length L, and is
    symmetric in all k+1 markers.
    """
    return _series(spec.k, order, spec, None)


def _ballot_product(ring: tuple, f: list, prods: list[list], k: int,
                    m: int) -> list:
    """The ballot series g = P_k^ell * P_{r+1}, m = ell*k + r, from the
    packed solution f and the partial products of :func:`_solve`, whose
    rows of the P_j that g reads it first finishes up to the order:
    P_1..P_{r+1} when ell = 0, else P_1..P_k.  Every row made then feeds
    g.  When r + 1 = k, g is P_k^(ell+1), one power: for k = 1, m = 3
    that is two squarings instead of a square and two products."""
    dot, _, markers = ring
    ell, r = divmod(m, k)
    for d in range(len(prods[1]), len(f)):
        for j in range(k if ell else r + 1):
            prods[j + 1].append(_next_row(dot, prods[j], f, d, markers[j]))
    g = prods[r + 1]
    if ell:
        g = (_series_pow(ring, g, ell + 1) if r + 1 == k
             else _series_mul(ring, _series_pow(ring, prods[k], ell), g))
    return g


def solve_g(k: int, m: int, order: int) -> TruncSeries:
    """Starred-statistic series of (k, m)-ballot paths by down-size.

    Coefficients are symmetric in q_0..q_r and in q_{r+1}..q_{k-1}, where
    r = m mod k.
    """
    k, m = _int_arg("k", k, 1), _int_arg("m", m, 0)
    return _series(k, order, None, m)


def solve_g_kac(spec: FamilySpec, m: int, order: int) -> TruncSeries:
    """Weak starred series of level-bearing ballot paths by total length."""
    m = _int_arg("m", m, 0)
    return _series(spec.k, order, spec, m).mul_x(m)

"""Independent output checks for the benchmark.

Nothing here imports peakmod: each check recomputes what an operation's
output must satisfy from the benchmark's own code, so a defect in the
program cannot also hide in its check.  Every routine is iterative, so
the checks work on inputs of any depth.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# paths over u/d
# ---------------------------------------------------------------------------

def is_k_dyck(path: str, k: int) -> bool:
    h = 0
    for s in path:
        if s == "u":
            h += 1
        elif s == "d":
            h -= k
            if h < 0:
                return False
        else:
            return False
    return h == 0


def stat_vector(path: str, k: int) -> tuple:
    """(pk_0, ..., pk_{k-1}, dd) of a pure path, rightmost peak left out."""
    pk = [0] * k
    dd = 0
    h = 0
    last = None
    for i, s in enumerate(path):
        if s == "u":
            h += 1
        else:
            if i and path[i - 1] == "u":
                if last is not None:
                    pk[last] += 1
                last = h % k
            elif i:
                dd += 1
            h -= k
    return tuple(pk) + (dd,)


def kappa(path: str, k: int, power: int = 1) -> str:
    """Reference cyclic shift: rotate the right-peak blocks in windows of k.

    Q = Q_0 u Q_1 u ... Q_{kn-1} u d^n, where the separator ups are the
    last up-steps leaving heights 0..kn-1; slot j of the result holds block
    j+k-i when j mod k < i and block j-i otherwise (i = power mod k).
    """
    i = power % k
    if not path or i == 0:
        return path
    n = len(path) - len(path.rstrip("d"))
    body = path[: len(path) - n]
    last: dict[int, int] = {}
    h = 0
    for idx, s in enumerate(body):
        if s == "u":
            last[h] = idx
            h += 1
        else:
            h -= k
    seps = [last[j] for j in range(k * n)]
    blocks = []
    prev = -1
    for p in seps:
        blocks.append(body[prev + 1: p])
        prev = p
    out = []
    for j in range(k * n):
        out.append(blocks[j + k - i if j % k < i else j - i])
        out.append("u")
    return "".join(out) + "d" * n


def deutsch(path: str) -> str:
    """Reference Deutsch involution on a Dyck path (k = 1).

    P_0 u P_1 d maps to eta(P_1) u eta(P_0) d; the u is the partner of the
    final d, so one matching pass makes the recursion linear.
    """
    match = {}
    opened = []
    for i, s in enumerate(path):
        if s == "u":
            opened.append(i)
        else:
            match[i] = opened.pop()
    out = []
    tasks: list = [(0, len(path))]
    while tasks:
        task = tasks.pop()
        if isinstance(task, str):
            out.append(task)
            continue
        a, b = task
        if a == b:
            continue
        p = match[b - 1]
        tasks += ["d", (a, p), "u", (p + 1, b - 1)]
    return "".join(out)


# ---------------------------------------------------------------------------
# tree JSON as printed by ``map psi`` / ``map permute --tree``
# ---------------------------------------------------------------------------

_TREE_TOKEN = re.compile(r'\{|\}|,|null|"(\d+)":|"label":"([^"]*)"')


def scan_tree(text: str, arity: int):
    """Walk compact tree JSON without recursion.

    Returns (e_vector, labels) where e_vector counts nodes per child
    position 1..arity and labels lists (position, label) per node in
    preorder, position 0 for the root and label None when absent.  Returns
    None when the text is not a well-formed tree of that arity.
    """
    text = text.strip()
    if text == "null":
        return (0,) * arity, []
    counts = [0] * arity
    labels: list = []
    open_nodes: list[int] = []  # indices into labels of unclosed nodes
    pending = 0  # position of the next "{", 0 for the root
    pos = 0
    expect_open = True
    for m in _TREE_TOKEN.finditer(text):
        if m.start() != pos:
            return None
        pos = m.end()
        tok = m.group(0)
        if expect_open:
            if tok != "{" or (open_nodes and not pending):
                return None
            if pending:
                counts[pending - 1] += 1
            open_nodes.append(len(labels))
            labels.append([pending, None])
            pending = 0
            expect_open = False
        elif m.group(1) is not None:
            p = int(m.group(1))
            if not 1 <= p <= arity:
                return None
            pending = p
            expect_open = True
        elif m.group(2) is not None:
            if not open_nodes or labels[open_nodes[-1]][1] is not None:
                return None
            labels[open_nodes[-1]][1] = m.group(2)
        elif tok == "}":
            if not open_nodes:
                return None
            open_nodes.pop()
        elif tok != ",":
            return None
    if pos != len(text) or open_nodes or expect_open or not labels:
        return None
    return tuple(counts), labels


def check_psi(path: str, k: int, out: str, with_labels: bool) -> bool:
    """Node count = down-size and per-position counts = statistic vector;
    with labels, every node carries the label of a distinct feature of the
    matching kind (the root the rightmost peak)."""
    scanned = scan_tree(out, k + 1)
    if scanned is None:
        return False
    e_vec, labels = scanned
    stats = stat_vector(path, k)
    if e_vec != stats or len(labels) != path.count("d"):
        return False
    if not with_labels or not path:
        return all(lab is None for _, lab in labels)
    want = {"r"}
    for i in range(k):
        want.update(f"p{i}_{j}" for j in range(1, stats[i] + 1))
    want.update(f"dd_{j}" for j in range(1, stats[k] + 1))
    seen = set()
    for pos, lab in labels:
        if lab is None or lab in seen:
            return False
        seen.add(lab)
        if pos == 0:
            ok = lab == "r"
        elif pos <= k:
            ok = lab.startswith(f"p{pos - 1}_")
        else:
            ok = lab.startswith("dd_")
        if not ok:
            return False
    return seen == want


def check_psi_inv(tree: str, k: int, out: str) -> bool:
    """The path is a k-Dyck path with one down per node whose statistic
    vector is the tree's per-position node counts."""
    scanned = scan_tree(tree, k + 1)
    path = out.strip()
    return (scanned is not None and is_k_dyck(path, k)
            and path.count("d") == len(scanned[1])
            and stat_vector(path, k) == scanned[0])


def check_permute(path: str, k: int, sigma: tuple, out: str) -> bool:
    """A k-Dyck path of the same size whose slot sigma(i) holds the value
    of slot i of the input's statistic vector."""
    got = out.strip()
    if not is_k_dyck(got, k) or got.count("d") != path.count("d"):
        return False
    old, new = stat_vector(path, k), stat_vector(got, k)
    return all(new[sigma[i] - 1] == old[i] for i in range(k + 1))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _exact(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral count {value}")
    return value.numerator


def joint(k: int, n: int, r: tuple) -> int:
    if sum(r) != n - 1:
        return 0
    num = 1
    for x in r:
        num *= comb(n, x)
    return _exact(Fraction(num, n))


def ballot(k: int, m: int, n: int, s: tuple) -> int:
    ell, r = divmod(m, k)
    if n == 0:
        return int(not any(s))
    if sum(s) != n:
        return 0
    low, high = sum(s[: r + 1]), sum(s[r + 1: k])
    bracket = (Fraction(ell + 1, n + ell + 1) * low
               + Fraction(ell, n + ell) * high)
    prod = comb(n, s[k])
    for i in range(k):
        prod *= comb(n + ell + (i <= r), s[i])
    return _exact(bracket * prod / n)


def marginal(k: int, n: int, r: int) -> int:
    return _exact(Fraction(comb(n, r) * comb(k * n, n - 1 - r), n))


def peak_count(k: int, n: int, r: int) -> int:
    return _exact(Fraction(comb(n, r + 1) * comb(k * n, r), n))


def narayana(n: int, r: int) -> int:
    return _exact(Fraction(comb(n, r) * comb(n, r - 1), n))


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# series output
# ---------------------------------------------------------------------------

def parse_series(text: str, markers: int):
    """``count series`` text form -> list of {exponents: coefficient}."""
    coeffs = []
    for d, line in enumerate(text.splitlines()):
        head, _, body = line.partition(": ")
        if head != f"x^{d}":
            return None
        poly: dict = {}
        if body != "0":
            for term in body.split(" + "):
                factors = term.split("*")
                exps = [0] * markers
                for f in factors[1:]:
                    var, _, e = f.partition("^")
                    exps[int(var[1:])] = int(e or 1)
                poly[tuple(exps)] = int(factors[0])
        coeffs.append(poly)
    return coeffs


def weak_histograms(k: int, levels: dict, end: int, order: int,
                    starred: bool) -> list:
    """Weak statistic histograms of level-bearing paths by total length.

    A transfer-matrix scan over (height, previous step, residue of the
    latest weak peak, counters): an independent route to the
    ``solve_f_kac`` / ``solve_g_kac`` coefficients.  Weak peaks are
    ``ud``, ``u l`` and an opening level step; weak double descents are
    ``dd`` and ``l d``.  Unstarred counts leave out the rightmost peak.
    """
    steps = [("u", 1, 1), ("d", 1, 1)] + [("l", a, c) for a, c in
                                          sorted(levels.items())]
    # layers[L]: {(h, prev, pending, stats): weight}
    layers = [dict() for _ in range(order + 1)]
    layers[0][(0, None, None, (0,) * (k + 1))] = 1
    for length in range(order + 1):
        for (h, prev, pend, st), w in layers[length].items():
            for kind, a, mult in steps:
                if length + a > order:
                    continue
                nh = h + (1 if kind == "u" else -k if kind == "d" else 0)
                if nh < 0:
                    continue
                npend, nst = pend, st
                peak = (prev == "u" and kind != "u") or \
                    (prev is None and kind == "l")
                if peak:
                    if pend is not None:
                        nst = nst[:pend] + (nst[pend] + 1,) + nst[pend + 1:]
                    npend = h % k
                if kind == "d" and prev in ("d", "l"):
                    nst = nst[:k] + (nst[k] + 1,)
                key = (nh, kind, npend, nst)
                nxt = layers[length + a]
                nxt[key] = nxt.get(key, 0) + w * mult
    out = []
    for layer in layers:
        hist: dict = {}
        for (h, _prev, pend, st), w in layer.items():
            if h != end:
                continue
            if starred and pend is not None:
                st = st[:pend] + (st[pend] + 1,) + st[pend + 1:]
            hist[st] = hist.get(st, 0) + w
        out.append(hist)
    return out


def check_series(text: str, kind: str, k: int, order: int,
                 levels: dict | None = None, m: int = 0) -> bool:
    """Every x^n coefficient against a route the series engine does not use:
    closed forms for pure and ballot families, the transfer-matrix scan for
    level-bearing ones."""
    got = parse_series(text, k + 1)
    if got is None or len(got) != order + 1:
        return False
    if kind == "f":
        want = [{}] + [{r: joint(k, n, r) for r in compositions(n - 1, k + 1)}
                       for n in range(1, order + 1)]
    elif kind == "g":
        want = [{s: c for s in compositions(n, k + 1)
                 if (c := ballot(k, m, n, s))} for n in range(order + 1)]
    else:
        want = weak_histograms(k, levels, m, order, starred=kind == "g_kac")
        if kind == "f_kac":
            want[0] = {}
    return got == want

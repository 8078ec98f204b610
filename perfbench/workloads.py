"""The benchmark's workloads: rounds of peakmod operations.

A round is a fixed mix of operations whose inputs come from the seeded
generator.  Every operation carries its CLI arguments, a check of its
stdout that returns the units of work it did (None when the output is
wrong), and a replay: the same public library calls the CLI makes, each
inside a span, for the traced run.  ``scale="mini"`` builds a small round
of the same shape, which the traced run of every other workload replays so
that each traced run reports every layer.

Operations whose output depends only on their arguments are also checked
against stdout digests pinned from the program as it was when the
benchmark was added (``digests.json``, written by ``pin.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import checks
import gen
from tracing import Tracer, slope

from peakmod.bijections import (
    path_to_labeled_tree,
    path_to_tree,
    permute_statistics,
    tree_to_path,
)
from peakmod.cli import build_parser
from peakmod.core import (
    FamilySpec,
    parse_path,
    render_path,
    tree_from_json_text,
    tree_to_json,
    validate,
)
from peakmod.counting import (
    count_ballot_joint,
    count_joint,
    count_marginal,
    count_pk,
    lagrange_coefficient,
    narayana,
    solve_f,
    solve_f_kac,
    solve_g,
    solve_g_kac,
)
from peakmod.enumeration import (
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    gen_trees,
    histogram,
    histogram_from_keys,
)
from peakmod.statistics import e_vector, label_features, stat_vector
from peakmod.transforms import (
    ballot_decompose,
    cyclic_shift,
    deutsch_involution,
    last_step_decompose,
    permute_subtrees,
)
from peakmod.verify import SUITES

DIGEST_FILE = Path(__file__).with_name("digests.json")
DIGESTS: dict[str, str] = (json.loads(DIGEST_FILE.read_text())
                           if DIGEST_FILE.exists() else {})


@dataclass
class Op:
    kind: str
    name: str
    argv: list | None
    check: Callable[[str], "int | None"]
    replay: Callable[[Tracer], str]
    call: Callable[[], str] | None = None
    pinned: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def argv_key(argv) -> str:
    return " ".join(argv)


def _pin(argv, check):
    def pinned_check(out):
        pinned = DIGESTS.get(argv_key(argv)) == digest(out)
        return check(out) if pinned else None
    return pinned_check


def _parse_args(tr: Tracer, argv):
    return tr.span("cli.parse_args", lambda: build_parser().parse_args(argv),
                   units=1)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _lines(seq) -> str:
    return "".join(f"{x}\n" for x in seq)


def _levels_flag(levels: dict) -> str:
    return ",".join(f"{a}:{c}" for a, c in sorted(levels.items()))


# ---------------------------------------------------------------------------
# oracle: histograms of whole families
# ---------------------------------------------------------------------------

VARIANTS = {"plain": "plain", "weak": "weak",
            "plain-starred": "plain_starred", "weak-starred": "weak_starred"}


@dataclass(frozen=True)
class Family:
    gen: str
    k: int
    size: int
    levels: dict = field(default_factory=dict)
    end: int = 0

    def argv(self) -> list[str]:
        out = ["--k", str(self.k)]
        if self.gen == "gen_kac":
            out += ["--length", str(self.size),
                    "--levels", _levels_flag(self.levels)]
        else:
            out += ["--down-size", str(self.size)]
        if self.end:
            out += ["--end-height", str(self.end)]
        return out

    def stream(self):
        if self.gen == "gen_kac":
            return gen_kac(FamilySpec(self.k, self.levels, self.end),
                           self.size)
        if self.gen == "gen_ballot":
            return gen_ballot(self.k, self.end, self.size)
        return gen_k_dyck(self.k, self.size)


MOTZKIN, SCHROEDER = {1: 1}, {2: 1}
# each family at its three largest sizes that keep a round near 6 s
ORACLE_FAMILIES = {
    "main": [Family("gen_k_dyck", 1, n) for n in (8, 9, 10)]
    + [Family("gen_k_dyck", 2, n) for n in (4, 5, 6)]
    + [Family("gen_k_dyck", 3, n) for n in (3, 4, 5)]
    + [Family("gen_kac", 1, n, MOTZKIN) for n in (9, 10, 11)]
    + [Family("gen_kac", 1, n, SCHROEDER) for n in (10, 12, 14)]
    + [Family("gen_ballot", 1, n, end=3) for n in (5, 6, 7)]
    + [Family("gen_ballot", 2, n, end=3) for n in (3, 4, 5)]
    + [Family("gen_kac", 1, n, MOTZKIN, end=2) for n in (8, 9, 10)],
    "mini": [Family("gen_k_dyck", 1, 6), Family("gen_k_dyck", 2, 4),
             Family("gen_kac", 1, 7, MOTZKIN),
             Family("gen_kac", 1, 8, SCHROEDER),
             Family("gen_ballot", 1, 4, end=2),
             Family("gen_kac", 1, 6, MOTZKIN, end=2)],
}
ENUMERATE = {"main": [Family("gen_k_dyck", 1, n) for n in (8, 9, 10)]
             + [Family("gen_k_dyck", 2, 6)],
             "mini": [Family("gen_k_dyck", 2, 4)]}


def _histogram_total(out: str):
    return json.loads(out)["total"]


def _histogram_op(fam: Family, flag: str) -> Op:
    argv = ["histogram", *fam.argv(), "--variant", flag]
    variant = VARIANTS[flag]

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        hist = tr.span("enumeration.histogram", histogram, fam.stream(),
                       variant, units=lambda h: h.total)
        paths = tr.span(f"enumeration.{fam.gen}", lambda: list(fam.stream()),
                        units=len, probe=True)
        steps = sum(len(p.steps) for p in paths)
        tr.span("core.validate",
                lambda: [validate(p.spec, p.steps) for p in paths],
                units=steps, probe=True)
        if fam.end:
            tr.span("transforms.ballot_decompose",
                    lambda: [ballot_decompose(p) for p in paths],
                    units=steps, probe=True)
        keys = tr.span(f"statistics.stat_vector.{variant}",
                       lambda: [stat_vector(p, variant).key() for p in paths],
                       units=len(paths), probe=True)
        tr.span("enumeration.tally", histogram_from_keys, keys, variant,
                fam.k, units=len(keys), probe=True)
        return tr.span("cli.output", _json_line, hist.to_json())

    return Op("histogram", argv_key(argv), argv, _pin(argv, _histogram_total),
              replay, pinned=True)


def _enumerate_op(fam: Family) -> Op:
    argv = ["enumerate", *fam.argv()]

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        paths = tr.span(f"enumeration.{fam.gen}", lambda: list(fam.stream()),
                        units=len)
        text = tr.span("core.render", lambda: _lines(map(render_path, paths)))
        spec = paths[0].spec
        tr.span("core.parse",
                lambda: [parse_path(line, spec) for line in text.split()],
                units=len(text) - len(paths), probe=True)
        return text

    return Op("enumerate", argv_key(argv), argv,
              _pin(argv, lambda out: out.count("\n")), replay, pinned=True)


def oracle_round(rng: random.Random, scale: str) -> list[Op]:
    ops = [_histogram_op(fam, flag) for fam in ORACLE_FAMILIES[scale]
           for flag in VARIANTS]
    ops += [_enumerate_op(fam) for fam in ENUMERATE[scale]]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# bijection-scale: the path/tree maps on long random paths and deep chains
# ---------------------------------------------------------------------------

# down-size -> random inputs per k in a round
BIJECTION_SIZES = {"main": {125: 2, 250: 2, 500: 2},
                   "mini": {32: 1, 64: 1, 128: 1}}
SWEEP_SIZES = {"main": (125, 250, 500, 1000), "mini": (32, 64, 128)}
# (k, down-size, shape, operations).  Deep inputs take most of a round's
# time and are over a tenth of its operations, so op_p90_ms is set by
# them rather than by the luck of the random draws.  Chain depth 1500 is
# past the interpreter's recursion limit for ``map psi`` and ``psi-inv``.
DEEP_INPUTS = {
    "main": [(1, 1500, "chain", ("psi", "kappa", "psi-inv")),
             (1, 750, "chain", ("psi", "psi-labels", "permute", "kappa",
                                "deutsch", "psi-inv")),
             (1, 750, "near-chain", ("deutsch",)),
             (2, 750, "near-chain", ("psi", "psi-labels", "permute", "kappa",
                                     "psi-inv")),
             (3, 375, "chain", ("psi", "psi-labels", "permute", "kappa",
                                "psi-inv"))],
    "mini": [(1, 128, "chain", ("psi", "kappa", "psi-inv", "deutsch")),
             (2, 96, "near-chain", ("psi", "psi-labels", "permute",
                                    "psi-inv"))],
}


def _path_op(kind: str, k: int, path: str, label: str,
             rng: random.Random) -> Op:
    spec = FamilySpec(1 if kind == "deutsch" else k)
    steps = len(path)
    nodes = path.count("d")
    if kind == "deutsch":
        argv = ["map", "deutsch", "--path", path]
        want = checks.deutsch(path)
        check = (lambda out: steps if out == want + "\n" else None)

        def call(tr):
            return render_path(tr.span("transforms.deutsch",
                                       deutsch_involution, p(tr),
                                       units=steps))
    elif kind == "kappa":
        power = rng.randint(1, k)
        argv = ["map", "kappa", "--k", str(k), "--power", str(power),
                "--path", path]
        want = checks.kappa(path, k, power)
        check = (lambda out: steps if out == want + "\n" else None)

        def call(tr):
            return render_path(tr.span("transforms.cyclic_shift",
                                       cyclic_shift, p(tr), power,
                                       units=steps))
    elif kind == "permute":
        sigma = list(range(1, k + 2))
        while sigma == sorted(sigma):
            rng.shuffle(sigma)
        sigma = tuple(sigma)
        argv = ["map", "permute", "--k", str(k),
                "--sigma", ",".join(map(str, sigma)), "--path", path]
        check = (lambda out: steps if checks.check_permute(path, k, sigma, out)
                 else None)

        def call(tr):
            path_value = p(tr)
            out = tr.span("bijections.permute_statistics", permute_statistics,
                          path_value, sigma, units=steps)
            tree = tr.span("bijections.path_to_tree", path_to_tree,
                           path_value, units=steps, probe=True)
            moved = tr.span("transforms.permute_subtrees", permute_subtrees,
                            tree, sigma, units=nodes, probe=True)
            tr.span("bijections.tree_to_path", tree_to_path, moved, k,
                    units=nodes, probe=True)
            return render_path(out)
    else:
        labels = kind == "psi-labels"
        argv = ["map", "psi", "--k", str(k), "--path", path]
        if labels:
            argv.insert(2, "--labels")
        check = (lambda out: steps if checks.check_psi(path, k, out, labels)
                 else None)

        def call(tr):
            path_value = p(tr)
            if labels:
                tree = tr.span("bijections.labeled_tree",
                               path_to_labeled_tree, path_value, units=steps)
                tr.span("statistics.label_features", label_features,
                        path_value, units=steps, probe=True)
            else:
                tree = tr.span("bijections.path_to_tree", path_to_tree,
                               path_value, units=steps)
            tr.span("transforms.last_step_decompose", last_step_decompose,
                    path_value, units=steps, probe=True)
            tr.span("statistics.e_vector", e_vector, tree, units=nodes,
                    probe=True)
            return tr.span("core.tree_json", tree_to_json, tree, units=nodes)

    def p(tr):
        return tr.span("core.parse", parse_path, path, spec, units=steps)

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        out = call(tr)
        if isinstance(out, str):
            return tr.span("cli.output", lambda: out + "\n")
        return tr.span("cli.output", _json_line, out)

    return Op(kind, f"map {kind} k={k} {label}", argv, check, replay)


def _tree_op(k: int, tree: str, label: str) -> Op:
    argv = ["map", "psi-inv", "--k", str(k), "--tree", tree]
    nodes = tree.count("{")

    def check(out):
        return (len(out) - 1 if checks.check_psi_inv(tree, k, out)
                else None)

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        value = tr.span("core.tree_from_json", tree_from_json_text, tree,
                        k + 1, units=nodes)
        path = tr.span("bijections.tree_to_path", tree_to_path, value, k,
                       units=nodes)
        return tr.span("cli.output", lambda: render_path(path) + "\n")

    return Op("psi-inv", f"map psi-inv k={k} {label}", argv, check, replay)


PATH_KINDS = ("psi", "psi-labels", "permute", "kappa", "deutsch")


def bijection_round(rng: random.Random, scale: str) -> list[Op]:
    ops = []
    for k in (1, 2, 3):
        for n, copies in BIJECTION_SIZES[scale].items():
            for _ in range(copies):
                path = gen.uniform_path(rng, k, n)
                for kind in PATH_KINDS:
                    if kind != "deutsch" or k == 1:
                        ops.append(_path_op(kind, k, path, f"random n={n}",
                                            rng))
                tree = gen.word_to_json(
                    gen.path_word(gen.uniform_path(rng, k, n)), k)
                ops.append(_tree_op(k, tree, f"random n={n}"))
    for k, n, shape, kinds in DEEP_INPUTS[scale]:
        label = f"{shape} n={n}"
        if shape == "chain":
            path = gen.chain_path(k, n)
            tree = gen.chain_word(rng, k, n)
        else:
            path = gen.near_chain_path(rng, k, n)
            tree = gen.chain_word(
                rng, k, n - n // 8 - 1,
                gen.path_word(gen.uniform_path(rng, k, n // 8 + 1)))
        for kind in kinds:
            if kind == "psi-inv":
                ops.append(_tree_op(k, gen.word_to_json(tree, k), label))
            else:
                ops.append(_path_op(kind, k, path, label, rng))
    rng.shuffle(ops)
    return ops


def bijection_sweep(rng: random.Random, scale: str) -> tuple[dict, list]:
    """Growth exponents of the bijection maps over a doubling sweep (k = 2),
    on uniform random paths and on chains."""
    k = 2
    sizes = SWEEP_SIZES[scale]
    sigma = (3, 2, 1)
    times: dict = {}

    def timed(name, shape, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        times.setdefault((name, shape), []).append(perf_counter() - t0)
        return result

    for shape in ("random", "chain"):
        for n in sizes:
            path = parse_path(gen.uniform_path(rng, k, n) if shape == "random"
                              else gen.chain_path(k, n), FamilySpec(k))
            tree = timed("path_to_tree", shape, path_to_tree, path)
            timed("labeled_tree", shape, path_to_labeled_tree, path)
            timed("tree_to_path", shape, tree_to_path, tree, k)
            timed("permute_statistics", shape, permute_statistics, path,
                  sigma)
    metrics = {f"bijections.{name}.exponent.{shape}": slope(sizes, ts)
               for (name, shape), ts in times.items()}
    return metrics, [f"bijections.*.exponent.* over n = "
                     f"{', '.join(map(str, sizes))} (k = {k})"]


# ---------------------------------------------------------------------------
# series-scale: the series engine at high orders, closed forms, reversion
# ---------------------------------------------------------------------------

# (solver, k, order, levels, end height)
SERIES = {
    "main": [("f", 1, 20, None, 0), ("f", 2, 12, None, 0),
             ("f", 3, 9, None, 0), ("f_kac", 1, 16, MOTZKIN, 0),
             ("f_kac", 1, 24, SCHROEDER, 0), ("g", 1, 14, None, 3),
             ("g", 2, 10, None, 3), ("g", 3, 8, None, 4),
             ("g_kac", 1, 14, MOTZKIN, 3), ("g_kac", 2, 10, MOTZKIN, 2)],
    "mini": [("f", 1, 8, None, 0), ("f", 2, 5, None, 0),
             ("f_kac", 1, 8, MOTZKIN, 0), ("g", 1, 5, None, 2),
             ("g_kac", 1, 6, MOTZKIN, 2)],
}
LAGRANGE = {"main": (2, 8), "mini": (1, 5)}
CLOSED_FORM_OPS = {"main": 90, "mini": 8}
SOLVE_F_ORDERS = {"main": (4, 6, 9, 13), "mini": (3, 4, 6, 8)}


def _series_op(kind: str, k: int, order: int, levels, m: int) -> Op:
    argv = ["count", "series", "--k", str(k), "--order", str(order)]
    if levels:
        argv += ["--levels", _levels_flag(levels)]
    if m:
        argv += ["--end-height", str(m)]

    def check(out):
        if not checks.check_series(out, kind, k, order, levels, m):
            return None
        return sum(len(p) for p in checks.parse_series(out, k + 1))

    def solve():
        if kind == "f":
            return solve_f(k, order)
        if kind == "g":
            return solve_g(k, m, order)
        spec = FamilySpec(k, levels)
        return (solve_f_kac(spec, order) if kind == "f_kac"
                else solve_g_kac(spec, m, order))

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        series = tr.span(f"counting.solve_{kind}", solve, units=1)
        return tr.span("cli.output", lambda: _lines(series.dump_lines()))

    return Op("series", argv_key(argv), argv, _pin(argv, check), replay,
              pinned=True)


def _closed_form_op(rng: random.Random) -> Op:
    what = rng.choice(("joint", "ballot", "marginal", "pk", "narayana"))
    k = rng.randint(1, 3)
    n = rng.randint(2, 14)
    argv = ["count", what, "--k", str(k), "--n", str(n)]
    if what == "joint":
        r = tuple(rng.choice(list(checks.compositions(n - 1, k + 1))))
        argv += ["--r", ",".join(map(str, r))]
        want, fn, args = checks.joint(k, n, r), count_joint, (k, n, r)
    elif what == "ballot":
        m = rng.randint(1, 2 * k + 1)
        s = tuple(rng.choice(list(checks.compositions(n, k + 1))))
        argv += ["--m", str(m), "--s", ",".join(map(str, s))]
        ell, r = divmod(m, k)
        want = checks.ballot(k, m, n, s)
        fn, args = count_ballot_joint, (k, ell, r, n, s)
    elif what == "narayana":
        r = rng.randint(1, n)
        argv = ["count", "narayana", "--n", str(n), "--r", str(r)]
        want, fn, args = checks.narayana(n, r), narayana, (n, r)
    else:
        r = rng.randint(0, n - 1)
        argv += ["--r", str(r)]
        if what == "marginal":
            want, fn = checks.marginal(k, n, r), count_marginal
        else:
            want, fn = checks.peak_count(k, n, r), count_pk
        args = (k, n, r)

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        value = tr.span("counting.closed_form", fn, *args, units=1)
        return tr.span("cli.output", lambda: f"{value}\n")

    return Op("closed-form", argv_key(argv), argv,
              lambda out: 1 if out == f"{want}\n" else None, replay)


def _lagrange_op(k: int, n: int) -> Op:
    vectors = list(checks.compositions(n - 1, k + 1))
    want = _lines(checks.joint(k, n, r) for r in vectors)

    def replay(tr: Tracer) -> str:
        return _lines(tr.span("counting.lagrange", lagrange_coefficient,
                              k, n, r, units=1) for r in vectors)

    return Op("lagrange", f"lagrange_coefficient k={k} n={n}", None,
              lambda out: len(vectors) if out == want else None, replay,
              call=lambda: _lines(lagrange_coefficient(k, n, r)
                                  for r in vectors))


def series_round(rng: random.Random, scale: str) -> list[Op]:
    ops = [_series_op(*spec) for spec in SERIES[scale]]
    ops.append(_lagrange_op(*LAGRANGE[scale]))
    ops += [_closed_form_op(rng) for _ in range(CLOSED_FORM_OPS[scale])]
    rng.shuffle(ops)
    return ops


def solve_f_sweep(rng: random.Random, scale: str) -> tuple[dict, list]:
    """Growth exponent of solve_f(2, order) against the order."""
    orders = SOLVE_F_ORDERS[scale]
    times = []
    for order in orders:
        t0 = perf_counter()
        solve_f(2, order)
        times.append(perf_counter() - t0)
    return ({"counting.solve_f.exponent": slope(orders, times)},
            [f"counting.solve_f.exponent over order = "
             f"{', '.join(map(str, orders))} (k = 2)"])


# ---------------------------------------------------------------------------
# verify-defaults: every property suite
# ---------------------------------------------------------------------------

SUITE_FLAGS = {"k": "--k", "max_k": "--max-k", "max_n": "--max-n",
               "weak_max_len": "--max-len", "max_nodes": "--max-nodes",
               "ballot_max_m": "--max-m", "max_m": "--max-m",
               "max_semilength": "--max-n"}
MINI_SUITES = {
    "figures": {},
    "equidistribution": {"k": 2, "max_n": 3, "weak_max_len": 5},
    "bijection": {"max_k": 2, "max_n": 3, "max_nodes": 3},
    "closed-forms": {"max_k": 2, "max_n": 3},
    "series": {"max_k": 1, "max_n": 3, "weak_max_len": 5, "ballot_max_m": 2},
    "ballot": {"max_k": 2, "max_m": 2, "max_n": 3},
    "involution": {"max_semilength": 5},
}


def _verify_op(suite: str, kwargs: dict) -> Op:
    argv = ["verify", suite, "--format", "json"]
    for param, value in kwargs.items():
        argv += [SUITE_FLAGS[param], str(value)]

    def check(out):
        report = json.loads(out)
        return report["checks"] if report["ok"] else None

    def replay(tr: Tracer) -> str:
        _parse_args(tr, argv)
        report = tr.span(f"verify.{suite}", lambda: SUITES[suite](**kwargs),
                         units=1)
        if suite == "bijection":
            max_k = kwargs.get("max_k", 3)
            for arity in range(2, max_k + 2):
                for n in range(kwargs.get("max_nodes", 5) + 1):
                    tr.span("enumeration.gen_trees",
                            lambda: list(gen_trees(arity, n)), units=len,
                            probe=True)
        return tr.span("cli.output", _json_line, report.to_json())

    return Op("verify", argv_key(argv), argv, _pin(argv, check), replay,
              pinned=True)


def verify_round(rng: random.Random, scale: str) -> list[Op]:
    ops = [_verify_op(suite, {} if scale == "main" else kwargs)
           for suite, kwargs in MINI_SUITES.items()]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "oracle": oracle_round,
    "bijection-scale": bijection_round,
    "series-scale": series_round,
    "verify-defaults": verify_round,
}
SWEEPS = {"bijection-scale": bijection_sweep, "series-scale": solve_f_sweep}

"""Command-line surface: enumeration, statistics, counting, transforms,
verification suites, and static rendering.

Every output is byte-deterministic for a given set of flags.  Exit codes:
0 success, 1 verification failure, 2 usage or bad input, 3 resource cap
exceeded.  The object cap honours the PEAKMOD_MAX_OBJECTS environment
variable and the --limit flag.  A flag that the chosen ``count`` kind or
``verify`` suite does not read is a usage error (exit 2), never ignored.

The argument parser is built on the first :func:`main` call and reused by
every later call in the same process.  That saves its construction only
for in-process callers that call :func:`main` more than once (tests,
benchmarks, library users); a one-shot ``peakmod`` command builds it once
either way.  Importing this module builds no parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterator

from .bijections import (
    path_to_labeled_tree,
    path_to_tree,
    permute_statistics,
    tree_to_path,
)
from .core import (
    FamilySpec,
    LatticePath,
    PathError,
    TreeError,
    parse_path,
    render_path,
    tree_from_json_text,
    tree_to_json_text,
)
from .counting import (
    NonIntegerResultError,
    count_ballot_joint,
    count_joint,
    count_marginal,
    count_pk,
    narayana,
    solve_f,
    solve_f_kac,
    solve_g,
    solve_g_kac,
)
from .enumeration import (
    ResourceLimitError,
    gen_ballot,
    gen_k_dyck,
    gen_kac,
    histogram,
)
from .render import (
    render_path_ascii,
    render_path_svg,
    render_tree_ascii,
    render_tree_svg,
)
from .statistics import label_features
from .transforms import cyclic_shift, deutsch_involution, lift, \
    permute_subtrees
from .verify import SUITES

VARIANT_FLAGS = {
    "plain": "plain",
    "weak": "weak",
    "plain-starred": "plain_starred",
    "weak-starred": "weak_starred",
}


# ---------------------------------------------------------------------------
# shared flag handling
# ---------------------------------------------------------------------------

def _parse_levels(text: str) -> dict[int, int]:
    """Grammar a:c[,a:c]*  mapping run-length to color count."""
    levels: dict[int, int] = {}
    for chunk in text.split(","):
        a, _, c = chunk.partition(":")
        if not (a.strip().isdigit() and c.strip().isdigit()):
            raise ValueError(f"bad --levels entry {chunk!r} (want a:c)")
        key = int(a)
        if key in levels:
            raise ValueError(f"duplicate level run-length {key}")
        levels[key] = int(c)
    return levels


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=1,
                        help="down-step drop (default 1)")
    parser.add_argument("--down-size", type=int, default=None,
                        help="number of down-steps (level-free families)")
    parser.add_argument("--length", type=int, default=None,
                        help="total path length (families with level steps)")
    parser.add_argument("--levels", type=str, default=None,
                        help="allowed level steps as a:c[,a:c]*")
    parser.add_argument("--end-height", type=int, default=0,
                        help="target end height m (default 0)")
    parser.add_argument("--limit", type=int, default=None,
                        help="override the object cap")


def _family_stream(args) -> Iterator[LatticePath]:
    levels = _parse_levels(args.levels) if args.levels else {}
    if args.length is not None:
        if args.down_size is not None:
            raise ValueError("--down-size and --length are exclusive")
        spec = FamilySpec(args.k, levels, args.end_height)
        return gen_kac(spec, args.length, max_objects=args.limit)
    if args.down_size is None:
        raise ValueError("one of --down-size or --length is required")
    if levels:
        raise ValueError("level-bearing families are enumerated by --length")
    if args.end_height:
        return gen_ballot(args.k, args.end_height, args.down_size,
                          max_objects=args.limit)
    return gen_k_dyck(args.k, args.down_size, max_objects=args.limit)


def _read_text(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _require(args, flag: str) -> str:
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    if value is None:
        raise ValueError(f"count {args.what} needs {flag}")
    return value


def _path_spec(args) -> FamilySpec:
    levels = _parse_levels(args.levels) if getattr(args, "levels", None) else {}
    return FamilySpec(args.k, levels, getattr(args, "end_height", 0))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _reject_unread(args, command: str, reads, unset: dict) -> None:
    """Raise ValueError for a flag that differs from its unset value but
    is not among the ``reads`` of this command."""
    for dest, value in unset.items():
        if dest not in reads and getattr(args, dest) != value:
            flag = dest.replace("_", "-")
            raise ValueError(f"{command} does not read --{flag}")


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    for path in _family_stream(args):
        print(render_path(path))
    return 0


_CSV_PREFIX = {"plain": "pk", "weak": "wpk",
               "plain_starred": "pks", "weak_starred": "wpks"}
_CSV_DD = {"plain": "dd", "weak": "wdd",
           "plain_starred": "dd", "weak_starred": "wdd"}


def cmd_histogram(args) -> int:
    variant = VARIANT_FLAGS[args.variant]
    hist = histogram(_family_stream(args), variant)
    if args.format == "json":
        _dump_json(hist.to_json())
        return 0
    k = hist.k if hist.k is not None else args.k
    prefix = _CSV_PREFIX[variant]
    header = [f"{prefix}{i}" for i in range(k)] + [_CSV_DD[variant], "count"]
    print(",".join(header))
    for key, count in hist.entries():
        print(",".join(str(x) for x in (*key, count)))
    return 0


_COUNT_UNSET = {"k": 1, "n": None, "r": None, "s": None, "order": None,
                "levels": None, "end_height": 0, "format": "text"}
_COUNT_READS = {
    "joint": ("k", "n", "r"),
    "marginal": ("k", "n", "r"),
    "pk": ("k", "n", "r"),
    "narayana": ("n", "r"),
    "ballot": ("k", "n", "s", "end_height"),
    "series": ("k", "order", "levels", "end_height", "format"),
}


def cmd_count(args) -> int:
    _reject_unread(args, f"count {args.what}", _COUNT_READS[args.what],
                   _COUNT_UNSET)
    if args.what == "joint":
        print(count_joint(args.k, _require(args, "--n"),
                          _ints(_require(args, "--r"))))
    elif args.what == "marginal":
        print(count_marginal(args.k, _require(args, "--n"),
                             int(_require(args, "--r"))))
    elif args.what == "pk":
        print(count_pk(args.k, _require(args, "--n"),
                       int(_require(args, "--r"))))
    elif args.what == "narayana":
        print(narayana(_require(args, "--n"), int(_require(args, "--r"))))
    elif args.what == "ballot":
        if args.k < 1:
            raise ValueError("need k >= 1")
        ell, r = divmod(args.end_height, args.k)
        print(count_ballot_joint(args.k, ell, r, _require(args, "--n"),
                                 _ints(_require(args, "--s"))))
    elif args.what == "series":
        _require(args, "--order")
        series = _build_series(args)
        if args.format == "json":
            _dump_json(series.to_json())
        else:
            for line in series.dump_lines():
                print(line)
    return 0


def _build_series(args):
    levels = _parse_levels(args.levels) if args.levels else {}
    if levels:
        spec = FamilySpec(args.k, levels)
        if args.end_height:
            return solve_g_kac(spec, args.end_height, args.order)
        return solve_f_kac(spec, args.order)
    if args.end_height:
        return solve_g(args.k, args.end_height, args.order)
    return solve_f(args.k, args.order)


def cmd_map(args) -> int:
    op = args.op
    if op in ("kappa", "lift", "psi", "deutsch") or \
            (op == "permute" and args.path is not None):
        if args.path is None:
            raise ValueError(f"map {op} needs --path")
        k = 1 if op == "deutsch" else args.k
        path = parse_path(_read_text(args.path), FamilySpec(k))
        if op == "kappa":
            print(render_path(cyclic_shift(path, args.power)))
        elif op == "lift":
            lifted = lift(path, args.power)
            _dump_json({"start_height": lifted.start_height,
                        "steps": render_path(lifted)})
        elif op == "deutsch":
            print(render_path(deutsch_involution(path)))
        elif op == "psi":
            tree = path_to_labeled_tree(path) if args.labels and path.steps \
                else path_to_tree(path)
            print(tree_to_json_text(tree))
        else:
            if args.sigma is None:
                raise ValueError("map permute needs --sigma")
            print(render_path(permute_statistics(path, _ints(args.sigma))))
        return 0
    if op == "psi-inv":
        if args.tree is None:
            raise ValueError("map psi-inv needs --tree")
        tree = tree_from_json_text(_read_text(args.tree), args.k + 1)
        print(render_path(tree_to_path(tree, args.k)))
        return 0
    if op == "permute":
        if args.tree is None:
            raise ValueError("map permute needs --path or --tree")
        if args.sigma is None:
            raise ValueError("map permute needs --sigma")
        sigma = _ints(args.sigma)
        tree = tree_from_json_text(_read_text(args.tree), len(sigma))
        print(tree_to_json_text(permute_subtrees(tree, sigma)))
        return 0
    raise ValueError(f"unknown map operation {op!r}")


_SUITE_PARAMS = {
    "figures": (),
    "equidistribution": (("k", "k"), ("max_n", "max_n"),
                         ("weak_max_len", "max_len")),
    "bijection": (("max_k", "max_k"), ("max_n", "max_n"),
                  ("max_nodes", "max_nodes")),
    "closed-forms": (("max_k", "max_k"), ("max_n", "max_n")),
    "series": (("max_k", "max_k"), ("max_n", "max_n"),
               ("weak_max_len", "max_len"), ("ballot_max_m", "max_m")),
    "ballot": (("max_k", "max_k"), ("max_m", "max_m"), ("max_n", "max_n")),
    "involution": (("max_semilength", "max_n"),),
}


_VERIFY_FLAGS = ("k", "max_k", "max_n", "max_len", "max_m", "max_nodes")


def cmd_verify(args) -> int:
    _reject_unread(args, f"verify {args.suite}",
                   [flag for _, flag in _SUITE_PARAMS[args.suite]],
                   dict.fromkeys(_VERIFY_FLAGS))
    for flag in _VERIFY_FLAGS:
        value = getattr(args, flag)
        least = 1 if flag in ("k", "max_k") else 0
        if value is not None and value < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {least}")
    kwargs = {}
    for param, flag in _SUITE_PARAMS[args.suite]:
        value = getattr(args, flag)
        if value is not None:
            kwargs[param] = value
    report = SUITES[args.suite](**kwargs)
    if args.format == "json":
        _dump_json(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def cmd_render(args) -> int:
    if (args.path is None) == (args.tree is None):
        raise ValueError("render needs exactly one of --path or --tree")
    if args.path is not None:
        spec = _path_spec(args)
        path = parse_path(_read_text(args.path), spec)
        labels = None
        if args.labels and path.steps and not spec.has_levels:
            labels = label_features(path)
        out = render_path_ascii(path, labels) if args.format == "ascii" \
            else render_path_svg(path, labels)
    else:
        arity = args.arity if args.arity is not None else args.k + 1
        tree = tree_from_json_text(_read_text(args.tree), arity)
        out = render_tree_ascii(tree) if args.format == "ascii" \
            else render_tree_svg(tree)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakmod",
        description="exact peak statistics modulo k on lattice paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a path family")
    _add_family_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("histogram", help="tally statistic vectors")
    _add_family_flags(p)
    p.add_argument("--variant", choices=sorted(VARIANT_FLAGS),
                   default="plain")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("count", help="closed forms and series")
    p.add_argument("what", choices=("joint", "marginal", "pk", "narayana",
                                    "ballot", "series"))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=str, default=None,
                   help="statistic value, or comma vector for joint")
    p.add_argument("--s", type=str, default=None,
                   help="starred statistic vector for ballot counts")
    p.add_argument("--order", type=int, default=None,
                   help="truncation order for series")
    p.add_argument("--levels", type=str, default=None)
    p.add_argument("--end-height", "--m", dest="end_height", type=int,
                   default=0, help="end height m for ballot and series")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("map", help="apply a transform or bijection")
    p.add_argument("op", choices=("kappa", "lift", "psi", "psi-inv",
                                  "deutsch", "permute"))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--path", type=str, default=None,
                   help="path text ('-' reads stdin)")
    p.add_argument("--tree", type=str, default=None,
                   help="tree JSON ('-' reads stdin)")
    p.add_argument("--power", type=int, default=1,
                   help="shift power or lift amount")
    p.add_argument("--sigma", type=str, default=None,
                   help="permutation images of 1..m, comma separated")
    p.add_argument("--labels", action="store_true",
                   help="label nodes for psi")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a path or tree")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--levels", type=str, default=None)
    p.add_argument("--end-height", type=int, default=0)
    p.add_argument("--arity", type=int, default=None)
    p.add_argument("--path", type=str, default=None)
    p.add_argument("--tree", type=str, default=None)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"peakmod: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except (PathError, TreeError, NonIntegerResultError, ValueError) as exc:
        print(f"peakmod: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

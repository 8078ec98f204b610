"""Command-line surface: enumeration, statistics, counting, transforms,
verification suites, and static rendering.

Every output is byte-deterministic for a given set of flags.  Exit codes:
0 success, 1 verification failure, 2 usage or bad input, 3 resource cap
exceeded or out of memory (such as ``count series`` at an order whose
rows do not fit).  The object cap honours the PEAKMOD_MAX_OBJECTS
environment variable and the --limit flag.

One rule covers all six subcommands: an invocation that lacks a flag its
mode requires, or sets a flag its mode does not read to anything but its
default, exits 2; no flag is ignored.  So ``map deutsch`` reads only
``--path``, ``map permute --tree`` reads ``--tree`` and ``--sigma``, and
``render --tree`` reads ``--format`` and either ``--arity`` or ``--k``
(then the arity is k + 1).

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

from .bijections import (
    path_to_labeled_tree,
    path_to_tree,
    permute_statistics,
    tree_to_path,
)
from .core import (
    FamilySpec,
    PathError,
    TreeError,
    _int_arg,
    ascii_int,
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
    ballot_family,
    family_histogram,
    gen_kac,
    k_dyck_family,
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
# the flag contract
# ---------------------------------------------------------------------------

# mode -> (flags it requires, other flags it reads), by argparse dest.  A
# mode is the subcommand, then its kind, operation or suite if it takes
# one, then, where it takes one of two flags (_EITHER_OR), the one given,
# and last an optional flag that narrows the mode (_NARROWED_BY), if given.
# A verify mode maps each flag it reads to the suite parameter the flag
# sets (None: read by the command itself).
_CONTRACT = {
    "enumerate --down-size": (("down_size",), ("k", "end_height", "limit")),
    "enumerate --length": (("length",),
                           ("k", "levels", "end_height", "limit")),
    "histogram --down-size": (("down_size",), ("k", "end_height", "limit",
                                               "variant", "format")),
    "histogram --length": (("length",), ("k", "levels", "end_height",
                                         "limit", "variant", "format")),
    "count joint": (("n", "r"), ("k",)),
    "count marginal": (("n", "r"), ("k",)),
    "count pk": (("n", "r"), ("k",)),
    "count narayana": (("n", "r"), ()),
    "count ballot": (("n", "s"), ("k", "end_height")),
    "count series": (("order",), ("k", "levels", "end_height", "format")),
    "map kappa": (("path",), ("k", "power")),
    "map lift": (("path",), ("k", "power")),
    "map psi": (("path",), ("k", "labels")),
    "map psi-inv": (("tree",), ("k",)),
    "map deutsch": (("path",), ()),
    "map permute --path": (("path", "sigma"), ("k",)),
    "map permute --tree": (("tree", "sigma"), ()),
    "render --path": (("path",),
                      ("k", "levels", "end_height", "format", "labels")),
    "render --tree": (("tree",), ("k", "format")),
    "render --tree --arity": (("tree", "arity"), ("format",)),
    "verify figures": ((), {"format": None}),
    "verify equidistribution": ((), {"format": None, "k": "k",
                                     "max_n": "max_n",
                                     "max_len": "weak_max_len"}),
    "verify bijection": ((), {"format": None, "max_k": "max_k",
                              "max_n": "max_n", "max_nodes": "max_nodes"}),
    "verify closed-forms": ((), {"format": None, "max_k": "max_k",
                                 "max_n": "max_n"}),
    "verify series": ((), {"format": None, "max_k": "max_k",
                           "max_n": "max_n", "max_len": "weak_max_len",
                           "max_m": "ballot_max_m"}),
    "verify ballot": ((), {"format": None, "max_k": "max_k",
                           "max_m": "max_m", "max_n": "max_n"}),
    "verify involution": ((), {"format": None, "max_n": "max_semilength"}),
}

# the modes that take exactly one of two flags, named by the flag given
_EITHER_OR = {
    "enumerate": ("down_size", "length"),
    "histogram": ("down_size", "length"),
    "map permute": ("path", "tree"),
    "render": ("path", "tree"),
}

# the modes that an optional flag, when given, narrows to a mode of its own
_NARROWED_BY = {"render --tree": "arity"}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _check_flags(args) -> None:
    """Raise ValueError unless every flag the mode requires is given and
    every flag it does not read keeps its declared default."""
    mode = " ".join([args.command] + [getattr(args, dest) for dest in
                                      ("what", "op", "suite") if dest in args])
    pair = _EITHER_OR.get(mode)
    if pair:
        given = [dest for dest in pair if getattr(args, dest) is not None]
        if len(given) != 1:
            a, b = map(_flag, pair)
            raise ValueError(f"{a} and {b} are exclusive" if given
                             else f"{mode} needs {a} or {b}")
        mode += " " + _flag(given[0])
    narrow = _NARROWED_BY.get(mode)
    if narrow and getattr(args, narrow) is not None:
        mode += " " + _flag(narrow)
    needs, reads = _CONTRACT[mode]
    for dest, default in args.flag_defaults.items():
        if dest not in needs and dest not in reads and \
                getattr(args, dest) != default:
            raise ValueError(f"{mode} does not read {_flag(dest)}")
    for dest in needs:
        if getattr(args, dest) is None:
            raise ValueError(f"{mode} needs {_flag(dest)}")


# ---------------------------------------------------------------------------
# shared flag handling
# ---------------------------------------------------------------------------

def _int(text: str, flag: str = "") -> int:
    """The reader of every number given on the command line: it reads
    with :func:`peakmod.core.ascii_int`, as ``PEAKMOD_MAX_OBJECTS`` is read,
    so an optional sign and ASCII digits with no "_".  Without ``flag`` it
    is an argparse type, and argparse names the flag when it rejects a
    token; with one, a token int() reads is rejected naming ``flag``, and
    other text keeps int()'s own error."""
    try:
        value = ascii_int(text)
    except ValueError:
        if flag:
            raise
        value = None
    if value is not None:
        return value
    msg = f"invalid int value: {text!r}"
    if not flag:
        raise argparse.ArgumentTypeError(msg)
    raise ValueError(f"{flag}: {msg}")


def _ints(text: str, flag: str) -> tuple[int, ...]:
    return tuple(_int(x, flag) for x in text.split(","))


def _parse_levels(text: str | None) -> dict[int, int]:
    """Grammar a:c[,a:c]*  mapping run-length to color count."""
    levels: dict[int, int] = {}
    for chunk in text.split(",") if text else ():
        a, _, c = chunk.partition(":")
        try:
            key, count = _int(a, "--levels"), _int(c, "--levels")
        except ValueError:
            raise ValueError(f"bad --levels entry {chunk!r} (want a:c)") \
                from None
        if key in levels:
            raise ValueError(f"duplicate level run-length {key}")
        levels[key] = count
    return levels


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_int, default=1,
                        help="down-step drop (default 1)")
    parser.add_argument("--down-size", type=_int, default=None,
                        help="number of down-steps (level-free families)")
    parser.add_argument("--length", type=_int, default=None,
                        help="total path length (families with level steps)")
    parser.add_argument("--levels", type=str, default=None,
                        help="allowed level steps as a:c[,a:c]*")
    parser.add_argument("--end-height", type=_int, default=0,
                        help="target end height m (default 0)")
    parser.add_argument("--limit", type=_int, default=None,
                        help="override the object cap")


def _family(args) -> tuple[FamilySpec, int]:
    """The spec and total length of the family the flags name."""
    if args.length is not None:
        return (FamilySpec(args.k, _parse_levels(args.levels),
                           args.end_height), args.length)
    if args.end_height:
        return ballot_family(args.k, args.end_height, args.down_size)
    return k_dyck_family(args.k, args.down_size)


def _read_text(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    return value


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    for path in gen_kac(*_family(args), max_objects=args.limit):
        print(render_path(path))
    return 0


_CSV_PREFIX = {"plain": "pk", "weak": "wpk",
               "plain_starred": "pks", "weak_starred": "wpks"}
_CSV_DD = {"plain": "dd", "weak": "wdd",
           "plain_starred": "dd", "weak_starred": "wdd"}


def cmd_histogram(args) -> int:
    variant = VARIANT_FLAGS[args.variant]
    hist = family_histogram(*_family(args), variant, args.limit)
    if args.format == "json":
        _dump_json(hist.to_json())
        return 0
    prefix = _CSV_PREFIX[variant]
    header = [f"{prefix}{i}" for i in range(hist.k)]
    print(",".join(header + [_CSV_DD[variant], "count"]))
    for key, count in hist.entries():
        print(",".join(str(x) for x in (*key, count)))
    return 0


def cmd_count(args) -> int:
    if args.what == "joint":
        print(count_joint(args.k, args.n, _ints(args.r, "--r")))
    elif args.what == "marginal":
        print(count_marginal(args.k, args.n, _int(args.r, "--r")))
    elif args.what == "pk":
        print(count_pk(args.k, args.n, _int(args.r, "--r")))
    elif args.what == "narayana":
        print(narayana(args.n, _int(args.r, "--r")))
    elif args.what == "ballot":
        spec = FamilySpec(args.k, end_height=args.end_height)
        print(count_ballot_joint(spec.k, spec.ell, spec.residue, args.n,
                                 _ints(args.s, "--s")))
    elif args.what == "series":
        series = _build_series(args)
        if args.format == "json":
            _dump_json(series.to_json())
        else:
            for line in series.dump_lines():
                print(line)
    return 0


def _build_series(args):
    levels = _parse_levels(args.levels)
    if levels:
        spec = FamilySpec(args.k, levels)
        if args.end_height:
            return solve_g_kac(spec, args.end_height, args.order)
        return solve_f_kac(spec, args.order)
    if args.end_height:
        return solve_g(args.k, args.end_height, args.order)
    return solve_f(args.k, args.order)


def cmd_map(args) -> int:
    if args.tree is not None:  # psi-inv, or permute --tree
        if args.op == "psi-inv":
            tree = tree_from_json_text(_read_text(args.tree), args.k + 1)
            print(render_path(tree_to_path(tree, args.k)))
        else:
            sigma = _ints(args.sigma, "--sigma")
            tree = tree_from_json_text(_read_text(args.tree), len(sigma))
            print(tree_to_json_text(permute_subtrees(tree, sigma)))
        return 0
    # deutsch reads no --k, so k is 1 for it here
    path = parse_path(_read_text(args.path), FamilySpec(args.k))
    if args.op == "kappa":
        print(render_path(cyclic_shift(path, args.power)))
    elif args.op == "lift":
        lifted = lift(path, args.power)
        _dump_json({"start_height": lifted.start_height,
                    "steps": render_path(lifted)})
    elif args.op == "deutsch":
        print(render_path(deutsch_involution(path)))
    elif args.op == "psi":
        tree = path_to_labeled_tree(path) if args.labels and path.steps \
            else path_to_tree(path)
        print(tree_to_json_text(tree))
    else:
        sigma = _ints(args.sigma, "--sigma")
        print(render_path(permute_statistics(path, sigma)))
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    for flag, param in _CONTRACT[f"verify {args.suite}"][1].items():
        value = getattr(args, flag)
        if param and value is not None:
            kwargs[param] = _int_arg(_flag(flag), value,
                                     1 if flag in ("k", "max_k") else 0)
    report = SUITES[args.suite](**kwargs)
    if args.format == "json":
        _dump_json(report.to_json())
    else:
        for line in report.summary_lines():
            print(line)
    return 0 if report.ok else 1


def cmd_render(args) -> int:
    if args.path is not None:
        spec = FamilySpec(args.k, _parse_levels(args.levels), args.end_height)
        path = parse_path(_read_text(args.path), spec)
        labels = label_features(path) if args.labels and path.steps else None
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
    p.add_argument("--k", type=_int, default=1)
    p.add_argument("--n", type=_int, default=None)
    p.add_argument("--r", type=str, default=None,
                   help="statistic value, or comma vector for joint")
    p.add_argument("--s", type=str, default=None,
                   help="starred statistic vector for ballot counts")
    p.add_argument("--order", type=_int, default=None,
                   help="truncation order for series")
    p.add_argument("--levels", type=str, default=None)
    p.add_argument("--end-height", "--m", dest="end_height", type=_int,
                   default=0, help="end height m for ballot and series")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("map", help="apply a transform or bijection")
    p.add_argument("op", choices=("kappa", "lift", "psi", "psi-inv",
                                  "deutsch", "permute"))
    p.add_argument("--k", type=_int, default=1)
    p.add_argument("--path", type=str, default=None,
                   help="path text ('-' reads stdin)")
    p.add_argument("--tree", type=str, default=None,
                   help="tree JSON ('-' reads stdin)")
    p.add_argument("--power", type=_int, default=1,
                   help="shift power or lift amount")
    p.add_argument("--sigma", type=str, default=None,
                   help="permutation images of 1..m, comma separated")
    p.add_argument("--labels", action="store_true",
                   help="label nodes for psi")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--k", type=_int, default=None)
    p.add_argument("--max-k", type=_int, default=None)
    p.add_argument("--max-n", type=_int, default=None)
    p.add_argument("--max-len", type=_int, default=None)
    p.add_argument("--max-m", type=_int, default=None)
    p.add_argument("--max-nodes", type=_int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a path or tree")
    p.add_argument("--k", type=_int, default=1)
    p.add_argument("--levels", type=str, default=None)
    p.add_argument("--end-height", type=_int, default=0)
    p.add_argument("--arity", type=_int, default=None)
    p.add_argument("--path", type=str, default=None)
    p.add_argument("--tree", type=str, default=None)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=cmd_render)

    # each option's declared default, read once for _check_flags (argparse
    # lists a parser's options only in its _actions)
    for p in sub.choices.values():
        p.set_defaults(flag_defaults={
            a.dest: a.default for a in p._actions
            if a.option_strings and a.dest != "help"})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"peakmod: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("peakmod: out of memory", file=sys.stderr)
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

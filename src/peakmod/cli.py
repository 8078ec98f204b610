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

Each subcommand's flags are declared once, in ``_SUBCOMMANDS``, and each
mode's requirements and action once, in ``_MODES``.  :func:`main` reads
argv from the flag table, and hands argparse only what the table's plain
forms do not cover (help, prefixes, faults ...), so every usage message
and argparse exit stays argparse's; the parser is built for the first
such call and kept for the process.  Neither importing this module nor a
call that argparse does not read loads argparse.  Then :func:`_action`
decides the mode once, checks the flags against its row and returns its
action, which :func:`main` runs.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace

from .bijections import (
    _records,
    permute_statistics,
    tree_to_path,
)
from .core import (
    FamilySpec,
    PathError,
    TreeError,
    _int_arg,
    _tree_text,
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
from .statistics import _label_texts, label_features
from .transforms import cyclic_shift, deutsch_involution, lift, \
    permute_subtrees
from .verify import SUITES, _least

# --variant spelling -> (statistic variant, CSV column prefix, dd column)
VARIANT_FLAGS = {
    "plain": ("plain", "pk", "dd"),
    "weak": ("weak", "wpk", "wdd"),
    "plain-starred": ("plain_starred", "pks", "dd"),
    "weak-starred": ("weak_starred", "wpks", "wdd"),
}


# ---------------------------------------------------------------------------
# shared flag handling
# ---------------------------------------------------------------------------

def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _int(text: str, flag: str = "") -> int:
    """The reader of every number given on the command line: it reads
    with :func:`peakmod.core.ascii_int`, as ``PEAKMOD_MAX_OBJECTS`` is read,
    so an optional sign and ASCII digits with no "_".  Without ``flag`` it
    is an argparse type, and argparse names the flag when it rejects a
    token (only that branch imports argparse); with one, as
    :func:`_read_argv` and the actions call it, a token int() reads is
    rejected naming ``flag``, and other text keeps int()'s own error."""
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
        import argparse
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


def _read_text(value: str) -> str:
    return sys.stdin.read().strip() if value == "-" else value


def _path(args):
    """The --path of a map mode; deutsch reads no --k, so its k is 1."""
    return parse_path(_read_text(args.path), FamilySpec(args.k))


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


# ---------------------------------------------------------------------------
# the actions of the modes
# ---------------------------------------------------------------------------

def _by_length(args) -> tuple[FamilySpec, int]:
    return (FamilySpec(args.k, _parse_levels(args.levels), args.end_height),
            args.length)


def _by_down_size(args) -> tuple[FamilySpec, int]:
    if args.end_height:
        return ballot_family(args.k, args.end_height, args.down_size)
    return k_dyck_family(args.k, args.down_size)


def _enumerate(family, args) -> None:
    for path in gen_kac(*family, max_objects=args.limit):
        print(render_path(path))


def _histogram(family, args) -> None:
    variant, prefix, dd = VARIANT_FLAGS[args.variant]
    hist = family_histogram(*family, variant, args.limit)
    if args.format == "json":
        return _dump_json(hist.to_json())
    print(",".join([f"{prefix}{i}" for i in range(hist.k)] + [dd, "count"]))
    for key, count in hist.entries():
        print(",".join(str(x) for x in (*key, count)))


def _ballot(args) -> None:
    spec = FamilySpec(args.k, end_height=args.end_height)
    print(count_ballot_joint(spec.k, spec.ell, spec.residue, args.n,
                             _ints(args.s, "--s")))


def _series(args) -> None:
    levels = _parse_levels(args.levels)
    if levels:
        spec = FamilySpec(args.k, levels)
        series = solve_g_kac(spec, args.end_height, args.order) \
            if args.end_height else solve_f_kac(spec, args.order)
    else:
        series = solve_g(args.k, args.end_height, args.order) \
            if args.end_height else solve_f(args.k, args.order)
    if args.format == "json":
        return _dump_json(series.to_json())
    for line in series.dump_lines():
        print(line)


def _lift(args) -> None:
    lifted = lift(_path(args), args.power)
    _dump_json({"start_height": lifted.start_height,
                "steps": render_path(lifted)})


def _psi(args) -> None:
    # tree_to_json_text of the (labeled) tree, from records in text order
    path = _path(args)
    labels = _label_texts(path) if args.labels and path.steps else None
    records = _records(path, labels)
    print(_tree_text(path.k + 1, records, str) if records else "null")


def _permute_tree(args) -> None:
    sigma = _ints(args.sigma, "--sigma")
    tree = tree_from_json_text(_read_text(args.tree), len(sigma))
    print(tree_to_json_text(permute_subtrees(tree, sigma)))


def _render_path(args) -> None:
    spec = FamilySpec(args.k, _parse_levels(args.levels), args.end_height)
    path = parse_path(_read_text(args.path), spec)
    labels = label_features(path) if args.labels and path.steps else None
    print(render_path_ascii(path, labels) if args.format == "ascii"
          else render_path_svg(path, labels))


def _render_tree(args, arity: int) -> None:
    tree = tree_from_json_text(_read_text(args.tree), arity)
    print(render_tree_ascii(tree) if args.format == "ascii"
          else render_tree_svg(tree))


def _verify(suite: str, **params: str) -> tuple:
    """The row of ``verify suite``: it reads --format and each flag in
    ``params``, which sets the suite parameter it names, read under the
    suite's own least value but named by the flag."""
    def run(args) -> int:
        report = SUITES[suite](**{
            param: _int_arg(_flag(dest), getattr(args, dest), _least(param))
            for dest, param in params.items()
            if getattr(args, dest) is not None})
        if args.format == "json":
            _dump_json(report.to_json())
        else:
            for line in report.summary_lines():
                print(line)
        return 0 if report.ok else 1
    return (), ("format", *params), run


# ---------------------------------------------------------------------------
# the modes
# ---------------------------------------------------------------------------

# mode -> (flags it requires, other flags it reads, action), by argparse
# dest.  A mode is the subcommand, then its kind, operation or suite if it
# takes one, then, where it takes one of two flags (_EITHER_OR), the one
# given, and last an optional flag that narrows the mode (_NARROWED_BY), if
# given.  An action prints the mode's output and returns its exit code, or
# None for 0.
_MODES = {
    "enumerate --down-size": (
        ("down_size",), ("k", "end_height", "limit"),
        lambda a: _enumerate(_by_down_size(a), a)),
    "enumerate --length": (
        ("length",), ("k", "levels", "end_height", "limit"),
        lambda a: _enumerate(_by_length(a), a)),
    "histogram --down-size": (
        ("down_size",), ("k", "end_height", "limit", "variant", "format"),
        lambda a: _histogram(_by_down_size(a), a)),
    "histogram --length": (
        ("length",), ("k", "levels", "end_height", "limit", "variant",
                      "format"),
        lambda a: _histogram(_by_length(a), a)),
    "count joint": (("n", "r"), ("k",), lambda a: print(
        count_joint(a.k, a.n, _ints(a.r, "--r")))),
    "count marginal": (("n", "r"), ("k",), lambda a: print(
        count_marginal(a.k, a.n, _int(a.r, "--r")))),
    "count pk": (("n", "r"), ("k",), lambda a: print(
        count_pk(a.k, a.n, _int(a.r, "--r")))),
    "count narayana": (("n", "r"), (), lambda a: print(
        narayana(a.n, _int(a.r, "--r")))),
    "count ballot": (("n", "s"), ("k", "end_height"), _ballot),
    "count series": (("order",), ("k", "levels", "end_height", "format"),
                     _series),
    "map kappa": (("path",), ("k", "power"), lambda a: print(
        render_path(cyclic_shift(_path(a), a.power)))),
    "map lift": (("path",), ("k", "power"), _lift),
    "map psi": (("path",), ("k", "labels"), _psi),
    "map psi-inv": (("tree",), ("k",), lambda a: print(render_path(
        tree_to_path(tree_from_json_text(_read_text(a.tree), a.k + 1),
                     a.k)))),
    "map deutsch": (("path",), (), lambda a: print(
        render_path(deutsch_involution(_path(a))))),
    "map permute --path": (("path", "sigma"), ("k",), lambda a: print(
        render_path(permute_statistics(_path(a), _ints(a.sigma, "--sigma"))))),
    "map permute --tree": (("tree", "sigma"), (), _permute_tree),
    "render --path": (("path",),
                      ("k", "levels", "end_height", "format", "labels"),
                      _render_path),
    "render --tree": (("tree",), ("k", "format"),
                      lambda a: _render_tree(a, a.k + 1)),
    "render --tree --arity": (("tree", "arity"), ("format",),
                              lambda a: _render_tree(a, a.arity)),
    "verify figures": _verify("figures"),
    "verify equidistribution": _verify("equidistribution", k="k",
                                       max_n="max_n",
                                       max_len="weak_max_len"),
    "verify bijection": _verify("bijection", max_k="max_k", max_n="max_n",
                                max_nodes="max_nodes"),
    "verify closed-forms": _verify("closed-forms", max_k="max_k",
                                   max_n="max_n"),
    "verify series": _verify("series", max_k="max_k", max_n="max_n",
                             max_len="weak_max_len", max_m="ballot_max_m"),
    "verify ballot": _verify("ballot", max_k="max_k", max_m="max_m",
                             max_n="max_n"),
    "verify involution": _verify("involution", max_n="max_semilength"),
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


def _action(args):
    """The action of the mode ``args`` names.  Raise ValueError unless
    every flag the mode requires is given and every flag it does not read
    keeps its declared default."""
    mode = " ".join([args.command] + [getattr(args, dest) for dest in (
        "what", "op", "suite") if hasattr(args, dest)])
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
    needs, reads, action = _MODES[mode]
    for dest, default in _reader(args.command)[1].items():
        if dest not in needs and dest not in reads and \
                getattr(args, dest) != default:
            raise ValueError(f"{mode} does not read {_flag(dest)}")
    for dest in needs:
        if getattr(args, dest) is None:
            raise ValueError(f"{mode} needs {_flag(dest)}")
    return action


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

# Each subcommand's flags, declared once: build_parser and _read_argv are
# both made from this table.  A subcommand is (help, positional (dest,
# choices) or None, flags); a flag is (option strings, type,
# default, choices, help), its dest named from its first option string as
# argparse names it, and the type bool makes a switch (default False).
_FAMILY_FLAGS = (
    ("--k", _int, 1, None, "down-step drop (default 1)"),
    ("--down-size", _int, None, None,
     "number of down-steps (level-free families)"),
    ("--length", _int, None, None,
     "total path length (families with level steps)"),
    ("--levels", str, None, None, "allowed level steps as a:c[,a:c]*"),
    ("--end-height", _int, 0, None, "target end height m (default 0)"),
    ("--limit", _int, None, None, "override the object cap"),
)
_SUBCOMMANDS = {
    "enumerate": ("list a path family", None, _FAMILY_FLAGS),
    "histogram": ("tally statistic vectors", None, (
        *_FAMILY_FLAGS,
        ("--variant", str, "plain", sorted(VARIANT_FLAGS), None),
        ("--format", str, "json", ("json", "csv"), None))),
    "count": ("closed forms and series", (
        "what", ("joint", "marginal", "pk", "narayana", "ballot", "series")), (
        ("--k", _int, 1, None, None),
        ("--n", _int, None, None, None),
        ("--r", str, None, None,
         "statistic value, or comma vector for joint"),
        ("--s", str, None, None, "starred statistic vector for ballot counts"),
        ("--order", _int, None, None, "truncation order for series"),
        ("--levels", str, None, None, None),
        ("--end-height --m", _int, 0, None,
         "end height m for ballot and series"),
        ("--format", str, "text", ("text", "json"), None))),
    "map": ("apply a transform or bijection", (
        "op", ("kappa", "lift", "psi", "psi-inv", "deutsch", "permute")), (
        ("--k", _int, 1, None, None),
        ("--path", str, None, None, "path text ('-' reads stdin)"),
        ("--tree", str, None, None, "tree JSON ('-' reads stdin)"),
        ("--power", _int, 1, None, "shift power or lift amount"),
        ("--sigma", str, None, None,
         "permutation images of 1..m, comma separated"),
        ("--labels", bool, False, None, "label nodes for psi"))),
    "verify": ("run a property suite", ("suite", sorted(SUITES)), (
        *[(flag, _int, None, None, None) for flag in (
            "--k", "--max-k", "--max-n", "--max-len", "--max-m",
            "--max-nodes")],
        ("--format", str, "text", ("text", "json"), None))),
    "render": ("draw a path or tree", None, (
        ("--k", _int, 1, None, None),
        ("--levels", str, None, None, None),
        ("--end-height", _int, 0, None, None),
        ("--arity", _int, None, None, None),
        ("--path", str, None, None, None),
        ("--tree", str, None, None, None),
        ("--format", str, "ascii", ("ascii", "svg"), None),
        ("--labels", bool, False, None, None))),
}


@functools.cache
def _reader(command: str) -> tuple[dict, dict]:
    """A subcommand's option strings -> (dest, type, choices), and each
    flag's default by dest."""
    options, defaults = {}, {}
    for strings, kind, default, choices, _ in _SUBCOMMANDS[command][2]:
        names = strings.split()
        dest = names[0][2:].replace("-", "_")
        options.update(dict.fromkeys(names, (dest, kind, choices)))
        defaults[dest] = default
    return options, defaults


def _read_argv(argv: list):
    """``build_parser().parse_args(argv)`` read from the flag table, or
    None for help, faults, prefixes and any other argv argparse must read.
    A value apart from its flag may start with "-" only as "-" or "-" and
    ASCII digits: argparse's rule for the rest differs between versions."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options, defaults = _reader(argv[0])
    positional = _SUBCOMMANDS[argv[0]][1]
    args = {**defaults, "command": argv[0]}
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if positional is None or token not in positional[1] or \
                    positional[0] in args:
                return None
            args[positional[0]] = token
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            return None
        dest, kind, choices = options[name]
        if kind is bool:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and value != "-" and not (
                    value[1:].isascii() and value[1:].isdigit()):
                return None
        elif value == "--":  # argparse drops it, and so reads []
            return None
        if kind is _int:
            try:
                value = _int(value, name)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return SimpleNamespace(**args) if positional is None or \
        positional[0] in args else None


@functools.cache
def build_parser() -> "argparse.ArgumentParser":
    import argparse
    parser = argparse.ArgumentParser(
        prog="peakmod",
        description="exact peak statistics modulo k on lattice paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, positional, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=about)
        if positional:
            p.add_argument(positional[0], choices=positional[1])
        for strings, kind, default, choices, text in flags:
            p.add_argument(*strings.split(), help=text, **(
                {"action": "store_true"} if kind is bool else
                {"type": kind, "default": default, "choices": choices}))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or build_parser().parse_args(argv)
    try:
        return _action(args)(args) or 0
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

"""A differential test of ``cli._read_argv``, the argv reader that
``main`` tries before argparse.

Each draw makes one argv of one subcommand from its row of the flag
table (``cli._SUBCOMMANDS``): its positional choices, and its option
strings with values that ``_int`` and the choices take or refuse, each
value after "=" or as the next token.  Hostile tokens are mixed in:
prefixes of option strings, ``--x=`` with no value, "-", "--", "-1",
"-1e5", "-0,1" (apart and after "="), "-١", dash tokens with a space,
40-digit and non-ASCII numbers, ``--labels=1``, repeated flags (the last
one wins), a second positional, ``-h`` and ``--m`` (an alias on
``count``, an ambiguous prefix on ``verify``).

For each argv the reader either declines (returns None) or returns the
namespace that ``build_parser().parse_args`` returns, and ``main`` gives
the same (exit code or SystemExit code, stdout, stderr) with the reader
and with it patched out.

The draws are derandomized and the example database is off, so each run
makes the same draws.
"""

import contextlib
import io

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from peakmod import cli

FORTY = "1234567890" * 4
NUMBERS = ("0", "1", "2", "3", "-1", "-0", "+1", " 2 ")
REFUSED = ("", "x", "1_0", "١", "²", "-" + FORTY)
# a huge value of any other number flag asks for work of that size (a k
# of 10**39 asks for paths that long), so ``main`` gets the 40-digit
# number only for these; the reader alone gets it for every number flag
HUGE_OK = ("--limit", "--power", "--order")
TEXTS = {
    "--levels": ("1:1", "1:1,2:1", "١:1", "", "1:1,1:1"),
    "--r": ("0", "1", "0,1", "1,1", "1,1,1", "-1", "-0,1"),
    "--s": ("1", "1,1", "1,1,0", "-1"),
    "--path": ("ud", "uudd", "uuduud", "ul1_1d", "-", "", "u d"),
    "--tree": ("{}", '{"1":{}}', '{"2":{}}', "null", "-", ""),
    "--sigma": ("1", "1,2", "2,1", "1,1", "2,1,3"),
}
# tokens that argparse may read apart from the reader, as a flag's value
# and in a token's own place
DASHED = ("-", "--", "-1", "-1e5", "-0,1", "-١", "- 1", "-1 2", "-h",
          "--k", "-" + FORTY)
LOOSE = DASHED + ("--help", "--bogus", "--labels=1", "--labels=", "--m",
                  "--m=1", FORTY, "١", "nope", "")


def table(command):
    """(positional choices or (), {option string: (type, choices)})."""
    _, positional, flags = cli._SUBCOMMANDS[command]
    options = {name: (kind, choices) for strings, kind, _, choices, _
               in flags for name in strings.split()}
    return (positional[1] if positional else ()), options


def values(name, kind, choices, huge):
    """Values of the flag ``name`` that it takes."""
    if choices is not None:
        return choices
    if kind is cli._int:
        return NUMBERS + (FORTY,) * (huge or name in HUGE_OK)
    return TEXTS[name]


@st.composite
def argvs(draw, huge):
    """One argv of one subcommand; ``huge`` lets every number flag take
    the 40-digit number."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    choices, options = table(command)
    names = sorted(options)
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ["flag"] * 8 + ["refused", "loose", "prefix", "empty"]
            + ["positional"] * bool(choices)))
        if kind == "positional":
            pieces.append((draw(st.sampled_from(choices)),))
            continue
        if kind == "loose":
            pieces.append((draw(st.sampled_from(LOOSE)),))
            continue
        name = draw(st.sampled_from(names))
        flag_kind, flag_choices = options[name]
        if kind == "empty":
            pieces.append((name + "=",))
            continue
        value = None
        if flag_kind is not bool:
            value = draw(st.sampled_from(
                values(name, flag_kind, flag_choices, huge)
                if kind != "refused" else DASHED + REFUSED + ("nope",)))
        if kind == "prefix":
            name = name[:draw(st.integers(3, len(name) - 1))] \
                if len(name) > 3 else name + "x"
        if value is None:
            pieces.append((name,))
            continue
        pieces.append((f"{name}={value}",) if draw(st.booleans())
                      else (name, value))
    if choices and draw(st.integers(0, 9)):
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, (draw(st.sampled_from(choices)),))
    return [command] + [token for piece in pieces for token in piece]


def parsed(argv):
    """vars() of argparse's namespace for ``argv``, or None where it
    exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def outcome(argv, reader):
    """(exit code or ("SystemExit", code), stdout, stderr) of ``main``,
    with the reader or with it patched out."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PEAKMOD_MAX_OBJECTS", "200")
        mp.setattr("sys.stdin", io.StringIO("uudd\n"))
        if not reader:
            mp.setattr(cli, "_read_argv", lambda argv: None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


EXAMPLES = [
    [],
    ["count", "joint", "--k", "2", "--n", "3", "--r", "0,1,1"],
    ["count", "marginal", "--r", "-1", "--n", "2"],
    ["count", "joint", "--n", "3", "--r=-0,1"],
    ["count", "joint", "--n", "3", "--r", "-0,1"],
    ["count", "series", "--m", "2", "--order", "3"],
    ["count", "series", "--order", "3", "--m=-1"],
    ["verify", "involution", "--m", "2"],
    ["map", "psi", "--path", "uudd", "--labels=1"],
    ["enumerate", "--lev", "1:1", "--length", "2"],
    ["count", "joint", "joint", "--n", "3", "--r", "1,1"],
    ["render", "--path", "ud", "--k", "1", "--k", "2", "--k", "1"],
    ["count", "--order", "-1e5", "series"],
    ["map", "kappa", "--path", "-", "--power", "-١"],
    ["map", "kappa", "--path", "ud", "--power", "- 1"],
    ["count", "--k=", "series", "--order", "2"],
    ["histogram", "--", "--down-size", "2"],
    ["verify", "-h"],
]


def with_examples(test):
    for argv in EXAMPLES:
        test = example(argv)(test)
    return test


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(argvs(huge=True))
@with_examples
def test_reader_declines_or_agrees(argv):
    got = cli._read_argv(argv)
    event("read" if got is not None else "declined")
    assert got is None or vars(got) == parsed(argv), argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argvs(huge=False))
@with_examples
def test_main_alike_without_the_reader(argv):
    assert outcome(argv, True) == outcome(argv, False), argv


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_every_flag_is_read(command):
    """Each option string of the table, apart and after "=", is read as
    argparse reads it."""
    choices, options = table(command)
    head = [command, *choices[:1]]
    for name, (kind, flag_choices) in options.items():
        if kind is bool:
            argvs = [head + [name]]
        else:
            value = "2" if kind is cli._int else \
                (flag_choices or TEXTS[name])[0]
            argvs = [head + [name, value], head + [f"{name}={value}"]]
        for argv in argvs:
            got = cli._read_argv(argv)
            assert got is not None and vars(got) == parsed(argv), argv

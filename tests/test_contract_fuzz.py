"""A fuzzer of the command-line contract in ``peakmod.cli``.

Every mode of ``cli._MODES`` has a small valid invocation below that
sets every number flag the mode reads.  Each draw takes one mode and makes
one mutation of it:

  * a flag the mode does not read, set to a value other than its default;
  * a number token from a hostile alphabet in place of one number;
  * hostile ``--levels``, path or tree text;
  * a negative value of a size flag;
  * ``PEAKMOD_MAX_OBJECTS`` set in the environment instead of ``--limit``.

The properties are those of the ``cli`` docstring: ``main`` returns 0-3,
or argparse exits 2, and nothing else is raised; only ``verify`` exits 1;
exit 2 leaves stdout empty and writes one ``peakmod:`` line on stderr;
the same argv gives the same stdout twice.  A rejected number token or a
negative size exits 2, an accepted token (``+1``, `` 1 ``, ``-0``) acts as
its plain value, and the environment cap obeys the rule of ``--limit``.

The draws are derandomized and the example database is off, so each run
makes the same draws.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peakmod import cli

TREE = '{"1":{}}'

# one valid invocation per mode, each number flag the mode reads included
BASE = {
    "enumerate --down-size": ("enumerate", "--k", "2", "--down-size", "2",
                              "--end-height", "1", "--limit", "100"),
    "enumerate --length": ("enumerate", "--k", "1", "--levels", "1:2",
                           "--length", "3", "--end-height", "1",
                           "--limit", "100"),
    "histogram --down-size": ("histogram", "--k", "2", "--down-size", "2",
                              "--end-height", "1", "--limit", "100",
                              "--variant", "weak", "--format", "csv"),
    "histogram --length": ("histogram", "--k", "1", "--levels", "1:1,2:1",
                           "--length", "4", "--end-height", "0",
                           "--limit", "100"),
    "count joint": ("count", "joint", "--k", "1", "--n", "3", "--r", "1,1"),
    "count marginal": ("count", "marginal", "--k", "2", "--n", "3",
                       "--r", "1"),
    "count pk": ("count", "pk", "--k", "2", "--n", "3", "--r", "1"),
    "count narayana": ("count", "narayana", "--n", "4", "--r", "2"),
    "count ballot": ("count", "ballot", "--k", "2", "--n", "2",
                     "--s", "1,1,0", "--end-height", "1"),
    "count series": ("count", "series", "--k", "1", "--levels", "1:1",
                     "--end-height", "1", "--order", "4"),
    "map kappa": ("map", "kappa", "--k", "2", "--path", "uuduud",
                  "--power", "1"),
    "map lift": ("map", "lift", "--k", "1", "--path", "ud", "--power", "2"),
    "map psi": ("map", "psi", "--k", "1", "--path", "uudd", "--labels"),
    "map psi-inv": ("map", "psi-inv", "--k", "1", "--tree", TREE),
    "map deutsch": ("map", "deutsch", "--path", "uudd"),
    "map permute --path": ("map", "permute", "--k", "1", "--path", "uudd",
                           "--sigma", "2,1"),
    "map permute --tree": ("map", "permute", "--tree", TREE,
                           "--sigma", "2,1"),
    "render --path": ("render", "--k", "1", "--levels", "1:1",
                      "--end-height", "0", "--path", "ul1_1d"),
    "render --tree": ("render", "--k", "1", "--tree", TREE,
                      "--format", "svg"),
    "render --tree --arity": ("render", "--arity", "2", "--tree",
                              '{"2":{}}'),
    "verify figures": ("verify", "figures"),
    "verify equidistribution": ("verify", "equidistribution", "--k", "1",
                                "--max-n", "2", "--max-len", "2"),
    "verify bijection": ("verify", "bijection", "--max-k", "1",
                         "--max-n", "2", "--max-nodes", "2"),
    "verify closed-forms": ("verify", "closed-forms", "--max-k", "1",
                            "--max-n", "2"),
    "verify series": ("verify", "series", "--max-k", "1", "--max-n", "2",
                      "--max-len", "2", "--max-m", "1"),
    "verify ballot": ("verify", "ballot", "--max-k", "1", "--max-m", "1",
                      "--max-n", "2"),
    "verify involution": ("verify", "involution", "--max-n", "2"),
}

NUMBER_FLAGS = ("--k", "--down-size", "--length", "--end-height", "--limit",
                "--n", "--r", "--s", "--order", "--power", "--sigma",
                "--max-k", "--max-n", "--max-len", "--max-m", "--max-nodes",
                "--arity", "--levels")
SIZE_FLAGS = ("--order", "--n", "--down-size", "--length", "--limit",
              "--power", "--max-k", "--max-n", "--max-len", "--max-m",
              "--max-nodes")
# a huge value of any other number flag asks for work of that size, which
# no contract bounds (a k of 10**39 asks for paths that long), so the
# 40-digit token goes to these flags only, and as a negative size.  A
# series order past any list index is refused before work starts.  The
# family walk of enumerate and histogram builds one step per level color
# before the cap can act (an open defect), so there --levels takes no
# huge color count either.
HUGE_OK = ("--limit", "--power", "--r", "--s", "--sigma", "--levels",
           "--order")
WALKS = ("enumerate", "histogram")

FORTY = "1234567890" * 4
# Arabic-Indic one, superscript two, fullwidth two, "_", empty
REJECTED = ("١", "²", "２", "1_0", "")
ACCEPTED = {"+1": "1", " 1 ": "1", "-0": "0", FORTY: FORTY}

HOSTILE_TEXT = {
    "--levels": ("1:1,1:1", "0:1", "1:0", "1:-1", "-1:1", ":", "1:", ":1",
                 "1", "1:1:1", ",", "1:1,", "a:b", "1.5:1", "1:1.5",
                 "١:1", "1: 1", "64:" + FORTY),
    "--path": ("ux", "l", "l1", "l1_", "l_1", "l1_0", "l0_1", "l1_2",
               "l1.5_1", "l1_١", "l１_1", "d", "uu", "du",
               "u d", " ", "", "ud", "uDd", "l1_1" * 3, "ud" * 500),
    "--tree": ("", "null", "{}", "[]", "5", '"x"', "{", '{"1":{}', "{}}",
               '{"1":{},"1":{}}', '{"1":{},"01":{}}', '{"0":{}}',
               '{"3":{}}', '{"-1":{}}', '{"1.0":{}}', '{"\\u0031":{}}',
               '{"１":{}}', '{"label":5}', '{"label":"p0_1"}',
               '{"label":"x"}', '{"1":[]}', '{"label":"r","label":"r"}',
               "﻿{}", '{"1":' * 3000 + "{}" + "}" * 3000,
               '{"label":' + "[" * 3000 + "]" * 3000 + "}"),
}

FORMAT_ALT = {"histogram": "csv", "count": "json", "verify": "json",
              "render": "svg"}
ALT = {"--k": "2", "--down-size": "1", "--length": "2", "--levels": "1:1",
       "--end-height": "1", "--limit": "50", "--variant": "weak",
       "--n": "2", "--r": "1", "--s": "1,1", "--order": "2",
       "--path": "ud", "--tree": "{}", "--power": "2", "--sigma": "1,2",
       "--max-k": "1", "--max-n": "1", "--max-len": "1", "--max-m": "1",
       "--max-nodes": "1", "--arity": "2"}


def joined(argv):
    """``argv`` with each value that starts with "-" joined to its flag by
    "=", the one way argparse takes a value such as "-0,1"."""
    out = []
    for word in argv:
        if word.startswith("-") and not word.startswith("--") and out \
                and out[-1].startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def outcome(argv, env=None):
    """(exit code, stdout, stderr) of ``main(argv)`` with
    ``PEAKMOD_MAX_OBJECTS`` set to ``env`` (unset for None); argparse's
    exit is given as ("argparse", code)."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if env is None:
            mp.delenv("PEAKMOD_MAX_OBJECTS", raising=False)
        else:
            mp.setenv("PEAKMOD_MAX_OBJECTS", env)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(joined(argv))
            except SystemExit as exc:
                code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


def flag_defaults(mode):
    """Each flag of ``mode``'s subcommand, by dest, with its default."""
    return cli._reader(BASE[mode][0])[1]


def unread_flags(mode):
    """The flags of ``mode``'s subcommand that the mode does not read,
    each with a value other than its default."""
    needs, reads, _ = cli._MODES[mode]
    narrowing = cli._NARROWED_BY.get(mode)
    out = []
    for dest in sorted(flag_defaults(mode)):
        if dest in needs or dest in reads or dest == narrowing:
            continue
        flag = cli._flag(dest)
        if flag == "--labels":
            out.append((flag,))
        elif flag == "--format":
            out.append((flag, FORMAT_ALT[BASE[mode][0]]))
        else:
            out.append((flag, ALT[flag]))
    return out


def number_slots(argv):
    """(index, entry) of every number in ``argv``: the value of a number
    flag, and for a list or --levels each entry in it (entry None for a
    whole value)."""
    slots = []
    for i, word in enumerate(argv[:-1]):
        if word in NUMBER_FLAGS:
            value = argv[i + 1]
            if word in ("--r", "--s", "--sigma", "--levels"):
                parts = value.replace(":", ",").split(",")
                slots += [(i + 1, j) for j in range(len(parts))]
            else:
                slots.append((i + 1, None))
    return slots


def with_token(argv, slot, token):
    """``argv`` with the number at ``slot`` replaced by ``token``."""
    i, j = slot
    argv = list(argv)
    if j is None:
        argv[i] = token
    else:
        seps = [c for c in argv[i] if c in ",:"]
        parts = argv[i].replace(":", ",").split(",")
        parts[j] = token
        argv[i] = parts[0] + "".join(s + p for s, p in zip(seps, parts[1:]))
    return tuple(argv)


def set_flag(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``, added if absent."""
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return tuple(argv)


@st.composite
def cases(draw):
    """(kind, argv, env, plain): one mutation of one mode's invocation.
    ``plain`` is the argv with an accepted token's plain value, or, for an
    environment cap in a mode that reads ``--limit``, the argv with that
    flag instead."""
    mode = draw(st.sampled_from(sorted(BASE)))
    base = BASE[mode]
    flags = [cli._flag(dest) for dest in flag_defaults(mode)]
    sizes = [f for f in SIZE_FLAGS if f in flags]
    kinds = ["unread", "env"] + ["negative"] * bool(sizes)
    if number_slots(base):
        kinds.append("token")
    kinds += [f for f in HOSTILE_TEXT if f in base]
    kind = draw(st.sampled_from(kinds))
    if kind == "unread":  # every mode has a flag it does not read
        return kind, base + draw(st.sampled_from(unread_flags(mode))), \
            None, None
    if kind == "negative":
        flag = draw(st.sampled_from(sizes))
        value = draw(st.sampled_from(["-1", "-2", "-" + FORTY]))
        return kind, set_flag(base, flag, value), None, None
    if kind == "env":
        token = draw(st.sampled_from(
            ["0", "1", "3", "-1", "-0", "+2", " 2 ", FORTY, *REJECTED]))
        if "limit" not in cli._MODES[mode][1]:
            return kind, base, token, None
        i = base.index("--limit")
        argv = base[:i] + base[i + 2:]
        return kind, argv, token, argv + ("--limit", token)
    if kind == "token":
        slot = draw(st.sampled_from(number_slots(base)))
        tokens = list(REJECTED) + [t for t in ACCEPTED if t != FORTY]
        flag = base[slot[0] - 1]
        if flag in HUGE_OK and not (flag == "--levels" and base[0] in WALKS):
            tokens.append(FORTY)
        token = draw(st.sampled_from(tokens))
        plain = ACCEPTED.get(token)
        return (kind, with_token(base, slot, token), None,
                None if plain is None else with_token(base, slot, plain))
    text = draw(st.sampled_from([t for t in HOSTILE_TEXT[kind]
                                 if FORTY not in t or base[0] not in WALKS]))
    return "text", set_flag(base, kind, text), None, None


def check_contract(argv, code, out, err):
    """The properties every invocation keeps."""
    if isinstance(code, tuple):
        assert code == ("argparse", 2), (argv, code)
        return
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert argv[0] == "verify", argv
    if code == 2:
        assert out == "", (argv, out)
        assert err.count("\n") == 1 and err.startswith("peakmod: "), \
            (argv, err)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cases())
@example(("negative", ("count", "series", "--k", "1", "--order", "-1"),
          None, None))
@example(("token", ("enumerate", "--k", "١", "--down-size", "2"),
          None, None))
@example(("token", ("count", "series", "--k", "1", "--order", FORTY),
          None, ("count", "series", "--k", "1", "--order", FORTY)))
@example(("env", ("enumerate", "--k", "1", "--down-size", "3"), "1_0",
          ("enumerate", "--k", "1", "--down-size", "3", "--limit", "1_0")))
def test_contract(case):
    kind, argv, env, plain = case
    code, out, err = outcome(argv, env)
    check_contract(argv, code, out, err)
    again = outcome(argv, env)
    assert again[:2] == (code, out), argv
    if kind in ("unread", "negative") or (kind == "token"
                                          and plain is None):
        assert code in (2, ("argparse", 2)) and out == "", (argv, code)
    elif kind == "token":
        assert (code, out) == outcome(plain)[:2], (argv, plain)
    elif kind == "env" and plain is not None:
        want, want_out, _ = outcome(plain)
        if want == ("argparse", 2):
            assert code == 2 and out == "", (argv, env)
        else:
            assert (code, out) == (want, want_out), (argv, env)


def test_every_mode_has_an_invocation():
    assert set(BASE) == set(cli._MODES)


@pytest.mark.parametrize("mode", sorted(BASE))
def test_invocation_is_valid(mode):
    code, out, err = outcome(BASE[mode])
    assert code == 0 and out and err == "", (mode, code, err)


@pytest.mark.parametrize("mode", sorted(BASE))
def test_every_number_rejects_hostile_digits(mode):
    # each number of each mode, in turn, for each rejected token; the
    # draws above cannot promise to reach every one
    for slot in number_slots(BASE[mode]):
        for token in REJECTED:
            argv = with_token(BASE[mode], slot, token)
            code, out, err = outcome(argv)
            check_contract(argv, code, out, err)
            assert code in (2, ("argparse", 2)) and out == "", argv

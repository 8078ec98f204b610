"""What a one-shot command pays to import the package, checked in fresh
interpreters: this process has long since imported ``dataclasses`` and
``argparse``, so their lazy imports are never cold here."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str, check: bool = True) -> subprocess.CompletedProcess:
    """``code`` run in an isolated interpreter whose ``sys.argv[1]`` is the
    source directory."""
    return subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=check,
                          timeout=60)


def test_cli_import_loads_no_dataclasses():
    # importing dataclasses also loads inspect, ast, dis and tokenize
    code = ("import sys; before = set(sys.modules); "
            "sys.path.insert(0, sys.argv[1]); import peakmod.cli; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    assert fresh(code).stdout == "[]\n"


def test_assignment_loads_the_frozen_error():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from peakmod import FamilySpec\n"
            "try:\n"
            "    setattr(FamilySpec(1), 'k', 2)\n"
            "except Exception as exc:\n"
            "    import dataclasses\n"
            "    print(type(exc) is dataclasses.FrozenInstanceError, exc)")
    assert fresh(code).stdout == "True cannot assign to field 'k'\n"


def test_read_argv_loads_no_argparse():
    # the import and a call that the flag table reads leave argparse out
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import peakmod.cli as cli; print('argparse' in sys.modules); "
            "code = cli.main(['count', 'joint', '--k', '2', '--n', '4', "
            "'--r', '1,1,1']); print(code, 'argparse' in sys.modules)")
    assert fresh(code).stdout == "False\n16\n0 False\n"


@pytest.mark.parametrize("argv,usage", [
    (["count", "joint", "--bogus"], "usage: peakmod [-h]"),
    (["count", "joint", "--k", "x"], "usage: peakmod count"),
])
def test_usage_error_loads_argparse(argv, usage):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import peakmod.cli as cli\n"
            "try:\n"
            f"    cli.main({argv!r})\n"
            "finally:\n"
            "    print('argparse' in sys.modules)")
    done = fresh(code, check=False)
    assert (done.returncode, done.stdout) == (2, "True\n")
    assert done.stderr.startswith(usage)

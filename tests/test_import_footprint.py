"""What a one-shot command pays to import the package, checked in fresh
interpreters: this process has long since imported ``dataclasses``, so the
lazy import of :class:`dataclasses.FrozenInstanceError` is never cold
here."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str) -> str:
    """The stdout of ``code`` in an isolated interpreter whose
    ``sys.argv[1]`` is the source directory."""
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return done.stdout


def test_cli_import_loads_no_dataclasses():
    # importing dataclasses also loads inspect, ast, dis and tokenize
    code = ("import sys; before = set(sys.modules); "
            "sys.path.insert(0, sys.argv[1]); import peakmod.cli; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    assert fresh(code) == "[]\n"


def test_assignment_loads_the_frozen_error():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from peakmod import FamilySpec\n"
            "try:\n"
            "    setattr(FamilySpec(1), 'k', 2)\n"
            "except Exception as exc:\n"
            "    import dataclasses\n"
            "    print(type(exc) is dataclasses.FrozenInstanceError, exc)")
    assert fresh(code) == "True cannot assign to field 'k'\n"

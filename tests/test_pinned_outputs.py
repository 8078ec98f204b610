"""Every pinned benchmark operation still prints its pinned stdout.

The benchmark checks each operation whose output depends only on its
arguments against a SHA-256 pinned in ``perfbench/digests.json`` (written
by ``perfbench/pin.py``).  Without this test a change of stdout shows only
as a lower ``ok_ratio`` when the benchmark runs.  The operations are built
and run as ``pin.py`` builds and runs them, at both round scales, through
``peakmod.cli.main``; the test reads the benchmark's files and writes
none.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))
    sys.dont_write_bytecode = writes_bytecode

import peakmod.cli as cli


def pinned_outputs():
    """{argv key: stdout digest} of every pinned operation, as pin.py
    computes them."""
    got = {}
    for build in workloads.WORKLOADS.values():
        for scale in ("main", "mini"):
            for op in build(random.Random(0), scale):
                if not op.pinned:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(op.argv)
                assert code == 0, f"{op.name}: exit {code}"
                got[workloads.argv_key(op.argv)] = workloads.digest(
                    out.getvalue())
    return got


def test_every_pinned_stdout_is_unchanged():
    got = pinned_outputs()
    assert got.keys() == workloads.DIGESTS.keys()
    changed = sorted(key for key, value in got.items()
                     if workloads.DIGESTS[key] != value)
    assert not changed, f"{len(changed)} stdouts changed: {changed[:5]}"

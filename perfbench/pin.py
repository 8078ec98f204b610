"""Pin stdout digests of the benchmark's deterministic operations.

    python3 perfbench/pin.py

Runs every operation whose output depends only on its arguments (all
histogram, enumerate, series and verify operations, at both round scales)
through ``peakmod.cli.main`` and writes the SHA-256 of each stdout to
``perfbench/digests.json``.  Run it only on a program whose outputs are
known to be right: the benchmark then fails any later output that differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import peakmod.cli as cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    pinned = {}
    for name, build in workloads.WORKLOADS.items():
        for scale in ("main", "mini"):
            for op in build(random.Random(0), scale):
                if not op.pinned:
                    continue
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(op.argv)
                if code != 0:
                    print(f"{op.name}: exit {code}", file=sys.stderr)
                    return 1
                pinned[workloads.argv_key(op.argv)] = workloads.digest(
                    out.getvalue())
    workloads.DIGEST_FILE.write_text(json.dumps(pinned, indent=1,
                                                sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark's generator and checks.

    python3 perfbench/selftest.py

Exits 0 when all pass.  Checks that every generated path and tree is
valid for peakmod, that the cycle-lemma generator reaches every path of a
small family, that every pinned operation has a digest, that
``BENCHMARK.json`` lists exactly the metrics the runner reports, and that
an operation whose output is corrupted is counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import peakmod.cli as real_cli  # noqa: E402
from peakmod.core import FamilySpec, parse_path, tree_from_json_text  # noqa
from peakmod.counting import fuss_catalan  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        FAILURES.append(what)


def test_generated_inputs_validate():
    rng = random.Random(1)
    for k in (1, 2, 3):
        spec = FamilySpec(k)
        for n in (1, 2, 7, 64, 300):
            for path in (gen.uniform_path(rng, k, n), gen.chain_path(k, n),
                         gen.near_chain_path(rng, k, max(n, 8))):
                value = parse_path(path, spec)  # raises when invalid
                expect(checks.is_k_dyck(path, k)
                       and value.down_size == path.count("d"),
                       f"path k={k} n={n} rejected by the reference check")
            for word in (gen.path_word(gen.uniform_path(rng, k, n)),
                         gen.chain_word(rng, k, n),
                         gen.chain_word(rng, k, n, gen.path_word(
                             gen.uniform_path(rng, k, 5)))):
                tree = tree_from_json_text(gen.word_to_json(word, k), k + 1)
                expect(tree.node_count() == word.count("I"),
                       f"tree word k={k} n={n} lost nodes")


def test_uniform_paths_cover_family():
    rng = random.Random(2)
    for k, n in ((2, 3), (1, 5)):
        want = fuss_catalan(k, n)
        paths = Counter(gen.uniform_path(rng, k, n) for _ in range(200 * want))
        trees = Counter(gen.word_to_json(gen.path_word(p), k)
                        for p in paths.elements())
        expect(len(paths) == want, f"only {len(paths)} of {want} paths "
               f"k={k} n={n} drawn")
        expect(len(trees) == want, f"only {len(trees)} of {want} trees drawn")
        expect(min(paths.values()) > 100, f"k={k} n={n} far from uniform")


def test_digests_and_metric_names():
    for build in workloads.WORKLOADS.values():
        for scale in ("main", "mini"):
            for op in build(random.Random(3), scale):
                if op.pinned:
                    expect(workloads.argv_key(op.argv) in workloads.DIGESTS,
                           f"no pinned digest for {op.name}")
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([m["name"] for m in bench["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer differs from run.PER_LAYER")
    expect(all(m["unit"] == run.unit_of(m["name"])
               for m in bench["per_layer"]), "per_layer units differ")
    expect([w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS), "BENCHMARK.json workloads differ")


def corrupt(text: str) -> str:
    """Change one character of the output to another of its kind."""
    swap = {"u": "d", "d": "u", **{str(i): str((i + 1) % 10)
                                   for i in range(10)}}
    middle = len(text) // 2
    for i in sorted(range(len(text)), key=lambda i: abs(i - middle)):
        if text[i] in swap:
            return text[:i] + swap[text[i]] + text[i + 1:]
    return text + "x"


class CorruptingCli:
    """Stands in for peakmod.cli: runs the real command, then damages its
    stdout (or its exit status) before the benchmark sees it."""

    def __init__(self, mode: str):
        self.mode = mode

    def main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real_cli.main(argv)
        text = out.getvalue()
        if self.mode == "corrupt":
            text = corrupt(text)
        elif self.mode == "truncate":
            text = text[: len(text) // 2]
        elif self.mode == "exit":
            code = 3
        sys.stdout.write(text)
        return code


def test_corrupted_output_is_failed():
    rng = random.Random(4)
    ops = [op for build in workloads.WORKLOADS.values()
           for op in build(rng, "mini") if op.argv is not None]
    for op in ops:
        _, outcome, units = run.execute(op, real_cli)
        expect(outcome == "ok" and units > 0, f"{op.name}: {outcome}")
        for mode in ("corrupt", "truncate", "exit"):
            _, outcome, _ = run.execute(op, CorruptingCli(mode))
            expect(outcome != "ok", f"{mode} output of {op.name} passed")
    lagrange = next(op for op in workloads.series_round(rng, "mini")
                    if op.argv is None)
    expect(run.checked(lagrange, corrupt(lagrange.call()))[1] == "wrong",
           "corrupted lagrange output passed")


def main() -> int:
    tests = [test_generated_inputs_validate, test_uniform_paths_cover_family,
             test_digests_and_metric_names, test_corrupted_output_is_failed]
    for test in tests:
        before = len(FAILURES)
        test()
        status = "ok  " if len(FAILURES) == before else "FAIL"
        print(f"{status} {test.__name__}")
    for failure in FAILURES:
        print(f"  {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

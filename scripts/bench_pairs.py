"""Alternating parent/change pairs of the peakmod benchmark.

    python3 scripts/bench_pairs.py --parent REV --pr N [--pairs 10]

Run from the root of a checkout with no uncommitted change to ``src/``,
``perfbench/`` or ``BENCHMARK.json``, whose ``perfbench/`` and
``BENCHMARK.json`` are those of REV; the script refuses otherwise, so
the measured change is a committed tree and both sides are measured by
one harness.  Each side runs from ``git archive`` of its commit's
``src/`` and ``perfbench/``: REV's and HEAD's are extracted by one
function side by side into one temporary directory, removed afterwards,
so neither side runs from the checkout.  For every
workload of ``BENCHMARK.json`` pair i runs ``perfbench/run.py --workload W
--seed S+i --seconds T --trace 0`` on both sides, the parent first when i
is even and the change first when i is odd, with S = 100 N + 1 and T the
benchmark's run length.  The result, ``BENCH_<N>.json`` at the root,
holds every run's figures and, per end-to-end metric, the median and
quartiles of each side, the change's win count and whether its median
is worse than the metric's bound.  Exit status is 0 when every run
completed, 1 when a run failed, and 2 on bad usage, an uncommitted
change or a benchmark that differs from REV's.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ("perfbench", "BENCHMARK.json")
MEASURED = ("src", *HARNESS)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """The src/ and perfbench/ trees of ``rev``, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src",
                              "perfbench"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``root``; its closing JSON object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def summary(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles and pair wins of one metric over both sides."""
    sign = 1 if metric["better"] == "higher" else -1

    def side(values):
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": statistics.median(values), "q1": q1, "q3": q3}

    p, c = side(parent), side(change)
    gain = sign * (c["median"] - p["median"])
    rel = ((c["median"] - p["median"]) / p["median"] if p["median"]
           else 0.0)
    return {
        "unit": metric["unit"], "better": metric["better"],
        "bound": metric["bound"], "parent": p, "change": c,
        "change_wins": sum(sign * (b - a) > 0
                           for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "median_change_rel": rel,
        "median_gap_exceeds_parent_iqr": gain > p["q3"] - p["q1"],
        "worse_than_bound": -sign * rel > metric["bound"],
        "parent_runs": parent, "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the commit to compare against")
    parser.add_argument("--pr", type=int, required=True,
                        help="names the output BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        print("bench_pairs: need --pairs >= 2", file=sys.stderr)
        return 2
    if git("status", "--porcelain", "--", *MEASURED):
        print("bench_pairs: src/, perfbench/ or BENCHMARK.json has "
              "uncommitted changes; commit them so that the measured trees "
              "are committed ones", file=sys.stderr)
        return 2
    try:
        parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"bench_pairs: unknown commit {args.parent!r}",
              file=sys.stderr)
        return 2
    if subprocess.run(["git", "diff", "--quiet", parent, "HEAD", "--",
                       *HARNESS], cwd=ROOT).returncode:
        print("bench_pairs: perfbench/ or BENCHMARK.json differs between "
              f"{args.parent} and HEAD; both sides must be measured by one "
              "harness", file=sys.stderr)
        return 2
    head = git("rev-parse", "HEAD")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [100 * args.pr + 1 + i for i in range(args.pairs)]
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = {
        "benchmark": f"python3 perfbench/run.py --workload W --seed S "
                     f"--seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "seeds": seeds,
        "pairs": args.pairs,
        "order": "pair i (0-based) runs the parent first when i is even, "
                 "the change first when i is odd; within a pair both "
                 "sides use the same seed",
        "parent": {"commit": parent,
                   "note": "the parent commit's src/ and perfbench/, "
                           "from git archive",
                   "src_tree": git("rev-parse", f"{parent}:src")},
        "change": {"commit": head,
                   "note": "the change commit's src/ and perfbench/, "
                           "from git archive",
                   "src_tree": git("rev-parse", "HEAD:src")},
        "harness": {"note": "one perfbench/ and BENCHMARK.json for both "
                            "sides: the parent's equal the change's",
                    "perfbench_tree": git("rev-parse", "HEAD:perfbench"),
                    "benchmark_blob": git("rev-parse",
                                          "HEAD:BENCHMARK.json")},
        "machine": f"{os.cpu_count()}-core {platform.machine()} "
                   f"{platform.system()}, {platform.python_implementation()}"
                   f" {platform.python_version()}; run.py scales each "
                   f"timing by its reference kernel",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over "
                     "the runs of each side",
        "win_rule": "the change wins a pair when its value is better in "
                    "the metric's direction; ties count for neither",
        "gap_rule": "median_gap_exceeds_parent_iqr: the change's median is "
                    "better than the parent's by more than the parent's "
                    "interquartile range; worse_than_bound: the change's "
                    "median is worse than the parent's by more than the "
                    "bound, relative to the parent's",
        "workloads": {},
    }
    metrics = bench["end_to_end"]
    # a stop by SIGTERM unwinds as Ctrl-C does: subprocess.run kills the
    # running benchmark and the temporary trees are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        extract(parent, sides["parent"])
        extract(head, sides["change"])
        for workload in workloads:
            runs, values = [], {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = (("parent", "change") if i % 2 == 0
                         else ("change", "parent"))
                got = {}
                for name in order:
                    try:
                        got[name] = run_once(sides[name], workload, seed,
                                             seconds)
                    except RuntimeError as exc:
                        print(f"bench_pairs: {exc}", file=sys.stderr)
                        return 1
                    values[name].append(got[name]["metrics"])
                runs.append({"pair": i, "seed": seed, "first": order[0],
                             **{key: {n: got[n][key] for n in sides}
                                for key in ("attempted", "failed")}})
                print(f"{workload} pair {i} (seed {seed}): " + ", ".join(
                    f"{n} {got[n]['metrics']['work_per_s']['value']:.6g}"
                    for n in sides) + " work_per_s", file=sys.stderr)
            doc["workloads"][workload] = {"runs": runs, "metrics": {
                m["name"]: summary(
                    m, *([r[m["name"]]["value"] for r in values[n]]
                         for n in ("parent", "change")))
                for m in metrics}}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

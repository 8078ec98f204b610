"""Benchmark runner for peakmod.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; peakmod is imported from ``src/``.  The
program gets only the generated inputs: every operation is one call of
``peakmod.cli.main(argv)`` in this process with stdout captured, exactly
what the ``peakmod`` command runs.  An untraced run repeats one seeded
round of operations (see ``workloads.py``) until ``--seconds`` have
passed; a round is never cut short, so every run measures the same mix.
The traced run replays one round.  Each operation's output is checked.  The last line of stdout is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics from a separate traced replay with
``--trace 1``.  Exit status is 0 when the run completed, 1 when a traced
run could not measure every per-layer metric, 2 on bad usage or when the
peakmod sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 10
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t = time.perf_counter(); import peakmod.cli; "
              "print(time.perf_counter() - t)")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(repeats: int, clock) -> list[float]:
    """Seconds a fresh interpreter spends importing peakmod.cli, once per
    repeat, after one untimed start that leaves the bytecode cache warm."""
    marks = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE,
                               str(SRC)], cwd=ROOT, capture_output=True,
                              text=True, check=True, timeout=60)
        if i:
            marks.append(clock.add(float(done.stdout)))
    return marks


# On a shared virtual machine (the 2-core one the bounds were set on, for
# one) co-tenants slow every instruction by up to 70% for seconds at a
# time, and a whole run can fall in a slow or a fast phase.  Each timing
# is therefore scaled by the speed of a fixed pure-Python kernel timed
# between operations, so a figure reads as the time the work takes at one
# reference speed.  REFERENCE_S is the kernel's time on that machine in its
# usual phase; the kernel mixes dict, list-copy and sort work, whose time
# tracks the program's through the phases to within about 2%.
REFERENCE_S = 0.0052
WINDOW = 4


def reference() -> float:
    """Seconds for the fixed reference kernel."""
    t0 = perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i, i & 7, i % 13)
        table[key] = table.get(key, 0) + len(str(i))
    items = list(range(4000))
    for i in range(40):
        items = items[1:] + items[:1]
    pairs = sorted((i * 7919 % 1000, str(i)) for i in range(3000))
    dict(pairs)
    return perf_counter() - t0


class Clock:
    """Times a sequence of measurements with a reference run after each;
    ``scaled(j)`` is measurement j at the reference speed, judged from the
    median of the reference runs nearest to it."""

    def __init__(self):
        self.raw: list[float] = []
        self.refs = [reference()]

    def add(self, seconds: float) -> int:
        self.raw.append(seconds)
        self.refs.append(reference())
        return len(self.raw) - 1

    def scaled(self, j: int) -> float:
        near = self.refs[max(0, j - WINDOW): j + WINDOW + 2]
        return self.raw[j] * REFERENCE_S / statistics.median(near)


def execute(op, cli):
    """Run one operation; returns (seconds, outcome, units).

    outcome is "ok", "error" (raised, or an exit status other than 0 and
    1) or "wrong" (exit status 1, which the CLI reserves for a failed
    verification, or output that fails its check).
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is None:
                out.write(op.call())
                code = 0
            else:
                code = cli.main(op.argv)
        outcome = "ok"
    except (Exception, SystemExit) as exc:
        code, outcome = None, f"error ({type(exc).__name__})"
    seconds = perf_counter() - t0
    units = 0
    if code == 1:
        outcome = "wrong"
    elif code not in (0, None):
        outcome = f"error (exit {code})"
    elif outcome == "ok":
        units, outcome = checked(op, out.getvalue())
    return seconds, outcome, units


def checked(op, text: str):
    try:
        units = op.check(text)
    except (ValueError, KeyError, TypeError, ArithmeticError):
        units = None
    return (0, "wrong") if units is None else (units, "ok")


def percentile(times, failed, q):
    """Decile q (0.5, 0.9) interpolated between order statistics, so that
    two operations of similar cost trading places move it little; failed
    operations count as the slowest completed time."""
    ranked = sorted(times) + [max(times, default=0.0)] * failed
    if len(ranked) < 2:
        return ranked[0]
    deciles = statistics.quantiles(ranked, n=10, method="inclusive")
    return deciles[round(q * 10) - 1]


def untraced(workloads, cli, name: str, seed: int, seconds: float):
    """Repeat one seeded round, reshuffled each time, until ``seconds``
    have passed.  An operation's time is the median of its repeats at the
    reference speed."""
    rng = random.Random(f"{name}:{seed}")
    ops = workloads.WORKLOADS[name](rng, "main")
    clock = Clock()
    setup = measure_setup(SETUP_REPEATS // 2, clock)
    runs: list[list] = [[] for _ in ops]
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            seconds_i, outcome, units = execute(ops[i], cli)
            runs[i].append((clock.add(seconds_i), outcome, units))
        rounds += 1
    wall = perf_counter() - start
    setup += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2, clock)
    op_time = [statistics.median(clock.scaled(j) for j, _, _ in rs)
               for rs in runs]
    good = [(t, rs[0][2]) for t, rs in zip(op_time, runs)
            if all(r[1] == "ok" for r in rs)]
    times = [t for t, _ in good]
    failed_ops = len(ops) - len(good)
    results = [(op, clock.raw[j], outcome, units)
               for op, rs in zip(ops, runs) for j, outcome, units in rs]
    metrics = {
        "setup_s": (statistics.median(clock.scaled(j) for j in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_ratio": (sum(r[2] == "ok" for r in results) / len(results),
                     "ratio"),
        "work_per_s": (sum(u for _, u in good) / sum(op_time), "1/s"),
        "op_p50_ms": (percentile(times, failed_ops, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(times, failed_ops, 0.9) * 1e3, "ms"),
    }
    n = len(ops)
    speed = REFERENCE_S / statistics.median(clock.refs)
    notes = [f"{rounds} rounds of {n} operations in {wall:.1f} s; the "
             f"machine ran at {speed:.2f} x the reference speed",
             f"op_p50_ms / op_p90_ms over the median times of {n} "
             f"operations, {n - math.ceil(0.9 * n)} beyond p90",
             f"work_per_s: units of work in one round over the "
             f"{sum(op_time):.2f} s its operations take",
             f"setup_s is the median of {len(setup)} fresh imports"]
    return results, metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

RATES = {  # metric -> (span, factor); value = factor * seconds / units
    "core.parse_us_per_step": ("core.parse", 1e6),
    "core.validate_us_per_step": ("core.validate", 1e6),
    "core.tree_json_us_per_node": ("core.tree_json", 1e6),
    **{f"statistics.stat_vector_us_per_path.{v}":
       (f"statistics.stat_vector.{v}", 1e6)
       for v in ("plain", "weak", "plain_starred", "weak_starred")},
    "statistics.label_features_us_per_step":
        ("statistics.label_features", 1e6),
    "statistics.e_vector_us_per_node": ("statistics.e_vector", 1e6),
    **{f"enumeration.gen_us_per_path.{g}": (f"enumeration.{g}", 1e6)
       for g in ("gen_k_dyck", "gen_kac", "gen_ballot", "gen_trees")},
    "enumeration.tally_us_per_path": ("enumeration.tally", 1e6),
    "transforms.cyclic_shift_us_per_step": ("transforms.cyclic_shift", 1e6),
    "transforms.last_step_decompose_us_per_step":
        ("transforms.last_step_decompose", 1e6),
    "transforms.deutsch_us_per_step": ("transforms.deutsch", 1e6),
    "transforms.permute_subtrees_us_per_node":
        ("transforms.permute_subtrees", 1e6),
    "transforms.ballot_decompose_us_per_step":
        ("transforms.ballot_decompose", 1e6),
    "bijections.path_to_tree_us_per_step": ("bijections.path_to_tree", 1e6),
    "bijections.labeled_tree_us_per_step": ("bijections.labeled_tree", 1e6),
    "bijections.tree_to_path_us_per_node": ("bijections.tree_to_path", 1e6),
    "bijections.permute_statistics_us_per_step":
        ("bijections.permute_statistics", 1e6),
    **{f"counting.solve_{s}_s": (f"counting.solve_{s}", 1)
       for s in ("f", "f_kac", "g", "g_kac")},
    "counting.closed_form_us_per_call": ("counting.closed_form", 1e6),
    "counting.lagrange_ms_per_call": ("counting.lagrange", 1e3),
    **{f"verify.{s}_s": (f"verify.{s}", 1)
       for s in ("figures", "equidistribution", "bijection", "closed-forms",
                 "series", "ballot", "involution")},
    "cli.parse_args_ms": ("cli.parse_args", 1e3),
}
COUNTS = {"enumeration.paths": ("histogram", "enumerate"),
          "counting.series_terms": ("series",),
          "verify.checks": ("verify",)}
EXPONENTS = [f"bijections.{fn}.exponent.{shape}"
             for fn in ("path_to_tree", "labeled_tree", "tree_to_path",
                        "permute_statistics")
             for shape in ("random", "chain")] + ["counting.solve_f.exponent"]
PER_LAYER = [*RATES, *COUNTS, *EXPONENTS, "cli.overhead_ms_per_op",
             "trace.overhead_ms_per_op"]


def replay_round(ops, cli, tracer, results, overhead):
    """Run each operation untraced, then replay it as traced public calls.

    ``overhead`` collects (CLI seconds outside library calls, traced
    minus untraced seconds) per operation that completed both ways.  All
    figures are at the reference speed, judged around each operation.
    """
    clock = Clock()
    pending = []
    for op in ops:
        seconds, outcome, units = execute(op, cli)
        mark = tracer.op = clock.add(seconds)
        try:
            text = tracer.span("op", op.replay, tracer)
            if outcome == "ok" and checked(op, text)[1] != "ok":
                outcome = "wrong (replay)"
        except (Exception, SystemExit) as exc:
            if outcome == "ok":
                outcome = f"error in replay ({type(exc).__name__})"
        results.append((op, seconds, outcome, units))
        if outcome != "ok":
            continue
        op_span = next(i for i in range(len(tracer.spans) - 1, -1, -1)
                       if tracer.spans[i]["name"] == "op")
        kids = [s for s in tracer.spans[op_span + 1:]
                if s["parent"] == op_span]
        probe = sum(s["end"] - s["start"] for s in kids if s["probe"])
        lib = sum(s["end"] - s["start"] for s in kids
                  if not s["probe"] and not s["name"].startswith("cli."))
        span = tracer.spans[op_span]
        traced = span["end"] - span["start"] - probe
        pending.append((mark, (seconds - lib) if op.argv else None,
                        traced - seconds))
    tracer.scale = [clock.scaled(j) / clock.raw[j]
                    for j in range(len(clock.raw))]
    for mark, cli_s, trace_s in pending:
        factor = tracer.scale[mark]
        overhead.append((None if cli_s is None else cli_s * factor,
                         trace_s * factor))


def layer_metrics(tracer, results) -> dict:
    out = {}
    for metric, (span, factor) in RATES.items():
        secs, units = tracer.totals(span)
        if units:
            out[metric] = factor * secs / units
    for metric, kinds in COUNTS.items():
        total = sum(r[3] for r in results if r[0].kind in kinds)
        if total:
            out[metric] = total
    return out


def traced(workloads, cli, name: str, seed: int):
    """One replayed round of this workload, then a mini round of every
    other workload, so that every layer metric is reported; metrics the
    workload's own round produces take precedence."""
    rng = random.Random(f"{name}:{seed}:trace")
    metrics: dict = {}
    results_all, overhead, notes = [], [], []
    main_tracer = None
    for other in [o for o in workloads.WORKLOADS if o != name] + [name]:
        scale = "main" if other == name else "mini"
        tracer, results = Tracer(), []
        replay_round(workloads.WORKLOADS[other](rng, scale), cli, tracer,
                     results, overhead if other == name else [])
        metrics.update(layer_metrics(tracer, results))
        if other in workloads.SWEEPS:
            found, sweep_notes = workloads.SWEEPS[other](rng, scale)
            metrics.update(found)
            notes += [f"{line} [{scale}]" for line in sweep_notes]
        results_all += results
        main_tracer = tracer
    # medians: each figure is a difference of two timings of one operation
    cli_over = [o for o, _ in overhead if o is not None]
    if cli_over:
        metrics["cli.overhead_ms_per_op"] = 1e3 * statistics.median(cli_over)
    if overhead:
        metrics["trace.overhead_ms_per_op"] = 1e3 * statistics.median(
            t for _, t in overhead)
    self_times = main_tracer.self_times()
    notes.append("self time by span in the replayed round (ms): " + ", ".join(
        f"{k} {v * 1e3:.1f}" for k, v in
        sorted(self_times.items(), key=lambda kv: -kv[1])))
    return results_all, metrics, notes, main_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "peakmod" / "cli.py").is_file():
        return fail(f"peakmod sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import peakmod.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        return fail(f"imported peakmod from {cli.__file__}, not {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.trace:
        results, found, notes, tracer = traced(workloads, cli,
                                               args.workload, args.seed)
        missing = [m for m in PER_LAYER if m not in found]
        if missing:
            print(f"perfbench: no measurement for {', '.join(missing)}",
                  file=sys.stderr)
            return 1
        metrics = {m: found[m] for m in PER_LAYER}
        units = {}
        out_dir = Path(__file__).with_name("out")
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracer.spans))
    else:
        results, found, notes = untraced(workloads, cli, args.workload,
                                         args.seed, args.seconds)
        metrics = {k: v for k, (v, _) in found.items()}
        units = {k: u for k, (_, u) in found.items()}
    failed = [r for r in results if r[2] != "ok"]
    for note in notes:
        print(note)
    for op, seconds, outcome, _ in failed:
        print(f"FAILED {outcome}: {op.name[:120]} after {seconds:.2f} s")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units.get(key, unit_of(key))}")
    print(json.dumps({
        "correct": not any(r[2].startswith("wrong") for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))}
                    for k, v in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    for suffix, unit in (("_us_per_step", "us/step"),
                         ("_us_per_node", "us/node"),
                         ("_us_per_call", "us/call"),
                         ("_ms_per_call", "ms/call"),
                         ("_ms_per_op", "ms/op"), ("_ms", "ms"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    if "_us_per_path" in metric:
        return "us/path"
    if ".exponent" in metric:
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

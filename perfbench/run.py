#!/usr/bin/env python3
"""Closed-loop benchmark of the ccdl CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload mc-rzf-c3 --seed 1 --seconds 20 --trace 0

One single-threaded client calls ``ccdl.expcli.main(argv)`` in-process,
capturing the CSV, and sends the next call only when the previous one has
returned.  ``--trace 0`` times the loop for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` times ``--seconds / 2`` of untraced calls,
replays the first cycles of them under the span tracer and reports the
per-layer metrics.  Every call's output is checked.  The metric names and
units of the result come from BENCHMARK.json at the checkout root; the last
line of standard output is the result as one JSON object.  Full results and
spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_MIN_SAMPLES = 3  # this process plus fresh ones
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 2.0  # add fresh-process samples while the samples sum to less
TAIL_BEYOND = 10  # samples beyond the tail percentile
PROBE_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import provenance  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, OutputChecker, Workload  # noqa: E402

# Units of the printed metrics that BENCHMARK.json does not declare.
UNDECLARED_UNITS = {"trials_per_s": "trials/s", "error_rate": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Call:
    argv: list[str]
    status: int
    out: str
    err: str
    wall: float

    def rows(self) -> list[list[str]]:
        return [line.split(",") for line in self.out.splitlines()[1:]]


@dataclass
class Tally:
    """Calls attempted and failed; a call fails on any exit, stderr or output problem."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, label: str, found: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(found)
        self.problems += [f"{label}: {p}" for p in found]


def invoke(expcli, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = expcli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code if isinstance(exc.code, int) else 1
    return Call(argv, status, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def first_call(workload: Workload, seed: int):
    """Import ccdl from the checkout and make call 0.

    Returns (expcli module, analytic module, call 0, set-up seconds), where
    set-up is the import plus call 0.
    """
    if not (SRC / "ccdl" / "__init__.py").is_file():
        raise BenchError(f"no ccdl package under {SRC}")
    os.environ["CCDL_THREADS"] = workload.threads
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    expcli = importlib.import_module("ccdl.expcli")
    call = invoke(expcli, workload.argv(seed, 0))
    setup_s = time.perf_counter() - start
    if Path(expcli.__file__).resolve().parent != (SRC / "ccdl").resolve():
        raise BenchError(f"imported ccdl from {expcli.__file__}, not from {SRC}")
    return expcli, importlib.import_module("ccdl.analytic"), call, setup_s


def setup_probe(workload: Workload, seed: int) -> tuple[float, str]:
    """Set-up seconds and CSV of call 0 in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(seed),
           "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed with status {done.returncode}: {done.stderr.strip()[-500:]}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["csv"]


def closed_loop(expcli, workload: Workload, seed: int, seconds: float) -> tuple[list[Call], float]:
    """Calls 1, 2, ... until ``seconds`` have passed, stopping between cycles."""
    calls = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        calls.append(invoke(expcli, workload.argv(seed, len(calls) + 1)))
        if len(calls) % workload.cycle == 0 and time.perf_counter() >= deadline:
            return calls, time.perf_counter() - start


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    Fewer than 4 * TAIL_BEYOND samples keep a quarter of them beyond the
    reported value instead.
    """
    ordered = sorted(walls)
    beyond = min(TAIL_BEYOND, len(ordered) // 4)
    return ordered[len(ordered) - 1 - beyond], 100.0 * (len(ordered) - beyond) / len(ordered)


def measure_untraced(args, workload, expcli, checker, first, setup_s, tally) -> tuple[dict, dict]:
    setup_samples = [setup_s]
    while len(setup_samples) < SETUP_MIN_SAMPLES or (
        len(setup_samples) < SETUP_MAX_SAMPLES and sum(setup_samples) < SETUP_BUDGET_S
    ):
        probe_s, probe_csv = setup_probe(workload, args.seed)
        setup_samples.append(probe_s)
        tally.add("fresh-process call 0", [] if probe_csv == first.out else ["CSV differs from this process's call 0"])

    calls, wall = closed_loop(expcli, workload, args.seed, args.seconds)
    for i, c in enumerate(calls, start=1):
        tally.add(f"call {i}", checker.check(c.argv, c.status, c.out, c.err))

    # A cycle's mean call time stands for each of its calls, so that a cycle
    # of presets 100-fold apart in cost has no median pinned between them.
    walls = [statistics.fmean(c.wall for c in calls[i : i + workload.cycle])
             for i in range(0, len(calls), workload.cycle)]
    ok = [c for c in calls if c.status == 0]
    tail_s, tail_pct = tail(walls)
    metrics = {
        "rows_per_s": sum(len(c.rows()) for c in ok) / wall,
        "call_ms_p50": 1e3 * statistics.median(walls),
        "call_ms_tail": 1e3 * tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": tally.failed / tally.attempted,
    }
    if workload.kind != "presets":
        column = checker.columns.index("trials")
        metrics["trials_per_s"] = sum(int(r[column]) for c in ok for r in c.rows()) / wall
    detail = {
        "timed_calls": len(calls),
        "timed_cycles": len(walls),
        "timed_wall_s": wall,
        "call_ms_tail_percentile": tail_pct,
        "setup_samples_s": setup_samples,
        "call_walls_s": [c.wall for c in calls],
    }
    return metrics, detail


def measure_traced(args, workload, expcli, checker, tally) -> tuple[dict, dict, tracing.Tracer]:
    calls, _ = closed_loop(expcli, workload, args.seed, args.seconds / 2.0)
    for i, c in enumerate(calls, start=1):
        tally.add(f"call {i}", checker.check(c.argv, c.status, c.out, c.err))

    replay = calls[: workload.trace_cycles * workload.cycle]
    tracer = tracing.Tracer()
    traced = []
    tracer.install()
    try:
        for i, c in enumerate(replay, start=1):
            tracer.call = i
            traced.append(invoke(expcli, c.argv))
    finally:
        tracer.uninstall()
    for i, (plain, t) in enumerate(zip(replay, traced), start=1):
        found = checker.check(t.argv, t.status, t.out, t.err)
        if (t.status, t.out) != (plain.status, plain.out):
            found.append("output differs from the untraced call")
        tally.add(f"traced call {i}", found)

    rows = sum(len(t.rows()) for t in traced if t.status == 0)
    metrics = tracing.layer_metrics(tracer.spans, len(traced), rows)
    plain_wall = sum(c.wall for c in replay)
    traced_wall = sum(t.wall for t in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    detail = {"traced_calls": len(traced), "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return metrics, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    try:
        if args.setup_probe:
            _, _, call, setup_s = first_call(workload, args.seed)
            print(json.dumps({"setup_s": setup_s, "csv": call.out}))
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        expcli, analytic, first, setup_s = first_call(workload, args.seed)
        checker = OutputChecker(workload, expcli, analytic)
        tally = Tally()
        tally.add("call 0", checker.check(first.argv, first.status, first.out, first.err))
        info = provenance.collect(ROOT, workload.name, args.seed)
        if args.trace:
            metrics, detail, tracer = measure_traced(args, workload, expcli, checker, tally)
        else:
            metrics, detail = measure_untraced(args, workload, expcli, checker, first, setup_s, tally)
    except (BenchError, OSError, subprocess.SubprocessError, ImportError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.tsv.gz")
    result = {"provenance": info, "metrics": metrics, "detail": detail, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))

    units = {**{m["name"]: m["unit"] for m in declared}, **UNDECLARED_UNITS}
    print(f"# ccdl benchmark: workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# provenance " + json.dumps(info))
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"# {detail['timed_calls']} timed calls in {detail['timed_cycles']} cycles; call_ms_tail is"
              f" p{detail['call_ms_tail_percentile']:.1f} of the cycles;"
              f" setup_s is the median of {len(detail['setup_samples_s'])} fresh processes")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

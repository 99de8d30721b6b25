#!/usr/bin/env python3
"""Paired parent-versus-change runs of the perfbench workloads, summarized as one BENCH JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 --seconds 20 --seed 6000 \
        --out BENCH_7.json --tier1 --criterion3 5 --thread-gate --layers

DIR is the root of a checkout (for instance a ``git archive`` of each
commit).  Pair i runs every workload once per tree with the fresh seed
``--seed + i``; the tree that goes first alternates between pairs.  For
each end-to-end metric of BENCHMARK.json the summary gives each tree's
median and quartiles and the number of pairs the change won, and each
tree's median and quartiles of the CPU seconds a run takes (its process
and its setup probes, user plus system) and of those seconds per row
(over ``rows_per_s * --seconds``): a spin-waiting thread shows as CPU that
brings no rows.  It also counts ``wishart_gram`` calls per CLI call of
each workload, optionally times each tree's Tier-1 suite and, over
alternating pairs, acceptance
criterion 3 alone, optionally records the change tree's
``tools/thread_gate.py`` table, optionally makes one ``--trace 1`` run per
tree of each ``--traced`` workload (its per-layer metrics, and the count and
summed milliseconds of each span name per traced call), and records
provenance from ``perfbench/provenance.collect``.  ``--layers`` adds layer rows
over three alternating rounds: each tree's microseconds per Gram stack for the
RZF kernel (ZF's 0 included), ``np.linalg.inv`` and (where the tree has it) the
Cholesky inverse (both on the positive alphas alone, so that neither pays ZF's
rank rule) at (5, 64, 128) and (5, 16, 256), and each workload's minor page
faults, CPU and system seconds per CLI call, in-process after an untimed first
call.
Runs are sequential: one process at a time.
"""

from __future__ import annotations

import argparse
import collections
import csv
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Counts wishart_gram calls over one CLI call, in every ccdl module that binds the name.
_COUNT_DRAWS = """
import contextlib, io, json, sys, warnings
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import ccdl, ccdl.channel, ccdl.expcli, ccdl.montecarlo, ccdl.precoding
from workloads import WORKLOADS
calls = [0]
draw = ccdl.channel.wishart_gram
def counted(*args):
    calls[0] += 1
    return draw(*args)
for module in (ccdl.channel, ccdl.montecarlo, ccdl.precoding):
    module.wishart_gram = counted
argv = WORKLOADS[sys.argv[2]].argv(int(sys.argv[3]), 1)
with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
    warnings.simplefilter("ignore")
    status = ccdl.expcli.main(argv)
print(json.dumps({"argv": argv, "status": status, "wishart_gram_calls": calls[0]}))
"""


# Minor page faults, CPU and system seconds per CLI call of one workload, in-process, after an untimed first call.
_PER_CALL = """
import contextlib, io, json, resource, sys, warnings
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import ccdl.expcli
from workloads import WORKLOADS
workload, seed, calls = WORKLOADS[sys.argv[2]], int(sys.argv[3]), int(sys.argv[4])
def usage():
    u = resource.getrusage(resource.RUSAGE_SELF)
    return u.ru_minflt, u.ru_utime + u.ru_stime, u.ru_stime
with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
    warnings.simplefilter("ignore")
    ccdl.expcli.main(workload.argv(seed, 0))
    before = usage()
    for i in range(1, calls + 1):
        ccdl.expcli.main(workload.argv(seed, i))
    after = usage()
faults, cpu_s, system_s = ((b - a) / calls for a, b in zip(before, after))
print(json.dumps({"minor_faults": faults, "cpu_s": cpu_s, "system_s": system_s}))
"""

# Best-of-9 microseconds per stack on one BLAS thread: gram_powers' RZF kernel over an alpha stack that holds ZF's 0,
# and, on that stack's positive alphas alone, np.linalg.inv of W + alpha I and, where the tree has it, the Cholesky
# inverse forced on.  Leaving ZF's 0 out of both inverse rows keeps them like for like: the Cholesky row would pay ZF's
# rank-rule product W R, which a bare inv does not.
_STACKS = """
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
import numpy as np
from ccdl import _parallel, precoding
from ccdl.channel import RngSeed, wishart_gram
from ccdl.precoding import PrecoderKind
def best_us(fn, number=50):
    times = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return 1e6 * min(times)
rows = {}
with _parallel.one_blas_thread():
    for G, Q, L, snrs in ((5, 64, 128, [10.0]), (5, 16, 256, [None, 0.0, 5.0, 10.0, 15.0, 20.0])):
        alphas = [0.0 if snr is None else L / 10 ** (snr / 10) for snr in snrs]  # None: ZF's row
        rzf = np.array([a for a in alphas if a > 0])
        W = wishart_gram(RngSeed(1).generator(), G, Q, L)
        shift = np.reshape(rzf, (-1, 1, 1, 1)) * np.eye(Q)
        row = {"kernel_us": best_us(lambda: precoding.gram_powers(W, PrecoderKind.rzf(), alphas)),
               "inv_us": best_us(lambda: np.linalg.inv(W + shift))}
        if hasattr(precoding, "_CHOLESKY_MIN_Q"):
            shipped, precoding._CHOLESKY_MIN_Q = precoding._CHOLESKY_MIN_Q, 0
            row["cholesky_us"] = best_us(lambda: precoding._regularized_inverse(W, rzf))
            precoding._CHOLESKY_MIN_Q = shipped
        rows[f"G={G} Q={Q} L={L} alphas={len(alphas)}"] = row
print(json.dumps(rows))
"""


def _probe(script: str, *args) -> dict:
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def layers(trees: dict, workloads: list[str], seed: int, rounds: int = 3, calls: int = 20) -> dict:
    """Each tree's per-stack kernel and inverse microseconds and, per workload, its per-call minor faults, CPU and
    system seconds, over ``rounds`` alternating rounds (each value's median and all rounds)."""
    runs = {"stacks": {side: [] for side in trees}, "per_call": {w: {side: [] for side in trees} for w in workloads}}
    for i in range(rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs["stacks"][side].append(_probe(_STACKS, trees[side]))
            for w in workloads:
                runs["per_call"][w][side].append(_probe(_PER_CALL, trees[side], w, seed, calls))

    def medians(samples: list[dict]) -> dict:
        return {key: (medians([s[key] for s in samples]) if isinstance(samples[0][key], dict)
                      else statistics.median(s[key] for s in samples)) for key in samples[0]}

    return {"rounds": rounds, "calls_per_round": calls,
            "stacks": {side: medians(r) for side, r in runs["stacks"].items()},
            "per_call": {w: {side: medians(r) for side, r in sides.items()} for w, sides in runs["per_call"].items()},
            "runs": runs}


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run's end-to-end metrics and the CPU seconds of its process and setup probes, also per row."""
    before = _children_cpu_s()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True, check=True)
    cpu_s = _children_cpu_s() - before
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"], **metrics,
            "child_cpu_s": cpu_s, "child_cpu_s_per_row": cpu_s / (metrics["rows_per_s"] * seconds)}


def traced_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One traced run's per-layer metrics, and each span name's count and summed milliseconds per traced call."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"], cwd=tree, capture_output=True, text=True,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    stem = tree / ".perfbench-out" / f"{workload}-seed{seed}-trace1"
    calls = json.loads(stem.with_suffix(".json").read_text())["detail"]["traced_calls"]
    spans = collections.defaultdict(lambda: [0, 0.0])
    with gzip.open(f"{stem}-spans.tsv.gz", "rt") as fh:
        for span in csv.DictReader(fh, delimiter="\t", quoting=csv.QUOTE_NONE):
            spans[span["name"]][0] += 1
            spans[span["name"]][1] += float(span["end"]) - float(span["start"])
    return {"seed": seed, "failed": result["failed"], "traced_calls": calls,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "spans_per_call": {name: {"count": n / calls, "ms": 1e3 * total / calls}
                               for name, (n, total) in sorted(spans.items())}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    summary = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
        summary[name] = {"unit": m["unit"], "better": m["better"], "parent": quartiles(parent),
                         "change": quartiles(change), "change_wins": wins, "pairs": len(parent),
                         "median_ratio": statistics.median(change) / statistics.median(parent)}
    for name in ("child_cpu_s", "child_cpu_s_per_row"):
        summary[name] = {side: quartiles([r[name] for r in side_runs]) for side, side_runs in runs.items()}
    summary["failed"] = {"parent": sum(r["failed"] for r in runs["parent"]),
                         "change": sum(r["failed"] for r in runs["change"])}
    return summary


CRITERION_3 = "tests/test_acceptance.py::test_criterion_3_monte_carlo_vs_closed_form"


def tier1(tree: Path, *tests: str) -> dict:
    """Wall time and summary line of the tree's Tier-1 suite, or of the named tests alone."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs with seed + i")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--tier1", action="store_true", help="also time each tree's Tier-1 suite")
    parser.add_argument("--criterion3", type=int, nargs="?", const=3, default=0, metavar="PAIRS",
                        help="also time acceptance criterion 3 alone over PAIRS alternating pairs (default 3)")
    parser.add_argument("--thread-gate", action="store_true", help="also record the change tree's thread-gate table")
    parser.add_argument("--layers", action="store_true",
                        help="also record per-stack kernel and inverse times and per-call faults and CPU per tree")
    parser.add_argument("--traced", nargs="*", default=[], metavar="WORKLOAD",
                        help="also make one traced run per tree of each named workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs[w][side].append(run_once(trees[side], w, args.seed + i, args.seconds))
                print(f"pair {i} {w} {side}: {runs[w][side][-1]}", file=sys.stderr, flush=True)

    draws = {w: {side: json.loads(subprocess.run([sys.executable, "-c", _COUNT_DRAWS, str(tree), w, str(args.seed)],
                                                 capture_output=True, text=True, check=True).stdout)
                 for side, tree in trees.items()} for w in workloads}
    sys.path.insert(0, str(trees["change"] / "perfbench"))
    import provenance

    result = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed}+i --seconds {args.seconds:g}",
        "pairs": args.pairs,
        "order": "pair i runs the parent first when i is even, the change first when i is odd",
        "provenance": {side: provenance.collect(tree, "all", args.seed) for side, tree in trees.items()},
        "summary": {w: summarize(runs[w], spec["end_to_end"]) for w in workloads},
        "wishart_gram_calls_per_call": draws,
        "runs": runs,
    }
    if args.traced:
        result["traced"] = {w: {side: traced_once(tree, w, args.seed, args.seconds) for side, tree in trees.items()}
                            for w in args.traced}
    if args.layers:
        result["layers"] = layers(trees, workloads, args.seed)
    if args.tier1:
        result["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    if args.criterion3:
        timed = {"parent": [], "change": []}
        for i in range(args.criterion3):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                timed[side].append(tier1(trees[side], CRITERION_3))
        result["criterion3"] = {side: {"median_wall_s": statistics.median(r["wall_s"] for r in side_runs),
                                       "runs": side_runs} for side, side_runs in timed.items()}
    if args.thread_gate:
        done = subprocess.run([sys.executable, "tools/thread_gate.py"], cwd=trees["change"], capture_output=True,
                              text=True, check=True)
        result["thread_gate"] = json.loads(done.stdout.strip().splitlines()[-1])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired parent-versus-change runs of the perfbench workloads, summarized as one BENCH JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 --seconds 20 --seed 6000 \
        --out BENCH_7.json --tier1 --criterion3 5 --thread-gate

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
provenance from ``perfbench/provenance.collect``.  Runs are sequential: one
process at a time.
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

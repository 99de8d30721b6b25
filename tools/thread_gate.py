#!/usr/bin/env python3
"""Seeded Monte Carlo timed on each side of a gate: the tables that set ``channel._THREAD_MIN_WORK`` and ``precoding._CHOLESKY_MIN_Q``.

    python3 tools/thread_gate.py --repeats 5 --out gate.json

Run from the root of a checkout.  For each case, one ``estimate_sum_rates``
call on a G = 5 ensemble runs on both sides of one gate, alternating which
goes first, with the other gate as shipped.  The thread table runs with the
work gate shut (serial) and forced open (trials on threads, one per CPU).
Both sides run with numpy's OpenBLAS pinned to one thread, because
``channel.seeded_map`` pins every pass, so the table compares trial threads
against the calling thread alone.  Each of its cases reports the work
measure its ``seeded_map`` pass gets (matrices inverted per draw times Q^3)
and whether the gate threads it.  The Cholesky table inverts every stack
with ``np.linalg.inv`` on one side and by Cholesky on the other, per Q, and
reports whether the shipped ``_CHOLESKY_MIN_Q`` picks Cholesky.  Each case
gives each side's median, min and max milliseconds per trial, and the ratio
of the medians, first side over second; above 1, the second side wins.  The
last line of standard output is both tables as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccdl import channel, montecarlo, precoding  # noqa: E402
from ccdl.montecarlo import McConfig, estimate_sum_rates  # noqa: E402
from ccdl.precoding import PrecoderKind  # noqa: E402
from ccdl.scheme import scheme_for_gain  # noqa: E402

HARDENING_SNRS = (0.0, 5.0, 10.0, 15.0, 20.0)
# (Q, L, precoders, SNRs in dB, trials): c = 1/2 RZF at each Q, mc-hardening's shape at 1, 2, 3 and 5 SNRs,
# and mc-rzf-c3's shape with every precoder
CASES = (
    (16, 32, ("RZF",), (10.0,), 800),
    (16, 256, ("MF", "ZF", "RZF"), (10.0,), 800),
    (16, 256, ("MF", "ZF", "RZF"), (0.0, 10.0), 800),
    (16, 256, ("MF", "ZF", "RZF"), (0.0, 10.0, 20.0), 800),
    (16, 256, ("MF", "ZF", "RZF"), HARDENING_SNRS, 800),
    (32, 64, ("RZF",), (10.0,), 400),
    (48, 96, ("RZF",), (10.0,), 300),
    (64, 128, ("RZF",), (10.0,), 200),
    (64, 128, ("MF", "ZF", "RZF"), (10.0,), 200),
)
# c = 1/2 RZF at each Q around the Cholesky threshold, and mc-hardening's and mc-rzf-c3's shapes
CHOLESKY_CASES = (
    (8, 16, ("RZF",), (10.0,), 1600),
    (16, 32, ("RZF",), (10.0,), 800),
    (16, 256, ("MF", "ZF", "RZF"), HARDENING_SNRS, 800),
    (24, 48, ("RZF",), (10.0,), 600),
    (32, 64, ("RZF",), (10.0,), 400),
    (48, 96, ("RZF",), (10.0,), 300),
    (64, 128, ("RZF",), (10.0,), 200),
)
# gate name: (module, constant, its value on each side)
GATES = {
    "threads": (channel, "_THREAD_MIN_WORK", {"serial": math.inf, "threaded": 0}),
    "cholesky": (precoding, "_CHOLESKY_MIN_Q", {"inv": math.inf, "cholesky": 0}),
}


def work_of(configs) -> float:
    """The work measure ``estimate_sum_rates`` hands ``seeded_map`` for these configs (one pass)."""
    seen, seeded_map = [], montecarlo.seeded_map

    def record(draw, kernels, trials, seed, work=0):
        seen.append(work)
        return seeded_map(draw, kernels, trials, seed, work)

    montecarlo.seeded_map = record
    try:
        estimate_sum_rates(configs)
    finally:
        montecarlo.seeded_map = seeded_map
    (work,) = seen
    return work


def ms_per_trial(configs, trials: int) -> float:
    start = time.perf_counter()
    estimate_sum_rates(configs)
    return 1e3 * (time.perf_counter() - start) / trials


def gate_table(gate: str, cases, repeats: int) -> dict:
    """One row per case: each side's milliseconds per trial and the first side's median over the second's."""
    module, constant, values = GATES[gate]
    shipped, (first, second), table = getattr(module, constant), values, {}
    for Q, L, precoders, snrs, trials in cases:
        configs = [McConfig(trials=trials, seed=channel.RngSeed(5), precoder=PrecoderKind(p),
                            scheme=scheme_for_gain(L=L, snr_db=snr, G=5, Q=Q, precoder=p))
                   for snr in snrs for p in precoders]
        runs = {first: [], second: []}
        try:
            for i in range(repeats + 1):  # the first round is an untimed warm-up
                for side in (first, second) if i % 2 == 0 else (second, first):
                    setattr(module, constant, values[side])
                    ms = ms_per_trial(configs, trials)
                    if i:
                        runs[side].append(ms)
        finally:
            setattr(module, constant, shipped)
        if gate == "threads":
            work = work_of(configs)
            row = {"work": work, "gate_threads": work >= shipped}
        else:
            row = {"gate_cholesky": Q >= shipped}
        row.update({side: {"median_ms_per_trial": statistics.median(v), "min": min(v), "max": max(v)}
                    for side, v in runs.items()})
        row[f"{first}_over_{second}"] = ratio = statistics.median(runs[first]) / statistics.median(runs[second])
        label = f"Q={Q} L={L} {'+'.join(precoders)} snrs={len(snrs)} trials={trials}"
        table[label] = row
        print(f"{gate} {label}: {first}/{second} {ratio:.3f}", file=sys.stderr, flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--gates", nargs="*", choices=sorted(GATES), default=sorted(GATES))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    result = {"repeats": args.repeats}
    if "threads" in args.gates:
        result.update(gate=channel._THREAD_MIN_WORK, cases=gate_table("threads", CASES, args.repeats))
    if "cholesky" in args.gates:
        result.update(cholesky_min_q=precoding._CHOLESKY_MIN_Q,
                      cholesky_cases=gate_table("cholesky", CHOLESKY_CASES, args.repeats))
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

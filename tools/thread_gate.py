#!/usr/bin/env python3
"""Serial against threaded seeded Monte Carlo per trial inverse work: the table that sets ``channel._THREAD_MIN_WORK``.

    python3 tools/thread_gate.py --repeats 5 --out gate.json

Run from the root of a checkout.  For each case, one ``estimate_sum_rates``
call on a G = 5 ensemble runs with the work gate shut (serial) and forced
open (trials on threads, one per CPU), alternating which goes first.  Both
sides run with numpy's OpenBLAS pinned to one thread, because
``channel.seeded_map`` pins every pass, so the table compares trial threads
against the calling thread alone.  Each case reports the work measure its
``seeded_map`` pass gets (matrices inverted per draw times Q^3) and whether
the gate threads it, each side's median, min and max milliseconds per
trial, and the serial/threaded ratio of the medians; above 1, threads win.
The last line of standard output is the table as one JSON object.
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

from ccdl import channel, montecarlo  # noqa: E402
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


def ms_per_trial(configs, trials: int, threaded: bool) -> float:
    channel._THREAD_MIN_WORK = 0 if threaded else math.inf
    start = time.perf_counter()
    estimate_sum_rates(configs)
    return 1e3 * (time.perf_counter() - start) / trials


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    gate, table = channel._THREAD_MIN_WORK, {}
    for Q, L, precoders, snrs, trials in CASES:
        configs = [McConfig(trials=trials, seed=channel.RngSeed(5), precoder=PrecoderKind(p),
                            scheme=scheme_for_gain(L=L, snr_db=snr, G=5, Q=Q, precoder=p))
                   for snr in snrs for p in precoders]
        work = work_of(configs)
        runs = {"serial": [], "threaded": []}
        ms_per_trial(configs, trials, False), ms_per_trial(configs, trials, True)  # untimed warm-up
        for i in range(args.repeats):
            for side in ("serial", "threaded") if i % 2 == 0 else ("threaded", "serial"):
                runs[side].append(ms_per_trial(configs, trials, side == "threaded"))
        row = {"work": work, "gate_threads": work >= gate}
        row.update({side: {"median_ms_per_trial": statistics.median(v), "min": min(v), "max": max(v)}
                    for side, v in runs.items()})
        row["serial_over_threaded"] = statistics.median(runs["serial"]) / statistics.median(runs["threaded"])
        label = f"Q={Q} L={L} {'+'.join(precoders)} snrs={len(snrs)} trials={trials}"
        table[label] = row
        print(f"{label}: work {work:,.0f} ({'threads' if row['gate_threads'] else 'serial'}), "
              f"serial/threaded {row['serial_over_threaded']:.3f}", file=sys.stderr, flush=True)
    channel._THREAD_MIN_WORK = gate
    result = {"gate": gate, "repeats": args.repeats, "cases": table}
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

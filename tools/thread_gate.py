#!/usr/bin/env python3
"""Serial against threaded seeded Monte Carlo, per stream count Q: the table that sets ``channel._THREAD_MIN_Q``.

    python3 tools/thread_gate.py --repeats 5 --out gate.json

Run from the root of a checkout.  For each case, one ``estimate_sum_rates``
call on a G = 5 ensemble at 10 dB runs with the size gate shut (serial)
and forced open (trials on threads, one per CPU), alternating which
goes first.  Both sides run with numpy's OpenBLAS pinned to one thread,
because ``channel.seeded_map`` pins every pass, so the table compares
trial threads against the calling thread alone.  It reports each
side's median, min and max milliseconds per trial and the serial/threaded
ratio of the medians; above 1, threads win.  The last line of standard
output is the table as one JSON object.
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

from ccdl import channel  # noqa: E402
from ccdl.montecarlo import McConfig, estimate_sum_rates  # noqa: E402
from ccdl.precoding import PrecoderKind  # noqa: E402
from ccdl.scheme import scheme_for_gain  # noqa: E402

# (Q, L, precoders, trials): c = 1/2 RZF at each Q, plus mc-hardening's and mc-rzf-c3's shapes with every precoder
CASES = (
    (16, 32, ("RZF",), 800),
    (16, 256, ("MF", "ZF", "RZF"), 800),
    (32, 64, ("RZF",), 400),
    (48, 96, ("RZF",), 300),
    (64, 128, ("RZF",), 200),
    (64, 128, ("MF", "ZF", "RZF"), 200),
)


def ms_per_trial(configs, trials: int, threaded: bool) -> float:
    channel._THREAD_MIN_Q = 0 if threaded else math.inf
    start = time.perf_counter()
    estimate_sum_rates(configs)
    return 1e3 * (time.perf_counter() - start) / trials


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    gate, table = channel._THREAD_MIN_Q, {}
    for Q, L, precoders, trials in CASES:
        configs = [McConfig(trials=trials, seed=channel.RngSeed(5), precoder=PrecoderKind(p),
                            scheme=scheme_for_gain(L=L, snr_db=10.0, G=5, Q=Q, precoder=p)) for p in precoders]
        runs = {"serial": [], "threaded": []}
        ms_per_trial(configs, trials, False), ms_per_trial(configs, trials, True)  # untimed warm-up
        for i in range(args.repeats):
            for side in ("serial", "threaded") if i % 2 == 0 else ("threaded", "serial"):
                runs[side].append(ms_per_trial(configs, trials, side == "threaded"))
        row = {side: {"median_ms_per_trial": statistics.median(v), "min": min(v), "max": max(v)}
               for side, v in runs.items()}
        row["serial_over_threaded"] = statistics.median(runs["serial"]) / statistics.median(runs["threaded"])
        table[f"Q={Q} L={L} {'+'.join(precoders)} trials={trials}"] = row
        print(f"Q={Q} L={L} {'+'.join(precoders)}: {row['serial_over_threaded']:.3f}", file=sys.stderr, flush=True)
    channel._THREAD_MIN_Q = gate
    result = {"gate": gate, "repeats": args.repeats, "cases": table}
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

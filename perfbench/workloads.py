"""Workload definitions and output checks for the ccdl benchmark.

Each workload is a closed loop of `ccdl` CLI invocations.  Call 0 is the
untimed first call that set-up time includes; the timed loop continues from
call 1.  Every Monte Carlo call's ``--seed`` is drawn from the workload seed,
so the same workload seed always produces the same argument lists.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MC_TRIALS = 100  # McConfig warns below 100 trials
RZF_C3_TOLERANCE = 0.02  # acceptance criterion 3
ZF_IDENTITY_TOLERANCE = 1e-12  # exact-rho ZF identity, relative
PRESETS = ("fig1", "fig2-L32", "fig2-L64", "fig3-L64")
HARDENING_SNRS = (0.0, 5.0, 10.0, 15.0, 20.0)
TEXT_COLUMNS = ("precoder", "source")


@dataclass(frozen=True)
class Workload:
    name: str
    threads: str  # CCDL_THREADS for every call
    kind: str  # "rzf-c3", "hardening" or "presets"
    cycle: int  # calls per cycle; the timed loop only stops between cycles
    trace_cycles: int  # cycles replayed under the tracer

    def argv(self, seed: int, index: int) -> list[str]:
        """Arguments of call ``index`` (0 = the untimed first call)."""
        if self.kind == "presets":
            return ["sweep", "--preset", PRESETS[index % len(PRESETS)], "--precoder", "all"]
        call_seed = str(call_seed_for(seed, index))
        if self.kind == "rzf-c3":
            return ["simulate", "--precoder", "rzf", "--G", "5", "--L", "128", "--Q", "64", "--snr-db", "10",
                    "--trials", str(MC_TRIALS), "--seed", call_seed]
        return ["sweep", "--mode", "simulate", "--axis", "snr_db", "--start", "0", "--stop", "20", "--step", "5",
                "--precoder", "all", "--G", "5", "--L", "256", "--Q", "16",
                "--trials", str(MC_TRIALS), "--seed", call_seed]

    def expected_rows(self, argv: list[str]) -> list[dict]:
        """Identity fields every Monte Carlo row must echo back, in order."""
        seed = argv[argv.index("--seed") + 1]
        if self.kind == "rzf-c3":
            points = [("rzf", 128, 64, 10.0)]
        else:
            points = [(p, 256, 16, snr) for snr in HARDENING_SNRS for p in ("mf", "zf", "rzf")]
        return [
            {"precoder": p, "L": str(L), "Q": str(Q), "G": "5", "snr_db": snr, "trials": str(MC_TRIALS), "seed": seed}
            for p, L, Q, snr in points
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-rzf-c3", "1", "rzf-c3", 1, 8),
        Workload("mc-hardening", "1", "hardening", 1, 2),
        Workload("mc-hardening-2w", "2", "hardening", 1, 2),
        Workload("presets-closed-form", "1", "presets", len(PRESETS), 1),
    )
}


def call_seed_for(seed: int, index: int) -> int:
    """The ``--seed`` of call ``index``: a pure function of the workload seed."""
    rng = random.Random(seed)
    for _ in range(index):
        rng.getrandbits(32)
    return rng.getrandbits(32)


def golden_csv(preset: str) -> str:
    return (GOLDEN_DIR / f"{preset}.csv").read_text()


class OutputChecker:
    """Checks one call's exit status, stderr and CSV; returns the problems found.

    ``expcli`` and ``analytic`` are the modules under test; the header must
    equal ``expcli.CSV_COLUMNS`` and Monte Carlo rows are compared with the
    closed forms of ``analytic``.
    """

    def __init__(self, workload: Workload, expcli, analytic):
        self.workload = workload
        self.columns = list(expcli.CSV_COLUMNS)
        self.analytic = analytic
        self.golden = {p: golden_csv(p) for p in PRESETS} if workload.kind == "presets" else {}

    def check(self, argv: list[str], status: int, out: str, err: str) -> list[str]:
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        problems += [f"stderr: {line}" for line in err.splitlines() if line.startswith("error:")]
        if status != 0:
            return problems
        table = list(csv.reader(io.StringIO(out)))
        if not table or table[0] != self.columns:
            return problems + ["CSV header differs from expcli.CSV_COLUMNS"]
        rows = [dict(zip(self.columns, values)) for values in table[1:]]
        problems += self._finite(rows)
        if self.workload.kind == "presets":
            preset = argv[argv.index("--preset") + 1]
            if out != self.golden[preset]:
                problems.append(f"{preset} CSV differs from golden/{preset}.csv")
            return problems
        return problems + self._monte_carlo(argv, rows)

    def _finite(self, rows: list[dict]) -> list[str]:
        problems = []
        for i, row in enumerate(rows):
            for column, value in row.items():
                if column in TEXT_COLUMNS or value == "":
                    continue
                try:
                    number = float(value)
                except ValueError:
                    problems.append(f"row {i}: {column}={value!r} is not a number")
                    continue
                if not math.isfinite(number):
                    problems.append(f"row {i}: {column}={value} is not finite")
        return problems

    def _monte_carlo(self, argv: list[str], rows: list[dict]) -> list[str]:
        expected = self.workload.expected_rows(argv)
        if len(rows) != len(expected):
            return [f"{len(rows)} rows, expected {len(expected)}"]
        problems = []
        for i, (row, want) in enumerate(zip(rows, expected)):
            for column, value in want.items():
                got = float(row[column]) if column == "snr_db" else row[column]
                if got != value:
                    problems.append(f"row {i}: {column}={row[column]}, expected {value}")
            if problems:
                continue
            rate = float(row["rate_nats"])
            inputs = self.analytic.RateInputs.from_streams(
                int(row["G"]), int(row["Q"]), int(row["L"]), 10.0 ** (float(row["snr_db"]) / 10.0)
            )
            if row["precoder"] == "zf":
                reference, tolerance = self.analytic.zf_rate(inputs), ZF_IDENTITY_TOLERANCE
            elif row["precoder"] == "rzf" and self.workload.kind == "rzf-c3":
                reference, tolerance = self.analytic.rzf_rate(inputs), RZF_C3_TOLERANCE
            else:
                continue  # MF: finiteness and reproducibility only (known finite-L bias)
            gap = abs(rate - reference) / reference
            if not gap <= tolerance:
                problems.append(f"row {i}: {row['precoder']} rate {rate} is {gap:.3g} from closed form {reference}")
        return problems

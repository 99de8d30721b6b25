"""Reproducibility and output-check tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import PRESETS, WORKLOADS, OutputChecker, golden_csv  # noqa: E402

from ccdl import analytic, expcli  # noqa: E402

SEED = 5


def call(monkeypatch, workload_name: str, seed: int = SEED, index: int = 1) -> bench.Call:
    workload = WORKLOADS[workload_name]
    monkeypatch.setenv("CCDL_THREADS", workload.threads)
    return bench.invoke(expcli, workload.argv(seed, index))


def check(workload_name: str, c: bench.Call) -> list[str]:
    return OutputChecker(WORKLOADS[workload_name], expcli, analytic).check(c.argv, c.status, c.out, c.err)


def traced(monkeypatch, workload_name: str) -> tuple[bench.Call, tracing.Tracer]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return call(monkeypatch, workload_name), tracer
    finally:
        tracer.uninstall()


def test_serial_and_two_worker_hardening_csv_identical(monkeypatch):
    serial = call(monkeypatch, "mc-hardening")
    pooled = call(monkeypatch, "mc-hardening-2w")
    assert serial.argv == pooled.argv
    assert serial.status == pooled.status == 0
    assert serial.out == pooled.out
    assert check("mc-hardening", serial) == []


def test_tracer_does_not_perturb_output_and_is_removed(monkeypatch):
    plain = call(monkeypatch, "mc-rzf-c3")
    with_spans, tracer = traced(monkeypatch, "mc-rzf-c3")
    assert with_spans.out == plain.out and with_spans.status == 0
    assert check("mc-rzf-c3", plain) == []
    assert expcli.main.__module__ == "ccdl.expcli" and not hasattr(expcli.main, "__wrapped__")
    metrics = tracing.layer_metrics(tracer.spans, 1, len(plain.rows()))
    assert metrics["montecarlo.trials"] == 100
    assert metrics["channel.draw.calls"] == metrics["precoding.build.rzf.calls"] == 500
    assert metrics["channel.draw.normals"] == 500 * 2 * 64 * 128
    assert metrics["precoding.sinr.calls"] == 0  # the RZF estimator skips stage_sinrs
    assert metrics["parallel.pool.maps"] == metrics["parallel.workers"] == 0


def test_pool_spans_carry_their_parent(monkeypatch):
    plain = call(monkeypatch, "mc-hardening-2w")
    pooled, tracer = traced(monkeypatch, "mc-hardening-2w")
    assert pooled.out == plain.out
    metrics = tracing.layer_metrics(tracer.spans, 1, len(plain.rows()))
    assert metrics["parallel.workers"] == 2
    assert metrics["parallel.pool.maps"] == 16  # the sweep's points, then each estimate's trials
    assert metrics["montecarlo.trials"] == 1500
    by_sid = {s.sid: s for s in tracer.spans}
    for span in tracer.spans:
        if span.name == "channel.draw":
            up = by_sid[span.parent]
            assert up.name == "parallel.item" and up.layer == "montecarlo"


def test_presets_bypass_monte_carlo(monkeypatch):
    c, tracer = traced(monkeypatch, "presets-closed-form")
    assert check("presets-closed-form", c) == []
    metrics = tracing.layer_metrics(tracer.spans, 1, len(c.rows()))
    for name in ("channel.draw.calls", "precoding.build.calls", "montecarlo.estimate.calls", "parallel.pool.maps"):
        assert metrics[name] == 0


def test_workload_seed_changes_monte_carlo_rows(monkeypatch):
    a = call(monkeypatch, "mc-rzf-c3", seed=SEED)
    b = call(monkeypatch, "mc-rzf-c3", seed=SEED + 1)
    assert a.rows()[0][7] != b.rows()[0][7]  # rate_nats
    assert WORKLOADS["mc-rzf-c3"].argv(SEED, 3) == WORKLOADS["mc-rzf-c3"].argv(SEED, 3)


@pytest.mark.parametrize("preset", PRESETS)
def test_golden_presets_match_and_catch_changes(monkeypatch, preset):
    monkeypatch.setenv("CCDL_THREADS", "1")
    c = bench.invoke(expcli, ["sweep", "--preset", preset, "--precoder", "all"])
    assert c.out == golden_csv(preset)
    changed = bench.Call(c.argv, 0, c.out.replace("0.", "1.", 1), "", 0.0)
    assert check("presets-closed-form", changed)


def test_checker_rejects_bad_monte_carlo_output(monkeypatch):
    good = call(monkeypatch, "mc-rzf-c3")
    lines = good.out.splitlines()
    fields = lines[1].split(",")

    def with_rate(rate: str) -> bench.Call:
        row = fields[:7] + [rate] + fields[8:]
        return bench.Call(good.argv, 0, "\n".join([lines[0], ",".join(row)]) + "\n", "", 0.0)

    assert check("mc-rzf-c3", with_rate("nan"))
    assert check("mc-rzf-c3", with_rate(repr(float(fields[7]) * 1.03)))  # outside criterion 3's 2%
    assert check("mc-rzf-c3", bench.Call(good.argv, 1, "", "error: SpecError: x\n", 0.0))
    assert check("mc-rzf-c3", bench.Call(good.argv, 0, good.out.replace("precoder,", "kind,"), "", 0.0))


def test_tail_keeps_ten_calls_beyond():
    walls = [float(i) for i in range(100)]
    assert bench.tail(walls) == (89.0, 90.0)
    assert bench.tail(walls[:8]) == (5.0, 75.0)

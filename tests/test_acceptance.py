"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Criterion 3's MF leg checks the simulation against two
formulas at L=64, Q=16, G=5, 10 dB (seed 2024, 1e4 trials).  The
asymptotic ``mf_rate`` is, at every finite L, exactly the channel-hardening
(use-and-then-forget) bound, so the simulated coherent rate must lie at or
above it; it does, by +2.91%.  The finite-L closed form ``mf_rate_finite``
(ratio of the exact moments L(L+1) and L) must be within 2%; the measured
gap is -0.35%.  Asking for 2% closeness to ``mf_rate`` itself would ask a
lower bound that is only reached as L -> infinity to be tight at L=64.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ccdl.analytic import (
    CsiCostModel,
    RateInputs,
    effective_gain,
    mf_rate,
    mf_rate_finite,
    rzf_deterministics,
    rzf_rate,
    stieltjes,
    stieltjes_deriv,
    zf_rate,
)
from ccdl.channel import RngSeed, draw_channel, resolvent_trace
from ccdl.expcli import main
from ccdl.montecarlo import McConfig, estimate_sum_rate
from ccdl.optimizer import mf_opt_c, optimized_gain, zf_opt_c, zf_opt_c_high_snr
from ccdl.precoding import PrecoderKind, cancellation_residual, power_factor
from ccdl.scheme import SchemeConfig, build_delivery_plan, scheme_for_gain, validate

CSI = CsiCostModel(beta_tot=10.0, t_c=0.04, w_c=300e3)


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_optimized_headline_gains():
    """Optimized gains at 20 dB, G=6 (beta=10, Tc=40 ms, Wc=300 kHz)."""
    targets = {(32, "ZF"): 3.1, (32, "MF"): 4.3, (64, "ZF"): 2.8, (64, "MF"): 3.8}
    details, ok = [], True
    for (L, precoder), target in targets.items():
        gain = optimized_gain(precoder, 6, L, 100.0, CSI).gain
        good = abs(gain - target) <= 0.10 * target
        ok &= good
        details.append(f"{precoder}@L={L}: {gain:.3f} vs {target} (+-10%)")
    assert report(1, ok, "; ".join(details))


def test_criterion_2_hardening_constrained_gains():
    """Fixed Q=8 both sides, G=6, L=64, 15 dB; +-2% deterministic."""
    p_t = 10**1.5
    zf = effective_gain("ZF", 6, 8, 8, 64, p_t, CSI)
    mf = effective_gain("MF", 6, 8, 8, 64, p_t, CSI)
    ok = abs(zf - 3.90) <= 0.02 * 3.90 and abs(mf - 5.46) <= 0.02 * 5.46
    assert report(2, ok, f"ZF: {zf:.4f} vs 3.90; MF: {mf:.4f} vs 5.46 (+-2%)")


def test_criterion_3_monte_carlo_vs_closed_form():
    """10 dB, G=5: MF (L=64, c=0.25) at or above the hardening bound and
    within 2% of the finite-L MF form, RZF (L=128, c=0.5) within 2% at 1e4
    trials; ZF at machine precision with exact rho."""
    trials, seed = 10_000, RngSeed(2024)

    mf_est = estimate_sum_rate(
        McConfig(trials=trials, seed=seed, scheme=scheme_for_gain(64, 10.0, 5, 16, precoder="MF"),
                 precoder=PrecoderKind.mf())
    )
    mf_inputs = RateInputs.from_streams(5, 16, 64, 10.0)
    mf_bound = mf_rate(mf_inputs)
    mf_excess = (mf_est.mean - mf_bound) / mf_bound
    mf_finite = mf_rate_finite(mf_inputs)
    mf_gap = abs(mf_est.mean - mf_finite) / mf_finite

    rzf_est = estimate_sum_rate(
        McConfig(trials=trials, seed=seed, scheme=scheme_for_gain(128, 10.0, 5, 64, precoder="RZF"),
                 precoder=PrecoderKind.rzf())
    )
    rzf_ana = rzf_rate(RateInputs.from_streams(5, 64, 128, 10.0))
    rzf_gap = abs(rzf_est.mean - rzf_ana) / rzf_ana

    zf_est = estimate_sum_rate(
        McConfig(trials=1000, seed=seed, scheme=scheme_for_gain(64, 10.0, 5, 16, precoder="ZF"),
                 precoder=PrecoderKind.zf())
    )
    zf_ana = zf_rate(RateInputs.from_streams(5, 16, 64, 10.0))
    zf_gap = abs(zf_est.mean - zf_ana) / zf_ana

    ok = mf_est.mean >= mf_bound and mf_gap < 0.02 and rzf_gap < 0.02 and zf_gap < 1e-12
    assert report(
        3, ok,
        f"MF excess over hardening bound {mf_excess:+.4%} (>=0); MF finite-L gap {mf_gap:.4%} (<2%); "
        f"RZF gap {rzf_gap:.4%} (<2%); ZF gap {zf_gap:.2e} (<1e-12)",
    )


def test_criterion_4_deterministic_equivalent_suite():
    """Resolvent trace vs transform, fixed point, derivative, RZF power."""
    L, draws = 256, 40
    worst_resolvent = 0.0
    for c in (0.25, 0.5, 0.9):
        Q = round(c * L)
        c_eff = Q / L
        channels = [draw_channel(Q, L, RngSeed(50, t)) for t in range(draws)]
        for z in (0.1, 1.0, 10.0):
            emp = float(np.mean([resolvent_trace(H, z) for H in channels]))
            gap = abs(emp - stieltjes(c_eff, z)) / stieltjes(c_eff, z)
            worst_resolvent = max(worst_resolvent, gap)
    ok_a = worst_resolvent < 0.01

    worst_fp = 0.0
    worst_fd = 0.0
    for c in np.linspace(0.05, 2.0, 40):
        for z in np.geomspace(0.05, 20.0, 40):
            s = stieltjes(float(c), float(z))
            worst_fp = max(worst_fp, abs(z * s * s + (z + c - 1) * s - 1))
            h = 1e-6 * z
            fd = (stieltjes(float(c), float(z + h)) - stieltjes(float(c), float(z - h))) / (2 * h)
            worst_fd = max(worst_fd, abs(stieltjes_deriv(float(c), float(z)) - fd) / abs(fd))
    ok_b = worst_fp < 1e-10
    ok_c = worst_fd < 1e-6

    scheme = scheme_for_gain(256, 10.0, 5, 128, precoder="RZF")
    rho = power_factor(PrecoderKind.rzf(), scheme, mode="montecarlo", trials=300, seed=RngSeed(51))
    p_sq = rzf_deterministics(0.5, 10.0).p_sq
    rho_gap = abs(rho * rho - p_sq) / p_sq
    ok_d = rho_gap < 0.02 and abs(p_sq - 17.57) < 0.01

    ok = ok_a and ok_b and ok_c and ok_d
    assert report(
        4, ok,
        f"(a) resolvent worst {worst_resolvent:.4%} (<1%); (b) fixed-point {worst_fp:.2e} (<1e-10); "
        f"(c) derivative {worst_fd:.2e} (<1e-6); (d) rho^2 {rho * rho:.4f} vs p^2 {p_sq:.4f}, "
        f"gap {rho_gap:.4%} (<2%)",
    )


def test_criterion_5_optimizer_correctness():
    """Root residuals, grid argmax agreement, high-SNR closed form."""
    details, ok = [], True

    def grid_best(rate, hi, step=1e-3):
        grid = np.arange(step, hi, step)
        return float(grid[int(np.argmax([rate(float(c)) for c in grid]))])

    for G in (1, 6):
        zeta = 10.0 * G * 32 / 12000.0
        omega = 100.0 / (100.0 + G)

        res = mf_opt_c(G, 100.0, zeta)
        brute = grid_best(lambda c: (1 - zeta * c) * c * math.log1p(omega / c), 1.0 / zeta)
        good = res.residual < 1e-10 and abs(res.c_star - brute) <= 1e-3
        ok &= good
        details.append(f"MF G={G}: res={res.residual:.1e}, |c*-grid|={abs(res.c_star - brute):.1e}")

        res = zf_opt_c(G, 100.0, zeta)
        brute = grid_best(lambda c: (1 - zeta * c) * c * math.log1p((100.0 / G) * (1 / c - 1)), 1.0)
        good = res.residual < 1e-10 and abs(res.c_star - brute) <= 1e-3
        ok &= good
        details.append(f"ZF G={G}: res={res.residual:.1e}, |c*-grid|={abs(res.c_star - brute):.1e}")

    worst_w = max(
        abs(zf_opt_c_high_snr(G, p_t) - zf_opt_c(G, p_t, 0.0).c_star)
        for G in (1, 6)
        for p_t in (1e3, 1e4)
    )
    ok &= worst_w < 0.02
    details.append(f"high-SNR closed form worst |diff|={worst_w:.4f} (<0.02)")
    assert report(5, ok, "; ".join(details))


def test_criterion_6_delivery_plan_exact_coverage():
    """Exhaustive coverage for every lambda <= 12 with integer lambda*gamma."""
    checked = 0
    for lam in range(1, 13):
        for m in range(0, lam):
            vs = validate(
                SchemeConfig(L=64, snr_db=0.0, lambda_states=lam, gamma=Fraction(m, lam), K=lam, Q=1, precoder="MF")
            )
            plan = build_delivery_plan(vs)
            assert len(plan.stages) == math.comb(lam, m + 1)
            delivered = {g: set() for g in range(1, lam + 1)}
            for stage in plan.stages:
                for sg in stage.groups:
                    assert sg.label == tuple(g for g in stage.served if g != sg.group)
                    assert sg.label not in delivered[sg.group], "label delivered twice"
                    delivered[sg.group].add(sg.label)
            for g in range(1, lam + 1):
                needed = set(combinations([x for x in range(1, lam + 1) if x != g], m))
                assert delivered[g] == needed, f"coverage mismatch at lam={lam}, m={m}, g={g}"
            checked += 1
    assert report(6, True, f"exact coverage for {checked} (lambda, gamma) pairs up to lambda=12")


def test_criterion_7_cancellation_identity():
    """Residual < 1e-9 over 100 seeded draws for each precoder."""
    vs = {
        name: validate(SchemeConfig(L=16, snr_db=10.0, lambda_states=4, gamma=0.25, K=16, Q=4, precoder=name))
        for name in ("MF", "ZF", "RZF")
    }
    kinds = {"MF": PrecoderKind.mf(), "ZF": PrecoderKind.zf(), "RZF": PrecoderKind.rzf()}
    worst = 0.0
    for name, scheme in vs.items():
        for seed in range(100):
            channels = [draw_channel(4, 16, RngSeed(seed, g)) for g in range(scheme.G)]
            worst = max(worst, cancellation_residual(channels, kinds[name], scheme, RngSeed(1000 + seed)))
    ok = worst < 1e-9
    assert report(7, ok, f"worst residual {worst:.2e} over 100 seeds x 3 precoders (<1e-9)")


def test_criterion_8_reproducibility(tmp_path, trial_workers):
    """simulate and sweep are bit-stable across runs and worker counts."""
    simulate = ["simulate", "--precoder", "rzf", "--G", "3", "--L", "16", "--Q", "8",
                "--snr-db", "10", "--trials", "200", "--seed", "7"]
    sweep = ["sweep", "--mode", "simulate", "--axis", "snr_db", "--start", "0", "--stop", "4", "--step", "2",
             "--precoder", "zf", "--G", "2", "--L", "16", "--Q", "8", "--trials", "150", "--seed", "7"]
    ok = True
    for name, args in (("simulate", simulate), ("sweep", sweep)):
        outputs = []
        for i, workers in enumerate((1, 1, 2, 4)):
            trial_workers(workers)
            path = tmp_path / f"{name}{i}.csv"
            assert main([*args, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        ok &= all(blob == outputs[0] for blob in outputs)
    assert report(8, ok, "simulate and sweep byte-identical over repeat runs and 1/2/4 workers")

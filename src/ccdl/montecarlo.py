"""Reproducible Monte Carlo estimation of average sum rates.

Each trial draws one stage worth of channels from its own counter-based
substream, so trial t is a pure function of (seed, t) and estimates are
bit-stable for any worker count.  Reductions run in trial order with
compensated summation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ccdl import analytic, precoding
from ccdl.channel import RngSeed, complex_gaussian, seeded_map
from ccdl.precoding import PrecoderKind
from ccdl.scheme import ValidatedScheme, scheme_for_gain


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: RngSeed
    scheme: ValidatedScheme
    precoder: PrecoderKind

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials < 100:
            warnings.warn(f"trials={self.trials} is below 100; estimate unfit for acceptance use", stacklevel=2)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class ConvergencePoint:
    L: int
    empirical: float
    analytic: float
    rel_gap: float
    std_error: float


def _mean_and_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        return mean, math.sqrt(var / n)
    return mean, math.inf


def estimate_sum_rate(mc: McConfig) -> McEstimate:
    """Average over trials of the stage sum rate sum_k ln(1 + SINR_k).

    Each trial draws its G group channels and keeps their unit-power
    signal and interference powers and precoder traces.  The power
    normalization rho^2 is the exact expectation for MF/ZF; RZF has no
    finite-L closed form, so there rho^2 = p_t / (mean trace) over exactly
    the trials the rates average.  Rank-deficient ZF draws are resampled
    under the policy of :func:`ccdl.channel.seeded_map`.
    """
    scheme = mc.scheme
    kind = precoding._resolved(mc.precoder, scheme)

    def one_trial(gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
        channels = [complex_gaussian(gen, scheme.Q, scheme.L) for _ in range(scheme.G)]
        sig, intf, traces = zip(*(precoding.group_powers(H, kind) for H in channels))
        return np.stack(sig), np.stack(intf), sum(traces)

    results = seeded_map(one_trial, mc.trials, mc.seed)
    if kind.name == "RZF":
        rho_sq = scheme.p_t / (math.fsum(trace for _, _, trace in results) / (mc.trials * scheme.G))
    else:
        rho = precoding.power_factor(kind, scheme, mode="exact")
        rho_sq = rho * rho
    s = rho_sq / scheme.G
    values = [float(np.log1p(s * sig / (1.0 + s * intf)).sum()) for sig, intf, _ in results]
    mean, std_error = _mean_and_se(values)
    return McEstimate(mean=mean, std_error=std_error, trials=mc.trials)


def convergence_report(
    l_grid,
    c: float,
    G: int,
    p_t: float,
    precoder: PrecoderKind,
    trials: int,
    seed: RngSeed,
) -> list[ConvergencePoint]:
    """Empirical-versus-analytic gap across an antenna-count grid at fixed c.

    Every L in the grid must give an integer stream count Q = c * L.  The
    relative gap column is nonincreasing in L up to Monte Carlo noise (and
    sits at machine precision for ZF, whose formula is exact).
    """
    snr_db = 10.0 * math.log10(p_t)
    rows = []
    for L in l_grid:
        Q = c * L
        if abs(Q - round(Q)) > 1e-9:
            raise ValueError(f"c={c} gives non-integer stream count at L={L}")
        scheme = scheme_for_gain(L=int(L), snr_db=snr_db, G=G, Q=int(round(Q)), precoder=precoder.name)
        est = estimate_sum_rate(McConfig(trials=trials, seed=seed, scheme=scheme, precoder=precoder))
        ana = analytic.raw_rate(precoder.name, analytic.RateInputs(G=G, L=int(L), c=c, p_t=p_t))
        rows.append(
            ConvergencePoint(
                L=int(L),
                empirical=est.mean,
                analytic=ana,
                rel_gap=abs(est.mean - ana) / ana,
                std_error=est.std_error,
            )
        )
    return rows


def deterministic_equivalent_check(
    c: float, p_t: float, L: int, trials: int, seed: RngSeed
) -> tuple[float, float, float]:
    """Empirical versus asymptotic value of the per-user quadratic form.

    Averages h^T (alpha I + H_-k^H H_-k)^-1 h* over seeded draws (alpha =
    L / p_t, H_-k the channel with user k's row removed) and compares with
    the transform value the RZF analysis predicts.  Returns
    (a_empirical, a_theory, relative gap).
    """
    Q = max(int(round(c * L)), 1)
    alpha = L / p_t

    def one_trial(gen: np.random.Generator) -> float:
        H = complex_gaussian(gen, Q, L)
        h = H[0]
        rest = H[1:]
        M = alpha * np.eye(L) + rest.conj().T @ rest
        return float(np.real(h @ np.linalg.solve(M, h.conj())))

    a_emp = math.fsum(seeded_map(one_trial, trials, seed)) / trials
    a_theory = analytic.stieltjes(c, 1.0 / p_t)
    return a_emp, a_theory, abs(a_emp - a_theory) / a_theory

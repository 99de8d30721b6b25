"""Reproducible Monte Carlo estimation of average sum rates.

Each trial draws one stage worth of channels from its own counter-based
substream, so trial t is a pure function of (seed, t) and estimates are
bit-stable in any trial order.  Reductions run in trial order with
compensated summation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ccdl import analytic, precoding
from ccdl.channel import RngSeed, seeded_map, wishart_gram
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


_PASS_BYTES = 64 * 2**20  # RZF powers one trial pass may keep; more alphas redraw the trials in further passes
_REDUCE_BLOCK = 1024  # trials per vectorized RZF reduction, bounding its temporaries
_RZF = PrecoderKind.rzf()


def _sum_rates(s, sig: np.ndarray, intf: np.ndarray) -> np.ndarray:
    """sum_k ln(1 + s sig_k / (1 + s intf_k)) over the last axis, which holds the G*Q users."""
    return np.log1p(s * sig / (1.0 + s * intf)).sum(axis=-1)


def _fixed_kernel(kind: PrecoderKind, s: np.ndarray):
    """MF/ZF trial kernel: the trial's sum rate at each row's s = rho^2 / G."""

    def kernel(W: np.ndarray) -> np.ndarray:
        sig, intf, _ = precoding.gram_powers(W, kind)
        return _sum_rates(s[:, None], sig.reshape(-1), intf.reshape(-1))

    return kernel


def _rzf_kernel(alphas: np.ndarray):
    """RZF trial kernel: the trial's powers and trace sum, one row per alpha, kept until the mean trace fixes rho^2."""

    def kernel(W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sig, intf, traces = precoding.gram_powers(W, _RZF, alphas)
        return sig.reshape(len(alphas), -1), intf.reshape(len(alphas), -1), traces.sum(axis=-1)

    return kernel


def estimate_sum_rates(configs) -> list[McEstimate]:
    """Average over trials of the stage sum rate sum_k ln(1 + SINR_k), for every config.

    Each trial draws the Gram matrices of its G group channels; a kernel
    per precoder turns them into unit-power signal and interference powers
    and precoder traces.  rho^2 is the exact expectation for MF/ZF,
    resolved before any trial runs, and p_t / (mean trace) over the same
    trials for RZF, which has no finite-L closed form.  Configs sharing
    (seed, trials, G, Q, L) share their draws, which depend on neither SNR
    nor precoder: such an ensemble runs one :func:`ccdl.channel.seeded_map`
    pass with MF and ZF once and one RZF kernel over the stack of its
    alphas, and each estimate is bit-equal to its config's run alone.  RZF
    alphas whose kept powers would pass 64 MiB split over further passes
    that redraw the same trials.
    """
    configs = list(configs)
    ensembles = {}
    for i, mc in enumerate(configs):
        sch = mc.scheme
        kind = precoding._resolved(mc.precoder, sch)
        rho = None if kind.name == "RZF" else precoding.power_factor(kind, sch, mode="exact")
        plan = ensembles.setdefault((mc.seed, mc.trials, sch.G, sch.Q, sch.L), {})
        plan.setdefault(kind, []).append((i, sch.p_t if rho is None else rho * rho / sch.G))

    estimates = [None] * len(configs)
    for (seed, trials, G, Q, L), plan in ensembles.items():
        fixed = [kind for kind in plan if kind.name != "RZF"]
        rzf = [kind for kind in plan if kind.name == "RZF"]
        per_pass = max(1, _PASS_BYTES // (16 * trials * G * Q))
        for start in range(0, max(len(rzf), 1), per_pass):
            chunk, kinds = rzf[start : start + per_pass], fixed if start == 0 else []
            kernels = [_fixed_kernel(kind, np.array([s for _, s in plan[kind]])) for kind in kinds]
            kernels += [_rzf_kernel(np.array([kind.alpha for kind in chunk]))] if chunk else []
            columns = seeded_map(lambda gen: wishart_gram(gen, G, Q, L), kernels, trials, seed)
            for kind, column in zip(kinds, columns):
                for (i, _), values in zip(plan[kind], np.array(column).T.tolist()):
                    estimates[i] = McEstimate(*_mean_and_se(values), trials)
            per_trial = columns[-1] if chunk else []  # (sig, intf, traces) of each trial, one row per alpha
            for a, kind in enumerate(chunk):
                mean_trace = math.fsum(traces[a] for _, _, traces in per_trial) / (trials * G)
                for i, p_t in plan[kind]:
                    values = []
                    for b in range(0, trials, _REDUCE_BLOCK):
                        block = per_trial[b : b + _REDUCE_BLOCK]
                        sig, intf = np.stack([s[a] for s, _, _ in block]), np.stack([f[a] for _, f, _ in block])
                        values += _sum_rates(p_t / mean_trace / G, sig, intf).tolist()
                    estimates[i] = McEstimate(*_mean_and_se(values), trials)
    return estimates


def estimate_sum_rate(mc: McConfig) -> McEstimate:
    """:func:`estimate_sum_rates` of one config."""
    return estimate_sum_rates([mc])[0]


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

    Averages a = h^T (alpha I + H_-k^H H_-k)^-1 h* over seeded draws
    (alpha = L / p_t, H_-k the channel with user k's row removed) and
    compares with the transform value the RZF analysis predicts.  Each
    draw computes a = 1 / (alpha [(W + alpha I)^-1]_kk) - 1 from the Gram
    matrix W = H H^H, a Q x Q inverse in place of an L x L solve.
    Returns (a_empirical, a_theory, relative gap).
    """
    Q = max(int(round(c * L)), 1)
    alpha = L / p_t

    def quadratic_form(W: np.ndarray) -> float:
        r00 = np.linalg.inv(W + alpha * np.eye(Q))[0, 0].real
        return float(1.0 / (alpha * r00) - 1.0)

    a_emp = math.fsum(seeded_map(lambda gen: wishart_gram(gen, 1, Q, L)[0], [quadratic_form], trials, seed)[0]) / trials
    a_theory = analytic.stieltjes(c, 1.0 / p_t)
    return a_emp, a_theory, abs(a_emp - a_theory) / a_theory

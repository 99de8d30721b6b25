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


_PASS_BYTES = 64 * 2**20  # kernel-row powers one trial pass may keep; more rows redraw the trials in further passes
_INVERSE_BYTES = 2**30  # one draw's complex G x Q x Q stack per ZF and RZF row of a pass; more rows split the same way
_REDUCE_BLOCK = 1024  # trials per vectorized reduction, bounding its temporaries


def _sum_rates(s, sig: np.ndarray, intf: np.ndarray) -> np.ndarray:
    """sum_k ln(1 + s sig_k / (1 + s intf_k)) over the last axis, which holds the G*Q users."""
    return np.log1p(s * sig / (1.0 + s * intf)).sum(axis=-1)


def _rows(n: int, sig: np.ndarray, intf: np.ndarray, traces: np.ndarray) -> tuple:
    """Powers as n kernel rows: (n, G*Q) signal and interference powers, and traces summed over the G groups."""
    return sig.reshape(n, -1), intf.reshape(n, -1), traces.reshape(n, -1).sum(axis=-1)


def _draw(W: np.ndarray, alphas: np.ndarray) -> tuple:
    """One trial draw: the G Gram matrices ``W``, and the pass's ZF and RZF kernel rows from one stacked inverse.

    The rows are :func:`ccdl.precoding.gram_powers` of W over the pass's ``alphas`` (ZF's 0 first), or None
    where the pass has none, or where the stack raises :class:`ccdl.precoding.RankDeficient`: some
    W + alpha I not positive definite, or ZF's member failing its rank rule.
    """
    if alphas.size:
        try:
            return W, _rows(alphas.size, *precoding.gram_powers(W, PrecoderKind.rzf(), alphas))
        except precoding.RankDeficient:
            pass
    return W, None


def _kernel(kinds: list[PrecoderKind], first: int):
    """Trial kernel of same-name kinds: the trial's powers and trace sum, one row per kind (RZF's alpha stack).

    ZF and RZF take their rows of the draw's stacked inverse, from row
    ``first`` on.  Where the stack raised (ZF's rank rule, or a W + alpha I
    not positive definite), each kind computes by itself, as MF always
    does; so a draw that ZF rejects moves neither MF nor RZF, and every row
    is bit-equal to its kind's own :func:`ccdl.precoding.gram_powers` call.
    """
    kind, n, rows = kinds[0], len(kinds), slice(first, first + len(kinds))
    alphas = [k.alpha for k in kinds] if kind.name == "RZF" else None

    def kernel(draw: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        W, powers = draw
        if powers is None or kind.name == "MF":
            return _rows(n, *precoding.gram_powers(W, kind, alphas))
        return tuple(p[rows] for p in powers)

    return kernel


def estimate_sum_rates(configs) -> list[McEstimate]:
    """Average over trials of the stage sum rate sum_k ln(1 + SINR_k), for every config.

    Each trial draws the Gram matrices of its G group channels; one kernel
    per precoder name turns them into unit-power signal and interference
    powers and precoder traces, one row per resolved precoder (RZF stacks
    its alphas).  Each row keeps its per-trial powers until rho^2 is
    fixed: the exact finite-L power factor where
    :func:`ccdl.precoding.power_factor` has one (MF, ZF), resolved before
    any trial runs, else p_t / (mean trace) over the same trials (RZF).
    Configs sharing (seed, trials, G, Q, L) share their draws, which depend
    on neither SNR nor precoder: such an ensemble runs one
    :func:`ccdl.channel.seeded_map` pass, and each estimate is bit-equal to
    its config's run alone.  Per draw, the pass's ZF and RZF rows come
    from one stacked inverse (:func:`_draw`), and the pass's inverse work,
    G matrices per such row times Q^3, decides whether its trials run on
    threads.  Rows whose kept powers would pass 64 MiB, or whose stacked
    G x Q x Q matrices of one draw would pass 1 GiB, split over further
    passes that redraw the same trials.
    """
    configs = list(configs)
    ensembles = {}
    for i, mc in enumerate(configs):
        sch = mc.scheme
        kind = precoding._resolved(mc.precoder, sch)
        try:
            rho = precoding.power_factor(kind, sch, mode="exact", finite_l=True)
        except precoding.ExactUnavailable:
            rho = None
        plan = ensembles.setdefault((mc.seed, mc.trials, sch.G, sch.Q, sch.L), {})
        plan.setdefault(kind, []).append((i, rho, sch.p_t))

    estimates = [None] * len(configs)
    for (seed, trials, G, Q, L), plan in ensembles.items():
        rows = list(plan)
        per_pass = max(1, min(_PASS_BYTES // (16 * trials * G * Q), _INVERSE_BYTES // (16 * G * Q * Q)))
        for start in range(0, len(rows), per_pass):
            groups = {}
            for kind in rows[start : start + per_pass]:
                groups.setdefault(kind.name, []).append(kind)
            stack = [*groups.get("ZF", ()), *groups.get("RZF", ())]
            alphas = np.array([kind.alpha or 0.0 for kind in stack])  # ZF's alpha is None
            kernels = [_kernel(kinds, stack.index(kinds[0]) if kinds[0] in stack else 0) for kinds in groups.values()]
            draw = lambda gen: _draw(wishart_gram(gen, G, Q, L), alphas)  # noqa: E731
            columns = seeded_map(draw, kernels, trials, seed, len(stack) * G * Q**3)
            for kinds, per_trial in zip(groups.values(), columns):  # (sig, intf, traces) of each trial
                for a, kind in enumerate(kinds):
                    mean_trace = math.fsum(traces[a] for _, _, traces in per_trial) / (trials * G)
                    scales = {i: (p_t / mean_trace if rho is None else rho * rho) / G for i, rho, p_t in plan[kind]}
                    rates = {i: [] for i in scales}
                    for b in range(0, trials, _REDUCE_BLOCK):
                        block = per_trial[b : b + _REDUCE_BLOCK]
                        sig, intf = np.stack([s[a] for s, _, _ in block]), np.stack([f[a] for _, f, _ in block])
                        for i, scale in scales.items():
                            rates[i] += _sum_rates(scale, sig, intf).tolist()
                    for i, values in rates.items():
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
        ana = analytic.raw_rate(precoder.name, analytic.RateInputs(G=G, L=int(L), c=c, p_t=scheme.p_t))
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
        r00 = precoding._regularized_inverse(W, alpha)[0, 0].real
        return float(1.0 / (alpha * r00) - 1.0)

    (values,) = seeded_map(lambda gen: wishart_gram(gen, 1, Q, L)[0], [quadratic_form], trials, seed, Q**3)
    a_emp = math.fsum(values) / trials
    a_theory = analytic.stieltjes(c, 1.0 / p_t)
    return a_emp, a_theory, abs(a_emp - a_theory) / a_theory

"""Stream-count optimization and optimized cache-vs-cacheless gains.

The effective rate of every precoder is concave in the stream ratio
c = Q/L over the relevant interval, so the continuous optimum is the root
of the first-order condition (MF, ZF) or a grid/golden-section argmax
(RZF, which has no tractable derivative).  The integer stream count is
then the better of the two integers bracketing c* L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ccdl.analytic import (
    GRAM_INVERTING,
    COutOfRange,
    CsiCostModel,
    CsiOverheadExceedsBlock,
    RateInputs,
    ZeroDenominator,
    _rzf_constants,
    _rzf_score,
    _warn_if_c_above_one,
    csi_zeta,
    data_share,
    raw_rate,
)

_RESIDUAL_TOL = 1e-10
_C_MIN = 1e-9  # smallest stream ratio searched: MF and ZF scan up from it, RZF needs room above it
_W_MAX_ITER = 50
_BRANCH_POINT = -math.exp(-1.0)


class DomainError(ValueError):
    pass


class UnboundedObjective(ValueError):
    """The objective has no interior maximum (free CSI makes MF monotone)."""


class NoRootInBracket(ArithmeticError):
    pass


class EmptyFeasibleSet(ValueError):
    pass


class SearchBreakdown(ArithmeticError):
    """A root search met an unbounded interval or stalled short of its residual tolerance."""


@dataclass(frozen=True)
class OptimizationResult:
    """Continuous optimum plus, once completed, the integer operating point.

    ``q_cap`` records the feasibility bound applied when picking ``q_star``
    (None means the stream count was unconstrained).
    """

    c_star: float
    residual: float
    method: str
    q_star: int | None = None
    effective_rate_at_q_star: float | None = None
    q_cap: int | None = None


@dataclass(frozen=True)
class GainReport:
    precoder: str
    G: int
    L: int
    snr_db: float
    cached: OptimizationResult
    cacheless: OptimizationResult
    gain: float


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, w * exp(w) = x.

    Halley iteration from a log-based initial guess (branch-point series
    near x = -1/e), capped at 50 steps; the result satisfies
    |w e^w - x| < 1e-12 * max(1, |x|).
    """
    if x < _BRANCH_POINT:
        raise DomainError(f"lambert_w0 needs x >= -1/e, got {x}")
    if x == _BRANCH_POINT:
        return -1.0
    if x == 0.0:
        return 0.0
    if x < -0.3:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    elif x < math.e:
        w = math.log1p(x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    tol = 1e-12 * max(1.0, abs(x))
    for _ in range(_W_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise ArithmeticError(f"lambert_w0 failed to converge for x={x}")


def _check_feasible(lo: float, hi: float) -> None:
    if lo >= hi:
        raise EmptyFeasibleSet(f"no feasible stream ratio in [{lo:g}, {hi:g}]")


def _root(f, lo: float, hi: float) -> OptimizationResult:
    """First sign change of f on a 256-point log grid over [lo, hi], bisected to |f| <= 1e-10."""
    _check_feasible(lo, hi)
    if not math.isfinite(hi):
        raise SearchBreakdown(f"search interval [{lo:g}, {hi:g}] is unbounded")
    # numpy, not a Python grid, so that c_star keeps its bits: the grid is 10 ** linspace(log10 lo, log10 hi), and
    # libm's pow (10.0 ** y) differs from numpy's SIMD power in the last bit on about 5% of the points (numpy
    # 2.4.6, AVX-512F), which moved c_star by 2 ulps on 5 fig2 rows.  So those bits follow numpy's power kernel.
    grid = np.geomspace(lo, hi, 256)
    a = float(grid[0])
    f_a = f(a)
    for x in grid[1:]:
        b = float(x)
        f_b = f(b)
        if f_b == 0.0:
            return OptimizationResult(c_star=b, residual=0.0, method="root_bisection")
        if (f_b > 0) != (f_a > 0):
            break
        a, f_a = b, f_b
    else:
        raise NoRootInBracket(f"no sign change of the optimality condition in [{lo:g}, {hi:g}]")
    for _ in range(300):
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        if abs(f_mid) <= _RESIDUAL_TOL:
            return OptimizationResult(c_star=mid, residual=abs(f_mid), method="root_bisection")
        if (f_mid > 0) == (f_a > 0):
            a, f_a = mid, f_mid
        else:
            b = mid
    raise SearchBreakdown(f"bisection stalled at residual {abs(f_mid):g}")


def mf_opt_c(G: int, p_t: float, zeta: float) -> OptimizationResult:
    """Optimal MF stream ratio under CSI cost coefficient zeta > 0.

    Solves (1 - 2 zeta c) ln(1 + Omega/c) - Omega (1 - zeta c)/(Omega + c)
    = 0 with Omega = p_t / (p_t + G).  Without CSI costs the MF effective
    rate is nondecreasing in c, so zeta = 0 has no interior optimum.
    """
    if zeta < 0:
        raise ValueError(f"zeta={zeta} must be nonnegative")
    if zeta == 0:
        raise UnboundedObjective("MF effective rate is nondecreasing in c when CSI is free")
    if p_t <= 0:
        raise ValueError(f"p_t={p_t} must be positive")
    omega = p_t / (p_t + G)

    def condition(c: float) -> float:
        return (1.0 - 2.0 * zeta * c) * math.log1p(omega / c) - omega * (1.0 - zeta * c) / (omega + c)

    # The derivative is positive as c -> 0+ and negative at c = 1/(2 zeta),
    # and the objective is concave, so the first sign change is the optimum.
    return _root(condition, _C_MIN, 1.0 / (2.0 * zeta))


def zf_opt_c(G: int, p_t: float, zeta: float) -> OptimizationResult:
    """Optimal ZF stream ratio in (0, 1); zeta = 0 is allowed.

    Solves (1 - 2 zeta c) ln(1 + (p_t/G)(1/c - 1))
    - (1 - zeta c)(p_t/G) / ((1 - p_t/G) c + p_t/G) = 0.  The root lies
    below the zero-cost optimum, which itself lies inside (0, 1).
    """
    if zeta < 0:
        raise ValueError(f"zeta={zeta} must be nonnegative")
    if p_t <= 0 or G < 1:
        raise ValueError("need p_t > 0 and G >= 1")
    snr = p_t / G

    def condition(c: float) -> float:
        return (1.0 - 2.0 * zeta * c) * math.log1p(snr * (1.0 / c - 1.0)) - (1.0 - zeta * c) * snr / (
            (1.0 - snr) * c + snr
        )

    hi = min(1.0, 1.0 / zeta) if zeta > 0 else 1.0
    return _root(condition, _C_MIN, hi * (1.0 - 1e-12))


def zf_opt_c_high_snr(G: int, p_t: float) -> float:
    """High-SNR, zero-CSI-cost closed form c* = 1 / (1 + 1/W(p_t/(e G))).

    A good approximation from moderate SNR up; total for any positive
    input, approaching 1 as the power grows.
    """
    w = lambert_w0(p_t / (math.e * G))
    return 1.0 / (1.0 + 1.0 / w)


def _golden_max(f, lo: float, hi: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > 1e-6:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def rzf_opt_c(G: int, L: int, p_t: float, model: CsiCostModel) -> OptimizationResult:
    """Optimal RZF stream ratio by exhaustive grid plus golden-section.

    Searches c in (0, 1) intersected with the feasible overhead region
    c * zeta <= 1, on a 1e-3 grid refined to 1e-6; like MF and ZF, raises
    :class:`EmptyFeasibleSet` when that region ends at or below 1e-9.  The
    residual reported is the centered numeric derivative of the
    per-antenna effective rate at the optimum (not driven to zero by this
    method).

    (G, L, p_t) are checked once, as a :class:`RateInputs`; each of the
    about 1000 grid points and the refinement's points then evaluate
    ``data_share(c, zeta) * rzf_rate`` on plain floats, through the same
    core as :func:`ccdl.analytic.rzf_rate`, so c* and the residual are
    those of the public rate bit for bit.  Infeasible points (c <= 0, or
    overhead past the block) score -inf.  A call evaluates the RZF
    constants about 1,000 times on the grid and 40 times in the
    refinement; :func:`optimized_gain` shares them between the two sides
    of an RZF row.
    """
    return _rzf_search(G, L, p_t, model, {})


def _rzf_search(G: int, L: int, p_t: float, model: CsiCostModel, constants: dict) -> OptimizationResult:
    """:func:`rzf_opt_c`, keeping the RZF constants of every point it scores in ``constants``: c -> (a, p_sq) at this p_t.

    A point found in the memo scores from it, and any other fills it.
    The score is ``data_share * _rzf_score``, the float operations of
    ``data_share * rzf_rate`` in the same order, so a memo that another
    search at the same p_t filled changes no bit.
    """
    zeta = csi_zeta(model, G, L)
    hi = min(1.0, 1.0 / zeta) if zeta > 0 else 1.0
    _check_feasible(_C_MIN, hi)
    RateInputs(G=G, L=L, c=hi, p_t=p_t)  # G and p_t, checked once for every point

    def objective(c: float) -> float:
        if c <= 0:  # the COutOfRange of RateInputs
            return -math.inf
        try:
            share = data_share(c, zeta)
        except CsiOverheadExceedsBlock:
            return -math.inf
        if p_t == 0:  # rzf_rate's 0, with no constants to evaluate
            return share * 0.0
        _warn_if_c_above_one(c)
        known = constants.get(c)
        if known is None:
            a, _, _, p_sq = _rzf_constants(c, p_t)
            constants[c] = a, p_sq
        else:
            a, p_sq = known
        return share * _rzf_score(G, L, c, p_t, a, p_sq)

    grid = np.arange(1e-3, hi, 1e-3)
    lo_ref, hi_ref = 0.0, hi  # (0, hi) is narrower than one grid step
    if grid.size:
        best = int(np.argmax([objective(c) for c in grid.tolist()]))
        lo_ref = float(grid[max(best - 1, 0)])
        hi_ref = float(grid[min(best + 1, len(grid) - 1)])
    c_star = _golden_max(objective, lo_ref, hi_ref)

    h = 1e-7
    residual = abs(objective(c_star + h) - objective(c_star - h)) / (2.0 * h * G * L)
    return OptimizationResult(c_star=c_star, residual=residual, method="grid_search")


def integer_q(c_star: float, L: int, rate_fn, q_max: int | None = None) -> tuple[int, float]:
    """Integer stream count from a continuous optimum.

    Evaluates rate_fn on {floor(c* L), floor(c* L) + 1}, clamped into the
    feasible range [1, q_max]; returns the argmax, breaking ties toward
    the smaller count (less CSI to acquire).  Candidates whose evaluation
    is infeasible are dropped.
    """
    if c_star <= 0:
        raise ValueError(f"c_star={c_star} must be positive")
    if q_max is not None and q_max < 1:
        raise EmptyFeasibleSet(f"no feasible stream count with q_max={q_max}")
    base = math.floor(c_star * L)
    cap = q_max if q_max is not None else max(base + 1, 1)
    candidates = sorted({min(max(q, 1), cap) for q in (base, base + 1)})
    best = None
    for q in candidates:
        try:
            rate = rate_fn(q)
        except (COutOfRange, CsiOverheadExceedsBlock):
            continue
        if best is None or rate > best[1]:
            best = (q, rate)
    if best is None:
        raise EmptyFeasibleSet(f"no evaluable stream count among {candidates}")
    return best


def _optimize_side(
    precoder: str, G: int, L: int, p_t: float, model: CsiCostModel, q_max: int | None, rzf_constants: dict
) -> OptimizationResult:
    precoder = precoder.upper()
    zeta = csi_zeta(model, G, L)
    if precoder == "MF":
        result = mf_opt_c(G, p_t, zeta)
    elif precoder == "ZF":
        result = zf_opt_c(G, p_t, zeta)
    elif precoder == "RZF":
        result = _rzf_search(G, L, p_t, model, rzf_constants)
    else:
        raise ValueError(f"unknown precoder {precoder!r}")
    cap = q_max
    if precoder in GRAM_INVERTING:
        cap = L if q_max is None else min(L, q_max)

    def rate_fn(q: int) -> float:
        inputs = RateInputs.from_streams(G, q, L, p_t)
        return data_share(inputs.c, zeta) * raw_rate(precoder, inputs)

    q_star, rate = integer_q(result.c_star, L, rate_fn, q_max=cap)
    return replace(result, q_star=q_star, effective_rate_at_q_star=rate, q_cap=cap)


def optimized_gain(
    precoder: str,
    G: int,
    L: int,
    p_t: float,
    model: CsiCostModel,
    q_max: int | None = None,
) -> GainReport:
    """Throughput boost of the independently optimized cache-aided system.

    Maximizes the effective rate over the integer stream count separately
    for the (G, .) cache-aided scheme and the (1, .) cacheless baseline,
    then reports the ratio.  ``q_max`` optionally caps both sides (users
    per group); antenna feasibility Q <= L applies to ZF/RZF regardless.

    RZF's two sides search the same 1e-3 grid at the same p_t, and its
    constants depend on (c, p_t) only, so the row keeps one memo of them
    for both searches.  The cached side runs first and fills it; the
    cacheless side, whose grid starts with the cached one value for value
    (its overhead bound is G times looser), computes only its extra
    points.  Each side is bit for bit its lone :func:`rzf_opt_c` plus
    :func:`integer_q`, errors included.  A ``fig2`` row evaluates the
    constants about 1,040 times instead of 2,040.
    """
    rzf_constants = {}  # RZF's constants at this p_t, filled by the cached side's search
    cached = _optimize_side(precoder, G, L, p_t, model, q_max, rzf_constants)
    cacheless = _optimize_side(precoder, 1, L, p_t, model, q_max, rzf_constants)
    if cacheless.effective_rate_at_q_star == 0:
        raise ZeroDenominator("optimized cacheless effective rate is zero")
    return GainReport(
        precoder=precoder.upper(),
        G=G,
        L=L,
        snr_db=10.0 * math.log10(p_t),
        cached=cached,
        cacheless=cacheless,
        gain=cached.effective_rate_at_q_star / cacheless.effective_rate_at_q_star,
    )

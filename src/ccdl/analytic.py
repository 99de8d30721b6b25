"""Closed-form rate expressions and random-matrix deterministic equivalents.

Everything here is exact arithmetic on scalars: the large-system limits of
the per-user SINR under MF/ZF/RZF precoding, the resulting average sum
rates in nats, the CSI acquisition overhead factor, and the effective
(overhead-discounted) rates and gains built from them.  The ZF rate is
exact at finite dimensions; the MF and RZF rates are asymptotic in the
antenna count at a fixed stream ratio ``c = Q / L``.

The MF rate is both the L -> infinity limit and, at every finite L, exactly
the use-and-then-forget (UatF) channel-hardening bound, so it is a lower
bound on the coherent per-draw rate that the Monte Carlo estimator
simulates.  :func:`mf_rate_finite` is the finite-L estimate of that rate.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

_SQRT_CLAMP = -1e-12

PRECODER_NAMES = ("MF", "ZF", "RZF")
# Precoders that invert the Gram matrix H H^H of a Q x L channel; it has
# rank min(Q, L), so they need Q <= L streams.
GRAM_INVERTING = ("ZF", "RZF")


class COutOfRange(ValueError):
    pass


class NonPositiveB(ArithmeticError):
    """Numerical breakdown of the RZF power deterministic equivalent."""


class CsiOverheadExceedsBlock(ValueError):
    """Pilot overhead c * zeta exceeds the whole coherence block."""


class ZeroDenominator(ZeroDivisionError):
    pass


class SnrOutOfRange(ValueError):
    """An SNR too large or too small for a closed form built on z^2, z = 1/p_t, in doubles."""


@dataclass(frozen=True)
class RateInputs:
    """Operating point of one rate evaluation.

    ``c`` is the stream ratio Q/L and may be any positive real; the
    optimizers treat it as continuous.  ``omega`` and ``q`` are derived,
    keeping (G, L, c, p_t) the single source of truth.
    """

    G: int
    L: int
    c: float
    p_t: float

    def __post_init__(self):
        if self.G < 1:
            raise ValueError(f"G={self.G} must be >= 1")
        if self.c <= 0:
            raise COutOfRange(f"stream ratio c={self.c} must be positive")
        if self.p_t < 0:
            raise ValueError(f"p_t={self.p_t} must be nonnegative")

    @classmethod
    def from_streams(cls, G: int, Q: int, L: int, p_t: float) -> "RateInputs":
        return cls(G=G, L=L, c=Q / L, p_t=p_t)

    @property
    def q(self) -> float:
        return self.c * self.L

    @property
    def omega(self) -> float:
        return self.p_t / (self.p_t + self.G)


@dataclass(frozen=True)
class RzfDeterministics:
    """Asymptotic constants of the RZF analysis at regularizer L / p_t.

    ``a`` is the deterministic equivalent of the per-user quadratic form
    (equal to the transform value ``s`` at z = 1/p_t), ``ds`` the transform
    derivative there, ``b = a + ds / p_t`` the power-normalization trace
    limit, and ``p_sq = p_t / b`` the squared power factor.
    """

    a: float
    s: float
    ds: float
    b: float
    p_sq: float


@dataclass(frozen=True)
class CsiCostModel:
    """Pilot resource accounting for one coherence block.

    beta_tot: pilot resources per served user per block.
    t_c:      coherence time in seconds.
    w_c:      coherence bandwidth in Hz.
    """

    beta_tot: float
    t_c: float
    w_c: float

    def __post_init__(self):
        if self.beta_tot < 0:
            raise ValueError("beta_tot must be nonnegative")
        if self.t_c <= 0 or self.w_c <= 0:
            raise ValueError(f"coherence time t_c={self.t_c} and bandwidth w_c={self.w_c} must be positive")
        if self.t_c * self.w_c <= 0:
            raise ValueError("coherence block t_c * w_c must be positive")


@dataclass(frozen=True)
class RateReport:
    precoder: str
    G: int
    Q: float
    L: int
    snr_db: float
    avg_sum_rate_nats: float
    zeta: float
    effective_rate_nats: float
    source: str


def _guarded_sqrt(x: float) -> float:
    # Degenerate (c, z) corners can push an exact-zero discriminant a few
    # ulps negative.
    if _SQRT_CLAMP <= x < 0:
        return 0.0
    return math.sqrt(x)


def _check_transform_args(c: float, z: float) -> None:
    if z <= 0:
        raise ValueError(f"z={z} must be positive")
    if c < 0:
        raise ValueError(f"c={c} must be nonnegative")
    z_sq = z * z
    if z_sq < sys.float_info.min:
        raise SnrOutOfRange(f"snr_db={-10.0 * math.log10(z):g} is out of range: z^2 = 1/p_t^2 underflows")
    if z_sq > sys.float_info.max:
        raise SnrOutOfRange(f"snr_db={-10.0 * math.log10(z):g} is out of range: z^2 = 1/p_t^2 overflows")


def _stieltjes(c: float, z: float) -> float:
    disc = (1 - c) ** 2 / z**2 + 2 * (1 + c) / z + 1
    return 0.5 * (_guarded_sqrt(disc) + (1 - c) / z - 1)


def _stieltjes_deriv(c: float, z: float) -> float:
    disc = c * c + 2 * c * (z - 1) + (z + 1) ** 2
    root = _guarded_sqrt(disc)
    return 0.5 * ((-c * c - c * (z - 2) - z - 1) / (z * z * root) - (1 - c) / (z * z))


def stieltjes(c: float, z: float) -> float:
    """Limit of the normalized resolvent trace at aspect ratio c.

    S_c(z) = 1/2 * (sqrt((1-c)^2/z^2 + 2(1+c)/z + 1) + (1-c)/z - 1)
    for z > 0, c >= 0.  S_0(z) = 1/z (resolvent of the zero matrix).
    Raises :class:`SnrOutOfRange` where z^2 underflows (above ~1538 dB) or
    overflows (below ~-1541 dB).
    """
    _check_transform_args(c, z)
    return _stieltjes(c, z)


def stieltjes_deriv(c: float, z: float) -> float:
    """Derivative of :func:`stieltjes` with respect to z (closed form), on the same domain."""
    _check_transform_args(c, z)
    return _stieltjes_deriv(c, z)


def _rzf_constants(c: float, p_t: float) -> tuple[float, float, float, float]:
    """(a, ds, b, p_sq) of :class:`RzfDeterministics` at p_t > 0, as plain floats.

    Checks the transform arguments (c, 1/p_t) once.  Evaluates the power
    factor two independent ways (via the transform derivative and via the
    direct algebraic form) and insists they agree; a disagreement or a
    nonpositive trace limit signals numerical breakdown rather than a
    valid operating point, and raises :class:`NonPositiveB`.
    """
    z = 1.0 / p_t
    _check_transform_args(c, z)
    a = _stieltjes(c, z)
    ds = _stieltjes_deriv(c, z)
    b = a + ds / p_t
    if b <= 0:
        raise NonPositiveB(f"power trace limit b={b} <= 0 at c={c}, p_t={p_t}")
    p_sq = p_t / b

    disc = p_t * p_t * (c - 1) ** 2 + 2 * (c + 1) * p_t + 1
    denom_direct = a - (p_t / 2) * ((p_t * (c - 1) ** 2 + c + 1) / math.sqrt(disc) + (1 - c))
    p_sq_direct = p_t / denom_direct if denom_direct else math.inf  # 0: the cancellation the gate below catches
    # b = a + ds/p_t cancels two a-sized terms, so float error in either
    # path grows like eps * a / b; widen the agreement gate accordingly.
    tol = max(1e-9, 16 * sys.float_info.epsilon * (a / b)) * max(1.0, abs(p_sq))
    if abs(p_sq - p_sq_direct) > tol:
        raise NonPositiveB(
            f"power factor evaluation paths disagree: {p_sq} vs {p_sq_direct} at c={c}, p_t={p_t}"
        )
    return a, ds, b, p_sq


def _warn_if_c_above_one(c: float) -> None:
    if c > 1:
        # stacklevel 3 names the caller of rzf_deterministics, or rzf_rate's line
        warnings.warn(f"RZF asymptotics requested at c={c} > 1; the theory targets c in (0, 1]", stacklevel=3)


def rzf_deterministics(c: float, p_t: float) -> RzfDeterministics:
    """Asymptotic SINR/power constants for RZF at stream ratio c.

    Requires p_t > 0 and warns at c > 1.  The constants come from the same
    plain-float core that :func:`rzf_rate` and the RZF optimizer use, with
    its two-path agreement gate: :class:`NonPositiveB` signals numerical
    breakdown rather than a valid operating point.
    """
    if p_t <= 0:
        raise ValueError(f"p_t={p_t} must be positive")
    _warn_if_c_above_one(c)
    a, ds, b, p_sq = _rzf_constants(c, p_t)
    return RzfDeterministics(a=a, s=a, ds=ds, b=b, p_sq=p_sq)


def mf_rate(inputs: RateInputs) -> float:
    """Asymptotic MF average sum rate in nats per channel use.

    c * G * L * ln(1 + (1/c) * p_t / (p_t + G)); any c > 0 is allowed,
    including more streams than antennas.

    This is the L -> infinity limit of the coherent MF rate.  At every
    finite L it also equals, term for term, the use-and-then-forget
    channel-hardening bound s L^2 / (1 + s Q L) with s = p_t / (G Q L), so
    it is a lower bound on the coherent per-draw rate (the simulated one
    sits about 1.85/L above it at c = 1/4, 10 dB).  For a finite-L
    estimate use :func:`mf_rate_finite`.
    """
    return inputs.c * inputs.G * inputs.L * math.log1p(inputs.omega / inputs.c)


def mf_rate_finite(inputs: RateInputs) -> float:
    """Finite-L MF average sum rate estimate in nats per channel use.

    G * q * ln(1 + p_t (L + 1) / (G q + p_t (q - 1))) with q = c L: the
    per-user SINR taken as the ratio of the exact finite-L moments
    E||h||^4 = L (L + 1) and E|h_k^H h_j|^2 = L, in place of the mean of
    the ratio.  It is an approximation, not a bound, and its error is
    O(1/L) like that of :func:`mf_rate`, which it meets as L -> infinity.

    Measured Monte Carlo gaps (MC - formula) / formula at L = 64, G = 5,
    against those of :func:`mf_rate`:

    - c = 1/4, 10 dB: -0.35% against +2.91%, about 8x closer;
    - c = 1/4,  0 dB: -0.97% against +1.06%;
    - c = 3/4, 10 dB: -0.99% against +1.18%.

    At the last two points it is only about as close, with the opposite
    sign.  Requires q >= 1: below one stream per group the interference
    term p_t (q - 1) would turn negative, so :class:`COutOfRange` is raised.
    """
    q = inputs.q
    if q < 1:
        raise COutOfRange(f"finite-L MF needs q = c L >= 1 streams, got q={q}")
    sinr = inputs.p_t * (inputs.L + 1) / (inputs.G * q + inputs.p_t * (q - 1))
    return inputs.G * q * math.log1p(sinr)


def mf_cacheless(c_prime: float, L: int, p_t: float) -> float:
    """Cacheless MF baseline: the single-group case of :func:`mf_rate`."""
    return mf_rate(RateInputs(G=1, L=L, c=c_prime, p_t=p_t))


def zf_rate(inputs: RateInputs) -> float:
    """Exact ZF average sum rate Q * G * ln(1 + (p_t/G)(1/c - 1)).

    Valid for stream ratios 0 < c < 1; the per-user SINR is deterministic,
    so the expression holds at finite dimensions, not just asymptotically.
    """
    if inputs.c >= 1:
        raise COutOfRange(f"ZF needs c in (0, 1), got c={inputs.c}")
    snr = (inputs.p_t / inputs.G) * (1.0 / inputs.c - 1.0)
    return inputs.c * inputs.L * inputs.G * math.log1p(snr)


def _rzf_sum_rate(G: int, L: int, c: float, p_t: float) -> float:
    """:func:`rzf_rate` on plain, already validated operating-point values; 0 at p_t = 0."""
    if p_t == 0:
        return 0.0
    _warn_if_c_above_one(c)
    a, _, _, p_sq = _rzf_constants(c, p_t)
    return _rzf_score(G, L, c, p_t, a, p_sq)


def _rzf_score(G: int, L: int, c: float, p_t: float, a: float, p_sq: float) -> float:
    """:func:`rzf_rate`'s SINR and ``log1p`` expression on the constants a, p_sq of (c, p_t > 0)."""
    sinr = (a**2 * p_sq / G) / ((1.0 + a) ** 2 + p_t / G)
    return c * G * L * math.log1p(sinr)


def rzf_rate(inputs: RateInputs) -> float:
    """Asymptotic RZF average sum rate in nats per channel use.

    c * G * L * ln(1 + (a^2 p_sq / G) / ((1 + a)^2 + p_t / G)) with the
    constants of :func:`rzf_deterministics`; 0 at p_t = 0, and the same
    warning at c > 1.  The RZF optimizer evaluates this expression, through
    the same private core, without building a :class:`RateInputs` per point.
    """
    return _rzf_sum_rate(inputs.G, inputs.L, inputs.c, inputs.p_t)


_RATE_FNS = {"MF": mf_rate, "ZF": zf_rate, "RZF": rzf_rate}


def raw_rate(precoder: str, inputs: RateInputs) -> float:
    """Dispatch to the per-precoder average sum rate."""
    name = str(precoder).upper()
    if name not in _RATE_FNS:
        raise ValueError(f"unknown precoder {precoder!r}; expected one of {PRECODER_NAMES}")
    return _RATE_FNS[name](inputs)


def csi_zeta(model: CsiCostModel, G: int, L: int) -> float:
    """Overhead coefficient zeta = beta_tot * G * L / (t_c * w_c).

    Note zeta does not depend on Q; the Q-dependence of the pilot cost
    enters the effective rate only through the factor c = Q/L.
    """
    return model.beta_tot * G * L / (model.t_c * model.w_c)


def data_share(c: float, zeta: float) -> float:
    """Share of a coherence block left for data once CSI acquisition takes c * zeta of it."""
    if c * zeta > 1:
        raise CsiOverheadExceedsBlock(f"c * zeta = {c * zeta} > 1 leaves no resources for data")
    return 1 - c * zeta


def effective_rate(
    precoder: str,
    inputs: RateInputs,
    model: CsiCostModel | None = None,
    *,
    zeta: float | None = None,
    source: str = "closed_form",
) -> RateReport:
    """Average sum rate discounted by the CSI acquisition overhead.

    Exactly one of ``model`` or ``zeta`` fixes the overhead coefficient;
    the effective rate is :func:`data_share` times the raw closed-form rate.
    """
    if (model is None) == (zeta is None):
        raise ValueError("provide exactly one of model or zeta")
    if zeta is None:
        zeta = csi_zeta(model, inputs.G, inputs.L)
    share = data_share(inputs.c, zeta)
    rate = raw_rate(precoder, inputs)
    return RateReport(
        precoder=str(precoder).upper(),
        G=inputs.G,
        Q=inputs.q,
        L=inputs.L,
        snr_db=10.0 * math.log10(inputs.p_t) if inputs.p_t > 0 else -math.inf,
        avg_sum_rate_nats=rate,
        zeta=zeta,
        effective_rate_nats=share * rate,
        source=source,
    )


def effective_gain(
    precoder: str,
    G: int,
    Q: int,
    Q_prime: int,
    L: int,
    p_t: float,
    model: CsiCostModel,
) -> float:
    """Effective-rate ratio of the cache-aided system over the cacheless one.

    Compares the (G, Q) scheme against the (1, Q') baseline under the same
    antenna and power budget, overhead included on both sides.
    """
    num = effective_rate(precoder, RateInputs.from_streams(G, Q, L, p_t), model).effective_rate_nats
    den = effective_rate(precoder, RateInputs.from_streams(1, Q_prime, L, p_t), model).effective_rate_nats
    if den == 0:
        raise ZeroDenominator("cacheless effective rate is zero")
    return num / den

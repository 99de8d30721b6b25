"""Placement and delivery combinatorics for vector coded caching.

A system with ``lambda_states`` cache states and normalized cache size
``gamma`` partitions every library file into ``C(lambda, lambda*gamma)``
subfiles and serves ``G = lambda*gamma + 1`` user groups per transmission
stage, ``Q`` spatially multiplexed users per group.  This module validates
system configurations, derives the scheme constants, and enumerates the
stage schedule that delivers every needed subfile exactly once per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ccdl import analytic

GAMMA_SNAP_TOL = 1e-9


class SchemeError(ValueError):
    """Base class for configuration validation failures."""


class NonIntegerLambdaGamma(SchemeError):
    pass


class KNotMultipleOfLambda(SchemeError):
    pass


class QExceedsGroupSize(SchemeError):
    pass


class QExceedsAntennas(SchemeError):
    pass


class GammaOutOfRange(SchemeError):
    pass


class NoFeasibleLambda(SchemeError):
    pass


@dataclass(frozen=True)
class SchemeConfig:
    """Raw system parameters, prior to validation.

    Attributes
    ----------
    L : int
        Transmit antenna count.
    snr_db : float
        Total transmit SNR in dB (noise variance is 1).
    lambda_states : int
        Number of distinct cache states.
    gamma : Fraction | float | int
        Normalized cache size in [0, 1).  Floats are snapped to an exact
        rational (denominator <= lambda_states) when within 1e-9.
    K : int
        Total user count; must be a multiple of lambda_states.
    Q : int
        Streams (users served) per group.
    precoder : str
        One of ``analytic.PRECODER_NAMES``.
    """

    L: int
    snr_db: float
    lambda_states: int
    gamma: Fraction | float | int
    K: int
    Q: int
    precoder: str = "ZF"


@dataclass(frozen=True)
class ValidatedScheme:
    """A checked configuration with all derived scheme constants."""

    L: int
    snr_db: float
    lambda_states: int
    gamma: Fraction
    K: int
    Q: int
    precoder: str
    G: int
    B: int
    c: float
    p_t: float

    @property
    def subpacketization(self) -> int:
        """Subfiles per file, C(lambda, lambda*gamma).

        Computed on access, not by :func:`validate`: near gamma = 1/2 the
        count has about lambda bits and takes seconds to build at 1e6.
        """
        return math.comb(self.lambda_states, self.G - 1)


@dataclass(frozen=True)
class StageGroup:
    """One served group within a stage: its subfile label and user slots.

    ``label`` is the subfile index delivered to every user of ``group``
    during this stage; it is cached by all other served groups.  ``users``
    are the first-round user ids (1-based, drawn from slots 1..Q).
    """

    group: int
    label: tuple[int, ...]
    users: tuple[int, ...]


@dataclass(frozen=True)
class Stage:
    served: tuple[int, ...]
    groups: tuple[StageGroup, ...]


@dataclass(frozen=True)
class DeliveryPlan:
    """One round of the stage schedule plus the number of rounds needed."""

    rounds: int
    stages: tuple[Stage, ...]


def _exact_gamma(gamma, max_denominator: int) -> Fraction:
    """Convert gamma to an exact rational, snapping nearby floats.

    Floats are accepted only when within ``GAMMA_SNAP_TOL`` of a rational
    with denominator <= max_denominator; silent rounding of a misconfigured
    cache size is worse than a hard failure.
    """
    if isinstance(gamma, (Fraction, int)):
        return Fraction(gamma)
    exact = Fraction(gamma).limit_denominator(max_denominator)
    if abs(float(exact) - float(gamma)) > GAMMA_SNAP_TOL:
        raise NonIntegerLambdaGamma(
            f"gamma={gamma!r} is not within {GAMMA_SNAP_TOL:g} of a rational "
            f"with denominator <= {max_denominator}"
        )
    return exact


def validate(config) -> ValidatedScheme:
    """Check a configuration and compute all derived scheme constants.

    Accepts a :class:`SchemeConfig` or an already-validated scheme (the
    operation is idempotent).  Raises a :class:`SchemeError` subclass
    naming the violated constraint otherwise.
    """
    L = int(config.L)
    lam = int(config.lambda_states)
    K = int(config.K)
    Q = int(config.Q)
    precoder = str(config.precoder).upper()
    if precoder not in analytic.PRECODER_NAMES:
        raise SchemeError(f"unknown precoder {config.precoder!r}; expected one of {analytic.PRECODER_NAMES}")
    if L < 1 or lam < 1 or K < 1 or Q < 1:
        raise SchemeError("L, lambda_states, K and Q must all be positive")

    gamma = _exact_gamma(config.gamma, lam)
    if not 0 <= gamma < 1:
        raise GammaOutOfRange(f"gamma={gamma} outside [0, 1)")

    lam_gamma = gamma * lam
    if lam_gamma.denominator != 1:
        raise NonIntegerLambdaGamma(f"lambda*gamma = {lam}*{gamma} = {lam_gamma} is not an integer")
    m = int(lam_gamma)

    if K % lam != 0:
        raise KNotMultipleOfLambda(f"K={K} is not a multiple of lambda_states={lam}")
    B = K // lam
    if Q > B:
        raise QExceedsGroupSize(f"Q={Q} exceeds users per group B={B}")
    if precoder in analytic.GRAM_INVERTING and Q > L:
        raise QExceedsAntennas(f"Q={Q} exceeds L={L} antennas ({precoder} needs Q <= L)")

    return ValidatedScheme(
        L=L,
        snr_db=float(config.snr_db),
        lambda_states=lam,
        gamma=gamma,
        K=K,
        Q=Q,
        precoder=precoder,
        G=m + 1,
        B=B,
        c=Q / L,
        p_t=10.0 ** (float(config.snr_db) / 10.0),
    )


def scheme_for_gain(L: int, snr_db: float, G: int, Q: int, K: int | None = None, precoder: str = "ZF") -> ValidatedScheme:
    """Build a canonical validated scheme realizing a target group count G.

    Uses lambda = G with gamma = (G-1)/G (lambda = 1, gamma = 0 when G = 1)
    and K = lambda*Q users unless K is given.  Rate and SINR behavior depend
    only on (G, Q, L, power), so any valid realization is equivalent.
    """
    if G < 1:
        raise SchemeError(f"G={G} must be >= 1")
    lam = G if G > 1 else 1
    gamma = Fraction(G - 1, lam) if G > 1 else Fraction(0)
    if K is None:
        K = lam * Q
    return validate(SchemeConfig(L=L, snr_db=snr_db, lambda_states=lam, gamma=gamma, K=K, Q=Q, precoder=precoder))


def build_delivery_plan(scheme: ValidatedScheme) -> DeliveryPlan:
    """Enumerate one round of transmission stages for a validated scheme.

    Stages are ordered lexicographically over the G-subsets of
    ``{1, ..., lambda_states}``.  Within a stage serving the group set Psi,
    group psi receives the subfile labeled ``Psi \\ {psi}``, which every
    other served group holds in cache.  User ids follow the canonical
    assignment: slot theta of group g is user ``(theta-1)*lambda + g``.
    """
    lam = scheme.lambda_states
    m = scheme.G - 1
    Q = scheme.Q
    stages = []
    for served in combinations(range(1, lam + 1), scheme.G):
        groups = []
        for psi in served:
            label = tuple(g for g in served if g != psi)
            users = tuple((theta - 1) * lam + psi for theta in range(1, Q + 1))
            groups.append(StageGroup(group=psi, label=label, users=users))
        stages.append(Stage(served=served, groups=tuple(groups)))
    assert len(stages) == math.comb(lam, scheme.G)
    assert all(len(sg.label) == m for st in stages for sg in st.groups)
    return DeliveryPlan(rounds=math.ceil(scheme.B / Q), stages=tuple(stages))


def max_gain(gamma, subpack_budget: int) -> tuple[int, int]:
    """Largest achievable group count under a subpacketization budget.

    Scans cache-state counts ``lam`` with ``lam*gamma`` integer and returns
    ``(lam_best, G_best)`` where ``G_best = lam*gamma + 1`` is the largest
    gain whose subpacketization ``C(lam, lam*gamma)`` stays within
    ``subpack_budget``, realized at the smallest such ``lam``.

    Raises
    ------
    NoFeasibleLambda
        If even the smallest valid lambda exceeds the budget.
    """
    if subpack_budget < 1:
        raise NoFeasibleLambda(f"subpacketization budget {subpack_budget} < 1")
    frac = _exact_gamma(gamma, 10**6)
    if not 0 < frac < 1:
        raise GammaOutOfRange(f"gamma={frac} outside (0, 1)")
    q = frac.denominator
    p = frac.numerator
    best = None
    k = 1
    # C(kq, kp) is strictly increasing in k for 0 < gamma < 1, so the scan
    # stops at the first budget violation.
    while True:
        lam = k * q
        if math.comb(lam, k * p) > subpack_budget:
            break
        best = (lam, k * p + 1)
        k += 1
    if best is None:
        raise NoFeasibleLambda(
            f"C({q}, {p}) = {math.comb(q, p)} already exceeds budget {subpack_budget}"
        )
    return best

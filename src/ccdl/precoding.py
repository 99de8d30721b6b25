"""Linear precoders and exact signal-level SINRs with cache cancellation.

Builds MF / ZF / RZF precoding matrices under the average (expectation
based) power normalization, computes the per-user SINRs of one
transmission stage, and checks numerically that cached side information
removes the inter-group component of the received signal exactly.  ZF is
RZF's alpha = 0 member; the precoder H^H R and the Gram-space powers share
one inverse R = (W + alpha I)^-1, so they make one rank decision per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ccdl import analytic
from ccdl.channel import RankDeficient, RngSeed, complex_gaussian, seeded_map, wishart_gram
from ccdl.scheme import ValidatedScheme


class ExactUnavailable(ValueError):
    """No finite-dimension closed form exists for the requested factor."""


class ZfPowerUnbounded(ValueError):
    """ZF's expected power trace Q / (L - Q) is unbounded: the exact factor needs L > Q."""


@dataclass(frozen=True)
class PrecoderKind:
    """Precoder selector; RZF carries its regularization weight alpha."""

    name: str
    alpha: float | None = None

    def __post_init__(self):
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        if name not in analytic.PRECODER_NAMES:
            raise ValueError(f"unknown precoder {self.name!r}")
        if name == "RZF":
            if self.alpha is not None and self.alpha <= 0:
                raise ValueError(f"RZF regularization alpha={self.alpha} must be positive")
        elif self.alpha is not None:
            raise ValueError(f"{name} takes no regularization parameter")

    @classmethod
    def mf(cls) -> "PrecoderKind":
        return cls("MF")

    @classmethod
    def zf(cls) -> "PrecoderKind":
        return cls("ZF")

    @classmethod
    def rzf(cls, alpha: float | None = None) -> "PrecoderKind":
        """RZF; alpha=None defers to the standard choice L / p_t at use."""
        return cls("RZF", alpha)

    def resolve_alpha(self, L: int, p_t: float) -> float:
        if self.alpha is not None:
            return self.alpha
        return L / p_t


def build_precoder(H: np.ndarray, kind: PrecoderKind) -> np.ndarray:
    """L x Q precoding matrix for a Q x L channel.

    MF is the Hermitian transpose, RZF H^H R with R = (H H^H + alpha I)^-1
    and ZF its alpha = 0 member.  R is :func:`gram_powers`' inverse, so ZF
    raises :class:`RankDeficient` on exactly the draws it rejects (Q > L too).
    """
    if kind.name == "MF":
        return H.conj().T
    R, _ = _regularized_inverse(H @ H.conj().T, kind)
    return H.conj().T @ R


def power_factor(
    kind: PrecoderKind,
    scheme: ValidatedScheme,
    mode: str = "exact",
    trials: int | None = None,
    seed: RngSeed | None = None,
    finite_l: bool = False,
) -> float:
    """Power normalization rho = sqrt(p_t / E{Tr{V^H V}}).

    mode="exact" uses the closed-form expectation: p_t/(Q L) for MF and
    the inverse-Wishart trace for ZF.  RZF has no finite-dimension closed
    form, so "exact" returns the large-system value sqrt(p_sq); requesting
    a finite-L exact value (finite_l=True) raises
    :class:`ExactUnavailable`.  mode="montecarlo" estimates the trace
    expectation by a seeded sample mean of :func:`gram_powers`' trace, the
    one the Monte Carlo sum-rate estimator uses, for any precoder;
    singular ZF draws resample under :func:`ccdl.channel.seeded_map`'s
    policy.
    """
    Q, L, p_t = scheme.Q, scheme.L, scheme.p_t
    if mode == "exact":
        if kind.name == "MF":
            return math.sqrt(p_t / (Q * L))
        if kind.name == "ZF":
            if not L > Q:
                raise ZfPowerUnbounded(f"exact ZF power factor needs L > Q, got Q={Q}, L={L}")
            return math.sqrt(p_t * (L - Q) / Q)
        if finite_l:
            raise ExactUnavailable("no finite-L closed form for the RZF power factor; use montecarlo")
        if kind.alpha is not None and not math.isclose(kind.alpha, L / p_t, rel_tol=1e-9):
            raise ExactUnavailable(
                f"RZF asymptotic power factor assumes alpha = L/p_t = {L / p_t:g}, got {kind.alpha:g}"
            )
        return math.sqrt(analytic.rzf_deterministics(scheme.c, p_t).p_sq)
    if mode != "montecarlo":
        raise ValueError(f"mode must be 'exact' or 'montecarlo', got {mode!r}")
    if trials is None or seed is None:
        raise ValueError("montecarlo mode needs trials and seed")

    kind = _resolved(kind, scheme)
    draw, kernel = lambda gen: wishart_gram(gen, 1, Q, L), lambda W: gram_powers(W, kind)[2][0]
    (traces,) = seeded_map(draw, [kernel], trials, seed, 0 if kind.name == "MF" else Q**3)
    return math.sqrt(p_t / (math.fsum(traces) / trials))


def _resolved(kind: PrecoderKind, scheme: ValidatedScheme) -> PrecoderKind:
    if kind.name == "RZF" and kind.alpha is None:
        return PrecoderKind.rzf(kind.resolve_alpha(scheme.L, scheme.p_t))
    return kind


def gram_powers(W: np.ndarray, kind: PrecoderKind, alphas=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-power signal and interference per user, and Tr{V^H V}, from Gram matrices.

    ``W`` stacks Q x Q Gram matrices H H^H (shape (..., Q, Q)); every
    quantity depends on the channel H only through W, since with
    V = H^H R the effective channel is H V = W R: R = I for MF and
    (W + alpha I)^-1 for RZF, with ZF its alpha = 0 member.  User k's signal
    power is |[W R]_kk|^2 and its interference the sum over j != k of
    |[W R]_kj|^2; scaling both by rho^2/G gives the stage SINR.  Returns
    arrays of shape (..., Q), (..., Q) and (...).  ZF's rank rule raises
    :class:`RankDeficient` when W is singular or W R strays from the
    identity; RZF rows skip it.  RZF takes n stacked ``alphas`` in place of
    ``kind.alpha``, adding a leading axis of size n; MF and ZF ignore them.
    """
    if kind.name == "MF":
        return _powers(W, np.trace(W, axis1=-2, axis2=-1).real)
    shift = None if alphas is None else _shift(alphas, W.shape[-1], W.ndim, W.dtype)
    return _inverse_powers(*_regularized_inverse(W, kind, shift))


def _inverse_powers(R: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gram_powers` of a ZF or RZF stack from its inverse R and effective channel M = W R."""
    # not I - alpha R or Tr R - alpha ||R||_F^2: both cancel when alpha = L / p_t is large (low SNR)
    return _powers(M, np.einsum("...ij,...ji->...", R, M).real)


def _powers(M: np.ndarray, trace: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    P = np.abs(M) ** 2
    sig = np.diagonal(P, axis1=-2, axis2=-1).copy()
    return sig, P.sum(axis=-1) - sig, trace


def _regularized_inverse(W: np.ndarray, kind: PrecoderKind, shift=None):
    """R = (W + alpha I)^-1 and the effective channel M = W R, for Gram matrices W.

    ZF is alpha = 0; RZF takes ``kind.alpha``, or ``shift``, a stacked
    alpha I from :func:`_shift`.  A singular W + alpha I raises
    :class:`RankDeficient`, and so does the ZF rank rule: an R that is not
    finite or an M more than 1e-6 from I.
    """
    if kind.name == "ZF":
        shift = 0.0 * np.eye(W.shape[-1])
    elif shift is None:
        if kind.alpha is None:
            raise ValueError("RZF kind needs alpha resolved (use PrecoderKind.rzf(alpha) or resolve_alpha)")
        shift = kind.alpha * np.eye(W.shape[-1])
    try:
        R = np.linalg.inv(W + shift)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"singular Gram matrix in {kind.name} precoder") from exc
    M = W @ R
    if kind.name == "ZF":
        _zf_rank_rule(R, M)
    return R, M


def _shift(alphas, Q: int, ndim: int, dtype) -> np.ndarray:
    """One alpha I per entry of ``alphas``, stacked on a new leading axis, for Gram stacks W of ``dtype`` with ``ndim`` axes.

    Built in the type of W + alpha I, so that W plus it is W + alpha I bit
    for bit without casting a float alpha I to W's complex type on every
    addition; a caller that adds it to many draws builds it once.
    """
    scale = np.reshape(alphas, (-1,) + (1,) * ndim)
    return (scale * np.eye(Q)).astype(np.result_type(dtype, np.float64))


def _zf_rank_rule(R: np.ndarray, M: np.ndarray) -> None:
    """Raise :class:`RankDeficient` where ZF's inverse R is not finite or M = W R is more than 1e-6 from I."""
    err = np.abs(M - np.eye(M.shape[-1])).max()
    if not (np.isfinite(R).all() and err <= 1e-6):
        raise RankDeficient(f"ZF inverse not finite or identity residual {err:.2e} > 1e-6 on a near-singular draw")


def stage_sinrs(channels, kind: PrecoderKind, scheme: ValidatedScheme, rho: float | None = None) -> np.ndarray:
    """Per-user SINRs of one stage: G groups, Q users each (G*Q values).

    ``channels`` holds one Q x L matrix per served group.  Inter-group
    terms are absent by construction: each user cancels them with cached
    content and composite CSI, leaving only intra-group interference and
    unit-variance noise.  ``rho`` defaults to the exact power factor (the
    large-system one for RZF).
    """
    channels = list(channels)
    if len(channels) != scheme.G:
        raise ValueError(f"expected {scheme.G} group channels, got {len(channels)}")
    kind = _resolved(kind, scheme)
    if rho is None:
        rho = power_factor(kind, scheme, mode="exact")
    s = rho * rho / scheme.G
    grams = np.stack([H @ H.conj().T for H in map(np.asarray, channels)])
    sig, intf, _ = gram_powers(grams, kind)
    return (s * sig / (1.0 + s * intf)).ravel()


def cancellation_residual(channels, kind: PrecoderKind, scheme: ValidatedScheme, rng: RngSeed) -> float:
    """Largest relative error of cache-aided inter-group cancellation.

    Simulates the composite transmit signal of one stage with random
    unit-variance symbols, reconstructs each user's inter-group component
    from the composite coefficients {h^T v * rho}, subtracts it from the
    full received signal, and compares against the intra-group-only
    signal.  The two agree up to floating point error for every precoder;
    with a single served group the residual is identically zero.
    """
    channels = [np.asarray(H) for H in channels]
    if len(channels) != scheme.G:
        raise ValueError(f"expected {scheme.G} group channels, got {len(channels)}")
    kind = _resolved(kind, scheme)
    rho = power_factor(kind, scheme, mode="exact")
    G, Q = scheme.G, scheme.Q
    gen = rng.generator()
    symbols = [complex_gaussian(gen, Q, 1)[:, 0] for _ in range(G)]
    precoders = [build_precoder(H, kind) for H in channels]

    scale = rho / math.sqrt(G)
    contributions = [scale * (V @ s) for V, s in zip(precoders, symbols)]
    x = np.sum(contributions, axis=0)

    worst = 0.0
    largest_signal = 0.0
    for i, H in enumerate(channels):
        received = H @ x
        intra = H @ contributions[i]
        inter = np.zeros(Q, dtype=complex)
        for j in range(G):
            if j != i:
                # reconstruction uses the composite coefficients
                # h_{i,k}^T v_{j,k'} scaled by rho_j, as the receivers would
                inter += scale * ((H @ precoders[j]) @ symbols[j])
        worst = max(worst, float(np.max(np.abs(received - inter - intra))))
        largest_signal = max(largest_signal, float(np.max(np.abs(intra))))
    return worst / max(1.0, largest_signal)

"""Linear precoders and exact signal-level SINRs with cache cancellation.

Builds MF / ZF / RZF precoding matrices under the average (expectation
based) power normalization, computes the per-user SINRs of one
transmission stage, and checks numerically that cached side information
removes the inter-group component of the received signal exactly.
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

    MF is the Hermitian transpose, ZF the right pseudo-inverse
    H^H (H H^H)^-1, RZF the regularized variant with alpha I added to the
    Gram matrix.  ZF raises :class:`RankDeficient` on singular draws.
    """
    if kind.name == "MF":
        return H.conj().T
    gram = H @ H.conj().T
    if kind.name == "ZF":
        try:
            sol = np.linalg.solve(gram, H)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular Gram matrix in ZF precoder") from exc
        if not np.all(np.isfinite(sol)):
            raise RankDeficient("non-finite ZF solution")
        return sol.conj().T
    if kind.alpha is None:
        raise ValueError("RZF kind needs alpha resolved (use PrecoderKind.rzf(alpha) or resolve_alpha)")
    Q = H.shape[0]
    return np.linalg.solve(gram + kind.alpha * np.eye(Q), H).conj().T


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
    expectation by a seeded sample mean for any precoder.
    """
    Q, L, p_t = scheme.Q, scheme.L, scheme.p_t
    if mode == "exact":
        if kind.name == "MF":
            return math.sqrt(p_t / (Q * L))
        if kind.name == "ZF":
            if not L > Q:
                raise ValueError(f"exact ZF power factor needs L > Q, got Q={Q}, L={L}")
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

    alpha = kind.resolve_alpha(L, p_t) if kind.name == "RZF" else None

    def trace_one(W: np.ndarray) -> float:
        if kind.name == "MF":
            return float(np.trace(W).real)
        s2 = np.clip(np.linalg.eigvalsh(W), 0.0, None)
        if kind.name == "ZF":
            return float(np.sum(1.0 / s2))
        return float(np.sum(s2 / (s2 + alpha) ** 2))

    mean_trace = math.fsum(seeded_map(lambda gen: wishart_gram(gen, 1, Q, L)[0], [trace_one], trials, seed)[0]) / trials
    return math.sqrt(p_t / mean_trace)


def _resolved(kind: PrecoderKind, scheme: ValidatedScheme) -> PrecoderKind:
    if kind.name == "RZF" and kind.alpha is None:
        return PrecoderKind.rzf(kind.resolve_alpha(scheme.L, scheme.p_t))
    return kind


def gram_powers(W: np.ndarray, kind: PrecoderKind, alphas=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-power signal and interference per user, and Tr{V^H V}, from Gram matrices.

    ``W`` stacks Q x Q Gram matrices H H^H (shape (..., Q, Q)); every
    quantity depends on the channel H only through W, since with
    V = H^H R the effective channel is H V = W R: R = I for MF, W^-1 for
    ZF and (W + alpha I)^-1 for RZF.  User k's signal power is
    |[W R]_kk|^2 and its interference the sum over j != k of |[W R]_kj|^2;
    scaling both by rho^2/G gives the stage SINR.  Returns arrays of shape
    (..., Q), (..., Q) and (...).  ZF raises :class:`RankDeficient` when
    W is singular or W R strays from the identity.  RZF takes n stacked
    ``alphas`` in place of ``kind.alpha``, adding a leading axis of size n.
    """
    if kind.name == "MF":
        M = W
        trace = np.trace(W, axis1=-2, axis2=-1).real
    else:
        eye = np.eye(W.shape[-1])
        if kind.name == "ZF":
            try:
                R = np.linalg.inv(W)
            except np.linalg.LinAlgError as exc:
                raise RankDeficient("singular Gram matrix in ZF precoder") from exc
            if not np.all(np.isfinite(R)):
                raise RankDeficient("non-finite ZF inverse")
            M = W @ R
            err = np.max(np.abs(M - eye))
            if err > 1e-6:
                raise RankDeficient(f"ZF identity residual {err:.2e} on a near-singular draw")
            trace = np.trace(R, axis1=-2, axis2=-1).real
        else:
            alpha = kind.alpha if alphas is None else np.reshape(alphas, (-1,) + (1,) * W.ndim)
            if alpha is None:
                raise ValueError("RZF kind needs alpha resolved (use PrecoderKind.rzf(alpha) or resolve_alpha)")
            # not I - alpha R or Tr R - alpha ||R||_F^2: both cancel when
            # alpha = L / p_t is large (low SNR)
            R = np.linalg.inv(W + alpha * eye)
            M = W @ R
            trace = np.einsum("...ij,...ji->...", R, M).real
    P = np.abs(M) ** 2
    sig = np.diagonal(P, axis1=-2, axis2=-1).copy()
    return sig, P.sum(axis=-1) - sig, trace


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

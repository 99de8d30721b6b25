"""Linear precoders and exact signal-level SINRs with cache cancellation.

Builds MF / ZF / RZF precoding matrices under the average (expectation
based) power normalization, computes the per-user SINRs of one
transmission stage, and checks numerically that cached side information
removes the inter-group component of the received signal exactly.  ZF is
RZF's alpha = 0 member; the precoder H^H R, the Gram-space powers and the
Monte Carlo inverse-Wishart trace share one inverse R = (W + alpha I)^-1,
which alone makes the rank decision: singular W + alpha I, or a ZF member
whose W R is not finite or strays from I by more than 1e-6, raises
:class:`RankDeficient`.  From Q = 48 on, R is a Cholesky inverse made in
place through numpy's bundled LAPACKE (``np.linalg.inv`` below that, or
without it), and the powers are read from W and R alone, without the
product W R.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from ccdl import _parallel, analytic
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
    return H.conj().T @ _regularized_inverse(H @ H.conj().T, _alphas(kind))


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
    V = H^H R the effective channel is M = H V = W R: R = I for MF and
    (W + alpha I)^-1 for RZF, with ZF its alpha = 0 member.  User k's signal
    power is |M_kk|^2 and its interference the sum over j != k of
    |M_kj|^2; scaling both by rho^2/G gives the stage SINR.  Returns
    arrays of shape (..., Q), (..., Q) and (...).  ZF's rank rule raises
    :class:`RankDeficient` when W is singular or W R strays from the
    identity; RZF rows skip it.  RZF takes n stacked ``alphas`` in place of
    ``kind.alpha``, adding a leading axis of size n; MF and ZF ignore them.
    An alpha of 0 in the stack is ZF's row, and its rule rejects the stack.
    """
    W = np.ascontiguousarray(W, dtype=complex)
    if kind.name == "MF":
        d = np.diagonal(W, axis1=-2, axis2=-1).real
        return d * d, _off_diagonal_power(W, 1.0), d.sum(axis=-1)
    alphas = _alphas(kind, alphas)
    return _inverse_powers(W, _regularized_inverse(W, alphas), alphas)


def _alphas(kind: PrecoderKind, alphas=None) -> np.ndarray:
    """The regularization weights of a ZF or RZF kind as an array: 0 for ZF, ``kind.alpha`` or ``alphas`` for RZF."""
    if kind.name == "ZF":
        return np.zeros(())
    if alphas is None:
        if kind.alpha is None:
            raise ValueError("RZF kind needs alpha resolved (use PrecoderKind.rzf(alpha) or resolve_alpha)")
        alphas = kind.alpha
    return np.asarray(alphas, dtype=float)


def _inverse_powers(W: np.ndarray, R: np.ndarray, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gram_powers` of a ZF or RZF stack from W and R = (W + alpha I)^-1 alone, one row per alpha.

    M = W R = I - alpha R, so M's off-diagonal entries are -alpha R_kj exactly: interference is the
    masked sum of |alpha R_kj|^2, which keeps its relative accuracy at every SNR, where a row sum
    minus |M_kk|^2 cancels as the SNR rises, and does not overflow, where alpha^2 |R|^2 does at
    -1545 dB.  M_kk is row k of W against row k of R, real as both are Hermitian, and
    Tr{R W R} = sum_k R_kk M_kk - sum_{j != k} alpha |R_kj|^2.
    """
    a = np.reshape(alphas, alphas.shape + (1,) * (W.ndim - 1))
    m = np.multiply(W.view(float), R.view(float), out=_work("powers", R.shape[:-1] + (2 * W.shape[-1],), float))
    m_kk = m.sum(axis=-1)
    intf = _off_diagonal_power(R, a[..., None])
    per_user = np.diagonal(R, axis1=-2, axis2=-1).real * m_kk
    per_user -= np.divide(intf, a, out=np.zeros_like(intf), where=a > 0)
    return m_kk * m_kk, intf, per_user.sum(axis=-1)


def _off_diagonal_power(X: np.ndarray, scale) -> np.ndarray:
    """Sum over j != k of |scale X_kj|^2, per row k of a contiguous complex stack X (the diagonal masked, not subtracted)."""
    Q = X.shape[-1]
    P = np.multiply(X.view(float), scale, out=_work("powers", X.shape[:-1] + (2 * Q,), float))
    np.square(P, out=P)
    flat = P.reshape(P.shape[:-2] + (2 * Q * Q,))
    flat[..., :: 2 * Q + 2] = flat[..., 1 :: 2 * Q + 2] = 0.0  # real and imaginary parts of X_kk
    return P.sum(axis=-1)


_THREAD_WORK = threading.local()
_WORK_BYTES = 2**23  # largest work array a thread keeps between calls; past it the Q^3 inverse dwarfs faulting it in


def _work(name: str, shape: tuple, dtype) -> np.ndarray:
    """The calling thread's work array ``name`` of this rank, reused while its shape holds.

    Kept per thread so that a trial's arrays are not handed back to the system and faulted in again
    by the next trial; per rank so that a pass's MF powers (G, Q, 2Q) and its stacked ZF and RZF
    powers (n, G, Q, 2Q) do not evict each other.  Contents never carry over between calls.
    """
    kept = _THREAD_WORK.__dict__
    array = kept.get((name, len(shape)))
    if array is None or array.shape != shape:
        array = np.empty(shape, dtype)
        if array.nbytes <= _WORK_BYTES:
            kept[name, len(shape)] = array
    return array


def _regularized_inverse(W: np.ndarray, alphas) -> np.ndarray:
    """R = (W + alpha I)^-1 for a stack of Hermitian Gram matrices W, one stack per alpha.

    Returns shape ``np.shape(alphas) + W.shape``, in the calling thread's work array: it holds until the
    thread's next call.  ZF is alpha = 0.  From Q = ``_CHOLESKY_MIN_Q`` on, each W + alpha I is inverted
    in place by Cholesky (LAPACK zpotrf, then zpotri), reading W's lower triangle; a matrix that is not
    positive definite raises :class:`RankDeficient`.  Below it, or where numpy bundles no LAPACKE,
    ``np.linalg.inv`` inverts instead and raises on exactly singular matrices alone.  On either path
    ZF's rank rule then reads every alpha = 0 member: where its W R is not finite or more than 1e-6
    from I, the whole call raises :class:`RankDeficient`.  This is the only rank decision in ccdl.
    """
    alphas = np.asarray(alphas, dtype=float)
    Q = W.shape[-1]
    R = _work("inverse", alphas.shape + W.shape, complex)
    np.copyto(R, W)
    diagonal = R.reshape(R.shape[:-2] + (Q * Q,))[..., :: Q + 1]
    diagonal += np.reshape(alphas, alphas.shape + (1,) * (W.ndim - 1))
    lapack = _parallel.cholesky_lapack() if Q >= _CHOLESKY_MIN_Q else None
    if lapack is None:
        try:
            R[...] = np.linalg.inv(R)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular Gram matrix") from exc
    else:
        potrf, potri = lapack
        # Column-major 'U' on the row-major buffer is the row-major lower triangle: the same Hermitian inverse,
        # without the transposed copy LAPACKE's row-major entry makes on every call.
        start, step = R.ctypes.data, 16 * Q * Q
        with _parallel.one_blas_thread():  # OpenBLAS's zpotri rounds differently on more threads, even at Q = 8
            for address in range(start, start + R.nbytes, step):
                if potrf(_COL_MAJOR, b"U", Q, address, Q) or potri(_COL_MAJOR, b"U", Q, address, Q):
                    raise RankDeficient("Gram matrix plus alpha I not positive definite")
        upper = np.conjugate(np.swapaxes(R, -1, -2), out=_work("transpose", R.shape, complex))
        np.copyto(R, upper, where=_strictly_upper(Q))
    zf = alphas == 0
    if zf.any():
        err = np.abs(W @ R[zf] - np.eye(Q)).max()
        if not err <= 1e-6:
            raise RankDeficient(f"ZF inverse not finite or identity residual {err:.2e} > 1e-6 on a near-singular draw")
    return R


_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR
# Least Q inverted by Cholesky.  Alone it wins at every Q (218 against 291 us per (6, 5, 16, 16) stack), but
# it makes two ctypes calls per matrix where inv makes one call per stack, and on trial threads inv/Cholesky
# ms per trial read 0.47 at mc-hardening's (5, 16, 256) x 6 alphas, 0.85 at Q = 24, 0.89 at 32, 1.05 at 48
# and 1.28 at 64 (c = 1/2 RZF; tools/thread_gate.py, BENCH_21.json).
_CHOLESKY_MIN_Q = 48


@functools.lru_cache(maxsize=64)
def _strictly_upper(Q: int) -> np.ndarray:
    mask = np.triu(np.ones((Q, Q), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


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

"""Seedable Rayleigh channel generation and random-matrix estimators.

Channels are Q x L matrices of i.i.d. circularly-symmetric complex
Gaussians with unit variance (1/2 per real component).  Monte Carlo
estimators need only their Q x Q Gram matrices W = H H^H, which
:func:`wishart_gram` draws directly.  All randomness is counter-based: a
:class:`RngSeed` keys an independent Philox stream, so any
(seed, stream_id) pair reproduces the same draw regardless of execution
order or parallelism.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ccdl._parallel import map_ordered, map_threads, one_blas_thread

_U64 = 2**64


class RankDeficient(ArithmeticError):
    """A trial's draw is (numerically) rank deficient; the trial redraws."""


class SingularDraw(RuntimeError):
    """Rank-deficient draws exceeded the resample cap or the singular budget."""


@dataclass(frozen=True)
class RngSeed:
    """Key for one reproducible random stream.

    ``substream(t)`` derives the stream for trial ``t``; it is a pure
    function of (seed, stream_id, t), which makes Monte Carlo trials
    independently reproducible and safe to fan out across workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < _U64 and 0 <= self.stream_id < _U64):
            raise ValueError("seed and stream_id must be 64-bit unsigned integers")

    def substream(self, offset: int) -> "RngSeed":
        return RngSeed(self.seed, (self.stream_id + offset) % _U64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def complex_gaussian(gen: np.random.Generator, Q: int, L: int) -> np.ndarray:
    """Q x L i.i.d. CN(0, 1) draws from an existing generator.

    Real and imaginary parts are independent N(0, 1/2); the real block is
    drawn first so that moments are reproducible under any generator with
    the same normal transform.
    """
    re = gen.standard_normal((Q, L))
    im = gen.standard_normal((Q, L))
    return (re + 1j * im) * np.sqrt(0.5)


def draw_channel(Q: int, L: int, rng: RngSeed) -> np.ndarray:
    """One Rayleigh channel realization, deterministic given ``rng``."""
    if Q < 1 or L < 1:
        raise ValueError(f"Q={Q} and L={L} must be positive")
    return complex_gaussian(rng.generator(), Q, L)


@functools.lru_cache(maxsize=64)
def _bartlett_layout(Q: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat float-view indices of a Q x m factor's strictly lower entries (real, then imaginary parts) and diagonal."""
    rows, cols = np.tril_indices(Q, -1, m)
    lower, diag = ((rows * 2 * m + 2 * cols) + np.arange(2)[:, None]).ravel(), np.arange(m) * (2 * m + 2)
    lower.flags.writeable = diag.flags.writeable = False
    return lower, diag


def wishart_gram(gen: np.random.Generator, G: int, Q: int, L: int) -> np.ndarray:
    """G independent Gram matrices W = H H^H of Q x L Rayleigh channels.

    Bartlett decomposition (Goodman 1963; Edelman & Rao 2005): H = T U
    with U Haar and T a Q x m lower-trapezoidal factor, m = min(Q, L),
    whose diagonal T_ii (i from 0) is sqrt(Gamma(L - i, 1)) and whose
    strictly lower entries are CN(0, 1).  W = T T^H costs about Q m
    normals instead of the 2 Q L of H, and covers Q > L (rank-L W) on the
    same path.  Draw order, fixed for reproducibility: one (G, 2, n)
    standard-normal block (real, imaginary parts of the n strictly lower
    entries), then one (G, m) standard-gamma block.
    """
    if G < 1 or Q < 1 or L < 1:
        raise ValueError(f"G={G}, Q={Q} and L={L} must be positive")
    m = min(Q, L)
    lower, diag = _bartlett_layout(Q, m)
    z = gen.standard_normal((G, lower.size))
    T = np.zeros((G, Q, m), dtype=complex)
    parts = T.view(float).reshape(G, -1)
    parts[:, lower] = z * math.sqrt(0.5)
    parts[:, diag] = np.sqrt(gen.standard_gamma(np.arange(L, L - m, -1, dtype=float), (G, m)))
    return T @ T.conj().transpose(0, 2, 1)


_RESAMPLE_CAP = 8  # redraws allowed within one trial
_SINGULAR_BUDGET = 1e-3  # fraction of trials allowed to need a redraw
_THREAD_MIN_Q = 32  # narrowest draw run on threads: on 2 vCPUs they lost at Q = 16, won from 32 (BENCH_7.json)


def seeded_map(draw, kernels, trials: int, seed: RngSeed) -> list[list]:
    """Each kernel's results over trials 0..trials-1: one list per kernel, in trial order.

    Trial t draws lazily from the generator of ``seed.substream(t)``: draw
    i is the i-th ``draw(gen)`` call, made once and shared, so draws are a
    pure function of (seed, t).  Each kernel takes the first draw it
    accepts; raising :class:`RankDeficient` moves it to the next.  So each
    kernel's results are exactly those it gets running alone.  For any
    kernel, more than 8 redraws in one trial, or redraws in more than 0.1%
    of the trials, raise :class:`SingularDraw`: that signals a defect
    rather than the measure-zero event a singular draw should be.  If
    trial 0's first draw stacks Q x Q matrices with Q >= _THREAD_MIN_Q,
    trials 1.. run through :func:`ccdl._parallel.map_threads`, with the
    serial loop's results and first error.  Every trial, trial 0
    included, runs under :func:`ccdl._parallel.one_blas_thread`.
    """

    def one_trial(t: int, draws: list) -> list:
        gen = seed.substream(t).generator()

        def first_accepted(kernel):
            for resamples in range(_RESAMPLE_CAP + 1):
                if resamples == len(draws):
                    draws.append(draw(gen))
                try:
                    return kernel(draws[resamples]), resamples
                except RankDeficient:
                    pass
            raise SingularDraw(f"trial {t}: rank deficient on {_RESAMPLE_CAP + 1} draws in a row")

        return [first_accepted(kernel) for kernel in kernels]

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not kernels:
        return []
    with one_blas_thread():
        first = []
        rows = [one_trial(0, first)]
        width = np.shape(first[0])[-1] if np.ndim(first[0]) else 0
        run = map_threads if width >= _THREAD_MIN_Q else map_ordered
        rows += run(lambda t: one_trial(t, []), range(1, trials))
    columns = list(zip(*rows))
    resampled = max((sum(1 for _, r in column if r) for column in columns), default=0)
    if resampled > _SINGULAR_BUDGET * trials:
        raise SingularDraw(f"{resampled} of {trials} trials resampled, over the {_SINGULAR_BUDGET:.1%} budget")
    return [[value for value, _ in column] for column in columns]


def wishart_inv_trace_mc(Q: int, L: int, trials: int, rng: RngSeed) -> float:
    """Monte Carlo estimate of E{Tr{(H H^H)^-1}} for a Q x L channel H.

    Requires L > Q so the Gram matrix is almost surely invertible; the
    estimate converges to Q / (L - Q).  Singular draws are resampled
    under the policy of :func:`seeded_map`.
    """
    if not L > Q:
        raise ValueError(f"need L > Q for an invertible Gram matrix, got Q={Q}, L={L}")

    def inv_trace(W: np.ndarray) -> float:
        w = np.linalg.eigvalsh(W)
        if not w[0] > w[-1] * 1e-12:
            raise RankDeficient("singular Gram matrix")
        return float(np.sum(1.0 / w))

    return math.fsum(seeded_map(lambda gen: wishart_gram(gen, 1, Q, L)[0], [inv_trace], trials, rng)[0]) / trials


def resolvent_trace(H: np.ndarray, z: float) -> float:
    """Normalized resolvent trace (1/L) Tr{(z I_L + (1/L) H^H H)^-1}.

    Computed from the singular values of H rather than a direct inverse,
    which stays stable as Q/L approaches 1.  Always lies in (0, 1/z].
    """
    if z <= 0:
        raise ValueError(f"z={z} must be positive")
    L = H.shape[1]
    s = np.linalg.svd(H, compute_uv=False)
    lam = (s * s) / L
    return float((np.sum(1.0 / (lam + z)) + (L - lam.size) / z) / L)

"""Precoder construction, power normalization, SINRs, cancellation."""

import math

import numpy as np
import pytest

from ccdl import _parallel, precoding
from ccdl.analytic import rzf_deterministics
from ccdl.channel import RngSeed, SingularDraw, draw_channel, wishart_gram
from ccdl.precoding import (
    ExactUnavailable,
    PrecoderKind,
    RankDeficient,
    build_precoder,
    cancellation_residual,
    gram_powers,
    power_factor,
    stage_sinrs,
)
from ccdl.scheme import SchemeConfig, scheme_for_gain, validate


def _raises_rank_deficient(call) -> bool:
    try:
        call()
    except RankDeficient:
        return True
    return False


class TestBuildPrecoder:
    def test_zf_defining_identity(self):
        for t in range(5):
            H = draw_channel(12, 48, RngSeed(1, t))
            V = build_precoder(H, PrecoderKind.zf())
            assert np.max(np.abs(H @ V - np.eye(12))) < 1e-9

    def test_mf_on_identity_channel(self):
        H = np.eye(6, dtype=complex)
        assert np.array_equal(build_precoder(H, PrecoderKind.mf()), np.eye(6, dtype=complex))

    def test_rzf_limits_to_zf(self):
        H = draw_channel(4, 16, RngSeed(2))
        V_zf = build_precoder(H, PrecoderKind.zf())
        V_rzf = build_precoder(H, PrecoderKind.rzf(1e-9))
        rel = np.linalg.norm(V_rzf - V_zf) / np.linalg.norm(V_zf)
        assert rel < 1e-6

    def test_rzf_needs_alpha(self):
        H = draw_channel(4, 16, RngSeed(2))
        with pytest.raises(ValueError):
            build_precoder(H, PrecoderKind.rzf())

    def test_zf_rank_rule_rejects_more_streams_than_antennas(self):
        # H H^H has rank L < Q, in H space as in Gram space
        H = draw_channel(6, 4, RngSeed(3))
        with pytest.raises(RankDeficient):
            build_precoder(H, PrecoderKind.zf())
        with pytest.raises(RankDeficient):
            gram_powers(H @ H.conj().T, PrecoderKind.zf())

    def test_zf_rank_decision_matches_stage_sinrs(self):
        # rows 1e-12 ... 1e-4 apart straddle ZF's rank rule; the precoder and the
        # Gram-space SINRs take one inverse of H H^H, so they reject the same draws
        zf, scheme = PrecoderKind.zf(), scheme_for_gain(16, 10.0, 1, 8, precoder="ZF")
        outcomes, disagree = set(), []
        for t, offset in enumerate(np.repeat(np.geomspace(1e-12, 1e-4, 400), 5)):
            H = draw_channel(8, 16, RngSeed(90, t))
            H[1] = H[0] + offset * draw_channel(1, 16, RngSeed(91, t))[0]
            rejected = _raises_rank_deficient(lambda: build_precoder(H, zf))
            outcomes.add(rejected)
            if rejected != _raises_rank_deficient(lambda: stage_sinrs([H], zf, scheme)):
                disagree.append(t)
        assert outcomes == {True, False}
        assert disagree == []

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            PrecoderKind("DPC")
        with pytest.raises(ValueError):
            PrecoderKind("ZF", alpha=1.0)
        with pytest.raises(ValueError):
            PrecoderKind.rzf(-1.0)


class TestPowerFactor:
    def test_mf_exact(self):
        scheme = scheme_for_gain(64, 10.0, 5, 16, precoder="MF")
        assert power_factor(PrecoderKind.mf(), scheme) == pytest.approx(math.sqrt(10 / 1024), rel=1e-12)
        assert power_factor(PrecoderKind.mf(), scheme) == pytest.approx(0.0988212, abs=1e-7)

    def test_zf_exact_wishart(self):
        scheme = scheme_for_gain(64, 10.0, 5, 16, precoder="ZF")
        rho = power_factor(PrecoderKind.zf(), scheme)
        assert rho * rho == pytest.approx(30.0, rel=1e-12)

    def test_zf_montecarlo_matches_wishart_oracle(self):
        scheme = scheme_for_gain(64, 10.0, 5, 16, precoder="ZF")
        rho = power_factor(PrecoderKind.zf(), scheme, mode="montecarlo", trials=3000, seed=RngSeed(5))
        assert rho * rho == pytest.approx(30.0, rel=0.02)

    def test_mf_power_scaling(self):
        low = power_factor(PrecoderKind.mf(), scheme_for_gain(64, 10.0, 5, 16, precoder="MF"))
        high = power_factor(PrecoderKind.mf(), scheme_for_gain(64, 20.0, 5, 16, precoder="MF"))
        assert high**2 == pytest.approx(10.0 * low**2, rel=1e-12)

    def test_rzf_exact_is_asymptotic_value(self):
        scheme = scheme_for_gain(128, 10.0, 5, 64, precoder="RZF")
        rho = power_factor(PrecoderKind.rzf(), scheme)
        assert rho * rho == pytest.approx(rzf_deterministics(0.5, 10.0).p_sq, rel=1e-12)

    def test_rzf_finite_exact_unavailable(self):
        scheme = scheme_for_gain(128, 10.0, 5, 64, precoder="RZF")
        with pytest.raises(ExactUnavailable):
            power_factor(PrecoderKind.rzf(), scheme, finite_l=True)

    def test_rzf_montecarlo_near_asymptotic(self):
        scheme = scheme_for_gain(128, 10.0, 5, 64, precoder="RZF")
        rho = power_factor(PrecoderKind.rzf(), scheme, mode="montecarlo", trials=2000, seed=RngSeed(6))
        assert rho * rho == pytest.approx(17.573, rel=0.02)

    def test_zf_montecarlo_singular_draws_resample_then_fail(self):
        # every Gram draw is singular at Q > L; an infinite trace must not read as rho = 0
        scheme = scheme_for_gain(8, 10.0, 2, 12, precoder="MF")
        with pytest.raises(SingularDraw):
            power_factor(PrecoderKind.zf(), scheme, mode="montecarlo", trials=50, seed=RngSeed(1))

    @pytest.mark.parametrize(
        "kind, trace",
        [
            (PrecoderKind.mf(), lambda lam, alpha: np.sum(lam)),
            (PrecoderKind.zf(), lambda lam, alpha: np.sum(1.0 / lam)),
            (PrecoderKind.rzf(), lambda lam, alpha: np.sum(lam / (lam + alpha) ** 2)),
            (PrecoderKind.rzf(0.5), lambda lam, alpha: np.sum(lam / (lam + alpha) ** 2)),
        ],
        ids=["MF", "ZF", "RZF", "RZF-alpha"],
    )
    def test_montecarlo_matches_eigenvalue_traces(self, kind, trace):
        # Tr{V^H V} from the eigenvalues lam of each trial's own Gram draw
        L, Q, trials, seed = 24, 8, 60, RngSeed(13)
        scheme = scheme_for_gain(L, 10.0, 2, Q, precoder=kind.name)
        alpha = kind.resolve_alpha(L, scheme.p_t)
        traces = [
            trace(np.linalg.eigvalsh(wishart_gram(seed.substream(t).generator(), 1, Q, L)[0]), alpha)
            for t in range(trials)
        ]
        expected = math.sqrt(scheme.p_t / (math.fsum(traces) / trials))
        got = power_factor(kind, scheme, mode="montecarlo", trials=trials, seed=seed)
        assert got == pytest.approx(expected, rel=1e-12)


def _h_space_precoder(H: np.ndarray, kind: PrecoderKind) -> np.ndarray:
    """Reference L x Q precoder by ``solve`` against H, independent of build_precoder's ``inv``."""
    if kind.name == "MF":
        return H.conj().T
    alpha = 0.0 if kind.name == "ZF" else kind.alpha
    return np.linalg.solve(H @ H.conj().T + alpha * np.eye(H.shape[0]), H).conj().T


def _h_space_powers(H: np.ndarray, kind: PrecoderKind):
    """Reference powers from the L x Q reference precoder itself: H V, its rows, Tr{V^H V}."""
    V = _h_space_precoder(H, kind)
    P = np.abs(H @ V) ** 2
    sig = np.diagonal(P).copy()
    return sig, P.sum(axis=1) - sig, float(np.sum(np.abs(V) ** 2))


class TestGramPowers:
    @pytest.mark.parametrize(
        "kind, Q, L",
        [
            (PrecoderKind.mf(), 16, 64),
            (PrecoderKind.mf(), 8, 4),  # MF allows more streams than antennas
            (PrecoderKind.zf(), 16, 64),
            (PrecoderKind.rzf(64 / 10.0), 16, 64),
            (PrecoderKind.rzf(64 * 1e6), 16, 64),  # low SNR: alpha = L / p_t at -60 dB
            (PrecoderKind.rzf(0.01), 16, 64),
        ],
        ids=["mf", "mf-Q>L", "zf", "rzf", "rzf-low-snr", "rzf-high-snr"],
    )
    def test_matches_h_space_reference(self, kind, Q, L):
        # every group of a batched call, and build_precoder on that group's H, agrees
        # to 1e-12 with a reference precoder solved in H space, relative to the group's
        # largest signal power (powers), its trace and the reference's largest entry
        channels = [draw_channel(Q, L, RngSeed(12, g)) for g in range(3)]
        sig, intf, trace = gram_powers(np.stack([H @ H.conj().T for H in channels]), kind)
        assert sig.shape == intf.shape == (3, Q) and trace.shape == (3,)
        for g, H in enumerate(channels):
            ref_sig, ref_intf, ref_trace = _h_space_powers(H, kind)
            scale = np.max(ref_sig)
            assert np.max(np.abs(sig[g] - ref_sig)) <= 1e-12 * scale
            assert np.max(np.abs(intf[g] - ref_intf)) <= 1e-12 * scale
            assert abs(trace[g] - ref_trace) <= 1e-12 * ref_trace
            ref_V = _h_space_precoder(H, kind)
            assert np.max(np.abs(build_precoder(H, kind) - ref_V)) <= 1e-12 * np.max(np.abs(ref_V))

    def test_rzf_needs_alpha(self):
        with pytest.raises(ValueError):
            gram_powers(np.eye(4, dtype=complex), PrecoderKind.rzf())

    @pytest.mark.parametrize("G, Q, L", [(5, 16, 256), (5, 64, 128)])
    def test_zf_is_the_alpha_zero_row(self, G, Q, L):
        # an alpha = 0 row stacked with RZF rows is ZF bit for bit, and leaves the RZF rows bit-equal
        W = wishart_gram(RngSeed(14).generator(), G, Q, L)
        alphas = [0.0, L / 10.0, L / 1e3]
        stacked = gram_powers(W, PrecoderKind.rzf(), alphas)
        solos = [gram_powers(W, PrecoderKind.zf())] + [gram_powers(W, PrecoderKind.rzf(a)) for a in alphas[1:]]
        for row, solo in enumerate(solos):
            assert all(np.array_equal(whole[row], part) for whole, part in zip(stacked, solo))
        # ZF takes RZF's trace Tr(R W R), which equals Tr W^-1 = sum 1/lambda
        exact = np.sum(1.0 / np.linalg.eigvalsh(W), axis=-1)
        assert np.max(np.abs(solos[0][2] - exact) / exact) <= 1e-13


def _eigh_powers(W: np.ndarray, alpha: float):
    """Reference RZF powers of one Gram matrix from its eigendecomposition W = U diag(lam) U^H.

    M = U diag(f) U^H and alpha R = U diag(g) U^H with f = lam / (lam + alpha) and g = alpha / (lam + alpha),
    and M's off-diagonal entries are -alpha R's: they are read from whichever of the two has the smaller norm,
    so that neither SNR end loses them to rounding of the other's unit-size entries.
    """
    lam, U = np.linalg.eigh(W)
    f, g = lam / (lam + alpha), alpha / (lam + alpha)
    m_kk = (np.abs(U) ** 2) @ f
    off = np.abs((U * (f if f.max() <= g.max() else g)) @ U.conj().T) ** 2
    np.fill_diagonal(off, 0.0)
    return m_kk**2, off.sum(axis=-1), np.sum(lam / (lam + alpha) ** 2)


def _counted_lapack(monkeypatch) -> list:
    """Record each LAPACK call that _regularized_inverse makes from now on."""
    lapack = _parallel.cholesky_lapack()
    if lapack is None:
        pytest.skip("numpy bundles no LAPACKE here")
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn)
            return fn(*args)

        return call

    monkeypatch.setattr(_parallel, "cholesky_lapack", lambda: tuple(map(counted, lapack)))
    return calls


class TestCholeskyInverse:
    @pytest.mark.parametrize("G, Q, L", [(5, 16, 32), (5, 64, 128)])
    def test_powers_match_eigh_reference(self, monkeypatch, G, Q, L):
        # signal, interference and trace within 1e-12 relative from -100 to 120 dB, below and above the Cholesky
        # threshold; a row sum minus |M_kk|^2 lost interference to cancellation (1e-4 at 60 dB, all of it at 90)
        calls = _counted_lapack(monkeypatch)
        W = wishart_gram(RngSeed(21).generator(), G, Q, L)
        for snr_db in range(-100, 121, 10):
            alpha = L / 10 ** (snr_db / 10)
            got = gram_powers(W, PrecoderKind.rzf(alpha))
            want = [np.stack(part) for part in zip(*(_eigh_powers(W[g], alpha) for g in range(G)))]
            for name, a, b in zip(("sig", "intf", "trace"), got, want):
                assert np.max(np.abs(a - b) / b) <= 1e-12, (snr_db, name)
        assert bool(calls) == (Q >= precoding._CHOLESKY_MIN_Q)

    def test_fallback_agrees_and_makes_the_same_rank_decisions(self, monkeypatch):
        # the np.linalg.inv path where numpy bundles no LAPACKE: the same powers within 1e-12, and the same
        # ZF and RZF rejections on full-rank draws, on Q > L, and on a repeated or a zero row and column
        G, Q, L = 3, 64, 96
        draws = [wishart_gram(RngSeed(22, t).generator(), G, Q, L) for t in range(4)]
        draws.append(wishart_gram(RngSeed(23).generator(), G, Q, Q - 8))
        repeated, zero = draws[0].copy(), draws[1].copy()
        repeated[1, 1, :], repeated[1, :, 1] = repeated[1, 0, :], repeated[1, :, 0]
        repeated[1, 1, 1] = repeated[1, 0, 0]
        zero[2, -1, :] = zero[2, :, -1] = 0
        draws += [repeated, zero]
        kinds = [PrecoderKind.zf(), PrecoderKind.rzf(L / 10.0), PrecoderKind.rzf(L * 1e-3)]

        def outcomes():
            results = []
            for W in draws:
                for kind in kinds:
                    try:
                        results.append(gram_powers(W, kind))
                    except RankDeficient:
                        results.append(None)
            return results

        calls = _counted_lapack(monkeypatch)
        cholesky = outcomes()
        assert calls
        monkeypatch.setattr(_parallel, "cholesky_lapack", lambda: None)
        fallback = outcomes()
        assert [r is None for r in cholesky] == [r is None for r in fallback]
        assert [r is None for r in cholesky[:12]] == [False] * 12 and cholesky[12] is None
        for got, want in zip(cholesky, fallback):
            for a, b in zip(got or (), want or ()):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_zf_more_streams_than_antennas_rejected_on_the_cholesky_side(self, monkeypatch):
        calls = _counted_lapack(monkeypatch)
        H = draw_channel(64, 48, RngSeed(24))
        with pytest.raises(RankDeficient):
            gram_powers((H @ H.conj().T)[None], PrecoderKind.zf())
        with pytest.raises(RankDeficient):
            build_precoder(H, PrecoderKind.zf())
        assert calls

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS's zpotri rounds differently on two threads; each inverse pins one
        blas = _parallel._openblas()
        if blas is None or _parallel.cholesky_lapack() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set here")
        get, set_ = blas
        W = wishart_gram(RngSeed(25).generator(), 5, 64, 128)
        with _parallel.one_blas_thread():
            pinned = gram_powers(W, PrecoderKind.rzf(), [0.0, 12.8])
        previous = get()
        set_(2)
        try:
            free = gram_powers(W, PrecoderKind.rzf(), [0.0, 12.8])
            assert get() == 2
        finally:
            set_(previous)
        assert all(np.array_equal(a, b) for a, b in zip(pinned, free))


class TestStageSinrs:
    def test_zf_deterministic_sinr(self):
        scheme = scheme_for_gain(20, 10.0, 5, 10, precoder="ZF")
        channels = [draw_channel(10, 20, RngSeed(7, t)) for t in range(5)]
        sinrs = stage_sinrs(channels, PrecoderKind.zf(), scheme)
        assert sinrs.shape == (50,)
        # P_t (L-Q) / (G Q) = 10 * 10 / 50
        assert np.allclose(sinrs, 2.0, rtol=1e-9)

    def test_single_group_reduces_to_plain_miso(self):
        scheme = scheme_for_gain(16, 10.0, 1, 4, precoder="MF")
        H = draw_channel(4, 16, RngSeed(8))
        rho = power_factor(PrecoderKind.mf(), scheme)
        got = stage_sinrs([H], PrecoderKind.mf(), scheme)
        # direct computation of the standard MISO SINR, no group scaling
        M = np.abs(H @ H.conj().T) ** 2 * rho**2
        expect = np.array([M[k, k] / (1 + M[k].sum() - M[k, k]) for k in range(4)])
        assert np.allclose(got, expect, rtol=1e-12)

    def test_channel_count_checked(self):
        scheme = scheme_for_gain(16, 10.0, 2, 4, precoder="MF")
        with pytest.raises(ValueError):
            stage_sinrs([draw_channel(4, 16, RngSeed(9))], PrecoderKind.mf(), scheme)

    @pytest.mark.parametrize("offset", [0.0, 1e-8])
    def test_zf_rank_guard(self, offset):
        # identical rows fail the solve; rows 1e-8 apart solve to a precoder
        # whose H V misses the identity, which the residual guard catches in
        # Gram space (stage_sinrs) and in H space (build_precoder) alike
        scheme = scheme_for_gain(16, 10.0, 1, 4, precoder="ZF")
        H = draw_channel(4, 16, RngSeed(10))
        H[1] = H[0] + offset * draw_channel(1, 16, RngSeed(11))[0]
        with pytest.raises(RankDeficient):
            stage_sinrs([H], PrecoderKind.zf(), scheme)
        with pytest.raises(RankDeficient):
            build_precoder(H, PrecoderKind.zf())


class TestRzfSinrDecomposition:
    def test_quadratic_form_identity_every_draw(self):
        """The leave-one-out (A, B) SINR form equals the direct one exactly.

        A = h^T (aI + H_-k^H H_-k)^-1 h*,
        B = h^T (aI + H_-k^H H_-k)^-1 H_-k^H H_-k (aI + H_-k^H H_-k)^-1 h*,
        SINR = A^2 (rho^2/G) / ((1+A)^2 + (rho^2/G) B).
        """
        Q, L, G, p_t = 16, 32, 4, 10.0
        scheme = scheme_for_gain(L, 10.0, G, Q, precoder="RZF")
        alpha = L / p_t
        kind = PrecoderKind.rzf(alpha)
        rho = power_factor(kind, scheme)
        for t in range(5):
            H = draw_channel(Q, L, RngSeed(10, t))
            direct = stage_sinrs([H] * G, kind, scheme, rho=rho)[:Q]
            for k in range(Q):
                h = H[k]
                rest = np.delete(H, k, axis=0)
                M = alpha * np.eye(L) + rest.conj().T @ rest
                Minv_h = np.linalg.solve(M, h.conj())
                A = np.real(h @ Minv_h)
                B = np.real(Minv_h.conj() @ (rest.conj().T @ (rest @ Minv_h)))
                decomposed = A**2 * (rho**2 / G) / ((1 + A) ** 2 + (rho**2 / G) * B)
                assert abs(decomposed - direct[k]) <= 1e-8 * max(1.0, direct[k])


class TestCancellation:
    @staticmethod
    def scheme_and_channels(precoder: str, seed: int):
        vs = validate(
            SchemeConfig(L=16, snr_db=10.0, lambda_states=4, gamma=0.25, K=16, Q=4, precoder=precoder)
        )
        channels = [draw_channel(vs.Q, vs.L, RngSeed(seed, g)) for g in range(vs.G)]
        return vs, channels

    @pytest.mark.parametrize("precoder", ["MF", "ZF", "RZF"])
    def test_residual_small_across_seeds(self, precoder):
        for seed in range(10):
            vs, channels = self.scheme_and_channels(precoder, seed)
            kind = PrecoderKind(precoder) if precoder != "RZF" else PrecoderKind.rzf()
            res = cancellation_residual(channels, kind, vs, RngSeed(100 + seed))
            assert res < 1e-9

    def test_single_group_nothing_to_cancel(self):
        vs = scheme_for_gain(16, 10.0, 1, 4, precoder="MF")
        res = cancellation_residual([draw_channel(4, 16, RngSeed(11))], PrecoderKind.mf(), vs, RngSeed(12))
        assert res == 0.0

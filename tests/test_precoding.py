"""Precoder construction, power normalization, SINRs, cancellation."""

import math

import numpy as np
import pytest

from ccdl.analytic import rzf_deterministics
from ccdl.channel import RngSeed, draw_channel
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


def _h_space_powers(H: np.ndarray, kind: PrecoderKind):
    """Reference powers from the L x Q precoder itself: H V, its rows, Tr{V^H V}."""
    V = build_precoder(H, kind)
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
        # every group of a batched call agrees with its own precoder to 1e-12,
        # relative to that group's largest signal power (powers) and trace
        channels = [draw_channel(Q, L, RngSeed(12, g)) for g in range(3)]
        sig, intf, trace = gram_powers(np.stack([H @ H.conj().T for H in channels]), kind)
        assert sig.shape == intf.shape == (3, Q) and trace.shape == (3,)
        for g, H in enumerate(channels):
            ref_sig, ref_intf, ref_trace = _h_space_powers(H, kind)
            scale = np.max(ref_sig)
            assert np.max(np.abs(sig[g] - ref_sig)) <= 1e-12 * scale
            assert np.max(np.abs(intf[g] - ref_intf)) <= 1e-12 * scale
            assert abs(trace[g] - ref_trace) <= 1e-12 * ref_trace

    def test_rzf_needs_alpha(self):
        with pytest.raises(ValueError):
            gram_powers(np.eye(4, dtype=complex), PrecoderKind.rzf())


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
        # whose H V misses the identity, which the residual guard catches
        scheme = scheme_for_gain(16, 10.0, 1, 4, precoder="ZF")
        H = draw_channel(4, 16, RngSeed(10))
        H[1] = H[0] + offset * draw_channel(1, 16, RngSeed(11))[0]
        with pytest.raises(RankDeficient):
            stage_sinrs([H], PrecoderKind.zf(), scheme)


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

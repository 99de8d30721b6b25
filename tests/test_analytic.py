"""Closed-form rates, transforms, deterministic equivalents, CSI overhead."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdl.analytic import (
    COutOfRange,
    CsiCostModel,
    CsiOverheadExceedsBlock,
    RateInputs,
    SnrOutOfRange,
    ZeroDenominator,
    csi_zeta,
    effective_gain,
    effective_rate,
    mf_cacheless,
    mf_rate,
    mf_rate_finite,
    rzf_deterministics,
    rzf_rate,
    stieltjes,
    stieltjes_deriv,
    zf_rate,
)

CSI = CsiCostModel(beta_tot=10.0, t_c=0.04, w_c=300e3)


class TestMfRate:
    def test_reference_point(self):
        assert mf_rate(RateInputs.from_streams(5, 16, 64, 10.0)) == pytest.approx(103.94, abs=0.01)

    def test_cacheless_identity(self):
        # the dedicated cacheless expression must match the G=1 case exactly
        for c in (0.1, 0.25, 1.0, 2.5):
            assert mf_cacheless(c, 64, 10.0) == mf_rate(RateInputs(G=1, L=64, c=c, p_t=10.0))
        assert mf_cacheless(0.25, 64, 10.0) == pytest.approx(24.543, abs=0.001)

    def test_zero_power(self):
        assert mf_rate(RateInputs.from_streams(5, 16, 64, 0.0)) == 0.0

    def test_streams_beyond_antennas_allowed(self):
        assert mf_rate(RateInputs(G=5, L=64, c=2.0, p_t=10.0)) > 0


class TestMfRateFinite:
    def test_zero_power(self):
        assert mf_rate_finite(RateInputs.from_streams(5, 16, 64, 0.0)) == 0.0

    def test_single_stream_has_no_interference(self):
        # Q = 1: SINR is the signal moment alone, p_t (L + 1) / G
        for G, L, p_t in ((1, 64, 10.0), (5, 32, 100.0), (3, 128, 0.5)):
            rate = mf_rate_finite(RateInputs.from_streams(G, 1, L, p_t))
            assert rate == pytest.approx(G * math.log1p(p_t * (L + 1) / G), rel=1e-14)

    def test_fractional_stream_count_rejected(self):
        with pytest.raises(COutOfRange):
            mf_rate_finite(RateInputs(G=5, L=64, c=0.5 / 64, p_t=10.0))

    def test_approaches_asymptotic_rate_from_above(self):
        # c = 1/4, 10 dB: the finite-L excess over mf_rate is positive, shrinks
        # with L, and vanishes in the limit the two formulas share
        def excess(L):
            inputs = RateInputs(G=5, L=L, c=0.25, p_t=10.0)
            return mf_rate_finite(inputs) / mf_rate(inputs) - 1

        excesses = [excess(L) for L in (64, 256, 1024)]
        assert excesses[0] > excesses[1] > excesses[2] > 0
        assert excess(10**6) < 1e-5


class TestZfRate:
    def test_reference_point(self):
        rate = zf_rate(RateInputs.from_streams(5, 16, 64, 10.0))
        assert rate == pytest.approx(80 * math.log(7), rel=1e-12)
        assert rate == pytest.approx(155.67, abs=0.01)

    def test_cacheless_point(self):
        assert zf_rate(RateInputs.from_streams(1, 16, 64, 10.0)) == pytest.approx(16 * math.log(31), rel=1e-12)

    def test_c_limit_is_zero(self):
        assert zf_rate(RateInputs(G=5, L=64, c=1 - 1e-12, p_t=10.0)) == pytest.approx(0.0, abs=1e-6)

    def test_c_out_of_range(self):
        with pytest.raises(COutOfRange):
            zf_rate(RateInputs(G=5, L=64, c=1.0, p_t=10.0))


class TestStieltjes:
    def test_zero_ratio_is_pure_resolvent(self):
        for z in (0.01, 0.1, 1.0, 10.0):
            assert stieltjes(0.0, z) == pytest.approx(1.0 / z, rel=1e-12)

    def test_reference_values(self):
        assert stieltjes(0.5, 0.1) == pytest.approx(5.74166, abs=1e-5)
        assert stieltjes(1.0, 1.0) == pytest.approx((math.sqrt(5) - 1) / 2, rel=1e-12)

    @given(
        c=st.floats(min_value=0.01, max_value=3.0),
        z=st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_identity(self, c, z):
        s = stieltjes(c, z)
        assert abs(z * s * s + (z + c - 1) * s - 1) < 1e-10

    def test_derivative_reference_values(self):
        assert stieltjes_deriv(0.0, 0.5) == pytest.approx(-1 / 0.25, rel=1e-12)
        assert stieltjes_deriv(0.5, 0.1) == pytest.approx(-51.726, abs=1e-3)

    @pytest.mark.parametrize("c", [0.1, 0.25, 0.5, 0.9, 1.0, 1.5])
    @pytest.mark.parametrize("z", [0.05, 0.1, 1.0, 10.0])
    def test_derivative_matches_finite_difference(self, c, z):
        h = 1e-6 * z
        fd = (stieltjes(c, z + h) - stieltjes(c, z - h)) / (2 * h)
        assert stieltjes_deriv(c, z) == pytest.approx(fd, rel=1e-6)


    def test_values_at_140_db_pinned(self):
        z = 1e-14
        assert stieltjes(0.25, z) == 75000000000000.33
        assert stieltjes_deriv(0.25, z) == -7.5e27
        assert rzf_rate(RateInputs.from_streams(1, 16, 64, 1.0 / z)) == 533.6088311608455

    @pytest.mark.parametrize("z", [1e-160, 1e-200, 5e-324])
    def test_z_squared_underflow_is_a_typed_domain_error(self, z):
        for fn in (stieltjes, stieltjes_deriv):
            with pytest.raises(SnrOutOfRange, match="snr_db="):
                fn(0.25, z)
        assert issubclass(SnrOutOfRange, ValueError)


class TestRzfDeterministics:
    def test_reference_point(self):
        det = rzf_deterministics(0.5, 10.0)
        assert det.a == pytest.approx(5.74166, abs=1e-5)
        assert det.b == pytest.approx(0.56904, abs=1e-4)
        assert det.p_sq == pytest.approx(17.573, abs=2e-3)

    def test_internal_identities(self):
        for c in (0.1, 0.25, 0.5, 0.9, 1.0):
            for p_t in (0.5, 10.0, 1000.0):
                det = rzf_deterministics(c, p_t)
                assert det.a == stieltjes(c, 1.0 / p_t)
                assert det.s == det.a
                assert det.ds <= 0
                assert det.p_sq * det.b == pytest.approx(p_t, rel=1e-12)
                z = 1.0 / p_t
                assert abs(z * det.a**2 + (z + c - 1) * det.a - 1) < 1e-10

    def test_vanishing_power(self):
        # a = S_c(1/p_t) -> 0 as p_t -> 0; b cancels catastrophically below
        # ~1e-6 power and correctly reports numerical breakdown there
        assert rzf_deterministics(0.5, 1e-3).a == pytest.approx(0.0, abs=2e-3)
        assert stieltjes(0.5, 1e9) == pytest.approx(0.0, abs=1e-8)

    def test_flags_large_ratio(self):
        with pytest.warns(UserWarning):
            rzf_deterministics(1.5, 10.0)


class TestRzfRate:
    def test_reference_point(self):
        det = rzf_deterministics(0.5, 10.0)
        sinr = det.a**2 * det.p_sq / 5 / ((1 + det.a) ** 2 + 2.0)
        assert sinr == pytest.approx(2.4419, abs=1e-3)
        assert rzf_rate(RateInputs.from_streams(5, 32, 64, 10.0)) == pytest.approx(160 * math.log1p(sinr), rel=1e-12)
        assert rzf_rate(RateInputs.from_streams(5, 32, 64, 10.0)) == pytest.approx(197.77, abs=0.02)

    def test_zero_power(self):
        assert rzf_rate(RateInputs.from_streams(5, 32, 64, 0.0)) == 0.0

    def test_g1_is_plain_formula_substitution(self):
        det = rzf_deterministics(0.25, 10.0)
        expected = 0.25 * 64 * math.log1p(det.a**2 * det.p_sq / ((1 + det.a) ** 2 + 10.0))
        assert rzf_rate(RateInputs.from_streams(1, 16, 64, 10.0)) == pytest.approx(expected, rel=1e-12)


class TestCsiOverhead:
    def test_zeta_values(self):
        assert csi_zeta(CSI, 6, 32) == pytest.approx(0.16, rel=1e-12)
        assert csi_zeta(CSI, 1, 64) == pytest.approx(0.05333333333, rel=1e-9)
        assert csi_zeta(CsiCostModel(0.0, 0.04, 300e3), 6, 32) == 0.0

    @pytest.mark.parametrize("t_c, w_c", [(-0.04, -300e3), (0.0, 300e3), (0.04, 0.0), (-0.04, 300e3)])
    def test_coherence_time_and_bandwidth_each_positive(self, t_c, w_c):
        # a positive product of two negative factors is no coherence block
        with pytest.raises(ValueError, match="must be positive"):
            CsiCostModel(10.0, t_c, w_c)

    def test_effective_rate_reference(self):
        report = effective_rate("ZF", RateInputs.from_streams(6, 19, 32, 100.0), CSI)
        assert report.effective_rate_nats == pytest.approx(0.905 * 114 * math.log(12.403508771929824), rel=1e-9)
        assert report.effective_rate_nats == pytest.approx(259.8, abs=0.1)
        assert report.zeta == pytest.approx(0.16)
        assert report.avg_sum_rate_nats * (1 - report.Q / report.L * report.zeta) == pytest.approx(
            report.effective_rate_nats, rel=1e-12
        )

    def test_free_csi_equals_raw(self):
        inputs = RateInputs.from_streams(5, 16, 64, 10.0)
        report = effective_rate("MF", inputs, zeta=0.0)
        assert report.effective_rate_nats == report.avg_sum_rate_nats == mf_rate(inputs)

    def test_full_block_overhead_is_zero_rate(self):
        inputs = RateInputs.from_streams(5, 16, 64, 10.0)
        report = effective_rate("MF", inputs, zeta=4.0)  # c*zeta = 1 exactly
        assert report.effective_rate_nats == 0.0

    def test_overhead_beyond_block(self):
        with pytest.raises(CsiOverheadExceedsBlock):
            effective_rate("MF", RateInputs.from_streams(5, 16, 64, 10.0), zeta=4.1)

    def test_model_zeta_exclusive(self):
        with pytest.raises(ValueError):
            effective_rate("MF", RateInputs.from_streams(5, 16, 64, 10.0))
        with pytest.raises(ValueError):
            effective_rate("MF", RateInputs.from_streams(5, 16, 64, 10.0), CSI, zeta=0.1)


class TestEffectiveGain:
    PT_15DB = 10**1.5

    def test_hardening_reference_mf(self):
        assert effective_gain("MF", 6, 8, 8, 64, self.PT_15DB, CSI) == pytest.approx(5.4639, abs=1e-3)

    def test_hardening_reference_zf(self):
        assert effective_gain("ZF", 6, 8, 8, 64, self.PT_15DB, CSI) == pytest.approx(3.9000, abs=1e-3)

    def test_trivial_identity_gain(self):
        assert effective_gain("ZF", 1, 8, 8, 64, self.PT_15DB, CSI) == 1.0

    def test_zero_denominator(self):
        # engineered so the cacheless side sits exactly at c' * zeta' = 1
        # (zero effective rate) while the cache-aided side stays feasible
        model = CsiCostModel(beta_tot=1.0, t_c=1.0, w_c=32.0)  # zeta_1 = 0.25 at L=8
        with pytest.raises(ZeroDenominator):
            effective_gain("MF", 2, 1, 32, 8, 10.0, model)

    def test_xi_factor_matches_manual_composition(self):
        # gain must equal the explicit ratio of effective rates
        num = effective_rate("ZF", RateInputs.from_streams(6, 8, 64, self.PT_15DB), CSI).effective_rate_nats
        den = effective_rate("ZF", RateInputs.from_streams(1, 8, 64, self.PT_15DB), CSI).effective_rate_nats
        assert effective_gain("ZF", 6, 8, 8, 64, self.PT_15DB, CSI) == pytest.approx(num / den, rel=1e-15)


def test_rate_inputs_validation():
    with pytest.raises(COutOfRange):
        RateInputs(G=5, L=64, c=0.0, p_t=10.0)
    with pytest.raises(ValueError):
        RateInputs(G=0, L=64, c=0.5, p_t=10.0)
    inputs = RateInputs.from_streams(5, 16, 64, 10.0)
    assert inputs.q == 16
    assert inputs.omega == pytest.approx(10 / 15)

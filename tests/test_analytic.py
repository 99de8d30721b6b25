"""Closed-form rates, transforms, deterministic equivalents, CSI overhead."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdl.analytic import (
    COutOfRange,
    CsiCostModel,
    CsiOverheadExceedsBlock,
    NonPositiveB,
    RateInputs,
    RzfDeterministics,
    SnrOutOfRange,
    ZeroDenominator,
    _rzf_constants,
    _rzf_sum_rate,
    csi_zeta,
    effective_gain,
    effective_rate,
    mf_cacheless,
    mf_rate,
    mf_rate_finite,
    raw_rate,
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

    @pytest.mark.parametrize("z", [1.5e154, 1e200, 1e308, math.inf])
    def test_z_squared_overflow_is_a_typed_domain_error(self, z):
        # finite z once failed with the builtin OverflowError of z**2
        for fn in (stieltjes, stieltjes_deriv):
            with pytest.raises(SnrOutOfRange, match=r"snr_db=-\S+ is out of range: z\^2 = 1/p_t\^2 overflows"):
                fn(0.25, z)

    def test_z_just_below_the_overflow_keeps_its_values(self):
        # the values the transforms gave before the overflow guard (S cancels to 0 out here)
        assert stieltjes(0.25, 1.3e154) == 0.0
        assert stieltjes_deriv(0.25, 1.3e154) == -2.2189349112426e-309


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


# The RZF optimizer's 1e-3 grid of stream ratios
RZF_GRID = np.arange(1e-3, 1.0, 1e-3).tolist()


def outcome(call):
    """A call's value, or the class name and message of what it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestRzfCoreBits:
    """The plain-float RZF core gives every bit, and every error, of the public RZF names."""

    # sha256 of repr([outcome of raw_rate("RZF", RateInputs(6, 32, c, p_t)) for c in RZF_GRID]) per SNR in dB,
    # computed by the scalar path of stieltjes, stieltjes_deriv and rzf_deterministics that the core replaces
    GRID_DIGESTS = {
        -80: "696b5e1cec1bf3f9", -60: "7f6606495f526521", -40: "9c7cdbdc8ce92be0", -20: "66c53dddbcb9ff1e",
        0: "35bbd0294a632b70", 20: "c667b943eee1a7fa", 40: "a83a42441d936b10", 60: "78cb0473d9b5c469",
        80: "f52d9ab36d23772f", 100: "c4af3f26b18c4996", 120: "b942a897156eaef7",
    }

    @pytest.mark.parametrize("snr_db", GRID_DIGESTS)
    def test_grid_equals_public_path(self, snr_db):
        p_t = 10.0 ** (snr_db / 10)
        public = [outcome(lambda: raw_rate("RZF", RateInputs(G=6, L=32, c=c, p_t=p_t))) for c in RZF_GRID]
        assert hashlib.sha256(repr(public).encode()).hexdigest()[:16] == self.GRID_DIGESTS[snr_db]
        for c, rate in zip(RZF_GRID, public):
            assert outcome(lambda: _rzf_sum_rate(6, 32, c, p_t)) == rate
            assert outcome(lambda: rzf_rate(RateInputs(G=6, L=32, c=c, p_t=p_t))) == rate
            core, det = outcome(lambda: _rzf_constants(c, p_t)), outcome(lambda: rzf_deterministics(c, p_t))
            if isinstance(det, tuple):
                assert core == det and det[0] == "NonPositiveB"
                continue
            a, ds, b, p_sq = core
            assert det == RzfDeterministics(a=a, s=a, ds=ds, b=b, p_sq=p_sq)
            assert (a, ds, b, p_sq) == (stieltjes(c, 1 / p_t), stieltjes_deriv(c, 1 / p_t), a + ds / p_t, p_t / b)

    @pytest.mark.parametrize("snr_db, expected", [
        (-100, RzfDeterministics(a=1.000000082740371e-10, s=1.000000082740371e-10, ds=-9.999999999500001e-21,
                                 b=8.279037092875971e-18, p_sq=12078699.355755877)),
        (-90, ("NonPositiveB", "power trace limit b=-2.7781931657896384e-17 <= 0 at c=0.25, p_t=1e-09")),
        (150, RzfDeterministics(a=750000000000000.2, s=750000000000000.2, ds=-7.5e29, b=0.25, p_sq=4e15)),
        (160, ("NonPositiveB", "power trace limit b=-2.0 <= 0 at c=0.25, p_t=1e+16")),
    ])
    def test_edges_keep_their_values_and_errors(self, snr_db, expected):
        # b = a + ds / p_t is known to be wrong out here; these pin the scalar path's output, not the truth
        assert outcome(lambda: rzf_deterministics(0.25, 10.0 ** (snr_db / 10))) == expected

    @pytest.mark.parametrize("c, p_t, expected", [
        (0.0, 10.0, ("NonPositiveB", "power factor evaluation paths disagree: 5629499534213120.0 vs inf at c=0.0, "
                                     "p_t=10.0")),
        (-1.0, 10.0, ("ValueError", "c=-1.0 must be nonnegative")),
        (0.25, 0.0, ("ValueError", "p_t=0.0 must be positive")),
        (0.25, -1.0, ("ValueError", "p_t=-1.0 must be positive")),
    ])
    def test_argument_errors_unchanged(self, c, p_t, expected):
        assert outcome(lambda: rzf_deterministics(c, p_t)) == expected

    def test_rate_edges(self):
        assert outcome(lambda: rzf_rate(RateInputs(5, 64, 0.25, 10.0 ** -10))) == 1.9325922163025012e-12
        assert outcome(lambda: rzf_rate(RateInputs(5, 64, 0.25, 10.0 ** 15))) == 2745.250627487718
        with pytest.raises(NonPositiveB, match=r"^power trace limit b=-2.0 <= 0 at c=0.25, p_t=1e\+16$"):
            rzf_rate(RateInputs(5, 64, 0.25, 1e16))
        assert rzf_rate(RateInputs(5, 64, 1.5, 0.0)) == 0.0

    @pytest.mark.parametrize("snr_db, expected", [
        (-1535, ("NonPositiveB", "power trace limit b=-1.1858541225631422e-154 <= 0 at c=0.25, "
                                 "p_t=3.1622776601683795e-154")),
        (-1545, ("SnrOutOfRange", "snr_db=-1545 is out of range: z^2 = 1/p_t^2 overflows")),
    ])
    def test_rate_below_minus_1541_db_is_out_of_range(self, snr_db, expected):
        p_t = 10.0 ** (snr_db / 10)
        assert outcome(lambda: rzf_rate(RateInputs(5, 64, 0.25, p_t))) == expected
        assert outcome(lambda: rzf_deterministics(0.25, p_t)) == expected

    def test_large_ratio_warning_names_the_caller(self):
        message = "RZF asymptotics requested at c=1.5 > 1; the theory targets c in (0, 1]"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert rzf_rate(RateInputs(5, 64, 1.5, 10.0)) == 192.23950438792076
            rzf_deterministics(1.5, 10.0)
            rzf_rate(RateInputs(5, 64, 1.5, 0.0))
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, message)] * 2
        # rzf_rate's warning points into analytic, rzf_deterministics' at its caller
        assert caught[0].filename.endswith("analytic.py") and caught[1].filename == __file__


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

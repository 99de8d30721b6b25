"""Lambert W, stream-ratio optimality conditions, integer rounding, gains."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdl import analytic, optimizer
from ccdl.analytic import (
    COutOfRange,
    CsiCostModel,
    CsiOverheadExceedsBlock,
    RateInputs,
    ZeroDenominator,
    csi_zeta,
    data_share,
    effective_rate,
    raw_rate,
)
from ccdl.optimizer import (
    DomainError,
    EmptyFeasibleSet,
    GainReport,
    NoRootInBracket,
    SearchBreakdown,
    UnboundedObjective,
    _golden_max,
    _root,
    integer_q,
    lambert_w0,
    mf_opt_c,
    optimized_gain,
    rzf_opt_c,
    zf_opt_c,
    zf_opt_c_high_snr,
)

CSI = CsiCostModel(beta_tot=10.0, t_c=0.04, w_c=300e3)


class TestLambertW:
    def test_anchors(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w0(73.576) == pytest.approx(3.151, abs=1e-3)
        assert lambert_w0(-1 / math.e) == -1.0

    def test_against_scipy(self):
        for x in np.geomspace(1e-6, 1e6, 40):
            assert lambert_w0(float(x)) == pytest.approx(float(scipy.special.lambertw(x).real), rel=1e-12)

    def test_residual_over_log_grid(self):
        for x in np.geomspace(1e-6, 1e6, 60):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) < 1e-12 * max(1.0, x)

    @given(st.floats(min_value=-1 / math.e + 1e-12, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_defining_equation_property(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) < 1e-12 * max(1.0, abs(x))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)


def grid_argmax(rate_of_c, lo, hi, step=1e-3):
    grid = np.arange(lo + step, hi, step)
    values = [rate_of_c(float(c)) for c in grid]
    return float(grid[int(np.argmax(values))])


def mf_effective(G, p_t, zeta):
    def rate(c):
        inputs = RateInputs(G=G, L=64, c=c, p_t=p_t)
        return (1 - c * zeta) * inputs.c * G * 64 * math.log1p(inputs.omega / c)

    return rate


def zf_effective(G, p_t, zeta):
    def rate(c):
        return (1 - c * zeta) * c * G * 64 * math.log1p((p_t / G) * (1 / c - 1))

    return rate


class TestMfOptC:
    def test_reference_points(self):
        assert mf_opt_c(6, 100.0, 0.16).c_star == pytest.approx(1.21, abs=0.01)
        assert mf_opt_c(1, 100.0, 0.0267).c_star == pytest.approx(3.7, abs=0.05)

    def test_residual_tolerance(self):
        for G, zeta in [(1, 0.0267), (6, 0.16), (3, 0.05)]:
            assert mf_opt_c(G, 100.0, zeta).residual < 1e-10

    @pytest.mark.parametrize("G,zeta", [(6, 0.16), (1, 0.0266667)])
    def test_matches_grid_argmax(self, G, zeta):
        res = mf_opt_c(G, 100.0, zeta)
        brute = grid_argmax(mf_effective(G, 100.0, zeta), 0.0, 1.0 / zeta)
        assert abs(res.c_star - brute) <= 1e-3

    def test_free_csi_unbounded(self):
        with pytest.raises(UnboundedObjective):
            mf_opt_c(6, 100.0, 0.0)


class TestZfOptC:
    def test_reference_points(self):
        assert zf_opt_c(6, 100.0, 0.16).c_star == pytest.approx(0.59, abs=0.01)
        assert zf_opt_c(1, 100.0, 0.0267).c_star == pytest.approx(0.727, abs=0.01)

    def test_residual_tolerance(self):
        for G, zeta in [(1, 0.0267), (6, 0.16), (6, 0.0)]:
            assert zf_opt_c(G, 100.0, zeta).residual < 1e-10

    @pytest.mark.parametrize("G,zeta", [(6, 0.16), (1, 0.0266667)])
    def test_matches_grid_argmax(self, G, zeta):
        res = zf_opt_c(G, 100.0, zeta)
        brute = grid_argmax(zf_effective(G, 100.0, zeta), 0.0, 1.0)
        assert abs(res.c_star - brute) <= 1e-3

    def test_below_zero_cost_root_inside_unit_interval(self):
        with_cost = zf_opt_c(6, 100.0, 0.16).c_star
        zero_cost = zf_opt_c(6, 100.0, 0.0).c_star
        assert 0 < with_cost < zero_cost < 1

    def test_high_snr_free_csi_approaches_one(self):
        # convergence to 1 is logarithmic in power: monotone and slow
        mid, high = zf_opt_c(5, 1e4, 0.0).c_star, zf_opt_c(5, 1e8, 0.0).c_star
        assert mid < high < 1.0
        assert high > 0.9


class TestZfHighSnrClosedForm:
    def test_reference_point(self):
        assert zf_opt_c_high_snr(5, 1000.0) == pytest.approx(0.759, abs=2e-3)

    def test_agrees_with_numeric_root_from_30db(self):
        for G in (1, 5, 6):
            for p_t in (1e3, 1e4):
                closed = zf_opt_c_high_snr(G, p_t)
                numeric = zf_opt_c(G, p_t, 0.0).c_star
                assert abs(closed - numeric) < 0.02

    def test_grows_to_one(self):
        values = [zf_opt_c_high_snr(5, 10.0**k) for k in (3, 6, 9, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.95

    def test_total_at_low_snr(self):
        assert 0 < zf_opt_c_high_snr(5, 10.0) < 1


class TestRzfOptC:
    def test_self_consistent_against_fine_grid(self):
        res = rzf_opt_c(5, 64, 10.0, CSI)

        def objective(c):
            return effective_rate("RZF", RateInputs(G=5, L=64, c=c, p_t=10.0), CSI).effective_rate_nats

        fine = grid_argmax(objective, 0.0, 1.0, step=1e-5)
        assert res.method == "grid_search"
        assert abs(res.c_star - fine) <= 1e-3

    def test_binding_overhead_constraint(self):
        # zeta = 5 forces c <= 0.2, well below the unconstrained optimum
        tight = CsiCostModel(beta_tot=5.0 * 12000 / (5 * 64), t_c=0.04, w_c=300e3)

        def objective(c):
            return effective_rate("RZF", RateInputs(G=5, L=64, c=c, p_t=10.0), tight).effective_rate_nats

        res = rzf_opt_c(5, 64, 10.0, tight)
        assert 0 < res.c_star < 0.2
        assert objective(res.c_star) > 0

    def test_high_snr_approaches_zf(self):
        rzf = rzf_opt_c(5, 64, 1e4, CsiCostModel(0.0, 0.04, 300e3)).c_star
        zf = zf_opt_c(5, 1e4, 0.0).c_star
        assert abs(rzf - zf) < 0.02


def reference_rzf_opt_c(G, L, p_t, model):
    """rzf_opt_c's grid and golden-section search over data_share * raw_rate(RateInputs(...)), the public path."""
    zeta = csi_zeta(model, G, L)
    hi = min(1.0, 1.0 / zeta) if zeta > 0 else 1.0

    def objective(c):
        try:
            return data_share(c, zeta) * raw_rate("RZF", RateInputs(G=G, L=L, c=c, p_t=p_t))
        except (COutOfRange, CsiOverheadExceedsBlock):
            return -math.inf

    grid = np.arange(1e-3, hi, 1e-3)
    lo_ref, hi_ref = 0.0, hi
    if grid.size:
        best = int(np.argmax([objective(float(c)) for c in grid]))
        lo_ref, hi_ref = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, len(grid) - 1)])
    c_star = _golden_max(objective, lo_ref, hi_ref)
    return c_star, abs(objective(c_star + 1e-7) - objective(c_star - 1e-7)) / (2e-7 * G * L)


def search_outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc).__name__, str(exc)


# rzf_opt_c(G, 64, p_t, csi) at the edges of its domain: its (c*, residual), or what it raises
RZF_EDGES = [
    (5, 1e-10, CSI, ("NonPositiveB", "power trace limit b=-1.027482253643124e-16 <= 0 at c=0.002, p_t=1e-10")),
    (5, 1e-9, CSI, ("NonPositiveB", "power trace limit b=-2.827993160978087e-17 <= 0 at c=0.001, p_t=1e-09")),
    (5, 1e15, CSI, ("NonPositiveB", "power factor evaluation paths disagree: 8000000000000000.0 vs inf at "
                                    "c=0.001, p_t=1000000000000000.0")),
    (5, 1e16, CSI, ("NonPositiveB", "power trace limit b=-2.0 <= 0 at c=0.001, p_t=1e+16")),
    (5, 0.0, CSI, (0.0010003665687179286, 0.0)),
    (5, -1.0, CSI, ("ValueError", "p_t=-1.0 must be nonnegative")),
    (0, 10.0, CSI, ("ValueError", "G=0 must be >= 1")),
    (0, 10.0, CsiCostModel(0.0, 1.0, 1.0), ("ValueError", "G=0 must be >= 1")),
    # c* - 1e-7 <= 0 and c* + 1e-7 past the block: both score -inf
    (5, 10.0, CsiCostModel(1e8 / (5 * 64), 1.0, 1.0), (5e-09, math.nan)),
    (5, 10.0, CsiCostModel(1500 / (5 * 64), 1.0, 1.0), (0.0003130823037528391, 0.0008938780791944989)),
    (5, 10.0, CsiCostModel(1e300, 1.0, 1.0),
     ("EmptyFeasibleSet", "no feasible stream ratio in [1e-09, 3.125e-303]")),
]
RZF_EDGE_IDS = ["-100dB", "-90dB", "150dB", "160dB", "zero-power", "negative-power", "G=0", "G=0-free-csi",
                "c-star-below-h", "below-one-grid-step", "empty"]


class TestRzfOptCBits:
    """rzf_opt_c's c* and residual are those of its search over the public rate, bit for bit."""

    @pytest.mark.parametrize("G, L, csi", [(6, 32, (10.0, 0.04, 300e3)), (1, 64, (10.0, 0.04, 300e3)),
                                           (5, 64, (5.0 * 12000 / (5 * 64), 0.04, 300e3))],
                             ids=["fig2-cached", "fig2-cacheless", "binding-overhead"])
    def test_matches_public_path_from_minus_80_to_120_db(self, G, L, csi):
        model = CsiCostModel(*csi)
        for snr_db in range(-80, 121, 10):
            p_t = 10.0 ** (snr_db / 10)
            res = search_outcome(lambda: rzf_opt_c(G, L, p_t, model))
            expected = search_outcome(lambda: reference_rzf_opt_c(G, L, p_t, model))
            assert (res if isinstance(res, tuple) else (res.c_star, res.residual)) == expected, snr_db

    @pytest.mark.parametrize("G, p_t, csi, expected", RZF_EDGES, ids=RZF_EDGE_IDS)
    def test_edges(self, G, p_t, csi, expected):
        res = search_outcome(lambda: rzf_opt_c(G, 64, p_t, csi))
        got = res if isinstance(res, tuple) else (res.c_star, res.residual)
        assert repr(got) == repr(expected)


def lone_side(G, L, p_t, model):
    """One side of optimized_gain("RZF", ...) from a lone rzf_opt_c and integer_q over the public rate."""
    res = rzf_opt_c(G, L, p_t, model)
    zeta = csi_zeta(model, G, L)
    q_star, rate = integer_q(
        res.c_star, L, lambda q: data_share(q / L, zeta) * raw_rate("RZF", RateInputs.from_streams(G, q, L, p_t)), L
    )
    return res.c_star, res.residual, q_star, rate


def lone_gain(G, L, p_t, model):
    """optimized_gain("RZF", ...)'s two sides and gain, each side searched alone."""
    cached, cacheless = lone_side(G, L, p_t, model), lone_side(1, L, p_t, model)
    if cacheless[3] == 0:
        raise ZeroDenominator("optimized cacheless effective rate is zero")
    return cached, cacheless, cached[3] / cacheless[3]


def shared_gain(G, L, p_t, model):
    report = optimized_gain("RZF", G, L, p_t, model)
    sides = [(s.c_star, s.residual, s.q_star, s.effective_rate_at_q_star) for s in (report.cached, report.cacheless)]
    return (*sides, report.gain)


def counting_rzf_constants(monkeypatch) -> list:
    """Count the RZF core's evaluations, whichever module calls it."""
    calls = []
    core = analytic._rzf_constants

    def counted(c, p_t):
        calls.append(c)
        return core(c, p_t)

    monkeypatch.setattr(analytic, "_rzf_constants", counted)
    monkeypatch.setattr(optimizer, "_rzf_constants", counted)
    return calls


class TestSharedRzfGrid:
    """optimized_gain's two RZF sides share one memo of RZF constants, yet each is its lone search bit for bit."""

    @pytest.mark.parametrize("L", [32, 64])
    def test_fig2_points_equal_lone_searches(self, L):
        for snr_db in range(26):
            p_t = power(snr_db)
            assert shared_gain(6, L, p_t, CSI) == lone_gain(6, L, p_t, CSI), snr_db

    @pytest.mark.parametrize("zeta, cached_hi", [(2.0, 0.5), (2000.0, 5e-4)], ids=["prefix-grid", "empty-grid"])
    def test_cli_zeta_points_equal_lone_searches(self, zeta, cached_hi):
        # the CLI's --zeta at G = 5, L = 64: the cached side's grid is a strict prefix of the cacheless one's
        model = CsiCostModel(zeta / (5 * 64), 1.0, 1.0)
        assert min(1.0, 1.0 / csi_zeta(model, 5, 64)) == cached_hi
        shared = search_outcome(lambda: shared_gain(5, 64, 10.0, model))
        assert repr(shared) == repr(search_outcome(lambda: lone_gain(5, 64, 10.0, model)))

    @pytest.mark.parametrize("G, p_t, csi, expected", RZF_EDGES, ids=RZF_EDGE_IDS)
    def test_edges_hold_through_optimized_gain(self, G, p_t, csi, expected):
        shared = search_outcome(lambda: shared_gain(G, 64, p_t, csi))
        assert repr(shared) == repr(search_outcome(lambda: lone_gain(G, 64, p_t, csi)))
        if isinstance(expected[1], str):  # the cached side raises first, as rzf_opt_c alone does
            assert shared == expected

    @pytest.mark.parametrize("L", [32, 64])
    def test_fig2_rows_take_at_most_1100_constants(self, monkeypatch, L):
        calls = counting_rzf_constants(monkeypatch)
        grid = set(np.arange(1e-3, 1.0, 1e-3).tolist())
        for snr_db in range(26):
            calls.clear()
            optimized_gain("RZF", 6, L, power(snr_db), CSI)
            # the 999 grid points once, plus each side's refinement and integer rounding; two lone searches take ~2,040
            assert len(calls) <= 1100 and grid <= set(calls), snr_db

    def test_no_constants_outlive_a_call(self, monkeypatch):
        calls = counting_rzf_constants(monkeypatch)
        for search in (lambda: rzf_opt_c(6, 32, 10.0, CSI), lambda: optimized_gain("RZF", 6, 32, 10.0, CSI)):
            first = search()
            count = len(calls)
            assert search() == first
            assert len(calls) == 2 * count
            calls.clear()


class TestIntegerQ:
    def test_picks_better_candidate(self):
        zeta = 0.16
        rate = lambda q: zf_effective(6, 100.0, zeta)(q / 32)
        q, value = integer_q(0.5926677691723242, 32, rate)
        assert q in (18, 19)
        assert value == max(rate(18), rate(19))
        assert q == (18 if rate(18) >= rate(19) else 19)

    def test_integer_boundary_evaluates_both(self):
        rate = lambda q: -abs(q - 16.4)
        q, value = integer_q(0.5, 32, rate)
        assert q == 16
        assert value == pytest.approx(-0.4)

    def test_clamps_to_feasible(self):
        rate = mf_effective(6, 100.0, 0.16)
        q, _ = integer_q(1.21, 32, lambda q: rate(q / 32), q_max=32)
        assert q == 32

    def test_tie_breaks_to_smaller(self):
        q, _ = integer_q(0.5, 32, lambda q: 1.0)
        assert q == 16

    def test_empty_feasible_set(self):
        with pytest.raises(EmptyFeasibleSet):
            integer_q(0.5, 32, lambda q: 1.0, q_max=0)


class TestOptimizedGain:
    def test_reference_zf_32(self):
        report = optimized_gain("ZF", 6, 32, 100.0, CSI)
        assert report.gain == pytest.approx(3.12, abs=0.01)
        assert report.cached.q_star == 19
        assert report.cached.effective_rate_at_q_star == pytest.approx(259.8, abs=0.1)

    def test_reference_mf_32(self):
        report = optimized_gain("MF", 6, 32, 100.0, CSI)
        assert report.gain == pytest.approx(4.27, abs=0.01)

    def test_trivial_identity(self):
        report = optimized_gain("ZF", 1, 32, 100.0, CSI)
        assert report.gain == 1.0

    def test_optimizer_beats_neighbors(self):
        # optimality of the integer choice: better than the adjacent Qs
        for precoder in ("MF", "ZF", "RZF"):
            report = optimized_gain(precoder, 6, 32, 100.0, CSI)
            q = report.cached.q_star

            def rate(qq):
                return effective_rate(precoder, RateInputs.from_streams(6, qq, 32, 100.0), CSI).effective_rate_nats

            best = report.cached.effective_rate_at_q_star
            assert best == pytest.approx(rate(q), rel=1e-12)
            if q > 1:
                assert best >= rate(q - 1)
            if precoder == "MF" or q < 32:
                assert best >= rate(q + 1)

    def test_gain_monotone_in_snr_and_bounded_by_g(self):
        for precoder in ("MF", "ZF", "RZF"):
            gains = []
            for snr_db in range(0, 30, 5):
                report = optimized_gain(precoder, 6, 32, 10 ** (snr_db / 10), CSI)
                assert report.gain <= 6 + 0.01
                assert report.gain >= 1.0
                gains.append(report.gain)
            assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_fixed_q_gain_approaches_g_at_high_snr(self):
        # the hardening-constrained comparison recovers most of the factor
        # G by 25 dB (the optimized one climbs toward G more slowly); MF
        # lands within 25% of G, ZF/RZF within 30%
        from ccdl.analytic import effective_gain

        for precoder, floor in (("MF", 0.75), ("ZF", 0.70), ("RZF", 0.70)):
            gain = effective_gain(precoder, 6, 8, 8, 64, 10**2.5, CSI)
            assert 6 * floor <= gain <= 6 + 0.01

    def test_q_cap_marks_constraint(self):
        capped = optimized_gain("ZF", 6, 32, 100.0, CSI, q_max=16)
        assert capped.cached.q_cap == 16
        assert capped.cached.q_star <= 16
        free = optimized_gain("MF", 6, 32, 100.0, CSI)
        assert free.cached.q_cap is None


class TestRoot:
    def test_empty_interval_names_it(self):
        with pytest.raises(EmptyFeasibleSet, match=r"in \[1e-09, 1e-300\]"):
            _root(lambda c: 1.0 - c, 1e-9, 1e-300)
        with pytest.raises(EmptyFeasibleSet):
            _root(lambda c: 1.0 - c, 0.5, 0.5)

    def test_no_sign_change(self):
        with pytest.raises(NoRootInBracket, match=r"in \[0.1, 10\]"):
            _root(lambda c: 1.0 + c, 0.1, 10.0)

    def test_unbounded_interval_is_a_typed_error(self):
        # MF's interval ends at 1 / (2 zeta), which overflows once zeta is subnormal
        with pytest.raises(SearchBreakdown, match=r"^search interval \[1e-09, inf\] is unbounded$"):
            mf_opt_c(16, 1e16, 8e-323)

    def test_stalled_bisection_is_a_typed_error(self):
        # a sign change with no root: the residual stays 1 at the jump
        with pytest.raises(SearchBreakdown, match=r"^bisection stalled at residual 1$"):
            _root(lambda c: 1.0 if c < 0.3 else -1.0, 0.1, 10.0)

    def test_exact_zero_on_the_scan_is_returned(self):
        knot = float(np.geomspace(0.1, 10.0, 256)[100])
        res = _root(lambda c: 0.0 if c >= knot else 1.0, 0.1, 10.0)
        assert (res.c_star, res.residual, res.method) == (knot, 0.0, "root_bisection")


def power(snr_db):
    return 10 ** (snr_db / 10)


class TestSearchBits:
    """Every bit of each search at (G, SNR, zeta) points no preset visits, from -10 to 40 dB."""

    @pytest.mark.parametrize("opt, G, snr_db, zeta, expected", [
        (mf_opt_c, 3, -10.0, 0.05, (0.5469129412604228, 7.618691788557896e-11)),
        (mf_opt_c, 4, 7.5, 0.3, (0.6779175183841856, 3.2670643967946944e-11)),
        (mf_opt_c, 8, 22.5, 1.2, (0.2717243237997172, 2.7694180282367142e-11)),
        (mf_opt_c, 2, 40.0, 0.01, (6.43882485431889, 7.378964106408148e-11)),
        (zf_opt_c, 3, -10.0, 0.05, (0.10773228168161175, 4.101718964477641e-12)),
        (zf_opt_c, 4, 7.5, 0.3, (0.3557824353995781, 5.3905102603835076e-11)),
        (zf_opt_c, 8, 22.5, 1.2, (0.32123709729583344, 7.517386713118412e-11)),
        (zf_opt_c, 2, 40.0, 0.01, (0.8512639096700363, 9.822098689937775e-11)),
        (zf_opt_c, 3, -10.0, 0.0, (0.11022222669408849, 5.493022703362271e-12)),
        (zf_opt_c, 7, 40.0, 0.0, (0.8255487447577743, 2.291766776352233e-11)),
    ])
    def test_root_c_star_and_residual(self, opt, G, snr_db, zeta, expected):
        res = opt(G, power(snr_db), zeta)
        assert (res.c_star, res.residual, res.method) == (*expected, "root_bisection")

    @pytest.mark.parametrize("G, L, snr_db, csi, expected", [
        (3, 48, -10.0, (2.0, 0.02, 1e5), (0.3066987801091436, 5.304398895431304e-09)),
        (4, 96, 7.5, (10.0, 0.04, 300e3), (0.4676324828108463, 4.958996176659033e-08)),
        (2, 40, 40.0, (0.0, 1.0, 1.0), (0.8537989339434131, 6.252776074688882e-07)),
        (8, 16, 22.5, (30.0, 0.01, 1e5), (0.11432787726639271, 3.0878077872387166e-06)),
    ])
    def test_rzf_c_star_and_residual(self, G, L, snr_db, csi, expected):
        res = rzf_opt_c(G, L, power(snr_db), CsiCostModel(*csi))
        assert (res.c_star, res.residual, res.method) == (*expected, "grid_search")

    @pytest.mark.parametrize("precoder, G, L, snr_db, csi, cached, cacheless", [
        ("MF", 3, 48, -10.0, (2.0, 0.02, 1e5), (15, 4.221796941097183), (44, 3.977512219538533)),
        ("ZF", 4, 96, 7.5, (10.0, 0.04, 300e3), (34, 153.23857453060887), (50, 87.22138815113706)),
        ("ZF", 7, 128, 40.0, (0.0, 1.0, 1.0), (106, 4225.987270837241), (111, 814.1490629533741)),
        ("RZF", 2, 40, 40.0, (5.0, 0.04, 300e3), (34, 448.5725354298225), (35, 250.7354959916237)),
        ("RZF", 8, 16, 22.5, (30.0, 0.01, 1e5), (2, 42.05424247485457), (10, 32.826564717366196)),
    ])
    def test_integer_operating_points(self, precoder, G, L, snr_db, csi, cached, cacheless):
        report = optimized_gain(precoder, G, L, power(snr_db), CsiCostModel(*csi))
        assert (report.cached.q_star, report.cached.effective_rate_at_q_star) == cached
        assert (report.cacheless.q_star, report.cacheless.effective_rate_at_q_star) == cacheless
        assert report.gain == cached[1] / cacheless[1]

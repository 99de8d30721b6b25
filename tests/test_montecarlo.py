"""Monte Carlo estimator correctness, reproducibility, and convergence."""

import dataclasses
import math

import numpy as np
import pytest

from ccdl.analytic import RateInputs, mf_rate, mf_rate_finite, rzf_rate, zf_rate
from ccdl import _parallel, channel, montecarlo
from ccdl.channel import RngSeed, seeded_map, wishart_gram, wishart_inv_trace_mc
from ccdl.montecarlo import (
    McConfig,
    convergence_report,
    deterministic_equivalent_check,
    estimate_sum_rate,
    estimate_sum_rates,
)
from ccdl.precoding import PrecoderKind, gram_powers, power_factor
from ccdl.scheme import scheme_for_gain


KINDS = {"MF": PrecoderKind.mf, "ZF": PrecoderKind.zf, "RZF": PrecoderKind.rzf}


def mc(precoder: str, L: int, Q: int, G: int, trials: int, seed: int = 0, snr_db: float = 10.0) -> McConfig:
    scheme = scheme_for_gain(L, snr_db, G, Q, precoder=precoder)
    return McConfig(trials=trials, seed=RngSeed(seed), scheme=scheme, precoder=KINDS[precoder]())


class TestEstimateSumRate:
    def test_zf_matches_exact_formula_with_zero_variance(self):
        est = estimate_sum_rate(mc("ZF", 20, 10, 5, trials=500))
        exact = zf_rate(RateInputs.from_streams(5, 10, 20, 10.0))
        assert abs(est.mean - exact) / exact < 1e-12
        assert est.std_error < 1e-10 * exact

    def test_mf_matches_asymptotic_at_large_l(self):
        est = estimate_sum_rate(mc("MF", 256, 64, 5, trials=400))
        ana = mf_rate(RateInputs.from_streams(5, 64, 256, 10.0))
        assert abs(est.mean - ana) / ana < 0.02

    def test_mf_matches_finite_l_formula(self):
        # measured gap -0.16% with standard error 0.025% at seed 0
        est = estimate_sum_rate(mc("MF", 128, 32, 5, trials=1000))
        ana = mf_rate_finite(RateInputs.from_streams(5, 32, 128, 10.0))
        assert abs(est.mean - ana) / ana < 0.005

    def test_rzf_matches_asymptotic(self):
        est = estimate_sum_rate(mc("RZF", 128, 64, 5, trials=800))
        ana = rzf_rate(RateInputs.from_streams(5, 64, 128, 10.0))
        assert abs(est.mean - ana) / ana < 0.02

    def test_reproducible(self):
        a = estimate_sum_rate(mc("MF", 32, 8, 3, trials=200, seed=17))
        b = estimate_sum_rate(mc("MF", 32, 8, 3, trials=200, seed=17))
        assert a == b

    def test_worker_count_invariance(self, trial_workers):
        trial_workers(1)
        serial = estimate_sum_rate(mc("RZF", 32, 16, 3, trials=150, seed=4))
        trial_workers(3)
        threaded = estimate_sum_rate(mc("RZF", 32, 16, 3, trials=150, seed=4))
        assert serial == threaded

    def test_seed_changes_estimate(self):
        a = estimate_sum_rate(mc("MF", 32, 8, 3, trials=200, seed=1))
        b = estimate_sum_rate(mc("MF", 32, 8, 3, trials=200, seed=2))
        assert a.mean != b.mean

    def test_std_error_scales_with_trials(self):
        small = estimate_sum_rate(mc("MF", 16, 4, 2, trials=400, seed=9))
        large = estimate_sum_rate(mc("MF", 16, 4, 2, trials=1600, seed=9))
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_small_trial_warning(self):
        with pytest.warns(UserWarning):
            mc("MF", 16, 4, 2, trials=50)


class TestConvergenceReport:
    def test_mf_gap_shrinks_with_l(self):
        # the asymptotic MF formula is approached like ~1.8/L at c=1/4
        rows = convergence_report([32, 64, 128], 0.25, 5, 10.0, PrecoderKind.mf(), 600, RngSeed(21))
        gaps = [r.rel_gap for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.02

    def test_zf_gap_machine_precision(self):
        rows = convergence_report([16, 32, 64], 0.5, 5, 10.0, PrecoderKind.zf(), 200, RngSeed(21))
        assert all(r.rel_gap < 1e-12 for r in rows)

    def test_rzf_gap_shrinks_below_one_percent(self):
        rows = convergence_report([16, 32, 64], 0.5, 5, 10.0, PrecoderKind.rzf(), 400, RngSeed(21))
        gaps = [r.rel_gap for r in rows]
        noise = [2 * r.std_error / r.analytic for r in rows]
        # both gaps are estimates, so a rise is charged both points' noise
        assert all(gaps[i + 1] <= gaps[i] + noise[i] + noise[i + 1] for i in range(len(gaps) - 1))
        assert gaps[-1] < 0.01

    def test_closed_form_at_the_estimates_snr(self):
        # The scheme takes p_t through dB: 3.7 comes back as 3.6999999999999997, an ulp that moves the ZF rate.
        rows = convergence_report([16, 32], 0.25, 2, 3.7, PrecoderKind.zf(), 100, RngSeed(21))
        for row in rows:
            p_t = scheme_for_gain(row.L, 10.0 * math.log10(3.7), 2, row.L // 4).p_t
            assert p_t != 3.7
            assert row.analytic == zf_rate(RateInputs(G=2, L=row.L, c=0.25, p_t=p_t))

    def test_non_integer_streams_rejected(self):
        with pytest.raises(ValueError):
            convergence_report([16, 24], 0.3, 5, 10.0, PrecoderKind.mf(), 100, RngSeed(0))


class _RefusingChannelDraws:
    """A generator that refuses any normal draw with a dimension of L antennas."""

    def __init__(self, gen, L):
        self._gen, self._L = gen, L

    def standard_normal(self, size):
        assert self._L not in np.atleast_1d(size), f"normal draw of shape {size} has an L = {self._L} axis"
        return self._gen.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_trials_draw_no_channel_matrix(monkeypatch):
    # every seeded estimator draws Gram matrices only, never a Q x L channel
    L, Q, G = 32, 8, 2
    generator = RngSeed.generator
    monkeypatch.setattr(RngSeed, "generator", lambda self: _RefusingChannelDraws(generator(self), L))
    for precoder in ("MF", "ZF", "RZF"):
        estimate_sum_rate(mc(precoder, L, Q, G, trials=100))
        scheme = scheme_for_gain(L, 10.0, G, Q, precoder=precoder)
        power_factor(KINDS[precoder](), scheme, mode="montecarlo", trials=10, seed=RngSeed(0))
    wishart_inv_trace_mc(Q, L, 10, RngSeed(0))
    deterministic_equivalent_check(Q / L, 10.0, L, 10, RngSeed(0))


class TestEstimateSumRates:
    @pytest.mark.parametrize("pass_bytes", [montecarlo._PASS_BYTES, 1], ids=["default", "one-row-per-pass"])
    def test_mixed_list_equals_each_config_alone(self, monkeypatch, pass_bytes):
        # one row per pass puts MF and ZF rows in later passes than the first
        monkeypatch.setattr(montecarlo, "_PASS_BYTES", pass_bytes)
        configs = [
            mc(p, L, Q, 3, trials=120, seed=seed, snr_db=snr)
            for seed in (3, 8)
            for L, Q in ((16, 4), (24, 12))
            for snr in (0.0, 10.0, 20.0)
            for p in ("MF", "ZF", "RZF")
        ]
        # an explicit alpha shares one RZF kernel across SNRs of one ensemble
        configs += [dataclasses.replace(configs[i], precoder=PrecoderKind.rzf(0.5)) for i in (0, 6)]
        alone = [estimate_sum_rate(c) for c in configs]
        assert estimate_sum_rates(configs) == alone
        assert estimate_sum_rates(configs[::-1]) == alone[::-1]

    @pytest.mark.parametrize("snrs, rows, threaded", [((10.0,), 2, False), ((5.0, 10.0), 3, True),
                                                      ((0.0, 5.0, 10.0, 15.0, 20.0), 6, True)],
                             ids=["one-snr", "two-snrs", "five-snrs"])
    def test_thread_gate_counts_inverted_matrices(self, monkeypatch, snrs, rows, threaded):
        # mc-hardening's ensemble: ZF's row and one RZF row per SNR, G = 5 matrices each, at Q = 16
        passes, seeded_map = [], montecarlo.seeded_map

        def record(draw, kernels, trials, seed, work=0):
            passes.append(work)
            return seeded_map(draw, kernels, trials, seed, work)

        monkeypatch.setattr(montecarlo, "seeded_map", record)
        estimate_sum_rates([mc(p, 256, 16, 5, trials=100, snr_db=snr) for snr in snrs for p in ("MF", "ZF", "RZF")])
        assert passes == [rows * 5 * 16**3]
        assert (passes[0] >= channel._THREAD_MIN_WORK) == threaded

    def test_exact_power_factors_resolve_before_any_trial(self, monkeypatch):
        configs = [mc("MF", 16, 4, 2, trials=100), mc("ZF", 16, 4, 2, trials=100)]
        square = dataclasses.replace(configs[1], scheme=scheme_for_gain(16, 10.0, 2, 16, precoder="ZF"))

        def no_draws(*args):
            raise AssertionError("drew a trial")

        monkeypatch.setattr(montecarlo, "wishart_gram", no_draws)
        with pytest.raises(ValueError, match="needs L > Q"):
            estimate_sum_rates([*configs, square])


def _solo_rows(W: np.ndarray, kind: PrecoderKind) -> tuple:
    sig, intf, traces = gram_powers(W, kind)
    return sig.reshape(1, -1), intf.reshape(1, -1), traces.reshape(1, -1).sum(axis=-1)


def _pass_kernels(alphas: list[float]):
    """The draw and MF, ZF and RZF kernels of a pass that holds every precoder, as estimate_sum_rates builds them."""
    rzf = [PrecoderKind.rzf(a) for a in alphas]
    kernels = [montecarlo._kernel([PrecoderKind.mf()], 0), montecarlo._kernel([PrecoderKind.zf()], 0),
               montecarlo._kernel(rzf, 1)]
    return (lambda W: montecarlo._draw(W, np.array([0.0, *alphas]))), kernels, rzf


class TestStackedInverse:
    @pytest.mark.parametrize("G, Q, L", [(5, 16, 256), (5, 64, 128), (3, 8, 8)])
    def test_rows_equal_solo_gram_powers(self, G, Q, L):
        # ZF is row 0 of the stacked inverse of the RZF alphas; every row is its kind's own call bit for bit
        make, kernels, rzf = _pass_kernels([L / 1e2, L / 10.0, L * 10.0])
        for t in range(20):
            W = wishart_gram(RngSeed(15, t).generator(), G, Q, L)
            draw = make(W)
            rows = [kernel(draw) for kernel in kernels]
            solo = [_solo_rows(W, PrecoderKind.mf()), _solo_rows(W, PrecoderKind.zf()),
                    [np.concatenate(part) for part in zip(*(_solo_rows(W, kind) for kind in rzf))]]
            for got, want in zip(rows, solo):
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    @pytest.mark.parametrize("exact, G, Q, L", [
        pytest.param(False, 3, 8, 32, id="rank-rule"), pytest.param(True, 3, 8, 32, id="singular-stack"),
        pytest.param(False, 3, 48, 96, id="rank-rule-cholesky"),
        pytest.param(True, 3, 48, 96, id="singular-stack-cholesky"),
    ])
    def test_draw_only_zf_rejects_moves_zf_alone(self, exact, G, Q, L):
        # trial 0's first draw is singular in one group: ZF redraws, MF and RZF keep draw 0.  A rank Q - 1
        # group fails ZF's rank rule; one with a zero row and column is singular (inv raises LinAlgError, and
        # Cholesky fails from Q = _CHOLESKY_MIN_Q).  Either makes the stacked inverse raise, so RZF inverts its
        # own alphas.
        if Q >= montecarlo.precoding._CHOLESKY_MIN_Q and _parallel.cholesky_lapack() is None:
            pytest.skip("numpy bundles no LAPACKE here")
        seed = RngSeed(16)
        singular = wishart_gram(RngSeed(17).generator(), 1, Q, Q - 1)[0]
        if exact:
            singular[-1, :] = singular[:, -1] = 0
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.inv(singular)
        make, kernels, rzf = _pass_kernels([L / 10.0, L * 10.0])
        made = []

        def draw(gen):
            first = not gen.bit_generator.state["state"]["counter"].any()
            W = wishart_gram(gen, G, Q, L)
            if first and gen.bit_generator.state["state"]["key"][1] == seed.stream_id:
                W[1] = singular
            if len(made) < 2:
                made.append(W)
            return make(W)

        mf, zf, rzf_rows = (column[0] for column in seeded_map(draw, kernels, 1000, seed))
        draw_0, draw_1 = made[0], made[1]
        assert np.array_equal(draw_0[1], singular)
        with pytest.raises(montecarlo.precoding.RankDeficient):
            gram_powers(draw_0, PrecoderKind.zf())
        solo_rzf = [np.concatenate(part) for part in zip(*(_solo_rows(draw_0, kind) for kind in rzf))]
        for got, want in ((mf, _solo_rows(draw_0, PrecoderKind.mf())), (zf, _solo_rows(draw_1, PrecoderKind.zf())),
                          (rzf_rows, solo_rzf)):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize(
    "estimate",
    [
        lambda: power_factor(PrecoderKind.mf(), scheme_for_gain(16, 10.0, 2, 4, precoder="MF"), mode="montecarlo",
                             trials=0, seed=RngSeed(0)),
        lambda: deterministic_equivalent_check(0.5, 10.0, 16, 0, RngSeed(0)),
        lambda: wishart_inv_trace_mc(4, 16, 0, RngSeed(0)),
    ],
    ids=["power_factor", "deterministic_equivalent_check", "wishart_inv_trace_mc"],
)
def test_zero_trials_rejected(estimate):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate()


class TestDeterministicEquivalent:
    def test_half_ratio(self):
        a_emp, a_theory, gap = deterministic_equivalent_check(0.5, 10.0, 256, 200, RngSeed(31))
        assert a_theory == pytest.approx(5.74166, abs=1e-5)
        assert gap < 0.02

    def test_vanishing_ratio_approaches_power(self):
        a_emp, _, _ = deterministic_equivalent_check(1 / 256, 10.0, 256, 200, RngSeed(32))
        assert a_emp == pytest.approx(10.0, rel=0.03)

    def test_vanishing_power(self):
        a_emp, _, _ = deterministic_equivalent_check(0.5, 1e-6, 64, 100, RngSeed(33))
        assert a_emp == pytest.approx(0.0, abs=1e-5)

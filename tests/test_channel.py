"""Channel generation determinism, moments, and random-matrix estimators."""

import ctypes
import math
import threading
import time
import types
import weakref

import numpy as np
import pytest

from ccdl import _parallel, channel
from ccdl.analytic import stieltjes
from ccdl.channel import (
    RankDeficient,
    RngSeed,
    SingularDraw,
    draw_channel,
    resolvent_trace,
    seeded_map,
    wishart_gram,
    wishart_inv_trace_mc,
)
from ccdl.precoding import PrecoderKind, gram_powers, power_factor
from ccdl.precoding import RankDeficient as PrecodingRankDeficient
from ccdl.scheme import scheme_for_gain


class TestDeterminism:
    def test_same_key_bit_identical(self):
        a = draw_channel(16, 32, RngSeed(123, 5))
        b = draw_channel(16, 32, RngSeed(123, 5))
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = draw_channel(16, 32, RngSeed(123, 5))
        b = draw_channel(16, 32, RngSeed(123, 6))
        c = draw_channel(16, 32, RngSeed(124, 5))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_wraps(self):
        s = RngSeed(1, 2**64 - 1).substream(3)
        assert s.stream_id == 2

    def test_key_bounds(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, 2**64)


class TestMoments:
    def test_mean_and_variance_large_sample(self):
        # 256 matrices of 64x64 = 1,048,576 entries
        entries = np.concatenate(
            [draw_channel(64, 64, RngSeed(7, t)).ravel() for t in range(256)]
        )
        n = entries.size
        assert n >= 1_000_000
        # each real component is N(0, 1/2): 5-sigma bounds on the means
        bound = 5.0 * math.sqrt(0.5 / n)
        assert abs(entries.real.mean()) < bound
        assert abs(entries.imag.mean()) < bound
        var = np.mean(np.abs(entries) ** 2)
        assert abs(var - 1.0) < 0.01  # |h|^2 has unit variance, 5 sigma ~ 0.005

    def test_scalar_channel_moment(self):
        draws = np.array([draw_channel(1, 1, RngSeed(11, t))[0, 0] for t in range(20_000)])
        second_moment = np.mean(np.abs(draws) ** 2)
        assert abs(second_moment - 1.0) < 5.0 / math.sqrt(draws.size)

    def test_shape_and_dtype(self):
        H = draw_channel(3, 5, RngSeed(0))
        assert H.shape == (3, 5)
        assert H.dtype == np.complex128
        with pytest.raises(ValueError):
            draw_channel(0, 5, RngSeed(0))


def _gram_moments(W: np.ndarray) -> np.ndarray:
    """Per-matrix statistics: mean W_kk, mean |W_kj|^2 (k != j), mean |W_kk|^2, tr W^2."""
    Q = W.shape[-1]
    diag = np.diagonal(W, axis1=-2, axis2=-1).real
    sq = np.abs(W) ** 2
    off = (sq.sum(axis=(-2, -1)) - (diag**2).sum(axis=-1)) / (Q * (Q - 1))
    return np.stack([diag.mean(axis=-1), off, (diag**2).mean(axis=-1), sq.sum(axis=(-2, -1))], axis=-1)


def _direct_gram(Q: int, L: int, seed: RngSeed) -> np.ndarray:
    H = draw_channel(Q, L, seed)
    return H @ H.conj().T


class TestWishartGram:
    def test_draw_layout(self):
        # one (G, 2, n) normal block, then one (G, m) gamma block, from the trial's generator
        G, Q, L = 3, 5, 3
        W = wishart_gram(RngSeed(8).generator(), G, Q, L)
        gen = RngSeed(8).generator()
        z = gen.standard_normal((G, 2, 9))  # 1 + 2 + 3 + 3 strictly lower entries of a 5 x 3 factor
        gam = gen.standard_gamma([3.0, 2.0, 1.0], (G, 3))
        rows, cols = np.tril_indices(Q, -1, L)
        T = np.zeros((G, Q, L), dtype=complex)
        T[:, rows, cols] = (z[:, 0] + 1j * z[:, 1]) * np.sqrt(0.5)
        for i in range(L):
            T[:, i, i] = np.sqrt(gam[:, i])
        assert np.array_equal(W, T @ T.conj().transpose(0, 2, 1))

    def test_shape_and_rank(self):
        W = wishart_gram(RngSeed(0).generator(), 4, 8, 4)
        assert W.shape == (4, 8, 8)
        assert np.allclose(W, W.conj().transpose(0, 2, 1), rtol=0, atol=1e-12)
        assert all(np.linalg.matrix_rank(w) == 4 for w in W)
        with pytest.raises(ValueError):
            wishart_gram(RngSeed(0).generator(), 1, 0, 4)

    @pytest.mark.parametrize("Q, L", [(16, 256), (64, 128), (8, 4)])
    def test_moments_match_direct_draws(self, Q, L):
        # Bartlett draws and Gram matrices of direct H draws both against the
        # exact moments E W_kk = L, E|W_kj|^2 = L, E|W_kk|^2 = L(L+1),
        # E tr W^2 = Q L (L + Q), and against each other; every |z| < 4
        n = 1000
        bartlett = np.concatenate(
            [_gram_moments(wishart_gram(RngSeed(60, t).generator(), 100, Q, L)) for t in range(n // 100)]
        )
        direct = np.array([_gram_moments(_direct_gram(Q, L, RngSeed(61, t))) for t in range(n)])
        exact = np.array([L, L, L * (L + 1), Q * L * (L + Q)], dtype=float)
        for sample in (bartlett, direct):
            z = (sample.mean(axis=0) - exact) / (sample.std(axis=0, ddof=1) / math.sqrt(n))
            assert np.all(np.abs(z) < 4), z
        se = np.sqrt((bartlett.var(axis=0, ddof=1) + direct.var(axis=0, ddof=1)) / n)
        z = (bartlett.mean(axis=0) - direct.mean(axis=0)) / se
        assert np.all(np.abs(z) < 4), z


class TestWishartInverseTrace:
    def test_square_case_oracle(self):
        est = wishart_inv_trace_mc(16, 64, 10_000, RngSeed(42))
        assert est == pytest.approx(16 / 48, rel=0.01)

    def test_rank_one(self):
        est = wishart_inv_trace_mc(1, 2, 100_000, RngSeed(0))
        assert est == pytest.approx(1.0, rel=0.02)

    def test_precondition(self):
        with pytest.raises(ValueError):
            wishart_inv_trace_mc(4, 4, 100, RngSeed(0))

    def test_worker_count_invariance(self, trial_workers):
        trial_workers(1)
        serial = wishart_inv_trace_mc(8, 24, 400, RngSeed(9))
        trial_workers(4)
        threaded = wishart_inv_trace_mc(8, 24, 400, RngSeed(9))
        assert serial == threaded

    def test_resamples_exactly_where_zf_rejects(self, monkeypatch):
        # a one-trial call whose first draw has rows 1e-12 ... 1e-4 apart, which straddle ZF's rank rule: it draws
        # again exactly where ZF's gram_powers raises (and that redraw is over the 0.1% budget)
        zf, outcomes, disagree = PrecoderKind.zf(), set(), []
        for t, offset in enumerate(np.geomspace(1e-12, 1e-4, 200)):
            H = draw_channel(8, 16, RngSeed(90, t))
            H[1] = H[0] + offset * draw_channel(1, 16, RngSeed(91, t))[0]
            near, made = (H @ H.conj().T)[None], []

            def draw(gen, G, Q, L):
                made.append(gen)
                return near if len(made) == 1 else wishart_gram(gen, G, Q, L)

            monkeypatch.setattr(channel, "wishart_gram", draw)
            try:
                wishart_inv_trace_mc(8, 16, 1, RngSeed(94))
            except SingularDraw:
                pass
            try:
                gram_powers(near, zf)
                rejected = False
            except RankDeficient:
                rejected = True
            outcomes.add(rejected)
            if (len(made) == 2) != rejected:
                disagree.append(t)
        assert outcomes == {True, False}
        assert disagree == []

    def test_same_draws_and_rule_as_zf_power_factor(self):
        scheme = scheme_for_gain(24, 10.0, 2, 8, precoder="ZF")
        rho = power_factor(PrecoderKind.zf(), scheme, mode="montecarlo", trials=400, seed=RngSeed(9))
        assert wishart_inv_trace_mc(8, 24, 400, RngSeed(9)) == pytest.approx(scheme.p_t / rho**2, rel=1e-12)


def _first_draws(seed: RngSeed, t: int, n: int) -> list[float]:
    gen = seed.substream(t).generator()
    return [float(gen.random()) for _ in range(n)]


def _uniform(gen) -> float:
    return float(gen.random())


def _rejecting(rejected: set[float]):
    """A kernel that returns its uniform draw and reports a singular draw on ``rejected``."""

    def kernel(x: float) -> float:
        if x in rejected:
            raise RankDeficient("test rejection")
        return x

    return kernel


class TestSeededMap:
    SEED = RngSeed(77)

    def test_trial_results_in_order(self):
        got = seeded_map(_uniform, [_rejecting(set())], 5, self.SEED)
        assert got == [[_first_draws(self.SEED, t, 1)[0] for t in range(5)]]

    def test_resample_takes_next_draw_of_own_substream(self):
        first, second = _first_draws(self.SEED, 3, 2)
        (got,) = seeded_map(_uniform, [_rejecting({first})], 2000, self.SEED)
        assert got[3] == second
        assert got[4] == _first_draws(self.SEED, 4, 1)[0]

    def test_eight_resamples_allowed_ninth_raises(self):
        # 1000 trials keep one resampled trial within the 0.1% budget
        draws = _first_draws(self.SEED, 0, 10)
        assert seeded_map(_uniform, [_rejecting(set(draws[:8]))], 1000, self.SEED)[0][0] == draws[8]
        with pytest.raises(SingularDraw, match="in a row"):
            seeded_map(_uniform, [_rejecting(set(draws[:9]))], 1000, self.SEED)

    def test_singular_budget(self):
        # 0.1% of 2000 trials: two resampled trials pass, a third fails
        firsts = [_first_draws(self.SEED, t, 1)[0] for t in range(3)]
        assert len(seeded_map(_uniform, [_rejecting(set(firsts[:2]))], 2000, self.SEED)[0]) == 2000
        with pytest.raises(SingularDraw, match="budget"):
            seeded_map(_uniform, [_rejecting(set(firsts))], 2000, self.SEED)

    def test_sibling_kernels_share_draws_and_match_solo_runs(self):
        first, second = _first_draws(self.SEED, 3, 2)
        rejecter, taker = _rejecting({first}), _rejecting(set())
        solo = [seeded_map(_uniform, [k], 1000, self.SEED)[0] for k in (rejecter, taker)]
        for kernels, order in (([rejecter, taker], (0, 1)), ([taker, rejecter], (1, 0))):
            drawn = []

            def draw(gen) -> float:
                drawn.append(_uniform(gen))
                return drawn[-1]

            got = seeded_map(draw, kernels, 1000, self.SEED)
            assert got[order[0]][3] == second and got[order[1]][3] == first
            assert [got[order[0]], got[order[1]]] == solo
            assert len(drawn) == 1001  # trial 3's draw 1 is the only extra draw

    def test_draws_live_until_the_next_trial_has_drawn(self):
        # one trial's draws stay, so the allocator reuses their memory, and none outlive the call
        live, seen = weakref.WeakSet(), []

        class Draw:
            def __init__(self, gen):
                seen.append(len(live))
                live.add(self)
                self.value = _uniform(gen)

        assert seeded_map(Draw, [lambda d: d.value], 50, self.SEED) == [[_first_draws(self.SEED, t, 1)[0]
                                                                          for t in range(50)]]
        assert seen == [0] + [1] * 49 and len(live) == 0

    def test_worker_count_invariance(self, trial_workers):
        kernels = [_rejecting({_first_draws(self.SEED, 1, 1)[0]})]
        trial_workers(1)
        serial = seeded_map(_uniform, kernels, 1000, self.SEED)
        trial_workers(2)
        assert seeded_map(_uniform, kernels, 1000, self.SEED) == serial

    def test_precoding_shares_the_exception(self):
        assert PrecodingRankDeficient is RankDeficient


def _recording_draw(seen: list):
    """A uniform draw that logs the BLAS thread count of each call."""
    get = _parallel._openblas()[0]

    def draw(gen) -> float:
        seen.append(get())
        return _uniform(gen)

    return draw


def _recording(calls: list, fail_on=frozenset()):
    """A kernel that logs (thread, BLAS threads) per call and raises ValueError on draws in ``fail_on``.

    It sleeps 1 ms, releasing the interpreter lock as a LAPACK call would, so
    that a second trial thread gets trials.
    """
    get = _parallel._openblas()[0]

    def kernel(x: float) -> float:
        calls.append((threading.get_ident(), get()))
        time.sleep(1e-3)
        if x in fail_on:
            raise ValueError("test failure")
        return x

    return kernel


class TestTrialGenerators:
    SEED = RngSeed(79, 2**64 - 30)  # its substreams wrap past 2**64

    @staticmethod
    def _stream(gen) -> tuple:
        return (*gen.random(3), *gen.standard_normal(2), *gen.standard_gamma(2.5, 2), int(gen.integers(2**32)))

    def test_rekey_restarts_at_counter_zero(self):
        gen = RngSeed(1).generator()
        gen.random(5)
        gen.integers(2**32, dtype=np.uint32)  # leaves half a 64-bit word buffered
        for seed in (RngSeed(5, 7), RngSeed(2**64 - 1, 2**64 - 1), RngSeed(5, 7)):
            assert seed.rekey(gen) is gen
            assert self._stream(gen) == self._stream(seed.generator())

    def test_each_trial_thread_rekeys_its_own_generator(self, trial_workers):
        trial_workers(2)
        used = []

        def draw(gen) -> tuple:
            used.append((threading.get_ident(), id(gen)))
            time.sleep(1e-3)  # releases the interpreter lock, so the worker thread takes trials
            return self._stream(gen)

        (got,) = seeded_map(draw, [lambda values: values], 60, self.SEED)
        assert got == [self._stream(self.SEED.substream(t).generator()) for t in range(60)]
        generators = {thread: {gen for t, gen in used if t == thread} for thread, _ in used}
        assert threading.get_ident() in generators and len(generators) == 2
        assert all(len(gens) == 1 for gens in generators.values())
        assert len(set.union(*generators.values())) == 2


class TestTrialThreads:
    SEED = RngSeed(78)

    @pytest.fixture
    def blas(self):
        if _parallel._openblas() is None:
            pytest.skip("numpy's OpenBLAS thread count cannot be set here")
        get, set_ = _parallel._openblas()
        original = get()
        set_(2)
        yield get
        set_(original)

    def test_blas_threads_pinned_then_restored(self, blas, trial_workers):
        trial_workers(2)
        calls = []
        assert seeded_map(_uniform, [_recording(calls)], 60, self.SEED) == seeded_map(
            _uniform, [_rejecting(set())], 60, self.SEED
        )
        assert blas() == 2
        assert len({thread for thread, _ in calls}) == 2
        assert sorted(n for _, n in calls) == [1] * 60
        failing = _recording([], fail_on={_first_draws(self.SEED, 45, 1)[0]})
        with pytest.raises(ValueError, match="test failure"):
            seeded_map(_uniform, [failing], 60, self.SEED)
        assert blas() == 2

    def test_every_draw_runs_pinned(self, blas, trial_workers):
        trial_workers(2)
        seen = []
        seeded_map(_recording_draw(seen), [_rejecting(set())], 60, self.SEED)
        assert seen == [1] * 60  # trial 0's draw included
        assert blas() == 2

    def test_serial_pass_pinned_then_restored(self, blas, trial_workers):
        trial_workers(1)
        seen, calls = [], []
        seeded_map(_recording_draw(seen), [_recording(calls)], 60, self.SEED)
        assert {thread for thread, _ in calls} == {threading.get_ident()}
        assert seen == [n for _, n in calls] == [1] * 60
        assert blas() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_after_trial_0_raises(self, blas, trial_workers, workers):
        trial_workers(workers)
        failing = _recording([], fail_on={_first_draws(self.SEED, 0, 1)[0]})
        with pytest.raises(ValueError, match="test failure"):
            seeded_map(_uniform, [failing], 60, self.SEED)
        assert blas() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restored_after_singular_budget(self, blas, trial_workers, workers):
        trial_workers(workers)
        firsts = {_first_draws(self.SEED, t, 1)[0] for t in range(3)}
        with pytest.raises(SingularDraw, match="budget"):
            seeded_map(_uniform, [_rejecting(firsts)], 2000, self.SEED)
        assert blas() == 2

    def test_lowest_failing_trial_wins_and_stops_the_handout(self, trial_workers):
        trial_workers(2)
        trial_of = {_first_draws(self.SEED, t, 1)[0]: t for t in range(60)}
        ran = []

        def kernel(x: float) -> float:
            t = trial_of[x]
            ran.append(t)
            if t == 3:
                time.sleep(0.2)  # trial 4 fails on the other thread first
            if t in (3, 4):
                raise ValueError(f"trial {t}")
            return x

        with pytest.raises(ValueError, match="trial 3"):
            seeded_map(_uniform, [kernel], 60, self.SEED)
        assert max(ran) == 4

    def test_singular_draw_names_lowest_failing_trial(self, trial_workers):
        # trials 20 and 45 each reject nine draws in a row; four threads must still name trial 20
        kernels = [_rejecting(set(_first_draws(self.SEED, 20, 9) + _first_draws(self.SEED, 45, 9)))]
        errors = []
        for workers in (1, 4):
            trial_workers(workers)
            with pytest.raises(SingularDraw) as info:
                seeded_map(_uniform, kernels, 60, self.SEED)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "trial 20: rank deficient on 9 draws in a row"

    def test_missing_pin_symbol_runs_serially(self, trial_workers, monkeypatch, request):
        request.addfinalizer(_parallel._openblas.cache_clear)
        _parallel._openblas.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
        assert _parallel._openblas() is None
        trial_workers(2)
        threads = []

        def kernel(x: float) -> float:
            threads.append(threading.get_ident())
            return x

        assert seeded_map(_uniform, [kernel], 60, self.SEED) == seeded_map(_uniform, [_rejecting(set())], 60, self.SEED)
        assert set(threads) == {threading.get_ident()}


class TestResolventTrace:
    def test_zero_matrix(self):
        H = np.zeros((8, 16), dtype=complex)
        for z in (0.1, 1.0, 10.0):
            assert resolvent_trace(H, z) == pytest.approx(1.0 / z, rel=1e-12)

    def test_half_ratio_against_transform(self):
        vals = [resolvent_trace(draw_channel(128, 256, RngSeed(3, t)), 0.1) for t in range(100)]
        mean = np.mean(vals)
        assert mean == pytest.approx(5.74166, rel=0.01)
        assert mean == pytest.approx(stieltjes(0.5, 0.1), rel=0.01)

    def test_unit_ratio_golden_value(self):
        vals = [resolvent_trace(draw_channel(256, 256, RngSeed(4, t)), 1.0) for t in range(50)]
        assert np.mean(vals) == pytest.approx((math.sqrt(5) - 1) / 2, rel=0.01)

    def test_bounds(self):
        for t in range(10):
            H = draw_channel(24, 32, RngSeed(5, t))
            for z in (0.05, 0.5, 5.0):
                v = resolvent_trace(H, z)
                assert 0 < v <= 1.0 / z
        with pytest.raises(ValueError):
            resolvent_trace(H, 0.0)


def _inv_sq_trace(H: np.ndarray, theta: float) -> float:
    """(1/L) Tr{(theta I + (1/L) H^H H)^-2} via singular values."""
    L = H.shape[1]
    s = np.linalg.svd(H, compute_uv=False)
    lam = np.concatenate([(s * s) / L, np.zeros(L - s.size)])
    return float(np.mean(1.0 / (lam + theta) ** 2))


@pytest.mark.parametrize("theta", [0.1, 1.0])
def test_rank_one_perturbation_bound(theta):
    # removing one user's row moves the squared-resolvent trace by less
    # than the explicit 2/(theta^2 L) bound
    L = 256
    for t in range(5):
        H = draw_channel(128, L, RngSeed(6, t))
        gap = abs(_inv_sq_trace(H[1:], theta) - _inv_sq_trace(H, theta))
        assert gap < 2.0 / (theta**2 * L)

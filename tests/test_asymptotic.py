import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from sqfpairs.asymptotic import (
    EulerProductEstimate,
    ScanRow,
    constant_c,
    dirichlet_partial_sum,
    dirichlet_tail_bound,
    error_scan,
    harmonic_lambda_sums,
    lambda_p_squared,
    rho,
    rho_fourier,
)
from sqfpairs.counting import count_pairs_direct, count_pairs_ladder
from sqfpairs.lambdasums import solve_circle
from sqfpairs.ntcore import BudgetError, factorize, mobius, primes_upto, tau


class TestLambdaPSquared:
    def test_two(self):
        assert lambda_p_squared(2) == 0

    def test_three(self):
        assert lambda_p_squared(3) == 12
        assert len(solve_circle(9)) == 12

    def test_five(self):
        assert lambda_p_squared(5) == 20
        assert len(solve_circle(25)) == 20

    def test_closed_form_matches_enumeration(self):
        # the enumerated solution sets are the oracle for the closed form
        for p in primes_upto(101).tolist():
            if p == 2:
                continue
            closed = p * (p - 1) if p % 4 == 1 else p * (p + 1)
            assert lambda_p_squared(p) == closed == len(solve_circle(p * p))

    def test_beyond_enumeration_range(self):
        assert lambda_p_squared(53) == 53 * 52   # 53 = 1 (mod 4)
        assert lambda_p_squared(59) == 59 * 60   # 59 = 3 (mod 4)

    def test_large_prime_is_exact(self):
        p = 2**32 - 5  # prime, = 3 (mod 4); p * (p + 1) overflows int64
        assert lambda_p_squared(p) == p * (p + 1)
        with pytest.raises(ValueError):
            lambda_p_squared(2**61 - 1)  # beyond is_prime's range n < 2**32

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            lambda_p_squared(10)


@pytest.fixture(scope="module")
def mp_c():
    """c from mpmath at 30 digits: the closed-form factors from zeta(2),
    zeta(6) and L(3, chi_-4), and the correction product over the primes
    3 <= p <= 2e4, whose omitted tail is below 2e-18."""
    with mpmath.workdps(30):
        chi4 = mpmath.dirichlet(3, [0, 1, 0, -1])
        closed = (mpmath.mpf(4) / 3) / mpmath.zeta(2) * chi4 / (mpmath.zeta(6) * (1 - mpmath.mpf(2) ** -6))
        correction = mpmath.mpf(1)
        for p in primes_upto(20_000).tolist()[1:]:
            chi = 1 if p % 4 == 1 else -1
            p = mpmath.mpf(p)
            correction *= 1 + chi / (p**5 * (1 - p**-2) * (1 + chi * p**-3))
        return closed * correction


class TestConstantC:
    def test_p_two(self, mp_c):
        est = constant_c(2)
        assert est.value == 240 / math.pi**5  # no correction factor below 3
        assert abs(math.log(est.value / mp_c)) <= est.tail_bound

    def test_p_three(self, mp_c):
        est = constant_c(3)
        assert abs(math.log(est.value / mp_c)) <= est.tail_bound
        # t_3 = -1 / (3^5 (8/9)(26/27)) = -1/208
        assert abs(est.value - 240 / math.pi**5 * 207 / 208) <= 1e-15

    def test_in_unit_interval_beyond_two(self):
        for P in (3, 10, 100, 1000):
            assert 0 < constant_c(P).value < 1

    def test_refinement_within_tail(self):
        for P in (100, 1000, 10_000):
            lo, hi = constant_c(P), constant_c(2 * P)
            assert abs(hi.value - lo.value) <= lo.tail_bound

    def test_order_of_magnitude_refinement(self):
        lo, hi = constant_c(10_000), constant_c(100_000)
        assert abs(hi.value - lo.value) <= lo.tail_bound

    def test_tail_bound_decreases(self):
        tails = [constant_c(P).tail_bound for P in (100, 1000, 10_000)]
        assert tails[0] > tails[1] > tails[2]

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            constant_c(1)

    def test_dirichlet_series_agrees(self):
        series = dirichlet_partial_sum(500)
        prod = constant_c(10_000)
        assert abs(series - prod.value) <= dirichlet_tail_bound(500) + prod.tail_bound

    def test_matches_scalar_loop(self):
        # the plain truncated product, one prime at a time with exact integer
        # quotients and enumerated lam(p^2) for small p, is above c, and its
        # own tail (every omitted factor is 1 - u with u <= (p^2 + p)/p^4,
        # summed over the primes to 10P, then an integral) bounds it below
        for P in (10**3, 10**4, 10**5, 10**6):
            plain = 1.0
            for p in primes_upto(P).tolist():
                lam = len(solve_circle(p * p)) if p < 50 else p * (p - 1) if p % 4 == 1 else p * (p + 1)
                plain *= 1.0 - lam / p**4
            p = primes_upto(10 * P).astype(float)
            u = (p * p + p) / p**4
            plain_tail = float(np.sum(u / (1.0 - u), where=p > P))
            N = 10 * P
            plain_tail += (1.0 / N + 0.5 / (N * N)) / (1.0 - (N * N + N) / N**4)
            assert plain * math.exp(-plain_tail) <= constant_c(P).value <= plain

    @pytest.mark.parametrize("P", [10**4, 10**5, 10**6])
    def test_pinned_to_mpmath(self, P, mp_c):
        assert abs(constant_c(P).value - mp_c) <= 1e-15 * mp_c

    @pytest.mark.parametrize("P", [100, 1000, 10**4])
    def test_log_deviation_within_tail_bound(self, P, mp_c):
        est = constant_c(P)
        with mpmath.workdps(30):
            assert abs(mpmath.log(mp_c / est.value)) <= est.tail_bound

    @pytest.mark.parametrize("P", [1e5, 2.5, True])
    def test_rejects_non_integer_cutoff(self, P):
        with pytest.raises(ValueError, match="cutoff"):
            constant_c(P)

    def test_numpy_integer_cutoff(self):
        assert constant_c(np.int64(10**5)) == constant_c(10**5)


class TestDirichletSums:
    @pytest.mark.parametrize("dmax", [1, 10, 300])
    def test_partial_sum_matches_factorization(self, dmax):
        want = 0.0
        for d in range(1, dmax + 1):
            lam = 1
            for p, _ in factorize(d):
                lam *= p * (p - 1) if p % 4 == 1 else p * (p + 1) if p > 2 else 0
            want += mobius(d) * lam / d**4
        assert abs(dirichlet_partial_sum(dmax) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("dmax", [1, 10, 300])
    def test_tail_bound_matches_divisor_count(self, dmax):
        M = 20 * dmax
        want = sum(tau(d) / (d * d) for d in range(dmax + 1, M + 1) if mobius(d))
        want += 4.0 / math.sqrt(M)
        assert abs(dirichlet_tail_bound(dmax) - want) <= 1e-12 * want

    @pytest.mark.parametrize("fn,args", [
        (harmonic_lambda_sums, (3, 2.5)),
        (harmonic_lambda_sums, (3, 10.0)),
        (harmonic_lambda_sums, (3, True)),
        (harmonic_lambda_sums, (3, np.array([2.0, 10.0]))),
        (dirichlet_partial_sum, (10.5,)),
        (dirichlet_partial_sum, (10.0,)),
        (dirichlet_tail_bound, (10.5,)),
        (dirichlet_tail_bound, (True,)),
    ], ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__)
    def test_rejects_non_integer_D_and_dmax(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    def test_rejects_nonpositive_dmax(self):
        with pytest.raises(ValueError):
            dirichlet_partial_sum(0)
        with pytest.raises(ValueError):
            dirichlet_tail_bound(0)


class TestRho:
    @pytest.mark.parametrize("t,want", [(0.0, 0.5), (0.25, 0.25), (-0.3, -0.2),
                                        (1.0, 0.5), (2.75, -0.25)])
    def test_values(self, t, want):
        assert abs(rho(t) - want) < 1e-12

    def test_range(self):
        rng = random.Random(3)
        for _ in range(1000):
            v = rho(rng.uniform(-100, 100))
            assert -0.5 < v <= 0.5

    def test_periodicity(self):
        for t in (0.1, 0.5, 0.9, -0.4):
            assert abs(rho(t) - rho(t + 3)) < 1e-12


class TestRhoFourier:
    def test_integer_point(self):
        assert rho_fourier(10, 0.0) == 0.0

    def test_half_point(self):
        assert abs(rho_fourier(2, 0.5)) < 1e-12  # sine terms vanish

    def test_quarter_point(self):
        assert abs(rho_fourier(50, 0.25) - 0.25) < 0.02

    def test_matches_sine_series(self):
        rng = random.Random(5)
        for _ in range(50):
            D = rng.randrange(2, 200)
            t = rng.uniform(-3, 3)
            want = sum(math.sin(2 * math.pi * n * t) / (math.pi * n) for n in range(1, D + 1))
            assert abs(rho_fourier(D, t) - want) < 1e-9

    def test_envelope_sample(self):
        rng = random.Random(6)
        for D in (10, 100, 1000):
            for _ in range(200):
                t = rng.uniform(0.001, 0.999)
                dist = min(t, 1 - t)
                err = abs(rho(t) - rho_fourier(D, t))
                assert err <= 3 * min(1.0, 1.0 / (D * dist))

    def test_rejects_small_D(self):
        with pytest.raises(ValueError):
            rho_fourier(1.5, 0.3)

    def test_array_t_equals_the_scalar_calls(self):
        t = np.random.default_rng(8).uniform(-5, 5, size=(3, 7))
        for D in (2, 10, 1000):
            got = rho_fourier(D, t)
            assert got.shape == t.shape and got.dtype == float
            assert got.tolist() == [[rho_fourier(D, x) for x in row] for row in t.tolist()]
        assert type(rho_fourier(10, 0.3)) is float
        assert type(rho_fourier(10, np.float64(0.3))) is float

    def test_imaginary_leak_in_one_entry_raises(self, monkeypatch):
        conj = np.conj

        def leaky(phase):
            out = conj(phase)
            out[1] *= 1j  # the second t's negative terms no longer mirror its positive ones
            return out

        monkeypatch.setattr(np, "conj", leaky)
        with pytest.raises(ArithmeticError, match="failed to cancel"):
            rho_fourier(10, np.array([0.1, 0.3, 0.7]))


class TestHarmonicSums:
    def test_trivial_modulus(self):
        for D in (2, 10, 100):
            U, V = harmonic_lambda_sums(1, D)
            harmonic = sum(1 / n for n in range(1, D + 1))
            assert abs(U - harmonic) < 1e-9
            assert abs(V - harmonic**2) < 1e-9

    def test_matches_scalar_definition(self):
        from sqfpairs.lambdasums import lambda_any
        for q, D in [(3, 7), (9, 12), (10, 9), (12, 15), (25, 6)]:
            U, V = harmonic_lambda_sums(q, D)
            u_want = sum(abs(lambda_any(q, n, 0)) / n for n in range(1, D + 1))
            v_want = sum(
                abs(lambda_any(q, n, m)) / (n * m)
                for n in range(1, D + 1)
                for m in range(1, D + 1)
            )
            assert abs(U - u_want) < 1e-6 * max(1, u_want)
            assert abs(V - v_want) < 1e-6 * max(1, v_want)

    def test_envelope_examples(self):
        U, _ = harmonic_lambda_sums(9, 50)
        assert U / (9**0.7 * 50**0.2) < 20
        _, V = harmonic_lambda_sums(25, 100)
        assert V / (25**0.7 * 100**0.2) < 20

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            harmonic_lambda_sums(8, 10)
        with pytest.raises(ValueError):
            harmonic_lambda_sums(3, 1)

    def test_rejects_modulus_above_table_limit(self):
        with pytest.raises(BudgetError):
            harmonic_lambda_sums(4099, 10)

    def test_array_of_D_equals_loop(self):
        Ds = np.array([2, 7, 10, 100, 1000])
        for q in (1, 3, 10, 12, 25, 77):
            U, V = harmonic_lambda_sums(q, Ds)
            assert U.shape == V.shape == (5,)
            for D, u, v in zip(Ds.tolist(), U.tolist(), V.tolist()):
                u_want, v_want = harmonic_lambda_sums(q, D)
                assert abs(u - u_want) <= 1e-12 * max(1.0, u_want)
                assert abs(v - v_want) <= 1e-12 * max(1.0, v_want)

    def test_int_D_gives_floats(self):
        U, V = harmonic_lambda_sums(9, 12)
        assert type(U) is float and type(V) is float

    @pytest.mark.parametrize("q", [130, 147, 193])
    def test_slabs_match_the_full_table(self, q):
        # more than one slab of residues n: the sums over slabs equal the
        # sums over the whole q x q table of |lam|
        from sqfpairs.lambdasums import lambda_any_table

        mags = np.abs(lambda_any_table(q))
        Ds = np.array([2, 50, 1000])
        U, V = harmonic_lambda_sums(q, Ds)
        for D, u, v in zip(Ds.tolist(), U.tolist(), V.tolist()):
            n = np.arange(1, D + 1)
            w = np.zeros(q)
            np.add.at(w, n % q, 1.0 / n)
            assert abs(u - w @ mags[:, 0]) <= 1e-12 * u
            assert abs(v - w @ mags @ w) <= 1e-12 * v

    def test_no_q_by_q_table_is_held(self):
        # a q x q table of lam at q = 489 alone is 3.6 MiB, and the table
        # with its temporaries peaked at 11.2 MiB
        tracemalloc.start()
        try:
            harmonic_lambda_sums(489, np.array([2, 10, 100, 1000]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_array_D_containing_one_rejected(self):
        with pytest.raises(ValueError):
            harmonic_lambda_sums(3, np.array([10, 1, 100]))

    def test_array_D_budget_checked_before_table(self, monkeypatch):
        from sqfpairs import asymptotic

        def refuse(q, n, m):
            raise AssertionError("table built before the budget check")

        monkeypatch.setattr(asymptotic, "lambda_any", refuse)
        with pytest.raises(BudgetError):
            harmonic_lambda_sums(4099, np.array([2, 10, 100]))


class TestErrorScan:
    def test_single_row(self):
        res = error_scan([100], 100)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.S == count_pairs_direct(100).S
        assert abs(row.E) < 100**2
        assert res.alpha is None  # fewer than 4 usable rows

    def test_error_matches_definition(self):
        res = error_scan([50, 100], 1000)
        for row in res.rows:
            assert row.E == row.S - res.c * row.H * row.H

    def test_fit_recovers_synthetic_slope(self):
        # the fit itself: rows with |E| = H**1.25 must give alpha = 1.25
        hs = np.array([100, 200, 400, 800, 1600])
        es = hs.astype(float) ** 1.25
        alpha = float(np.polyfit(np.log(hs), np.log(es), 1)[0])
        assert abs(alpha - 1.25) < 1e-9

    def test_fit_is_the_least_squares_slope(self):
        # the closed-form slope is np.polyfit's degree-1 fit to the rows
        res = error_scan([50, 100, 200, 400, 800, 1600], 10_000)
        usable = [r for r in res.rows if r.E != 0.0]
        assert len(usable) >= 4
        fit = np.polyfit(np.log([r.H for r in usable]), np.log([abs(r.E) for r in usable]), 1)[0]
        assert abs(res.alpha - fit) <= 1e-12

    def test_ladder_fit(self):
        res = error_scan([50, 100, 200, 400, 800], 10_000)
        assert res.alpha is not None
        assert len(res.rows) == 5
        for row in res.rows:
            assert abs(row.E) < row.H**2

    def test_rows_come_from_one_ladder_probe(self):
        ladder = [30, 64, 65, 300]
        res = error_scan(ladder, 1000)
        assert [(r.H, r.S) for r in res.rows] == [(r.H, r.S) for r in count_pairs_ladder(ladder)]
        assert res.sieve_elapsed >= 0
        times = [r.elapsed for r in res.rows]
        assert times == sorted(times)

    def test_peak_is_the_larger_stage_not_their_sum(self):
        # the probe (a 2.6 MB window and its scratch, a 4.6 MB peak at
        # H = 12000) is done and freed before constant_c sieves the primes
        # up to 5e6 (a 13 MB peak)
        ladder, P = [12000], 5_000_000

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stages = peak(count_pairs_ladder, ladder), peak(constant_c, P)
        assert min(stages) > 2**22  # each stage alone is larger than the slack
        assert peak(error_scan, ladder, P) <= max(stages) + 2**20

    @pytest.mark.parametrize("P", [1e3, 2.5, True])
    def test_non_integer_cutoff_rejected_before_the_sieve(self, monkeypatch, P):
        from sqfpairs import asymptotic

        def refuse(*args, **kwargs):
            raise AssertionError("the sieve was probed before P was checked")

        monkeypatch.setattr(asymptotic, "_probe_ladder", refuse)
        with pytest.raises(ValueError, match="cutoff"):
            error_scan([10, 20], P)

    def test_rejects_bad_ladders(self):
        with pytest.raises(ValueError):
            error_scan([], 100)
        with pytest.raises(ValueError):
            error_scan([100, 100], 100)
        with pytest.raises(ValueError):
            error_scan([200, 100], 100)


def test_scan_row_is_frozen():
    row = ScanRow(10, 5, -1.0, 0.0)
    with pytest.raises(Exception):
        row.S = 6


def test_estimate_is_frozen():
    est = EulerProductEstimate(10, 0.8, 0.01)
    with pytest.raises(Exception):
        est.value = 0.9

import math
import random
import re
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
from sqfpairs.expsums import DEFAULT_SOLVE_CEILING
from sqfpairs.ntcore import BudgetError, budget_scope, factorize, mobius, primes_upto, tau


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

    def test_takes_numpy_integers(self):
        assert lambda_p_squared(np.int64(5)) == lambda_p_squared(np.uint16(5)) == 20
        assert type(lambda_p_squared(np.int64(7))) is int
        with pytest.raises(ValueError):
            lambda_p_squared(True)


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
        # constant-consistency checks P = 100, 1000 and 10^4
        for P in (3, 10):
            assert 0 < constant_c(P).value < 1

    def test_order_of_magnitude_refinement(self):
        lo, hi = constant_c(10_000), constant_c(100_000)
        assert abs(hi.value - lo.value) <= lo.tail_bound

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            constant_c(1)

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
        # math.fsum of the sines shares no code with the running products;
        # the grid has integers, half-integers and the ends +-5, where the
        # sines vanish, and the quarters and eighths between them, where a
        # lost sign or factor pi shows
        rng = random.Random(5)
        cases = [(D, t) for D in (2, 3, 10, 101) for t in np.linspace(-5, 5, 81).tolist()]
        cases += [(rng.randrange(2, 200), rng.uniform(-3, 3)) for _ in range(50)]
        for D, t in cases:
            want = math.fsum(math.sin(2 * math.pi * n * t) / (math.pi * n) for n in range(1, D + 1))
            assert abs(rho_fourier(D, t) - want) < 1e-12, (D, t)

    def test_rejects_small_D(self):
        with pytest.raises(ValueError):
            rho_fourier(1.5, 0.3)

    @pytest.mark.parametrize("D", [math.inf, math.nan, -math.inf, np.float64("nan"), True, "10"])
    def test_rejects_non_finite_D(self, D):
        with pytest.raises(ValueError, match="D must be a finite number >= 2"):
            rho_fourier(D, 0.3)

    def test_takes_numpy_numbers_as_D(self):
        assert rho_fourier(np.int64(10), 0.3) == rho_fourier(np.float64(10.5), 0.3) == rho_fourier(10, 0.3)

    def test_within_rounding_of_the_exact_series_near_integers(self):
        # near an integer t the series is steep, and a phase angle
        # 2*pi*n*t rounded at |t| ~ 4 is off by up to 2e-13 at D = 1000;
        # running products of e(t - round(t)) keep the angle exact
        ts = np.array([4.000257853022156, -2.9996, 0.0007, 1.5003, -4.9991, 3.25, 4.9993])
        got = rho_fourier(1000, ts)
        with mpmath.workdps(30):
            for t, value in zip(ts.tolist(), got.tolist()):
                want = mpmath.fsum(mpmath.sin(2 * mpmath.pi * n * mpmath.mpf(t)) / (mpmath.pi * n)
                                   for n in range(1, 1001))
                assert abs(value - float(want)) < 2e-14, t

    def test_array_t_equals_the_scalar_calls(self):
        t = np.random.default_rng(8).uniform(-5, 5, size=(3, 7))
        for D in (2, 10, 1000):
            got = rho_fourier(D, t)
            assert got.shape == t.shape and got.dtype == float
            assert got.tolist() == [[rho_fourier(D, x) for x in row] for row in t.tolist()]
        assert type(rho_fourier(10, 0.3)) is float
        assert type(rho_fourier(10, np.float64(0.3))) is float


def _stated_bytes(q, D):
    """The bytes harmonic_lambda_sums(q, D) states to the budget, read off
    its refusal under a budget that admits only the per-residue tables."""
    with budget_scope(128 * q), pytest.raises(BudgetError) as refusal:
        harmonic_lambda_sums(q, D)
    return int(re.search(r"needs (\d+) bytes", str(refusal.value)).group(1))


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
        # the per-residue ceiling of the Kloosterman rows' tables
        q = DEFAULT_SOLVE_CEILING + 1
        with pytest.raises(BudgetError, match="ceiling"):
            harmonic_lambda_sums(q, 10)

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

    def test_empty_D_gives_empty_arrays(self):
        # as the other broadcast evaluators give an empty result for an
        # empty argument; the modulus is still checked
        for q in (1, 4, 9, 10, 25):
            U, V = harmonic_lambda_sums(q, np.array([], dtype=int))
            assert U.shape == V.shape == (0,) and U.dtype == V.dtype == float, q
        with pytest.raises(ValueError):
            harmonic_lambda_sums(8, np.array([], dtype=int))

    @pytest.mark.parametrize("q", [130, 147, 193])
    def test_slabs_match_the_full_table(self, q):
        # the sums over gcd classes and square sums equal the sums over the
        # whole q x q table of |lam|
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

    def test_no_q_by_q_table_is_held(self, traced_peak):
        # a q x q table of lam at q = 489 alone is 3.6 MiB, and of |lam|
        # 1.8 MiB; the table with its temporaries peaked at 11.2 MiB
        with traced_peak() as traced:
            harmonic_lambda_sums(489, np.array([2, 10, 100, 1000]))
        assert traced.peak <= 2**20

    def test_array_D_containing_one_rejected(self):
        with pytest.raises(ValueError):
            harmonic_lambda_sums(3, np.array([10, 1, 100]))

    def test_array_D_budget_checked_before_table(self, monkeypatch):
        from sqfpairs import expsums

        def refuse(q):
            raise AssertionError("row built before the budget check")

        D = np.array([2, 10, 100])
        need = _stated_bytes(4099, D)
        monkeypatch.setattr(expsums, "kloosterman_row", refuse)
        with budget_scope(need - 1), pytest.raises(BudgetError):
            harmonic_lambda_sums(4099, D)

    @pytest.mark.parametrize("q", [q for q in range(1, 65) if q % 8])
    def test_matches_the_direct_table(self, q):
        # lambda_direct_table, the 2-D FFT of the solution set, shares no
        # code with the Kloosterman rows and the square-sum convolutions
        from sqfpairs.lambdasums import lambda_direct_table

        mags = np.abs(lambda_direct_table(q))
        Ds = np.array([2, 7, 64, 1000])
        U, V = harmonic_lambda_sums(q, Ds)
        for D, u, v in zip(Ds.tolist(), U.tolist(), V.tolist()):
            n = np.arange(1, D + 1)
            w = np.zeros(q)
            np.add.at(w, n % q, 1.0 / n)
            u_want, v_want = w @ mags[:, 0], w @ mags @ w
            assert abs(u - u_want) <= 1e-12 * max(1.0, u_want), (D, u, u_want)
            assert abs(v - v_want) <= 1e-12 * max(1.0, v_want), (D, v, v_want)

    @pytest.mark.parametrize("q,Ds", [(4099, [2, 7, 40]), (100003, [2, 5])])
    def test_moduli_past_the_old_grid_ceiling(self, q, Ds):
        # admitted now; at D < q each sum is a few direct circle sums
        from sqfpairs.lambdasums import lambda_direct

        U, V = harmonic_lambda_sums(q, np.array(Ds))
        for D, u, v in zip(Ds, U.tolist(), V.tolist()):
            n = np.arange(1, D + 1)
            u_want = np.abs(lambda_direct(q, n, 0)) @ (1.0 / n)
            v_want = (1.0 / n) @ np.abs(lambda_direct(q, n[:, None], n[None, :])) @ (1.0 / n)
            assert abs(u - u_want) <= 1e-12 * max(1.0, u_want), (D, u, u_want)
            assert abs(v - v_want) <= 1e-12 * max(1.0, v_want), (D, v, v_want)

    def test_refused_just_below_the_stated_bytes(self, traced_peak):
        # refused before allocating; admitted at the stated bytes, which
        # bound what the sums hold
        D = np.array([2, 10, 100, 1000])
        need = _stated_bytes(4099, D)
        assert need < 128 * 4099 + 4 * 2**20  # O(q len(D)), not q**2
        with traced_peak() as refused, budget_scope(need - 1), \
                pytest.raises(BudgetError, match="harmonic_lambda_sums"):
            harmonic_lambda_sums(4099, D)
        with traced_peak() as admitted, budget_scope(need):
            harmonic_lambda_sums(4099, D)
        assert refused.peak < 2**20
        assert admitted.peak <= need


class TestErrorScan:
    def test_single_row(self):
        res = error_scan([100], 100)
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.S == count_pairs_direct(100).S
        assert abs(row.E) < 100**2
        assert res.alpha is None and res.alpha_stderr is None  # fewer than 4 usable rows

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

    def test_alpha_stderr_is_the_textbook_standard_error(self):
        # se(slope) = sqrt(sum of squared residuals / (n - 2)) / sqrt(Sxx),
        # the residuals taken about np.polyfit's line
        res = error_scan([50, 100, 200, 400, 800, 1600], 10_000)
        usable = [r for r in res.rows if r.E != 0.0]
        x = np.log([r.H for r in usable])
        y = np.log([abs(r.E) for r in usable])
        slope, intercept = np.polyfit(x, y, 1)
        ssr = float(((y - (slope * x + intercept)) ** 2).sum())
        want = math.sqrt(ssr / (len(x) - 2)) / math.sqrt(float(((x - x.mean()) ** 2).sum()))
        assert res.alpha_stderr > 0 and abs(res.alpha_stderr - want) <= 1e-12 * want

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

    def test_peak_is_the_larger_stage_not_their_sum(self, monkeypatch, traced_peak):
        # the probe frees its window and scratch before constant_c sieves
        # the primes: on entry to constant_c the scan holds next to nothing,
        # though the probe peaked above 1 MiB
        from sqfpairs import asymptotic
        entries = []

        def traced_entry(P):
            entries.append(tracemalloc.get_traced_memory())  # (current, peak so far)
            return constant_c(P)

        monkeypatch.setattr(asymptotic, "constant_c", traced_entry)
        with traced_peak():
            error_scan([4000], 10**5)
        [(held, probe_peak)] = entries
        assert probe_peak > 2**20
        assert held < 2**16

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
        for ladder in ([2.5], [True, 3], [0, 4]):
            with pytest.raises(ValueError, match="H must be a positive integer"):
                error_scan(ladder, 100)

    def test_numpy_heights_are_reported_as_ints(self):
        res = error_scan(np.array([10, 20]), 100)
        assert [(type(r.H), r.H, r.S) for r in res.rows] == [
            (int, r.H, r.S) for r in error_scan([10, 20], 100).rows]


def test_scan_row_is_frozen():
    row = ScanRow(10, 5, -1.0, 0.0)
    with pytest.raises(Exception):
        row.S = 6


def test_estimate_is_frozen():
    est = EulerProductEstimate(10, 0.8, 0.01)
    with pytest.raises(Exception):
        est.value = 0.9

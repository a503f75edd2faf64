import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest

from sqfpairs import expsums, lambdasums
from sqfpairs.asymptotic import harmonic_lambda_sums
from sqfpairs.expsums import complex_close
from sqfpairs.lambdasums import (
    LAMBDA_TOLERANCE,
    lambda_any,
    lambda_any_table,
    lambda_direct,
    lambda_direct_table,
    lambda_fast_odd,
    lambda_multiplicative,
    solve_circle,
)
from sqfpairs.ntcore import BudgetError, divisors, factorize


def brute_solutions(q):
    """Exhaustive oracle over [1, q]^2."""
    return [(x, y) for x in range(1, q + 1) for y in range(1, q + 1)
            if (x * x + y * y + 1) % q == 0]


def lambda_oracle(q, n, m):
    return sum(cmath.exp(2j * cmath.pi * ((n * x + m * y) % q) / q)
               for x, y in brute_solutions(q))


class TestSolveCircle:
    def test_modulus_one(self):
        assert solve_circle(1).pairs() == [(1, 1)]

    def test_modulus_two(self):
        assert solve_circle(2).pairs() == [(1, 2), (2, 1)]

    def test_modulus_four_empty(self):
        assert solve_circle(4).pairs() == []
        assert {(x * x + y * y + 1) % 4 for x in range(4) for y in range(4)} == {1, 2, 3}

    @pytest.mark.parametrize("q", list(range(1, 61)))
    def test_matches_exhaustive_oracle(self, q):
        assert solve_circle(q).pairs() == brute_solutions(q)

    @pytest.mark.parametrize("q", [101, 113, 121, 125, 147, 169, 242, 245, 330, 361, 490])
    def test_general_path_matches_oracle(self, q):
        # prime powers, products of them, and even moduli 2 (mod 4)
        assert solve_circle(q).pairs() == brute_solutions(q)

    def test_counts_at_identity_moduli(self):
        # count_pairs_mobius(200) solves mod d^2 for squarefree d <= 283.
        # Valid, unique pairs in the right number are the whole solution
        # set; the count is prod over p | d of p * (p - (-1)**((p-1)/2)).
        for d in range(1, 284):
            factors = factorize(d)
            if any(e > 1 for _, e in factors):
                continue
            q = d * d
            want = 0 if d % 2 == 0 else math.prod(
                p * (p - (-1) ** ((p - 1) // 2)) for p, _ in factors)
            sols = solve_circle(q)
            xs, ys = sols.xs, sols.ys
            assert len(sols) == want, d
            assert ((xs * xs + ys * ys + 1) % q == 0).all(), d
            assert ((xs >= 1) & (xs <= q) & (ys >= 1) & (ys <= q)).all(), d
            dx, dy = np.diff(xs), np.diff(ys)
            assert ((dx > 0) | ((dx == 0) & (dy > 0))).all(), d  # sorted, no repeats

    def test_invariants(self):
        for q in (3, 5, 50, 65, 101, 325):
            sols = solve_circle(q)
            pairs = sols.pairs()
            assert len(set(pairs)) == len(pairs)
            assert pairs == sorted(pairs)
            for x, y in pairs:
                assert 1 <= x <= q and 1 <= y <= q
                assert (x * x + y * y + 1) % q == 0

    def test_counts(self):
        assert len(solve_circle(3)) == 4
        assert len(solve_circle(5)) == 4
        assert len(solve_circle(9)) == 12
        assert len(solve_circle(25)) == 20

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            solve_circle(0)
        with pytest.raises(BudgetError):
            solve_circle(10**9)

    @staticmethod
    def _sorted_by_int64_keys(q):
        # the counting sort of solve_circle with a stable argsort of int64
        # keys (a merge sort) in place of 16-bit keys (a radix sort)
        r = np.arange(1, q + 1, dtype=np.int64)
        sq = r * r % q
        order = np.argsort(sq, kind="stable")
        count = np.bincount(sq, minlength=q)
        start = np.cumsum(count) - count
        want = (-sq - 1) % q
        n = count[want]
        return np.repeat(r, n), r[order[np.repeat(start[want] - (np.cumsum(n) - n), n)
                                         + np.arange(n.sum())]]

    def test_order_equals_an_int64_sort(self):
        for q in list(range(1, 3001)) + [65_536, 65_537]:
            sols = solve_circle(q)
            xs, ys = self._sorted_by_int64_keys(q)
            assert np.array_equal(sols.xs, xs) and np.array_equal(sols.ys, ys), q
            dx, dy = np.diff(xs), np.diff(ys)
            assert ((dx > 0) | ((dx == 0) & (dy > 0))).all(), q  # sorted, no repeats

    def test_arrays_read_only(self):
        sols = solve_circle(13)
        with pytest.raises(ValueError):
            sols.xs[0] = 0


class TestLambdaDirect:
    def test_solution_counts(self):
        assert complex_close(lambda_direct(3, 0, 0), 4)
        assert complex_close(lambda_direct(5, 0, 0), 4)
        assert lambda_direct(1, 17, -9) == 1

    def test_matches_oracle(self):
        rng = random.Random(77)
        for _ in range(120):
            q = rng.randrange(1, 70)
            n, m = rng.randrange(-2 * q, 2 * q), rng.randrange(-2 * q, 2 * q)
            assert complex_close(lambda_direct(q, n, m), lambda_oracle(q, n, m))

    def test_periodicity_is_exact(self):
        rng = random.Random(78)
        for _ in range(200):
            q = rng.randrange(1, 300)
            if q % 8 == 0:
                continue
            n, m = rng.randrange(q), rng.randrange(q)
            base = lambda_direct(q, n, m)
            assert lambda_direct(q, n + q, m) == base
            assert lambda_direct(q, n, m + q) == base
            assert lambda_direct(q, n - q, m) == base

    def test_conjugate_symmetry(self):
        rng = random.Random(79)
        for _ in range(200):
            q = rng.randrange(1, 301)
            n, m = rng.randrange(q), rng.randrange(q)
            assert complex_close(lambda_direct(q, -n, -m), lambda_direct(q, n, m).conjugate())

    def test_values_are_real(self):
        # the solution set is closed under (x, y) -> (q-x, q-y)
        rng = random.Random(80)
        for _ in range(100):
            q = rng.randrange(1, 200)
            v = lambda_direct(q, rng.randrange(q), rng.randrange(q))
            assert abs(v.imag) <= 1e-9 * max(1.0, abs(v))


class TestLambdaFastOdd:
    def test_count_case(self):
        assert abs(lambda_fast_odd(3, 0, 0) - 4) <= LAMBDA_TOLERANCE * 3

    @pytest.mark.parametrize("q,n,m", [(15, 1, 2), (9, 3, 6), (45, 15, 30), (225, 30, 45),
                                       (3, 1, 0), (1, 0, 0), (105, 0, 35)])
    def test_against_direct(self, q, n, m):
        a = lambda_fast_odd(q, n, m)
        b = lambda_direct(q, n, m)
        assert abs(a - b) <= LAMBDA_TOLERANCE * q, (q, n, m, a, b)

    def test_divisor_terms_exercised(self):
        # arguments sharing a factor with q activate the l < q terms
        for q, n, m in [(9, 3, 6), (27, 9, 18), (45, 9, 36), (49, 7, 14)]:
            assert math.gcd(math.gcd(n, m), q) > 1
            a = lambda_fast_odd(q, n, m)
            b = lambda_direct(q, n, m)
            assert abs(a - b) <= LAMBDA_TOLERANCE * q

    def test_random_odd_moduli(self):
        rng = random.Random(91)
        for _ in range(150):
            q = 2 * rng.randrange(0, 150) + 1
            n, m = rng.randrange(-2 * q, 2 * q + 1), rng.randrange(-2 * q, 2 * q + 1)
            a = lambda_fast_odd(q, n, m)
            b = lambda_direct(q, n, m)
            assert abs(a - b) <= LAMBDA_TOLERANCE * q, (q, n, m)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            lambda_fast_odd(6, 0, 0)

    @pytest.mark.parametrize("q", [45, 105])
    def test_both_kloosterman_routes(self, monkeypatch, q):
        # a divisor l that serves more than l pairs reads the FFT row; the
        # others are summed directly, every one in a single call mod q;
        # both must give the oracle
        routes = []
        row, direct = lambdasums.kloosterman_row, lambdasums.kloosterman_direct
        monkeypatch.setattr(lambdasums, "kloosterman_row",
                            lambda l, n: routes.append(("row", l)) or row(l, n))
        monkeypatch.setattr(
            lambdasums, "kloosterman_direct",
            lambda l, n, c: routes.append(("direct", l, np.size(n))) or direct(l, n, c))
        a = np.arange(q)
        grid = lambda_fast_odd(q, a[:, None], a[None, :])
        assert ("row", q) in routes
        want = lambda_direct(q, a[:, None], a[None, :])
        assert np.abs(grid - want).max() <= LAMBDA_TOLERANCE * q
        routes.clear()
        n, m = sample_arguments(q, 6, q)
        few = lambda_fast_odd(q, n, m)
        # one request per (divisor l > 1, pair) with q/l dividing n and m
        requests = sum(int(((n % (q // l) == 0) & (m % (q // l) == 0)).sum())
                       for l in divisors(q)[1:])
        assert routes == [("direct", q, requests)]
        assert np.abs(few - lambda_direct(q, n, m)).max() <= LAMBDA_TOLERANCE * q

    def test_batched_divisor_route_equals_the_oracle(self, monkeypatch):
        # K(l; 1, c) = phi(l)/phi(q) K(q; q/l, c q/l): pairs that share
        # factors with q exercise every divisor l, summed in one call mod q
        # while each l serves at most l pairs, else read from the rows
        calls = []
        direct = lambdasums.kloosterman_direct
        monkeypatch.setattr(lambdasums, "kloosterman_direct",
                            lambda l, n, c: calls.append(l) or direct(l, n, c))
        rng = np.random.default_rng(23)
        worst, batched = 0.0, 0
        for q in range(1, 700, 2):
            ls = divisors(q)[1:]
            r = rng.choice([q // l for l in divisors(q)], size=(2, 8))
            n, m = r * rng.integers(0, q, size=(2, 8))
            n[0] = m[0] = 0
            served = [int(((n % (q // l) == 0) & (m % (q // l) == 0)).sum()) for l in ls]
            calls.clear()
            got = lambda_fast_odd(q, n, m)
            assert calls == ([q] if all(k <= l for k, l in zip(served, ls)) and q > 1 else []), q
            batched += bool(calls)
            worst = max(worst, np.abs(got - lambda_direct(q, n, m)).max() / q)
        assert batched >= 300 and worst <= 1e-13
        for q in range(1, 60, 2):
            a = np.arange(q)
            got = lambda_fast_odd(q, a[:, None], a[None, :])
            assert np.abs(got - lambda_direct_table(q)).max() <= 1e-12 * q, q

    def test_few_pairs_mod_a_large_modulus_read_the_row(self, monkeypatch):
        # 5 pairs x 20010 units is past the direct sums' cap of 2**16 entries
        q = 20011
        routes = []
        row, direct = lambdasums.kloosterman_row, lambdasums.kloosterman_direct
        monkeypatch.setattr(lambdasums, "kloosterman_row",
                            lambda l, n: routes.append(("row", l)) or row(l, n))
        monkeypatch.setattr(lambdasums, "kloosterman_direct",
                            lambda l, n, c: routes.append(("direct", l)) or direct(l, n, c))
        n = np.arange(5)
        got = lambda_fast_odd(q, n, 0)
        assert routes == [("row", q)]
        assert np.abs(got - lambda_direct(q, n, 0)).max() <= LAMBDA_TOLERANCE * q


class TestLambdaMultiplicative:
    def test_trivial_factor(self):
        for q in (2, 7, 12):
            assert complex_close(lambda_multiplicative(1, q, 3, 4), lambda_direct(q, 3, 4))

    def test_three_times_five(self):
        got = lambda_multiplicative(3, 5, 0, 0)
        assert complex_close(got, 16)
        assert complex_close(lambda_direct(15, 0, 0), 16)

    def test_nine_times_twenty_five(self):
        got = lambda_multiplicative(9, 25, 2, 7)
        want = lambda_direct(225, 2, 7)
        assert abs(got - want) <= LAMBDA_TOLERANCE * 225

    def test_random_coprime_pairs(self):
        rng = random.Random(101)
        done = 0
        while done < 60:
            q1, q2 = rng.randrange(1, 80), rng.randrange(1, 80)
            if math.gcd(q1, q2) != 1:
                continue
            n, m = rng.randrange(-50, 50), rng.randrange(-50, 50)
            got = lambda_multiplicative(q1, q2, n, m)
            want = lambda_direct(q1 * q2, n, m)
            assert abs(got - want) <= LAMBDA_TOLERANCE * q1 * q2, (q1, q2, n, m)
            done += 1

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            lambda_multiplicative(6, 10, 0, 0)


class TestLambdaAny:
    def test_four_vanishes(self):
        assert lambda_any(4, 5, -3) == 0

    def test_two(self):
        assert complex_close(lambda_any(2, 0, 0), 2)

    def test_fifty(self):
        a = lambda_any(50, 3, 4)
        b = lambda_direct(50, 3, 4)
        assert abs(a - b) <= LAMBDA_TOLERANCE * 50

    def test_all_moduli_to_200(self):
        rng = random.Random(111)
        for q in range(1, 201):
            if q % 8 == 0:
                continue
            for n, m in [(0, 0), (rng.randrange(-q, q), rng.randrange(-q, q))]:
                a = lambda_any(q, n, m)
                b = lambda_direct(q, n, m)
                assert abs(a - b) <= LAMBDA_TOLERANCE * q, (q, n, m)

    def test_rejects_multiples_of_eight(self):
        for q in (8, 16, 24, 1000):
            with pytest.raises(ValueError):
                lambda_any(q, 0, 0)

    @pytest.mark.parametrize("q", [33, 34, 35, 36, 37, 38, 39, 1, 2, 6])
    def test_never_calls_the_oracle(self, monkeypatch, q):
        # q = 33..39 covers every class mod 8 but 0
        want = lambda_direct_table(q)
        a = np.arange(q)

        def refuse(*args):
            raise AssertionError("lambda_any called its oracle")
        monkeypatch.setattr(lambdasums, "lambda_direct", refuse)
        assert np.abs(lambda_any_table(q) - want).max() <= LAMBDA_TOLERANCE * q
        got = lambda_any(q, a, a[::-1])
        assert np.abs(got - want[a, a[::-1]]).max() <= LAMBDA_TOLERANCE * q
        assert abs(lambda_any(q, 1, q - 2) - want[1 % q, (q - 2) % q]) <= LAMBDA_TOLERANCE * q


# (evaluator, moduli in its contract): odd moduli for the fast path,
# 8 not dividing q for the composite one
BROADCAST_CASES = [
    (lambda_direct, [1, 2, 4, 9, 12, 45, 50, 97]),
    (lambda_fast_odd, [1, 3, 9, 15, 45, 225]),
    (lambda_any, [1, 2, 4, 6, 12, 45, 50, 90]),
]


def assert_close_elementwise(got, want):
    for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


def sample_arguments(q, size, seed):
    """Random n, m in [-2q, 2q], with multiples of q's divisors mixed in
    so that every divisor class of the fast path is served."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([d for d in range(1, q + 1) if q % d == 0], size=(2, size))
    return scale * (rng.integers(-2 * q, 2 * q + 1, size=(2, size)) // scale)


class TestBroadcast:
    @pytest.mark.parametrize("fn,moduli", BROADCAST_CASES)
    def test_array_equals_scalar_loop(self, fn, moduli):
        for q in moduli:
            n, m = sample_arguments(q, 25, q)
            n[0] = m[0] = 0
            got = fn(q, n, m)
            assert got.shape == (25,)
            want = [fn(q, a, b) for a, b in zip(n.tolist(), m.tolist())]
            assert_close_elementwise(got, want)

    @pytest.mark.parametrize("fn,moduli", BROADCAST_CASES)
    def test_two_dimensional_arguments_keep_their_shape(self, fn, moduli):
        q = moduli[-1]
        n = np.arange(-6, 6).reshape(3, 4) * 5
        got = fn(q, n, 15)
        assert got.shape == (3, 4)
        assert_close_elementwise(got, [[fn(q, a, 15) for a in row] for row in n.tolist()])
        outer = fn(q, np.arange(3)[:, None] * 3, np.arange(4) * 5)
        assert outer.shape == (3, 4)
        assert_close_elementwise(outer, [[fn(q, 3 * a, 5 * b) for b in range(4)]
                                         for a in range(3)])

    @pytest.mark.parametrize("fn,moduli", BROADCAST_CASES)
    def test_scalar_input_returns_complex(self, fn, moduli):
        for q in moduli:
            assert type(fn(q, 3, -2)) is complex
            assert type(fn(q, np.int64(3), np.int64(-2))) is complex

    @pytest.mark.parametrize("fn,moduli", BROADCAST_CASES)
    @pytest.mark.parametrize("big", [10**30, -10**30])
    def test_huge_arguments_reduce_first(self, fn, moduli, big):
        for q in moduli:
            assert fn(q, big, 3) == fn(q, big % q, 3)
            assert fn(q, 6, big) == fn(q, 6, big % q)

    @pytest.mark.parametrize("fn,moduli", BROADCAST_CASES)
    def test_int64_extremes_reduce_first(self, fn, moduli):
        n = np.array([2**62, -(2**62), 2**63 - 1, -(2**63)])
        for q in moduli:
            got = fn(q, n, n[::-1])
            want = [fn(q, a % q, b % q) for a, b in zip(n.tolist(), n[::-1].tolist())]
            assert_close_elementwise(got, want)

    @pytest.mark.parametrize("fn,moduli", BROADCAST_CASES)
    def test_caller_arrays_unchanged(self, fn, moduli):
        n = np.array([-40, 3, 100, 7])
        m = np.array([[55], [-9]])
        fn(moduli[-1], n, m)
        assert n.tolist() == [-40, 3, 100, 7]
        assert m.tolist() == [[55], [-9]]


class TestBatchTables:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 9, 12, 15, 25, 30, 49, 50, 60, 77])
    def test_tables_match_scalars(self, q):
        direct = lambda_direct_table(q)
        fast = lambda_any_table(q)
        assert np.abs(direct - fast).max() <= LAMBDA_TOLERANCE * q
        rng = random.Random(q)
        for _ in range(10):
            n, m = rng.randrange(q), rng.randrange(q)
            assert complex_close(complex(direct[n, m]), lambda_direct(q, n, m))
            assert abs(fast[n, m] - lambda_any(q, n, m)) <= LAMBDA_TOLERANCE * q

    def test_table_rejects_eight(self):
        with pytest.raises(ValueError):
            lambda_any_table(16)

    @pytest.mark.slow
    def test_every_modulus_to_500(self):
        for q in range(1, 501):
            if q % 8:
                err = np.abs(lambda_any_table(q) - lambda_direct_table(q)).max()
                assert err <= LAMBDA_TOLERANCE * q, (q, err)


class TestBounds:
    def test_divisor_bound_sample(self):
        from sqfpairs.ntcore import tau
        rng = random.Random(121)
        for _ in range(300):
            q = rng.randrange(1, 400)
            if q % 8 == 0:
                continue
            n, m = rng.randrange(-2 * q, 2 * q + 1), rng.randrange(-2 * q, 2 * q + 1)
            bound = 16 * tau(q) ** 2 * math.sqrt(q) * math.sqrt(math.gcd(q, n, m))
            assert abs(lambda_direct(q, n, m)) <= bound + 1e-7

    def test_prime_square_lift(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            lp = len(solve_circle(p))
            lp2 = len(solve_circle(p * p))
            assert lp2 == p * lp
            assert lp == p - (1 if p % 4 == 1 else -1)


# Every evaluator, called with modulus q and valid arguments n = 2, m = 3
# (q = 15 is odd, so every contract admits it).
EVALUATORS = {
    "gauss_direct": lambda q, n=2, m=3: expsums.gauss_direct(q, n, m),
    "gauss_reduce": lambda q, n=2, m=3: expsums.gauss_reduce(q, n, m),
    "gauss_closed_odd": lambda q, n=2, m=3: expsums.gauss_closed_odd(q, n, m),
    "kloosterman_direct": lambda q, n=2, m=3: expsums.kloosterman_direct(q, n, m),
    "gauss_direct_table": lambda q: expsums.gauss_direct_table(q),
    "kloosterman_row": lambda q, n=2: expsums.kloosterman_row(q, n),
    "solve_circle": lambda q: solve_circle(q).pairs(),
    "lambda_direct": lambda q, n=2, m=3: lambda_direct(q, n, m),
    "lambda_fast_odd": lambda q, n=2, m=3: lambda_fast_odd(q, n, m),
    "lambda_any": lambda q, n=2, m=3: lambda_any(q, n, m),
    "lambda_multiplicative": lambda q, n=2, m=3: lambda_multiplicative(q, 4, n, m),
    "lambda_direct_table": lambda q: lambda_direct_table(q),
    "lambda_any_table": lambda q: lambda_any_table(q),
    "harmonic_lambda_sums": lambda q: harmonic_lambda_sums(q, 10),
}
WITH_ARGUMENTS = ["gauss_direct", "gauss_reduce", "gauss_closed_odd", "kloosterman_direct",
                  "kloosterman_row", "lambda_direct", "lambda_fast_odd", "lambda_any",
                  "lambda_multiplicative"]


class TestEvaluatorArguments:
    @pytest.mark.parametrize("name", EVALUATORS)
    @pytest.mark.parametrize("q", [np.int64(15), True, 0, -3, 1.5])
    def test_one_modulus_check(self, name, q):
        evaluate = EVALUATORS[name]
        if isinstance(q, np.integer):
            np.testing.assert_array_equal(evaluate(q), evaluate(int(q)))
        else:
            with pytest.raises(ValueError, match="modulus must be a positive integer"):
                evaluate(q)

    @pytest.mark.parametrize("name", WITH_ARGUMENTS)
    def test_integer_arguments_only(self, name):
        evaluate = EVALUATORS[name]
        for bad in (1.5, 2.0, np.float64(2.0), np.array([2.0]), True, "2"):
            with pytest.raises(ValueError, match="integers or integer arrays"):
                evaluate(15, n=bad)
        if name != "kloosterman_row":
            with pytest.raises(ValueError, match="integers or integer arrays"):
                evaluate(15, m=1.5)
        big = 15 * 10**30 + 2  # beyond int64, reduces to n = 2
        np.testing.assert_array_equal(evaluate(15, n=big), evaluate(15))
        np.testing.assert_array_equal(evaluate(15, n=np.int32(2)), evaluate(15))


# The table builders, and the evaluators that build per-residue tables.
TABLE_BUILDERS = {
    "phase_table": expsums.phase_table,
    "unit_table": expsums.unit_table,
    "solve_circle": solve_circle,
    **{name: EVALUATORS[name] for name in WITH_ARGUMENTS},
}


def _traced(call):
    """(current bytes held after call() minus before, peak bytes during)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - start, peak - start


class TestTableLifetime:
    def test_no_table_outlives_a_call(self):
        primes = (199999, 200003, 200009)  # nothing to warm up: ntcore caches only is_prime

        def evaluate_all():
            for p in primes:
                for build in TABLE_BUILDERS.values():
                    build(p)

        held, _ = _traced(evaluate_all)
        assert held < 2**20

    @pytest.mark.parametrize("name", TABLE_BUILDERS)
    def test_refused_above_the_ceiling_before_allocating(self, name):
        q = 99999989  # prime, above DEFAULT_SOLVE_CEILING
        assert q > lambdasums.DEFAULT_SOLVE_CEILING
        divisors(q)

        def evaluate():
            with pytest.raises(BudgetError, match="ceiling"):
                TABLE_BUILDERS[name](q)

        _, peak = _traced(evaluate)
        assert peak < 2**20

    @pytest.mark.parametrize("evaluate,q", [(lambda_fast_odd, 2**33 + 1),
                                            (lambda_any, 2 * (2**33 + 1))])
    def test_modulus_beyond_factoring_refused_by_the_ceiling(self, evaluate, q):
        # the ceiling, not factorize's range n < 2**32, refuses these q
        with pytest.raises(BudgetError, match="ceiling"):
            evaluate(q, 1, 2)

    @pytest.mark.parametrize("name", ["gauss_direct_table", "lambda_direct_table",
                                      "lambda_any_table", "harmonic_lambda_sums"])
    def test_grid_refused_above_the_ceiling_before_allocating(self, name):
        # q^2 residue pairs just above the ceiling; the grid would take ~256 MiB
        q = math.isqrt(lambdasums.DEFAULT_SOLVE_CEILING) + 1
        assert q == 4097
        build = {"gauss_direct_table": expsums.gauss_direct_table,
                 "lambda_direct_table": lambda_direct_table,
                 "lambda_any_table": lambda_any_table,
                 "harmonic_lambda_sums": lambda q: harmonic_lambda_sums(q, np.array([2, 10]))}[name]

        def evaluate():
            with pytest.raises(BudgetError, match="ceiling"):
                build(q)

        _, peak = _traced(evaluate)
        assert peak < 2**20

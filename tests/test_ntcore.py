import math
import random

import numpy as np
import pytest

from sqfpairs import expsums, ntcore
from sqfpairs.ntcore import (
    BudgetError,
    divisors,
    factorize,
    is_prime,
    jacobi,
    mobius,
    mobius_sieve,
    mod_inverse,
    primes_upto,
    sqrt_mod,
    tau,
)


def trial_division_factor(n):
    """Independent factorization oracle: plain trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1) == []

    def test_twelve(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_large_prime(self):
        # trial division up to isqrt(n) proves primality independently
        n = 4294967291  # 2**32 - 5, the largest prime below 2**32
        assert trial_division_factor(n) == [(n, 1)]
        assert factorize(n) == [(n, 1)]
        with pytest.raises(ValueError):
            factorize(9999999967)  # prime, but beyond the contract n < 2**32

    @pytest.mark.parametrize("bad", [0, -1, -12, 2**32, 2**32 + 1, 2**63])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    def test_matches_trial_division(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(1, 10**6)
            assert factorize(n) == trial_division_factor(n)

    def test_product_and_ordering_invariants(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(2, 2**32)
            facs = factorize(n)
            assert math.prod(p**e for p, e in facs) == n
            ps = [p for p, _ in facs]
            assert ps == sorted(ps) and len(set(ps)) == len(ps)
            assert all(is_prime(p) for p in ps)
            assert all(e >= 1 for _, e in facs)

    def test_semiprime_beyond_trial_range(self):
        # both factors are among the largest trial primes, just below 2**16
        p, q = 65521, 65519
        assert factorize(p * q) == [(q, 1), (p, 1)]
        assert factorize(p * p) == [(p, 2)]
        with pytest.raises(ValueError):
            factorize(1000003 * 1000033)  # beyond the contract n < 2**32

    def test_largest_inputs_match_trial_division(self):
        # 2**32 - 1 = 3 * 5 * 17 * 257 * 65537 leaves a prime above 2**16
        for n in (2**32 - 5, 2**32 - 1, 65537 * 65521, 2**24 - 3):
            assert factorize(n) == trial_division_factor(n)
            assert is_prime(n) == (trial_division_factor(n) == [(n, 1)])
        for bad in (2**32, 65537**2):
            with pytest.raises(ValueError):
                is_prime(bad)

    def test_factoring_range_covers_every_tabulated_modulus(self):
        # a modulus under the solve ceiling is factored by lambda_fast_odd
        assert expsums.DEFAULT_SOLVE_CEILING < 2**32
        n = expsums.DEFAULT_SOLVE_CEILING - 3
        want = sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0
                       for d in (k, n // k)})
        assert list(divisors(n)) == want


class TestMobiusTau:
    @pytest.mark.parametrize("n,expect", [(1, 1), (12, 0), (30, -1), (2, -1), (6, 1)])
    def test_mobius_values(self, n, expect):
        assert mobius(n) == expect

    def test_mobius_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius(0)

    @pytest.mark.parametrize("n,expect", [(1, 1), (12, 6), (2**10, 11)])
    def test_tau_values(self, n, expect):
        assert tau(n) == expect

    def test_tau_rejects_zero(self):
        with pytest.raises(ValueError):
            tau(0)

    def test_mobius_sieve_small(self):
        assert mobius_sieve(1)[1:].tolist() == [1]
        assert mobius_sieve(4)[1:].tolist() == [1, -1, -1, 0]

    def test_mobius_sieve_matches_pointwise_oracle(self):
        mu = mobius_sieve(10**6)
        rng = random.Random(4)
        for _ in range(1000):
            n = rng.randrange(1, 10**6 + 1)
            assert int(mu[n]) == mobius(n)

    def test_mobius_sieve_budget(self):
        with pytest.raises(BudgetError):
            mobius_sieve(2**30)  # 3 * (2**30 + 1) bytes: rejected before allocating
        with pytest.raises(ValueError):
            mobius_sieve(0)

    def test_mobius_square_identity(self):
        # sum of mu(d) over d^2 | n recovers mu^2(n)
        for n in range(1, 2001):
            total = sum(mobius(d) for d in range(1, math.isqrt(n) + 1) if n % (d * d) == 0)
            assert total == mobius(n) ** 2


class TestGcdInverse:
    @pytest.mark.parametrize("k,q,expect", [(3, 7, 5), (1, 2, 1), (1, 97, 1), (4, 25, 19)])
    def test_mod_inverse_values(self, k, q, expect):
        assert mod_inverse(k, q) == expect
        assert k * expect % q == 1

    def test_mod_inverse_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            mod_inverse(6, 10)

    def test_mod_inverse_involution(self):
        rng = random.Random(11)
        for _ in range(500):
            q = rng.randrange(2, 10**9)
            k = rng.randrange(1, q)
            while math.gcd(k, q) != 1:
                k = rng.randrange(1, q)
            r = mod_inverse(k, q)
            assert 0 <= r < q
            assert mod_inverse(r, q) == k


def euler_criterion(a, p):
    if a % p == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


class TestJacobi:
    def test_unit_numerator(self):
        for q in (1, 3, 9, 15, 45, 1001):
            assert jacobi(1, q) == 1

    def test_shared_factor_gives_zero(self):
        assert jacobi(3, 9) == 0
        assert jacobi(0, 9) == 0

    def test_two_mod_fifteen(self):
        # per-prime Euler-criterion oracle: (2/3)(2/5) = (-1)(-1) = 1
        assert euler_criterion(2, 3) == -1
        assert euler_criterion(2, 5) == -1
        assert jacobi(2, 15) == 1

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 8)

    @pytest.mark.parametrize("a,q", [(2.5, 7), (3, 7.0), (True, 7), (3, True), ("3", 7)])
    def test_rejects_bools_and_non_integers(self, a, q):
        with pytest.raises(ValueError):
            jacobi(a, q)

    def test_accepts_numpy_integers(self):
        assert jacobi(np.int64(2), 7) == jacobi(2, np.int32(7)) == jacobi(2, 7) == 1
        assert jacobi(np.uint8(3), np.int64(7)) == -1

    def test_against_euler_criterion_on_primes(self):
        rng = random.Random(5)
        for p in primes_upto(400).tolist():
            if p == 2:
                continue
            for _ in range(30):
                a = rng.randrange(-5 * p, 5 * p)
                assert jacobi(a, p) == euler_criterion(a, p)

    def test_factors_through_prime_decomposition(self):
        rng = random.Random(13)
        for _ in range(200):
            q = 2 * rng.randrange(1, 5000) + 1
            a = rng.randrange(-1000, 1000)
            expect = 1
            for p, e in factorize(q):
                expect *= euler_criterion(a, p) ** e
            assert jacobi(a, q) == expect


class TestSqrtMod:
    def test_zero_residue_single_root(self):
        for p in (3, 5, 7, 11):
            assert sqrt_mod(0, p, 1) == [0]

    def test_four_mod_five(self):
        assert sqrt_mod(4, 5, 1) == [2, 3]

    def test_two_mod_forty_nine(self):
        want = sorted(y for y in range(49) if y * y % 49 == 2)
        assert want == [10, 39]
        assert sqrt_mod(2, 7, 2) == want

    def test_rejects_two_and_composites(self):
        with pytest.raises(ValueError):
            sqrt_mod(1, 2, 3)
        with pytest.raises(ValueError):
            sqrt_mod(1, 15, 1)
        with pytest.raises(ValueError):
            sqrt_mod(1, 7, 0)

    @pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (3, 4), (5, 2), (7, 2), (11, 1),
                                     (13, 2), (31, 1), (41, 1)])
    def test_exhaustive_equality(self, p, e):
        m = p**e
        buckets = {}
        for y in range(m):
            buckets.setdefault(y * y % m, []).append(y)
        for a in range(m):
            assert sqrt_mod(a, p, e) == buckets.get(a, [])

    @pytest.mark.parametrize("p,e", [(3, 7), (5, 5), (7, 4), (257, 1), (7681, 1), (12289, 1)])
    def test_array_matches_enumeration_and_per_entry(self, p, e):
        # 12289 - 1 = 2**12 * 3 runs 11 masked Tonelli-Shanks steps; 3**7
        # and 5**5 lie beyond the verify suite's 2000
        m = p**e
        buckets = [[] for _ in range(m)]
        for y in range(m):
            buckets[y * y % m].append(y)
        got = sqrt_mod(np.arange(m), p, e)
        assert got == buckets
        for a in random.Random(m).sample(range(m), 200):
            assert sqrt_mod(a, p, e) == got[a]

    def test_empty_and_one_entry_arrays(self):
        assert sqrt_mod(np.array([], dtype=np.int64), 7, 2) == []
        assert sqrt_mod(np.array([2]), 7) == [[3, 4]]
        assert sqrt_mod(np.array([0], dtype=np.uint8), 7, 2) == [[0, 7, 14, 21, 28, 35, 42]]

    def test_reduces_negatives_and_big_ints_first(self):
        a = np.array([-47, 2, -5, -49], dtype=np.int64)
        assert sqrt_mod(a, 7, 2) == [sqrt_mod(int(v) % 49, 7, 2) for v in a]
        assert sqrt_mod(-5, 7) == sqrt_mod(2, 7) == [3, 4]
        assert sqrt_mod(2**70 + 2, 7, 2) == sqrt_mod((2**70 + 2) % 49, 7, 2)
        assert sqrt_mod(np.int64(2), 7) == sqrt_mod(2, 7, np.int64(1)) == [3, 4]

    def test_largest_moduli_stay_exact(self):
        # products of residues below 2**31 fit int64; checked in Python ints
        rng = random.Random(31)
        for p, e in ((2**31 - 1, 1), (3, 19), (46337, 2)):
            m = p**e
            ys = [rng.randrange(m) for _ in range(50)]
            roots = sqrt_mod(np.array([y * y % m for y in ys]), p, e)
            for y, r in zip(ys, roots):
                assert y in r and r == sorted(r)
                assert all(v * v % m == y * y % m for v in r)

    @pytest.mark.parametrize("a,p,e", [(1, 3, 20), (1, 46349, 2), (True, 7, 1), (2.0, 7, 1),
                                       (np.array([2.0]), 7, 1), (np.array([True]), 7, 1),
                                       (np.array([[1, 2]]), 7, 1), (2, 7, 2.0), (2, 7, True)])
    def test_rejects_large_moduli_bools_floats_and_grids(self, a, p, e):
        with pytest.raises(ValueError):
            sqrt_mod(a, p, e)

    def test_leaves_the_callers_array_alone(self):
        a = np.array([-3, 50, 2, 0])
        sqrt_mod(a, 7, 2)
        assert a.tolist() == [-3, 50, 2, 0]

    def test_numpy_integer_p(self):
        p = primes_upto(20)[-1]
        assert isinstance(p, np.integer) and p == 19
        assert sqrt_mod(2, np.int64(7)) == sqrt_mod(2, 7) == [3, 4]
        assert sqrt_mod(np.arange(361), p, 2) == sqrt_mod(np.arange(361), 19, 2)
        with pytest.raises(ValueError):
            sqrt_mod(1, True)


class TestBudget:
    def test_scope_then_env_then_default(self, monkeypatch):
        monkeypatch.delenv("SQFPAIRS_MEMORY_BUDGET", raising=False)
        assert ntcore.memory_budget() == ntcore.DEFAULT_MEMORY_BUDGET == 2**31
        monkeypatch.setenv("SQFPAIRS_MEMORY_BUDGET", "5000")
        assert ntcore.memory_budget() == 5000
        with ntcore.budget_scope(300):
            with ntcore.budget_scope(200):
                assert ntcore.memory_budget() == 200
            assert ntcore.memory_budget() == 300
        assert ntcore.memory_budget() == 5000

    @pytest.mark.parametrize("budget", [0, -3])
    def test_non_positive_budget_is_a_value_error(self, monkeypatch, budget):
        with pytest.raises(ValueError, match="memory budget must be positive"):
            with ntcore.budget_scope(budget):
                pass
        monkeypatch.setenv("SQFPAIRS_MEMORY_BUDGET", str(budget))
        with pytest.raises(ValueError, match="memory budget must be positive"):
            ntcore.check_bytes(1, "one byte")

    @pytest.mark.parametrize("budget", [True, 2.7, "4096"])
    def test_non_integer_budget_is_a_value_error(self, budget):
        # taken as given, not truncated by int(): True is not a budget of 1
        with pytest.raises(ValueError, match="memory budget must be an integer"):
            with ntcore.budget_scope(budget):
                pass

    def test_numpy_integer_budget_is_accepted(self):
        with ntcore.budget_scope(np.int64(300)):
            assert ntcore.memory_budget() == 300

    def test_check_bytes_refuses_only_above_the_budget(self):
        with ntcore.budget_scope(100):
            ntcore.check_bytes(100, "a table")
            with pytest.raises(BudgetError, match="a table needs 101 bytes, budget is 100"):
                ntcore.check_bytes(101, "a table")


class TestPrimesAndDivisors:
    def test_primes_upto(self):
        assert primes_upto(1).size == 0
        assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primes_upto_peak_is_flags_and_primes(self, traced_peak):
        limit = 4_000_000
        with traced_peak() as traced:
            primes = primes_upto(limit)
        assert traced.peak < (limit + 1) + primes.nbytes + 2**20

    def test_primes_upto_rejects_limit_beyond_budget(self):
        with pytest.raises(BudgetError):
            primes_upto(2**30)  # 2 * (2**30 + 1) bytes

    def test_is_prime_against_sieve(self):
        flags = set(primes_upto(10**4).tolist())
        for n in range(10**4 + 1):
            assert is_prime(n) == (n in flags)

    def test_divisors(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(49) == (1, 7, 49)

    def test_tau_spot_growth(self):
        # tau(n) stays under n**0.6 past 1e4 (checked in full by verify)
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randrange(10**4 + 1, 10**5 + 1)
            assert tau(n) <= n**0.6

    def test_mobius_sieve_is_int8(self):
        mu = mobius_sieve(100)
        assert mu.dtype == np.int8
        assert mu[0] == 0


class TestIntegerArguments:
    # numpy integers are integers here, as they are to every evaluator's
    # modulus; bools and floats are refused, naming the argument

    def test_factoring_helpers_take_numpy_integers(self):
        assert factorize(np.int64(12)) == factorize(np.uint32(12)) == [(2, 2), (3, 1)]
        assert tau(np.int64(12)) == 6
        assert mobius(np.int64(6)) == 1 and mobius(np.int32(12)) == 0
        assert divisors(np.int64(12)) == (1, 2, 3, 4, 6, 12)
        assert is_prime(np.int64(7)) is True and is_prime(np.int16(9)) is False
        assert all(type(p) is int and type(e) is int for p, e in factorize(np.int64(2**32 - 1)))

    def test_numpy_integers_keep_the_factoring_range(self):
        assert [is_prime(np.int64(n)) for n in (-3, 0, 1, 2)] == [False, False, False, True]
        assert factorize(np.uint64(2**32 - 5)) == [(2**32 - 5, 1)]
        for bad in (np.int64(0), np.int64(-12), np.int64(2**32), np.uint64(2**63)):
            with pytest.raises(ValueError, match="2\\*\\*32"):
                factorize(bad)

    @pytest.mark.parametrize("call", [factorize, is_prime, mobius, tau, divisors])
    @pytest.mark.parametrize("bad", [True, False, 7.0, np.float64(7.0), "7"])
    def test_factoring_helpers_refuse_bools_and_floats(self, call, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            call(bad)

    def test_mod_inverse_takes_numpy_integers(self):
        assert mod_inverse(np.int64(3), 7) == mod_inverse(3, np.int32(7)) == 5
        assert type(mod_inverse(np.int64(3), np.int64(7))) is int

    @pytest.mark.parametrize("k,q,name", [(True, 7, "k"), (3.0, 7, "k"), (3, 7.0, "q"),
                                          (3, True, "q"), (3, 0, "q")])
    def test_mod_inverse_refuses_bools_and_floats(self, k, q, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            mod_inverse(k, q)

    def test_primes_upto_refuses_bools_and_floats(self):
        assert primes_upto(np.int64(10)).tolist() == [2, 3, 5, 7]
        assert primes_upto(-5).size == primes_upto(np.int64(1)).size == 0  # empty below 2
        for bad in (True, False, 10.5, 10.0):
            with pytest.raises(ValueError, match="limit must be an integer"):
                primes_upto(bad)

    def test_mobius_sieve_refuses_bools_and_floats(self):
        assert mobius_sieve(np.int64(4)).tolist() == [0, 1, -1, -1, 0]
        for bad in (True, 2.5, 4.0, 0):
            with pytest.raises(ValueError, match="N must be a positive integer"):
                mobius_sieve(bad)

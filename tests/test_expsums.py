import cmath
import math
import random

import numpy as np
import pytest

from sqfpairs.expsums import (
    RESIDUE_BYTES,
    complex_close,
    gauss_closed_odd,
    gauss_direct,
    gauss_direct_table,
    gauss_reduce,
    kloosterman_direct,
    kloosterman_row,
    phase_table,
    unit_table,
)
from sqfpairs.ntcore import BudgetError, budget_scope


def gauss_oracle(q, n, m):
    """Direct summation with cmath only, independent of the numpy path."""
    return sum(cmath.exp(2j * cmath.pi * ((n * x * x + m * x) % q) / q) for x in range(1, q + 1))


def kloosterman_oracle(q, n, m):
    total = 0j
    for x in range(1, q + 1):
        if math.gcd(x, q) == 1:
            xbar = pow(x, -1, q) if q > 1 else 0
            total += cmath.exp(2j * cmath.pi * ((n * x + m * xbar) % q) / q)
    return total


def assert_close_elementwise(got, want, tol=1e-12):
    assert np.shape(got) == np.shape(want)
    for g, w in zip(np.ravel(got).tolist(), np.ravel(want).tolist()):
        assert abs(g - w) <= tol * max(1.0, abs(w)), (g, w)


class TestGaussDirect:
    def test_modulus_one(self):
        for n, m in [(0, 0), (3, -5), (7, 2)]:
            assert gauss_direct(1, n, m) == 1

    def test_zero_coefficients(self):
        for q in (1, 2, 5, 12, 97):
            assert complex_close(gauss_direct(q, 0, 0), complex(q))

    def test_cube_root_case(self):
        # 1 + 2*e(1/3) = i*sqrt(3)
        got = gauss_direct(3, 1, 0)
        assert complex_close(got, 1j * math.sqrt(3))
        assert complex_close(got, gauss_oracle(3, 1, 0))

    def test_against_cmath_oracle(self):
        rng = random.Random(21)
        for _ in range(150):
            q = rng.randrange(1, 80)
            n, m = rng.randrange(-2 * q, 2 * q), rng.randrange(-2 * q, 2 * q)
            assert complex_close(gauss_direct(q, n, m), gauss_oracle(q, n, m))

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            gauss_direct(0, 1, 1)


class TestGaussReduce:
    def test_nondivisible_linear_term_vanishes(self):
        assert gauss_reduce(6, 2, 3) == 0  # gcd(6,2)=2 does not divide 3

    def test_zero_quadratic_term(self):
        # gcd(q, 0) = q, so the sum is q when q | m and 0 otherwise
        for q in (5, 9, 12):
            for m in range(1, q):
                assert gauss_reduce(q, 0, m) == 0
            assert complex_close(gauss_reduce(q, 0, 0), complex(q))

    def test_reduction_example(self):
        want = 2 * gauss_direct(3, 1, 2)
        assert complex_close(gauss_reduce(6, 2, 4), want)
        assert complex_close(gauss_direct(6, 2, 4), want)

    def test_equals_direct_on_small_grid(self):
        for q in range(1, 41):
            for n in range(q):
                for m in range(q):
                    assert complex_close(gauss_reduce(q, n, m), gauss_direct(q, n, m)), (q, n, m)


class TestGaussClosedOdd:
    @pytest.mark.parametrize("q,n,m", [(3, 1, 0), (5, 1, 0), (15, 2, 1), (9, 2, 5),
                                       (21, 4, 13), (49, 3, 48)])
    def test_matches_direct(self, q, n, m):
        got = gauss_closed_odd(q, n, m)
        assert type(got) is complex  # scalar arguments give a complex
        assert complex_close(got, gauss_direct(q, n, m))

    def test_branch_pins(self):
        # the sign convention is legal only if it reproduces direct sums
        assert complex_close(gauss_closed_odd(5, 1, 0), math.sqrt(5))
        assert complex_close(gauss_closed_odd(3, 1, 0), 1j * math.sqrt(3))

    def test_random_odd_moduli(self):
        rng = random.Random(31)
        for _ in range(200):
            q = 2 * rng.randrange(0, 60) + 1
            n = rng.randrange(1, 3 * q + 1)
            if math.gcd(q, 2 * n) != 1:
                continue
            m = rng.randrange(-(2 * q), 2 * q)
            assert complex_close(gauss_closed_odd(q, n, m), gauss_direct(q, n, m))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="need gcd"):
            gauss_closed_odd(6, 1, 0)  # even modulus
        with pytest.raises(ValueError, match="need gcd"):
            gauss_closed_odd(9, 3, 0)  # gcd(q, n) > 1
        with pytest.raises(ValueError, match="need gcd"):
            gauss_closed_odd(9, np.array([1, 2, 4, 6, 7]), 0)  # one non-unit among units
        with pytest.raises(ValueError, match="need gcd"):
            gauss_closed_odd(9, np.array([[1], [12]]), np.arange(9))

    @pytest.mark.parametrize("q", [1, 3, 15, 45, 97])
    def test_array_equals_scalar_loop(self, q):
        n = np.array([a for a in range(-2 * q, 2 * q + 1) if math.gcd(a, 2 * q) == 1])
        m = np.random.default_rng(q).integers(-3 * q, 3 * q + 1, size=7)
        got = gauss_closed_odd(q, n[:, None], m)
        assert got.shape == (n.size, 7)
        assert_close_elementwise(got, [[gauss_closed_odd(q, a, b) for b in m.tolist()]
                                       for a in n.tolist()])
        assert_close_elementwise(got, [[gauss_direct(q, a, b) for b in m.tolist()]
                                       for a in n.tolist()], tol=1e-9)

    @pytest.mark.parametrize("q", [343, 675, 1155])
    def test_every_unit_row_equals_the_direct_grid(self, q):
        # past the verify suite's q <= 301: the symbol from the Legendre
        # tables of q's odd-exponent primes, inv(4n) from the unit table
        n = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        got = gauss_closed_odd(q, n[:, None], np.arange(q))
        want = gauss_direct_table(q, n)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_shapes_and_scalar_type(self):
        assert type(gauss_closed_odd(13, 2, 3)) is complex
        assert type(gauss_closed_odd(13, np.int64(2), np.int64(3))) is complex
        assert gauss_closed_odd(13, np.arange(1, 13).reshape(3, 4), 5).shape == (3, 4)
        assert gauss_closed_odd(13, 2, np.arange(6).reshape(2, 1, 3)).shape == (2, 1, 3)
        assert gauss_closed_odd(13, np.array([1]), np.array([]).astype(int)).shape == (0,)

    def test_caller_arrays_unchanged_and_huge_arguments(self):
        n = np.array([-40, 2, 101, 7])
        m = np.array([[55], [-9]])
        gauss_closed_odd(9, n, m)
        assert n.tolist() == [-40, 2, 101, 7]
        assert m.tolist() == [[55], [-9]]
        big = 10**30 + 1
        assert gauss_closed_odd(11, big, -big) == gauss_closed_odd(11, big % 11, -big % 11)


class TestKloosterman:
    def test_modulus_one(self):
        assert kloosterman_direct(1, 5, -3) == 1

    def test_unit_count_at_zero(self):
        for p in (3, 5, 7, 11, 13):
            assert complex_close(kloosterman_direct(p, 0, 0), complex(p - 1))

    def test_five_one_one(self):
        want = 2 + 2 * math.cos(4 * math.pi / 5)
        got = kloosterman_direct(5, 1, 1)
        assert complex_close(got, want)
        assert complex_close(got, kloosterman_oracle(5, 1, 1))
        assert abs(want - 0.3819660112501051) < 1e-12

    def test_against_cmath_oracle(self):
        rng = random.Random(41)
        for _ in range(100):
            q = rng.randrange(1, 60)
            n, m = rng.randrange(-q, q + 1), rng.randrange(-q, q + 1)
            assert complex_close(kloosterman_direct(q, n, m), kloosterman_oracle(q, n, m))

    def test_diagonal_is_real(self):
        for q in range(1, 120):
            for n in (0, 1, q // 2):
                v = kloosterman_direct(q, n, n)
                assert abs(v.imag) <= 1e-9 * max(1.0, abs(v))


class TestUnitTable:
    def test_inverses_for_every_modulus_to_3000(self):
        for q in range(2, 3001):
            units, invs = unit_table(q)
            x = np.arange(1, q)
            assert np.array_equal(units, x[np.gcd(x, q) == 1]), q
            assert (units * invs % q == 1).all(), q
            want = [pow(u, -1, q) for u in units.tolist()]
            assert invs.tolist() == want, q

    def test_modulus_one_convention(self):
        units, invs = unit_table(1)
        assert units.tolist() == [1]
        assert invs.tolist() == [0]

    @pytest.mark.parametrize("q", [65_537, 3**10, 2**16, 2 * 3**9, 5**3 * 7**3,
                                   4 * 3 * 5 * 7 * 11])
    def test_inverses_at_large_prime_powers_and_products(self, q):
        # a prime past 2**16, prime powers of 3 and 2, and products of two
        # to five prime powers: the cyclic tables and their CRT joins
        units, invs = unit_table(q)
        x = np.arange(1, q)
        assert units.dtype == invs.dtype == np.int64
        assert np.array_equal(units, x[np.gcd(x, q) == 1])
        assert invs.tolist() == [pow(u, -1, q) for u in units.tolist()]


class TestPhaseTable:
    def test_within_2e_15_of_exp_to_5000(self):
        for q in range(1, 5001):
            roots = phase_table(q)
            assert roots.shape == (q,) and roots.dtype == complex
            assert np.abs(roots - np.exp(2j * np.pi * np.arange(q) / q)).max() <= 2e-15, q

    def test_past_half_a_turn_the_roots_are_exact_conjugates(self):
        for q in (2, 3, 4, 1999, 2000):
            roots = phase_table(q)
            t = np.arange(q // 2 + 1, q)
            assert roots[0] == 1
            assert np.array_equal(roots[t], roots[q - t].conjugate())




class TestKloostermanBroadcast:
    @pytest.mark.parametrize("q", [1, 2, 7, 12, 45, 97])
    def test_array_equals_scalar_loop(self, q):
        rng = np.random.default_rng(q)
        n = rng.integers(-3 * q, 3 * q + 1, size=17)
        m = rng.integers(-3 * q, 3 * q + 1, size=17)
        got = kloosterman_direct(q, n, m)
        assert got.shape == (17,)
        want = [kloosterman_direct(q, a, b) for a, b in zip(n.tolist(), m.tolist())]
        assert_close_elementwise(got, want)

    def test_two_dimensional_arguments_keep_their_shape(self):
        n = np.arange(12).reshape(3, 4)
        got = kloosterman_direct(11, n, 5)
        assert got.shape == (3, 4)
        assert_close_elementwise(got, [[kloosterman_direct(11, a, 5) for a in row]
                                       for row in n.tolist()])
        outer = kloosterman_direct(11, np.arange(3)[:, None], np.arange(4))
        assert outer.shape == (3, 4)
        assert_close_elementwise(outer, [[kloosterman_direct(11, a, b) for b in range(4)]
                                         for a in range(3)])

    def test_scalar_input_returns_complex(self):
        assert type(kloosterman_direct(13, 2, 3)) is complex
        assert type(kloosterman_direct(13, np.int64(2), np.int64(3))) is complex

    @pytest.mark.parametrize("big", [10**30, -10**30])
    def test_huge_arguments_reduce_first(self, big):
        for q in (5, 12, 97):
            assert kloosterman_direct(q, big, 3) == kloosterman_direct(q, big % q, 3)
            assert kloosterman_direct(q, 2, big) == kloosterman_direct(q, 2, big % q)

    def test_int64_extremes_reduce_first(self):
        n = np.array([2**62, -(2**62), 2**63 - 1, -(2**63)])
        for q in (5, 12, 97):
            got = kloosterman_direct(q, n, n[::-1])
            want = [kloosterman_direct(q, a % q, b % q)
                    for a, b in zip(n.tolist(), n[::-1].tolist())]
            assert_close_elementwise(got, want)

    def test_caller_arrays_unchanged(self):
        n = np.array([-40, 3, 100, 7])
        m = np.array([[55], [-9]])
        kloosterman_direct(9, n, m)
        assert n.tolist() == [-40, 3, 100, 7]
        assert m.tolist() == [[55], [-9]]


class TestBatchHelpers:
    @pytest.mark.parametrize("q", [1, 2, 3, 8, 12, 25, 37, 60])
    def test_gauss_table_matches_scalar(self, q):
        table = gauss_direct_table(q, np.arange(q))
        for n in range(q):
            for m in range(q):
                assert complex_close(complex(table[n, m]), gauss_direct(q, n, m)), (n, m)

    def test_gauss_rows_equal_the_full_grid(self):
        # the row grid is the same per-row transform, so its rows equal the
        # full grid's bit for bit, in any order and with repeats
        rng = np.random.default_rng(7)
        for q in range(1, 65):
            full = gauss_direct_table(q, np.arange(q))
            rows = rng.integers(0, q, size=2 * q + 6)  # unsorted, with repeats
            np.testing.assert_array_equal(gauss_direct_table(q, rows), full[rows])
            np.testing.assert_array_equal(gauss_direct_table(q, rows - 5 * q), full[rows])
            np.testing.assert_array_equal(gauss_direct_table(q, rows[:6].reshape(2, 3)),
                                          full[rows[:6].reshape(2, 3)])
            np.testing.assert_array_equal(gauss_direct_table(q, q - 1), full[q - 1])

    def test_one_gauss_row_admitted_where_the_grid_is_refused(self):
        # 5000^2 entries at RESIDUE_BYTES pass the 2 GiB default; one row does not
        with pytest.raises(BudgetError, match="5000 rows x 5000"):
            gauss_direct_table(5000, np.arange(5000))
        row = gauss_direct_table(5000, np.array([3]))
        assert row.shape == (1, 5000)
        for m in (0, 1, 2499, 4999):
            assert complex_close(complex(row[0, m]), gauss_direct(5000, 3, m))

    def test_gauss_rows_keep_the_per_residue_ceiling(self):
        # no rows state no grid, but the modulus's own tables still count
        none = np.array([], dtype=np.int64)
        with budget_scope(RESIDUE_BYTES * 300 - 1), pytest.raises(BudgetError, match="ceiling"):
            gauss_direct_table(300, none)
        with budget_scope(RESIDUE_BYTES * 300):
            assert gauss_direct_table(300, none).shape == (0, 300)

    @pytest.mark.parametrize("q", [1, 2, 5, 9, 12, 30, 49])
    def test_kloosterman_row_matches_scalar(self, q):
        row = kloosterman_row(q)
        for c in range(q):
            assert complex_close(complex(row[c]), kloosterman_direct(q, 1, c))

    @pytest.mark.parametrize("table", [phase_table, unit_table])
    def test_tables_check_the_modulus(self, table):
        for bad in (True, 0, -1, 1.5):
            with pytest.raises(ValueError, match="modulus must be a positive integer"):
                table(bad)


class TestComplexClose:
    def test_scaling(self):
        assert complex_close(1000.0 + 0j, 1000.0 + 1e-4j)  # scaled by magnitude
        assert not complex_close(0.0, 2e-6 + 0j)
        assert complex_close(0.0, 0.5e-6 + 0j)

    def test_rejects_nonfinite(self):
        assert not complex_close(complex("inf"), 1.0)
        assert not complex_close(complex("nan"), complex("nan"))

    def test_elementwise_on_arrays(self):
        a = np.array([1.0, 1000.0, 0.0, complex("inf"), 5.0])
        b = np.array([1.0 + 1e-7j, 1000.0 + 1e-4j, 2e-6, complex("inf"), complex("nan")])
        got = complex_close(a, b)
        assert got.tolist() == [complex_close(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert got.tolist() == [True, True, False, False, False]
        assert type(complex_close(1.0, 1.0)) is bool

"""Solutions of x^2 + y^2 + 1 = 0 (mod q) and the attached exponential sums.

`solve_circle` enumerates the full solution set with representatives in
[1, q]^2.  `lambda_direct` sums phases over that set and is the oracle;
`lambda_fast_odd` evaluates the same sum through its Kloosterman-sum
decomposition, and `lambda_multiplicative` through the coprime-splitting
identity.  `lambda_any` combines the fast odd path with direct handling
of the 2-part for any modulus not divisible by 8.  `lambda_direct`,
`lambda_fast_odd` and `lambda_any` broadcast over their arguments: n and
m may be ints or integer arrays, and one call evaluates every pair.

Solution sets are read-only and memoized in a bounded `lru_cache`,
which concurrent callers may share safely (at worst a set is computed
twice with identical results).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ntcore import BudgetError, divisors, mod_inverse
from .expsums import _check_modulus, _reduce, kloosterman_direct, kloosterman_row, phase_table

__all__ = [
    "SolutionSet",
    "solve_circle",
    "lambda_direct",
    "lambda_fast_odd",
    "lambda_multiplicative",
    "lambda_any",
    "lambda_direct_table",
    "lambda_any_table",
    "LAMBDA_TOLERANCE",
]

# Moduli above this are rejected by solve_circle to bound memory.
DEFAULT_SOLVE_CEILING = 10**8

# Solution sets kept by solve_circle; verify re-reads each modulus many
# times, and the bound keeps memory from growing with the moduli seen.
_SOLVE_CACHE_SIZE = 1024

# Oracle-equality tolerance for the lambda evaluators is LAMBDA_TOLERANCE
# scaled by q: the divisor-sum route multiplies by q, amplifying rounding.
LAMBDA_TOLERANCE = 1e-5


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """All (x, y) in [1, q]^2 with x^2 + y^2 + 1 = 0 (mod q), sorted."""

    q: int
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    def __len__(self) -> int:
        return int(self.xs.size)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))


@lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve(q: int) -> SolutionSet:
    # Counting sort of the squares r^2 mod q: the y with y^2 = -x^2 - 1
    # (mod q) form one run of the stably sorted order, so each x reads
    # its run and the pairs come out sorted by (x, y).
    r = np.arange(1, q + 1, dtype=np.int64)
    sq = r * r % q
    order = np.argsort(sq, kind="stable")
    count = np.bincount(sq, minlength=q)
    start = np.cumsum(count) - count
    want = (-sq - 1) % q
    n = count[want]
    xs = np.repeat(r, n)
    ys = r[order[np.repeat(start[want] - (np.cumsum(n) - n), n) + np.arange(xs.size)]]
    return SolutionSet(q, xs, ys)


def solve_circle(q: int) -> SolutionSet:
    """Complete solution set of x^2 + y^2 + 1 = 0 (mod q) in [1, q]^2."""
    q = _check_modulus(q)
    if q > DEFAULT_SOLVE_CEILING:
        raise BudgetError(f"solve_circle({q}) exceeds the ceiling {DEFAULT_SOLVE_CEILING}")
    return _solve(q)


def lambda_direct(q: int, n, m):
    """Sum of exp(2*pi*i*(n*x + m*y)/q) over the solution set mod q.

    At (n, m) = (0, 0) this is real and equals the solution count.
    n and m are ints or integer arrays that broadcast together, reduced
    mod q without modifying the caller's arrays.  Scalar arguments give a
    complex, array arguments a complex array of the broadcast shape.
    """
    q = _check_modulus(q)
    sols = solve_circle(q)
    n, m = _reduce(q, n), _reduce(q, m)
    t = (np.multiply.outer(n, sols.xs) + np.multiply.outer(m, sols.ys)) % q
    total = phase_table(q)[t].sum(axis=-1)
    return complex(total) if total.ndim == 0 else total


def _sign(l: int) -> float:
    # (-1)**((l-1)/2) for odd l.
    return -1.0 if l % 4 == 3 else 1.0


def lambda_fast_odd(q: int, n, m):
    """The circle sum for odd q via its Kloosterman-sum decomposition.

    Over the divisors l of q with (q/l) | gcd(n, m), with n' = n*l/q and
    m' = m*l/q, the sum equals

        q * sum_l (-1)**((l-1)/2) / l * K(l; 1, -inv(4)*(n'^2 + m'^2)).

    Broadcasts over n and m like `lambda_direct`: each divisor costs one
    `kloosterman_direct` call for all the pairs it serves.
    """
    q = _check_modulus(q)
    if q % 2 == 0:
        raise ValueError(f"modulus must be odd, got {q}")
    n, m = np.broadcast_arrays(_reduce(q, n), _reduce(q, m))
    g = np.gcd(n, m)  # 0 when n = m = 0: every divisor contributes
    total = np.zeros(g.shape, dtype=complex)
    for l in divisors(q):
        r = q // l
        served = g % r == 0
        if not served.any():
            continue
        if l == 1:
            total += served
            continue
        np_, mp_ = n[served] // r, m[served] // r
        c = -pow(4, -1, l) * ((np_ * np_ + mp_ * mp_) % l)
        total[served] += _sign(l) / l * kloosterman_direct(l, 1, c)
    return complex(q * total) if total.ndim == 0 else q * total


def lambda_multiplicative(q1: int, q2: int, n: int, m: int) -> complex:
    """The circle sum mod q1*q2 assembled from coprime factors.

    Each factor is the direct sum with its arguments twisted by the
    inverse of the complementary modulus.
    """
    q1, q2 = _check_modulus(q1), _check_modulus(q2)
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"moduli must be coprime, got ({q1}, {q2})")
    c1 = mod_inverse(q2, q1) if q1 > 1 else 0
    c2 = mod_inverse(q1, q2) if q2 > 1 else 0
    # reduced before twisting, so the products stay below q1**2 and q2**2
    return (lambda_direct(q1, _reduce(q1, n) * c1, _reduce(q1, m) * c1)
            * lambda_direct(q2, _reduce(q2, n) * c2, _reduce(q2, m) * c2))


def lambda_any(q: int, n, m):
    """The circle sum for any q with 8 not dividing q.

    Splits q = 2**h * q1 (h <= 2), evaluates the 2-part by direct
    enumeration (at most 16 candidate pairs) and the odd part by
    `lambda_fast_odd`, and recombines multiplicatively.  Broadcasts over
    n and m like `lambda_direct`.
    """
    q = _check_modulus(q)
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    h = (q & -q).bit_length() - 1  # 2-adic valuation, here 0, 1 or 2
    if h == 0:
        return lambda_fast_odd(q, n, m)
    n, m = _reduce(q, n), _reduce(q, m)  # keeps the twisted arguments below q**2
    t2 = 1 << h
    q1 = q >> h
    c2 = mod_inverse(q1, t2)
    codd = mod_inverse(t2, q1) if q1 > 1 else 0
    even_part = lambda_direct(t2, n * c2, m * c2)
    odd_part = lambda_fast_odd(q1, n * codd, m * codd)
    return even_part * odd_part


def lambda_direct_table(q: int) -> np.ndarray:
    """lambda_direct(q, n, m) for every (n, m) in [0, q)^2 as a (q, q) array.

    Batched direct summation: 2-D inverse DFT of the solution-set
    indicator, scaled by q^2.
    """
    q = _check_modulus(q)
    sols = solve_circle(q)
    hist = np.zeros((q, q))
    np.add.at(hist, (sols.xs % q, sols.ys % q), 1.0)
    return np.fft.ifft2(hist) * (q * q)


def _fast_odd_table(q: int) -> np.ndarray:
    # Batched lambda_fast_odd for odd q: one Kloosterman row per divisor,
    # scattered onto the (n, m) pairs whose gcd condition it serves.
    table = np.zeros((q, q), dtype=complex)
    for l in divisors(q):
        r = q // l
        row = kloosterman_row(l, 1)
        a = np.arange(l, dtype=np.int64)
        if l == 1:
            c = np.zeros((1, 1), dtype=np.int64)
        else:
            inv4 = pow(4, -1, l)
            c = (-inv4 * (a[:, None] ** 2 + a[None, :] ** 2)) % l
        idx = r * a
        table[np.ix_(idx, idx)] += (q * _sign(l) / l) * row[c]
    return table


def lambda_any_table(q: int) -> np.ndarray:
    """lambda_any(q, n, m) for every (n, m) in [0, q)^2 as a (q, q) array.

    Same decomposition as `lambda_any`, evaluated for the whole argument
    grid at once (the Kloosterman rows come from one FFT per divisor).
    """
    q = _check_modulus(q)
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    h = (q & -q).bit_length() - 1
    if h == 0:
        return _fast_odd_table(q)
    if h == 2:
        return np.zeros((q, q), dtype=complex)
    # q = 2 * q1: lambda(2; u, u') is (-1)**u + (-1)**u' and the odd part
    # is the fast table with arguments twisted by inv(2) mod q1.
    q1 = q // 2
    if q1 == 1:
        odd = np.ones((1, 1), dtype=complex)
        codd = 0
    else:
        odd = _fast_odd_table(q1)
        codd = mod_inverse(2, q1)
    a = np.arange(q, dtype=np.int64)
    two_factor = ((-1.0) ** (a[:, None] % 2)) + ((-1.0) ** (a[None, :] % 2))
    oi = (a * codd) % q1
    return two_factor * odd[np.ix_(oi, oi)]

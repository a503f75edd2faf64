"""Solutions of x^2 + y^2 + 1 = 0 (mod q) and the attached exponential sums.

`solve_circle` enumerates the full solution set with representatives in
[1, q]^2.  `lambda_direct` sums phases over that set and is the oracle;
`lambda_fast_odd` evaluates the same sum through its Kloosterman-sum
decomposition, and `lambda_multiplicative` through the coprime-splitting
identity.  `lambda_any` extends the fast odd path to any modulus not
divisible by 8, taking the 2-part in closed form.  `lambda_direct`,
`lambda_fast_odd` and `lambda_any` broadcast over their arguments: n and
m may be ints or integer arrays, and one call evaluates every pair.
`lambda_direct` states its pairs and its largest chunk to the budget
before it solves the circle, and sums up to CHUNK_ENTRIES (pair,
solution) entries at a time.  `solve_circle` sorts the squares mod q
stably, as 16-bit keys (numpy's radix sort) when q <= 2**16.
`lambda_fast_odd` sums the Kloosterman sums of all its divisors l
directly, in one `kloosterman_direct` call over the units mod q, while
that call stays small (each l serving at most l pairs, and at most
_DIRECT_ENTRIES (request, unit) entries in all), and otherwise reads
every divisor's FFT row; so a call builds its tables mod q once, and its
working set grows with the pairs, not with their product by the modulus.

The grids are batched routes to the same two sums: `lambda_direct_table`
is the 2-D inverse FFT of the solution set, and `lambda_any_table` is one
broadcast `lambda_any` call on the residue grid.  Neither decomposition
evaluator calls `lambda_direct`, so the oracle shares no code with them.

Nothing is memoized: each call builds the solution set and the tables
it reads, within the memory budget at `expsums.RESIDUE_BYTES` per
residue, and frees them when it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ntcore import (REMAINDER_ENTRIES, _check_modulus, _mod_in_place, _reduce, divisors,
                     factorize, mod_inverse)
from .expsums import (DEFAULT_SOLVE_CEILING,  # the ceiling solve_circle applies by default
                      CHUNK_ENTRIES, _check_grid, _check_table, kloosterman_direct,
                      kloosterman_row, phase_table)

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


def solve_circle(q: int) -> SolutionSet:
    """Complete solution set of x^2 + y^2 + 1 = 0 (mod q) in [1, q]^2.

    BudgetError above the ceiling of budget/RESIDUE_BYTES residues,
    before anything is allocated.
    """
    q = _check_table(q, "solve_circle")
    # Counting sort of the squares r^2 mod q: the y with y^2 = -x^2 - 1
    # (mod q) form one run of the stably sorted order, so each x reads
    # its run and the pairs come out sorted by (x, y).
    r = np.arange(1, q + 1, dtype=np.int64)
    sq = _mod_in_place(r * r, q)
    # a stable argsort of 16-bit keys is numpy's radix sort
    order = np.argsort(sq.astype(np.uint16) if q <= 1 << 16 else sq, kind="stable")
    count = np.bincount(sq, minlength=q)
    start = np.cumsum(count) - count
    want = q - 1 - sq  # -sq - 1 mod q
    n = count[want]
    xs = np.repeat(r, n)
    ys = r[order[np.repeat(start[want] - (np.cumsum(n) - n), n) + np.arange(xs.size)]]
    return SolutionSet(q, xs, ys)


def lambda_direct(q: int, n, m):
    """Sum of exp(2*pi*i*(n*x + m*y)/q) over the solution set mod q.

    At (n, m) = (0, 0) this is real and equals the solution count.
    n and m are ints or integer arrays that broadcast together, reduced
    mod q without modifying the caller's arrays.  Scalar arguments give a
    complex, array arguments a complex array of the broadcast shape.
    The modulus is checked against the ceiling, then what the sum holds
    (`expsums._check_grid`, with 2q solutions) is stated to the budget
    before the solution set is built: lam(q) is at most q * prod (1 + 1/p)
    over the primes p = 3 (mod 4) dividing q, which stays below 2q for
    every q < 3.7e11.  Up to CHUNK_ENTRIES (pair, solution) entries are
    summed in one step; more run over blocks of pairs by chunks of
    solutions, CHUNK_ENTRIES at a time.
    """
    q = _check_table(q, "lambda_direct")
    n, m = _reduce(q, n), _reduce(q, m)
    _check_grid(n, m, 2 * q, f"lambda_direct({q})")
    sols = solve_circle(q)
    roots = phase_table(q)
    shape = np.broadcast(n, m).shape
    nm = np.empty((2,) + shape, dtype=np.int64)  # the pairs, flattened below
    nm[0], nm[1] = n, m
    n, m = nm.reshape(2, -1)

    def chunk(ns, ms, xs, ys):
        t = np.multiply.outer(ns, xs)
        s = np.multiply.outer(ms, ys)
        t += s
        if t.size < REMAINDER_ENTRIES:
            t %= q
        else:  # t mod q, by numpy's faster floor division
            np.floor_divide(t, q, out=s)
            s *= q
            t -= s
        del s
        return np.take(roots, t).sum(axis=-1)

    if n.size * len(sols) <= CHUNK_ENTRIES:
        total = chunk(n, m, sols.xs, sols.ys)
    else:
        total = np.zeros(n.size, dtype=complex)
        block = min(n.size, CHUNK_ENTRIES)  # pairs per block
        width = max(1, CHUNK_ENTRIES // block)  # solutions per chunk
        for lo in range(0, n.size, block):
            ns, ms = n[lo : lo + block], m[lo : lo + block]
            for at in range(0, len(sols), width):
                total[lo : lo + block] += chunk(ns, ms, sols.xs[at : at + width],
                                                sols.ys[at : at + width])
    return complex(total[0]) if shape == () else total.reshape(shape)


# lambda_fast_odd sums Kloosterman sums directly, in one kloosterman_direct
# call over the units mod q, for at most this many (request, unit)
# entries; past them, a divisor's FFT row, O(l log l) for every c at
# once, is the cheaper route.
_DIRECT_ENTRIES = 1 << 16


def _sign(l: int) -> float:
    # (-1)**((l-1)/2) for odd l.
    return -1.0 if l % 4 == 3 else 1.0


def lambda_fast_odd(q: int, n, m):
    """The circle sum for odd q via its Kloosterman-sum decomposition.

    Over the divisors l of q with (q/l) | gcd(n, m), with n' = n*l/q and
    m' = m*l/q, the sum equals

        q * sum_l (-1)**((l-1)/2) / l * K(l; 1, -inv(4)*(n'^2 + m'^2)).

    Broadcasts over n and m like `lambda_direct`.  While every divisor l
    serves at most l pairs, and all of them together stay within
    _DIRECT_ENTRIES (request, unit) entries, the sums are taken directly,
    in one `kloosterman_direct` call over the units u mod q: with r = q/l,

        K(l; 1, c) = phi(l)/phi(q) * K(q; r, r*c),

    since u mod l meets every unit mod l phi(q)/phi(l) times, inv(u) mod l
    is its inverse, and e_l(t) = e_q(r*t).  Otherwise every divisor reads
    its c from the FFT row `kloosterman_row(l, 1)`, which serves any
    number of pairs in O(l log l).  So a call builds the unit and phase
    tables mod q once, a few pairs mod a small q (the sampled entries the
    verify suites check) sum directly, and a grid, or a few pairs mod a
    large q, read the rows.  The divisibility tests and the squares mod l
    are taken on n and m before they broadcast, so a grid n[:, None],
    m[None, :] costs a few cheap grid-sized passes per divisor and no gcd
    over the grid.
    """
    q = _check_modulus(q)
    if q % 2 == 0:
        raise ValueError(f"modulus must be odd, got {q}")
    _check_table(q, "lambda_fast_odd")  # the l = q term's tables, before divisors(q)
    n, m = _reduce(q, n), _reduce(q, m)
    primes = [p for p, _ in factorize(q)]

    def phi(l):
        for p in primes:
            if l % p == 0:
                l = l // p * (p - 1)
        return l

    phi_q = phi(q)
    # the divisor l = 1 serves n = m = 0 alone, with K(1; 1, 0) = 1
    total = np.array((n == 0) & (m == 0), dtype=complex)

    def read_row(l, served, c):
        k = kloosterman_row(l, 1)[c]
        k *= _sign(l) / l
        total[served] += k

    requests = []  # (l, served, c) of the divisors summed directly
    room = _DIRECT_ENTRIES // phi_q  # requests the direct sums take; None once rows are read
    for l in divisors(q)[1:]:
        r = q // l
        if r == 1:  # l = q serves every pair, with no mask to build or scatter through
            served = ...
            c = n * n % l + m * m % l
        else:
            served = (n % r == 0) & (m % r == 0)
            if not served.any():
                continue
            c = ((n // r) ** 2 % l + (m // r) ** 2 % l)[served]
        c *= -pow(4, -1, l)
        c %= l
        if room is not None and c.size <= min(l, room):
            room -= c.size
            requests.append((l, served, c))
            continue
        if room is not None:  # the first row read: every divisor reads its row
            for request in requests:
                read_row(*request)
            requests, room = [], None
        read_row(l, served, c)
    if requests:
        k = kloosterman_direct(q, np.repeat([q // l for l, *_ in requests],
                                            [c.size for *_, c in requests]),
                               np.concatenate([q // l * c.ravel() for l, _, c in requests]))
        at = 0
        for l, served, c in requests:
            k_l = k[at : at + c.size].reshape(c.shape)
            k_l *= _sign(l) / l * phi(l) / phi_q
            total[served] += k_l
            at += c.size
    total *= q
    return complex(total) if total.ndim == 0 else total


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

    Splits q = 2**h * q1 (h <= 2) and takes the 2-part in closed form:
    x^2 + y^2 + 1 = 0 has no solution mod 4, so the sum vanishes when
    4 | q; when q = 2*q1 it is ((-1)**n + (-1)**m) times the odd part,
    `lambda_fast_odd` mod q1 with the arguments twisted by inv(2) mod q1.
    Broadcasts over n and m like `lambda_direct`.
    """
    q = _check_modulus(q)
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    if q % 2 == 1:
        return lambda_fast_odd(q, n, m)
    n, m = _reduce(q, n), _reduce(q, m)
    if q % 4 == 0:
        total = np.zeros(np.broadcast_shapes(n.shape, m.shape), dtype=complex)
    else:
        q1 = q // 2
        codd = pow(2, -1, q1)  # 0 when q1 = 1, where every argument is 0
        total = lambda_fast_odd(q1, n % q1 * codd, m % q1 * codd)
        total *= (1 - 2 * (n % 2)) + (1 - 2 * (m % 2))
    return complex(total) if total.ndim == 0 else total


def lambda_direct_table(q: int) -> np.ndarray:
    """lambda_direct(q, n, m) for every (n, m) in [0, q)^2 as a (q, q) array.

    Batched direct summation: 2-D inverse DFT of the solution-set
    indicator, scaled by q^2.
    """
    q = _check_table(q, "lambda_direct_table", dims=2)
    sols = solve_circle(q)
    hist = np.zeros((q, q))
    np.add.at(hist, (sols.xs % q, sols.ys % q), 1.0)
    return np.fft.ifft2(hist) * (q * q)


def lambda_any_table(q: int) -> np.ndarray:
    """lambda_any(q, n, m) for every (n, m) in [0, q)^2 as a (q, q) array:
    one broadcast call of `lambda_any` on the residue grid."""
    q = _check_table(q, "lambda_any_table", dims=2)
    a = np.arange(q, dtype=np.int64)
    return lambda_any(q, a[:, None], a[None, :])

"""Exact pair counting: how many x, y <= H make x^2 + y^2 + 1 squarefree.

Two independent routes compute the same integer:

* the value sieve (`count_pairs_direct`): a packed squarefree bit array
  over [1, 2*H^2 + 1] probed for every pair, and
* the congruence identity (`count_pairs_mobius`): the Moebius-weighted
  sum over d of the number of pairs with d^2 | x^2 + y^2 + 1, where the
  per-modulus count comes from the circle solution set and the
  floor-difference residue counter.

Summed over the full d-range the identity is exact, so the two routes
must agree as integers; a truncated d <= z variant is exposed
separately for studying the tail of the identity.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ntcore import BudgetError, mobius_sieve, primes_upto
from .lambdasums import solve_circle

__all__ = [
    "SquarefreeSieve",
    "PairCountReport",
    "build_sieve",
    "count_pairs_direct",
    "count_pairs_mobius",
    "count_pairs_mobius_truncated",
    "residue_count",
    "congruent_pair_count",
    "DEFAULT_MEMORY_BUDGET",
]

# Default budget in bytes for the packed flag array: 2 GiB of bytes is
# 2**34 bits, enough for H = 3e4 (about 1.8e9 flags, 225 MB packed).
DEFAULT_MEMORY_BUDGET = 2**31

_SEGMENT_BITS = 1 << 24  # flags sieved per segment (2 MiB packed)


def _memory_budget(override=None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get("SQFPAIRS_MEMORY_BUDGET")
    return int(env) if env else DEFAULT_MEMORY_BUDGET


class SquarefreeSieve:
    """Packed bit array over [0, limit]; bit n says n is squarefree."""

    def __init__(self, limit: int, packed: np.ndarray):
        self.limit = limit
        self._bytes = packed  # uint8, little bit order: bit k of byte j is 8j+k

    def is_squarefree(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n must be in [1, {self.limit}], got {n}")
        return bool((self._bytes[n >> 3] >> (n & 7)) & 1)

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """0/1 flags for an array of values in [1, limit] (uint64)."""
        v = values.astype(np.uint64, copy=False)
        return (self._bytes[v >> np.uint64(3)] >> (v & np.uint64(7)).astype(np.uint8)) & np.uint8(1)

    def count_squarefree(self, upto: int | None = None) -> int:
        """Number of squarefree n with 1 <= n <= upto (default: limit)."""
        upto = self.limit if upto is None else upto
        if not 1 <= upto <= self.limit:
            raise ValueError(f"upto must be in [1, {self.limit}], got {upto}")
        full, rest = divmod(upto + 1, 8)
        total = int(np.unpackbits(self._bytes[:full]).sum())
        if rest:
            tail = np.unpackbits(self._bytes[full : full + 1], bitorder="little")
            total += int(tail[:rest].sum())
        return total


def build_sieve(N: int, memory_budget: int | None = None) -> SquarefreeSieve:
    """Squarefree flags for [1, N] by striking multiples of p^2.

    Builds segment by segment so peak scratch memory stays small, then
    packs 8 flags per byte.  Rejects N whose packed array would exceed
    the byte budget (default 2 GiB, overridable via the argument or the
    SQFPAIRS_MEMORY_BUDGET environment variable).
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    budget = _memory_budget(memory_budget)
    nbits = N + 1
    nbytes = (nbits + 7) // 8
    if nbytes > budget:
        raise BudgetError(f"sieve of {N} needs {nbytes} bytes, budget is {budget}")
    base = primes_upto(math.isqrt(N))
    squares = (base * base).tolist()
    packed = np.empty(nbytes, dtype=np.uint8)
    for lo in range(0, nbits, _SEGMENT_BITS):
        hi = min(lo + _SEGMENT_BITS, nbits)
        pad = (-(hi - lo)) % 8
        seg = np.ones(hi - lo + pad, dtype=bool)
        if pad:
            seg[hi - lo :] = False
        if lo == 0:
            seg[0] = False  # index 0 is unused
        for sq in squares:
            if sq >= hi:
                break
            start = ((lo + sq - 1) // sq) * sq
            if start < hi:
                seg[start - lo :: sq] = False
        packed[lo // 8 : lo // 8 + seg.size // 8] = np.packbits(seg, bitorder="little")
    return SquarefreeSieve(N, packed)


@dataclass(frozen=True)
class PairCountReport:
    """One exact count: S pairs among x, y <= H, with route and timing."""

    H: int
    S: int
    method: str  # "value-sieve" or "mobius-identity"
    elapsed: float


_X_BLOCK = 64  # x rows probed per vectorized lookup


def _count_range(sieve: SquarefreeSieve, x_lo: int, x_hi: int, y_sq: np.ndarray) -> int:
    total = 0
    for lo in range(x_lo, x_hi, _X_BLOCK):
        xs = np.arange(lo, min(lo + _X_BLOCK, x_hi), dtype=np.uint64)
        v = (xs * xs + np.uint64(1))[:, None] + y_sq[None, :]
        total += int(sieve.lookup(v.ravel()).sum())
    return total


def count_pairs_direct(
    H: int,
    sieve: SquarefreeSieve | None = None,
    threads: int = 1,
    memory_budget: int | None = None,
) -> PairCountReport:
    """Exact S(H) by probing the value sieve for every pair x, y <= H.

    The x range is partitioned across `threads` workers; the per-worker
    integer subtotals are summed, so the result does not depend on the
    worker count.
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    start = time.perf_counter()
    N = 2 * H * H + 1
    if sieve is None:
        sieve = build_sieve(N, memory_budget)
    elif sieve.limit < N:
        raise ValueError(f"provided sieve covers {sieve.limit} < {N}")
    y_sq = (np.arange(1, H + 1, dtype=np.uint64)) ** 2
    threads = max(1, int(threads))
    if threads == 1 or H < 64:
        total = _count_range(sieve, 1, H + 1, y_sq)
    else:
        bounds = np.linspace(1, H + 1, 4 * threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_count_range, sieve, int(a), int(b), y_sq)
                for a, b in zip(bounds[:-1], bounds[1:])
                if a < b
            ]
            total = sum(f.result() for f in futures)
    return PairCountReport(H, total, "value-sieve", time.perf_counter() - start)


def residue_count(H: int, q: int, x: int) -> int:
    """M(H, q, x): how many h in [1, H] have h = x (mod q).

    Computed as floor((H - x)/q) - floor(-x/q); always within 1 of H/q.
    x may also be an integer array, which is counted elementwise.
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    return (H - x) // q - (-x) // q


def congruent_pair_count(H: int, q: int) -> int:
    """T(H, q): pairs x, y <= H with q | x^2 + y^2 + 1.

    Sums residue_count(H, q, x) * residue_count(H, q, y) over the
    solution set mod q.  Requires 8 to not divide q.
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    sols = solve_circle(q)
    return int((residue_count(H, q, sols.xs) * residue_count(H, q, sols.ys)).sum())


def _mobius_sum(H: int, dmax: int) -> int:
    mu = mobius_sieve(dmax)
    total = 0
    for d in range(1, dmax + 1):
        sign = int(mu[d])
        if sign:
            total += sign * congruent_pair_count(H, d * d)
    return total


def count_pairs_mobius(H: int) -> PairCountReport:
    """Exact S(H) via the identity sum_{d^2 | n} mu(d) = mu^2(n).

    Sums mu(d) * T(H, d^2) over every d up to sqrt(2H^2 + 1) (values of
    x^2 + y^2 + 1 never exceed 2H^2 + 1, so the sum is complete and the
    result is an exact integer, not an approximation).
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    start = time.perf_counter()
    dmax = math.isqrt(2 * H * H + 1)
    total = _mobius_sum(H, dmax)
    return PairCountReport(H, total, "mobius-identity", time.perf_counter() - start)


def count_pairs_mobius_truncated(H: int, z: float) -> int:
    """The identity sum truncated to d <= z (z < sqrt(2H^2+1) drops tail
    terms, so this is generally not equal to S(H); see the verify suite
    for the measured deviation)."""
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    if z < 1:
        raise ValueError(f"z must be >= 1, got {z}")
    dmax = min(int(z), math.isqrt(2 * H * H + 1))
    return _mobius_sum(H, dmax)

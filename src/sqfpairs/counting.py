"""Exact pair counting: how many x, y <= H make x^2 + y^2 + 1 squarefree.

Two independent routes compute the same integer:

* the value sieve (`count_pairs_direct`, `count_pairs_ladder`): a packed
  squarefree bit array over [1, 2*H^2 + 1] probed for the pairs x <= y
  only (x^2 + y^2 + 1 is symmetric, so an off-diagonal pair counts
  twice); a ladder of heights is probed once, up to its top, and each
  S(H) is read off as the running sum over the bands between heights, and
* the congruence identity (`count_pairs_mobius`): the Moebius-weighted
  sum over squarefree d of T(H, d^2), the number of pairs with
  d^2 | x^2 + y^2 + 1, each T counted by matching the squares x^2 mod d^2
  against -y^2 - 1 in one sorted array.

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

__all__ = [
    "SquarefreeSieve",
    "PairCountReport",
    "build_sieve",
    "count_pairs_direct",
    "count_pairs_ladder",
    "count_pairs_mobius",
    "count_pairs_mobius_truncated",
    "residue_count",
    "congruent_pair_count",
    "DEFAULT_MEMORY_BUDGET",
]

# Default budget in bytes for the packed flag array: 2 GiB of bytes is
# 2**34 bits, enough for H = 3e4 (about 1.8e9 flags, 225 MB packed).
DEFAULT_MEMORY_BUDGET = 2**31

_SEGMENT_BITS = 1 << 20  # flags sieved per segment (a multiple of 8)
# Squares whose multiples are struck once, into a pattern each segment is
# copied from; the pattern repeats with their product, 44100.
_WHEEL_SQUARES = (4, 9, 25, 49)
_WHEEL_PERIOD = math.prod(_WHEEL_SQUARES)
_COUNT_CHUNK = 1 << 20  # packed bytes popcounted at a time
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _memory_budget(override=None) -> int:
    """The byte budget: the override, else SQFPAIRS_MEMORY_BUDGET, else
    DEFAULT_MEMORY_BUDGET.  A budget <= 0 is a usage error."""
    if override is not None:
        budget = int(override)
    else:
        env = os.environ.get("SQFPAIRS_MEMORY_BUDGET")
        budget = int(env) if env else DEFAULT_MEMORY_BUDGET
    if budget <= 0:
        raise ValueError(f"memory budget must be positive, got {budget}")
    return budget


def _check_sieve_budget(N: int, memory_budget: int | None = None) -> int:
    """Bytes of the packed sieve over [0, N], checked against the budget
    without allocating anything (BudgetError beyond it)."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    budget = _memory_budget(memory_budget)
    nbytes = (N + 8) // 8
    if nbytes > budget:
        raise BudgetError(f"sieve of {N} needs {nbytes} bytes, budget is {budget}")
    return nbytes


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
        """0/1 flags for an array of values in [1, limit] (uint32 is kept,
        any other integer dtype is read as uint64)."""
        v = values if values.dtype == np.uint32 else values.astype(np.uint64, copy=False)
        return (self._bytes[v >> 3] >> (v & 7).astype(np.uint8)) & np.uint8(1)

    def count_squarefree(self, upto: int | None = None) -> int:
        """Number of squarefree n with 1 <= n <= upto (default: limit).

        Whole bytes are popcounted by table, _COUNT_CHUNK bytes at a time,
        so the scratch memory stays bounded for any prefix.
        """
        upto = self.limit if upto is None else upto
        if not 1 <= upto <= self.limit:
            raise ValueError(f"upto must be in [1, {self.limit}], got {upto}")
        full, rest = divmod(upto + 1, 8)
        total = 0
        for lo in range(0, full, _COUNT_CHUNK):
            total += int(_POPCOUNT[self._bytes[lo : min(lo + _COUNT_CHUNK, full)]].sum())
        if rest:
            tail = np.unpackbits(self._bytes[full : full + 1], bitorder="little")
            total += int(tail[:rest].sum())
        return total


def build_sieve(N: int, memory_budget: int | None = None) -> SquarefreeSieve:
    """Squarefree flags for [1, N] by striking multiples of p^2.

    Works one segment of _SEGMENT_BITS flags at a time, small enough to
    stay in cache, and packs each into 8 flags per byte.  A segment starts
    as a copy of a pattern with 0 and every multiple of 4, 9, 25 and 49
    already struck.  The other squares below one segment strike their
    multiples by strided slices; every larger square has at most one
    multiple per segment, so all of those multiples are listed once,
    sorted, and each segment clears its own slice of the list by index.
    Scratch memory beyond the packed result is one segment of bools, plus
    the pattern (one segment and 44100 more bools), plus 8 bytes per
    multiple of a large square (about 7e4 of them at N = 5e8).

    Rejects N whose packed array would exceed the byte budget (default
    2 GiB, overridable via the argument or the SQFPAIRS_MEMORY_BUDGET
    environment variable) before allocating.
    """
    nbytes = _check_sieve_budget(N, memory_budget)
    nbits = N + 1
    squares = primes_upto(math.isqrt(N)) ** 2
    squares = squares[squares > _WHEEL_SQUARES[-1]]
    small = squares[squares < _SEGMENT_BITS].tolist()
    large = [np.arange(sq, N + 1, sq) for sq in squares[squares >= _SEGMENT_BITS].tolist()]
    large = np.sort(np.concatenate(large)) if large else np.empty(0, dtype=np.int64)
    pattern = np.ones(min(_WHEEL_PERIOD, nbits) + _SEGMENT_BITS, dtype=bool)
    for sq in _WHEEL_SQUARES:
        pattern[::sq] = False
    packed = np.empty(nbytes, dtype=np.uint8)
    buffer = np.empty(_SEGMENT_BITS, dtype=bool)
    for lo in range(0, nbits, _SEGMENT_BITS):
        hi = min(lo + _SEGMENT_BITS, nbits)
        seg = buffer[: -(-(hi - lo) // 8) * 8]  # whole bytes; the pad is past N
        offset = lo % _WHEEL_PERIOD
        seg[:] = pattern[offset : offset + seg.size]
        seg[hi - lo :] = False
        for sq in small:
            if sq >= hi:
                break
            start = ((lo + sq - 1) // sq) * sq
            seg[start - lo :: sq] = False
        seg[large[np.searchsorted(large, lo) : np.searchsorted(large, hi)] - lo] = False
        packed[lo // 8 : lo // 8 + seg.size // 8] = np.packbits(seg, bitorder="little")
    return SquarefreeSieve(N, packed)


@dataclass(frozen=True)
class PairCountReport:
    """One exact count: S pairs among x, y <= H, with route and timing.

    `elapsed` is the time from the start of the call that made the report
    until its S was known.  For the value sieve that includes building the
    sieve when the call built it (sieve=None), and only the probe when a
    sieve was passed in; along a ladder it grows from row to row.
    """

    H: int
    S: int
    method: str  # "value-sieve" or "mobius-identity"
    elapsed: float


_BLOCK_ROWS = 256  # y rows per block of the probe
_PROBE_VALUES = 1 << 18  # values looked up per vectorized probe
# Weights of the square tile on a block's diagonal, indexed [x - lo, y - lo]:
# 2 where x < y, 1 on the diagonal, 0 where x > y.
_TILE = np.triu(np.full((_BLOCK_ROWS, _BLOCK_ROWS), 2, dtype=np.uint8), 1)
_TILE += np.eye(_BLOCK_ROWS, dtype=np.uint8)


def _count_rows(sieve: SquarefreeSieve, y_lo: int, y_hi: int) -> int:
    """Sum over y in [y_lo, y_hi) of 2 * #{x < y : x^2 + y^2 + 1 squarefree}
    plus the flag at x = y: these rows' share of S for the square.

    Rows go in blocks of _BLOCK_ROWS.  The columns x below a block's first
    row count whole; they are probed x-major, about _PROBE_VALUES values
    at a time, so that successive lookups fall close together in the
    sieve (x^2 + y^2 moves little from one row of the block to the next).
    Only the square tile on the block's diagonal is weighted by _TILE.
    """
    dtype = np.uint32 if sieve.limit < 2**32 else np.uint64
    sq = np.arange(y_hi, dtype=dtype) ** 2
    total = 0
    for lo in range(y_lo, y_hi, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, y_hi)
        rows = sq[lo:hi] + dtype(1)
        step = _PROBE_VALUES // rows.size
        for x in range(1, lo, step):
            flags = sieve.lookup(sq[x : min(x + step, lo), None] + rows)
            total += 2 * int(np.count_nonzero(flags))
        n = hi - lo
        total += int((sieve.lookup(sq[lo:hi, None] + rows) * _TILE[:n, :n]).sum())
    return total


def _check_ladder(H_values) -> list[int]:
    """The ladder as ints: non-empty, positive and strictly increasing."""
    H_values = [int(h) for h in H_values]
    if not H_values:
        raise ValueError("need at least one H value")
    if any(h < 1 for h in H_values):
        raise ValueError(f"H values must be positive: {H_values}")
    if any(b <= a for a, b in zip(H_values, H_values[1:])):
        raise ValueError(f"H values must be strictly increasing: {H_values}")
    return H_values


def count_pairs_ladder(
    H_values,
    sieve: SquarefreeSieve | None = None,
    threads: int = 1,
    memory_budget: int | None = None,
) -> list[PairCountReport]:
    """Exact S(H) for every H of a strictly increasing ladder, by one probe
    of the value sieve over the pairs x <= y up to the largest H.

    The sieve is built once, for the largest H, unless one is given.  The
    bands H_{k-1} < y <= H_k are probed in order and S(H_k) is S(H_{k-1})
    plus its band.  Each band is cut into 4 chunks per worker at
    sqrt-spaced rows (a row's work grows like y); the pool has
    min(threads, cpu count) workers.  Integer subtotals are summed, so the
    result does not depend on the worker count.
    """
    H_values = _check_ladder(H_values)
    start = time.perf_counter()
    N = 2 * H_values[-1] ** 2 + 1
    if sieve is None:
        sieve = build_sieve(N, memory_budget)
    elif sieve.limit < N:
        raise ValueError(f"provided sieve covers {sieve.limit} < {N}")
    workers = min(max(1, int(threads)), os.cpu_count() or 1)
    reports = []
    S, y_lo = 0, 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for H in H_values:
            cuts = np.sqrt(np.linspace(y_lo**2, (H + 1) ** 2, 4 * workers + 1)).astype(int)
            cuts = np.unique(cuts).tolist()  # a short band has fewer rows than chunks
            futures = [pool.submit(_count_rows, sieve, a, b) for a, b in zip(cuts, cuts[1:])]
            S += sum(f.result() for f in futures)
            y_lo = H + 1
            reports.append(PairCountReport(H, S, "value-sieve", time.perf_counter() - start))
    return reports


def count_pairs_direct(
    H: int,
    sieve: SquarefreeSieve | None = None,
    threads: int = 1,
    memory_budget: int | None = None,
) -> PairCountReport:
    """Exact S(H) by the value sieve: `count_pairs_ladder` on the ladder [H]."""
    return count_pairs_ladder([H], sieve, threads, memory_budget)[0]


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

    The squares r = x^2 mod q for x = 1..H are sorted once; each x pairs
    with the run of y whose r equals -x^2 - 1 mod q, found by two binary
    searches.  O(H log H) time and O(H) memory for any q.  Requires 8 to
    not divide q.
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    x = np.arange(1, H + 1, dtype=np.int64)
    r = np.sort(x * x % q)
    want = (-r - 1) % q  # over all x, the sorted r are the same multiset
    return int((np.searchsorted(r, want, "right") - np.searchsorted(r, want, "left")).sum())


def _mobius_sum(H: int, dmax: int) -> int:
    mu = mobius_sieve(dmax)
    return sum(int(mu[d]) * congruent_pair_count(H, d * d) for d in np.flatnonzero(mu).tolist())


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

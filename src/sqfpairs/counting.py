"""Exact pair counting: how many x, y <= H make x^2 + y^2 + 1 squarefree.

Two independent routes compute the same integer:

* the value sieve (`count_pairs_direct`, `count_pairs_ladder`): packed
  squarefree bits for the odd n <= 2*H^2 + 1 (x^2 + y^2 + 1 is never
  0 mod 4, and when even it is twice an odd number), probed for the
  pairs x <= y only (x^2 + y^2 + 1 is symmetric, so an off-diagonal pair
  counts twice); a ladder of heights is probed once, up to its top, and each
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

from .ntcore import (DEFAULT_MEMORY_BUDGET,  # re-exported
                     _check_modulus, check_bytes, mobius_sieve, primes_upto)

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

_SEGMENT_BITS = 1 << 20  # flags sieved per segment (a multiple of 8)
# Squares whose odd multiples are struck once, into a pattern each segment
# is copied from; in index space the pattern repeats with their product, 11025.
_WHEEL_SQUARES = (9, 25, 49)
_WHEEL_PERIOD = math.prod(_WHEEL_SQUARES)
_COUNT_CHUNK = 1 << 20  # packed bytes popcounted at a time
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


class SquarefreeSieve:
    """Squarefree flags for [1, limit], packed for the odd n only: bit i
    says n = 2i + 1 is squarefree.

    That answers every n: if 4 | n, n is not squarefree, and if
    n = 2 (mod 4), n is squarefree exactly when the odd n/2 is.  The pair
    values x^2 + y^2 + 1 are never 0 (mod 4), so the probe reads the bits
    directly by index (see `_count_rows`).
    """

    def __init__(self, limit: int, packed: np.ndarray):
        self.limit = limit
        self._bytes = packed  # uint8, little bit order: bit k of byte j is index 8j+k

    def _flags(self, index: np.ndarray) -> np.ndarray:
        """0/1 flags for an unsigned array of bit indices.  `np.take`
        gathers ~15% faster than fancy indexing, which casts uint32 indices
        to intp, and still raises IndexError past the array; the bit index
        is one uint8 pass."""
        bit = np.bitwise_and(index, 7, dtype=np.uint8, casting="unsafe")
        return (np.take(self._bytes, index >> 3) >> bit) & np.uint8(1)

    def is_squarefree(self, n: int) -> bool:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n must be in [1, {self.limit}], got {n}")
        i = n >> (2 - (n & 1))  # index of n if odd, else of n/2
        return n % 4 != 0 and bool((self._bytes[i >> 3] >> (i & 7)) & 1)

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """0/1 flags for an array of values in [1, limit] (uint32 is kept,
        any other integer dtype is read as uint64).  An odd n reads index
        n >> 1 and an even n index n >> 2, the index of n/2 when
        n = 2 (mod 4); multiples of 4 read 0.  A value whose index is past
        the array raises IndexError."""
        v = values if values.dtype == np.uint32 else values.astype(np.uint64, copy=False)
        return self._flags(v >> (2 - (v & 1))) & (v & 3 != 0)

    def _count_bits(self, nbits: int) -> int:
        """Set bits among the first nbits.  Whole bytes are popcounted by
        table, _COUNT_CHUNK bytes at a time, so the scratch memory stays
        bounded for any prefix."""
        full, rest = divmod(nbits, 8)
        total = 0
        for lo in range(0, full, _COUNT_CHUNK):
            total += int(_POPCOUNT[self._bytes[lo : min(lo + _COUNT_CHUNK, full)]].sum())
        if rest:
            tail = np.unpackbits(self._bytes[full : full + 1], bitorder="little")
            total += int(tail[:rest].sum())
        return total

    def count_squarefree(self, upto: int | None = None) -> int:
        """Number of squarefree n with 1 <= n <= upto (default: limit): the
        odd ones, plus one 2m for each squarefree odd m <= upto/2."""
        upto = self.limit if upto is None else upto
        if not 1 <= upto <= self.limit:
            raise ValueError(f"upto must be in [1, {self.limit}], got {upto}")
        return self._count_bits((upto + 1) // 2) + self._count_bits((upto // 2 + 1) // 2)


def build_sieve(N: int) -> SquarefreeSieve:
    """Squarefree flags for the odd n in [1, N] by striking the odd
    multiples of p^2 for the odd primes p (no odd n is a multiple of 4).

    Bit i stands for n = 2i + 1, so the odd multiples of p^2 are the
    indices (p^2 - 1)/2 + k*p^2: stride p^2 from offset (p^2 - 1)/2.
    Works one segment of _SEGMENT_BITS flags at a time, small enough to
    stay in cache, and packs each into 8 flags per byte.  A segment starts
    as a copy of a pattern with the odd multiples of 9, 25 and 49 already
    struck.  The other squares below one segment strike theirs by strided
    slices; every larger square has at most one multiple per segment, so
    all of those are listed once, sorted, and each segment clears its own
    slice of the list by index.  Scratch memory beyond the packed result
    is one segment of bools, plus the pattern (one segment and 11025 more
    bools), plus 8 bytes per odd multiple of a large square (about 3e4 of
    them at N = 5e8).  A sieve shorter than one segment sizes the segment
    and the pattern to its own whole bytes.

    States its packed bytes to `check_bytes`, so an N over the memory
    budget is refused before anything is allocated.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    nbytes = ((N + 1) // 2 + 7) // 8
    check_bytes(nbytes, f"sieve of {N}")
    nbits = (N + 1) // 2
    squares = primes_upto(math.isqrt(N)) ** 2
    squares = squares[squares > _WHEEL_SQUARES[-1]]
    small = squares[squares < _SEGMENT_BITS].tolist()
    large = [np.arange((sq - 1) // 2, nbits, sq)
             for sq in squares[squares >= _SEGMENT_BITS].tolist()]
    large = np.sort(np.concatenate(large)) if large else np.empty(0, dtype=np.int64)
    seg_bits = min(_SEGMENT_BITS, nbytes * 8)  # a sieve shorter than a segment needs no more
    pattern = np.ones(min(_WHEEL_PERIOD, nbits) + seg_bits, dtype=bool)
    for sq in _WHEEL_SQUARES:
        pattern[(sq - 1) // 2 :: sq] = False
    packed = np.empty(nbytes, dtype=np.uint8)
    buffer = np.empty(seg_bits, dtype=bool)
    for lo in range(0, nbits, _SEGMENT_BITS):
        hi = min(lo + _SEGMENT_BITS, nbits)
        seg = buffer[: -(-(hi - lo) // 8) * 8]  # whole bytes; the pad is past N
        offset = lo % _WHEEL_PERIOD
        seg[:] = pattern[offset : offset + seg.size]
        seg[hi - lo :] = False
        for sq in small:
            first = (sq - 1) // 2
            if first >= hi:
                break
            seg[(first - lo) % sq :: sq] = False
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
# Values per vectorized probe: 2^15 uint32 values (128 KB) and the lookup's
# temporaries (intp indices, uint8 bytes and bits) fit a 2 MiB-per-core L2.
_PROBE_VALUES = 1 << 15
# Weights of the square tile on a block's diagonal, indexed [x - lo, y - lo]:
# 2 where x < y, 1 on the diagonal, 0 where x > y.
_TILE = np.triu(np.full((_BLOCK_ROWS, _BLOCK_ROWS), 2, dtype=np.uint8), 1)
_TILE += np.eye(_BLOCK_ROWS, dtype=np.uint8)


def _count_rows(sieve: SquarefreeSieve, y_lo: int, y_hi: int) -> int:
    """Sum over y in [y_lo, y_hi) of 2 * #{x < y : x^2 + y^2 + 1 squarefree}
    plus the flag at x = y: these rows' share of S for the square.

    The sieve is read by index, not by value.  With f[x] = x^2 >> 2 and
    h = 2f, x^2 + y^2 + 1 is odd at index h[x] + h[y] when x and y are
    both even, and at h[x] + h[y] + 1 when both are odd; when their
    parities differ it is twice the odd number at index f[x] + f[y].  So
    each value costs one add, as a probe by value would.

    Rows go in blocks of _BLOCK_ROWS, split by parity into four quadrants
    of (column parity, row parity).  The columns x below a block's first
    row count whole; each quadrant probes them x-major, about
    _PROBE_VALUES values at a time, so that successive lookups fall close
    together in the sieve (x^2 + y^2 moves little from one row of the
    block to the next).  Only the square tile on the block's diagonal is
    weighted, by _TILE with its rows and columns in the same parity order.
    """
    top = (sieve.limit - 1) // 2  # the sieve's largest index
    dtype = np.uint32 if top < 2**32 else np.uint64
    f = np.arange(y_hi, dtype=dtype) ** 2 >> 2
    h = f << 1
    total = 0
    for lo in range(y_lo, y_hi, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, y_hi)
        even, odd = slice(lo + lo % 2, hi, 2), slice(lo + 1 - lo % 2, hi, 2)
        # (column terms, row terms) of the quadrants of the even columns,
        # then of the odd ones, each over the even rows and the odd rows
        by_parity = (((h, h[even]), (f, f[odd])), ((f, f[even]), (h, h[odd] + 1)))
        for first, quadrants in zip((2, 1), by_parity):
            for a, rows in quadrants:
                step = 2 * (_PROBE_VALUES // max(rows.size, 1))  # x advances by 2
                for x in range(first, lo, step):
                    flags = sieve._flags(a[x : min(x + step, lo) : 2, None] + rows)
                    total += 2 * int(np.count_nonzero(flags))
        tile = np.block([[a[cols, None] + rows for a, rows in quadrants]
                         for cols, quadrants in zip((even, odd), by_parity)])
        order = np.r_[lo % 2 : hi - lo : 2, 1 - lo % 2 : hi - lo : 2]
        total += int((sieve._flags(tile) * _TILE[np.ix_(order, order)]).sum())
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
        sieve = build_sieve(N)
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
) -> PairCountReport:
    """Exact S(H) by the value sieve: `count_pairs_ladder` on the ladder [H]."""
    return count_pairs_ladder([H], sieve, threads)[0]


def residue_count(H: int, q: int, x: int) -> int:
    """M(H, q, x): how many h in [1, H] have h = x (mod q).

    Computed as floor((H - x)/q) - floor(-x/q); always within 1 of H/q.
    x may also be an integer array, which is counted elementwise.  H and
    q must be positive integers (ints or numpy integers, not bools).
    """
    H, q = _check_modulus(H, "H"), _check_modulus(q, "q")
    return (H - x) // q - (-x) // q


def congruent_pair_count(H: int, q: int) -> int:
    """T(H, q): pairs x, y <= H with q | x^2 + y^2 + 1.

    The squares r = x^2 mod q for x = 1..H are sorted once; each x pairs
    with the run of y whose r equals -x^2 - 1 mod q, found by two binary
    searches.  O(H log H) time; 48 bytes per x (int64 squares, sort and
    searches) are stated to `check_bytes`.  H and q must be positive
    integers (ints or numpy integers, not bools), and 8 must not divide q.
    """
    H, q = _check_modulus(H, "H"), _check_modulus(q, "q")
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    check_bytes(48 * H, f"congruent_pair_count({H}, {q})")
    x = np.arange(1, H + 1, dtype=np.int64)
    r = np.sort(x * x % q)
    want = (-r - 1) % q  # over all x, the sorted r are the same multiset
    return int((np.searchsorted(r, want, "right") - np.searchsorted(r, want, "left")).sum())


def _mobius_sum(H: int, dmax: int) -> int:
    # congruent_pair_count's 48 bytes per x, checked before the sieve is
    # built; the d are read off the sieve one at a time, with no list
    check_bytes(48 * H, f"congruent_pair_count({H}, d^2)")
    mu = mobius_sieve(dmax)
    return sum(int(mu[d]) * congruent_pair_count(H, d * d) for d in range(1, dmax + 1) if mu[d])


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

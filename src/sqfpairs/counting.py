"""Exact pair counting: how many x, y <= H make x^2 + y^2 + 1 squarefree.

Two independent routes compute the same integer:

* the value sieve (`count_pairs_direct`, `count_pairs_ladder`): packed
  squarefree bits for the odd n <= 2*H^2 + 1 (x^2 + y^2 + 1 is never
  0 mod 4, and when even it is twice an odd number), probed for half
  the pairs (x^2 + y^2 + 1 is symmetric; see `_block_streams`).  The
  pairs are read in increasing order of their sieve index through a
  window of the widest rectangle and two segments, built as the probe
  reaches them, so the sieve is never held whole (a whole one, from
  `build_sieve`, can be passed in and is copied into the windows
  instead).  A ladder of heights is probed once, up to its top,
  and each S(H) is read off as the running sum over the bands, and
* the congruence identity (`count_pairs_mobius_ladder`): the sum over odd
  squarefree d of mu(d) T(h, d^2), T counting the pairs with
  d^2 | x^2 + y^2 + 1, at every h up to the top in one pass (`_pair_rows`).

Summed over the full d-range the identity is exact, so the two routes
must agree as integers at every height.
"""

from __future__ import annotations

import bisect
import contextvars
import heapq
import itertools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .ntcore import (DEFAULT_MEMORY_BUDGET,  # re-exported
                     _check_integers, _check_modulus, check_bytes, mobius_sieve, primes_upto)

__all__ = [
    "SquarefreeSieve",
    "PairCountReport",
    "build_sieve",
    "count_pairs_direct",
    "count_pairs_ladder",
    "count_pairs_mobius",
    "count_pairs_mobius_ladder",
    "residue_count",
    "congruent_pair_count",
    "DEFAULT_MEMORY_BUDGET",
]

_SEGMENT_BITS = 1 << 18  # flags sieved and packed at a time (a multiple of 8)
# Squares whose odd multiples are struck once, into a pattern each segment
# is copied from; in index space the pattern repeats with their product, 11025.
_WHEEL_SQUARES = (9, 25, 49)
_WHEEL_PERIOD = math.prod(_WHEEL_SQUARES)
# A square with more multiples than this in a segment strikes them by one
# strided slice; the others are struck together, through the strike table.
_STRIDED_MULTIPLES = 128


class SquarefreeSieve:
    """Squarefree flags for [1, limit], packed for the odd n only: bit i
    says n = 2i + 1 is squarefree.

    That answers every n: if 4 | n, n is not squarefree, and if
    n = 2 (mod 4), n is squarefree exactly when the odd n/2 is.  The pair
    values x^2 + y^2 + 1 are never 0 (mod 4), so the probe reads the bits
    directly by index (see `_block_streams`).
    """

    def __init__(self, limit: int, packed: np.ndarray):
        self.limit = limit
        self._bytes = packed  # uint8, little bit order: bit k of byte j is index 8j+k

    def fill(self, lo: int, out: np.ndarray) -> None:
        """Copies the flags lo, lo + 1, .. (lo a multiple of 8) into the
        bytes `out`, as `_Segments.fill` sieves them: the probe reads a
        given sieve through the same windows as the flags it builds."""
        out[:] = self._bytes[lo >> 3 : (lo >> 3) + out.size]

    def _count_bits(self, nbits: int) -> int:
        """Set bits among the first nbits, popcounted one segment's bytes
        at a time, so the scratch memory stays bounded for any prefix; a
        last partial byte is masked to its low bits."""
        full, rest = divmod(nbits, 8)
        total, seg = 0, _SEGMENT_BITS // 8
        for lo in range(0, full, seg):
            total += int(np.bitwise_count(self._bytes[lo : min(lo + seg, full)]).sum())
        if rest:
            total += int(np.bitwise_count(self._bytes[full] & ((1 << rest) - 1)))
        return total

    def count_squarefree(self, upto: int) -> int:
        """Number of squarefree n with 1 <= n <= upto: the odd ones, plus
        one 2m for each squarefree odd m <= upto/2."""
        upto = _check_modulus(upto, "upto")
        if upto > self.limit:
            raise ValueError(f"upto must be in [1, {self.limit}], got {upto}")
        return self._count_bits((upto + 1) // 2) + self._count_bits((upto // 2 + 1) // 2)


class _Segments:
    """Packs the squarefree flags of the odd n <= N, one segment of at
    most _SEGMENT_BITS flags at a time; `build_sieve` and the probe's
    windows both fill their bytes through `fill`.

    Bit i stands for n = 2i + 1, so the odd multiples of p^2 are the
    indices (p^2 - 1)/2 + k*p^2: stride p^2 from offset (p^2 - 1)/2.  A
    segment is staged as bools small enough to stay in cache (256 KB) and
    then packed into its bytes.  It starts as copies of one period (11025
    flags) of a pattern with the odd multiples of 9, 25 and 49 already
    struck.  The squares with more than _STRIDED_MULTIPLES multiples in a
    segment (121 to 1849) strike theirs by strided slices.

    The larger squares strike through one table.  A square p^2 with at
    most c = ceil(segment / p^2) multiples in a segment has c entries, and
    entry j holds the multiples j, j + c, j + 2c, ..: the index of the
    first and the span c*p^2, which is at least a segment.  So each entry
    strikes at most once per segment, at its position counted from the
    segment's start.  Past the segment the position is struck on a
    sentinel flag after it, and one assignment strikes every entry.  Then
    the positions move on by the segment, and an entry whose strike is
    passed adds its span.  A fill that does not start where the last one
    stopped counts the positions afresh, (first - lo) mod span.  A sieve
    shorter than one segment sizes the segment to its own whole bytes.
    """

    def __init__(self, N: int):
        self.nbits = (N + 1) // 2
        segment = self._segment_bits(N)
        squares = primes_upto(math.isqrt(N)) ** 2
        squares = squares[squares > _WHEEL_SQUARES[-1]]
        strided = squares * _STRIDED_MULTIPLES < segment
        self.strided = squares[strided].tolist()
        squares = squares[~strided]
        counts = -(-segment // squares)  # the most multiples of each square in a segment
        self.first = np.arange(counts.sum(), dtype=np.int64)
        self.first -= np.repeat(np.cumsum(counts) - counts, counts)  # j, from 0 per square
        self.first *= np.repeat(squares, counts)
        self.first += np.repeat((squares - 1) // 2, counts)
        self.span = np.repeat(counts * squares, counts)
        self.positions = np.empty_like(self.first)
        self.clamped = np.empty_like(self.first)
        self.next = None  # the flag the positions count from
        self.pattern = np.ones(2 * _WHEEL_PERIOD, dtype=bool)  # any period's worth from any offset
        for sq in _WHEEL_SQUARES:
            self.pattern[(sq - 1) // 2 :: sq] = False
        self.buffer = np.empty(segment + 1, dtype=bool)  # the last flag is the sentinel

    @staticmethod
    def _segment_bits(N: int) -> int:
        """Flags per segment: _SEGMENT_BITS, or the whole sieve's bytes'
        worth when that is fewer."""
        return min(_SEGMENT_BITS, ((N + 1) // 2 + 7) // 8 * 8)

    @staticmethod
    def scratch_bytes(N: int) -> int:
        """A bound on the bytes `_Segments(N)` holds while it fills: the
        pattern, the staged segment, its packed copy, 16 KiB for the arrays'
        headers and np.packbits' scratch (5.3 KiB), the prime sieve's
        flags, 48 per square while the table is built and 32 per table
        entry.  There are fewer than 1.25506 x / ln x primes up to
        x = sqrt(N) (Rosser and Schoenfeld).  A table square p^2 has
        ceil(segment / p^2) entries, and p is odd and at least
        m = ceil(sqrt(segment / 128)) (and 11), so there are fewer entries
        than squares plus segment / (2(m - 2)): the sum of 1/n^2 over the
        odd n >= m is below 1/(2(m - 2))."""
        segment = _Segments._segment_bits(N)
        root = math.isqrt(N)
        squares = int(1.25506 * root / math.log(root)) + 1 if root > 1 else 0
        least = max(11, math.isqrt(-(-segment // _STRIDED_MULTIPLES) - 1) + 1)
        entries = squares + segment // (2 * (least - 2)) + 1
        return (2 * _WHEEL_PERIOD + segment + 1 + segment // 8 + (1 << 14) + root + 1
                + 48 * squares + 32 * entries)

    def fill(self, lo: int, out: np.ndarray) -> None:
        """Packs the flags lo, lo + 1, .. into the bytes `out`, at most a
        segment of them, staged in the buffer's first bools; bits past the
        sieve's last flag are 0.  The table's positions move on to the
        segment's end."""
        if lo != self.next:
            np.subtract(self.first, lo, out=self.positions)
            np.remainder(self.positions, self.span, out=self.positions)
        size = 8 * out.size
        stage = self.buffer[:size]
        offset = lo % _WHEEL_PERIOD
        done = min(_WHEEL_PERIOD, size)
        stage[:done] = self.pattern[offset : offset + done]
        while done < size:  # the copied periods double each pass
            more = min(done, size - done)
            stage[done : done + more] = stage[:more]
            done += more
        hi = min(lo + size, self.nbits)
        stage[hi - lo :] = False
        for sq in self.strided:
            first = (sq - 1) // 2
            if first >= hi:
                break
            stage[(first - lo) % sq :: sq] = False
        np.minimum(self.positions, self.buffer.size - 1, out=self.clamped)
        self.buffer[self.clamped] = False
        self.positions -= size
        np.right_shift(self.positions, 63, out=self.clamped)  # -1 where passed, else 0
        self.clamped &= self.span
        self.positions += self.clamped
        out[:] = np.packbits(stage, bitorder="little")
        self.next = lo + size


def build_sieve(N: int) -> SquarefreeSieve:
    """Squarefree flags for the odd n in [1, N] by striking the odd
    multiples of p^2 for the odd primes p (no odd n is a multiple of 4),
    one segment at a time (see `_Segments`), into one packed array.

    States its packed bytes to `check_bytes`, so an N over the memory
    budget is refused before anything is allocated.
    """
    N = _check_modulus(N, "N")
    nbytes = ((N + 1) // 2 + 7) // 8
    check_bytes(nbytes, f"sieve of {N}")
    segments = _Segments(N)
    packed = np.empty(nbytes, dtype=np.uint8)
    seg_bytes = _SEGMENT_BITS // 8
    for lo in range(0, nbytes, seg_bytes):
        segments.fill(8 * lo, packed[lo : lo + seg_bytes])
    return SquarefreeSieve(N, packed)


@dataclass(frozen=True)
class PairCountReport:
    """One exact count: S pairs among x, y <= H, with route and timing.

    `elapsed` is the time from the start of the call that made the report
    until its S was known.  For the value sieve that includes filling the
    windows: building their segments, or copying them when a sieve was
    passed in.  Along a ladder it grows from row to row.
    """

    H: int
    S: int
    method: str  # "value-sieve" or "mobius-identity"
    elapsed: float


_BLOCK_ROWS = 256  # y rows per block of the probe
# Values per column chunk of a full block: 2^15 uint32 values (128 KB) and
# the lookup's scratch (intp indices, uint8 bytes and bits) fit a 2 MiB L2.
_PROBE_VALUES = 1 << 15
# Bytes stated per quadrant stream of the schedule (generator, frame and
# row terms; 1.5-1.6 KB measured from H = 16000 to 100,000).
_STREAM_BYTES = 2048


def _quadrant(sid, band, terms, rows, x0, lo, tile, times, step, start):
    """One quadrant's rectangles, in increasing order of first index, as
    (first index, sid, last index, band, column terms, row terms, times):
    the columns x0, x0 + 2, .. below the block's first row lo in chunks
    that start every `step` in x, each pair counted twice, then the tile's
    columns, the slice `tile`, counted `times` times (0: no tile).
    Rectangles whose first index is below `start` are skipped.

    The column `terms` come as the terms mod 2^32 and their exact-term
    function, and the `rows` as the exact first and last row terms and all
    of them mod 2^32.  The exact terms give the first and last indices,
    which order the probe, and the rectangle carries the terms mod 2^32,
    which index the window."""
    (a, exact), (r0, r1, rows) = terms, rows
    xs = range(x0, lo, step)
    skip = bisect.bisect_left(xs, start - r0, key=exact) if start else 0
    for x in xs[skip:]:
        last = min(x + step, lo) - 1
        last -= (last - x) % 2  # the chunk's last column
        yield exact(x) + r0, sid, exact(last) + r1, band, a[x : last + 1 : 2], rows, 2
    cols = range(tile.start, tile.stop, 2)
    if times and cols and exact(cols[0]) + r0 >= start:
        yield exact(cols[0]) + r0, sid, exact(cols[-1]) + r1, band, a[tile], rows, times


def _block_streams(sid, band, lo, hi, f, h, step, start):
    """The rectangles of the rows lo <= y < hi of one band, as one stream
    per quadrant (column parity, row parity) with rows.

    The sieve is read by index, not by value.  With f[x] = x^2 >> 2 and
    h = 2f, x^2 + y^2 + 1 is odd at index h[x] + h[y] when x and y are
    both even, and at h[x] + h[y] + 1 when both are odd; when their
    parities differ it is twice the odd number at index f[x] + f[y].  So
    each value costs one add.  Same-parity pairs index near (x^2 + y^2)/2
    and mixed ones near (x^2 + y^2)/4, which is why each quadrant of the
    diagonal tile is a rectangle of its own.  By symmetry, a column below
    the block counts twice, a same-parity tile once, and the even-by-odd
    tile twice, for the odd-by-even one too.  f and h are pairs: the terms
    mod 2^32 and the function giving a term exactly."""
    even, odd = slice(lo + lo % 2, hi, 2), slice(lo + 1 - lo % 2, hi, 2)
    # (terms, first column, column slice of the tile, row slice, added to
    # the row terms, times the tile counts)
    quadrants = ((h, 2, even, even, 0, 1), (f, 2, even, odd, 0, 2),
                 (f, 1, odd, even, 0, 0), (h, 1, odd, odd, 1, 1))
    streams = []
    for (a, exact), x0, cols, rows, plus, times in quadrants:
        if rows.start < hi:
            ys = range(rows.start, hi, 2)
            row_terms = (exact(ys[0]) + plus, exact(ys[-1]) + plus,
                         a[rows] + plus if plus else a[rows])  # a view when nothing is added
            streams.append(_quadrant(sid + len(streams), band, (a, exact), row_terms, x0, lo,
                                     cols, times, step, start))
    return streams


def _blocks(H_values):
    """(band, lo, hi) for each block of rows lo <= y < hi: the bands
    H_{k-1} < y <= H_k, cut into blocks of _BLOCK_ROWS rows."""
    y_lo = 1
    for band, H in enumerate(H_values):
        for lo in range(y_lo, H + 1, _BLOCK_ROWS):
            yield band, lo, min(lo + _BLOCK_ROWS, H + 1)
        y_lo = H + 1


def _schedule(H_values, f, h, step, start=0, stop=None):
    """Every rectangle of the ladder's probe whose first index is in
    [start, stop), in increasing order of first index.  Each block's
    quadrant streams are already ordered, so merging them holds four
    streams per block, not the rectangles."""
    streams = []
    for band, lo, hi in _blocks(H_values):
        streams += _block_streams(len(streams), band, lo, hi, f, h, step, start)
    merged = heapq.merge(*streams)
    return merged if stop is None else itertools.takewhile(lambda r: r[0] < stop, merged)


def _split(schedule, total, runs, past):
    """runs - 1 first indices that cut the schedule into runs of about
    total/runs lookups each; cuts the schedule does not reach are `past`."""
    cuts, done = [], 0
    targets = [total * k // runs for k in range(1, runs)]
    for first, _, _, _, cols, rows, _ in schedule:
        while len(cuts) < len(targets) and done >= targets[len(cuts)]:
            cuts.append(first)
        done += cols.size * rows.size
    return cuts + [past] * (len(targets) - len(cuts))


class _Window:
    """One run's probe: the sieve bytes [b0, end) in `buffer`, and scratch
    for the rectangles it reads.

    A source's `fill(lo, out)` supplies the sieve's first `nbytes` bytes:
    `_Segments` sieves them and a given `SquarefreeSieve` copies them.
    Segments are appended as the rectangles reach them, and when the
    buffer is full the bytes below the current rectangle's first index are
    dropped with one move, or all of them when it starts past the end.
    Rectangles come in increasing order of first index, so no later one
    reads a dropped byte.  A buffer of the widest rectangle plus two
    segments always holds the current rectangle: after a move the window
    starts at its first byte and ends less than a segment past its last,
    and after a jump it starts less than a segment before its first.  The
    move may overlap itself, which is safe: numpy copies a forward 1-D
    slice assignment in place, without a temporary.  The buffer holds
    fewer than 2^32 bits (`_probe_ladder` refuses a larger one), so every
    index into it fits a uint32.
    """

    def __init__(self, buffer, nbytes, source, values):
        self.buffer, self.nbytes, self.source = buffer, nbytes, source
        self.b0 = self.end = 0
        self.build_seconds = 0.0  # summed time of the segment fills
        self._index = np.empty(values, dtype=np.uint32)
        self._bit = np.empty(values, dtype=np.uint8)
        self._at = np.empty(values, dtype=np.intp)
        self._flags = np.empty(values, dtype=np.uint8)

    def _reach(self, first: int, last: int) -> int:
        """Makes the bits first..last readable; returns 8 * b0, the index
        of the buffer's first bit."""
        need = last >> 3
        if need >= self.end:
            seg = _SEGMENT_BITS // 8
            stop = min((need // seg + 1) * seg, self.nbytes)
            lo = first >> 3
            if stop - self.b0 > self.buffer.size:
                if lo < self.end:
                    self.buffer[: self.end - lo] = self.buffer[lo - self.b0 : self.end - self.b0]
                    self.b0 = lo
                else:
                    self.b0 = self.end = lo - lo % seg
            started = time.perf_counter()
            for at in range(self.end, stop, seg):
                self.source.fill(8 * at, self.buffer[at - self.b0 : min(at + seg, stop) - self.b0])
            self.end = stop
            self.build_seconds += time.perf_counter() - started
        return 8 * self.b0

    def count(self, first, last, cols, rows, times) -> int:
        """The squarefree flags of the rectangle cols x rows, whose indices
        cols[i] + rows[j] run from first to last, counted `times` times.
        The terms come mod 2^32 in uint32, and with 8 * b0 taken off the
        row terms a lookup still costs one add: the sum, mod 2^32, is the
        index in the window, which is below 2^32."""
        base = self._reach(first, last)
        n = cols.size * rows.size
        index, bit, at, flags = self._index[:n], self._bit[:n], self._at[:n], self._flags[:n]
        np.add(cols[:, None], rows - base % 2**32, out=index.reshape(cols.size, rows.size))
        np.bitwise_and(index, 7, out=bit, casting="unsafe")
        np.right_shift(index, 3, out=at)
        np.take(self.buffer, at, out=flags)
        np.right_shift(flags, bit, out=flags)
        np.bitwise_and(flags, 1, out=flags)
        return times * int(np.count_nonzero(flags))


def _check_ladder(H_values) -> list[int]:
    """The ladder as ints: non-empty, each a positive integer (an int or
    numpy integer, not a bool or a float) and strictly increasing."""
    H_values = [_check_modulus(h, "H") for h in H_values]
    if not H_values:
        raise ValueError("need at least one H value")
    if any(b <= a for a, b in zip(H_values, H_values[1:])):
        raise ValueError(f"H values must be strictly increasing: {H_values}")
    return H_values


def _probe_ladder(H_values, sieve=None, threads=1):
    """`count_pairs_ladder`'s reports, and the seconds spent filling
    windows, summed over the runs (`sieve`, `threads`: `count_pairs_direct`)."""
    H_values = _check_ladder(H_values)
    start = time.perf_counter()
    top = H_values[-1]
    N = 2 * top**2 + 1
    if sieve is not None and sieve.limit < N:
        raise ValueError(f"provided sieve covers {sieve.limit} < {N}")
    workers = min(_check_modulus(threads, "threads"), os.cpu_count() or 1)
    step = 2 * max(1, _PROBE_VALUES // max(1, _BLOCK_ROWS // 2))  # x advance per column chunk
    half = (min(_BLOCK_ROWS, top) + 1) // 2  # rows of one parity in a block
    values = half * max(half, min(step // 2, top // 2 + 1))  # a chunk's or a tile's, at most

    def span(d):  # the widest h[x] - h[x - d], at the top (h is convex)
        return 2 * (top * top >> 2) - 2 * (max(top - d, 0) ** 2 >> 2)

    rows_span = span((_BLOCK_ROWS - 1) // 2 * 2)  # a block's rows of one parity
    widest = (max(span(step - 2), rows_span) + rows_span) // 8 + 1
    nbytes = ((N + 1) // 2 + 7) // 8
    window = min(nbytes, widest + 2 * (_SEGMENT_BITS // 8))
    if 8 * window >= 2**32:
        raise ValueError(f"pair probe to H = {top} needs a window of {window} bytes, "
                         "2^32 bits or more, past its uint32 indices")
    blocks = sum(1 for _ in _blocks(H_values))
    # per worker: the window, the segment scratch, and per value the uint32
    # index, its bit, its byte index (intp), the flag and a copy of the
    # flags made by np.take, plus 128 KiB for the buffers of numpy's casting
    # loops; then f and h, 8 bytes per x held (uint32, mod 2^32) and 12
    # while f is built from its uint64 scratch; and the streams of the
    # merge (one block's more for the merge itself)
    check_bytes(workers * (window + _Segments.scratch_bytes(N) + 15 * values + (1 << 17))
                + 12 * (top + 1) + 4 * (blocks + 1) * _STREAM_BYTES,
                f"pair probe to H = {top}")
    f = np.arange(top + 1, dtype=np.uint64)  # x, then x^2 >> 2 (past 2^32) in place
    f *= f
    f >>= 2
    f = f.astype(np.uint32)  # mod 2^32; the uint64 scratch is freed
    f, h = (f, lambda x: x * x >> 2), (f << 1, lambda x: x * x >> 2 << 1)  # with exact terms

    def run(lo, hi):
        win = _Window(np.empty(window, dtype=np.uint8), nbytes, sieve or _Segments(N), values)
        totals, done = [0] * len(H_values), [0.0] * len(H_values)
        for first, _, last, band, cols, rows, times in _schedule(H_values, f, h, step, lo, hi):
            totals[band] += win.count(first, last, cols, rows, times)
            done[band] = time.perf_counter() - start
        return totals, done, win.build_seconds

    cuts = []
    if workers > 1:
        # each row of a block reads the lo - 1 columns below it and its tile's
        # hi - lo, less the odd-by-even tile's #odd * #even = (hi - lo)^2 // 4
        total = sum((hi - 1) * (hi - lo) - (hi - lo) ** 2 // 4 for _, lo, hi in _blocks(H_values))
        cuts = _split(_schedule(H_values, f, h, step), total, workers, N)
    bounds = [0] + cuts + [None]
    runs = list(zip(bounds, bounds[1:]))
    # the first run goes in this thread, so one run starts no thread (and
    # no second malloc arena, and does not import the pool); the others run
    # in copies of its context
    if len(runs) == 1:
        results = [run(*runs[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(runs) - 1) as pool:
            futures = [pool.submit(contextvars.copy_context().run, run, lo, hi)
                       for lo, hi in runs[1:]]
            results = [run(*runs[0])] + [fut.result() for fut in futures]
    reports, S, elapsed = [], 0, 0.0
    for band, H in enumerate(H_values):
        S += sum(totals[band] for totals, _, _ in results)
        elapsed = max([elapsed] + [done[band] for _, done, _ in results])
        reports.append(PairCountReport(H, S, "value-sieve", elapsed))
    return reports, sum(seconds for _, _, seconds in results)


def count_pairs_ladder(H_values) -> list[PairCountReport]:
    """Exact S(H) for every H of a strictly increasing ladder, by one probe
    of the value sieve over half the pairs up to the largest H.

    The pairs are read as rectangles (a block of rows of one band by a
    chunk of columns, per parity quadrant), in increasing order of their
    smallest sieve index, through a window of the sieve: its segments are
    built as the probe reaches them and dropped once it has passed, so
    the window holds the widest rectangle and two segments (about 1.6 MB
    at H = 16000, where the whole sieve is 32 MB).  The terms x^2 >> 2 and
    twice them are held mod 2^32 only, 8 bytes per x; the rectangles'
    exact first and last indices, which order the probe, come from Python
    ints.  A top H above 5,621,211, whose window would reach 2^32 bits
    (its indices are uint32), is refused with ValueError; then the window,
    the scratch, the terms and the schedule are stated to `check_bytes`,
    before any allocation.  Each H must be a positive integer (an int or
    numpy integer, not a bool or a float), else ValueError.

    S(H_k) is S(H_{k-1}) plus the band H_{k-1} < y <= H_k, and a row's
    `elapsed` runs until the last rectangle of its band (and of the bands
    below) is done.  For a given sieve or threads, see `count_pairs_direct`.
    """
    return _probe_ladder(H_values)[0]


def count_pairs_direct(
    H: int,
    sieve: SquarefreeSieve | None = None,
    threads: int = 1,
) -> PairCountReport:
    """Exact S(H) by the value sieve: `count_pairs_ladder`'s probe of [H].
    A given sieve, covering 2H^2 + 1 (else ValueError), is copied into the
    windows.  The probe runs on min(threads, cpu count) workers (threads a
    positive integer, else ValueError): the calling thread and a pool of
    the others, under its `budget_scope`, each over a run of about equal
    work with a window of its own.  Their integer subtotals are summed, so
    S does not depend on the worker count."""
    return _probe_ladder([H], sieve, threads)[0][0]


def residue_count(H: int, q: int, x: int) -> int:
    """M(H, q, x): how many h in [1, H] have h = x (mod q).

    Computed as floor((H - x)/q) - floor(-x/q); always within 1 of H/q.
    x is an integer or an integer array, counted elementwise, and H and q
    positive integers (ints or numpy integers, not bools), else ValueError.
    """
    H, q = _check_modulus(H, "H"), _check_modulus(q, "q")
    x = _check_integers(x, "x")
    return (H - x) // q - (-x) // q


def _lifted(H: int, nbytes: int, what: str) -> np.ndarray:
    """x^2 << b | x for x = 1..H, b the bit length of H: like the keys (x^2 mod q) << b | x,
    q <= 2H^2 + 1, int64 while 2H^2 + 1 <= 2^42.  `nbytes` + 8 KiB (headers) is stated."""
    if H > 1_482_910:
        raise ValueError(f"the identity route takes H up to 1482910, got {H}")
    check_bytes(nbytes + (1 << 13), what)
    x = np.arange(1, H + 1, dtype=np.int64)
    return x * x << H.bit_length() | x


def _pair_rows(H: int, q: int, lifted: np.ndarray) -> np.ndarray:
    """For x = 0..H, the pairs with q | x^2 + y^2 + 1 whose larger
    coordinate is x, 2 * #{y < x : y^2 = -x^2 - 1 (mod q)} + [q | 2x^2 + 1];
    their running sum at h is T(h, q).  The keys (x^2 mod q) << b | x,
    `lifted` mod q << b, are sorted once.  With r = x^2 mod q, x's partners
    y < x are the keys from (q - 1 - r) << b to (q - 1 - r) << b | x, found
    by two binary searches.  Holds at most 49 bytes per x."""
    b = H.bit_length()
    keys = lifted % (q << b)
    keys.sort()
    x = keys & ((1 << b) - 1)
    want = ((q - 1) << b) - keys + x  # (q - 1 - r) << b
    below = np.searchsorted(keys, want)
    want += x
    pairs = np.searchsorted(keys, want) - below
    pairs *= 2
    pairs += keys == want
    rows = np.zeros(H + 1, dtype=np.int64)
    rows[x] = pairs
    return rows


def congruent_pair_count(H: int, q: int) -> int:
    """T(H, q): pairs x, y <= H with q | x^2 + y^2 + 1, the sum of `_pair_rows`
    (O(H log H) time, 57 bytes per x).  No value passes 2H^2 + 1, so a larger q
    gives 0 at once.  H and q are positive integers (ints or numpy integers, not
    bools), H at most 1,482,910 and q not a multiple of 8, else ValueError."""
    H, q = _check_modulus(H, "H"), _check_modulus(q, "q")
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    if q > 2 * H * H + 1:
        return 0
    return int(_pair_rows(H, q, _lifted(H, 57 * (H + 1), f"congruent_pair_count({H}, {q})")).sum())


def count_pairs_mobius_ladder(H_values) -> list[PairCountReport]:
    """Exact S(H) for every H of a strictly increasing ladder (checked as in
    `count_pairs_ladder`, the top at most 1,482,910), by one pass of
    sum_{d^2 | n} mu(d) = mu^2(n): mu(d) times `_pair_rows` for each odd
    squarefree d <= sqrt(2H^2 + 1) (no value passes 2H^2 + 1 or is 0 mod 4,
    so the sum is exact), summed over x and run up to every height.  Every
    report's `elapsed` is the whole pass.  65 bytes per x, 3 per d and 200 per
    report are stated before any allocation; nothing is shared with the value sieve."""
    H_values = _check_ladder(H_values)
    start = time.perf_counter()
    top = H_values[-1]
    dmax = math.isqrt(2 * top * top + 1)
    lifted = _lifted(top, 65 * (top + 1) + 3 * (dmax + 1) + 200 * len(H_values),
                     f"identity route to H = {top}")
    mu = mobius_sieve(dmax)
    S = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, dmax + 1, 2):
        if mu[d]:
            S += mu[d] * _pair_rows(top, d * d, lifted)
    np.cumsum(S, out=S)
    elapsed = time.perf_counter() - start
    return [PairCountReport(H, int(S[H]), "mobius-identity", elapsed) for H in H_values]


def count_pairs_mobius(H: int) -> PairCountReport:
    """Exact S(H) by the congruence identity: `count_pairs_mobius_ladder([H])`."""
    return count_pairs_mobius_ladder([H])[0]

import dataclasses
import json
import math
import random
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqfpairs.counting import (
    DEFAULT_MEMORY_BUDGET,
    PairCountReport,
    SquarefreeSieve,
    _probe_ladder,
    build_sieve,
    congruent_pair_count,
    count_pairs_direct,
    count_pairs_ladder,
    count_pairs_mobius,
    count_pairs_mobius_ladder,
    residue_count,
)
from sqfpairs import lambdasums
from sqfpairs.lambdasums import solve_circle
from sqfpairs.ntcore import BudgetError, budget_scope, mobius, mobius_sieve


def is_squarefree_oracle(n):
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def brute_pair_count(H):
    return sum(
        1
        for x in range(1, H + 1)
        for y in range(1, H + 1)
        if is_squarefree_oracle(x * x + y * y + 1)
    )


def construction_count(H, q):
    """T(H, q) by the paper's construction: the sum over the solution set
    (x, y) mod q of M(H, q, x) * M(H, q, y)."""
    sols = solve_circle(q)
    return int((residue_count(H, q, sols.xs) * residue_count(H, q, sols.ys)).sum())


def oracle_flags(N):
    """Squarefree flags for [0, N] (index 0 False) by plain strikes of
    p*p over trial-division primes."""
    flags = np.ones(N + 1, dtype=bool)
    flags[0] = False
    for p in range(2, math.isqrt(N) + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            flags[p * p :: p * p] = False
    return flags


def read_flag(sieve, n):
    """n's squarefree flag from the packed bits of the odd n: bit n >> 1
    for an odd n, the flag of the odd n/2 when n = 2 (mod 4), and False
    when 4 | n."""
    if n % 4 == 0:
        return False
    i = n >> (2 - (n & 1))
    return bool(sieve._bytes[i >> 3] >> (i & 7) & 1)


class TestBuildSieve:
    def test_small(self):
        sieve = build_sieve(10)
        got = {n for n in range(1, 11) if read_flag(sieve, n)}
        assert got == {1, 2, 3, 5, 6, 7, 10}

    @pytest.mark.parametrize("bad", [True, 10.5, 10.0, 0])
    def test_refuses_bools_and_floats(self, bad):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            build_sieve(bad)
        with pytest.raises(ValueError, match="upto must be a positive integer"):
            build_sieve(10).count_squarefree(bad)

    def test_takes_numpy_integers(self):
        sieve = build_sieve(np.int64(10))
        assert type(sieve.limit) is int and sieve.count_squarefree(10) == 7
        assert sieve.count_squarefree(np.int64(10)) == 7

    def test_single_entry(self):
        sieve = build_sieve(1)
        assert read_flag(sieve, 1)
        assert sieve.count_squarefree(1) == 1

    def test_matches_mobius_square(self):
        sieve = build_sieve(10**5)
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randrange(1, 10**5 + 1)
            assert read_flag(sieve, n) == (mobius(n) ** 2 == 1)

    def test_budget_enforced(self):
        with pytest.raises(BudgetError), budget_scope(100):
            build_sieve(10**7)
        with pytest.raises(ValueError):
            build_sieve(0)
        with pytest.raises(ValueError), budget_scope(0):  # a budget <= 0 is a usage error
            build_sieve(10)

    def test_count_prefix(self):
        sieve = build_sieve(1000)
        for upto in (1, 2, 7, 8, 9, 63, 64, 65, 999, 1000):
            want = sum(1 for n in range(1, upto + 1) if is_squarefree_oracle(n))
            assert sieve.count_squarefree(upto) == want

    def test_crosses_segment_boundary(self):
        # limits straddling the internal segment size keep flags aligned
        # (one segment holds the odd n below 2 * _SEGMENT_BITS)
        from sqfpairs import counting
        edge = 2 * counting._SEGMENT_BITS
        n = edge + 17
        sieve = build_sieve(n)
        for probe in (n, n - 1, edge - 1, edge, edge + 1, edge + 2, 12345):
            assert read_flag(sieve, probe) == is_squarefree_oracle(probe)

    @pytest.mark.parametrize("segment", [None, 64, 1024])
    def test_packed_bytes_match_oracle(self, segment, monkeypatch):
        # Bit i is the odd n = 2i + 1.  At 64 and 1024 flags per segment
        # the wheel copy and the strike table run across many segments,
        # the table's entries (9 for 121 at 1024) strike across segment
        # boundaries and a sieve's last segment is partial.  The default
        # segments also strike 121..1849 by strided slices.  The wheel
        # repeats every 11025 flags (n = 22050).
        from sqfpairs import counting
        if segment is not None:
            monkeypatch.setattr(counting, "_SEGMENT_BITS", segment)
        past_boundary = 2 * (2 * counting._SEGMENT_BITS + 8)
        limits = list(range(1, 201)) + [22049, 22050, 22051, 22052, 44101]
        limits += [past_boundary + r for r in range(16)]  # every flag count mod 8
        want_all = oracle_flags(max(limits))
        for N in limits:
            got = np.unpackbits(build_sieve(N)._bytes, bitorder="little")
            nbits = (N + 1) // 2
            want = np.zeros(got.size, dtype=np.uint8)
            want[:nbits] = want_all[1 : N + 1 : 2]
            assert got.size == (nbits + 7) // 8 * 8
            assert np.array_equal(got, want), N

    def test_fills_in_any_order_give_the_same_bytes(self, monkeypatch):
        # the table's positions carry on from one fill to the next; a fill
        # anywhere else, back, forward or again, counts them afresh
        from sqfpairs import counting
        monkeypatch.setattr(counting, "_SEGMENT_BITS", 1024)
        N = 2 * 40 * 1024 - 1  # 40 whole segments
        want = build_sieve(N)._bytes.reshape(40, 128)
        segments, out = counting._Segments(N), np.empty(128, dtype=np.uint8)
        for k in [39, 3, 4, 1, 1, 0, 2, 38, 12, 13]:
            segments.fill(1024 * k, out)
            assert np.array_equal(out, want[k]), k

    def test_count_prefix_across_chunks(self, monkeypatch):
        from sqfpairs import counting
        N = 1000
        prefix = np.cumsum(oracle_flags(N))
        sieve = build_sieve(N)
        monkeypatch.setattr(counting, "_SEGMENT_BITS", 24)  # 3 bytes: n < 48, per segment
        for upto in [1, 2, 46, 47, 48, 49, 50, 94, 95, 96, 97, 98, 99, 143, 144, 145,
                     191, 192, 193, 194, 999, 1000]:
            assert sieve.count_squarefree(upto) == prefix[upto], upto


class TestCountPairsDirect:
    @pytest.mark.parametrize("H,want", [(1, 1), (2, 3), (3, 8)])
    def test_small_values(self, H, want):
        assert count_pairs_direct(H).S == want

    def test_against_brute_force(self):
        for H in (5, 9, 17, 30):
            assert count_pairs_direct(H).S == brute_pair_count(H)

    def test_report_fields(self):
        rep = count_pairs_direct(7)
        assert isinstance(rep, PairCountReport)
        assert rep.method == "value-sieve"
        assert rep.H == 7 and 0 <= rep.S <= 49 and rep.elapsed >= 0

    def test_threads_do_not_change_result(self):
        sieve = build_sieve(2 * 300 * 300 + 1)
        a = count_pairs_direct(300, sieve=sieve, threads=1).S
        b = count_pairs_direct(300, sieve=sieve, threads=3).S
        c = count_pairs_direct(300, sieve=sieve, threads=8).S
        assert a == b == c

    def test_sieve_reuse_requires_coverage(self):
        sieve = build_sieve(100)
        with pytest.raises(ValueError):
            count_pairs_direct(50, sieve=sieve)

    def test_rejects_bad_H(self):
        with pytest.raises(ValueError):
            count_pairs_direct(0)


def full_square_counts(H_values):
    """S(H) for each H from every pair of the square, flagged by a plain
    sieve that strikes multiples of every k^2 (not only prime squares)."""
    N = 2 * H_values[-1] ** 2 + 1
    flags = np.ones(N + 1, dtype=bool)
    for k in range(2, math.isqrt(N) + 1):
        flags[k * k :: k * k] = False
    out = []
    for H in H_values:
        h = np.arange(1, H + 1, dtype=np.int64)
        out.append(int(flags[(h * h)[:, None] + (h * h)[None, :] + 1].sum()))
    return out


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replaces the probe's thread pool by a stub that starts no thread,
    runs each task at submit time and records the pool size and task count."""
    import concurrent.futures
    pools = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.tasks += 1
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    return pools


class TestCountPairsLadder:
    def test_matches_brute_force(self):
        # H = 1 and 2: the diagonal counts once, an off-diagonal pair twice
        ladder = [1, 2, 7, 30, 61]
        assert [r.S for r in count_pairs_ladder(ladder)] == [brute_pair_count(H) for H in ladder]

    def test_rows_match_direct(self):
        for rep in count_pairs_ladder([3, 10, 64, 65, 200]):
            assert rep.S == count_pairs_direct(rep.H).S
            assert rep.method == "value-sieve"

    def test_crosses_row_blocks_and_column_chunks(self):
        # rows past 256 start new blocks; columns past 128 (that is,
        # _PROBE_VALUES // _BLOCK_ROWS) split a full block's probe
        ladder = [255, 256, 257, 700, 1300]
        assert [r.S for r in count_pairs_ladder(ladder)] == full_square_counts(ladder)

    @pytest.mark.parametrize("probe_values", [None, 1024])
    @pytest.mark.parametrize("k,d", [(1, -1), (1, 0), (1, 1), (1, 2),
                                     (2, -1), (2, 0), (2, 1), (2, 2)])
    def test_block_columns_end_beside_a_chunk_boundary(self, monkeypatch, probe_values, k, d):
        # The top band starts a full block at row h0 + 1.  Each quadrant of
        # it probes the columns of one parity, x = 1, 3, .. or 2, 4, .. up
        # to h0, in chunks that start every `step` in x; h0 = k*step + d
        # ends the odd columns one column short of, at, or one past a chunk
        # start (d = -1, 0, 1) and the even ones at or one past one (d = 1, 2).
        # At 1024 values the step is 16, and each block splits many times.
        from sqfpairs import counting
        if probe_values is not None:
            monkeypatch.setattr(counting, "_PROBE_VALUES", probe_values)
        rows = counting._BLOCK_ROWS
        h0 = k * 2 * (counting._PROBE_VALUES // (rows // 2)) + d
        ladder = [h0, 2 * (h0 + 1 + rows) + 10]
        calls = []
        block_streams = counting._block_streams

        def spy(sid, band, lo, hi, *args):
            calls.append((lo, hi))
            return block_streams(sid, band, lo, hi, *args)

        monkeypatch.setattr(counting, "_block_streams", spy)
        assert [r.S for r in count_pairs_ladder(ladder)] == full_square_counts(ladder)
        assert any(y_lo == h0 + 1 and y_hi - y_lo >= rows for y_lo, y_hi in calls)

    def test_uint64_values_above_two_to_the_32(self, monkeypatch):
        # a given sieve whose top index, (limit - 1) / 2, is below or past
        # 2**32 is read the same way: every rectangle carries uint32 terms
        # and the window is indexed in uint32
        from sqfpairs import counting
        ladder = [7, 300]
        want = full_square_counts(ladder)
        sieve = build_sieve(2 * 300 * 300 + 1)
        count = counting._Window.count
        for limit in (2**33 - 1, 2**33 + 1):
            wide = SquarefreeSieve(limit, sieve._bytes)
            dtypes = set()

            def spy(window, first, last, cols, rows, times):
                dtypes.add((cols.dtype, rows.dtype, window._index.dtype))
                return count(window, first, last, cols, rows, times)

            monkeypatch.setattr(counting._Window, "count", spy)
            assert [r.S for r in _probe_ladder(ladder, wide)[0]] == want
            assert dtypes == {(np.dtype(np.uint32),) * 3}

    def test_threads_do_not_change_result(self, monkeypatch):
        # bands of 1 to 3 rows, split among 3 and 8 runs
        from sqfpairs import counting
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
        ladder = [1, 2, 3, 6, 7, 40, 41, 300]
        sieve = build_sieve(2 * 300 * 300 + 1)
        runs = [[r.S for r in _probe_ladder(ladder, sieve, t)[0]] for t in (1, 3, 8)]
        assert runs[0] == runs[1] == runs[2] == full_square_counts(ladder)

    def test_pool_capped_at_cpu_count(self, monkeypatch, recorded_pools):
        from sqfpairs import counting
        want = [r.S for r in count_pairs_ladder([20, 90])]
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
        assert [r.S for r in _probe_ladder([20, 90], threads=100_000)[0]] == want
        monkeypatch.setattr(counting.os, "cpu_count", lambda: None)
        assert count_pairs_direct(90, threads=64).S == want[-1]
        # one run per worker of the capped count, each over a stretch of
        # the whole ladder's schedule: the first in the calling thread, the
        # others in the pool; the two one-worker calls make no pool
        assert [p.max_workers for p in recorded_pools] == [2]
        assert recorded_pools[0].tasks == 2

    @pytest.mark.parametrize("threads", [0, -2, True, False, 1.0, 2.5, "2", None])
    def test_threads_must_be_a_positive_integer(self, threads):
        for count in (lambda: _probe_ladder([10], threads=threads),
                      lambda: count_pairs_direct(10, threads=threads)):
            with pytest.raises(ValueError, match="threads must be a positive integer"):
                count()
        assert count_pairs_direct(10, threads=np.int64(2)).S == brute_pair_count(10)

    def test_elapsed_non_decreasing(self):
        reps = count_pairs_ladder([5, 50, 100, 400])
        times = [r.elapsed for r in reps]
        assert times[0] >= 0 and times == sorted(times)

    def test_rejects_bad_ladders(self):
        for ladder in ([], [5, 5], [10, 3], [0, 4], [-2], [2.5], [True, 3], [1, 2.5, 4]):
            with pytest.raises(ValueError):
                count_pairs_ladder(ladder)

    def test_sieve_must_cover_top_of_ladder(self):
        sieve = build_sieve(2 * 30 * 30 + 1)
        assert _probe_ladder([10, 30], sieve)[0][-1].S == count_pairs_direct(30).S
        with pytest.raises(ValueError):
            _probe_ladder([10, 31], sieve)
        with pytest.raises(ValueError, match="covers"):
            count_pairs_direct(31, sieve)


@pytest.fixture
def tiny_windows(monkeypatch):
    """Shrinks the probe: 64 flags per segment, blocks of 4 rows and one
    column per chunk, so that at H = 300 a window holds about 2500 flags,
    a fifth of the sieve.  Returns the list of (8 * b0, end) of the
    windows the probe reads through."""
    from sqfpairs import counting
    monkeypatch.setattr(counting, "_SEGMENT_BITS", 64)
    monkeypatch.setattr(counting, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(counting, "_PROBE_VALUES", 2)
    states = []
    reach = counting._Window._reach

    def spy(window, first, last):
        base = reach(window, first, last)
        assert base <= first and last < base + 8 * window.buffer.size
        states.append((base, window.end))
        return base

    monkeypatch.setattr(counting._Window, "_reach", spy)
    return states


class TestValueWindows:
    # ladders whose bands end inside blocks, on single rows and on both parities
    LADDERS = [[1, 2, 3, 17, 40, 41, 150, 300], [16, 17, 33, 63, 64, 65, 250]]

    @pytest.mark.parametrize("ladder", LADDERS)
    def test_window_moves_hundreds_of_times(self, tiny_windows, ladder):
        assert [r.S for r in count_pairs_ladder(ladder)] == full_square_counts(ladder)
        bases, ends = zip(*tiny_windows)
        assert len(set(ends)) >= 500  # segments appended
        assert len(set(bases)) >= 20  # bytes dropped
        assert list(bases) == sorted(bases) and list(ends) == sorted(ends)

    @pytest.mark.parametrize("ladder", LADDERS)
    def test_threads_split_the_schedule(self, tiny_windows, monkeypatch, ladder):
        from sqfpairs import counting
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
        want = full_square_counts(ladder)
        for threads in (1, 3, 8):
            assert [r.S for r in _probe_ladder(ladder, threads=threads)[0]] == want

    def test_default_windows_cut_blocks_and_chunks(self, monkeypatch):
        # bands end one row into a block, one row short of one, and on its
        # last row; the top block is a single row
        from sqfpairs import counting
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
        ladder = [255, 257, 511, 512, 800, 1025]
        want = full_square_counts(ladder)
        for threads in (1, 3, 8):
            assert [r.S for r in _probe_ladder(ladder, threads=threads)[0]] == want

    @pytest.mark.parametrize("ladder", LADDERS)
    def test_a_given_sieve_matches_built_windows(self, tiny_windows, ladder):
        # a given sieve, even one past the ladder's top, is copied into the
        # same windows as the built segments, state for state
        built = count_pairs_ladder(ladder)
        states = list(tiny_windows)
        assert len(states) > 1000
        for extra in (0, 1000):
            tiny_windows.clear()
            sieve = build_sieve(2 * ladder[-1] ** 2 + 1 + extra)
            given = _probe_ladder(ladder, sieve)[0]
            assert [r.S for r in given] == [r.S for r in built]
            assert tiny_windows == states

    def test_segments_past_two_to_the_32(self):
        # a segment of flags whose indices pass 2**32 (n near 8.6e9): every
        # square up to 92,682^2 is struck from its first odd multiple
        from sqfpairs import counting
        lo = 2**32 - counting._SEGMENT_BITS // 2
        N = 2 * (lo + counting._SEGMENT_BITS) - 1
        out = np.empty(counting._SEGMENT_BITS // 8, dtype=np.uint8)
        counting._Segments(N).fill(lo, out)
        n = 2 * np.arange(lo, lo + counting._SEGMENT_BITS, dtype=np.int64) + 1
        want = np.ones(n.size, dtype=bool)
        for p in range(3, math.isqrt(N) + 1, 2):
            if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
                first = -(-n[0] // (p * p)) * p * p
                first += p * p * (first % 2 == 0)  # the first odd multiple
                want[(first - n[0]) // 2 :: p * p] = False
        np.testing.assert_array_equal(np.unpackbits(out, bitorder="little").astype(bool), want)

    def test_window_is_a_fraction_of_the_sieve(self, traced_peak):
        # the packed sieve to H = 12000 is 18 MB; its windows, segment and
        # probe scratch stay under 8 MB
        with traced_peak() as traced:
            S = count_pairs_direct(12_000).S
        assert S == 112_421_433
        assert traced.peak <= 8 * 10**6

    def test_window_indices_past_two_to_the_32(self):
        # A window near bit 2**33 + 2**32, read through rectangles whose
        # terms are above 2**32 and are passed mod 2**32, as the schedule
        # passes them: the uint32 sums wrap to indices in the window, and
        # must flag what Python ints indexing the source do.
        from sqfpairs import counting

        def byte(k):  # a fixed byte for each absolute byte index k
            return k * 2654435761 >> 11 & 0xFF

        class Source:
            def fill(self, lo, out):
                k = np.arange(lo >> 3, (lo >> 3) + out.size, dtype=np.uint64)
                out[:] = k * np.uint64(2654435761) >> np.uint64(11) & np.uint64(0xFF)

        i, j = np.arange(64, dtype=np.uint64), np.arange(32, dtype=np.uint64)
        cols, rows = 2**33 + 3 * i * i + 5 * i, 2**32 + 11 * j * j + j
        buffer = np.empty(2 * (4096 + counting._SEGMENT_BITS // 8), dtype=np.uint8)
        win = counting._Window(buffer, 2**31, Source(), cols.size * rows.size)
        bases = set()
        for t in range(12):
            c = cols + np.uint64(t * 300_007)
            times = 1 + t % 2
            got = win.count(int(c[0] + rows[0]), int(c[-1] + rows[-1]),
                            c.astype(np.uint32), rows.astype(np.uint32), times)
            want = 0
            for x in c.tolist():
                for y in rows.tolist():
                    want += times * (byte((x + y) >> 3) >> ((x + y) & 7) & 1)
            assert got == want, t
            bases.add(8 * win.b0)
        assert min(bases) >= 2**33 + 2**32 and len(bases) > 1  # the window moved

    def test_window_compacts_over_itself_in_place(self, monkeypatch, traced_peak):
        # A buffer of the widest rectangle (three segments) plus two
        # segments, read through rectangles whose moves keep more bytes
        # than they shift by, so each move overlaps itself.  The counts
        # must be what the source's bytes flag, and a move must copy in
        # place: a temporary would trace the kept bytes, over 2**18.  The
        # geometry is in segments of 2**20 flags.
        from sqfpairs import counting
        monkeypatch.setattr(counting, "_SEGMENT_BITS", 1 << 20)
        seg = counting._SEGMENT_BITS // 8
        data = np.random.default_rng(11).integers(0, 256, 12 * seg, dtype=np.uint8)

        class Source:
            def fill(self, lo, out):
                out[:] = data[lo >> 3 : (lo >> 3) + out.size]

        rng = np.random.default_rng(12)
        win = counting._Window(np.empty(5 * seg, dtype=np.uint8), data.size, Source(), 3 * 200)
        moves = []
        # each rectangle's first and last byte, in segments
        for first, last in [(0, 2.5), (2, 4.5), (2.2, 5.1), (2.5, 5.4), (4, 6.9), (4.5, 7.3),
                            (9.3, 9.5)]:
            lo, hi = int(8 * seg * first), int(8 * seg * last)
            cols = np.unique(np.r_[0, rng.integers(0, hi - lo - 10, 198), hi - lo - 10])
            rows = lo + np.array([0, 3, 10])
            b0, end = win.b0, win.end
            with traced_peak() as traced:
                got = win.count(lo, hi, cols.astype(np.uint32), rows.astype(np.uint32), 2)
            index = (cols[:, None] + rows).ravel().tolist()
            assert got == 2 * sum(int(data[i >> 3]) >> (i & 7) & 1 for i in index)
            if 0 < win.b0 - b0 < end - win.b0:
                moves.append((end - win.b0, win.b0 - b0))  # (kept, shift)
                assert traced.peak < 2**13
        assert len(moves) == 2 and all(kept > 2**18 for kept, _ in moves)
        assert win.b0 == 9 * seg  # the last rectangle starts past the end: a jump

    def test_schedule_exact_past_two_to_the_32(self, monkeypatch):
        # h[x] passes 2**32 at x = 92,682: the rectangles to H = 100,000
        # still come in increasing order of their exact first index, count
        # every pair (x, y) of the square once in all, and carry their
        # terms mod 2**32
        from sqfpairs import counting
        H, seen = 100_000, []

        def record(window, first, last, cols, rows, times):
            assert cols.dtype == rows.dtype == np.uint32
            assert (int(cols[0]) + int(rows[0]) - first) % 2**32 == 0
            assert (int(cols[-1]) + int(rows[-1]) - last) % 2**32 == 0
            seen.append((first, last, times * cols.size * rows.size))
            return 0

        monkeypatch.setattr(counting._Window, "count", record)
        count_pairs_direct(H)
        firsts, lasts, pairs = zip(*seen)
        assert list(firsts) == sorted(firsts)
        assert all(f <= l for f, l in zip(firsts, lasts))
        assert max(lasts) == H * H  # the index of 2 * H^2 + 1, from (H, H)
        assert sum(pairs) == H * H

    @pytest.mark.parametrize("hi", [2, 3, 4, 5, 8])
    def test_first_block_reads_three_diagonal_tiles(self, hi):
        # the rows 1 <= y < hi have no columns below them, so their streams
        # hold only the diagonal tiles: each same-parity tile once, the
        # even-column by odd-row tile twice and no odd-column by even-row
        # tile, which together count the whole square
        from sqfpairs import counting
        f = (np.arange(hi, dtype=np.uint64) ** 2 >> 2).astype(np.uint32)
        f, h = (f, lambda x: x * x >> 2), (f << 1, lambda x: x * x >> 2 << 1)
        rects = [r for s in counting._block_streams(0, 0, 1, hi, f, h, 2, 0) for r in s]
        assert sorted(times for *_, times in rects) == ([1, 1, 2] if hi > 2 else [1])
        square = sum(times * cols.size * rows.size for *_, cols, rows, times in rects)
        assert square == (hi - 1) ** 2

    @pytest.mark.parametrize("block", [None, 4])
    @pytest.mark.parametrize("ladder", [[1, 2, 3, 255, 256, 257, 700], [2000, 4000, 8000, 16000]])
    def test_split_total_is_the_schedule_lookups(self, monkeypatch, block, ladder):
        # the closed-form total _split cuts into runs is the lookups of the
        # schedule it is given, on ladders that cross blocks and bands and
        # end in a partial block; a wrong total only unbalances the runs,
        # so S would not show it
        from sqfpairs import counting

        class Stop(Exception):
            pass

        seen = []

        def spy(schedule, total, runs, past):
            seen.append((total, list(schedule)))
            raise Stop

        if block is not None:
            monkeypatch.setattr(counting, "_BLOCK_ROWS", block)
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(counting, "_split", spy)
        with pytest.raises(Stop):
            _probe_ladder(ladder, threads=2)
        [(total, schedule)] = seen
        assert total == sum(cols.size * rows.size for *_, cols, rows, _ in schedule)
        assert sum(t * cols.size * rows.size for *_, cols, rows, t in schedule) == ladder[-1] ** 2

    @pytest.mark.slow
    def test_probe_to_65535_in_a_bounded_window(self, traced_peak):
        # S(65,535) as the whole 512 MiB sieve gave it
        with traced_peak() as traced:
            S = count_pairs_direct(65_535).S
        assert S == 3_352_980_264
        assert traced.peak < 64 * 2**20

    @pytest.mark.slow
    def test_probe_to_100000(self):
        # S(100,000) as the probe with uint64 index terms gave it; the top
        # index, 10^10, is past 2^33
        assert count_pairs_direct(100_000).S == 7_806_983_582


@pytest.fixture(scope="module")
def mu_to_200():
    return mobius_sieve(2 * 200**2 + 1)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(segment=st.integers(1, 300), block=st.integers(1, 256), values=st.integers(1, 600),
       strided=st.integers(1, 10**6),
       ladder=st.lists(st.integers(1, 200), min_size=1, max_size=5, unique=True).map(sorted),
       threads=st.integers(1, 4), given_sieve=st.booleans())
def test_probe_geometry_against_mobius(mu_to_200, segment, block, values, strided, ladder,
                                       threads, given_sieve):
    # any segment of 8 to 2400 flags, block of rows (odd ones too), chunk
    # of values and strided-square cut, on 1 to 4 workers, built or given,
    # counts mu^2(x^2 + y^2 + 1) over the square
    from sqfpairs import counting
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_SEGMENT_BITS", 8 * segment)
        patch.setattr(counting, "_BLOCK_ROWS", block)
        patch.setattr(counting, "_PROBE_VALUES", values)
        patch.setattr(counting, "_STRIDED_MULTIPLES", strided)
        patch.setattr(counting.os, "cpu_count", lambda: 4)
        sieve = build_sieve(2 * ladder[-1] ** 2 + 1) if given_sieve else None
        got = [r.S for r in _probe_ladder(ladder, sieve, threads)[0]]
    squares = np.arange(1, ladder[-1] + 1) ** 2
    want = [int(np.count_nonzero(mu_to_200[squares[:H, None] + squares[:H] + 1])) for H in ladder]
    assert got == want


@st.composite
def window_walks(draw):
    """Segment bytes, the widest rectangle's bytes, the sieve's bytes, and
    (first, last) rectangles in increasing order of first index, each
    spanning at most the widest's bytes."""
    seg, widest, nbytes = draw(st.integers(1, 64)), draw(st.integers(1, 200)), draw(st.integers(1, 3000))
    firsts = sorted(draw(st.lists(st.integers(0, 8 * nbytes - 1), min_size=1, max_size=30)))
    return seg, widest, nbytes, [
        (first, draw(st.integers(first, min(8 * ((first >> 3) + widest), 8 * nbytes) - 1)))
        for first in firsts]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(walk=window_walks())
def test_window_reads_every_rectangle_and_no_dropped_byte_again(walk):
    # a buffer of the widest rectangle and two segments (the whole sieve
    # when that is smaller), as _probe_ladder sizes it: each rectangle lies
    # in the window and counts what the source's bytes flag at every index
    # from its first to its last, and the recording source fills each
    # byte once, in order, so no byte the window dropped is wanted again
    from sqfpairs import counting
    seg, widest, nbytes, rects = walk
    data = np.random.default_rng(nbytes).integers(0, 256, nbytes, dtype=np.uint8)
    flags = np.unpackbits(data, bitorder="little")
    filled = []

    class Source:
        def fill(self, lo, out):
            assert lo % 8 == 0
            filled.extend(range(lo >> 3, (lo >> 3) + out.size))
            out[:] = data[lo >> 3 : (lo >> 3) + out.size]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_SEGMENT_BITS", 8 * seg)
        buffer = np.empty(min(nbytes, widest + 2 * seg), dtype=np.uint8)
        win = counting._Window(buffer, nbytes, Source(), 8 * widest)
        for first, last in rects:
            cols = np.arange(last - first + 1, dtype=np.uint32)
            got = win.count(first, last, cols, np.array([first], dtype=np.uint32), 2)
            assert 8 * win.b0 <= first and last >> 3 < win.end <= win.b0 + buffer.size
            assert got == 2 * int(flags[first : last + 1].sum())
    assert filled == sorted(set(filled))


def test_probe_refused_before_its_window(traced_peak):
    with traced_peak() as traced, budget_scope(10**5), \
            pytest.raises(BudgetError, match="pair probe"):
        count_pairs_direct(16_000)
    assert traced.peak < 2**16


def test_default_budget_admits_a_probe_past_the_whole_sieve(monkeypatch, traced_peak):
    # the whole sieve to H = 200,000 would be 5 GB, over the 2 GiB default;
    # the probe states its windows, scratch and schedule instead
    from sqfpairs import counting
    from sqfpairs.ntcore import check_bytes

    class Admitted(Exception):
        pass

    def check_then_stop(nbytes, what):
        check_bytes(nbytes, what)
        raise Admitted(nbytes)  # before anything is allocated

    monkeypatch.delenv("SQFPAIRS_MEMORY_BUDGET", raising=False)
    monkeypatch.setattr(counting, "check_bytes", check_then_stop)
    with traced_peak() as traced, pytest.raises(Admitted) as admitted:
        count_pairs_direct(200_000)
    assert admitted.value.args[0] < 2**26
    assert traced.peak < 2**16


def test_probe_past_uint32_windows_refused(monkeypatch, traced_peak):
    # Window indices are uint32, so the window must hold fewer than 2^32
    # bits: H = 5,621,211 is the largest top admitted, and H = 6,000,000
    # (a 547 MiB window, within the default budget) is refused before any
    # allocation.  A probe the budget admits stops at once.
    from sqfpairs import counting
    from sqfpairs.ntcore import check_bytes

    class Admitted(Exception):
        pass

    def check_then_stop(nbytes, what):
        check_bytes(nbytes, what)
        raise Admitted(nbytes)

    monkeypatch.delenv("SQFPAIRS_MEMORY_BUDGET", raising=False)
    monkeypatch.setattr(counting, "check_bytes", check_then_stop)
    with traced_peak() as traced, pytest.raises(ValueError, match="uint32"):
        count_pairs_direct(6_000_000)
    assert traced.peak < 2**16
    with pytest.raises(Admitted):
        count_pairs_direct(5_621_211)
    with pytest.raises(ValueError, match="uint32"):
        count_pairs_direct(5_621_212)


class TestResidueCount:
    def test_modulus_one(self):
        for H in (1, 5, 120):
            assert residue_count(H, 1, 0) == H
            assert residue_count(H, 1, 7) == H

    def test_ten_three_one(self):
        assert residue_count(10, 3, 1) == 4  # h in {1, 4, 7, 10}

    def test_empty_class(self):
        assert residue_count(5, 7, 6) == 0

    def test_matches_enumeration(self):
        rng = random.Random(23)
        for _ in range(300):
            H = rng.randrange(1, 200)
            q = rng.randrange(1, 50)
            x = rng.randrange(-2 * q, 2 * q + 1)
            want = sum(1 for h in range(1, H + 1) if (h - x) % q == 0)
            assert residue_count(H, q, x) == want

    def test_rejects_non_integers(self):
        for args in [(10, 2.5, 3), (10.5, 3, 1), (True, 3, 1), (10, True, 1), (10, 3.0, 1)]:
            with pytest.raises(ValueError, match="must be a positive integer"):
                residue_count(*args)
        assert residue_count(np.int64(10), np.int64(3), 1) == 4

    @pytest.mark.parametrize("x", [2.5, 1.0, True, np.array([1.0, 2.0]), np.array([True])])
    def test_rejects_non_integer_residues(self, x):
        with pytest.raises(ValueError, match="x must be integers or integer arrays"):
            residue_count(10, 3, x)
        assert residue_count(10, 3, np.int64(1)) == 4
        assert residue_count(10, 3, np.array([1, 2, 3])).tolist() == [4, 3, 3]

    def test_partition_and_deviation(self):
        for H, q in [(10, 3), (100, 7), (55, 56), (1000, 13)]:
            counts = [residue_count(H, q, x) for x in range(1, q + 1)]
            assert sum(counts) == H
            assert all(abs(c - H / q) <= 1 for c in counts)


class TestCongruentPairCount:
    def test_modulus_one(self):
        for H in (1, 4, 31):
            assert congruent_pair_count(H, 1) == H * H

    def test_opposite_parity(self):
        assert congruent_pair_count(4, 2) == 8

    def test_against_direct_scan(self):
        for H, q in [(10, 9), (10, 3), (25, 13), (12, 50), (30, 4), (17, 49)]:
            want = sum(
                1
                for x in range(1, H + 1)
                for y in range(1, H + 1)
                if (x * x + y * y + 1) % q == 0
            )
            assert congruent_pair_count(H, q) == want, (H, q)

    def test_upper_bound(self):
        for H in (10, 40):
            for q in range(1, 120):
                if q % 8 == 0:
                    continue
                t = congruent_pair_count(H, q)
                assert 0 <= t <= len(solve_circle(q)) * (H / q + 1) ** 2

    def test_matches_solution_set_construction(self):
        for q in range(1, 2001):
            if q % 8 == 0:
                continue
            for H in (1, 50, q, 2 * q + 1):
                assert congruent_pair_count(H, q) == construction_count(H, q), (H, q)

    def test_rejects_multiple_of_eight(self):
        with pytest.raises(ValueError):
            congruent_pair_count(10, 8)

    def test_rejects_non_integers(self):
        for H, q in [(10.5, 3), (10, 2.5), (True, 3), (10, True), (10.0, 3)]:
            with pytest.raises(ValueError, match="must be a positive integer"):
                congruent_pair_count(H, q)
        assert congruent_pair_count(np.int64(10), np.int64(3)) == congruent_pair_count(10, 3) == 49

    @pytest.mark.parametrize("q", [0, -3, -8])
    def test_rejects_nonpositive_modulus(self, q):
        with pytest.raises(ValueError, match="q must be a positive integer"):
            congruent_pair_count(7, q)

    @pytest.mark.parametrize("q", [2**63 + 1, 10**30 + 1, 2 * 10 * 10 + 3])
    def test_modulus_past_every_value_counts_no_pair(self, monkeypatch, q):
        # x^2 + y^2 + 1 <= 2H^2 + 1 = 201; the first two are past int64, where
        # numpy's arithmetic overflows, and no array is built for any of them
        from sqfpairs import counting
        monkeypatch.setattr(counting, "_lifted", None)
        assert congruent_pair_count(10, q) == 0

    @pytest.mark.parametrize("H", [1, 10, 11])
    def test_largest_value_is_counted(self, H):
        # q = 2H^2 + 1 divides one value only, at x = y = H
        assert congruent_pair_count(H, 2 * H * H + 1) == 1


def _brute_rows(H, q):
    """T(h, q) for h = 0..H by brute force over the square of pairs."""
    x = np.arange(1, H + 1)
    hits = (x[:, None] ** 2 + x[None, :] ** 2 + 1) % q == 0
    return [int(hits[:h, :h].sum()) for h in range(H + 1)]


def test_pair_rows_run_up_to_every_brute_force_count():
    from sqfpairs import counting
    H = 60
    lifted = counting._lifted(H, 0, "test")
    for q in range(1, 401):
        if q % 8:
            rows = counting._pair_rows(H, q, lifted)
            assert np.cumsum(rows).tolist() == _brute_rows(H, q), q


class TestCountPairsMobius:
    def test_h_equals_one(self):
        rep = count_pairs_mobius(1)
        assert rep.S == 1 and rep.method == "mobius-identity"

    def test_h_equals_two_decomposition(self):
        # d = 1 contributes 4, d = 3 removes the single pair at (2, 2)
        assert congruent_pair_count(2, 1) == 4
        assert congruent_pair_count(2, 9) == 1
        assert count_pairs_mobius(2).S == 3

    def test_matches_value_sieve(self):
        for H in range(1, 36):
            assert count_pairs_mobius(H).S == count_pairs_direct(H).S

    def test_fifty(self):
        assert count_pairs_mobius(50).S == count_pairs_direct(50).S

    def test_two_thousand(self):
        # S(2000) of the scan ladder, there found by the value sieve
        assert count_pairs_mobius(2000).S == 3122183

    def test_every_height_to_two_thousand(self):
        # one identity pass against one value-sieve probe, height by height
        heights = range(1, 2001)
        identity = count_pairs_mobius_ladder(heights)
        assert [r.H for r in identity] == list(heights)
        assert [r.S for r in identity] == [r.S for r in count_pairs_ladder(heights)]

    def test_ladder_reports_one_pass(self):
        reports = count_pairs_mobius_ladder([np.int64(100), 200])
        assert [(r.H, r.S, r.method) for r in reports] == [(100, 7780, "mobius-identity"),
                                                            (200, 31180, "mobius-identity")]
        assert type(reports[0].H) is int and reports[0].elapsed == reports[1].elapsed

    @pytest.mark.slow
    def test_scan_ladder(self):
        # the S(H) that the value sieve gives over the whole scan ladder, from
        # one identity pass up to 16000
        ladder = {2000: 3122183, 4000: 12490582, 8000: 49964328, 16000: 199855421}
        assert [r.S for r in count_pairs_mobius_ladder(list(ladder))] == list(ladder.values())

    @pytest.mark.parametrize("H", [2, 7, 60, 301])
    def test_even_squarefree_moduli_count_no_pairs(self, H):
        # 4 | d^2 for even d, and x^2 + y^2 + 1 is never 0 mod 4
        even = [d for d in range(2, math.isqrt(2 * H * H + 1) + 1, 2) if mobius(d)]
        assert even and all(congruent_pair_count(H, d * d) == 0 for d in even)

    def test_sums_odd_moduli_only(self, monkeypatch):
        # one pass: each odd squarefree d^2 counted once, at the ladder's top
        from sqfpairs import counting
        seen = []
        rows = counting._pair_rows
        monkeypatch.setattr(counting, "_pair_rows",
                            lambda H, q, lifted: seen.append((H, q)) or rows(H, q, lifted))
        assert [r.S for r in count_pairs_mobius_ladder([30, 60])] == \
            [r.S for r in count_pairs_ladder([30, 60])]
        dmax = math.isqrt(2 * 60 * 60 + 1)
        assert seen == [(60, d * d) for d in range(1, dmax + 1, 2) if mobius(d)]

    def test_builds_no_solution_set(self, monkeypatch):
        def refuse(q):
            raise AssertionError(f"solved the circle mod {q}")
        monkeypatch.setattr(lambdasums, "solve_circle", refuse)
        assert count_pairs_mobius(300).S == 70263

    def test_rejects_bad_input(self):
        for bad in ([0], [], [3, 2], [2, 2]):
            with pytest.raises(ValueError):
                count_pairs_mobius_ladder(bad)
        with pytest.raises(ValueError):
            count_pairs_mobius(0)

    def test_refuses_a_top_past_the_keys_before_allocating(self, traced_peak):
        # (x^2 mod q) << 21 | x passes int64 for q = 2H^2 + 1 past 1,482,910
        for call in (lambda: count_pairs_mobius_ladder([5, 1_482_911]),
                     lambda: congruent_pair_count(1_482_911, 2 * 1_482_911**2 - 1)):
            with traced_peak() as traced, pytest.raises(ValueError, match="1482910"):
                call()
            assert traced.peak < 2**16

    def test_top_at_the_limit_goes_on_to_the_budget(self, traced_peak):
        for call in (lambda: count_pairs_mobius_ladder([1_482_910]),
                     lambda: congruent_pair_count(1_482_910, 2 * 1_482_910**2 + 1)):
            with traced_peak() as traced, budget_scope(10**6), pytest.raises(BudgetError):
                call()
            assert traced.peak < 2**16

    @pytest.mark.parametrize("ladder", [[1], [2], [10], [100], [1000], [3000], [1000, 2000, 3000],
                                        range(1, 3001)])
    def test_traces_within_its_stated_bytes(self, monkeypatch, traced_peak, ladder):
        from sqfpairs import counting
        from sqfpairs.ntcore import check_bytes
        stated = []

        def record(nbytes, what):
            check_bytes(nbytes, what)
            stated.append(nbytes)

        monkeypatch.setattr(counting, "check_bytes", record)
        with traced_peak() as traced:
            count_pairs_mobius_ladder(ladder)
        assert len(stated) == 1 and traced.peak <= stated[0]


@pytest.mark.parametrize("entry", [
    pytest.param(lambda H: count_pairs_ladder([H])[0], id="ladder"),
    pytest.param(count_pairs_direct, id="direct"),
    pytest.param(count_pairs_mobius, id="mobius"),
    pytest.param(lambda H: count_pairs_mobius_ladder([H])[0], id="mobius-ladder"),
])
def test_heights_are_checked_not_truncated(entry):
    # a float or a bool is refused, not read as int(H); a numpy integer
    # is counted, and reported, as the int it holds
    for H in (2.5, True, 0):
        with pytest.raises(ValueError, match="H must be a positive integer"):
            entry(H)
    got, want = entry(np.int64(10)), entry(10)
    if isinstance(got, PairCountReport):
        assert type(got.H) is int
        assert json.loads(json.dumps(dataclasses.asdict(got)))["H"] == 10
        got, want = got.S, want.S
    assert got == want


def test_default_budget_is_two_gib():
    assert DEFAULT_MEMORY_BUDGET == 2**31


def test_default_budget_admits_the_largest_height(monkeypatch, traced_peak):
    # 2H^2 + 1 holds H^2 + 1 odd values, one bit each: 2 GiB covers H = 131,071
    from sqfpairs import counting
    from sqfpairs.ntcore import check_bytes

    class Admitted(Exception):
        pass

    def check_then_stop(nbytes, what):
        check_bytes(nbytes, what)
        raise Admitted(nbytes)  # before the sieve is allocated

    monkeypatch.delenv("SQFPAIRS_MEMORY_BUDGET", raising=False)
    monkeypatch.setattr(counting, "check_bytes", check_then_stop)
    H = 131_071
    with traced_peak() as traced:
        with pytest.raises(Admitted) as admitted:
            build_sieve(2 * H * H + 1)
        with pytest.raises(BudgetError):
            build_sieve(2 * (H + 1) ** 2 + 1)
    assert admitted.value.args[0] == (H * H + 8) // 8 <= 2**31
    assert traced.peak < 2**16  # checked, not allocated


@pytest.mark.parametrize("N", [10**3, 10**6, 2 * 16000**2 + 1, 2 * 65535**2 + 1])
def test_segments_trace_within_their_stated_bytes(traced_peak, N):
    # building the strike table and filling a segment, then the next one
    from sqfpairs import counting
    nbits = (N + 1) // 2
    out = np.empty(min(counting._SEGMENT_BITS, nbits + 7) // 8, dtype=np.uint8)
    with traced_peak() as traced:
        segments = counting._Segments(N)
        for lo in range(0, min(2 * 8 * out.size, nbits), 8 * out.size):
            segments.fill(lo, out)
    assert traced.peak <= counting._Segments.scratch_bytes(N)


@pytest.mark.parametrize("ladder", [[300], [4000], [16000], [2000, 4000, 8000, 16000]])
def test_probe_traces_within_its_stated_bytes(monkeypatch, traced_peak, ladder):
    # the window, segment and lookup scratch, the terms and the schedule
    # the probe states to the budget bound what it allocates, all of it
    from sqfpairs import counting
    from sqfpairs.ntcore import check_bytes
    stated = []

    def record(nbytes, what):
        check_bytes(nbytes, what)
        if what.startswith("pair probe"):
            stated.append(nbytes)

    monkeypatch.setattr(counting, "check_bytes", record)
    with traced_peak() as traced:
        count_pairs_ladder(ladder)
    assert len(stated) == 1
    assert traced.peak <= stated[0]


def test_sieve_scratch_is_sized_to_a_short_sieve(traced_peak):
    # N = 1e6 has 5e5 flags in 62,500 packed bytes; a full segment's
    # buffer and pattern alone would take 2 MiB
    N = 10**6
    with traced_peak() as traced:
        build_sieve(N)
    assert traced.peak <= 2.5 * (N // 2)

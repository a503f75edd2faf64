import math
import random
from concurrent.futures import Future

import numpy as np
import pytest

from sqfpairs.counting import (
    DEFAULT_MEMORY_BUDGET,
    PairCountReport,
    SquarefreeSieve,
    build_sieve,
    congruent_pair_count,
    count_pairs_direct,
    count_pairs_ladder,
    count_pairs_mobius,
    count_pairs_mobius_truncated,
    residue_count,
)
from sqfpairs import lambdasums
from sqfpairs.lambdasums import solve_circle
from sqfpairs.ntcore import BudgetError, mobius


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


class TestBuildSieve:
    def test_small(self):
        sieve = build_sieve(10)
        got = {n for n in range(1, 11) if sieve.is_squarefree(n)}
        assert got == {1, 2, 3, 5, 6, 7, 10}

    def test_single_entry(self):
        sieve = build_sieve(1)
        assert sieve.is_squarefree(1)
        assert sieve.count_squarefree() == 1

    def test_matches_mobius_square(self):
        sieve = build_sieve(10**5)
        rng = random.Random(17)
        for _ in range(1000):
            n = rng.randrange(1, 10**5 + 1)
            assert sieve.is_squarefree(n) == (mobius(n) ** 2 == 1)

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            build_sieve(10**7, memory_budget=100)
        with pytest.raises(ValueError):
            build_sieve(0)
        with pytest.raises(ValueError):
            build_sieve(10, memory_budget=0)  # a budget <= 0 is a usage error

    def test_lookup_vectorized(self):
        sieve = build_sieve(5000)
        vals = np.arange(1, 5001, dtype=np.uint64)
        flags = sieve.lookup(vals)
        assert flags.sum() == sieve.count_squarefree(5000)
        for n in (1, 4, 8, 9, 12, 49, 50, 4999):
            assert bool(flags[n - 1]) == is_squarefree_oracle(n)

    def test_count_prefix(self):
        sieve = build_sieve(1000)
        for upto in (1, 2, 7, 8, 9, 63, 64, 65, 999, 1000):
            want = sum(1 for n in range(1, upto + 1) if is_squarefree_oracle(n))
            assert sieve.count_squarefree(upto) == want

    def test_crosses_segment_boundary(self):
        # limits straddling the internal segment size keep flags aligned
        from sqfpairs import counting
        n = counting._SEGMENT_BITS + 17
        sieve = build_sieve(n)
        for probe in (n, n - 1, counting._SEGMENT_BITS, counting._SEGMENT_BITS + 1, 12345):
            assert sieve.is_squarefree(probe) == is_squarefree_oracle(probe)

    @pytest.mark.parametrize("segment", [None, 64, 1024])
    def test_packed_bytes_match_oracle(self, segment, monkeypatch):
        # At 64 and 1024 flags per segment the wheel copy, the strided
        # squares (121..961 at 1024) and the indexed large squares (121 and
        # up at 64) all run across many segments.
        from sqfpairs import counting
        if segment is not None:
            monkeypatch.setattr(counting, "_SEGMENT_BITS", segment)
        past_boundary = 2 * counting._SEGMENT_BITS + 8
        limits = list(range(1, 201)) + [44099, 44100, 44101, 88201]
        limits += [past_boundary + r for r in range(8)]  # every N mod 8
        want_all = oracle_flags(max(limits))
        for N in limits:
            got = np.unpackbits(build_sieve(N)._bytes, bitorder="little")
            want = np.zeros(got.size, dtype=np.uint8)
            want[: N + 1] = want_all[: N + 1]
            assert got.size == (N + 8) // 8 * 8
            assert np.array_equal(got, want), N

    def test_count_prefix_across_chunks(self, monkeypatch):
        from sqfpairs import counting
        N = 1000
        prefix = np.cumsum(oracle_flags(N))
        sieve = build_sieve(N)
        monkeypatch.setattr(counting, "_COUNT_CHUNK", 3)  # 24 flags per chunk
        for upto in [1, 2, 22, 23, 24, 25, 47, 48, 49, 71, 72, 73, 999, 1000]:
            assert sieve.count_squarefree(upto) == prefix[upto], upto
        assert sieve.count_squarefree() == prefix[N]


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
    from sqfpairs import counting
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

    monkeypatch.setattr(counting, "ThreadPoolExecutor", RecordingExecutor)
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
        # rows past 256 start new blocks; columns past 1024 split a block's probe
        ladder = [255, 256, 257, 700, 1300]
        assert [r.S for r in count_pairs_ladder(ladder)] == full_square_counts(ladder)

    def test_uint64_values_above_two_to_the_32(self):
        # a sieve whose limit reaches 2**32 makes the probe use uint64 values
        ladder = [7, 300]
        sieve = build_sieve(2 * 300 * 300 + 1)
        wide = SquarefreeSieve(2**32, sieve._bytes)
        assert [r.S for r in count_pairs_ladder(ladder, sieve=wide)] == full_square_counts(ladder)

    def test_threads_do_not_change_result(self, monkeypatch):
        # bands of 1 to 3 rows are shorter than the 4 chunks per worker
        from sqfpairs import counting
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 8)
        ladder = [1, 2, 3, 6, 7, 40, 41, 300]
        sieve = build_sieve(2 * 300 * 300 + 1)
        runs = [[r.S for r in count_pairs_ladder(ladder, sieve=sieve, threads=t)]
                for t in (1, 3, 8)]
        assert runs[0] == runs[1] == runs[2] == full_square_counts(ladder)

    def test_pool_capped_at_cpu_count(self, monkeypatch, recorded_pools):
        from sqfpairs import counting
        want = [r.S for r in count_pairs_ladder([20, 90])]
        monkeypatch.setattr(counting.os, "cpu_count", lambda: 3)
        assert [r.S for r in count_pairs_ladder([20, 90], threads=100_000)] == want
        monkeypatch.setattr(counting.os, "cpu_count", lambda: None)
        assert count_pairs_direct(90, threads=64).S == want[-1]
        assert [p.max_workers for p in recorded_pools] == [1, 3, 1]
        # 4 chunks per worker of the capped pool, in each of the two bands
        assert recorded_pools[1].tasks == 2 * 4 * 3

    def test_elapsed_non_decreasing(self):
        reps = count_pairs_ladder([5, 50, 100, 400])
        times = [r.elapsed for r in reps]
        assert times[0] >= 0 and times == sorted(times)

    def test_rejects_bad_ladders(self):
        for ladder in ([], [5, 5], [10, 3], [0, 4], [-2]):
            with pytest.raises(ValueError):
                count_pairs_ladder(ladder)

    def test_sieve_must_cover_top_of_ladder(self):
        sieve = build_sieve(2 * 30 * 30 + 1)
        assert count_pairs_ladder([10, 30], sieve=sieve)[-1].S == count_pairs_direct(30).S
        with pytest.raises(ValueError):
            count_pairs_ladder([10, 31], sieve=sieve)


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

    @pytest.mark.parametrize("q", [0, -3, -8])
    def test_rejects_nonpositive_modulus(self, q):
        with pytest.raises(ValueError, match="q must be positive"):
            congruent_pair_count(7, q)


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

    @pytest.mark.slow
    @pytest.mark.parametrize("H,S", [(2000, 3122183), (4000, 12490582),
                                     (8000, 49964328), (16000, 199855421)])
    def test_scan_ladder(self, H, S):
        # the S(H) that the value sieve gives over the whole scan ladder
        assert count_pairs_mobius(H).S == S

    def test_builds_no_solution_set(self):
        before = lambdasums._solve.cache_info()
        count_pairs_mobius(300)
        after = lambdasums._solve.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_truncated_variant(self):
        H = 60
        exact = count_pairs_mobius(H).S
        full_z = math.isqrt(2 * H * H + 1)
        assert count_pairs_mobius_truncated(H, full_z) == exact
        trunc = count_pairs_mobius_truncated(H, H ** (2 / 3))
        assert isinstance(trunc, int)
        # truncation drops tail terms; deviation stays desk-scale small
        assert abs(trunc - exact) <= 100

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            count_pairs_mobius(0)
        with pytest.raises(ValueError):
            count_pairs_mobius_truncated(10, 0.5)


def test_default_budget_is_two_gib():
    assert DEFAULT_MEMORY_BUDGET == 2**31

"""Cross-oracle property suites.

Each suite pits an evaluator against an independent route to the same
quantity (direct summation, exhaustive enumeration, a proved bound) over
a fixed grid plus seeded random samples, and reports how many checks ran
and which failed.  A suite takes its seed alone and fixes its sweep in
its body, so the CLI `verify` command and the tests run the same checks.
A suite is declared once, as `@_suite(name)` on a body `(rec, rng)` that
records into `rec`, draws from `rng` (seeded by the suite's seed) and
returns its notes, if any; ALL_SUITES lists the suites in declaration order.

A suite records its checks through one call, `check(ok, message, **fields)`.
`ok` is a bool or a bool array, one check per entry, so a sweep over a
modulus is one call.  `message` is a `str.format` template; it is
formatted only for the failures that are stored, with each array (or
list) field taking that entry's element and every other field used as
it is.
"""

from __future__ import annotations

import itertools
import math
import random
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from . import asymptotic, counting, expsums, lambdasums, ntcore
from .expsums import complex_close
from .lambdasums import LAMBDA_TOLERANCE

__all__ = ["SuiteResult", "ALL_SUITES", "run_suites", "DEFAULT_SEED"]

DEFAULT_SEED = 12345

_MAX_REPORTED_FAILURES = 10


@dataclass
class SuiteResult:
    name: str
    ok: bool
    checked: int
    failed: int  # all failing checks; `failures` keeps the first 1000
    elapsed: float
    failures: list[str] = field(default_factory=list)
    notes: str = ""
    # the process's peak RSS (ru_maxrss, in MiB) once the suite is done;
    # set by run_suites
    peak_rss_mb: float | None = None

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f"{self.name}: {status} ({self.checked} checks, {self.elapsed:.2f}s)"
        if self.notes:
            msg += f" {self.notes}"
        shown = self.failures[:_MAX_REPORTED_FAILURES]
        for f in shown:
            msg += f"\n    {f}"
        if self.failed > len(shown):
            msg += f"\n    ... {self.failed - len(shown)} more"
        return msg


class _Recorder:
    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.failed = 0
        self.failures = []
        self.start = time.perf_counter()

    def check(self, ok, message, **fields):
        """One check per entry of `ok`; see the module docstring."""
        ok = np.asarray(ok, dtype=bool)
        self.checked += ok.size
        if ok.all():
            return
        bad = np.flatnonzero(~ok)
        self.failed += bad.size
        for i in bad[: 1000 - len(self.failures)].tolist():
            self.failures.append(message.format(**{
                k: v[i] if isinstance(v, list) else v.item(i) if isinstance(v, np.ndarray) else v
                for k, v in fields.items()
            }))

    def result(self, notes="") -> SuiteResult:
        return SuiteResult(
            self.name,
            self.failed == 0,
            self.checked,
            self.failed,
            time.perf_counter() - self.start,
            self.failures,
            notes,
        )


# suite name -> suite, in declaration order; filled by _suite
ALL_SUITES = {}


def _suite(name):
    """Declare `body(rec, rng)` as the suite `name`: `suite(seed)` records
    into `_Recorder(name)` with `random.Random(seed)` and returns its
    result, with the notes `body` returns (if any).  The suite keeps the
    body's name and docstring and joins ALL_SUITES."""
    def declare(body):
        def suite(seed=DEFAULT_SEED) -> SuiteResult:
            rec = _Recorder(name)
            return rec.result(body(rec, random.Random(seed)) or "")

        # no functools.wraps: its __wrapped__ would give the suite the
        # body's (rec, rng) signature
        suite.__name__, suite.__qualname__, suite.__doc__ = body.__name__, body.__qualname__, body.__doc__
        ALL_SUITES[name] = suite
        return suite
    return declare


# ---------------------------------------------------------------------------
# number theory primitives
# ---------------------------------------------------------------------------

@_suite("mobius-identity")
def suite_mobius_identity(rec, rng):
    """sum of mu(d) over d^2 | n equals mu(n)^2, per-value mu as oracle."""
    limit = 10_000
    mu_small = ntcore.mobius_sieve(math.isqrt(limit))
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        acc[d * d :: d * d] += int(mu_small[d])
    expect = np.array([ntcore.mobius(n) ** 2 for n in range(1, limit + 1)])
    rec.check(acc[1:] == expect, "n={n}: sum={s} mu^2={e}",
              n=np.arange(1, limit + 1), s=acc[1:], e=expect)


@_suite("inverse-involution")
def suite_inverse_involution(rec, rng):
    """mod_inverse applied twice returns to the start."""
    for _ in range(500):
        q = rng.randrange(2, 10**6)
        k = rng.randrange(1, q)
        while math.gcd(k, q) != 1:
            k = rng.randrange(1, q)
        r = ntcore.mod_inverse(k, q)
        rec.check(k * r % q == 1 and ntcore.mod_inverse(r, q) == k % q,
                  "k={k} q={q} inv={r}", k=k, q=q, r=r)


@_suite("jacobi")
def suite_jacobi(rec, rng):
    """Complete multiplicativity, plus the per-prime Euler-criterion oracle."""

    def euler(a, p):
        if a % p == 0:
            return 0
        t = pow(a, (p - 1) // 2, p)
        return -1 if t == p - 1 else t

    for _ in range(500):
        q = 2 * rng.randrange(0, 5 * 10**4) + 1
        a = rng.randrange(-(10**5), 10**5)
        b = rng.randrange(-(10**5), 10**5)
        lhs = ntcore.jacobi(a, q) * ntcore.jacobi(b, q)
        rhs = ntcore.jacobi(a * b, q)
        rec.check(lhs == rhs, "({a}/{q})({b}/{q}) != ({ab}/{q})", a=a, b=b, q=q, ab=a * b)
    for p in ntcore.primes_upto(311)[1:].tolist():
        for _ in range(40):
            a = rng.randrange(-3 * p, 3 * p)
            rec.check(ntcore.jacobi(a, p) == euler(a, p),
                      "jacobi({a},{p}) != euler criterion", a=a, p=p)


@_suite("sqrt-mod-exhaustive")
def suite_sqrt_mod(rec, rng):
    """sqrt_mod returns exactly the exhaustive root set for all odd p^e <= 2000."""
    for p in ntcore.primes_upto(2000)[1:].tolist():
        e = 1
        while p**e <= 2000:
            m = p**e
            # every y in [0, m) by its square mod m, in increasing y within
            # a square: the roots of a are the run of `count[a]` y from
            # `start[a]` in that order
            y = np.arange(m)
            squares = y * y % m
            roots = np.argsort(squares, kind="stable")
            count = np.bincount(squares, minlength=m)
            start = np.cumsum(count) - count
            got = ntcore.sqrt_mod(y, p, e)
            want = []  # the runs as lists, built only when a check fails
            ok = np.fromiter(map(len, got), dtype=np.int64, count=m) == count
            if ok.all():  # the lists line up with the runs: compare them root by root
                flat = np.fromiter(itertools.chain.from_iterable(got), dtype=np.int64, count=m)
                same = np.append(flat == roots, True)
                ok = np.logical_and.reduceat(same, start) | (count == 0)
            if not ok.all():
                want = [roots[lo : lo + k].tolist() for lo, k in zip(start, count)]
                ok = np.array([g == w for g, w in zip(got, want)])
            rec.check(ok, "sqrt_mod({a},{p},{e})={g} want {w}", a=y, p=p, e=e, g=got, w=want)
            e += 1


# Values n checked per step by suite_tau_growth.
_TAU_SLAB = 1 << 14


def _divisor_counts(hi):
    """tau(n) for n <= hi (0 at n = 0), by divisor pairs d < n/d and d = n/d."""
    counts = np.zeros(hi + 1, dtype=np.int32)
    for d in range(1, math.isqrt(hi) + 1):
        counts[d * (d + 1) :: d] += 2
        counts[d * d] += 1
    return counts


@_suite("tau-growth")
def suite_tau_growth(rec, rng):
    """tau(n) <= n everywhere and tau(n) <= n**0.6 beyond 1e4."""
    lo, hi = 10_000, 100_000
    counts = _divisor_counts(hi)
    worst = 0.0
    for start in range(1, hi + 1, _TAU_SLAB):
        n = np.arange(start, min(start + _TAU_SLAB, hi + 1))
        t = counts[n]
        cap = n**0.6
        rec.check((t <= n) & ((n <= lo) | (t <= cap)), "tau({n})={t}", n=n, t=t)
        beyond = n > lo
        worst = max(worst, (t[beyond] / cap[beyond]).max(initial=0.0))
    return f"max tau(n)/n^0.6 = {worst:.3f}"


# ---------------------------------------------------------------------------
# Gauss and Kloosterman sums
# ---------------------------------------------------------------------------

def _columns(pairs):
    """The n and m of a list of (n, m) pairs as two int64 arrays, so that
    one evaluator call covers every pair drawn for a modulus."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


@_suite("weil-bound")
def suite_weil_bound(rec, rng):
    """|K(q;n,m)| <= tau(q) sqrt(q) sqrt(gcd(q,n,m)), random arguments."""
    for q in range(1, 2001):
        tq = ntcore.tau(q)
        n, m = _columns([(rng.randrange(-3 * q, 3 * q + 1), rng.randrange(-3 * q, 3 * q + 1))
                         for _ in range(20)])
        val = np.abs(expsums.kloosterman_direct(q, n, m))
        bound = tq * math.sqrt(q) * np.sqrt(np.gcd(np.gcd(n, m), q))
        rec.check(val <= bound + 1e-7, "|K({q};{n},{m})|={v:.6f} > {b:.6f}",
                  q=q, n=n, m=m, v=val, b=bound)


@_suite("gauss-square")
def suite_gauss_square(rec, rng):
    """G(q;1,0)^2 = (-1)**((q-1)/2) * q for odd q, within 1e-6 relative."""
    for q in range(1, 2002, 2):
        g = expsums.gauss_direct(q, 1, 0)
        target = complex(q if q % 4 == 1 else -q)
        rec.check(abs(g * g - target) <= 1e-6 * q, "G({q};1)^2 = {g2:.8f}, want {t}",
                  q=q, g2=g * g, t=int(target.real))


# Rows n of a Gauss grid built and compared per step by the Gauss suites.
_ROW_SLAB = 64


def _slabs(rows):
    """rows in consecutive slabs of at most _ROW_SLAB."""
    return (rows[lo : lo + _ROW_SLAB] for lo in range(0, rows.size, _ROW_SLAB))


def _gauss_entries(q, n, m):
    """G(q; n, m) at each pair of the 1-D arrays n and m, from a grid of
    the rows n alone."""
    return expsums.gauss_direct_table(q, n)[np.arange(n.size), m]


@_suite("gauss-reduce-vs-direct")
def suite_gauss_reduce(rec, rng):
    """gcd-reduction evaluator equals direct summation for all (n, m)."""
    for q in range(1, 301):
        gcds = np.gcd(np.arange(q), q)
        n, m = _columns([(rng.randrange(q), rng.randrange(q)) for _ in range(3)])
        sampled = _gauss_entries(q, n, m)
        # the rows gcd(n, q) = d > 1: d * G(q/d) on the columns d | m, 0
        # elsewhere (gcd 1 rows would compare the grid with itself), in
        # order of d; each slab of rows n builds its rows of G(q), and each
        # run of one d in it the rows n/d of G(q/d)
        worst = 0.0
        rows_by_gcd = np.flatnonzero(gcds > 1)
        rows_by_gcd = rows_by_gcd[np.argsort(gcds[rows_by_gcd], kind="stable")]
        for ns in _slabs(rows_by_gcd):
            rows = expsums.gauss_direct_table(q, ns)
            want = np.zeros((ns.size, q), dtype=complex)
            d = gcds[ns]
            starts = np.flatnonzero(np.diff(d, prepend=0)).tolist() + [ns.size]
            for lo, hi in zip(starts, starts[1:]):
                g = int(d[lo])
                want[lo:hi, ::g] = g * expsums.gauss_direct_table(q // g, ns[lo:hi] // g)
            worst = max(worst, (np.abs(rows - want) / np.maximum(1.0, np.abs(rows))).max())
        rec.check(worst <= 1e-6, "q={q} max err {e:.2e}", q=q, e=worst)
        # both scalar evaluators against the sampled entries of the grid
        pairs = list(zip(n.tolist(), m.tolist()))
        rec.check(complex_close(sampled, [expsums.gauss_direct(q, *nm) for nm in pairs])
                  & complex_close(sampled, [expsums.gauss_reduce(q, *nm) for nm in pairs]),
                  "batch/scalar mismatch at ({q};{n},{m})", q=q, n=n, m=m)


@_suite("gauss-closed-vs-direct")
def suite_gauss_closed(rec, rng):
    """Closed-form odd-q evaluator equals direct summation for all valid (n, m)."""
    for q in range(1, 302, 2):
        units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)  # [0] for q = 1
        err = []
        for ns in _slabs(units):  # each slab of unit rows builds its own rows of G(q)
            rows = expsums.gauss_direct_table(q, ns)
            gap = expsums.gauss_closed_odd(q, ns[:, None], np.arange(q))
            gap -= rows
            err.append((np.abs(gap) / np.maximum(1.0, np.abs(rows))).max(axis=1))
        err = np.concatenate(err)
        rec.check(err <= 1e-6, "q={q} n={n} max err {e:.2e}", q=q, n=units, e=err)
        if q == 1:
            continue
        # the evaluator at sampled (n, m) pairs, not on a grid of rows, in one call
        n, m = _columns([(units[rng.randrange(units.size)], rng.randrange(q)) for _ in range(3)])
        rec.check(complex_close(expsums.gauss_closed_odd(q, n, m), _gauss_entries(q, n, m)),
                  "sampled closed mismatch at ({q};{n},{m})", q=q, n=n, m=m)


@_suite("kloosterman-diagonal-real")
def suite_kloosterman_real(rec, rng):
    """K(q;n,n) is real: pairing x with inv(x) conjugates the terms."""
    for q in range(1, 501):
        n = np.array([0, 1, rng.randrange(q) if q > 1 else 0])
        val = expsums.kloosterman_direct(q, n, n)
        rec.check(np.abs(val.imag) <= 1e-7 * np.maximum(1.0, np.abs(val)),
                  "K({q};{n},{n}) = {v}", q=q, n=n, v=val)


# ---------------------------------------------------------------------------
# circle-congruence sums
# ---------------------------------------------------------------------------

def _random_nm(rng, q):
    return rng.randrange(-2 * q, 2 * q + 1), rng.randrange(-2 * q, 2 * q + 1)


@_suite("lambda-bound")
def suite_lambda_bound(rec, rng):
    """|lam(q;n,m)| <= 16 tau(q)^2 sqrt(q) sqrt(gcd(q,n,m)) for 8 not | q."""
    for q in range(1, 1501):
        if q % 8 == 0:
            continue
        tq = ntcore.tau(q)
        n, m = _columns([_random_nm(rng, q) for _ in range(20)])
        val = np.abs(lambdasums.lambda_direct(q, n, m))
        bound = 16 * tq * tq * math.sqrt(q) * np.sqrt(np.gcd(np.gcd(n, m), q))
        rec.check(val <= bound + 1e-7, "|lam({q};{n},{m})|={v:.4f} > {b:.4f}",
                  q=q, n=n, m=m, v=val, b=bound)


@_suite("lambda-growth")
def suite_lambda_growth(rec, rng):
    """Solution counts grow subquadratically: max lam(q)/q**1.2 < 1."""
    worst = 0.0
    for q in range(501, 1501):
        if q % 8 == 0:
            continue
        ratio = len(lambdasums.solve_circle(q)) / q**1.2
        worst = max(worst, ratio)
        rec.check(ratio < 1.0, "lam({q})/q^1.2 = {r:.3f}", q=q, r=ratio)
    return f"max lam(q)/q^1.2 = {worst:.3f}"


def _lambda_agreement(rec, rng, evaluate, message, step):
    """`evaluate` equals direct summation within LAMBDA_TOLERANCE * q at
    (0, 0) and 10 seeded (n, m) for each q in range(1, 602, step) with
    8 not | q.  `message` may use q, n, m, a (the evaluator), b (direct)
    and s (their spread)."""
    for q in range(1, 602, step):
        if q % 8 == 0:
            continue
        n, m = _columns([(0, 0)] + [_random_nm(rng, q) for _ in range(10)])
        got = evaluate(q, n, m)
        direct = lambdasums.lambda_direct(q, n, m)
        spread = np.abs(got - direct)
        rec.check(spread <= LAMBDA_TOLERANCE * q, message, q=q, n=n, m=m, a=got, b=direct, s=spread)


@_suite("lambda-fast-vs-direct")
def suite_lambda_fast(rec, rng):
    """Kloosterman-decomposition evaluator equals direct summation (odd q)."""
    _lambda_agreement(rec, rng, lambdasums.lambda_fast_odd,
                      "fast({q};{n},{m})={a:.6f} direct={b:.6f}", step=2)


@_suite("lambda-any-vs-direct")
def suite_lambda_any(rec, rng):
    """Composite evaluator equals direct summation for every q with 8 not | q."""
    _lambda_agreement(rec, rng, lambdasums.lambda_any,
                      "any({q};{n},{m})={a:.6f} direct={b:.6f}", step=1)


@_suite("lambda-triple-agreement")
def suite_lambda_triple(rec, rng):
    """All applicable evaluators agree pairwise within 1e-5 * q.  For odd q
    lambda_any is lambda_fast_odd, so each q compares two evaluations."""
    _lambda_agreement(rec, rng, lambdasums.lambda_any,
                      "({q};{n},{m}): evaluator spread {s:.2e}", step=1)


@_suite("lambda-multiplicative")
def suite_lambda_multiplicative(rec, rng):
    """Coprime splitting equals direct summation on the product modulus."""
    done = 0
    while done < 100:
        q1 = rng.randrange(1, 101)
        q2 = rng.randrange(1, 10_000 // q1 + 1)
        if math.gcd(q1, q2) != 1:
            continue
        q = q1 * q2
        n, m = _random_nm(rng, q)
        a = lambdasums.lambda_multiplicative(q1, q2, n, m)
        b = lambdasums.lambda_direct(q, n, m)
        rec.check(abs(a - b) <= LAMBDA_TOLERANCE * q, "mult({q1},{q2};{n},{m})={a:.6f} direct={b:.6f}",
                  q1=q1, q2=q2, n=n, m=m, a=a, b=b)
        done += 1


@_suite("lambda-symmetry")
def suite_lambda_symmetry(rec, rng):
    """Exact q-periodicity in n and m; conjugation under (n,m) -> (-n,-m)."""
    for q in range(1, 301):
        if q % 8 == 0:
            continue
        n, m = _columns([(rng.randrange(q), rng.randrange(q)) for _ in range(5)])
        base, n_shift, m_shift, negated = lambdasums.lambda_direct(
            q, np.stack([n, n + q, n, -n]), np.stack([m, m, m + q, -m]))
        rec.check((n_shift == base) & (m_shift == base),
                  "periodicity broke at ({q};{n},{m})", q=q, n=n, m=m)
        rec.check(complex_close(negated, base.conjugate()),
                  "conjugation broke at ({q};{n},{m})", q=q, n=n, m=m)


@_suite("lambda-prime-square")
def suite_lambda_lift(rec, rng):
    """lam(p^2) = p * lam(p) by enumeration for odd p <= 47, and lam(4) = 0."""
    rec.check(len(lambdasums.solve_circle(4)) == 0, "lam(4) != 0")
    rec.check(asymptotic.lambda_p_squared(2) == 0, "lambda_p_squared(2) != 0")
    for p in ntcore.primes_upto(47)[1:].tolist():
        lp = len(lambdasums.solve_circle(p))
        lp2 = len(lambdasums.solve_circle(p * p))
        closed = p * (p - 1) if p % 4 == 1 else p * (p + 1)
        rec.check(lp2 == p * lp, "lam({p}^2)={a} != p*lam(p)={b}", p=p, a=lp2, b=p * lp)
        rec.check(lp2 == closed, "lam({p}^2)={a} != closed {c}", p=p, a=lp2, c=closed)
        rec.check(asymptotic.lambda_p_squared(p) == lp2,
                  "lambda_p_squared({p}) != enumeration", p=p)


@_suite("lambda-table-consistency")
def suite_lambda_table(rec, rng):
    """The two batched grids agree, and sampled entries agree with the
    batch evaluators.  The decomposition grid reads its large Kloosterman
    sums from FFT rows and the few samples sum them directly, so the
    samples compare the FFT-row route with the direct-sum route."""
    for q in list(range(1, 36)) + [rng.randrange(36, 151) for _ in range(20)]:
        if q % 8 == 0:
            continue
        direct = lambdasums.lambda_direct_table(q)
        fast = lambdasums.lambda_any_table(q)
        err = np.abs(direct - fast).max()
        rec.check(err <= LAMBDA_TOLERANCE * q, "q={q} table err {e:.2e}", q=q, e=err)
        n, m = _columns([(rng.randrange(q), rng.randrange(q)) for _ in range(8)])
        rec.check(complex_close(direct[n, m], lambdasums.lambda_direct(q, n, m))
                  & (np.abs(fast[n, m] - lambdasums.lambda_any(q, n, m)) <= LAMBDA_TOLERANCE * q),
                  "batch/scalar mismatch at ({q};{n},{m})", q=q, n=n, m=m)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@_suite("count-oracle-equivalence")
def suite_count_oracle(rec, rng):
    """Value sieve and congruence identity give the same exact S(H)."""
    for row in counting.count_pairs_ladder([*range(1, 51), 100, 150, 200]):
        ident = counting.count_pairs_mobius(row.H)
        rec.check(row.S == ident.S, "H={H}: sieve={a} identity={b}", H=row.H, a=row.S, b=ident.S)


@_suite("residue-count")
def suite_residue_count(rec, rng):
    """Residue counters partition [1, H] and stay within 1 of H/q."""
    grid = [(H, q) for H in (1, 5, 10, 37, 100, 1000) for q in (1, 2, 3, 7, 10, 64, 97, 360)]
    grid += [(rng.randrange(1, 2000), rng.randrange(1, 500)) for _ in range(100)]
    for H, q in grid:
        counts = counting.residue_count(H, q, np.arange(1, q + 1))
        rec.check(counts.sum() == H, "residue counts for (H={H}, q={q}) miss H", H=H, q=q)
        rec.check(np.all(np.abs(counts - H / q) <= 1),
                  "(H={H}, q={q}): some count strays beyond H/q +- 1", H=H, q=q)


@_suite("congruent-pair-bound")
def suite_congruent_bound(rec, rng):
    """0 <= T(H, q) <= lam(q) * (H/q + 1)^2 on a grid."""
    lam = {q: len(lambdasums.solve_circle(q)) for q in range(1, 201) if q % 8}
    for H in (10, 50, 100):
        for q, lam_q in lam.items():
            t = counting.congruent_pair_count(H, q)
            cap = lam_q * (H / q + 1) ** 2
            rec.check(0 <= t <= cap, "T({H},{q})={t} outside [0, {cap:.2f}]", H=H, q=q, t=t, cap=cap)


@_suite("squarefree-density")
def suite_squarefree_density(rec, rng):
    """Squarefree density over [1, N] approaches 6/pi^2."""
    N = 10**6
    density = counting.build_sieve(N).count_squarefree(N) / N
    rec.check(abs(density - 0.607927) <= 0.01, "density {d:.6f}", d=density)
    return f"density = {density:.6f}"


@_suite("truncation-report")
def suite_truncation_report(rec, rng):
    """Report the tail dropped by truncating at z = H^(2/3), and check that
    S(H) by the value sieve minus the truncated identity sum S_z equals the
    dropped terms mu(d) * T(H, d^2), int(z) < d <= sqrt(2H^2 + 1)."""
    lines = []
    for row in counting.count_pairs_ladder([50, 100, 150, 200]):
        H = row.H
        z = H ** (2.0 / 3.0)
        tail = row.S - counting.count_pairs_mobius_truncated(H, z)
        dropped = 0
        for d in range(int(z) + 1, math.isqrt(2 * H * H + 1) + 1):
            sign = ntcore.mobius(d)
            if sign:  # 8 | d^2 only when mu(d) = 0
                dropped += sign * counting.congruent_pair_count(H, d * d)
        rec.check(tail == dropped, "H={H}: S - S_z = {a} != dropped {b}", H=H, a=tail, b=dropped)
        lines.append(f"H={H} z={int(z)} |S - S_z|={abs(tail)} C={abs(tail) * z / H**2.1:.4f}")
    return "; ".join(lines)


# ---------------------------------------------------------------------------
# constant and error term
# ---------------------------------------------------------------------------

@_suite("constant-consistency")
def suite_constant_consistency(rec, rng):
    """Doubling the cutoff moves the product by less than the tail bound."""
    tails = []
    for P in (100, 1000, 10_000):
        lo = asymptotic.constant_c(P)
        hi = asymptotic.constant_c(2 * P)
        tails.append(lo.tail_bound)
        rec.check(abs(hi.value - lo.value) <= lo.tail_bound, "|c({P2}) - c({P})| = {d:.3e} > {t:.3e}",
                  P=P, P2=2 * P, d=abs(hi.value - lo.value), t=lo.tail_bound)
        rec.check(0.0 < lo.value < 1.0, "c({P}) = {v} outside (0,1)", P=P, v=lo.value)
    rec.check(all(b < a for a, b in zip(tails, tails[1:])),
              "tail bounds not decreasing: {tails}", tails=tuple(tails))
    return f"c({P}) = {lo.value:.9f}"


@_suite("dirichlet-form")
def suite_dirichlet_form(rec, rng):
    """Series and product forms of the constant agree within combined tails."""
    series = asymptotic.dirichlet_partial_sum(500)
    prod = asymptotic.constant_c(10_000)
    budget = asymptotic.dirichlet_tail_bound(500) + prod.tail_bound
    gap = abs(series - prod.value)
    rec.check(gap <= budget, "|series - product| = {gap:.3e} > {budget:.3e}", gap=gap, budget=budget)
    return f"gap {gap:.2e} within {budget:.2e}"


# suite_rho_envelope evaluates at most _RHO_SLAB draws t per rho_fourier
# call, and at most _RHO_PHASES (t, n) phases: 64 KiB, which the allocator
# serves from its heap instead of mapping it afresh on every call.
_RHO_SLAB = 32
_RHO_PHASES = 1 << 12


@_suite("rho-envelope")
def suite_rho_envelope(rec, rng):
    """Sawtooth Fourier truncation error under 3 * min(1, 1/(D||t||))."""
    for D in (10, 100, 1000):
        ts = []
        for _ in range(1000):
            t = rng.uniform(-5.0, 5.0)
            if min(t % 1.0, 1.0 - t % 1.0) < 1e-3:
                t += 2e-3
            ts.append(t)
        width = min(_RHO_SLAB, _RHO_PHASES // D)
        for lo in range(0, len(ts), width):
            t = np.array(ts[lo : lo + width])
            dist = np.minimum(t % 1.0, 1.0 - t % 1.0)
            err = np.abs(asymptotic.rho(t) - asymptotic.rho_fourier(D, t))
            cap = 3.0 * np.minimum(1.0, 1.0 / (D * dist))
            rec.check(err <= cap, "D={D} t={t:.6f}: err {e:.4f} > {c:.4f}", D=D, t=t, e=err, c=cap)


@_suite("harmonic-envelope")
def suite_harmonic_envelope(rec, rng):
    """U/(q^0.7 D^0.2) and V/(q^0.7 D^0.2) stay below 20 on the grid:
    every modulus up to 48 not divisible by 8, a spread of larger ones up
    to 500, and D spanning three orders of magnitude."""
    grid = (2, 10, 100, 1000)
    D = np.array(grid)
    D_scale = np.array([d**0.2 for d in grid])
    worst_u = worst_v = 0.0
    for q in [q for q in range(1, 49) if q % 8] + [q for q in range(55, 501, 7) if q % 8]:
        U, V = asymptotic.harmonic_lambda_sums(q, D)
        u, v = U / (q**0.7 * D_scale), V / (q**0.7 * D_scale)
        worst_u, worst_v = max(worst_u, u.max()), max(worst_v, v.max())
        rec.check((u <= 20) & (v <= 20), "q={q} D={D}: U/s={u:.2f} V/s={v:.2f}", q=q, D=D, u=u, v=v)
    return f"max U ratio {worst_u:.2f}, max V ratio {worst_v:.2f}"


@_suite("scan-envelope")
def suite_scan_envelope(rec, rng):
    """Every |E(H)| under 5 * H^1.5 and the fitted exponent at most 1.6."""
    P = 10**5
    result = asymptotic.error_scan((250, 500, 1000, 2000, 4000), P)
    for row in result.rows:
        cap = 5.0 * row.H**1.5
        rec.check(abs(row.E) <= cap, "H={H}: |E|={E:.1f} > {cap:.1f}", H=row.H, E=abs(row.E), cap=cap)
    rec.check(result.alpha is not None, "fit skipped: fewer than 4 usable rows")
    if result.alpha is not None:
        rec.check(result.alpha <= 1.6, "alpha = {a:.4f} > 1.6", a=result.alpha)
    alpha = "n/a" if result.alpha is None else f"{result.alpha:.4f}"
    return f"alpha = {alpha}, c = {result.c:.9f} (P = {P})"


def run_suites(names=None, seed=DEFAULT_SEED) -> list[SuiteResult]:
    """Run the named suites (all, in registry order, when names is None).

    Each result records the process's peak RSS after its suite, so the
    steps between results show which suite raised it.
    """
    if names is None:
        names = list(ALL_SUITES)
    unknown = [n for n in names if n not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; known: {', '.join(ALL_SUITES)}")
    results = []
    for name in names:
        result = ALL_SUITES[name](seed=seed)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results.append(result)
    return results

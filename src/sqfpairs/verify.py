"""Cross-oracle property suites.

Each suite pits an evaluator against an independent route to the same
quantity (direct summation, exhaustive enumeration, a proved bound) over
a fixed grid plus seeded random samples, and reports how many checks ran
and which failed.  The CLI `verify` command runs these; the acceptance
tests call them with the parameters they guarantee.

A suite records its checks through one call, `check(ok, message, **fields)`.
`ok` is a bool or a bool array, one check per entry, so a sweep over a
modulus is one call.  `message` is a `str.format` template; it is
formatted only for the failures that are stored, with each array (or
list) field taking that entry's element and every other field used as
it is.
"""

from __future__ import annotations

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


# ---------------------------------------------------------------------------
# number theory primitives
# ---------------------------------------------------------------------------

def suite_mobius_identity(seed=DEFAULT_SEED, limit=10_000) -> SuiteResult:
    """sum of mu(d) over d^2 | n equals mu(n)^2, per-value mu as oracle."""
    rec = _Recorder("mobius-identity")
    mu_small = ntcore.mobius_sieve(math.isqrt(limit))
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        acc[d * d :: d * d] += int(mu_small[d])
    expect = np.array([ntcore.mobius(n) ** 2 for n in range(1, limit + 1)])
    rec.check(acc[1:] == expect, "n={n}: sum={s} mu^2={e}",
              n=np.arange(1, limit + 1), s=acc[1:], e=expect)
    return rec.result()


def suite_inverse_involution(seed=DEFAULT_SEED, trials=500) -> SuiteResult:
    """mod_inverse applied twice returns to the start."""
    rec = _Recorder("inverse-involution")
    rng = random.Random(seed)
    for _ in range(trials):
        q = rng.randrange(2, 10**6)
        k = rng.randrange(1, q)
        while math.gcd(k, q) != 1:
            k = rng.randrange(1, q)
        r = ntcore.mod_inverse(k, q)
        rec.check(k * r % q == 1 and ntcore.mod_inverse(r, q) == k % q,
                  "k={k} q={q} inv={r}", k=k, q=q, r=r)
    return rec.result()


def suite_jacobi(seed=DEFAULT_SEED, trials=500) -> SuiteResult:
    """Complete multiplicativity, plus the per-prime Euler-criterion oracle."""
    rec = _Recorder("jacobi")
    rng = random.Random(seed)

    def euler(a, p):
        if a % p == 0:
            return 0
        t = pow(a, (p - 1) // 2, p)
        return -1 if t == p - 1 else t

    for _ in range(trials):
        q = 2 * rng.randrange(0, 5 * 10**4) + 1
        a = rng.randrange(-(10**5), 10**5)
        b = rng.randrange(-(10**5), 10**5)
        lhs = ntcore.jacobi(a, q) * ntcore.jacobi(b, q)
        rhs = ntcore.jacobi(a * b, q)
        rec.check(lhs == rhs, "({a}/{q})({b}/{q}) != ({ab}/{q})", a=a, b=b, q=q, ab=a * b)
    for p in ntcore.primes_upto(311).tolist():
        if p == 2:
            continue
        for _ in range(40):
            a = rng.randrange(-3 * p, 3 * p)
            rec.check(ntcore.jacobi(a, p) == euler(a, p),
                      "jacobi({a},{p}) != euler criterion", a=a, p=p)
    return rec.result()


def suite_sqrt_mod(seed=DEFAULT_SEED, limit=2000) -> SuiteResult:
    """sqrt_mod returns exactly the exhaustive root set for all p^e <= limit."""
    rec = _Recorder("sqrt-mod-exhaustive")
    for p in ntcore.primes_upto(limit).tolist():
        if p == 2:
            continue
        e = 1
        while p**e <= limit:
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
                same = np.append(np.array([r for g in got for r in g]) == roots, True)
                ok = np.logical_and.reduceat(same, start) | (count == 0)
            if not ok.all():
                want = [roots[lo : lo + k].tolist() for lo, k in zip(start, count)]
                ok = np.array([g == w for g, w in zip(got, want)])
            rec.check(ok, "sqrt_mod({a},{p},{e})={g} want {w}", a=y, p=p, e=e, g=got, w=want)
            e += 1
    return rec.result()


# Values n checked per step by suite_tau_growth.
_TAU_SLAB = 1 << 14


def suite_tau_growth(seed=DEFAULT_SEED, lo=10_000, hi=100_000) -> SuiteResult:
    """tau(n) <= n everywhere and tau(n) <= n**0.6 beyond 1e4."""
    rec = _Recorder("tau-growth")
    # divisors in pairs d < n/d, plus d = n/d when n is a square
    counts = np.zeros(hi + 1, dtype=np.int32)
    for d in range(1, math.isqrt(hi) + 1):
        counts[d * (d + 1) :: d] += 2
        counts[d * d] += 1
    worst = 0.0
    for start in range(1, hi + 1, _TAU_SLAB):
        n = np.arange(start, min(start + _TAU_SLAB, hi + 1))
        t = counts[n]
        cap = n**0.6
        rec.check((t <= n) & ((n <= lo) | (t <= cap)), "tau({n})={t}", n=n, t=t)
        beyond = n > lo
        worst = max(worst, (t[beyond] / cap[beyond]).max(initial=0.0))
    return rec.result(notes=f"max tau(n)/n^0.6 = {worst:.3f}")


# ---------------------------------------------------------------------------
# Gauss and Kloosterman sums
# ---------------------------------------------------------------------------

def _columns(pairs):
    """The n and m of a list of (n, m) pairs as two int64 arrays, so that
    one evaluator call covers every pair drawn for a modulus."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def suite_weil_bound(seed=DEFAULT_SEED, qmax=2000, per_q=20) -> SuiteResult:
    """|K(q;n,m)| <= tau(q) sqrt(q) sqrt(gcd(q,n,m)), random arguments."""
    rec = _Recorder("weil-bound")
    rng = random.Random(seed)
    for q in range(1, qmax + 1):
        tq = ntcore.tau(q)
        n, m = _columns([(rng.randrange(-3 * q, 3 * q + 1), rng.randrange(-3 * q, 3 * q + 1))
                         for _ in range(per_q)])
        val = np.abs(expsums.kloosterman_direct(q, n, m))
        bound = tq * math.sqrt(q) * np.sqrt(np.gcd(np.gcd(n, m), q))
        rec.check(val <= bound + 1e-7, "|K({q};{n},{m})|={v:.6f} > {b:.6f}",
                  q=q, n=n, m=m, v=val, b=bound)
    return rec.result()


def suite_gauss_square(seed=DEFAULT_SEED, qmax=2001) -> SuiteResult:
    """G(q;1,0)^2 = (-1)**((q-1)/2) * q for odd q, within 1e-6 relative."""
    rec = _Recorder("gauss-square")
    for q in range(1, qmax + 1, 2):
        g = expsums.gauss_direct(q, 1, 0)
        target = complex(q if q % 4 == 1 else -q)
        rec.check(abs(g * g - target) <= 1e-6 * q, "G({q};1)^2 = {g2:.8f}, want {t}",
                  q=q, g2=g * g, t=int(target.real))
    return rec.result()


# Rows n of a Gauss grid built and compared per step by the Gauss suites.
_ROW_SLAB = 64


def _slabs(rows):
    """rows in consecutive slabs of at most _ROW_SLAB."""
    return (rows[lo : lo + _ROW_SLAB] for lo in range(0, rows.size, _ROW_SLAB))


def _gauss_entries(q, n, m):
    """G(q; n, m) at each pair of the 1-D arrays n and m, from a grid of
    the rows n alone."""
    return expsums.gauss_direct_table(q, n)[np.arange(n.size), m]


def suite_gauss_reduce(seed=DEFAULT_SEED, qmax=300) -> SuiteResult:
    """gcd-reduction evaluator equals direct summation for all (n, m)."""
    rec = _Recorder("gauss-reduce-vs-direct")
    rng = random.Random(seed)
    for q in range(1, qmax + 1):
        gcds = np.gcd(np.arange(q), q)
        n, m = _columns([(rng.randrange(q), rng.randrange(q)) for _ in range(3)])
        sampled = _gauss_entries(q, n, m)
        # the reduction d * G(q/d; n/d, m/d) at the sampled pairs; for
        # gcd(n, q) = 1 it is G(q; n, m) itself
        reduced = sampled.copy()
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
        for d in ntcore.divisors(q)[1:]:
            hit = gcds[n] == d
            if hit.any():
                sub = _gauss_entries(q // d, n[hit] // d, m[hit] // d)
                reduced[hit] = np.where(m[hit] % d, 0, d * sub)
        rec.check(worst <= 1e-6, "q={q} max err {e:.2e}", q=q, e=worst)
        # tie the batched grid back to the scalar operations
        pairs = list(zip(n.tolist(), m.tolist()))
        rec.check(complex_close(sampled, [expsums.gauss_direct(q, *nm) for nm in pairs])
                  & complex_close(reduced, [expsums.gauss_reduce(q, *nm) for nm in pairs]),
                  "batch/scalar mismatch at ({q};{n},{m})", q=q, n=n, m=m)
    return rec.result()


def suite_gauss_closed(seed=DEFAULT_SEED, qmax=301) -> SuiteResult:
    """Closed-form odd-q evaluator equals direct summation for all valid (n, m)."""
    rec = _Recorder("gauss-closed-vs-direct")
    rng = random.Random(seed)
    for q in range(1, qmax + 1, 2):
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
        # the scalar path of the same evaluator, at sampled entries
        n, m = _columns([(units[rng.randrange(units.size)], rng.randrange(q)) for _ in range(3)])
        scalar = [expsums.gauss_closed_odd(q, *nm) for nm in zip(n.tolist(), m.tolist())]
        rec.check(complex_close(scalar, _gauss_entries(q, n, m)),
                  "scalar closed mismatch at ({q};{n},{m})", q=q, n=n, m=m)
    return rec.result()


def suite_kloosterman_real(seed=DEFAULT_SEED, qmax=500) -> SuiteResult:
    """K(q;n,n) is real: pairing x with inv(x) conjugates the terms."""
    rec = _Recorder("kloosterman-diagonal-real")
    rng = random.Random(seed)
    for q in range(1, qmax + 1):
        n = np.array([0, 1, rng.randrange(q) if q > 1 else 0])
        val = expsums.kloosterman_direct(q, n, n)
        rec.check(np.abs(val.imag) <= 1e-7 * np.maximum(1.0, np.abs(val)),
                  "K({q};{n},{n}) = {v}", q=q, n=n, v=val)
    return rec.result()


# ---------------------------------------------------------------------------
# circle-congruence sums
# ---------------------------------------------------------------------------

def _random_nm(rng, q):
    return rng.randrange(-2 * q, 2 * q + 1), rng.randrange(-2 * q, 2 * q + 1)


def suite_lambda_bound(seed=DEFAULT_SEED, qmax=1500, per_q=20) -> SuiteResult:
    """|lam(q;n,m)| <= 16 tau(q)^2 sqrt(q) sqrt(gcd(q,n,m)) for 8 not | q."""
    rec = _Recorder("lambda-bound")
    rng = random.Random(seed)
    for q in range(1, qmax + 1):
        if q % 8 == 0:
            continue
        tq = ntcore.tau(q)
        n, m = _columns([_random_nm(rng, q) for _ in range(per_q)])
        val = np.abs(lambdasums.lambda_direct(q, n, m))
        bound = 16 * tq * tq * math.sqrt(q) * np.sqrt(np.gcd(np.gcd(n, m), q))
        rec.check(val <= bound + 1e-7, "|lam({q};{n},{m})|={v:.4f} > {b:.4f}",
                  q=q, n=n, m=m, v=val, b=bound)
    return rec.result()


def suite_lambda_growth(seed=DEFAULT_SEED, lo=500, hi=1500) -> SuiteResult:
    """Solution counts grow subquadratically: max lam(q)/q**1.2 < 1."""
    rec = _Recorder("lambda-growth")
    worst = 0.0
    for q in range(lo + 1, hi + 1):
        if q % 8 == 0:
            continue
        ratio = len(lambdasums.solve_circle(q)) / q**1.2
        worst = max(worst, ratio)
        rec.check(ratio < 1.0, "lam({q})/q^1.2 = {r:.3f}", q=q, r=ratio)
    return rec.result(notes=f"max lam(q)/q^1.2 = {worst:.3f}")


def _lambda_agreement(name, evaluate, message, seed, qmax, per_q, step=1) -> SuiteResult:
    """`evaluate` equals direct summation within LAMBDA_TOLERANCE * q at
    (0, 0) and `per_q` seeded (n, m) for each q in range(1, qmax + 1, step)
    with 8 not | q.  `message` may use q, n, m, a (the evaluator), b
    (direct) and s (their spread)."""
    rec = _Recorder(name)
    rng = random.Random(seed)
    for q in range(1, qmax + 1, step):
        if q % 8 == 0:
            continue
        n, m = _columns([(0, 0)] + [_random_nm(rng, q) for _ in range(per_q)])
        got = evaluate(q, n, m)
        direct = lambdasums.lambda_direct(q, n, m)
        spread = np.abs(got - direct)
        rec.check(spread <= LAMBDA_TOLERANCE * q, message, q=q, n=n, m=m, a=got, b=direct, s=spread)
    return rec.result()


def suite_lambda_fast(seed=DEFAULT_SEED, qmax=601, per_q=10) -> SuiteResult:
    """Kloosterman-decomposition evaluator equals direct summation (odd q)."""
    return _lambda_agreement("lambda-fast-vs-direct", lambdasums.lambda_fast_odd,
                             "fast({q};{n},{m})={a:.6f} direct={b:.6f}", seed, qmax, per_q, step=2)


def suite_lambda_any(seed=DEFAULT_SEED, qmax=601, per_q=10) -> SuiteResult:
    """Composite evaluator equals direct summation for every q with 8 not | q."""
    return _lambda_agreement("lambda-any-vs-direct", lambdasums.lambda_any,
                             "any({q};{n},{m})={a:.6f} direct={b:.6f}", seed, qmax, per_q)


def suite_lambda_triple(seed=DEFAULT_SEED, qmax=601, per_q=10) -> SuiteResult:
    """All applicable evaluators agree pairwise within 1e-5 * q.  For odd q
    lambda_any is lambda_fast_odd, so each q compares two evaluations."""
    return _lambda_agreement("lambda-triple-agreement", lambdasums.lambda_any,
                             "({q};{n},{m}): evaluator spread {s:.2e}", seed, qmax, per_q)


def suite_lambda_multiplicative(seed=DEFAULT_SEED, trials=100, product_max=10_000) -> SuiteResult:
    """Coprime splitting equals direct summation on the product modulus."""
    rec = _Recorder("lambda-multiplicative")
    rng = random.Random(seed)
    done = 0
    while done < trials:
        q1 = rng.randrange(1, 101)
        q2 = rng.randrange(1, product_max // q1 + 1)
        if math.gcd(q1, q2) != 1:
            continue
        q = q1 * q2
        n, m = _random_nm(rng, q)
        a = lambdasums.lambda_multiplicative(q1, q2, n, m)
        b = lambdasums.lambda_direct(q, n, m)
        rec.check(abs(a - b) <= LAMBDA_TOLERANCE * q, "mult({q1},{q2};{n},{m})={a:.6f} direct={b:.6f}",
                  q1=q1, q2=q2, n=n, m=m, a=a, b=b)
        done += 1
    return rec.result()


def suite_lambda_symmetry(seed=DEFAULT_SEED, qmax=300, per_q=5) -> SuiteResult:
    """Exact q-periodicity in n and m; conjugation under (n,m) -> (-n,-m)."""
    rec = _Recorder("lambda-symmetry")
    rng = random.Random(seed)
    for q in range(1, qmax + 1):
        if q % 8 == 0:
            continue
        n, m = _columns([(rng.randrange(q), rng.randrange(q)) for _ in range(per_q)])
        base, n_shift, m_shift, negated = lambdasums.lambda_direct(
            q, np.stack([n, n + q, n, -n]), np.stack([m, m, m + q, -m]))
        rec.check((n_shift == base) & (m_shift == base),
                  "periodicity broke at ({q};{n},{m})", q=q, n=n, m=m)
        rec.check(complex_close(negated, base.conjugate()),
                  "conjugation broke at ({q};{n},{m})", q=q, n=n, m=m)
    return rec.result()


def suite_lambda_lift(seed=DEFAULT_SEED, pmax=47) -> SuiteResult:
    """lam(p^2) = p * lam(p) by enumeration for odd p <= 47, and lam(4) = 0."""
    rec = _Recorder("lambda-prime-square")
    rec.check(len(lambdasums.solve_circle(4)) == 0, "lam(4) != 0")
    rec.check(asymptotic.lambda_p_squared(2) == 0, "lambda_p_squared(2) != 0")
    for p in ntcore.primes_upto(pmax).tolist():
        if p == 2:
            continue
        lp = len(lambdasums.solve_circle(p))
        lp2 = len(lambdasums.solve_circle(p * p))
        closed = p * (p - 1) if p % 4 == 1 else p * (p + 1)
        rec.check(lp2 == p * lp, "lam({p}^2)={a} != p*lam(p)={b}", p=p, a=lp2, b=p * lp)
        rec.check(lp2 == closed, "lam({p}^2)={a} != closed {c}", p=p, a=lp2, c=closed)
        rec.check(asymptotic.lambda_p_squared(p) == lp2,
                  "lambda_p_squared({p}) != enumeration", p=p)
    return rec.result()


def suite_lambda_table(seed=DEFAULT_SEED, qmax=150, samples=8) -> SuiteResult:
    """The two batched grids agree, and sampled entries agree with the
    batch evaluators.  The decomposition grid reads its large Kloosterman
    sums from FFT rows and the few samples sum them directly, so the
    samples compare the FFT-row route with the direct-sum route."""
    rec = _Recorder("lambda-table-consistency")
    rng = random.Random(seed)
    for q in list(range(1, 36)) + [rng.randrange(36, qmax + 1) for _ in range(20)]:
        if q % 8 == 0:
            continue
        direct = lambdasums.lambda_direct_table(q)
        fast = lambdasums.lambda_any_table(q)
        err = np.abs(direct - fast).max()
        rec.check(err <= LAMBDA_TOLERANCE * q, "q={q} table err {e:.2e}", q=q, e=err)
        n, m = _columns([(rng.randrange(q), rng.randrange(q)) for _ in range(samples)])
        rec.check(complex_close(direct[n, m], lambdasums.lambda_direct(q, n, m))
                  & (np.abs(fast[n, m] - lambdasums.lambda_any(q, n, m)) <= LAMBDA_TOLERANCE * q),
                  "batch/scalar mismatch at ({q};{n},{m})", q=q, n=n, m=m)
    return rec.result()


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def suite_count_oracle(seed=DEFAULT_SEED, H_values=None, threads=1) -> SuiteResult:
    """Value sieve and congruence identity give the same exact S(H)."""
    rec = _Recorder("count-oracle-equivalence")
    if H_values is None:
        H_values = list(range(1, 51)) + [100, 150, 200]
    ladder = sorted(set(H_values))
    direct = {r.H: r.S for r in counting.count_pairs_ladder(ladder, threads=threads)}
    for H in H_values:
        ident = counting.count_pairs_mobius(H)
        rec.check(direct[H] == ident.S, "H={H}: sieve={a} identity={b}", H=H, a=direct[H], b=ident.S)
    return rec.result()


def suite_residue_count(seed=DEFAULT_SEED) -> SuiteResult:
    """Residue counters partition [1, H] and stay within 1 of H/q."""
    rec = _Recorder("residue-count")
    rng = random.Random(seed)
    grid = [(H, q) for H in (1, 5, 10, 37, 100, 1000) for q in (1, 2, 3, 7, 10, 64, 97, 360)]
    grid += [(rng.randrange(1, 2000), rng.randrange(1, 500)) for _ in range(100)]
    for H, q in grid:
        counts = counting.residue_count(H, q, np.arange(1, q + 1))
        rec.check(counts.sum() == H, "residue counts for (H={H}, q={q}) miss H", H=H, q=q)
        rec.check(np.all(np.abs(counts - H / q) <= 1),
                  "(H={H}, q={q}): some count strays beyond H/q +- 1", H=H, q=q)
    return rec.result()


def suite_congruent_bound(seed=DEFAULT_SEED, qmax=200) -> SuiteResult:
    """0 <= T(H, q) <= lam(q) * (H/q + 1)^2 on a grid."""
    rec = _Recorder("congruent-pair-bound")
    for H in (10, 50, 100):
        for q in range(1, qmax + 1):
            if q % 8 == 0:
                continue
            t = counting.congruent_pair_count(H, q)
            cap = len(lambdasums.solve_circle(q)) * (H / q + 1) ** 2
            rec.check(0 <= t <= cap, "T({H},{q})={t} outside [0, {cap:.2f}]", H=H, q=q, t=t, cap=cap)
    return rec.result()


def suite_squarefree_density(seed=DEFAULT_SEED, N=10**6) -> SuiteResult:
    """Squarefree density over [1, N] approaches 6/pi^2."""
    rec = _Recorder("squarefree-density")
    sieve = counting.build_sieve(N)
    density = sieve.count_squarefree(N) / N
    rec.check(abs(density - 0.607927) <= 0.01, "density {d:.6f}", d=density)
    return rec.result(notes=f"density = {density:.6f}")


def suite_truncation_report(seed=DEFAULT_SEED, H_values=(50, 100, 150, 200), epsilon=0.1) -> SuiteResult:
    """Report the tail dropped by truncating at z = H^(2/3), and check it
    equals the dropped terms mu(d) * T(H, d^2), int(z) < d <= sqrt(2H^2 + 1)."""
    rec = _Recorder("truncation-report")
    lines = []
    for H in H_values:
        z = H ** (2.0 / 3.0)
        exact = counting.count_pairs_mobius(H).S
        trunc = counting.count_pairs_mobius_truncated(H, z)
        dropped = 0
        for d in range(int(z) + 1, math.isqrt(2 * H * H + 1) + 1):
            sign = ntcore.mobius(d)
            if sign:  # 8 | d^2 only when mu(d) = 0
                dropped += sign * counting.congruent_pair_count(H, d * d)
        rec.check(exact - trunc == dropped, "H={H}: S - S_z = {a} != dropped {b}",
                  H=H, a=exact - trunc, b=dropped)
        dev = abs(exact - trunc)
        c_fit = dev * z / H ** (2 + epsilon)
        lines.append(f"H={H} z={int(z)} |S - S_z|={dev} C={c_fit:.4f}")
    return rec.result(notes="; ".join(lines))


# ---------------------------------------------------------------------------
# constant and error term
# ---------------------------------------------------------------------------

def suite_constant_consistency(seed=DEFAULT_SEED, cutoffs=(100, 1000, 10_000)) -> SuiteResult:
    """Doubling the cutoff moves the product by less than the tail bound."""
    rec = _Recorder("constant-consistency")
    tails = []
    for P in cutoffs:
        lo = asymptotic.constant_c(P)
        hi = asymptotic.constant_c(2 * P)
        tails.append(lo.tail_bound)
        rec.check(abs(hi.value - lo.value) <= lo.tail_bound, "|c({P2}) - c({P})| = {d:.3e} > {t:.3e}",
                  P=P, P2=2 * P, d=abs(hi.value - lo.value), t=lo.tail_bound)
        rec.check(0.0 < lo.value < 1.0, "c({P}) = {v} outside (0,1)", P=P, v=lo.value)
    rec.check(all(b < a for a, b in zip(tails, tails[1:])),
              "tail bounds not decreasing: {tails}", tails=tuple(tails))
    return rec.result(notes=f"c({cutoffs[-1]}) = {asymptotic.constant_c(cutoffs[-1]).value:.9f}")


def suite_dirichlet_form(seed=DEFAULT_SEED, dmax=500, P=10_000) -> SuiteResult:
    """Series and product forms of the constant agree within combined tails."""
    rec = _Recorder("dirichlet-form")
    series = asymptotic.dirichlet_partial_sum(dmax)
    prod = asymptotic.constant_c(P)
    budget = asymptotic.dirichlet_tail_bound(dmax) + prod.tail_bound
    gap = abs(series - prod.value)
    rec.check(gap <= budget, "|series - product| = {gap:.3e} > {budget:.3e}", gap=gap, budget=budget)
    return rec.result(notes=f"gap {gap:.2e} within {budget:.2e}")


# suite_rho_envelope evaluates at most _RHO_SLAB draws t per rho_fourier
# call, and at most _RHO_PHASES (t, n) phases: 64 KiB of them, which the
# allocator serves from its heap; the 512 KiB arrays of 32 t by D = 1000
# terms were mapped afresh, and faulted in, on every call.
_RHO_SLAB = 32
_RHO_PHASES = 1 << 12


def suite_rho_envelope(seed=DEFAULT_SEED, D_values=(10, 100, 1000), trials=1000) -> SuiteResult:
    """Sawtooth Fourier truncation error under 3 * min(1, 1/(D||t||))."""
    rec = _Recorder("rho-envelope")
    rng = random.Random(seed)
    for D in D_values:
        ts = []
        for _ in range(trials):
            t = rng.uniform(-5.0, 5.0)
            if min(t % 1.0, 1.0 - t % 1.0) < 1e-3:
                t += 2e-3
            ts.append(t)
        width = max(1, min(_RHO_SLAB, _RHO_PHASES // int(D)))
        for lo in range(0, trials, width):
            t = np.array(ts[lo : lo + width])
            dist = np.minimum(t % 1.0, 1.0 - t % 1.0)
            err = np.abs(asymptotic.rho(t) - asymptotic.rho_fourier(D, t))
            cap = 3.0 * np.minimum(1.0, 1.0 / (D * dist))
            rec.check(err <= cap, "D={D} t={t:.6f}: err {e:.4f} > {c:.4f}", D=D, t=t, e=err, c=cap)
    return rec.result()


# Harmonic-sum envelope grid: every modulus up to 48 not divisible by 8,
# a spread of larger ones up to 500, and D spanning three orders of
# magnitude.
ENVELOPE_Q_GRID = [q for q in range(1, 49) if q % 8] + [
    q for q in range(55, 501, 7) if q % 8
]
ENVELOPE_D_GRID = (2, 10, 100, 1000)


def suite_harmonic_envelope(seed=DEFAULT_SEED, q_grid=None, D_grid=None) -> SuiteResult:
    """U/(q^0.7 D^0.2) and V/(q^0.7 D^0.2) stay below 20 on the grid."""
    rec = _Recorder("harmonic-envelope")
    q_grid = ENVELOPE_Q_GRID if q_grid is None else q_grid
    D_grid = ENVELOPE_D_GRID if D_grid is None else D_grid
    D = np.array(D_grid)
    D_scale = np.array([d**0.2 for d in D_grid])
    worst_u = worst_v = 0.0
    for q in q_grid:
        U, V = asymptotic.harmonic_lambda_sums(q, D)
        u, v = U / (q**0.7 * D_scale), V / (q**0.7 * D_scale)
        worst_u, worst_v = max(worst_u, u.max()), max(worst_v, v.max())
        rec.check((u <= 20) & (v <= 20), "q={q} D={D}: U/s={u:.2f} V/s={v:.2f}", q=q, D=D, u=u, v=v)
    return rec.result(notes=f"max U ratio {worst_u:.2f}, max V ratio {worst_v:.2f}")


SCAN_LADDER = (250, 500, 1000, 2000, 4000)


def suite_scan_envelope(seed=DEFAULT_SEED, ladder=SCAN_LADDER, P=10**5, threads=1) -> SuiteResult:
    """Every |E(H)| under 5 * H^1.5 and the fitted exponent at most 1.6."""
    rec = _Recorder("scan-envelope")
    result = asymptotic.error_scan(ladder, P, threads=threads)
    for row in result.rows:
        cap = 5.0 * row.H**1.5
        rec.check(abs(row.E) <= cap, "H={H}: |E|={E:.1f} > {cap:.1f}", H=row.H, E=abs(row.E), cap=cap)
    rec.check(result.alpha is not None, "fit skipped: fewer than 4 usable rows")
    if result.alpha is not None:
        rec.check(result.alpha <= 1.6, "alpha = {a:.4f} > 1.6", a=result.alpha)
    alpha = "n/a" if result.alpha is None else f"{result.alpha:.4f}"
    return rec.result(notes=f"alpha = {alpha}, c = {result.c:.9f} (P = {P})")


ALL_SUITES = {
    "mobius-identity": suite_mobius_identity,
    "inverse-involution": suite_inverse_involution,
    "jacobi": suite_jacobi,
    "sqrt-mod-exhaustive": suite_sqrt_mod,
    "tau-growth": suite_tau_growth,
    "weil-bound": suite_weil_bound,
    "gauss-square": suite_gauss_square,
    "gauss-reduce-vs-direct": suite_gauss_reduce,
    "gauss-closed-vs-direct": suite_gauss_closed,
    "kloosterman-diagonal-real": suite_kloosterman_real,
    "lambda-bound": suite_lambda_bound,
    "lambda-growth": suite_lambda_growth,
    "lambda-fast-vs-direct": suite_lambda_fast,
    "lambda-any-vs-direct": suite_lambda_any,
    "lambda-triple-agreement": suite_lambda_triple,
    "lambda-multiplicative": suite_lambda_multiplicative,
    "lambda-symmetry": suite_lambda_symmetry,
    "lambda-prime-square": suite_lambda_lift,
    "lambda-table-consistency": suite_lambda_table,
    "count-oracle-equivalence": suite_count_oracle,
    "residue-count": suite_residue_count,
    "congruent-pair-bound": suite_congruent_bound,
    "squarefree-density": suite_squarefree_density,
    "truncation-report": suite_truncation_report,
    "constant-consistency": suite_constant_consistency,
    "dirichlet-form": suite_dirichlet_form,
    "rho-envelope": suite_rho_envelope,
    "harmonic-envelope": suite_harmonic_envelope,
    "scan-envelope": suite_scan_envelope,
}


def run_suites(names=None, seed=DEFAULT_SEED, threads=1) -> list[SuiteResult]:
    """Run the named suites (all, in registry order, when names is None).

    `threads` goes to the suites that take it: the ones that probe pairs.
    Each result records the process's peak RSS after its suite, so the
    steps between results show which suite raised it.
    """
    import inspect

    if names is None:
        names = list(ALL_SUITES)
    unknown = [n for n in names if n not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}; known: {', '.join(ALL_SUITES)}")
    results = []
    for name in names:
        fn = ALL_SUITES[name]
        kwargs = {"threads": threads} if "threads" in inspect.signature(fn).parameters else {}
        result = fn(seed=seed, **kwargs)
        result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        results.append(result)
    return results

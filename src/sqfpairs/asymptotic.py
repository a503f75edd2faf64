"""The leading constant and the measured error term of the pair count.

The density of pairs with x^2 + y^2 + 1 squarefree is the Euler product
c = prod_p (1 - lam(p^2)/p^4), where lam(q) counts solutions of
x^2 + y^2 + 1 = 0 (mod q).  lam(p^2) has one closed form, applied to
whole prime arrays; enumeration is only its oracle.  `constant_c`
evaluates the product up to a cutoff with an explicit bound on the
log-deviation from the infinite product.  `error_scan` measures
E(H) = S(H) - c*H^2 on a ladder of H values and fits the exponent of |E|.

Also here: the sawtooth 1/2 - {t}, its truncated Fourier series, and
the harmonic-weighted absolute sums of the circle exponential sums that
the error analysis is built on.  Those sums are bound checks only; the
counting pipeline never consumes them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .ntcore import BudgetError, is_prime, mobius_sieve, primes_upto
from .counting import _check_ladder, _check_sieve_budget, build_sieve, count_pairs_ladder
from .expsums import _check_modulus
from .lambdasums import lambda_any_table

__all__ = [
    "EulerProductEstimate",
    "ScanRow",
    "ScanResult",
    "lambda_p_squared",
    "constant_c",
    "error_scan",
    "rho",
    "rho_fourier",
    "harmonic_lambda_sums",
    "dirichlet_partial_sum",
    "dirichlet_tail_bound",
]

# harmonic_lambda_sums rejects moduli above this: its (q, q) table of
# circle sums would take more than 256 MiB.
_TABLE_LIMIT = 4096


def _lambda_p2(p):
    """lam(p^2) for a prime or an int64 array of primes, elementwise:
    0 at p = 2, else p * (p - (-1)**((p-1)/2))."""
    return p * (p - 1 + 2 * (p % 4 == 3)) * (p != 2)


def lambda_p_squared(p: int) -> int:
    """Number of solutions of x^2 + y^2 + 1 = 0 (mod p^2) for prime p.

    One closed form: 0 for p = 2, else p * (p - (-1)**((p-1)/2)), since
    each solution mod p lifts to exactly p solutions mod p^2 (the gradient
    (2x, 2y) never vanishes on the solution set).  Enumerating solution
    sets is only the oracle that checks it, in the tests and verify suites.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return int(_lambda_p2(p))


@dataclass(frozen=True)
class EulerProductEstimate:
    """Partial Euler product with a tail bound.

    `tail_bound` bounds |log(true product / value)|: every omitted
    factor is 1 - lam(p^2)/p^4 with 0 <= lam(p^2) <= p^2 + p.
    """

    cutoff: int
    value: float
    tail_bound: float


def constant_c(P: int) -> EulerProductEstimate:
    """prod_{p <= P} (1 - lam(p^2)/p^4) with an explicit tail bound.

    The tail bound sums -log(1 - u_p) <= u_p / (1 - u_p) with
    u_p = (p^2 + p)/p^4 over the primes in (P, 10P], then closes with
    an integral comparison over all integers beyond 10P.
    """
    if P < 2:
        raise ValueError(f"cutoff must be >= 2, got {P}")
    primes = primes_upto(10 * P)
    head = primes[: np.searchsorted(primes, P, side="right")]
    # Python-int quotients are exact, so each factor is correctly rounded.
    value = math.prod(1.0 - lam / p**4 for p, lam in zip(head.tolist(), _lambda_p2(head).tolist()))
    if not 0.0 < value <= 1.0:
        raise ArithmeticError(f"product escaped (0, 1]: {value}")
    p = primes[head.size :].astype(float)
    u = (p * p + p) / p**4
    N = 10 * P
    u_n = (N * N + N) / N**4
    tail = float(np.sum(u / (1.0 - u))) + (1.0 / N + 0.5 / (N * N)) / (1.0 - u_n)
    return EulerProductEstimate(P, value, tail)


@dataclass(frozen=True)
class ScanRow:
    """One ladder step: exact count, error against c*H^2, and the probe
    time from the start of the scan's probe until this S was known."""

    H: int
    S: int
    E: float
    elapsed: float


@dataclass(frozen=True)
class ScanResult:
    rows: list[ScanRow]
    alpha: float | None  # least-squares slope of log|E| vs log H
    c: float
    cutoff: int
    excluded: list[int]  # H values dropped from the fit because E = 0
    sieve_elapsed: float  # seconds spent building the value sieve


# A meaningful slope needs at least this many usable (E != 0) rows.
_MIN_FIT_ROWS = 4


def error_scan(
    H_values,
    P: int,
    threads: int = 1,
    memory_budget: int | None = None,
) -> ScanResult:
    """Measure E(H) = S(H) - c*H^2 over a ladder of H values.

    S(H) comes from the value sieve (built once, at the largest H, and
    timed apart) by one `count_pairs_ladder` probe, and c from
    `constant_c(P)`.  The fitted exponent is the least-squares
    slope of log|E| against log H; rows with E = 0 are excluded and
    reported, and the fit is skipped (alpha None) below 4 usable rows.
    The sieve's byte budget is checked first, before `constant_c` sieves
    its primes.
    """
    H_values = _check_ladder(H_values)
    N = 2 * H_values[-1] ** 2 + 1
    _check_sieve_budget(N, memory_budget)
    c = constant_c(P).value
    start = time.perf_counter()
    sieve = build_sieve(N, memory_budget)
    sieve_elapsed = time.perf_counter() - start
    rows = [
        ScanRow(rep.H, rep.S, rep.S - c * rep.H * rep.H, rep.elapsed)
        for rep in count_pairs_ladder(H_values, sieve=sieve, threads=threads)
    ]
    usable = [r for r in rows if r.E != 0.0]
    excluded = [r.H for r in rows if r.E == 0.0]
    if len(usable) >= _MIN_FIT_ROWS:
        logs_h = np.log([r.H for r in usable])
        logs_e = np.log([abs(r.E) for r in usable])
        alpha = float(np.polyfit(logs_h, logs_e, 1)[0])
    else:
        alpha = None
    return ScanResult(rows, alpha, c, P, excluded, sieve_elapsed)


def rho(t: float) -> float:
    """The sawtooth 1/2 - {t}, with values in (-1/2, 1/2]."""
    return 0.5 - (t % 1.0)


def rho_fourier(D: float, t: float) -> float:
    """Truncated Fourier series of the sawtooth: sum over 1 <= |n| <= D
    of e(nt) / (2*pi*i*n).

    Both halves of the sum are evaluated and the imaginary part is
    checked to cancel (the n and -n terms are conjugate), then dropped.
    """
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    n = np.arange(1, int(D) + 1)
    phase = np.exp(2j * np.pi * n * t)
    total = (phase / (2j * np.pi * n)).sum()
    total += (np.conj(phase) / (-2j * np.pi * n)).sum()
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ArithmeticError(f"imaginary part failed to cancel: {total}")
    return float(total.real)


def harmonic_lambda_sums(q: int, D):
    """The harmonic-weighted absolute sums of the circle sums:

        U = sum_{1 <= n <= D}      |lam(q; n, 0)| / n
        V = sum_{1 <= n, m <= D}   |lam(q; n, m)| / (n m)

    lam is q-periodic in both arguments, so the weights 1/n collapse
    onto residues and the sums need one |lam| value per residue pair,
    taken from the batched evaluator.  D is an int, giving floats U and
    V, or a 1-D integer array, giving arrays with one entry per D; the
    table is built once for all of them.  Moduli above 4096 raise
    BudgetError before the table is allocated.
    """
    q = _check_modulus(q)
    Ds = np.asarray(D)
    if Ds.ndim > 1 or np.any(Ds < 2):
        raise ValueError(f"D must be an int or a 1-D array of ints >= 2, got {D}")
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    if q > _TABLE_LIMIT:
        raise BudgetError(f"harmonic_lambda_sums({q}) exceeds the table limit {_TABLE_LIMIT}")
    weights = np.zeros((Ds.size, q))
    for row, d in zip(weights, Ds.ravel().tolist()):
        n = np.arange(1, d + 1)
        np.add.at(row, n % q, 1.0 / n)
    mags = np.abs(lambda_any_table(q))
    U = weights @ mags[:, 0]
    V = np.einsum("iu,uv,iv->i", weights, mags, weights)
    if Ds.ndim == 0:
        return float(U[0]), float(V[0])
    return U, V


def _prime_divisor_product(N: int, f) -> np.ndarray:
    """g[d] = prod over primes p | d of f(p), by a sieve; f maps a prime array."""
    g = np.ones(N + 1)
    primes = primes_upto(N)
    for p, fp in zip(primes.tolist(), f(primes).tolist()):
        g[p::p] *= fp
    return g


def dirichlet_partial_sum(dmax: int) -> float:
    """sum_{d <= dmax} mu(d) * lam(d^2) / d^4, the series form of c.

    For squarefree d the solution count mod d^2 is multiplicative, so
    lam(d^2) is the product of lam(p^2) over d's prime factors.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be positive, got {dmax}")
    mu = mobius_sieve(dmax)[1:]
    lam = _prime_divisor_product(dmax, _lambda_p2)[1:]
    d = np.arange(1, dmax + 1, dtype=float)
    return float(np.sum(mu * lam / d**4))


def dirichlet_tail_bound(dmax: int) -> float:
    """Bound on |sum_{d > dmax} mu(d) lam(d^2) / d^4|.

    For squarefree d each prime factor contributes p(p +- 1) <= 2p^2,
    so the term is at most tau(d)/d^2.  That is summed exactly out to
    20*dmax and closed with tau(d) <= 2*sqrt(d) beyond.
    """
    if dmax < 1:
        raise ValueError(f"dmax must be positive, got {dmax}")
    M = 20 * dmax
    squarefree = mobius_sieve(M)[dmax + 1 :] != 0
    tau = _prime_divisor_product(M, lambda p: np.full(p.size, 2.0))[dmax + 1 :]  # 2^omega(d)
    d = np.arange(dmax + 1, M + 1, dtype=float)
    return float(np.sum(tau[squarefree] / d[squarefree] ** 2)) + 4.0 / math.sqrt(M)

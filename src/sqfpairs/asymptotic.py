"""The leading constant and the measured error term of the pair count.

The density of pairs with x^2 + y^2 + 1 squarefree is the Euler product
c = prod_p (1 - lam(p^2)/p^4), where lam(q) counts solutions of
x^2 + y^2 + 1 = 0 (mod q).  lam(p^2) has one closed form, applied to
whole prime arrays; enumeration is only its oracle.  `constant_c`
evaluates c with the zeta and L-function factors taken out in closed
form, so only a correction product of size 1 + O(p^-5) is truncated, and
bounds the log-deviation of the result from c.  `error_scan` measures
E(H) = S(H) - c*H^2 on a ladder of H values and fits the exponent of |E|.

Also here: the sawtooth 1/2 - {t}, its truncated Fourier series, and
the harmonic-weighted absolute sums of the circle exponential sums that
the error analysis is built on.  Those sums are bound checks only; the
counting pipeline never consumes them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ntcore import (_check_modulus, _mod_in_place, check_bytes, divisors, is_prime, mobius,
                     mobius_sieve, primes_upto)
from .counting import _check_ladder, _probe_ladder
from . import expsums, lambdasums  # read at call time, so `scan` never loads them

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
    """The constant c evaluated from the primes up to `cutoff`.

    `value` is c itself to within `tail_bound`, which bounds
    |log(c / value)|: the truncated correction product plus float rounding.
    """

    cutoff: int
    value: float
    tail_bound: float


# Primes whose factors `constant_c` evaluates at a time; eight float64
# arrays over one chunk bound its scratch.
_CHUNK_PRIMES = 1 << 12


def _check_cutoff(P) -> int:
    """P as an int, checked before anything is allocated: ValueError for a
    bool, a float or P < 2, BudgetError if 4 bytes per unit of P (the
    prime sieve and the primes) and one chunk's scratch are over budget."""
    P = _check_modulus(P, "cutoff")
    if P < 2:
        raise ValueError(f"cutoff must be >= 2, got {P}")
    check_bytes(4 * P + 64 * _CHUNK_PRIMES, f"constant_c({P})")
    return P


# For odd p, lam(p^2) = p^2 - chi(p) p with chi the character mod 4, so the
# factor of c at p is (1 - p^-2)(1 + chi(p) p^-3)(1 + t_p) with
# t_p = chi(p) / (p^5 (1 - p^-2)(1 + chi(p) p^-3)); at p = 2 it is 1.  Over the
# odd primes, prod (1 - p^-2) = (4/3)/zeta(2) = 8/pi^2 and prod (1 + chi(p) p^-3)
# = L(3, chi)/L(6, chi_0) = (pi^3/32) / ((63/64) pi^6/945): together 240/pi^5.
_CLOSED_FORM = 240 / math.pi**5
# Rounding of pi, pi**5, the quotient, exp and the last product is below
# 1.5e-15 relative; fsum adds the tiny log1p(t_p) exactly.
_ROUNDING = 4e-15


def constant_c(P: int) -> EulerProductEstimate:
    """c = (240/pi^5) * prod_{3 <= p <= P} (1 + t_p), within `tail_bound`.

    For p >= 3, |t_p| < 1.17/p^5, |log(1 + t)| <= |t|/(1 - |t|) and
    sum_{n > P} n^-5 <= 1/(4 P^4), so the omitted factors move log c by
    at most 0.3/P^4; `tail_bound` adds the float-rounding allowance.
    The log1p(t_p) are evaluated _CHUNK_PRIMES primes at a time and fed
    to one `math.fsum`, which is exact in any order, so the scratch stays
    one chunk's whatever P.
    """
    P = _check_cutoff(P)
    primes = primes_upto(P)[1:]

    def log_factors(lo):
        p = primes[lo : lo + _CHUNK_PRIMES].astype(float)
        chi = np.where(p % 4 == 1, 1.0, -1.0)
        return np.log1p(chi / (p**5 * (1.0 - p**-2) * (1.0 + chi * p**-3)))

    chunks = map(log_factors, range(0, primes.size, _CHUNK_PRIMES))
    value = _CLOSED_FORM * math.exp(math.fsum(itertools.chain.from_iterable(chunks)))
    return EulerProductEstimate(P, value, 0.3 / P**4 + _ROUNDING)


@dataclass(frozen=True)
class ScanRow:
    """One ladder step: exact count, error against c*H^2, and the time
    from the start of the scan's probe (segment builds included) until
    this S was known."""

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
    sieve_elapsed: float  # seconds spent building sieve segments, summed over the probe's runs


# A meaningful slope needs at least this many usable (E != 0) rows.
_MIN_FIT_ROWS = 4


def error_scan(
    H_values,
    P: int,
    threads: int = 1,
) -> ScanResult:
    """Measure E(H) = S(H) - c*H^2 over a ladder of H values.

    S(H) comes from one probe of the value sieve up to the largest H (see
    `count_pairs_ladder`), which builds the sieve a window at a time as it
    reads it; `sieve_elapsed` is the time spent building those windows,
    and is also part of each row's `elapsed`.  c comes from
    `constant_c(P)`.  The fitted exponent is the least-squares
    slope of log|E| against log H; rows with E = 0 are excluded and
    reported, and the fit is skipped (alpha None) below 4 usable rows.
    P is checked first; the probe's windows are freed before `constant_c`
    sieves its primes, so the two never share the peak.
    """
    H_values = _check_ladder(H_values)
    P = _check_cutoff(P)
    reports, sieve_elapsed = _probe_ladder(H_values, threads=threads)
    c = constant_c(P).value
    rows = [ScanRow(rep.H, rep.S, rep.S - c * rep.H * rep.H, rep.elapsed) for rep in reports]
    usable = [r for r in rows if r.E != 0.0]
    excluded = [r.H for r in rows if r.E == 0.0]
    if len(usable) >= _MIN_FIT_ROWS:
        # the least-squares slope in closed form; np.polyfit's first LAPACK
        # call grows the RSS by about 1.3 MB
        dx = np.log([r.H for r in usable])
        dx -= dx.mean()
        dy = np.log([abs(r.E) for r in usable])
        dy -= dy.mean()
        alpha = float((dx * dy).sum() / (dx * dx).sum())
    else:
        alpha = None
    return ScanResult(rows, alpha, c, P, excluded, sieve_elapsed)


def rho(t: float) -> float:
    """The sawtooth 1/2 - {t}, with values in (-1/2, 1/2]."""
    return 0.5 - (t % 1.0)


def rho_fourier(D: float, t):
    """Truncated Fourier series of the sawtooth: sum over 1 <= |n| <= D
    of e(nt) / (2*pi*i*n).

    The n and -n terms are conjugate, so each pair adds up to the real
    sin(2*pi*n*t) / (pi*n), and the series is summed as that sine series
    over 1 <= n <= D.  t is a float, giving a float, or an array of
    floats, giving an array of its shape; the terms of every t are summed
    in one pass, so the caller bounds the (t x D) phases it asks for.  D
    is a finite number >= 2 (not a bool), else ValueError.  States 32
    bytes per (t, n) phase plus 16 per n to `check_bytes`."""
    if (not isinstance(D, (int, float, np.integer, np.floating)) or isinstance(D, bool)
            or not 2 <= D < math.inf):
        raise ValueError(f"D must be a finite number >= 2, got {D!r}")
    t = np.asarray(t, dtype=float)
    check_bytes((32 * t.size + 16) * int(D), f"rho_fourier({int(D)}) at {t.size} points")
    n = np.arange(1, int(D) + 1)
    # e(nt) as the running product of e(t) along n: one exp per t, of
    # t - round(t), which is exact and keeps the angle's rounding small
    phase = np.empty(t.shape + n.shape, dtype=complex)
    phase[...] = np.exp(2j * np.pi * (t - np.round(t)))[..., None]
    np.multiply.accumulate(phase, axis=-1, out=phase)
    total = (phase.imag / (np.pi * n)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


# Bytes harmonic_lambda_sums states per (D value, residue): the weights,
# and one class's square histograms, spectra and pair counts; and per
# value n of a chunk of the weights' sums.
_HARMONIC_BYTES = 64


def harmonic_lambda_sums(q: int, D):
    """The harmonic-weighted absolute sums of the circle sums:

        U = sum_{1 <= n <= D}      |lam(q; n, 0)| / n
        V = sum_{1 <= n, m <= D}   |lam(q; n, m)| / (n m)

    lam is q-periodic in both arguments, so the weights 1/n collapse onto
    residues, w(u) = sum of 1/n over n = u (mod q).  For odd q the
    Kloosterman decomposition of `lambdasums.lambda_fast_odd` makes
    lam(q; n, m) depend only on g = gcd(n, m, q) and t = (n/g)^2 + (m/g)^2
    mod q/g: with r | g, l = q/r and s = g/r its terms are

        q (-1)**((l-1)/2) / l * K(l; 1, -inv(4) * s * (s*t mod q/g)),

    so each class g takes its values Lam_g(t) from the FFT rows
    `kloosterman_row(l)`, each read once.  U sums w(g a) |Lam_g(a^2)|
    over the a coprime to q/g.  V weighs every |Lam_g(t)| by the weight of
    the pairs (a, b) with a^2 + b^2 = t (mod q/g) and gcd(a, b, q/g) = 1:
    a cyclic convolution, by `np.fft.rfft`, of the weights binned by
    square, with Moebius inclusion-exclusion over the squarefree e | q/g
    for the gcd.  For q = 2 q1, lam(q; n, m) = ((-1)**n + (-1)**m) times
    lam(q1; n/2, m/2) (see `lambda_any`), so the weights split by parity,
    twisted by inv(2) mod q1; for 4 | q, lam vanishes and so do U and V.

    D is an int, giving floats U and V, or a 1-D integer array, giving
    arrays with one entry per D (empty for an empty D); the weights are
    summed CHUNK_ENTRIES values n at a time.  The modulus is checked
    against the per-residue ceiling, then sigma(q) complex class values,
    the rows' tables at RESIDUE_BYTES a residue, and _HARMONIC_BYTES per
    (D, residue) and per n of a chunk are stated to the budget before
    anything is allocated; no q x q array is held.
    """
    q = _check_modulus(q)
    Ds = np.asarray(D)
    if Ds.dtype.kind not in "iu" or Ds.ndim > 1 or np.any(Ds < 2):
        raise ValueError(f"D must be an int or a 1-D array of ints >= 2, got {D}")
    if q % 8 == 0:
        raise ValueError(f"modulus divisible by 8 is out of contract: {q}")
    expsums._check_table(q, "harmonic_lambda_sums")  # the rows' tables, before q is factored
    half = q % 2 == 0  # q = 2 q1: the weights split by parity
    q1 = q // 2 if half else q
    chunk = expsums.CHUNK_ENTRIES
    check_bytes(16 * sum(divisors(q1)) + expsums.RESIDUE_BYTES * q1
                + _HARMONIC_BYTES * (Ds.size * q + min(chunk, int(Ds.max(initial=0)))),
                f"harmonic_lambda_sums({q}) on {Ds.size} values of D")
    U, V = np.zeros(Ds.size), np.zeros(Ds.size)
    if q % 4 and Ds.size:
        # row i holds w for D[i], or [W_0 | W_1] when half: W_p(a) sums the
        # 1/n with n = p (mod 2) and inv(2) n = a (mod q1)
        weights = np.zeros((Ds.size, q))
        twist = pow(2, -1, q1) if half else 1
        for row, d in zip(weights, Ds.ravel().tolist()):
            for lo in range(1, d + 1, chunk):
                n = np.arange(lo, min(lo + chunk, d + 1), dtype=np.int64)
                key = _mod_in_place(n % q1 * twist, q1)
                if half:
                    key += (n & 1) * q1
                np.add.at(row, key, 1.0 / n)
        U, V = _odd_harmonic_sums(q1, weights.reshape(-1, q1))
        if half:
            U, V = 2 * U[0::2], 2 * (V[0::2] + V[1::2])
    if Ds.ndim == 0:
        return float(U[0]), float(V[0])
    return U, V


def _odd_harmonic_sums(q: int, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U and V of `harmonic_lambda_sums` for odd q, one per row of residue
    weights (shape (rows, q))."""
    divs = divisors(q)
    lam = {g: np.zeros(q // g, dtype=complex) for g in divs}  # Lam_g(t), t in [0, q/g)
    for l in divs:
        r = q // l
        row = expsums.kloosterman_row(l)
        row *= q * lambdasums._sign(l) / l
        c = -pow(4, -1, l) % l  # 0 at l = 1
        for g in divs:
            if g % r:
                continue
            s, Q = g // r, q // g
            t = _mod_in_place(np.arange(0, s * Q, s, dtype=np.int64), Q)
            t *= s * c  # below l**2
            lam[g] += row[_mod_in_place(t, l)]
    U, V = np.zeros(weights.shape[0]), np.zeros(weights.shape[0])
    for g in divs:
        Q = q // g
        w = weights[:, ::g]  # the residues g*a, a in [0, Q)
        a = np.arange(Q, dtype=np.int64)
        sq = _mod_in_place(a * a, Q)
        mags = np.abs(lam.pop(g))
        U += w @ np.where(np.gcd(a, Q) == 1, mags[sq], 0.0)  # a = 0 is a unit at Q = 1
        hist = np.empty(w.shape)
        spectrum = 0
        for e in divisors(Q):
            mu = mobius(e)
            if not mu:
                continue
            # the weights of the a = 0 (mod e), binned by a^2 mod Q
            for h, row in zip(hist, w):
                h[:] = np.bincount(sq[::e], weights=row[::e], minlength=Q)
            f = np.fft.rfft(hist, axis=1)
            f *= f
            f *= mu
            spectrum += f
        del hist
        V += np.fft.irfft(spectrum, n=Q, axis=1) @ mags
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
    lam(d^2) is the product of lam(p^2) over d's prime factors.  States
    24 bytes per d to `check_bytes` before anything is allocated: the
    Moebius sieve, and two float arrays with the sieve of primes beside
    them.
    """
    dmax = _check_modulus(dmax, "dmax")
    check_bytes(24 * (dmax + 1), f"dirichlet_partial_sum({dmax})")
    mu = mobius_sieve(dmax)[1:]
    terms = _prime_divisor_product(dmax, _lambda_p2)[1:]
    terms *= mu
    d = np.arange(1, dmax + 1, dtype=float)
    d **= 4
    terms /= d
    return float(np.sum(terms))


def dirichlet_tail_bound(dmax: int) -> float:
    """Bound on |sum_{d > dmax} mu(d) lam(d^2) / d^4|.

    For squarefree d each prime factor contributes p(p +- 1) <= 2p^2,
    so the term is at most tau(d)/d^2.  That is summed exactly out to
    20*dmax and closed with tau(d) <= 2*sqrt(d) beyond.  States 32 bytes
    per unit of M = 20*dmax to `check_bytes` before anything is
    allocated: the squarefree flags, two float arrays over [1, M] and
    their squarefree entries.
    """
    dmax = _check_modulus(dmax, "dmax")
    M = 20 * dmax
    check_bytes(32 * (M + 1), f"dirichlet_tail_bound({dmax})")
    squarefree = mobius_sieve(M)[dmax + 1 :] != 0
    tau = _prime_divisor_product(M, lambda p: np.full(p.size, 2.0))[dmax + 1 :]  # 2^omega(d)
    d = np.arange(dmax + 1, M + 1, dtype=float)
    return float(np.sum(tau[squarefree] / d[squarefree] ** 2)) + 4.0 / math.sqrt(M)

"""Elementary and modular number theory primitives.

Factorization, the Moebius and divisor-count functions, Jacobi symbols,
modular inverses and square roots modulo odd prime powers.  Factoring
and primality take n < 2**32, which covers every modulus the package
tabulates; larger n raise ValueError.  Everything here is a pure
function of its arguments; returned arrays and tuples are safe to share
across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "BudgetError",
    "factorize",
    "mobius",
    "mobius_sieve",
    "tau",
    "mod_inverse",
    "jacobi",
    "sqrt_mod",
    "is_prime",
    "primes_upto",
    "divisors",
]

# Memory budget of primes_upto and mobius_sieve, in bytes.
DEFAULT_SIEVE_BUDGET = 2**28

# Default memory budget in bytes: the packed value sieve's budget (2 GiB
# is 2**34 bits, one per odd n, so it covers the odd n <= 2H^2 + 1 up to
# H = 131,071; H = 16000 takes 32 MB), and the one from which the ceiling
# on per-residue tables is set.
DEFAULT_MEMORY_BUDGET = 2**31


class BudgetError(Exception):
    """An operation would exceed its configured memory budget."""


def _check_primes_budget(limit: int) -> None:
    """BudgetError, before anything is allocated, if `primes_upto(limit)`
    needs more than DEFAULT_SIEVE_BUDGET bytes."""
    if limit + 1 > DEFAULT_SIEVE_BUDGET:
        raise BudgetError(
            f"primes_upto({limit}) needs {limit + 1} bytes, budget is {DEFAULT_SIEVE_BUDGET}")


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2).

    Sieves one byte per value, within DEFAULT_SIEVE_BUDGET bytes.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    _check_primes_budget(limit)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


# Every composite n < 2**32 has a prime factor below 2**16.
_FACTOR_LIMIT = 1 << 32
_TRIAL_PRIMES = tuple(primes_upto(1 << 16).tolist())


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    """Primality of an integer n < 2**32 (False below 2), by the trial
    division of `factorize`; ValueError for n >= 2**32."""
    return n >= 2 and factorize(n)[0][0] == n


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical prime factorization as (prime, exponent) pairs.

    Primes are strictly increasing; factorize(1) is the empty list.
    Trial division by the primes below 2**16 is exact for 1 <= n < 2**32,
    and n outside that range raises ValueError.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"expected a positive integer, got {n!r}")
    if n < 1 or n >= _FACTOR_LIMIT:
        raise ValueError(f"n must satisfy 1 <= n < 2**32, got {n}")
    factors: list[tuple[int, int]] = []
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if n > 1:
        # No prime factor up to sqrt(n) (every one below 2**16), so n is prime.
        factors.append((n, 1))
    return factors


def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)**#primes."""
    facs = factorize(n)
    if any(e >= 2 for _, e in facs):
        return 0
    return -1 if len(facs) % 2 else 1


def mobius_sieve(N: int) -> np.ndarray:
    """Array a with a[n] = mobius(n) for 1 <= n <= N (a[0] is 0).

    Needs about 2N bytes of scratch; rejects N beyond DEFAULT_SIEVE_BUDGET
    bytes before allocating.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if 2 * (N + 1) > DEFAULT_SIEVE_BUDGET:
        raise BudgetError(
            f"mobius_sieve({N}) needs ~{2 * (N + 1)} bytes, budget is {DEFAULT_SIEVE_BUDGET}")
    mu = np.ones(N + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_upto(N):
        mu[p::p] *= -1
        sq = p * p
        if sq <= N:
            mu[sq::sq] = 0
    return mu


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    result = 1
    for _, e in factorize(n):
        result *= e + 1
    return result


def mod_inverse(k: int, q: int) -> int:
    """The r in [0, q) with k*r = 1 (mod q); requires gcd(k, q) = 1."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    g = math.gcd(k, q)
    if g != 1:
        raise ValueError(f"{k} is not invertible modulo {q} (gcd = {g})")
    return pow(k, -1, q)


def jacobi(a: int, q: int) -> int:
    """Jacobi symbol (a/q) for odd q >= 1; 0 iff gcd(a, q) > 1."""
    if q < 1 or q % 2 == 0:
        raise ValueError(f"modulus must be an odd positive integer, got {q}")
    a %= q
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if q % 8 in (3, 5):
                result = -result
        a, q = q, a
        if a % 4 == 3 and q % 4 == 3:
            result = -result
        a %= q
    return result if q == 1 else 0


def _tonelli(a: int, p: int):
    """One square root of a modulo an odd prime p, or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # p = 1 (mod 4): Tonelli-Shanks.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def sqrt_mod(a: int, p: int, e: int = 1) -> list[int]:
    """All y in [0, p**e) with y*y = a (mod p**e), for an odd prime p.

    Solves modulo p with Tonelli-Shanks, then lifts.  Returns a sorted
    list, empty when a has no square root.  Rejects p = 2 (the caller
    is expected to scan the few residues of a 2-power modulus directly).
    """
    if p == 2:
        raise ValueError("p = 2 not supported; scan the 2-power modulus directly")
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    modulus = p**e
    a %= modulus
    if a == 0:
        step = p ** ((e + 1) // 2)
        return list(range(0, modulus, step))
    # Split off the p-part of a: a = p**k * b with b a unit.
    k, b = 0, a
    while b % p == 0:
        b //= p
        k += 1
    if k % 2:
        return []
    f = e - k  # roots are p**(k//2) * w with w*w = b (mod p**f)
    r = _tonelli(b % p, p)
    if r is None:
        return []
    pj = p
    target = p**f
    while pj < target:
        pj = min(pj * pj, target)
        r = (r - (r * r - b) * pow(2 * r, -1, pj)) % pj
    half = p ** (k // 2)
    out = []
    for w0 in (r, target - r):
        out.extend(half * (w0 + t * target) for t in range(half))
    return sorted(out)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))

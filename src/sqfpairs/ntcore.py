"""Elementary and modular number theory primitives.

Factorization, the Moebius and divisor-count functions, Jacobi symbols,
modular inverses and square roots modulo odd prime powers.  Factoring
and primality take n < 2**32, which covers every modulus the package
tabulates under the default budget; larger n raise ValueError.
`sqrt_mod` broadcasts over an integer array of residues, so one call
solves every a mod p**e, in int64 arithmetic for p**e < 2**31.
Everything here is a pure function of its arguments; returned arrays and
tuples are safe to share across threads.  The package's one memory
budget lives here too: every allocator states its bytes to `check_bytes`.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
from functools import lru_cache

import numpy as np

__all__ = [
    "BudgetError",
    "memory_budget",
    "budget_scope",
    "check_bytes",
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

# Default memory budget in bytes, the one limit on every checked
# allocation.  2 GiB is 2**34 bits, one per odd n, so the packed value
# sieve covers the odd n <= 2H^2 + 1 up to H = 131,071 (H = 16000 takes
# 32 MB); at 128 bytes per residue it admits tables of 2**24 residues.
DEFAULT_MEMORY_BUDGET = 2**31

_BUDGET: contextvars.ContextVar[int | None] = contextvars.ContextVar("budget", default=None)


class BudgetError(Exception):
    """An operation would exceed its configured memory budget."""


def memory_budget() -> int:
    """The byte budget in effect: the innermost `budget_scope`, else
    SQFPAIRS_MEMORY_BUDGET, else DEFAULT_MEMORY_BUDGET.  A budget <= 0
    raises ValueError."""
    budget = _BUDGET.get()
    if budget is None:
        env = os.environ.get("SQFPAIRS_MEMORY_BUDGET")
        budget = int(env) if env else DEFAULT_MEMORY_BUDGET
    if budget <= 0:
        raise ValueError(f"memory budget must be positive, got {budget}")
    return budget


@contextlib.contextmanager
def budget_scope(nbytes: int):
    """Run the body under a budget of nbytes (ValueError on entry if it is
    not positive).  The budget is a context variable: threads started
    inside the body do not see it."""
    token = _BUDGET.set(int(nbytes))
    try:
        memory_budget()  # a budget <= 0 raises here, on entry
        yield
    finally:
        _BUDGET.reset(token)


def check_bytes(nbytes: int, what: str) -> None:
    """BudgetError if `what` needs more than `memory_budget()` bytes; the
    only place it is raised, always before the allocation."""
    budget = memory_budget()
    if nbytes > budget:
        raise BudgetError(f"{what} needs {nbytes} bytes, budget is {budget}")


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2).

    Sieves one byte per value; states 2 bytes per value to `check_bytes`,
    which bounds the flags plus the returned primes.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    check_bytes(2 * (limit + 1), f"primes_upto({limit})")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64, copy=False)


# Every composite n < 2**32 has a prime factor below 2**16.
_FACTOR_LIMIT = 1 << 32
# Built under the default budget, so that importing the package never
# depends on SQFPAIRS_MEMORY_BUDGET.
with budget_scope(DEFAULT_MEMORY_BUDGET):
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

    States 3 bytes per value to `check_bytes`: the int8 result plus the
    scratch of `primes_upto(N)`.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    check_bytes(3 * (N + 1), f"mobius_sieve({N})")
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


def _check_modulus(q, name: str = "modulus") -> int:
    """q as an int: a positive int or numpy integer, not a bool or a
    float; ValueError naming `name` otherwise."""
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool) or q < 1:
        raise ValueError(f"{name} must be a positive integer, got {q!r}")
    return int(q)


def _reduce(q: int, a) -> np.ndarray:
    """a mod q as an int64 array (0-d for a scalar).

    a is an int or an integer array; anything else (floats, bools) raises
    ValueError rather than being truncated.  The reduction comes first and
    never in place, so a Python int beyond int64 is accepted and the
    caller's array is not modified.
    """
    if not ((isinstance(a, (int, np.integer)) and not isinstance(a, bool))
            or (isinstance(a, np.ndarray) and a.dtype.kind in "iu")):
        raise ValueError(f"arguments must be integers or integer arrays, got {a!r}")
    return np.asarray(a % q, dtype=np.int64)


# Below this many entries one int64 `%` is faster than the floor division,
# multiply and subtract that replace it on larger arrays: numpy divides by
# a scalar through libdivide in `floor_divide` but not in `remainder`.
REMAINDER_ENTRIES = 1 << 10


def _mod_in_place(a: np.ndarray, m: int, spare: np.ndarray | None = None) -> np.ndarray:
    """a mod m, in place in the int64 array a, which is returned; `spare`,
    an int64 array of a's shape, takes the quotients if given."""
    if a.size < REMAINDER_ENTRIES:
        return np.remainder(a, m, out=a)
    spare = np.floor_divide(a, m, out=spare)
    spare *= m
    a -= spare
    return a


def _powmod(base: np.ndarray, exp: int, m: int) -> np.ndarray:
    """base**exp mod m elementwise, by int64 square-and-multiply; needs
    m*m < 2**63 so that no product overflows.  The caller's array is not
    modified."""
    base = np.array(base, dtype=np.int64)  # a copy, squared in place
    result = np.full_like(base, 1 % m)
    spare = np.empty_like(base)
    while exp:
        if exp & 1:
            result *= base
            _mod_in_place(result, m, spare)
        exp >>= 1
        if exp:
            base *= base
            _mod_in_place(base, m, spare)
    return result


def jacobi(a: int, q: int) -> int:
    """Jacobi symbol (a/q) for odd q >= 1; 0 iff gcd(a, q) > 1.

    a and q are ints or numpy integers; bools and floats raise ValueError.
    """
    for v in (a, q):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ValueError(f"arguments must be integers, got {v!r}")
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


def _tonelli(b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, ok) for an array b of residues mod an odd prime p: r*r = b
    (mod p) where ok, and ok is False exactly at the non-residues and 0.

    Tonelli-Shanks with its loop unrolled to s - 1 masked steps, where
    p - 1 = 2**s * q with q odd.  Invariant: r*r = b*t, and before the
    step for k the order of t divides 2**k for a residue b, while c has
    order 2**(k + 1).  A non-residue's t keeps order 2**s, so it never
    reaches 1.
    """
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    r = _powmod(b, (q + 1) // 2, p)
    t = _powmod(b, q, p)
    if s > 1:
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        for k in range(s - 1, 0, -1):
            flip = _powmod(t, 1 << (k - 1), p) != 1
            r = np.where(flip, r * c % p, r)
            c = c * c % p
            t = np.where(flip, t * c % p, t)
    return r, t == 1


# sqrt_mod works in int64: every product of two residues mod p**e < 2**31
# fits.
_SQRT_MODULUS_LIMIT = 1 << 31


def sqrt_mod(a, p: int, e: int = 1) -> list:
    """All y in [0, p**e) with y*y = a (mod p**e), for an odd prime p.

    a is an int or numpy integer, for which the result is a sorted list
    (empty when a has no square root), or a 1-D integer array, for which
    it is a list of such lists, one per entry.  Entries are reduced mod
    p**e first, so negatives and ints beyond int64 are accepted.  p and e
    are ints or numpy integers; bools and floats, as a, p or e, raise
    ValueError, and so does p**e >= 2**31.

    With a = p**k * b, b a unit: Tonelli-Shanks solves w*w = b (mod p)
    for every entry at once, a Hensel lift takes w to p**e, and the roots
    are p**(k/2) * w (mod p**(e - k/2)) for even k.  Rejects p = 2 (the
    caller is expected to scan the few residues of a 2-power modulus
    directly).
    """
    p = _check_modulus(p, "p")
    if p == 2:
        raise ValueError("p = 2 not supported; scan the 2-power modulus directly")
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if not isinstance(e, (int, np.integer)) or isinstance(e, bool) or e < 1:
        raise ValueError(f"exponent must be an integer >= 1, got {e!r}")
    e = int(e)
    modulus = p**e
    if modulus >= _SQRT_MODULUS_LIMIT:
        raise ValueError(f"p**e must be below 2**31, got {p}**{e}")
    a = _reduce(modulus, a)
    if a.ndim > 1:
        raise ValueError(f"a must be an integer or a 1-D integer array, got shape {a.shape}")
    flat = np.atleast_1d(a)
    # a = p**k * b with b a unit, since a nonzero a < p**e has k <= e - 1;
    # a = 0 leaves b = 0, a non-residue to Tonelli-Shanks, and is set last.
    b, k = flat.copy(), np.zeros_like(flat)
    for _ in range(e - 1):
        step = b % p == 0
        b[step] //= p
        k += step
    w, residue = _tonelli(b % p, p)
    # Hensel: w -> w - (w*w - b) / (2w), doubling the power of p each step.
    pj = p
    while pj < modulus:
        pj = min(pj * pj, modulus)
        inv = _powmod(2 * w % pj, pj // p * (p - 1) - 1, pj)
        w = (w - (w * w - b) % pj * inv) % pj
    low = np.minimum(w, modulus - w)
    out = np.stack([low, modulus - low], 1).tolist()
    solvable = residue & (k % 2 == 0)
    for i in np.flatnonzero(~solvable).tolist():
        out[i] = []
    lifted = np.flatnonzero(solvable & (k > 0))
    for i, ki, wi in zip(lifted.tolist(), k[lifted].tolist(), w[lifted].tolist()):
        target, half = p ** (e - ki), p ** (ki // 2)
        w0 = wi % target
        out[i] = sorted(half * (r + t * target) for r in (w0, target - w0) for t in range(half))
    for i in np.flatnonzero(flat == 0).tolist():
        out[i] = list(range(0, modulus, p ** ((e + 1) // 2)))
    return out if a.ndim else out[0]


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return tuple(sorted(divs))

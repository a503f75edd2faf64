"""Elementary and modular number theory primitives.

Factorization, the Moebius and divisor-count functions, Jacobi symbols,
modular inverses and square roots modulo odd prime powers.  Integer
arguments are ints or numpy integers; a bool or a float raises
ValueError naming the argument.  Factoring and primality take n < 2**32,
which covers every modulus the package tabulates under the default
budget; larger n raise ValueError.
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
from array import array

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
# allocation.  The pair probe states its windows, scratch and schedule,
# 3.6 MB at H = 16000 and 843 MB on one worker at its top H = 5,621,211;
# at 128 bytes per residue 2 GiB admits tables of 2**24 residues.
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
        budget = _env_integer("SQFPAIRS_MEMORY_BUDGET", DEFAULT_MEMORY_BUDGET)
    if budget <= 0:
        raise ValueError(f"memory budget must be positive, got {budget}")
    return budget


def _env_integer(name: str, default: int) -> int:
    """The environment variable `name` as an int, `default` when it is
    unset or empty; ValueError naming it when it is not an integer."""
    env = os.environ.get(name)
    try:
        return int(env) if env else default
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {env!r}") from None


def _integer(n, name: str) -> int:
    """n as an int (an int as it is, or a numpy integer); ValueError naming `name` otherwise."""
    if type(n) is int:
        return n
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return int(n)


@contextlib.contextmanager
def budget_scope(nbytes: int):
    """Run the body under a budget of nbytes, an int or numpy integer
    (ValueError on entry if it is not positive, or a bool, a float or a
    string).  The budget is a context variable: threads started inside
    the body do not see it unless they run in a copy of the context, as
    the pair probe's workers do."""
    token = _BUDGET.set(_integer(nbytes, "memory budget"))
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
    limit = _integer(limit, "limit")
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
# depends on SQFPAIRS_MEMORY_BUDGET; packed, as each fits a uint16.
with budget_scope(DEFAULT_MEMORY_BUDGET):
    _TRIAL_PRIMES = array("H", primes_upto(1 << 16).astype(np.uint16).tobytes())


def is_prime(n: int) -> bool:
    """Primality of an integer n < 2**32 (False below 2), by the trial
    division of `factorize`; ValueError for n >= 2**32."""
    n = _integer(n, "n")
    return n >= 2 and factorize(n)[0][0] == n


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical prime factorization as (prime, exponent) pairs.

    Primes are strictly increasing; factorize(1) is the empty list.
    Trial division by the primes below 2**16 is exact for 1 <= n < 2**32,
    and n outside that range raises ValueError.
    """
    n = _integer(n, "n")
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
    N = _check_modulus(N, "N")
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
    """The r in [0, q) with k*r = 1 (mod q); requires q >= 1 and gcd(k, q) = 1."""
    k, q = _integer(k, "k"), _check_modulus(q, "q")
    g = math.gcd(k, q)
    if g != 1:
        raise ValueError(f"{k} is not invertible modulo {q} (gcd = {g})")
    return pow(k, -1, q)


def _check_modulus(q, name: str = "modulus") -> int:
    """q as a positive int, taken as `_integer` takes it; ValueError naming `name` otherwise."""
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
    return np.asarray(_check_integers(a, "arguments") % q, dtype=np.int64)


def _check_integers(a, name: str):
    """a, an integer or an integer array; ValueError naming `name` otherwise."""
    if not ((isinstance(a, (int, np.integer)) and not isinstance(a, bool))
            or (isinstance(a, np.ndarray) and a.dtype.kind in "iu")):
        raise ValueError(f"{name} must be integers or integer arrays, got {a!r}")
    return a


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
    """Jacobi symbol (a/q) for odd q >= 1; 0 iff gcd(a, q) > 1."""
    a, q = _integer(a, "a"), _integer(q, "q")
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
    e = _check_modulus(e, "e")
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
    solvable = residue & (k % 2 == 0)
    out = [[r, modulus - r] if ok else [] for r, ok in zip(low.tolist(), solvable.tolist())]
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

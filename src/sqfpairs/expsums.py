"""Gauss and Kloosterman exponential sums.

Direct summation over residues is the ground truth here; the
identity-based evaluators (`gauss_reduce`, `gauss_closed_odd`) must
reproduce it and are tested against it.  Sums are accumulated by numpy,
whose pairwise summation keeps rounding error orders of magnitude below
the 1e-6 comparison tolerance for every modulus in scope.

`kloosterman_direct` and `gauss_closed_odd` broadcast over their
arguments: n and m may be ints or integer arrays, and one call evaluates
every (n, m) pair against the same phase table, so a sweep over many
arguments costs one call per modulus.  The FFT helpers
(`gauss_direct_table`, `kloosterman_row`) evaluate the direct sums for
the whole residue grid at once; they exist because several verification
sweeps range over all (n, m) pairs.

Every evaluator here and in `lambdasums` checks its modulus with
`_check_modulus` and its arguments with `_reduce`: q is a positive int or
numpy integer (not a bool), and n and m are ints or integer arrays, with
Python ints beyond int64 accepted and floats rejected, not truncated.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ntcore import jacobi

__all__ = [
    "complex_close",
    "phase_table",
    "unit_table",
    "gauss_direct",
    "gauss_reduce",
    "gauss_closed_odd",
    "gauss_direct_table",
    "kloosterman_direct",
    "kloosterman_row",
]

# Absolute comparison tolerance, scaled by max(1, magnitude).
TOLERANCE = 1e-6


def complex_close(a, b, tol: float = TOLERANCE):
    """True where a and b agree within tol * max(1, |a|, |b|) and both are
    finite: a bool for scalars, a bool array (elementwise) for arrays."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf; rejected by isfinite below
        close = np.abs(a - b) <= tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
    close &= np.isfinite(a) & np.isfinite(b)
    return bool(close) if close.ndim == 0 else close


@lru_cache(maxsize=512)
def phase_table(q: int) -> np.ndarray:
    """roots[t] = exp(2*pi*i*t/q) for t in [0, q); shared and read-only."""
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=512)
def unit_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, inverses): the x in [1, q] coprime to q and their inverses mod q.

    The inverses come from Euler's theorem, inv(u) = u**(phi(q) - 1) mod q
    with phi(q) = units.size, by int64 square-and-multiply over the whole
    array; products stay below q**2, which fits int64 for any q whose
    q-long table can be allocated.

    For q = 1 the single residue is x = 1 with inverse 0, matching the
    convention that a sum over units mod 1 has exactly one term.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q == 1:
        units = np.array([1], dtype=np.int64)
        invs = np.array([0], dtype=np.int64)
    else:
        x = np.arange(1, q + 1, dtype=np.int64)
        units = x[np.gcd(x, q) == 1]
        invs = np.ones_like(units)
        power = units.copy()
        e = units.size - 1
        while e:
            if e & 1:
                invs = invs * power % q
            power = power * power % q
            e >>= 1
    units.setflags(write=False)
    invs.setflags(write=False)
    return units, invs


def _check_modulus(q) -> int:
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool) or q < 1:
        raise ValueError(f"modulus must be a positive integer, got {q!r}")
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


def gauss_direct(q: int, n: int, m: int) -> complex:
    """Sum of exp(2*pi*i*(n*x^2 + m*x)/q) over x = 1..q by direct summation."""
    q = _check_modulus(q)
    n, m = int(_reduce(q, n)), int(_reduce(q, m))
    if q == 1:
        return 1 + 0j
    x = np.arange(1, q + 1, dtype=np.int64)
    t = (n * x % q * x + m * x) % q
    return complex(phase_table(q)[t].sum())


def gauss_reduce(q: int, n: int, m: int) -> complex:
    """Quadratic Gauss sum via gcd reduction of the quadratic coefficient.

    With d = gcd(q, n): the sum equals d * G(q/d; n/d, m/d) when d | m
    and vanishes otherwise.  The reduced sum is evaluated directly.
    """
    q = _check_modulus(q)
    n, m = int(_reduce(q, n)), int(_reduce(q, m))
    d = math.gcd(q, n)
    if m % d:
        return 0j
    return d * gauss_direct(q // d, n // d, m // d)


def _gauss_unit(q: int) -> complex:
    # G(q; 1) for odd q: sqrt(q) when q = 1 (mod 4), i*sqrt(q) when q = 3.
    # The square is (-1)**((q-1)/2) * q; the branch is pinned by direct
    # summation at q = 5 and q = 3 (see the test suite).
    return math.sqrt(q) * (1 if q % 4 == 1 else 1j)


def gauss_closed_odd(q: int, n, m):
    """Closed form of the Gauss sum for odd q with gcd(q, 2n) = 1.

    Equals e_q(-inv(4n) * m^2) * jacobi(n, q) * G(q; 1).  Broadcasts over
    n and m like `kloosterman_direct`: a complex for scalar arguments, a
    complex array of the broadcast shape otherwise.  Raises ValueError if
    gcd(q, 2n) != 1 for any n.
    """
    q = _check_modulus(q)
    n, m = _reduce(q, n), _reduce(q, m)
    if q % 2 == 0 or np.any(np.gcd(n, q) != 1):
        raise ValueError(f"need gcd(q, 2n) = 1 for every n, got q={q}, n={n}")
    # one Python-int inverse and symbol per n, none per m
    inv4n = np.asarray(np.frompyfunc(pow, 3, 1)(4 * n, -1, q), dtype=np.int64)
    symbol = np.asarray(np.frompyfunc(jacobi, 2, 1)(n, q), dtype=np.int64)
    t = -inv4n * (m * m % q) % q
    total = phase_table(q)[t] * (symbol * _gauss_unit(q))
    return complex(total) if total.ndim == 0 else total


def kloosterman_direct(q: int, n, m):
    """Sum of exp(2*pi*i*(n*x + m*inv(x))/q) over the units x mod q.

    n and m are ints or integer arrays that broadcast together.  Scalar
    arguments give a complex; otherwise the result is a complex array of
    the broadcast shape, one sum per (n, m) pair.  The arguments are
    reduced mod q first (the caller's arrays are not modified), so ints
    beyond int64 are accepted.
    """
    q = _check_modulus(q)
    n, m = _reduce(q, n), _reduce(q, m)
    units, invs = unit_table(q)
    t = (np.multiply.outer(n, units) + np.multiply.outer(m, invs)) % q
    total = phase_table(q)[t].sum(axis=-1)
    return complex(total) if total.ndim == 0 else total


def gauss_direct_table(q: int) -> np.ndarray:
    """gauss_direct(q, n, m) for every (n, m) in [0, q)^2, as a (q, q) array.

    Batched direct summation: the grid is the 2-D inverse DFT of the
    histogram of (x^2 mod q, x mod q) over x = 1..q, scaled by q^2.
    """
    q = _check_modulus(q)
    x = np.arange(1, q + 1, dtype=np.int64)
    hist = np.zeros((q, q))
    np.add.at(hist, (x * x % q, x % q), 1.0)
    return np.fft.ifft2(hist) * (q * q)


def kloosterman_row(q: int, n: int = 1) -> np.ndarray:
    """kloosterman_direct(q, n, c) for every c in [0, q), as a length-q array.

    Batched direct summation: substituting y = inv(x) turns the sum into
    a 1-D inverse DFT of y -> e_q(n * inv(y)) over the units y.
    """
    q = _check_modulus(q)
    n = int(_reduce(q, n))
    units, invs = unit_table(q)
    v = np.zeros(q, dtype=complex)
    v[units % q] = phase_table(q)[(n * invs) % q]
    return np.fft.ifft(v) * q

"""Gauss and Kloosterman exponential sums.

Direct summation over residues is the ground truth here; the
identity-based evaluators (`gauss_reduce`, `gauss_closed_odd`) must
reproduce it and are tested against it.  Sums are accumulated by numpy,
whose pairwise summation keeps rounding error orders of magnitude below
the 1e-6 comparison tolerance for every modulus in scope.

`kloosterman_direct` and `gauss_closed_odd` broadcast over their
arguments: n and m may be ints or integer arrays, and one call evaluates
every (n, m) pair against the same phase table, so a sweep over many
arguments costs one call per modulus.  `kloosterman_direct` gathers its
phases CHUNK_ENTRIES (pair, unit) entries at a time, so beside its
tables and its result it holds under 1 MiB however many pairs and units
it sums.  The FFT helpers evaluate the direct sums for many arguments at
once: `kloosterman_row` for every m at one n, and `gauss_direct_table`
for every m at the rows n it is given (all of [0, q) by default), so a
verification sweep builds only the rows it compares, a slab at a time.

Every evaluator here and in `lambdasums` checks its modulus with
`ntcore._check_modulus` and its arguments with `ntcore._reduce`, which
`sqrt_mod` shares: q is a positive int or numpy integer (not a bool),
and n and m are ints or integer arrays, with Python ints beyond int64
accepted and floats rejected, not truncated.
Each call builds the per-residue tables it reads (`phase_table`,
`unit_table`) and keeps none, and a table whose RESIDUE_BYTES per entry
exceed the memory budget raises BudgetError before it is allocated; so
does a broadcast direct sum whose (pairs x terms) grid, at GRID_BYTES
per entry, exceeds it, though it sums that grid a chunk at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .ntcore import (DEFAULT_MEMORY_BUDGET, _check_modulus, _powmod, _reduce, check_bytes,
                     factorize, jacobi)

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

# Bytes stated per entry of a per-residue table (phases, units, solution
# sets) or grid.  The `lambda` command peaks at 80-94 bytes per residue
# (RSS growth at odd and even q near 1e6 and 3e6), so the budget caps a
# modulus at budget/RESIDUE_BYTES residues: the ceiling, 2**24 at the
# default budget.
RESIDUE_BYTES = 128
DEFAULT_SOLVE_CEILING = DEFAULT_MEMORY_BUDGET // RESIDUE_BYTES
# Bytes stated per entry of a broadcast direct sum's (pairs x terms)
# grid: the index arithmetic and the gathered phases peak at 24.
GRID_BYTES = 32
# A broadcast direct sum gathers at most this many (pair, term) phases at
# a time: with their indices, 0.75 MiB.
CHUNK_ENTRIES = 1 << 15


def complex_close(a, b, tol: float = TOLERANCE):
    """True where a and b agree within tol * max(1, |a|, |b|) and both are
    finite: a bool for scalars, a bool array (elementwise) for arrays."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf; rejected by isfinite below
        close = np.abs(a - b) <= tol * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
    close &= np.isfinite(a) & np.isfinite(b)
    return bool(close) if close.ndim == 0 else close


def phase_table(q: int) -> np.ndarray:
    """roots[t] = exp(2*pi*i*t/q) for t in [0, q)."""
    q = _check_table(q, "phase_table")
    return np.exp(2j * np.pi * np.arange(q) / q)


def unit_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, inverses): the x in [1, q] coprime to q and their inverses mod q.

    The units are what is left of [1, q] once the multiples of each prime
    factor of q are struck.  The inverses come from Euler's theorem,
    inv(u) = u**(phi(q) - 1) mod q with phi(q) = units.size, by int64
    square-and-multiply over the whole array; products stay below q**2,
    which fits int64 for any q under the ceiling.

    For q = 1 the single residue is x = 1 with inverse 0, matching the
    convention that a sum over units mod 1 has exactly one term.
    """
    q = _check_table(q, "unit_table")
    coprime = np.ones(q + 1, dtype=bool)
    coprime[0] = False
    for p, _ in factorize(q):
        coprime[::p] = False
    units = np.flatnonzero(coprime).astype(np.int64, copy=False)
    return units, _powmod(units, units.size - 1, q)


def _check_table(q, name: str, dims: int = 1) -> int:
    """q as an int (see `_check_modulus`); BudgetError naming `name`, before
    anything is allocated, if the table's q**dims entries (dims = 2 for a
    (q, q) grid) at RESIDUE_BYTES each exceed the budget."""
    q = _check_modulus(q)
    grid = f" on a {q}^{dims} grid" if dims > 1 else ""
    check_bytes(RESIDUE_BYTES * q**dims,
                f"{name}({q}){grid}, past the ceiling of budget/{RESIDUE_BYTES} residues,")
    return q


def _check_grid(n, m, terms: int, what: str) -> None:
    """BudgetError, before anything is allocated, if a direct sum of
    `terms` terms for each (n, m) pair of the broadcast needs more than
    the budget at GRID_BYTES per (pair, term) entry."""
    pairs = np.broadcast(n, m).size
    check_bytes(GRID_BYTES * pairs * terms, f"{what} on {pairs} pairs x {terms} terms")


def gauss_direct(q: int, n: int, m: int) -> complex:
    """Sum of exp(2*pi*i*(n*x^2 + m*x)/q) over x = 1..q by direct summation."""
    q = _check_modulus(q)
    n, m = int(_reduce(q, n)), int(_reduce(q, m))
    roots = phase_table(q)
    x = np.arange(1, q + 1, dtype=np.int64)
    t = (n * x % q * x + m * x) % q
    return complex(roots[t].sum())


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
    beyond int64 are accepted.  The modulus is checked against the
    ceiling, then the (pairs x units) grid is stated to the budget at
    GRID_BYTES per entry, with q units, before the units are listed.
    The sums run over blocks of pairs by chunks of units, at most
    CHUNK_ENTRIES entries at a time.
    """
    q = _check_table(q, "kloosterman_direct")
    n, m = _reduce(q, n), _reduce(q, m)
    _check_grid(n, m, q, f"kloosterman_direct({q})")
    units, invs = unit_table(q)
    roots = phase_table(q)
    shape = np.broadcast(n, m).shape
    nm = np.empty((2,) + shape, dtype=np.int64)  # the pairs, flattened below
    nm[0], nm[1] = n, m
    n, m = nm.reshape(2, -1)
    total = np.zeros(n.size, dtype=complex)
    block = max(1, min(n.size, CHUNK_ENTRIES))  # pairs per block
    width = max(1, CHUNK_ENTRIES // block)  # units per chunk
    for lo in range(0, n.size, block):
        ns, ms = n[lo : lo + block], m[lo : lo + block]
        for at in range(0, units.size, width):
            t = np.multiply.outer(ns, units[at : at + width])
            t += np.multiply.outer(ms, invs[at : at + width])
            t %= q
            total[lo : lo + block] += np.take(roots, t).sum(axis=-1)
    return complex(total[0]) if shape == () else total.reshape(shape)


def gauss_direct_table(q: int, rows=None) -> np.ndarray:
    """gauss_direct(q, n, m) for every n in `rows` and every m in [0, q),
    as an array of shape rows.shape + (q,); with rows None, every n in
    [0, q), as a (q, q) array.

    rows is an int or an integer array, reduced mod q, in any order and
    with repeats.  Batched direct summation: row n is the unnormalised
    inverse DFT of x -> e_q(n * x^2) over x in [0, q) (x = q taken as 0),
    taken in place.  The modulus is checked against the per-residue
    ceiling, then the rows x q entries are stated at RESIDUE_BYTES each,
    before anything is allocated.  The roots of unity are built here, not
    by `phase_table`, which `gauss_closed_odd` reads and this grid is the
    oracle of.
    """
    q = _check_table(q, "gauss_direct_table")
    x = np.arange(q, dtype=np.int64)
    n = x if rows is None else _reduce(q, rows)
    check_bytes(RESIDUE_BYTES * n.size * q, f"gauss_direct_table({q}) on {n.size} rows x {q} "
                f"residues, past the ceiling of budget/{RESIDUE_BYTES} residues,")
    roots = np.exp(2j * np.pi * x / q)
    t = np.multiply.outer(n, x * x % q)
    t %= q
    grid = np.take(roots, t)
    del t
    return np.fft.ifft(grid, axis=-1, norm="forward", out=grid)


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

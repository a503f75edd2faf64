"""Gauss and Kloosterman exponential sums.

Direct summation over residues is the ground truth here; the
identity-based evaluators (`gauss_reduce`, `gauss_closed_odd`) must
reproduce it and are tested against it.  Sums are accumulated by numpy,
whose pairwise summation keeps rounding error orders of magnitude below
the 1e-6 comparison tolerance for every modulus in scope.

`kloosterman_direct` and `gauss_closed_odd` broadcast over their
arguments: n and m may be ints or integer arrays, and one call evaluates
every (n, m) pair against the same phase table, so a sweep over many
arguments costs one call per modulus.  `kloosterman_direct` sums up to
CHUNK_ENTRIES (pair, unit) entries in one step and more a chunk of that
size at a time, so beside its tables and its result it holds under 1 MiB
however many pairs and units it sums.  The FFT helpers evaluate the
direct sums for many arguments at once: `kloosterman_row` for every c at
n = 1, and `gauss_direct_table` for every m at the rows n it is given, so
a verification sweep builds only the rows it compares, a slab at a time.

The per-modulus tables take O(q) numpy passes.  `phase_table` takes
cosines and sines over half a turn and mirrors the rest by conjugation.
`unit_table` lists the units mod each prime-power factor as the powers
of a primitive root (+-5**k mod 2**e), whose inverses are the same
powers read backwards, joins the factors by the Chinese remainder
theorem and scatters the units into sorted order.  Reductions mod q of
more than `ntcore.REMAINDER_ENTRIES` int64 entries are a floor division,
a multiply and a subtract, which numpy runs faster than `%`; the two
direct sums carry their own copy of those three lines, since
`lambdasums.lambda_direct` is the oracle of `lambda_fast_odd`, which
calls `kloosterman_direct`.

Every evaluator here and in `lambdasums` checks its modulus with
`ntcore._check_modulus` and its arguments with `ntcore._reduce`, which
`sqrt_mod` shares: q is a positive int or numpy integer (not a bool),
and n and m are ints or integer arrays, with Python ints beyond int64
accepted and floats rejected, not truncated.
Each call builds the per-residue tables it reads (`phase_table`,
`unit_table`) and keeps none, and a table whose RESIDUE_BYTES per entry
exceed the memory budget raises BudgetError before it is allocated; so
does a broadcast direct sum whose pairs, at PAIR_BYTES each, and largest
chunk, at GRID_BYTES per entry, exceed it, and a broadcast closed form or
decomposition whose pairs exceed BROADCAST_BYTES each.
"""

from __future__ import annotations

import math

import numpy as np

from .ntcore import (DEFAULT_MEMORY_BUDGET, REMAINDER_ENTRIES, _check_modulus, _mod_in_place,
                     _reduce, check_bytes, factorize)

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
# A broadcast direct sum gathers at most this many (pair, term) phases at
# a time: with their indices, 0.75 MiB.
CHUNK_ENTRIES = 1 << 15
# Bytes stated per (pair, term) entry of a direct sum's chunk: the index
# arithmetic and the gathered phases peak at 24.
GRID_BYTES = 32
# Bytes stated per pair of a direct sum: the flattened arguments and the
# sums, 16 each, and a block's partial sums, 16.
PAIR_BYTES = 48
# Bytes stated per pair of `gauss_closed_odd`, `lambda_fast_odd` and
# `lambda_any`, which sum no terms per pair: traced, 200,000 pairs mod 101
# to 60,062 peak at 57-67, 57-61 and 73-77 bytes a pair.
BROADCAST_BYTES = 96


def complex_close(a, b):
    """True where a and b are finite and agree within TOLERANCE * max(1,
    |a|, |b|): a bool for scalars, a bool array (elementwise) for arrays."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf; rejected by isfinite below
        close = np.abs(a - b) <= TOLERANCE * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))
    close &= np.isfinite(a) & np.isfinite(b)
    return bool(close) if close.ndim == 0 else close


def phase_table(q: int) -> np.ndarray:
    """roots[t] = exp(2*pi*i*t/q) for t in [0, q).

    Half a turn of cosines and sines, t in [0, q/2]; the rest mirrors
    it, roots[q - t] = conj(roots[t]).  Within 2e-15 of `np.exp`.
    """
    q = _check_table(q, "phase_table")
    half = q // 2 + 1
    angle = np.arange(half) * (2 * np.pi / q)
    roots = np.empty(q, dtype=complex)
    np.cos(angle, out=roots.real[:half])
    np.sin(angle, out=roots.imag[:half])
    np.conjugate(roots[q - half : 0 : -1], out=roots[half:])
    return roots


def unit_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units, inverses): the x in [1, q] coprime to q and their inverses mod q.

    The units mod each prime-power factor p**e of q form a cycle: the
    powers g**k of a primitive root g (for p = 2, the +-5**k), whose
    inverses are the same powers in reverse order.  The factors are
    joined by the Chinese remainder theorem and the units scattered into
    sorted order; every product stays below q**2, which fits int64 for
    any q under the ceiling.

    For q = 1 the single residue is x = 1 with inverse 0, matching the
    convention that a sum over units mod 1 has exactly one term.
    """
    q = _check_table(q, "unit_table")
    if q == 1:
        return np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    (p, e), *rest = factorize(q)
    pair = _cyclic_units(p, e)  # the units and, beneath them, their inverses
    done = p**e
    for p, e in rest:
        pe = p**e
        # x = a * c_done + b * c_pe (mod done * pe), where c_done is 1 mod
        # done and 0 mod pe, and c_pe the other way round
        both = done * pe
        a = _mod_in_place(pair * (pe * pow(pe, -1, done)), both)
        b = _mod_in_place(_cyclic_units(p, e) * (done * pow(done, -1, pe)), both)
        pair = (a[:, :, None] + b[:, None, :]).reshape(2, -1)
        np.subtract(pair, both, out=pair, where=pair >= both)
        done = both
    inverse_of = np.zeros(q, dtype=np.int64)  # 0 off the units, where no inverse is
    inverse_of[pair[0]] = pair[1]
    units = np.flatnonzero(inverse_of)
    return units, inverse_of[units]


def _cyclic_units(p: int, e: int) -> np.ndarray:
    """The units mod p**e in cyclic order, and beneath each its inverse, as
    a (2, phi(p**e)) array: g**k for a primitive root g when p is odd, 5**k
    then -5**k when p = 2.  With the powers g**k for k in [0, order], the
    inverse of g**k is g**(order - k), the same powers read backwards."""
    pe = p**e
    if pe == 2:
        return np.ones((2, 1), dtype=np.int64)
    if p == 2:
        powers = _powers(5, (pe >> 2) + 1, pe)
        pair = np.array((powers[:-1], powers[:0:-1]))
        return np.concatenate((pair, pe - pair), axis=1)
    cofactors = [(p - 1) // f for f, _ in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p  # then a primitive root mod p**2, hence mod every p**e
    powers = _powers(g, pe // p * (p - 1) + 1, pe)
    return np.array((powers[:-1], powers[:0:-1]))


def _powers(g: int, count: int, pe: int) -> np.ndarray:
    """g**k mod pe for k in [0, count): one by one up to 64 of them, else
    from two tables of about sqrt(count) entries, g**(s*j + i) =
    (g**s)**j * g**i."""
    s = count if count <= 64 else math.isqrt(count - 1) + 1
    low = [1] * s
    for i in range(1, s):
        low[i] = low[i - 1] * g % pe
    if s == count:
        return np.array(low, dtype=np.int64)
    high = [1] * -(-count // s)
    step = low[-1] * g % pe
    for j in range(1, len(high)):
        high[j] = high[j - 1] * step % pe
    return _mod_in_place(np.multiply.outer(high, low).ravel()[:count], pe)


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
    """BudgetError, before anything is allocated, if a direct sum of at
    most `terms` terms for each (n, m) pair of the broadcast would hold
    more than the budget beside its per-residue tables: PAIR_BYTES a pair,
    and its largest chunk, a block of pairs by a run of terms, at
    GRID_BYTES an entry."""
    pairs = np.broadcast(n, m).size
    block = max(1, min(pairs, CHUNK_ENTRIES))
    chunk = block * max(1, min(terms, CHUNK_ENTRIES // block))
    check_bytes(PAIR_BYTES * pairs + GRID_BYTES * chunk, f"{what} on {pairs} pairs x {terms} terms")


def _check_pairs(n, m, what: str) -> None:
    """BudgetError, before anything beside the reduced n and m is allocated,
    if their broadcast pairs at BROADCAST_BYTES each exceed the budget."""
    pairs = np.broadcast(n, m).size
    check_bytes(BROADCAST_BYTES * pairs, f"{what} on {pairs} pairs")


def gauss_direct(q: int, n: int, m: int) -> complex:
    """Sum of exp(2*pi*i*(n*x^2 + m*x)/q) over x = 1..q by direct summation."""
    q = _check_modulus(q)
    n, m = int(_reduce(q, n)), int(_reduce(q, m))
    roots = phase_table(q)
    x = np.arange(1, q + 1, dtype=np.int64)
    t = _mod_in_place(x * x, q)
    t *= n
    t += m * x
    return complex(roots[_mod_in_place(t, q)].sum())


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
    gcd(q, 2n) != 1 for any n.  The Jacobi symbol is the product of the
    Legendre symbols (n/p) over the p**e exactly dividing q with e odd,
    each read off a table of the squares mod p, and inv(4n) is read off
    `unit_table`'s inverses: one O(q) pass per modulus, none per n.
    """
    q = _check_table(q, "gauss_closed_odd")
    n, m = _reduce(q, n), _reduce(q, m)
    _check_pairs(n, m, f"gauss_closed_odd({q})")
    if q % 2 == 0 or np.any(np.gcd(n, q) != 1):
        raise ValueError(f"need gcd(q, 2n) = 1 for every n, got q={q}, n={n}")
    units, invs = unit_table(q)
    # n is a unit, and so is 4n mod q: its inverse is found among the units
    t = q - invs[np.searchsorted(units, 4 * n % q)]  # -inv(4n) mod q, in [1, q]
    symbol = np.ones_like(t)
    for p, e in factorize(q):
        if e % 2:
            legendre = np.full(p, -1)  # 0 is never read: n is a unit
            legendre[np.arange(p) ** 2 % p] = 1
            symbol = symbol * legendre[n % p]
    t = _mod_in_place(np.asarray(t * (m * m % q)), q)  # every product below q**2
    total = phase_table(q)[t] * (symbol * _gauss_unit(q))
    return complex(total) if total.ndim == 0 else total


def kloosterman_direct(q: int, n, m):
    """Sum of exp(2*pi*i*(n*x + m*inv(x))/q) over the units x mod q.

    n and m are ints or integer arrays that broadcast together.  Scalar
    arguments give a complex; otherwise the result is a complex array of
    the broadcast shape, one sum per (n, m) pair.  The arguments are
    reduced mod q first (the caller's arrays are not modified), so ints
    beyond int64 are accepted.  The modulus is checked against the
    ceiling, then what the sum holds (`_check_grid`, with q units) is
    stated to the budget before the units are listed.  Up to
    CHUNK_ENTRIES (pair, unit) entries are summed in one step; more run
    over blocks of pairs by chunks of units, CHUNK_ENTRIES at a time.
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

    def chunk(ns, ms, us, vs):
        t = np.multiply.outer(ns, us)
        s = np.multiply.outer(ms, vs)
        t += s
        if t.size < REMAINDER_ENTRIES:
            t %= q
        else:  # t mod q, by numpy's faster floor division
            np.floor_divide(t, q, out=s)
            s *= q
            t -= s
        del s
        return np.take(roots, t).sum(axis=-1)

    if n.size * units.size <= CHUNK_ENTRIES:
        total = chunk(n, m, units, invs)
    else:
        total = np.zeros(n.size, dtype=complex)
        block = min(n.size, CHUNK_ENTRIES)  # pairs per block
        width = max(1, CHUNK_ENTRIES // block)  # units per chunk
        for lo in range(0, n.size, block):
            ns, ms = n[lo : lo + block], m[lo : lo + block]
            for at in range(0, units.size, width):
                total[lo : lo + block] += chunk(ns, ms, units[at : at + width],
                                                invs[at : at + width])
    return complex(total[0]) if shape == () else total.reshape(shape)


def gauss_direct_table(q: int, rows) -> np.ndarray:
    """gauss_direct(q, n, m) for every n in `rows` and every m in [0, q),
    as an array of shape rows.shape + (q,).

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
    n = _reduce(q, rows)
    check_bytes(RESIDUE_BYTES * n.size * q, f"gauss_direct_table({q}) on {n.size} rows x {q} "
                f"residues, past the ceiling of budget/{RESIDUE_BYTES} residues,")
    # the roots over half a turn, mirrored by conjugation
    half = q // 2 + 1
    angle = x[:half] * (2 * np.pi / q)
    roots = np.empty(q, dtype=complex)
    np.cos(angle, out=roots.real[:half])
    np.sin(angle, out=roots.imag[:half])
    np.conjugate(roots[q - half : 0 : -1], out=roots[half:])
    t = _mod_in_place(np.multiply.outer(n, _mod_in_place(x * x, q)), q)
    grid = np.take(roots, t)
    del t
    return np.fft.ifft(grid, axis=-1, norm="forward", out=grid)


def kloosterman_row(q: int) -> np.ndarray:
    """kloosterman_direct(q, 1, c) for every c in [0, q), as a length-q array.

    Batched direct summation: substituting y = inv(x) turns the sum into
    a 1-D inverse DFT of y -> e_q(inv(y)) over the units y.
    """
    q = _check_modulus(q)
    units, invs = unit_table(q)
    v = np.zeros(q, dtype=complex)
    v[units % q] = phase_table(q)[invs]
    return np.fft.ifft(v) * q

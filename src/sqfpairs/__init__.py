"""sqfpairs: how often is x^2 + y^2 + 1 squarefree?

Exact pair counting by two independent routes (a squarefree value sieve
and a Moebius/congruence identity), evaluators for the Gauss,
Kloosterman and circle-congruence exponential sums with their classical
bounds as testable properties, the Euler-product density constant with
an explicit tail bound, and a scanner that measures the growth exponent
of the error term S(H) - c*H^2.
"""

from .ntcore import (
    BudgetError,
    factorize,
    is_prime,
    jacobi,
    mobius,
    mobius_sieve,
    mod_inverse,
    primes_upto,
    sqrt_mod,
    tau,
)
from .expsums import (
    complex_close,
    gauss_closed_odd,
    gauss_direct,
    gauss_reduce,
    kloosterman_direct,
)
from .lambdasums import (
    SolutionSet,
    lambda_any,
    lambda_direct,
    lambda_fast_odd,
    lambda_multiplicative,
    solve_circle,
)
from .counting import (
    PairCountReport,
    SquarefreeSieve,
    build_sieve,
    congruent_pair_count,
    count_pairs_direct,
    count_pairs_ladder,
    count_pairs_mobius,
    count_pairs_mobius_truncated,
    residue_count,
)
from .asymptotic import (
    EulerProductEstimate,
    ScanResult,
    ScanRow,
    constant_c,
    error_scan,
    harmonic_lambda_sums,
    lambda_p_squared,
    rho,
    rho_fourier,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "EulerProductEstimate",
    "PairCountReport",
    "ScanResult",
    "ScanRow",
    "SolutionSet",
    "SquarefreeSieve",
    "build_sieve",
    "complex_close",
    "congruent_pair_count",
    "constant_c",
    "count_pairs_direct",
    "count_pairs_ladder",
    "count_pairs_mobius",
    "count_pairs_mobius_truncated",
    "error_scan",
    "factorize",
    "gauss_closed_odd",
    "gauss_direct",
    "gauss_reduce",
    "harmonic_lambda_sums",
    "is_prime",
    "jacobi",
    "kloosterman_direct",
    "lambda_any",
    "lambda_direct",
    "lambda_fast_odd",
    "lambda_multiplicative",
    "lambda_p_squared",
    "mobius",
    "mobius_sieve",
    "mod_inverse",
    "primes_upto",
    "residue_count",
    "rho",
    "rho_fourier",
    "solve_circle",
    "sqrt_mod",
    "tau",
]

"""sqfpairs: how often is x^2 + y^2 + 1 squarefree?

Exact pair counting by two independent routes (a squarefree value sieve
and a Moebius/congruence identity), evaluators for the Gauss,
Kloosterman and circle-congruence exponential sums with their classical
bounds as testable properties, the Euler-product density constant with
an explicit tail bound, and a scanner that measures the growth exponent
of the error term S(H) - c*H^2.

The exponential-sum modules (`expsums`, `lambdasums`, `verify`) are
loaded lazily: each one runs, and is compiled, when one of its
attributes is first read, so the counting commands never load them.
"""

import importlib.util
import sys


def _lazy(name):
    """The submodule `name`, registered in sys.modules but executed only
    when one of its attributes is first read (importlib's LazyLoader,
    which is not thread-safe: no pool worker may be the first to read)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# before `asymptotic`, whose `from . import expsums, lambdasums` must find these
expsums, lambdasums, verify = (_lazy(name) for name in ("expsums", "lambdasums", "verify"))

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
from .counting import (
    PairCountReport,
    SquarefreeSieve,
    build_sieve,
    congruent_pair_count,
    count_pairs_direct,
    count_pairs_ladder,
    count_pairs_mobius,
    count_pairs_mobius_ladder,
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

# the names re-exported from the lazy modules, read through __getattr__
_DEFERRED = {
    **dict.fromkeys(("complex_close", "gauss_closed_odd", "gauss_direct", "gauss_reduce",
                     "kloosterman_direct"), expsums),
    **dict.fromkeys(("SolutionSet", "lambda_any", "lambda_direct", "lambda_fast_odd",
                     "lambda_multiplicative", "solve_circle"), lambdasums),
}

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
    "count_pairs_mobius_ladder",
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


def __getattr__(name):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

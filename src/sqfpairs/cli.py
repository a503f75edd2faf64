"""Command-line front end.

Subcommands: count (exact S(H) by one or both routes), lambda (the
circle exponential sum by every applicable evaluator), constant (the
Euler-product constant c with its error bound), scan (the error-term
ladder with a fitted exponent) and verify (the cross-oracle property
suites).

Exit codes: 0 success, 1 usage error, 2 memory budget exceeded,
3 verification failure (including disagreement between evaluators).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import asymptotic, counting, lambdasums, verify  # the last two load on first use
from .ntcore import BudgetError, _check_modulus, _env_integer, budget_scope, memory_budget

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFICATION = 3


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqfpairs", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--memory-budget", type=int, default=None,
                        help="byte budget of every large allocation (sieves, "
                             "per-residue tables), a positive integer (default: "
                             "SQFPAIRS_MEMORY_BUDGET or 2 GiB)")

    probe = argparse.ArgumentParser(add_help=False)  # for the commands that probe pairs
    probe.add_argument("--threads", type=int, default=None,
                       help="worker threads, at most one per CPU (default: SQFPAIRS_THREADS or 1)")

    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[common, probe], help="exact S(H)")
    p_count.add_argument("--H", type=int, required=True)
    p_count.add_argument("--method", choices=("value-sieve", "mobius-identity", "both"),
                         default="both")

    p_lambda = sub.add_parser("lambda", parents=[common],
                              help="circle sum by all applicable evaluators")
    p_lambda.add_argument("--q", type=int, required=True)
    p_lambda.add_argument("--n", type=int, required=True)
    p_lambda.add_argument("--m", type=int, required=True)

    p_const = sub.add_parser("constant", parents=[common], help="Euler product constant")
    p_const.add_argument("--P", type=int, required=True)

    p_scan = sub.add_parser("scan", parents=[common, probe], help="error-term ladder")
    p_scan.add_argument("--H-ladder", type=_int_list, required=True,
                        help="comma-separated increasing H values")
    p_scan.add_argument("--P", type=int, default=10**5)

    p_verify = sub.add_parser("verify", parents=[common], help="cross-oracle suites")
    p_verify.add_argument("--suite", action="append", dest="suites", metavar="NAME",
                          help="run only this suite (repeatable); default: all")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the sampled suites (default: verify.DEFAULT_SEED)")
    p_verify.add_argument("--list", action="store_true", help="list suite names and exit")
    return parser


def _emit_reports_csv(reports):
    print("H,S,method,elapsed_seconds")
    for r in reports:
        print(f"{r.H},{r.S},{r.method},{r.elapsed!r}")


def _cmd_count(args) -> int:
    methods = ("value-sieve", "mobius-identity") if args.method == "both" else (args.method,)
    reports = []
    for method in methods:
        if method == "value-sieve":
            reports.append(counting.count_pairs_direct(args.H, threads=args.threads))
        else:
            reports.append(counting.count_pairs_mobius(args.H))
    if args.output_format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in reports]))
    elif args.output_format == "csv":
        _emit_reports_csv(reports)
    else:
        for r in reports:
            print(f"S({r.H}) = {r.S}  [{r.method}, {r.elapsed:.3f}s]")
    if len(reports) == 2 and reports[0].S != reports[1].S:
        print(f"MISMATCH: value-sieve {reports[0].S} != mobius-identity {reports[1].S}",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_lambda(args) -> int:
    q, n, m = args.q, args.n, args.m
    values = [("direct", lambdasums.lambda_direct(q, n, m))]
    if q % 2 == 1:
        # for odd q, lambda_any returns lambda_fast_odd(q, n, m) unchanged
        fast = lambdasums.lambda_fast_odd(q, n, m)
        values += [("fast-odd", fast), ("any", fast)]
    elif q % 8 != 0:
        values.append(("any", lambdasums.lambda_any(q, n, m)))
    ref = values[0][1]
    agree = all(abs(v - ref) <= lambdasums.LAMBDA_TOLERANCE * q for _, v in values)
    if args.output_format == "json":
        print(json.dumps({
            "q": q, "n": n, "m": m,
            "evaluations": [{"evaluator": name, "re": v.real, "im": v.imag}
                            for name, v in values],
            "agree": agree,
        }))
    elif args.output_format == "csv":
        print("evaluator,re,im")
        for name, v in values:
            print(f"{name},{v.real!r},{v.imag!r}")
        print(f"# agree={str(agree).lower()}")
    else:
        for name, v in values:
            im = round(v.imag, 9)  # a rounded -0.0 prints as + 0
            print(f"lambda({q};{n},{m}) = {v.real:.9f} {'-' if im < 0 else '+'} "
                  f"{abs(im):.9f}i  [{name}]")
        print(f"agreement: {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_VERIFICATION


def _cmd_constant(args) -> int:
    est = asymptotic.constant_c(args.P)
    if args.output_format == "json":
        print(json.dumps(dataclasses.asdict(est)))
    elif args.output_format == "csv":
        print("cutoff,value,tail_bound")
        print(f"{est.cutoff},{est.value!r},{est.tail_bound!r}")
    else:
        print(f"c = {est.value:.9f} (primes up to {est.cutoff}, "
              f"log-tail bound {est.tail_bound:.3e})")
    return EXIT_OK


def _cmd_scan(args) -> int:
    result = asymptotic.error_scan(args.H_ladder, args.P, threads=args.threads)
    alpha = result.alpha
    if args.output_format == "json":
        print(json.dumps({
            "rows": [dataclasses.asdict(r) for r in result.rows],
            "alpha": alpha,
            "c": result.c,
            "P": result.cutoff,
            "excluded": result.excluded,
            "sieve_seconds": result.sieve_elapsed,
        }))
    elif args.output_format == "csv":
        print("H,S,E,elapsed_seconds")
        for r in result.rows:
            print(f"{r.H},{r.S},{r.E!r},{r.elapsed!r}")
        print(f"# alpha={alpha!r},c={result.c!r},P={result.cutoff}")
    else:
        print(f"sieve build {result.sieve_elapsed:.2f}s (summed over segments), "
              "included in elapsed, the probe time to each row")
        print(f"{'H':>8} {'S':>14} {'E':>14} {'elapsed':>9}")
        for r in result.rows:
            print(f"{r.H:>8} {r.S:>14} {r.E:>14.1f} {r.elapsed:>8.2f}s")
        print(f"alpha = {alpha if alpha is not None else 'n/a (fewer than 4 usable rows)'}"
              f", c = {result.c:.9f} (P = {result.cutoff})")
        if result.excluded:
            print(f"excluded from fit (E = 0): {result.excluded}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.list:
        for name in verify.ALL_SUITES:
            print(name)
        return EXIT_OK
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    results = verify.run_suites(args.suites, seed=seed)
    if args.output_format == "json":
        print(json.dumps([dataclasses.asdict(r) for r in results]))
    elif args.output_format == "csv":
        print("suite,ok,checked,elapsed_seconds")
        for r in results:
            print(f"{r.name},{str(r.ok).lower()},{r.checked},{r.elapsed!r}")
    else:
        for r in results:
            print(r.line())
        passed = sum(r.ok for r in results)
        print(f"{passed}/{len(results)} suites passed")
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFICATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return EXIT_OK if code in (None, 0) else EXIT_USAGE
    try:
        if "threads" in args:  # count and scan: the flag, else SQFPAIRS_THREADS, else 1
            if args.threads is None:
                args.threads = _env_integer("SQFPAIRS_THREADS", 1)
            _check_modulus(args.threads, "threads")
        # resolved once; a budget <= 0 is a usage error for every command
        budget = memory_budget() if args.memory_budget is None else args.memory_budget
        with budget_scope(budget):
            return {"count": _cmd_count, "lambda": _cmd_lambda, "constant": _cmd_constant,
                    "scan": _cmd_scan, "verify": _cmd_verify}[args.command](args)
    except BudgetError as exc:
        print(f"sqfpairs: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"sqfpairs: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

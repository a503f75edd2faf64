"""Acceptance gate: every promised criterion at its stated tolerance.

Each test reads the verification suites behind its criterion from the
session's one run of all suites at seed 12345 (the `suite_results`
fixture).  The suites take a seed alone, so the sizes quoted in the
comments below are the suites' own sweeps, the ones the benchmark's
VERIFY_CHECKS pins.  Each test prints one PASS/FAIL line (visible with
pytest -s; the test outcome itself carries the same verdict either way).
Run on its own via:  pytest tests/test_acceptance.py -v -s
"""


def _report(number, label, results):
    ok = all(r.ok for r in results)
    checked = sum(r.checked for r in results)
    elapsed = sum(r.elapsed for r in results)
    print(f"[criterion {number:>2}] {label}: {'PASS' if ok else 'FAIL'} "
          f"({checked} checks, {elapsed:.1f}s)")
    for r in results:
        if r.notes:
            print(f"              {r.name}: {r.notes}")
        for f in r.failures[:5]:
            print(f"              {r.name} FAILURE: {f}")
    assert ok, f"criterion {number} failed: " + "; ".join(
        f for r in results for f in r.failures[:5]
    )


def test_criterion_01_oracle_equivalence(suite_results):
    # exact integer agreement of the two counting routes on
    # H in {1..50, 100, 150, 200}
    _report(1, "count_pairs_mobius == count_pairs_direct",
            [suite_results["count-oracle-equivalence"]])


def test_criterion_02_lambda_triple_agreement(suite_results):
    # direct, fast-odd (odd q) and any agree pairwise within 1e-5 * q for
    # all q <= 601 with 8 not dividing q, at (0,0) plus 10 random pairs per q
    _report(2, "lambda evaluator triple agreement (q <= 601)",
            [suite_results["lambda-triple-agreement"]])


def test_criterion_03_bound_suites(suite_results):
    # Weil bound up to q = 2000; circle-sum bound up to q = 1500, 8 not | q;
    # 20 random pairs per q, zero violations allowed
    _report(3, "Weil and circle-sum bounds",
            [suite_results["weil-bound"], suite_results["lambda-bound"]])


def test_criterion_04_gauss_identities(suite_results):
    # reduction (q <= 300) and closed-form (odd q <= 301) evaluators match
    # direct summation; square identity for all odd q <= 2001 within 1e-6
    # relative
    _report(4, "Gauss sum identities",
            [suite_results[name] for name in
             ("gauss-reduce-vs-direct", "gauss-closed-vs-direct", "gauss-square")])


def test_criterion_05_multiplicativity(suite_results):
    # 100 random coprime pairs with product <= 1e4
    _report(5, "coprime multiplicativity", [suite_results["lambda-multiplicative"]])


def test_criterion_06_constant_self_consistency(suite_results):
    # |c(2P) - c(P)| <= tail_bound(P) for P up to 1e4; the series form to
    # d = 500 within the combined tails of c(1e4)
    _report(6, "constant self-consistency",
            [suite_results["constant-consistency"], suite_results["dirichlet-form"]])


def test_criterion_07_asymptotic_scan(suite_results):
    # ladder 250..4000 with c from P = 1e5: |E(H)| <= 5 * H**1.5 per row
    # and fitted exponent alpha <= 1.6
    _report(7, "asymptotic error scan", [suite_results["scan-envelope"]])


def test_criterion_08_rho_truncation(suite_results):
    # sawtooth truncation under 3 * min(1, 1/(D * dist)) for D in
    # (10, 100, 1000), 1000 draws each
    _report(8, "sawtooth Fourier truncation envelope", [suite_results["rho-envelope"]])


def test_criterion_09_harmonic_envelope(suite_results):
    # U and V with exponents 0.7 / 0.2 and constant 20 on the full grid
    _report(9, "harmonic sum envelope", [suite_results["harmonic-envelope"]])


def test_criterion_10_prime_square_lift(suite_results):
    # lift law matches enumeration for all primes p <= 47; lam(4) = 0
    _report(10, "prime-square lift law", [suite_results["lambda-prime-square"]])

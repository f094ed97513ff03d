"""Acceptance suite: every criterion at its stated tolerance (exact equality).

Each test prints one ``[acceptance] criterion NN ...: PASS/FAIL`` line;
run ``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from biperiodic import (
    IdentityId,
    Mat2,
    QuadExt,
    SeqParams,
    SequenceKind,
    binet_fib,
    binet_lucas,
    det_power,
    eigen_decompose,
    evaluate,
    generating_matrix,
    mat_pow,
    matrix_power,
    roots,
    term_fast_counted,
    term_recurrence,
    verify_grid,
)
from conftest import classical_fib, classical_lucas, oracle_fib_table, oracle_lucas_table

FIB = SequenceKind.FIBONACCI
LUC = SequenceKind.LUCAS

# the standard verification grid, pinned here as literals
GRID_VALUES = (F(1), F(-1), F(2), F(3), F(1, 2), F(-3, 2))
GRID_PAIRS = [(a, b) for a in GRID_VALUES for b in GRID_VALUES]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {label}: {status}{suffix}")


def test_criterion_01_closed_form_power_equals_binary_exponentiation():
    start = time.perf_counter()
    report = verify_grid(
        IdentityId.MATRIX_FORM, GRID_VALUES, GRID_VALUES, n_range=(1, 64)
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.checked == 36 * 64
        and report.passed == report.checked
        and not report.excluded
        and elapsed < 10.0
    )
    _report(1, "closed-form power identity", ok, f"{report.checked} powers in {elapsed:.2f}s")
    assert report.passed == report.checked == 36 * 64
    assert elapsed < 10.0


def test_criterion_02_determinant_of_powers():
    report = verify_grid(IdentityId.DET_POWER, GRID_VALUES, GRID_VALUES, n_range=(1, 32))
    degenerate = SeqParams(1, -4)
    degenerate_report = verify_grid(IdentityId.DET_POWER, [1], [-4], n_range=(1, 32))
    degenerate_dets_zero = all(
        det_power(degenerate, n) == 0 and matrix_power(degenerate, n).det() == 0
        for n in range(1, 33)
    )
    ok = (
        report.passed == report.checked == 36 * 32
        and degenerate_report.passed == degenerate_report.checked == 32
        and degenerate_dets_zero
    )
    _report(2, "determinant formula incl. singular point", ok,
            f"{report.checked + degenerate_report.checked} checks")
    assert report.passed == report.checked == 36 * 32
    assert degenerate_report.passed == degenerate_report.checked == 32
    assert degenerate_dets_zero


def test_criterion_03_cassini_identities_and_published_variant():
    fib_report = verify_grid(IdentityId.CASSINI_FIB, GRID_VALUES, GRID_VALUES, n_range=(1, 200))
    lucas_report = verify_grid(IdentityId.CASSINI_LUCAS, GRID_VALUES, GRID_VALUES, n_range=(1, 200))
    p23 = SeqParams(2, 3)
    odd_failures = [
        n for n in range(1, 200, 2)
        if evaluate(IdentityId.THM4_I_PRINTED, p23, n)[0]
        != evaluate(IdentityId.THM4_I_PRINTED, p23, n)[1]
    ]
    ok = (
        fib_report.passed == fib_report.checked == 7200
        and lucas_report.passed == lucas_report.checked == 7200
        and bool(odd_failures)
    )
    _report(3, "Cassini identities; published variant must fail", ok,
            f"variant fails at {len(odd_failures)} odd indices at (2,3)")
    assert fib_report.passed == fib_report.checked == 7200
    assert lucas_report.passed == lucas_report.checked == 7200
    assert odd_failures


def test_criterion_04_binet_agrees_with_recurrence():
    checked = 0
    for a, b in GRID_PAIRS:
        p = SeqParams(a, b)
        assert p.disc != 0
        fib = oracle_fib_table(a, b, -50, 50)
        luc = oracle_lucas_table(a, b, -50, 50)
        for n in range(-50, 51):
            # binet_* finish each term through sequences._finished_term,
            # which raises unless its exact division leaves no remainder
            assert binet_fib(p, n) == fib[n], (a, b, n)
            assert binet_lucas(p, n) == luc[n], (a, b, n)
            checked += 2
    radical_zero = True
    for a, b in GRID_PAIRS:
        p = SeqParams(a, b)
        pair = roots(p)
        for n in range(-12, 13):
            fib_kernel = (pair.alpha**n - pair.beta**n) / (pair.alpha - pair.beta)
            lucas_kernel = pair.alpha**n + pair.beta**n
            radical_zero = radical_zero and fib_kernel.v == 0 and lucas_kernel.v == 0
    _report(4, "Binet forms vs recurrence oracle", radical_zero, f"{checked} values")
    assert radical_zero


def test_criterion_05_eigenstructure():
    for a, b in GRID_PAIRS:
        p = SeqParams(a, b)
        eig = eigen_decompose(p)  # checks G*U = U*diag internally
        g = generating_matrix(p)
        trace, det = g.trace(), g.det()
        zero = QuadExt(0, 0, p.disc)
        for lam in (eig.lambda1, eig.lambda2):
            assert lam * lam - trace * lam + det == zero, (a, b)
        assert (eig.lambda1 + eig.lambda2).as_rational() == trace
        assert (eig.lambda1 * eig.lambda2).as_rational() == det
    _report(5, "eigenvalues satisfy characteristic relations", True,
            f"{len(GRID_PAIRS)} parameter points")


def test_criterion_06_doubled_index_family_and_proof_intermediates():
    holding = [
        IdentityId.THM6_I,
        IdentityId.THM6_II,
        IdentityId.THM6_III,
        IdentityId.THM6_IV,
        IdentityId.THM6_V,
        IdentityId.THM6_VI_CORRECTED,
    ]
    family_ok = True
    for ident in holding:
        report = verify_grid(ident, GRID_VALUES, GRID_VALUES, n_range=(0, 25), m_range=(0, 25))
        family_ok = family_ok and report.passed == report.checked == 36 * 26 * 26
        assert report.passed == report.checked, ident

    # printed (vi): lhs = -rhs everywhere, so it fails exactly where lhs != 0
    sign_flip_ok = True
    for a, b in GRID_PAIRS:
        p = SeqParams(a, b)
        for m in range(0, 26):
            for n in range(0, 26):
                lhs, rhs = evaluate(IdentityId.THM6_VI_PRINTED, p, m, n)
                sign_flip_ok = sign_flip_ok and lhs == -rhs and ((lhs == rhs) == (lhs == 0))
    assert sign_flip_ok

    intermediates_ok = True
    for ident in (
        IdentityId.ADD_QQ,
        IdentityId.ADD_LL,
        IdentityId.ADD_LQ,
        IdentityId.SUB_QQ,
        IdentityId.SUB_LL,
        IdentityId.SUB_QL,
    ):
        report = verify_grid(ident, GRID_VALUES, GRID_VALUES, n_range=(-30, 30), m_range=(-30, 30))
        intermediates_ok = intermediates_ok and report.checked > 0 and report.passed == report.checked
        assert report.passed == report.checked, ident

    ok = family_ok and sign_flip_ok and intermediates_ok
    _report(6, "doubled-index identities and parity-conditional intermediates", ok)
    assert ok


def test_criterion_07_inverse_powers_cancel():
    report = verify_grid(IdentityId.INVERSE_POWER, GRID_VALUES, GRID_VALUES, n_range=(-16, 16))
    ok = report.passed == report.checked == 36 * 33 and not report.excluded
    _report(7, "G^n * G^(-n) = I", ok, f"{report.checked} products")
    assert ok


def test_criterion_08_classical_degeneration():
    p = SeqParams(1, 1)
    matrix_ok = generating_matrix(p) == Mat2(3, 1, 1, 2)

    from biperiodic import term_fast

    fib = classical_fib(32)
    lucas = classical_lucas(32)
    terms_ok = all(
        term_fast(p, FIB, n) == fib[n] and term_fast(p, LUC, n) == lucas[n]
        for n in range(31)
    )

    companion = Mat2(1, 1, 1, 0)
    sylvester_ok = all(
        mat_pow(companion, n) == Mat2(fib[n + 1], fib[n], fib[n], fib[n - 1])
        for n in range(1, 31)
    )
    ok = matrix_ok and terms_ok and sylvester_ok
    _report(8, "classical a=b=1 degeneration", ok)
    assert matrix_ok
    assert terms_ok
    assert sylvester_ok


def test_criterion_09_fast_path_performance():
    p = SeqParams(2, 3)
    n = 10_000
    bound = 2 * (n + 1).bit_length() + 2  # 2*ceil(log2(n+1)) + 2

    start = time.perf_counter()
    fast_fib, count_fib = term_fast_counted(p, FIB, n)
    fast_lucas, count_lucas = term_fast_counted(p, LUC, n)
    elapsed = time.perf_counter() - start

    slow_fib = term_recurrence(p, FIB, n)
    slow_lucas = term_recurrence(p, LUC, n)

    ok = (
        fast_fib == slow_fib
        and fast_lucas == slow_lucas
        and count_fib <= bound
        and count_lucas <= bound
        and elapsed < 1.0
    )
    _report(9, "fast path at n=10000", ok,
            f"counts {count_fib}/{count_lucas} <= {bound}, {elapsed * 1000:.0f}ms")
    assert fast_fib == slow_fib
    assert fast_lucas == slow_lucas
    assert count_fib <= bound
    assert count_lucas <= bound
    assert elapsed < 1.0


DOCUMENTED_COMMANDS = [
    ("term", "--kind", "fib", "--a", "2", "--b", "3", "--n", "5", "--method", "matrix"),
    ("term", "--kind", "lucas", "--a", "1", "--b", "1", "--n", "0"),
    ("term", "--kind", "fib", "--a", "2", "--b", "-2", "--n", "4", "--method", "binet"),
    ("matrix", "--a", "2", "--b", "3", "--n", "1", "--show", "entries"),
    ("matrix", "--a", "2", "--b", "3", "--n", "2", "--show", "det"),
    ("matrix", "--a", "1", "--b", "1", "--n", "0", "--show", "entries"),
    ("verify", "--identity", "cassini-fib", "--a-set", "1,2", "--b-set", "1,3", "--n-range", "1..50"),
    ("verify", "--identity", "thm6-vi-printed", "--a-set", "2", "--b-set", "3",
     "--m-range", "0..4", "--n-range", "0..4"),
    ("verify", "--identity", "all"),
    ("table", "--a", "1", "--b", "1", "--n-range", "0..6", "--kinds", "fib"),
    ("table", "--a", "2", "--b", "3", "--n-range", "-3..3", "--kinds", "fib"),
    ("table", "--a", "2", "--b", "3", "--n-range", "0..5", "--kinds", "lucas"),
]


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "biperiodic", *args], capture_output=True, env=env, cwd=ROOT
    )


def test_criterion_10_cli_contract():
    deterministic = True
    for args in DOCUMENTED_COMMANDS:
        first = _run_cli(args)
        second = _run_cli(args)
        same = (
            first.stdout == second.stdout
            and first.stderr == second.stderr
            and first.returncode == second.returncode
        )
        deterministic = deterministic and same
        assert same, f"non-deterministic output for {args}"

    verify_all = _run_cli(("verify", "--identity", "all"))
    verify_all_ok = verify_all.returncode == 0
    record = json.loads(verify_all.stdout)
    all_expected = record["all_as_expected"] is True

    ok = deterministic and verify_all_ok and all_expected
    _report(10, "CLI determinism and full verification run", ok,
            f"{len(DOCUMENTED_COMMANDS)} commands x2")
    assert verify_all_ok
    assert all_expected
    assert deterministic

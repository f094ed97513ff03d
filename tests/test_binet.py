from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biperiodic import binet as binet_module, exact
from biperiodic import (
    DegenerateDiscriminantError,
    Mat2,
    QuadExt,
    SeqParams,
    SequenceKind,
    binet_fib,
    binet_lucas,
    eigen_decompose,
    generating_matrix,
    parity,
    roots,
    term_fast,
    term_recurrence,
)
from conftest import classical_fib, classical_lucas, oracle_fib_table, oracle_lucas_table, pairs

FIB = SequenceKind.FIBONACCI
LUC = SequenceKind.LUCAS

GRID = [
    (a, b)
    for a in (F(1), F(-1), F(2), F(3), F(1, 2), F(-3, 2))
    for b in (F(1), F(-1), F(2), F(3), F(1, 2), F(-3, 2))
]


class TestRoots:
    def test_explicit_roots_at_2_3(self):
        pair = roots(SeqParams(2, 3))
        assert pair.alpha == QuadExt(3, F(1, 2), 60)
        assert pair.beta == QuadExt(3, F(-1, 2), 60)

    def test_root_identities_across_grid(self):
        for a, b in GRID:
            p = SeqParams(a, b)
            pair = roots(p)
            assert (pair.alpha + pair.beta).as_rational() == p.ab
            assert (pair.alpha * pair.beta).as_rational() == -p.ab
            diff = pair.alpha - pair.beta
            assert (diff * diff).as_rational() == p.disc

    def test_roots_solve_characteristic_equation(self):
        for a, b in [(F(2), F(3)), (F(1, 2), F(-3, 2))]:
            p = SeqParams(a, b)
            pair = roots(p)
            for root in (pair.alpha, pair.beta):
                residue = root * root - p.ab * root - p.ab
                assert residue == QuadExt(0, 0, p.disc)


class TestBinetValues:
    def test_frozen_fibonacci_values(self):
        assert binet_fib(SeqParams(2, 3), 4) == 16
        assert binet_fib(SeqParams(1, 1), 10) == 55

    def test_frozen_lucas_values(self):
        assert binet_lucas(SeqParams(2, 3), 4) == 62
        assert binet_lucas(SeqParams(1, 1), 6) == 18

    def test_lucas_at_zero_is_two(self):
        for a, b in GRID:
            assert binet_lucas(SeqParams(a, b), 0) == 2

    def test_frozen_fibonacci_values_on_the_line(self):
        # at (2, -2) the terms are +-n, so these values need no oracle
        p = SeqParams(2, -2)
        assert [binet_fib(p, n) for n in range(-4, 8)] == [4, -3, -2, 1, 0, 1, 2, -3, -4, 5, 6, -7]

    def test_lucas_works_at_degenerate_discriminant(self):
        # ab = -4 collapses the roots, but neither closed form divides by
        # alpha - beta, and the matrix kernel's entries are the terms there too
        for a, b in [(F(1), F(-4)), (F(1, 2), F(-8)), (F(2), F(-2)), (F(-3, 5), F(20, 3))]:
            p = SeqParams(a, b)
            assert p.disc == 0
            for kind, closed_form, table in ((FIB, binet_fib, oracle_fib_table),
                                             (LUC, binet_lucas, oracle_lucas_table)):
                t = table(a, b, -200, 200)
                for n in range(-200, 201):
                    assert closed_form(p, n) == term_fast(p, kind, n) == t[n], (a, b, kind, n)

    def test_agrees_with_recurrence_oracle(self):
        for a, b in GRID:
            p = SeqParams(a, b)
            assert p.disc != 0
            fib = oracle_fib_table(a, b, -50, 50)
            luc = oracle_lucas_table(a, b, -50, 50)
            for n in range(-50, 51):
                assert binet_fib(p, n) == fib[n], (a, b, n)
                assert binet_lucas(p, n) == luc[n], (a, b, n)

    def test_classical_values(self):
        p = SeqParams(1, 1)
        fib = classical_fib(25)
        lucas = classical_lucas(25)
        for n in range(25):
            assert binet_fib(p, n) == fib[n]
            assert binet_lucas(p, n) == lucas[n]

    @settings(deadline=None)
    @given(ab=pairs, n=st.integers(-60, 60))
    def test_random_parameters_match_oracle_tables(self, ab, n):
        a, b = ab
        p = SeqParams(a, b)
        lo, hi = min(n, 0), max(n, 1)
        assert binet_lucas(p, n) == oracle_lucas_table(a, b, lo, hi)[n]
        assert binet_fib(p, n) == oracle_fib_table(a, b, lo, hi)[n]

    def test_each_term_raises_alpha_to_one_power(self, monkeypatch):
        calls, counts, products = [], [], []
        power = exact._power
        multiply = binet_module._IntPair.__mul__

        def counted(x, n, one):
            calls.append(n)
            result = power(x, n, one)
            counts.append(result[1])
            return result

        def counted_product(x, y):
            products.append(None)
            return multiply(x, y)

        # every binding Binet can reach: its own import and QuadExt.__pow__'s
        for module in (exact, binet_module):
            monkeypatch.setattr(module, "_power", counted)
        monkeypatch.setattr(binet_module._IntPair, "__mul__", counted_product)
        cases = [
            (binet_fib, SeqParams(2, 3)),
            (binet_lucas, SeqParams(2, 3)),
            (binet_lucas, SeqParams(1, -4)),
        ]
        for closed_form, p in cases:
            for n in (-7, 0, 1, 12):
                for log in (calls, counts, products):
                    log.clear()
                closed_form(p, n)
                # one power of w = s*alpha^2/(ab), at half the index
                assert calls == [abs(n // 2)], (closed_form.__name__, p, n)
                # and no pair product outside it, odd n included
                assert len(products) == counts[0], (closed_form.__name__, p, n)


@settings(deadline=None)
@given(
    d=st.integers(-(10**6), 10**6),
    y=st.integers(-(2**80), 2**80),
    k=st.integers(-(2**80), 2**80),
)
def test_pair_square_matches_the_general_product(d, y, k):
    # (x + y*sqrt(d))/2 needs x = d*y (mod 2); x * copy takes the general path
    x = 2 * k + d * y % 2
    pair, copy = binet_module._IntPair(x, y, d), binet_module._IntPair(x, y, d)
    square, product = pair * pair, pair * copy
    assert (square.x, square.y, square.d) == (product.x, product.y, product.d)


class TestRadicalCancellation:
    def test_radical_component_is_exactly_zero_before_extraction(self):
        for a, b in [(F(2), F(3)), (F(-3, 2), F(1, 2)), (F(-1), F(1))]:
            p = SeqParams(a, b)
            pair = roots(p)
            for n in range(-12, 13):
                fib_kernel = (pair.alpha**n - pair.beta**n) / (pair.alpha - pair.beta)
                lucas_kernel = pair.alpha**n + pair.beta**n
                assert fib_kernel.v == 0
                assert lucas_kernel.v == 0

    def test_both_prefactor_forms_give_the_same_fibonacci_term(self):
        # a^(1-parity(n)) / (ab)^floor(n/2)  vs  1 / (a^floor((n-1)/2) * b^floor(n/2))
        for a, b in GRID:
            p = SeqParams(a, b)
            pair = roots(p)
            for n in range(-15, 16):
                kernel = (pair.alpha**n - pair.beta**n) / (pair.alpha - pair.beta)
                form_one = p.a ** (1 - parity(n)) / p.ab ** (n // 2)
                form_two = 1 / (p.a ** ((n - 1) // 2) * p.b ** (n // 2))
                assert form_one == form_two
                assert (form_one * kernel).as_rational() == term_recurrence(p, FIB, n)


class TestEigen:
    def test_defining_relation_and_invariants(self):
        for a, b in GRID:
            p = SeqParams(a, b)
            eig = eigen_decompose(p)
            g = generating_matrix(p)
            trace, det = g.trace(), g.det()
            for lam in (eig.lambda1, eig.lambda2):
                assert lam * lam - trace * lam + det == QuadExt(0, 0, p.disc)
            assert (eig.lambda1 + eig.lambda2).as_rational() == trace
            assert (eig.lambda1 * eig.lambda2).as_rational() == det
            zero = QuadExt(0, 0, p.disc)
            diag = Mat2(eig.lambda1, zero, zero, eig.lambda2)
            assert g * eig.u_matrix == eig.u_matrix * diag

    def test_eigenvector_matrix_structure(self):
        p = SeqParams(2, 3)
        eig = eigen_decompose(p)
        pair = roots(p)
        top = QuadExt(p.a * p.a / p.b, 0, p.disc)
        assert eig.u_matrix.e11 == top
        assert eig.u_matrix.e12 == top
        assert eig.u_matrix.e21 == -(p.a / p.b * pair.beta)
        assert eig.u_matrix.e22 == -(p.a / p.b * pair.alpha)
        assert eig.u_matrix.det() != QuadExt(0, 0, p.disc)

    def test_classical_case_satisfies_characteristic_polynomial(self):
        # for a = b = 1 the polynomial is x^2 - 5x + 5 over Q(sqrt(5))
        eig = eigen_decompose(SeqParams(1, 1))
        for lam in (eig.lambda1, eig.lambda2):
            assert lam * lam - 5 * lam + 5 == QuadExt(0, 0, 5)

    def test_degenerate_discriminant_rejected(self):
        with pytest.raises(DegenerateDiscriminantError):
            eigen_decompose(SeqParams(1, -4))

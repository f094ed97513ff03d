import math
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biperiodic import (
    ClosedForm,
    Mat2,
    SeqParams,
    SequenceKind,
    SingularMatrixError,
    binet_fib,
    binet_lucas,
    det_power,
    generating_matrix,
    matrix_power,
    matrix_power_counted,
    power_closed_form,
    term_fast,
    term_fast_counted,
    term_recurrence,
)
from biperiodic import genmatrix
from biperiodic.exact import _power
from biperiodic.genmatrix import _Ladder
from biperiodic.sequences import _finished_term, term_pairs
from conftest import brute_mat_pow, classical_fib, classical_lucas, oracle_fib_table, oracle_lucas_table, pairs

FIB = SequenceKind.FIBONACCI
LUC = SequenceKind.LUCAS

# the module's own verification grid; note it contains the singular
# points (2, -2) and (-2, 2) where ab + 4 = 0
MODULE_GRID = [
    (a, b)
    for a in (F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(5, 3))
    for b in (F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(5, 3))
]


def test_build_at_2_3():
    assert generating_matrix(SeqParams(2, 3)) == Mat2(F(16, 3), F(4, 3), 2, F(4, 3))


def test_build_at_1_1_is_classical_lucas_matrix():
    assert generating_matrix(SeqParams(1, 1)) == Mat2(3, 1, 1, 2)


def test_determinant_factorization():
    p = SeqParams(2, 3)
    g = generating_matrix(p)
    assert g.det() == F(40, 9)
    assert g.det() == (p.a**2 / p.b**2) * p.ab_plus_4


def test_square_matches_symbolic_expansion():
    # G^2 entries expanded by hand in (a, b)
    for a, b in ((F(2), F(3)), (F(5, 3), F(-7, 2))):
        g = generating_matrix(SeqParams(a, b))
        expected = Mat2(
            a**4 + 5 * a**3 / b + 4 * a**2 / b**2,
            a**4 / b + 4 * a**3 / b**2,
            a**3 + 4 * a**2 / b,
            a**3 / b + 4 * a**2 / b**2,
        )
        assert g * g == expected


class TestClosedForm:
    def test_structure_n1(self):
        p = SeqParams(2, 3)
        cf = power_closed_form(p, 1)
        assert (cf.parity, cf.scale_ab_pow, cf.scale_abp4_pow) == ("odd", 1, 0)
        # core holds lucas terms l2, l1, l0
        assert cf.core == Mat2(8, 2, 3, 2)
        assert cf.materialize() == generating_matrix(p)

    def test_structure_n2(self):
        p = SeqParams(2, 3)
        cf = power_closed_form(p, 2)
        assert (cf.parity, cf.scale_ab_pow, cf.scale_abp4_pow) == ("even", 2, 1)
        assert cf.core == Mat2(7, 2, 3, 1)
        assert cf.scale() == F(40, 9)

    def test_materializes_to_brute_power(self):
        p = SeqParams(2, 3)
        expected = brute_mat_pow(generating_matrix(p), 2)
        assert expected == Mat2(F(280, 9), F(80, 9), F(40, 3), F(40, 9))
        assert power_closed_form(p, 2).materialize() == expected

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            power_closed_form(SeqParams(2, 3), 0)

    def test_equals_direct_power_over_module_grid(self):
        for a, b in MODULE_GRID:
            p = SeqParams(a, b)
            direct = Mat2.identity()
            g = generating_matrix(p)
            for n in range(1, 65):
                direct = direct * g
                assert power_closed_form(p, n).materialize() == direct, (a, b, n)

    def test_core_holds_oracle_terms_over_module_grid(self):
        # [[t(n+1), t(n)], [(b/a)*t(n), t(n-1)]]: fibonacci at even n, lucas at odd n
        for a, b in MODULE_GRID:
            p = SeqParams(a, b)
            fib = oracle_fib_table(a, b, 0, 41)
            luc = oracle_lucas_table(a, b, 0, 41)
            for n in range(1, 41):
                t, kind = (fib, FIB) if n % 2 == 0 else (luc, LUC)
                cf = power_closed_form(p, n)
                assert cf.kind is kind, (a, b, n)
                assert cf.core == Mat2(t[n + 1], t[n], (b / a) * t[n], t[n - 1]), (a, b, n)

    def test_holds_at_singular_point(self):
        p = SeqParams(2, -2)
        assert p.ab_plus_4 == 0
        g = generating_matrix(p)
        assert power_closed_form(p, 1).materialize() == g
        assert g * g == Mat2(0, 0, 0, 0)
        assert power_closed_form(p, 5).materialize() == Mat2(0, 0, 0, 0)


class TestDirectPower:
    def test_zero_power(self):
        assert matrix_power(SeqParams(2, 3), 0) == Mat2.identity()

    def test_inverse_power_at_2_3(self):
        assert matrix_power(SeqParams(2, 3), -1) == Mat2(
            F(3, 10), F(-3, 10), F(-9, 20), F(6, 5)
        )

    def test_negative_power_requires_invertibility(self):
        with pytest.raises(SingularMatrixError):
            matrix_power(SeqParams(1, -4), -2)

    @settings(deadline=None)
    @given(ab=pairs, n=st.integers(-40, 40))
    def test_random_parameters_match_repeated_multiplication(self, ab, n):
        p = SeqParams(*ab)
        g = generating_matrix(p)
        if n >= 0:
            assert matrix_power(p, n) == brute_mat_pow(g, n)
        elif p.ab_plus_4 == 0:
            with pytest.raises(SingularMatrixError):
                matrix_power(p, n)
        else:
            assert matrix_power(p, n) == brute_mat_pow(g.inverse(), -n)

    def test_inverse_power_cancellation(self):
        for a, b in MODULE_GRID:
            p = SeqParams(a, b)
            if p.ab_plus_4 == 0:
                continue
            for n in range(-16, 17):
                assert matrix_power(p, n) * matrix_power(p, -n) == Mat2.identity()


class TestDetPower:
    def test_frozen_values(self):
        assert det_power(SeqParams(2, 3), 1) == F(40, 9)
        assert det_power(SeqParams(2, 3), 2) == F(1600, 81)
        assert det_power(SeqParams(1, 1), 3) == 125

    def test_matches_brute_determinant(self):
        for a, b in MODULE_GRID:
            p = SeqParams(a, b)
            g = generating_matrix(p)
            power = Mat2.identity()
            for n in range(1, 33):
                power = power * g
                assert det_power(p, n) == power.det(), (a, b, n)

    def test_zero_and_negative_n(self):
        assert det_power(SeqParams(2, 3), 0) == 1
        assert det_power(SeqParams(2, 3), -2) == F(81, 1600)
        assert det_power(SeqParams(1, -4), 0) == 1  # G^0 = I even where G is singular
        for a, b in MODULE_GRID:
            p = SeqParams(a, b)
            if p.ab_plus_4 == 0:
                continue
            for n in range(-8, 1):
                assert det_power(p, n) == matrix_power(p, n).det(), (a, b, n)

    def test_negative_n_on_singular_line_raises(self):
        for p in (SeqParams(1, -4), SeqParams(2, -2)):
            assert det_power(p, 3) == 0
            with pytest.raises(SingularMatrixError):
                det_power(p, -1)


class TestTermFast:
    def test_frozen_examples(self):
        assert term_fast(SeqParams(2, 3), FIB, 5) == 55
        assert term_fast(SeqParams(2, 3), LUC, 5) == 142
        assert term_fast(SeqParams(1, 1), LUC, 7) == 29

    def test_equals_recurrence_over_wide_index_range(self):
        for a, b in ((F(2), F(3)), (F(1), F(1))):
            p = SeqParams(a, b)
            fib = oracle_fib_table(a, b, -1000, 1001)
            luc = oracle_lucas_table(a, b, -1000, 1001)
            for n in range(-1000, 1001):
                assert term_fast(p, FIB, n) == fib[n], (a, b, n)
                assert term_fast(p, LUC, n) == luc[n], (a, b, n)

    def test_equals_recurrence_on_rational_parameters(self):
        p = SeqParams(F(1, 2), F(-3, 2))
        for n in range(-60, 61):
            assert term_fast(p, FIB, n) == term_recurrence(p, FIB, n)
            assert term_fast(p, LUC, n) == term_recurrence(p, LUC, n)

    def test_multiplication_count_is_logarithmic(self):
        p = SeqParams(2, 3)
        for n in (1, 2, 63, 64, 1000, 4095):
            for kind in (FIB, LUC):
                _, count = term_fast_counted(p, kind, n)
                assert count <= 2 * (n + 1).bit_length()

    def test_degenerate_parameters_are_served(self):
        # G is singular at (1, -4), but term_fast never inverts it: negative
        # n goes through the index reflection, and the count stays logarithmic
        p = SeqParams(1, -4)
        assert term_fast(p, FIB, 5) == 5
        assert term_fast(p, LUC, -3) == 1
        for kind in (FIB, LUC):
            for n in (-4095, 4095):
                value, count = term_fast_counted(p, kind, n)
                assert value == term_recurrence(p, kind, n), (kind, n)
                assert count <= 2 * (abs(n) + 1).bit_length()

    @settings(deadline=None)
    @given(ab=pairs, n=st.integers(-60, 60))
    def test_random_parameters_match_oracle_tables(self, ab, n):
        a, b = ab
        p = SeqParams(a, b)
        lo, hi = min(n, 0), max(n, 1)
        for kind, table in ((FIB, oracle_fib_table), (LUC, oracle_lucas_table)):
            assert term_fast(p, kind, n) == table(a, b, lo, hi)[n]

    def test_deep_terms_agree_with_binet_and_the_walk(self):
        # operands of thousands of bits, through both kernels and the negative-n
        # rescales. The kernel powers m = n or n + 1 (the kind's parity), with
        # m = 2j + e; these indices reach each sign of j, each parity of |j|
        # and of e, and both entries term_fast reads, (1,2) and (2,2)
        indices = (-2002, -2001, -2000, -1999, 1999, 2000, 2001, 2002)
        grid = ((F(5, 3), F(-4, 3)), (F(1, 2), F(-3)), (F(-3, 2), F(1, 2)), (F(2), F(1, 4)))
        for a, b in grid:
            p = SeqParams(a, b)
            walked = {
                kind: {n: F(*pair) for n, pair in zip(range(-2003, 2004), term_pairs(p, kind, -2003, 2003))}
                for kind in (FIB, LUC)
            }
            for kind, closed_form in ((FIB, binet_fib), (LUC, binet_lucas)):
                for n in indices:
                    expected = walked[kind][n]
                    assert term_fast(p, kind, n) == expected, (a, b, kind, n)
                    assert closed_form(p, n) == expected, (a, b, kind, n)
            for n in indices[4:]:
                # the core of G^n holds t(n+1), t(n), t(n-1) of the kind at n's parity
                t = walked[FIB if n % 2 == 0 else LUC]
                core = Mat2(t[n + 1], t[n], (b / a) * t[n], t[n - 1])
                assert power_closed_form(p, n).core == core, (a, b, n)
                # entries (1,1) and (2,1) of a deep negative power, which term_fast never reads
                assert matrix_power(p, n) * matrix_power(p, -n) == Mat2.identity(), (a, b, n)

    def test_classical_values(self):
        p = SeqParams(1, 1)
        fib = classical_fib(31)
        lucas = classical_lucas(31)
        for n in range(31):
            assert term_fast(p, FIB, n) == fib[n]
            assert term_fast(p, LUC, n) == lucas[n]


#: pairs for the lowest-terms shortcut: a's numerator shares the prime 2 with s
#: (ab = 1/2); a's denominator divides numerators N (ab = 1/3); integer ab in
#: {-1, -2, -3}, where terms vanish; ab = -4, where G is singular
CANONICAL_PAIRS = [
    (F(2), F(1, 4)),
    (F(1, 2), F(2, 3)),
    (F(1), F(-1)),
    (F(1, 2), F(-4)),
    (F(-3), F(1)),
    (F(1), F(-4)),
    (F(1, 2), F(-8)),
]


def entries(m):
    return [m.e11, m.e12, m.e21, m.e22]


def assert_engines_canonical(p, n):
    values = [binet_lucas(p, n), binet_fib(p, n), term_fast(p, FIB, n), term_fast(p, LUC, n)]
    if n >= 1:
        cf = power_closed_form(p, n)
        values += entries(cf.core) + entries(cf.materialize())
    if n >= 0 or p.ab_plus_4 != 0:
        values += entries(matrix_power(p, n))
    for x in values:
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1, (p, n, x)


class TestCanonicalForm:
    @settings(deadline=None)
    @given(ab=st.sampled_from(CANONICAL_PAIRS), n=st.integers(-60, 60))
    def test_terms_are_in_lowest_terms(self, ab, n):
        assert_engines_canonical(SeqParams(*ab), n)

    def test_deep_terms_are_in_lowest_terms(self):
        for ab in CANONICAL_PAIRS:
            for n in (-2001, -2000, 2000, 2001):
                assert_engines_canonical(SeqParams(*ab), n)


def test_a_corrupted_kernel_entry_is_refused(monkeypatch):
    # ab = -20/9: the (1,2) entry of the kernel power at m = 10 carries one
    # spare factor 9 over t(10) = a*N/9^4, so an entry off by one fails the
    # checked division instead of yielding a wrong matrix
    kernel = genmatrix._kernel

    def corrupted(p, m):
        (p11, p12, p22), exponent, count = kernel(p, m)
        return (p11, p12 + 1, p22), exponent, count

    monkeypatch.setattr(genmatrix, "_kernel", corrupted)
    p = SeqParams(F(5, 3), F(-4, 3))
    for engine in (power_closed_form, matrix_power):
        with pytest.raises(AssertionError, match="not a multiple of 9"):
            engine(p, 10)


def test_a_core_entry_off_its_term_shape_is_refused():
    # materialize reads each core entry back as an integer times c/s^x; an
    # entry whose denominator does not divide s^x (here 9^5) has none
    p = SeqParams(F(5, 3), F(-4, 3))
    core = power_closed_form(p, 10).core
    bad = Mat2(core.e11 + F(1, 3**13), core.e12, core.e21, core.e22)
    with pytest.raises(AssertionError, match="for an integer Z"):
        ClosedForm(p, 10, bad).materialize()


@pytest.mark.parametrize("a, b", [(F(5, 3), F(-4, 3)), (F(2), F(1, 4)), (F(-3, 2), F(1, 2))])
@pytest.mark.parametrize("n", [1, 2, 9, -10])
def test_a_core_given_as_unreduced_pairs_finishes_like_materialize(a, b, n):
    # the catalog hands the core over as (numerator, denominator) pairs, not
    # in lowest terms and with either sign of denominator
    p = SeqParams(a, b)
    fib = oracle_fib_table(a, b, n - 1, n + 1)
    luc = oracle_lucas_table(a, b, n - 1, n + 1)
    core = oracle_core(a, b, n, fib, luc)
    entries = (core.e11, core.e12, core.e21, core.e22)
    pairs = [(-7 * v.numerator, -7 * v.denominator) for v in entries]
    power = matrix_power(p, n)
    assert genmatrix._from_core(p, n, pairs) == ClosedForm(p, n, core).materialize() == power
    pairs[2] = (pairs[2][0] + 1, pairs[2][1])
    with pytest.raises(AssertionError, match="for an integer Z"):
        genmatrix._from_core(p, n, pairs)


def oracle_core(a, b, n, fib, luc):
    """The core [[t(n+1), t(n)], [(b/a)*t(n), t(n-1)]] of G^n from oracle tables."""
    t = fib if n % 2 == 0 else luc
    return Mat2(t[n + 1], t[n], (b / a) * t[n], t[n - 1])


@pytest.mark.parametrize("a, b", [(F(2), F(1, 4)), (F(-2), F(-1, 4))])
def test_powers_where_a_over_b_shares_the_prime_of_s(a, b):
    # a/b = 8 and s = 2: every core denominator is a power of 2, which the
    # prefactor's 2s cancel; negative powers run the j < 0 prefactor
    p = SeqParams(a, b)
    g = generating_matrix(p)
    inverse = g.inverse()
    fib, luc = oracle_fib_table(a, b, -42, 42), oracle_lucas_table(a, b, -42, 42)
    up, down = Mat2.identity(), Mat2.identity()
    for n in range(1, 41):
        up, down = up * g, down * inverse
        assert matrix_power(p, n) == up, n
        assert power_closed_form(p, n).materialize() == up, n
        assert matrix_power(p, -n) == down, -n
        assert ClosedForm(p, -n, oracle_core(a, b, -n, fib, luc)).materialize() == down, -n


@pytest.mark.parametrize("a, b", [(F(1), F(-4)), (F(1, 2), F(-8)), (F(2), F(-2))])
def test_kernel_serves_the_singular_line(a, b):
    # the kernel decides nothing about ab + 4 = 0: the entry term_fast reads,
    # finished by the checked division, is the term there too, at both signs of j
    p = SeqParams(a, b)
    oracles = {FIB: oracle_fib_table(a, b, -12, 13), LUC: oracle_lucas_table(a, b, -12, 13)}
    for kind, oracle in oracles.items():
        for n in range(-12, 13):
            m = n if kind is genmatrix._exposed_kind(n) else n + 1
            power, exponent, _ = genmatrix._kernel(p, m)
            entry = power[1] if m == n else power[2]
            assert _finished_term(p, kind, n, entry, exponent, 1) == oracle[n], (kind, n)


@pytest.mark.parametrize("a, b", [(F(1), F(-4)), (F(1, 2), F(-8))])
def test_powers_on_the_singular_line(a, b, monkeypatch):
    # ab + 4 = 0: det(G) = 0 and G^n = 0 for n >= 2; negative powers do not exist
    p = SeqParams(a, b)
    g = generating_matrix(p)
    fib, luc = oracle_fib_table(a, b, -6, 6), oracle_lucas_table(a, b, -6, 6)
    power = Mat2.identity()
    for n in range(5):
        assert matrix_power(p, n) == power, n
        if n >= 1:
            assert power_closed_form(p, n).materialize() == power, n
        if n >= 2:
            assert power == Mat2(0, 0, 0, 0), n
        power = power * g
    for n in (-1, -2, -3):
        refusals = (
            lambda: matrix_power(p, n),
            lambda: det_power(p, n),
            lambda: ClosedForm(p, n, oracle_core(a, b, n, fib, luc)).materialize(),
        )
        messages = set()
        for refused in refusals:
            with pytest.raises(SingularMatrixError) as info:
                refused()
            messages.add(str(info.value))
        assert len(messages) == 1, messages
    # refused where n comes in, before any kernel power
    kernel, calls = genmatrix._kernel, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(genmatrix, "_kernel", counted)
    with pytest.raises(SingularMatrixError):
        matrix_power(p, -3)
    assert calls == []


def test_matrix_powers_take_no_gcd_of_two_big_integers(monkeypatch):
    # every gcd call, math.gcd (which Fraction's arithmetic uses) and each
    # module's own gcd name alike, must have an operand of at most 64 bits
    real = math.gcd
    smaller = []

    def spy(*operands):
        smaller.append(min(abs(x).bit_length() for x in operands))
        return real(*operands)

    monkeypatch.setattr(math, "gcd", spy)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "biperiodic" and getattr(module, "gcd", None) is real:
            monkeypatch.setattr(module, "gcd", spy)
    for ab in CANONICAL_PAIRS:
        p = SeqParams(*ab)
        for n in (-2001, 2000, 2001, 20000):
            if n < 0 and p.ab_plus_4 == 0:
                continue
            matrix_power(p, n)
            if n >= 1:
                power_closed_form(p, n).materialize()
    assert smaller and max(smaller) <= 64


def test_counted_power_reports_products():
    p = SeqParams(2, 3)
    m, count = matrix_power_counted(p, 10)
    assert m == brute_mat_pow(generating_matrix(p), 10)
    assert count <= 2 * (10).bit_length()
    _, count_neg = matrix_power_counted(p, -10)
    assert count_neg <= 2 * (10).bit_length()


@settings(deadline=None)
@given(
    u=st.integers(-(2**80), 2**80),
    w=st.integers(-(2**80), 2**80),
    t=st.integers(-50, 50),
    q=st.integers(0, 2500),
)
def test_ladder_square_path_matches_the_general_product(u, w, t, q):
    # x * copy is the same product through the general path
    x, copy = _Ladder(u, w, t, q), _Ladder(u, w, t, q)
    square, product = x * x, x * copy
    assert (square.u, square.w) == (product.u, product.w)


@settings(deadline=None)
@given(r=st.integers(-60, 60).filter(bool), s=st.integers(1, 60), h=st.integers(0, 40))
def test_ladder_powers_match_repeated_multiplication(r, s, h):
    # B^h = u*B - w*I for B = M and B = adj(M), which share trace and determinant
    t, q = r + 2 * s, s * s
    for b11, b12, b21, b22 in ((r + s, s, r, s), (s, -s, -r, r + s)):
        e11, e12, e21, e22 = 1, 0, 0, 1
        for _ in range(h):
            e11, e12, e21, e22 = (
                e11 * b11 + e12 * b21,
                e11 * b12 + e12 * b22,
                e21 * b11 + e22 * b21,
                e21 * b12 + e22 * b22,
            )
        x, _ = _power(_Ladder(1, 0, t, q), h, _Ladder(0, -1, t, q))
        assert (x.u * b11 - x.w, x.u * b12, x.u * b21, x.u * b22 - x.w) == (e11, e12, e21, e22)

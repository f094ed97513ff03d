import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biperiodic import (
    PRESET_K_LUCAS,
    DiscriminantMismatchError,
    IdentityId,
    Mat2,
    QuadExt,
    SeqParams,
    SingularMatrixError,
    format_rational,
    mat_pow,
    mat_pow_counted,
    parse_rational,
    preset,
    verify_grid,
)
from biperiodic.exact import parse_int
from conftest import brute_mat_pow

RATIONAL_SAMPLES = [F(0), F(1), F(-1), F(2, 3), F(-7, 5), F(22, 7), F(5)]

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)
#: discriminants: 0 (dual numbers), perfect squares (zero divisors exist) and any rational
discriminants = st.one_of(st.just(F(0)), rationals.map(lambda r: r * r), rationals)


class TestRational:
    def test_addition(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_multiplication_cancels_to_canonical_form(self):
        product = F(4, 6) * F(3, 2)
        assert product == 1
        assert (product.numerator, product.denominator) == (1, 1)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            F(2, 3) / F(0, 1)

    def test_powers(self):
        assert F(2, 3) ** 2 == F(4, 9)
        assert F(2, 3) ** -1 == F(3, 2)
        assert F(5) ** 0 == 1

    def test_zero_to_negative_power_raises(self):
        with pytest.raises(ZeroDivisionError):
            F(0) ** -1

    def test_canonical_invariants_after_arithmetic(self):
        import math

        for x in RATIONAL_SAMPLES:
            for y in RATIONAL_SAMPLES:
                for value in (x + y, x - y, x * y):
                    assert value.denominator > 0
                    assert math.gcd(abs(value.numerator), value.denominator) == 1
        zero = F(3, 7) - F(3, 7)
        assert (zero.numerator, zero.denominator) == (0, 1)

    def test_field_axioms_on_sample_grid(self):
        for x in RATIONAL_SAMPLES:
            for y in RATIONAL_SAMPLES:
                assert x + y == y + x
                assert x * y == y * x
                for z in RATIONAL_SAMPLES:
                    assert (x + y) + z == x + (y + z)
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z


class TestRationalSyntax:
    def test_parse_forms(self):
        assert parse_rational("55") == 55
        assert parse_rational("-3") == -3
        assert parse_rational("-3/2") == F(-3, 2)
        assert parse_rational("4/6") == F(2, 3)

    @pytest.mark.parametrize("bad", ["2.5", "1e3", "2/-3", "1/0", "", "--1", "3/", "/2", "a",
                                     "+5", "1_0", "３", "1/+2", "3 /2", "3/ 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_parse_int_is_the_integer_grammar_of_parse_rational(self):
        # -?[0-9]+ in ASCII after strip(): what int() reads beyond it is refused
        assert [parse_int(s) for s in ("12", "-3", " 7 ", "-0", "007")] == [12, -3, 7, 0, 7]
        for bad in ("+5", "1_0", "３", "٣", "", "-", "--1", "1.0", "- 1", "1 0"):
            for parse in (parse_int, parse_rational):
                with pytest.raises(ValueError):
                    parse(bad)
        with pytest.raises(ValueError):
            parse_int("1/2")

    def test_format_omits_unit_denominator(self):
        assert format_rational(F(55)) == "55"
        assert format_rational(F(-3, 10)) == "-3/10"

    def test_inexact_scalars_are_refused_at_every_entry_point(self):
        entry_points = {
            "SeqParams": lambda x: SeqParams(x, 1),
            "QuadExt": lambda x: QuadExt(x, 0, 5),
            "Mat2": lambda x: Mat2(x, 0, 0, 1),
            "verify_grid": lambda x: verify_grid(IdentityId.CASSINI_FIB, [x], [1], n_range=(1, 3)),
            "preset": lambda x: preset(PRESET_K_LUCAS, x),
            "format_rational": format_rational,
        }
        for name, build in entry_points.items():
            for bad in (0.1, "1/2", Decimal("0.5")):
                with pytest.raises(TypeError):
                    build(bad)
                    pytest.fail(f"{name} accepted {bad!r}")


class TestQuadExt:
    def test_conjugate_product_is_norm(self):
        x = QuadExt(1, 1, 5)
        assert x * x.conj() == QuadExt(-4, 0, 5)
        assert x.norm() == -4

    def test_root_sum_for_params_2_3(self):
        # the two characteristic roots at (a, b) = (2, 3) sum to ab = 6
        assert QuadExt(3, 1, 60) + QuadExt(3, -1, 60) == QuadExt(6, 0, 60)

    def test_division_identity(self):
        one = QuadExt(1, 0, 7)
        assert one / one == one

    def test_mismatched_discriminants_raise(self):
        with pytest.raises(DiscriminantMismatchError):
            QuadExt(1, 1, 5) + QuadExt(1, 1, 7)
        with pytest.raises(DiscriminantMismatchError):
            QuadExt(1, 1, 5) * QuadExt(1, 1, 7)

    def test_zero_norm_division_raises(self):
        # norm(2 + 1*sqrt(4)) = 4 - 4 = 0
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 0, 4) / QuadExt(2, 1, 4)

    def test_inverse_times_self_is_one(self):
        samples = [
            QuadExt(1, 1, 5),
            QuadExt(F(1, 2), F(-2, 3), -3),
            QuadExt(3, F(1, 2), 60),
            QuadExt(0, 1, F(7, 2)),
        ]
        for x in samples:
            assert x.norm() != 0
            assert x * (x.conj() / x.norm()) == QuadExt(1, 0, x.d)
            assert x * x.inverse() == 1

    def test_rational_operand_lifting(self):
        x = QuadExt(2, 3, 5)
        assert 1 + x == QuadExt(3, 3, 5)
        assert F(1, 2) * x == QuadExt(1, F(3, 2), 5)
        assert 2 - x == QuadExt(0, -3, 5)

    def test_pow_matches_repeated_multiplication(self):
        x = QuadExt(F(1, 2), F(3, 2), -3)
        acc = QuadExt(1, 0, -3)
        for n in range(9):
            assert x**n == acc
            acc = acc * x
        assert x**-4 == (x**4).inverse()

    @settings(deadline=None)
    @given(u=rationals, v=rationals, d=discriminants, n=st.integers(-30, 30))
    def test_pow_matches_repeated_multiplication_differential(self, u, v, d, n):
        x = QuadExt(u, v, d)
        assume(x.norm() != 0)
        base = x if n >= 0 else x.inverse()
        expected = QuadExt(1, 0, d)
        for _ in range(abs(n)):
            expected = expected * base
        assert x**n == expected

    def test_formal_arithmetic_with_zero_discriminant(self):
        # d = 0 behaves like dual numbers; powers stay exact
        x = QuadExt(-2, F(1, 2), 0)
        y = QuadExt(-2, F(-1, 2), 0)
        assert (x**3 + y**3).as_rational() == 2 * F(-2) ** 3

    def test_as_rational_requires_zero_radical_part(self):
        assert QuadExt(F(5, 3), 0, 7).as_rational() == F(5, 3)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 7).as_rational()


FIB_Q = Mat2(1, 1, 1, 0)

#: entries of Mat2's integer-pair path: zero, small fractions with shared
#: denominators, and integers and fractions of 200 bits and more, both signs
WIDE = st.integers(2**200, 2**260)
pair_entries = st.one_of(
    st.just(F(0)),
    rationals,
    st.builds(lambda n, sign: F(sign * n), WIDE, st.sampled_from((1, -1))),
    st.builds(lambda n, d, sign: F(sign * n, d), WIDE, WIDE, st.sampled_from((1, -1))),
    st.builds(lambda x, n: x * n, rationals, WIDE),
    st.builds(lambda x, d: x / d, rationals, WIDE),
)


def _naive_product(x, y):
    """The product of two row-major entry tuples by Fraction operators."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _canonical(x):
    """A Fraction in lowest terms with a positive denominator, zero as 0/1."""
    return (
        type(x) is F
        and x.denominator > 0
        and math.gcd(x.numerator, x.denominator) == 1
        and (x.numerator != 0 or x.denominator == 1)
    )


class TestMat2:
    def test_entries_are_coerced_unless_all_are_fractions(self):
        # four Fractions are kept as they are; an int or QuadExt among them
        # is still coerced or kept, and a float still refused
        entries = (F(1, 2), F(-3), F(0), F(7, 5))
        m = Mat2(*entries)
        assert all(got is want for got, want in zip((m.e11, m.e12, m.e21, m.e22), entries))
        mixed = Mat2(F(1, 2), 3, QuadExt(1, 1, 5), F(7, 5))
        assert type(mixed.e12) is F and mixed.e12 == 3
        assert mixed.e21 == QuadExt(1, 1, 5)
        with pytest.raises(TypeError):
            Mat2(F(1, 2), F(-3), F(0), 0.5)

    def test_fields_stored_through_the_slots_still_refuse_assignment(self):
        # __init__ stores a matrix of Fractions by the slots' own setters, past
        # the refusing __setattr__, which still guards every later assignment
        for m in (Mat2(F(1, 2), F(-3), F(0), F(7, 5)), Mat2(1, 2, 3, QuadExt(1, 1, 5))):
            before = m._values
            for name in Mat2._fields:
                with pytest.raises(AttributeError, match=name):
                    setattr(m, name, F(9))
                with pytest.raises(AttributeError, match=name):
                    delattr(m, name)
            with pytest.raises(AttributeError):
                m.e11 = F(9)
            assert m._values == before

    def test_identity_commutes(self):
        m = Mat2(F(16, 3), F(4, 3), 2, F(4, 3))
        identity = Mat2.identity()
        assert identity * m == m
        assert m * identity == m

    def test_fibonacci_q_square(self):
        assert FIB_Q * FIB_Q == Mat2(2, 1, 1, 1)

    def test_generating_matrix_square_at_2_3(self):
        g = Mat2(F(16, 3), F(4, 3), 2, F(4, 3))
        expected = Mat2(F(280, 9), F(80, 9), F(40, 3), F(40, 9))
        assert g * g == expected
        assert brute_mat_pow(g, 2) == expected

    def test_pow_trivial_cases(self):
        m = Mat2(F(1, 2), 3, -1, F(7, 5))
        assert mat_pow(m, 0) == Mat2.identity()
        assert mat_pow(m, 1) == m

    def test_fibonacci_q_tenth_power(self):
        expected = brute_mat_pow(FIB_Q, 10)
        assert expected == Mat2(89, 55, 55, 34)
        assert mat_pow(FIB_Q, 10) == expected

    def test_pow_matches_repeated_multiplication_with_count_bound(self):
        samples = [FIB_Q, Mat2(F(1, 2), F(-2, 3), 1, F(3, 7)), Mat2(0, 1, 1, 0)]
        for m in samples:
            for n in range(65):
                result, count = mat_pow_counted(m, n)
                assert result == brute_mat_pow(m, n)
                # n.bit_length() == ceil(log2(n+1)) for n >= 0
                assert count <= 2 * n.bit_length()

    @settings(deadline=None)
    @given(entries=st.tuples(rationals, rationals, rationals, rationals), n=st.integers(0, 64))
    def test_pow_matches_brute_power_differential(self, entries, n):
        m = Mat2(*entries)
        result, count = mat_pow_counted(m, n)
        assert result == brute_mat_pow(m, n)
        assert count <= 2 * n.bit_length()

    @settings(deadline=None, max_examples=300)
    @given(
        x=st.tuples(pair_entries, pair_entries, pair_entries, pair_entries),
        y=st.tuples(pair_entries, pair_entries, pair_entries, pair_entries),
        change=st.integers(-1, 3),
    )
    def test_fraction_entries_multiply_compare_and_take_det_on_integer_pairs(self, x, y, change):
        # the integer-pair path against the Fraction formulas: every result
        # is a canonical Fraction, as Fraction's own operators give it
        product = Mat2(*x) * Mat2(*y)
        got = (product.e11, product.e12, product.e21, product.e22)
        assert got == _naive_product(x, y)
        assert all(map(_canonical, got))
        for entries in (x, y, got):
            det = Mat2(*entries).det()
            assert det == entries[0] * entries[3] - entries[1] * entries[2]
            assert _canonical(det)
        # == against equal entries built anew, or with one entry changed
        z = [F(v.numerator, v.denominator) for v in x]
        if change >= 0:
            z[change] += y[change] if y[change] else 1
        same, other = Mat2(*x), Mat2(*z)
        assert (same == other) is (list(x) == z)
        assert (same != other) is (list(x) != z)
        if same == other:
            assert hash(same) == hash(other)

    def test_other_entry_types_keep_their_operators(self):
        # int entries are coerced to Fractions and take the integer-pair path;
        # a QuadExt entry, alone or among Fractions, takes the entries' operators
        ints = Mat2(1, 2, 3, 4) * Mat2(0, -1, 5, 2)
        assert ints == Mat2(10, 3, 20, 5)
        assert all(type(v) is F for v in (ints.e11, ints.e12, ints.e21, ints.e22))
        assert Mat2(1, 2, 3, 4).det() == -2 and type(Mat2(1, 2, 3, 4).det()) is F
        r = QuadExt(F(1, 2), F(1, 2), 5)  # the golden ratio
        for x in ((r, F(1), F(0), r.conj()), (r, F(2, 3), -1, F(7, 5)), (r, r, r, r)):
            y = (F(3), r, r.conj(), F(-1, 4))
            product = Mat2(*x) * Mat2(*y)
            assert (product.e11, product.e12, product.e21, product.e22) == _naive_product(x, y)
            assert Mat2(*x).det() == x[0] * x[3] - x[1] * x[2]
        # a QuadExt with no radical part equals its rational, and hashes alike
        rational, lifted = Mat2(F(3), F(1, 2), 0, 1), Mat2(QuadExt(3, 0, 5), F(1, 2), 0, 1)
        assert rational == lifted and lifted == rational
        assert hash(rational) == hash(lifted)
        assert rational != Mat2(QuadExt(3, 1, 5), F(1, 2), 0, 1)

    def test_equality_with_other_types_is_not_implemented(self):
        m = Mat2(F(1, 2), 3, -1, F(7, 5))
        for other in ((F(1, 2), F(3), F(-1), F(7, 5)), F(1, 2), 1, None):
            assert m.__eq__(other) is NotImplemented
            assert m != other
        assert {m: 1}[Mat2(F(2, 4), F(6, 2), F(-1), F(14, 10))] == 1

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            mat_pow(FIB_Q, -1)

    def test_inverse_of_identity(self):
        assert Mat2.identity().inverse() == Mat2.identity()

    def test_inverse_of_diagonal(self):
        assert Mat2(2, 0, 0, 4).inverse() == Mat2(F(1, 2), 0, 0, F(1, 4))

    def test_inverse_of_generating_matrix_at_2_3(self):
        g = Mat2(F(16, 3), F(4, 3), 2, F(4, 3))
        inv = g.inverse()
        assert inv == Mat2(F(3, 10), F(-3, 10), F(-9, 20), F(6, 5))
        assert g * inv == Mat2.identity()
        assert inv * g == Mat2.identity()

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMatrixError):
            Mat2(1, 2, 2, 4).inverse()

    def test_det_of_inverse_is_reciprocal(self):
        for m in (FIB_Q, Mat2(F(16, 3), F(4, 3), 2, F(4, 3)), Mat2(5, 1, 3, 1)):
            d = m.det()
            assert d != 0
            assert m.inverse().det() == 1 / d

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biperiodic import (
    DEFAULT_RANGES,
    STANDARD_VALUES,
    Expectation,
    IdentityId,
    ParityMismatchError,
    SeqParams,
    SequenceKind,
    TermTable,
    addition_eval,
    cassini_fib,
    cassini_lucas,
    evaluate,
    expectation,
    report_matches_expectation,
    verify_grid,
)
from biperiodic.identities import _CATALOG, _index_tuples, _Unreduced
from conftest import nonzero, oracle_fib_table, oracle_lucas_table, pairs

#: small index windows lo..hi with lo <= 0 <= hi
WINDOW = st.tuples(st.integers(-8, 0), st.integers(0, 8))
GENERIC_PAIRS = [(F(2), F(3)), (F(5, 3), F(-7, 2)), (F(-1), F(1, 2))]


class TestTermTable:
    def test_agrees_with_recurrence(self):
        # checked against the conftest tables, which share no code with the
        # package: the walker and term_recurrence share _coefficient
        for a, b in GENERIC_PAIRS + [(F(1), F(-4))]:
            table = TermTable(SeqParams(a, b))
            fib = oracle_fib_table(a, b, -40, 40)
            luc = oracle_lucas_table(a, b, -40, 40)
            for n in range(-40, 41):
                assert table.fib(n) == fib[n], (a, b, n)
                assert table.term(SequenceKind.LUCAS, n) == luc[n], (a, b, n)

    def test_random_access_order_does_not_matter(self):
        p = SeqParams(F(1, 2), F(-3, 2))
        table = TermTable(p)
        values = [table.fib(n) for n in (17, -9, 3, -30, 0, 25)]
        fresh = TermTable(p)
        assert values == [fresh.fib(n) for n in (17, -9, 3, -30, 0, 25)]


class TestCassini:
    def test_fib_at_2_3_n2(self):
        # a*q1*q3 - b*q2^2 = 2*1*7 - 3*4 = 2 = a*(-1)^2
        assert cassini_fib(SeqParams(2, 3), 2) == (F(2), F(2))

    def test_fib_at_n1_is_minus_a(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = cassini_fib(SeqParams(a, b), 1)
            assert lhs == rhs == -a

    def test_fib_classical_n6(self):
        # F5*F7 - F6^2 = 65 - 64 = 1
        assert cassini_fib(SeqParams(1, 1), 6) == (F(1), F(1))

    def test_lucas_at_2_3_n1(self):
        # l0*l2 - (3/2)*l1^2 = 16 - 6 = 10 = ab + 4
        assert cassini_lucas(SeqParams(2, 3), 1) == (F(10), F(10))

    def test_lucas_symbolic_n2(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = cassini_lucas(SeqParams(a, b), 2)
            assert lhs == rhs == -(a * b + 4)

    def test_lucas_classical_n4(self):
        # L3*L5 - L4^2 = 44 - 49 = -5
        assert cassini_lucas(SeqParams(1, 1), 4) == (F(-5), F(-5))

    def test_hold_at_negative_indices(self):
        p = SeqParams(2, 3)
        for n in range(-25, 26):
            lhs, rhs = cassini_fib(p, n)
            assert lhs == rhs
            lhs, rhs = cassini_lucas(p, n)
            assert lhs == rhs


class TestPublishedCassiniVariant:
    def test_fails_for_odd_n_at_2_3(self):
        lhs, rhs = evaluate(IdentityId.THM4_I_PRINTED, SeqParams(2, 3), 3)
        assert (lhs, rhs) == (F(-51), F(-2))
        assert lhs != rhs

    def test_coincides_with_cassini_when_a_equals_b(self):
        p = SeqParams(F(-3, 2), F(-3, 2))
        for n in range(1, 30):
            lhs, rhs = evaluate(IdentityId.THM4_I_PRINTED, p, n)
            assert lhs == rhs


class TestDoubledIndexFamily:
    def test_i_symbolic_at_m0_n0(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = evaluate(IdentityId.THM6_I, SeqParams(a, b), 0, 0)
            assert lhs == rhs == a * (a * b + 4)

    def test_v_antisymmetric_cancellation(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = evaluate(IdentityId.THM6_V, SeqParams(a, b), 1, 1)
            assert lhs == rhs == 0

    def test_vi_printed_sign_flip_at_m1_n0(self):
        # lhs = l3 = a^2*b + 3a; printed rhs evaluates to the negative
        for a, b in GENERIC_PAIRS:
            lhs, rhs = evaluate(IdentityId.THM6_VI_PRINTED, SeqParams(a, b), 1, 0)
            assert lhs == a * a * b + 3 * a
            assert lhs == -rhs

    def test_vi_corrected_holds(self):
        for a, b in GENERIC_PAIRS:
            p = SeqParams(a, b)
            for m in range(0, 8):
                for n in range(0, 8):
                    lhs, rhs = evaluate(IdentityId.THM6_VI_CORRECTED, p, m, n)
                    assert lhs == rhs, (a, b, m, n)

    def test_family_holds_including_negative_differences(self):
        p = SeqParams(F(1, 2), F(-3, 2))
        for ident in (
            IdentityId.THM6_I,
            IdentityId.THM6_II,
            IdentityId.THM6_III,
            IdentityId.THM6_IV,
            IdentityId.THM6_V,
        ):
            for m in range(0, 10):
                for n in range(0, 10):
                    lhs, rhs = evaluate(ident, p, m, n)
                    assert lhs == rhs, (ident, m, n)


class TestAdditionSubtraction:
    def test_add_qq_symbolic(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = addition_eval(SeqParams(a, b), IdentityId.ADD_QQ, 2, 2)
            assert lhs == rhs == a * a * b + 2 * a

    def test_add_ll_symbolic(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = addition_eval(SeqParams(a, b), IdentityId.ADD_LL, 1, 1)
            assert lhs == rhs == a * (a * b + 2) + 2 * a

    def test_add_lq_symbolic(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = addition_eval(SeqParams(a, b), IdentityId.ADD_LQ, 1, 2)
            assert lhs == rhs == a * a * b + 3 * a

    def test_sub_qq_at_2_3(self):
        # q4*q3 - q5*q2 = 16*7 - 55*2 = 2 = q2
        lhs, rhs = evaluate(IdentityId.SUB_QQ, SeqParams(2, 3), 4, 2)
        assert lhs == rhs == 2

    def test_sub_ll_at_2_3(self):
        # l3*l2 - l4*l1 = 144 - 124 = 20 = (ab+4)*q2
        lhs, rhs = evaluate(IdentityId.SUB_LL, SeqParams(2, 3), 3, 1)
        assert lhs == rhs == 20

    def test_sub_ql_symbolic(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = evaluate(IdentityId.SUB_QL, SeqParams(a, b), 2, 1)
            assert lhs == rhs == a

    def test_parity_violations_raise(self):
        p = SeqParams(2, 3)
        with pytest.raises(ParityMismatchError):
            addition_eval(p, IdentityId.ADD_QQ, 1, 2)
        with pytest.raises(ParityMismatchError):
            addition_eval(p, IdentityId.ADD_LL, 1, 2)
        with pytest.raises(ParityMismatchError):
            addition_eval(p, IdentityId.ADD_LQ, 2, 2)
        with pytest.raises(ParityMismatchError):
            evaluate(IdentityId.SUB_QL, p, 1, 2)  # odd m, even n: the flipped sibling

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            addition_eval(SeqParams(2, 3), IdentityId.SUB_QQ, 2, 2)

    def test_hold_at_negative_parity_valid_indices(self):
        p = SeqParams(2, 3)
        cases = {
            IdentityId.ADD_QQ: (-6, 4),
            IdentityId.ADD_LL: (-5, 3),
            IdentityId.ADD_LQ: (-4, 7),
            IdentityId.SUB_QQ: (-2, 6),
            IdentityId.SUB_LL: (-7, 5),
            IdentityId.SUB_QL: (-2, 3),
        }
        for ident, (m, n) in cases.items():
            lhs, rhs = evaluate(ident, p, m, n)
            assert lhs == rhs, ident


class TestIndexDomains:
    def test_min_index_enforced(self):
        with pytest.raises(ValueError):
            evaluate(IdentityId.DET_POWER, SeqParams(2, 3), 0)
        with pytest.raises(ValueError):
            evaluate(IdentityId.MATRIX_FORM, SeqParams(2, 3), 0)

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            evaluate(IdentityId.CASSINI_FIB, SeqParams(2, 3), 1, 2)


class TestVerifyGrid:
    def test_cassini_fib_small_grid(self):
        report = verify_grid(IdentityId.CASSINI_FIB, [1, 2], [1, 3], n_range=(1, 50))
        assert (report.checked, report.passed) == (200, 200)
        assert report.counterexamples == ()
        assert report_matches_expectation(report)

    def test_vi_printed_fails_with_sign_signature(self):
        report = verify_grid(
            IdentityId.THM6_VI_PRINTED, [1, 2], [1, 3], n_range=(0, 5), m_range=(0, 5)
        )
        assert report.passed < report.checked
        assert report.counterexamples
        for ce in report.counterexamples:
            assert ce.lhs == -ce.rhs
        assert report_matches_expectation(report)

    def test_matrix_form_does_not_use_the_fast_term_path(self, monkeypatch):
        # the closed form's core comes from the walk, so binary
        # exponentiation is checked against an independent engine
        from biperiodic import genmatrix

        def refuse(*args):
            raise AssertionError("term_fast called")

        monkeypatch.setattr(genmatrix, "term_fast", refuse)
        report = verify_grid(IdentityId.MATRIX_FORM, [2, F(-3, 2)], [3, -2], n_range=(1, 12))
        assert report.passed == report.checked == 48

    def test_each_point_walks_each_kind_once(self, monkeypatch):
        # matrix-form reads its core from the walks the recurrence checks use
        from biperiodic import sequences

        forward, walks = sequences._forward, []

        def counted(p, kind):
            walks.append((ident, p, kind))
            return forward(p, kind)

        monkeypatch.setattr(sequences, "_forward", counted)
        for ident in (IdentityId.MATRIX_FORM, IdentityId.CASSINI_LUCAS):
            report = verify_grid(ident, [2, F(-3, 2)], [3, -2], n_range=(1, 12))
            assert report.passed == report.checked == 48
        assert len(walks) == len(set(walks)) == 16  # 2 identities x 4 points x 2 kinds

    def test_det_power_at_singular_point(self):
        report = verify_grid(IdentityId.DET_POWER, [1], [-4], n_range=(1, 5))
        assert (report.checked, report.passed) == (5, 5)
        # the determinant really is zero there, not merely self-consistent
        from biperiodic import det_power

        assert det_power(SeqParams(1, -4), 3) == 0

    def test_inverse_power_records_exclusions(self):
        report = verify_grid(IdentityId.INVERSE_POWER, [1, 2], [-4, 1], n_range=(-4, 4))
        assert len(report.excluded) == 1
        assert (report.excluded[0].a, report.excluded[0].b) == (1, -4)
        assert report.checked == 3 * 9
        assert report.passed == report.checked

    def test_binet_fib_records_degenerate_exclusions(self):
        report = verify_grid(IdentityId.BINET_FIB, [2], [-2, 3], n_range=(-5, 5))
        assert len(report.excluded) == 1
        assert report.excluded[0].reason.startswith("ab = -4")
        assert report.passed == report.checked == 11

    def test_report_invariants(self):
        passing = verify_grid(IdentityId.CASSINI_LUCAS, [2], [3], n_range=(1, 20))
        failing = verify_grid(IdentityId.THM4_I_PRINTED, [2], [3], n_range=(1, 20))
        for report in (passing, failing):
            assert report.passed <= report.checked
            assert bool(report.counterexamples) == (report.passed < report.checked)

    def test_counterexamples_sorted_lexicographically(self):
        report = verify_grid(
            IdentityId.THM4_I_PRINTED, [3, 2], [3, 1], n_range=(1, 9)
        )
        keys = [(ce.a, ce.b, ce.indices) for ce in report.counterexamples]
        assert keys == sorted(keys)

    def test_deterministic_across_runs(self):
        first = verify_grid(IdentityId.THM6_V, [2, -1], [3, F(1, 2)], n_range=(0, 6))
        second = verify_grid(IdentityId.THM6_V, [2, -1], [3, F(1, 2)], n_range=(0, 6))
        assert first == second

    def test_parity_conditional_grid_counts(self):
        # 61 x 61 index square restricted to even m and even n: 31 * 31 pairs
        report = verify_grid(IdentityId.ADD_QQ, [2], [3], n_range=(-30, 30))
        assert report.checked == 31 * 31
        assert report.passed == report.checked

    @settings(deadline=None)
    @given(ab=pairs, n_range=WINDOW, m_range=WINDOW)
    def test_erratum_entries_are_as_documented_on_any_grid(self, ab, n_range, m_range):
        # every point carries its documented discrepancy, so any grid is as expected
        a, b = ab
        thm4 = verify_grid(IdentityId.THM4_I_PRINTED, [a], [b], n_range=n_range)
        thm6 = verify_grid(IdentityId.THM6_VI_PRINTED, [a], [b], n_range=n_range, m_range=m_range)
        assert report_matches_expectation(thm4)
        assert report_matches_expectation(thm6)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            verify_grid(IdentityId.CASSINI_FIB, [], [1], n_range=(1, 5))
        with pytest.raises(ValueError):
            verify_grid(IdentityId.CASSINI_FIB, [1], [0], n_range=(1, 5))
        with pytest.raises(ValueError):
            verify_grid(IdentityId.CASSINI_FIB, [1], [1], n_range=(5, 1))


def test_expectation_catalog():
    assert expectation(IdentityId.CASSINI_FIB) is Expectation.HOLDS
    assert expectation(IdentityId.THM6_VI_PRINTED) is Expectation.SIGN_FLIP
    assert expectation(IdentityId.THM4_I_PRINTED) is Expectation.FAILS_AT_ODD_INDEX


def test_verify_default_uses_standard_grid_and_ranges():
    from biperiodic import verify_default

    report = verify_default(IdentityId.DET_POWER)
    assert len(report.a_values) == len(report.b_values) == 6
    assert report.n_range == (1, 32)
    assert report.checked == 36 * 32
    assert report_matches_expectation(report)


def _as_unreduced(x: F, scale: int) -> _Unreduced:
    """x with numerator and denominator both multiplied by ``scale``: unreduced on purpose."""
    return _Unreduced(x.numerator * scale, x.denominator * scale)


#: an unreduced value and the Fraction it stands for
unreduced = st.builds(
    lambda x, scale: (_as_unreduced(x, scale), x),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.integers(-6, 6).filter(bool),
)
#: an int or Fraction operand
plain = st.one_of(st.integers(-50, 50), st.fractions(min_value=-50, max_value=50, max_denominator=30))


class TestUnreduced:
    """The catalog's gcd-free value against Fraction, alone and mixed with int and Fraction."""

    @settings(deadline=None)
    @given(x=unreduced, y=unreduced, z=plain, k=st.integers(-4, 4))
    def test_matches_fraction_arithmetic(self, x, y, z, k):
        (ux, fx), (uy, fy) = x, y
        for got, want in [
            (ux + uy, fx + fy), (ux - uy, fx - fy), (ux * uy, fx * fy),
            (ux + z, fx + z), (z + ux, z + fx),
            (ux - z, fx - z), (z - ux, z - fx),
            (ux * z, fx * z), (z * ux, z * fx),
            (-ux, -fx),
        ]:
            assert isinstance(got, _Unreduced)
            assert got.fraction() == want
        if fy:
            assert (ux / uy).fraction() == fx / fy
        if z:
            assert (ux / z).fraction() == fx / z
        if fx or k >= 0:
            assert (ux**k).fraction() == fx**k

    @settings(deadline=None)
    @given(x=unreduced, y=unreduced, z=plain)
    def test_equality_matches_fraction(self, x, y, z):
        (ux, fx), (uy, fy) = x, y
        assert (ux == uy) is (fx == fy)
        assert (ux != uy) is (fx != fy)
        assert (ux == z) is (z == ux) is (fx == z)
        assert (ux != z) is (z != ux) is (fx != z)
        assert ux == fx and fx == ux and ux == _as_unreduced(fx, -3)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            _Unreduced(1, 2) / _Unreduced(0, 5)
        with pytest.raises(ZeroDivisionError):
            _Unreduced(0, 2) ** -1


#: index windows lo..hi with -WINDOW_REACH <= lo <= 0 <= hi <= WINDOW_REACH
WINDOW_REACH = 4
SMALL_WINDOW = st.tuples(st.integers(-WINDOW_REACH, 0), st.integers(0, WINDOW_REACH))


class _OracleTable:
    """A catalog table built from the conftest oracle dicts: plain Fractions throughout."""

    def __init__(self, a, b, reach):
        fib = oracle_fib_table(a, b, -reach, reach)
        luc = oracle_lucas_table(a, b, -reach, reach)
        self.params = SeqParams(a, b)
        self.a, self.b, self.ab_plus_4 = F(a), F(b), F(a) * F(b) + 4
        self.fib, self.lucas = fib.__getitem__, luc.__getitem__


def _naive_report(ident, a_values, b_values, n_range, m_range):
    """(checked, passed, unexpected, counterexamples) of every evaluator over oracle tables."""
    idef = _CATALOG[ident]
    if idef.arity == 1:
        grid = [(n,) for n in range(n_range[0], n_range[1] + 1)
                if idef.min_index is None or n >= idef.min_index]
    else:
        grid = [(m, n) for m in range(m_range[0], m_range[1] + 1)
                for n in range(n_range[0], n_range[1] + 1)
                if idef.parity_domain is None or idef.parity_domain.ok(m, n)]
    assert list(_index_tuples(idef, n_range, m_range)) == grid
    checked = passed = unexpected = 0
    counterexamples = []
    for a in a_values:
        for b in b_values:
            p = SeqParams(a, b)
            if idef.exclude is not None and idef.exclude(p) is not None:
                continue
            table = _OracleTable(a, b, 4 * (WINDOW_REACH + 1))
            for indices in grid:
                lhs, rhs = idef.evaluate(table, *indices)
                checked += 1
                passed += lhs == rhs
                if lhs != rhs:
                    counterexamples.append((a, b, indices, lhs, rhs))
                if idef.gap is None:
                    unexpected += lhs != rhs
                else:
                    unexpected += lhs - rhs != idef.gap(table, lhs, *indices)
    counterexamples.sort(key=lambda ce: ce[:3])
    return checked, passed, unexpected, counterexamples


@settings(deadline=None, max_examples=40)
@given(
    ab=pairs,
    more_a=st.lists(nonzero, max_size=1),
    more_b=st.lists(nonzero, max_size=1),
    n_range=SMALL_WINDOW,
    m_range=SMALL_WINDOW,
)
def test_verify_grid_matches_naive_reevaluation(ab, more_a, more_b, n_range, m_range):
    # every evaluator, re-run over oracle tables of Fractions: the counts and
    # the counterexamples' Fractions must be those of the gcd-free run
    a_values, b_values = [ab[0], *more_a], [ab[1], *more_b]
    for ident in IdentityId:
        report = verify_grid(ident, a_values, b_values, n_range=n_range, m_range=m_range)
        ranges = (n_range, m_range if _CATALOG[ident].arity == 2 else None)
        checked, passed, unexpected, counterexamples = _naive_report(
            ident, a_values, b_values, *ranges
        )
        assert (report.checked, report.passed, report.unexpected) == (
            checked, passed, unexpected
        ), ident
        got = [(ce.a, ce.b, ce.indices, ce.lhs, ce.rhs) for ce in report.counterexamples]
        assert got == counterexamples, ident
        for ce in report.counterexamples:
            assert all(isinstance(v, F) for v in (ce.lhs, ce.rhs)), ident


def test_cassini_checks_build_fractions_per_point_not_per_check(monkeypatch):
    # the checks run on gcd-free values: the Fractions built are per
    # parameter point (parameters, walk seeds), so doubling the checks
    # leaves the count unchanged
    new = F.__new__
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    counts = {}
    lo, hi = DEFAULT_RANGES[IdentityId.CASSINI_FIB][0]
    for n_range in ((lo, hi // 2), (lo, hi)):
        built = 0
        with monkeypatch.context() as patch:
            patch.setattr(F, "__new__", counting_new)
            report = verify_grid(
                IdentityId.CASSINI_FIB, STANDARD_VALUES, STANDARD_VALUES, n_range=n_range
            )
        assert report.passed == report.checked == 36 * (n_range[1] - n_range[0] + 1)
        counts[n_range] = built
    assert F.__new__ is new
    per_point = [count / 36 for count in counts.values()]
    assert per_point[0] == per_point[1] <= 32, counts

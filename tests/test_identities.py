import copy
import dataclasses
import math
import pickle
from collections import Counter
from fractions import Fraction as F
from itertools import chain, product, repeat
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
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
    verify_default,
    verify_grid,
)
from biperiodic import binet, identities
from biperiodic.cli import MAX_COUNTEREXAMPLES_SHOWN
from biperiodic.identities import (
    _CATALOG,
    Counterexample,
    _blocks,
    _eval_binet_lucas,
    _eval_cassini_fib,
    _eval_sub_qq,
    _fraction,
    _gap_thm4_printed,
    _Index,
    _index_tuples,
    _kept,
    _Lane,
    _Lanes,
    _sides,
    _sign,
)
from biperiodic.sequences import _coefficient, parity
from conftest import nonzero, oracle_fib_table, oracle_lucas_table, pairs

#: small index windows lo..hi with lo <= 0 <= hi
WINDOW = st.tuples(st.integers(-8, 0), st.integers(0, 8))
GENERIC_PAIRS = [(F(2), F(3)), (F(5, 3), F(-7, 2)), (F(-1), F(1, 2))]
#: a 4 x 5 grid with four points on the line ab = -4, ON_THE_LINE in (a, b) order
LINE_GRID = ([1, 2, F(-1, 2), 4], [-4, -2, 8, -1, 3])
ON_THE_LINE = [(F(-1, 2), 8), (1, -4), (2, -2), (4, -1)]


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
        sides = cassini_fib(SeqParams(2, 3), 2)
        assert sides == (F(2), F(2))
        assert all(type(x) is F for x in sides)

    def test_fib_at_n1_is_minus_a(self):
        for a, b in GENERIC_PAIRS:
            lhs, rhs = cassini_fib(SeqParams(a, b), 1)
            assert lhs == rhs == -a

    def test_fib_classical_n6(self):
        # F5*F7 - F6^2 = 65 - 64 = 1
        assert cassini_fib(SeqParams(1, 1), 6) == (F(1), F(1))

    def test_lucas_at_2_3_n1(self):
        # l0*l2 - (3/2)*l1^2 = 16 - 6 = 10 = ab + 4; the rhs is the plain int
        # ab + 4 inside the check, and a Fraction again at the boundary
        sides = cassini_lucas(SeqParams(2, 3), 1)
        assert sides == (F(10), F(10))
        assert all(type(x) is F for x in sides)

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

    @pytest.mark.parametrize("ident", list(IdentityId), ids=lambda ident: ident.value)
    def test_evaluate_refuses_exactly_what_the_grid_leaves_out(self, ident):
        # -5..5 reaches below every min_index and holds all four parity classes
        idef = _CATALOG[ident]
        window = (-5, 5)
        grid = set(_index_tuples(idef, window, window if idef.arity == 2 else None))
        p = SeqParams(2, 3)
        for indices in product(range(window[0], window[1] + 1), repeat=idef.arity):
            try:
                evaluate(ident, p, *indices)
            except ValueError as err:
                assert indices not in grid, (indices, err)
                assert str(err).startswith(ident.value), err
                assert isinstance(err, ParityMismatchError) is (idef.parity_domain is not None)
            else:
                assert indices in grid, indices


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
        # thm6-iii runs on lanes, over a 12 x 12 index box
        for ident, checks in ((IdentityId.MATRIX_FORM, 12), (IdentityId.CASSINI_LUCAS, 12),
                              (IdentityId.THM6_III, 144)):
            report = verify_grid(ident, [2, F(-3, 2)], [3, -2], n_range=(1, 12))
            assert report.passed == report.checked == 4 * checks
        assert len(walks) == len(set(walks)) == 24  # 3 identities x 4 points x 2 kinds

    def test_det_power_at_singular_point(self):
        report = verify_grid(IdentityId.DET_POWER, [1], [-4], n_range=(1, 5))
        assert (report.checked, report.passed) == (5, 5)
        # the determinant really is zero there, not merely self-consistent
        from biperiodic import det_power

        assert det_power(SeqParams(1, -4), 3) == 0

    def test_inverse_power_records_exclusions(self):
        report = verify_grid(IdentityId.INVERSE_POWER, *LINE_GRID, n_range=(-4, 4))
        reason = "ab + 4 = 0: generating matrix is singular"
        assert [(e.a, e.b, e.reason) for e in report.excluded] == [(a, b, reason) for a, b in ON_THE_LINE]
        assert report.passed == report.checked == 16 * 9

    @pytest.mark.parametrize(
        "ident, indices",
        [(IdentityId.DET_POWER, 5), (IdentityId.MATRIX_FORM, 5), (IdentityId.BINET_FIB, 11),
         (IdentityId.BINET_LUCAS, 11)],
    )
    def test_engine_entries_without_a_reason_check_the_line(self, ident, indices):
        # n_range -5..5, clipped at min_index 1 for det-power and matrix-form
        report = verify_grid(ident, *LINE_GRID, n_range=(-5, 5))
        assert report.excluded == ()
        assert report.passed == report.checked == 20 * indices

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

    def test_one_index_counterexamples_merge_their_parity_blocks_in_index_order(self):
        # thm4-i-printed fails wherever q(n) != 0, at even and odd n alike; a
        # point's two parity blocks come back merged, and a point given twice
        # repeats each counterexample
        report = verify_grid(IdentityId.THM4_I_PRINTED, [2, F(1, 2), 2], [3], n_range=(-5, 6))
        failing = [(n,) for n in range(-5, 7) if n != 0]
        keys = [(ce.a, ce.b, ce.indices) for ce in report.counterexamples]
        assert keys == [(F(1, 2), 3, i) for i in failing] + [(2, 3, i) for i in failing for _ in "ab"]
        assert report_matches_expectation(report)

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
    report = verify_default(IdentityId.DET_POWER)
    assert len(report.a_values) == len(report.b_values) == 6
    assert report.n_range == (1, 32)
    assert report.checked == 36 * 32
    assert report_matches_expectation(report)


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
                if idef.parity_domain is None or (m & 1, n & 1) in idef.parity_domain.classes]
    assert list(_index_tuples(idef, n_range, m_range)) == grid
    checked = passed = unexpected = 0
    counterexamples = []
    for a in a_values:
        for b in b_values:
            if idef.line_reason is not None and F(a) * F(b) == -4:
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
# integral points check on plain ints: a grid of only those, with ab = -4 at
# (2, -2), and a grid mixing them with non-integral points, one on ab = -4
@example(ab=(F(2), F(-2)), more_a=[F(-1)], more_b=[F(3)],
         n_range=(-WINDOW_REACH, WINDOW_REACH), m_range=(-WINDOW_REACH, WINDOW_REACH))
@example(ab=(F(-1), F(4)), more_a=[F(1, 2)], more_b=[F(-8)],
         n_range=(-WINDOW_REACH, WINDOW_REACH), m_range=(-WINDOW_REACH, WINDOW_REACH))
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


#: the 13 recurrence-based entries that read only terms and ab + 4, never a or b
TERM_ONLY = [ident for ident in IdentityId if ident.value.startswith(("thm6-", "add-", "sub-"))]
#: the 16 recurrence-based entries: TERM_ONLY, cassini-* and thm4-i-printed, all on lanes
ON_LANES = [ident for ident in IdentityId if _CATALOG[ident].table is _Lanes]


def test_recurrence_checks_build_fractions_and_lanes_per_point_not_per_check(monkeypatch):
    # a point calls its evaluator once per block of the grid, on lanes of int
    # numerators and denominators: the Fractions and lanes it builds are as
    # many on the default grid as on a tiny one, however many checks run
    new, init = F.__new__, _Lane.__init__
    built = Counter()

    def counting_new(cls, *args, **kwargs):
        built[F] += 1
        return new(cls, *args, **kwargs)

    def counting_init(self, n, d=None):
        built[_Lane] += 1
        init(self, n, d)

    monkeypatch.setattr(F, "__new__", counting_new)
    monkeypatch.setattr(_Lane, "__init__", counting_init)
    integral = ((F(2), F(-3)), (F(2), F(-3, 2)))
    fractional = ((F(1, 2), F(3)), (F(1, 2), F(2)), (F(7, 5), F(-11, 3)))
    assert len(ON_LANES) == 16 and set(TERM_ONLY) < set(ON_LANES)
    for a, b in integral + fractional:
        for ident in ON_LANES:
            n_range, m_range = DEFAULT_RANGES[ident]
            tiny = ((0, 1), (0, 1)) if m_range else ((1, 2), None)  # both parities of n
            counts = []
            for box in ((n_range, m_range), tiny):
                built.clear()
                report = verify_grid(ident, [a], [b], n_range=box[0], m_range=box[1])
                assert report_matches_expectation(report), ident
                counts.append((dict(built), report.checked))
            (big, many), (small, few) = counts
            assert big == small and big[_Lane] and many >= 100 * few, (a, b, ident, counts)


#: rule -> the parity classes outside its domain on which it still holds at
#: every point checked; widening those domains would change pinned counts
HOLDS_OFF_DOMAIN = {IdentityId.ADD_QQ: {(1, 1)}, IdentityId.ADD_LL: {(0, 0)}}


@pytest.mark.parametrize(
    "ident",
    [ident for ident in IdentityId if _CATALOG[ident].parity_domain is not None],
    ids=lambda ident: ident.value,
)
def test_parity_rules_fail_on_the_classes_outside_their_domain(ident):
    # the raw evaluator over oracle tables at generic points, m and n in -9..9
    idef = _CATALOG[ident]
    tables = [_OracleTable(a, b, 20) for a, b in ((F(2), F(3)), (F(-3, 2), F(1, 2)),
                                                   (F(7, 5), F(-2, 9)))]
    window = range(-9, 10)
    for cls in product((0, 1), repeat=2):
        if cls in idef.parity_domain.classes:
            continue
        sides = [idef.evaluate(table, m, n) for table in tables
                 for m, n in product(window, repeat=2) if (m & 1, n & 1) == cls]
        held = all(lhs == rhs for lhs, rhs in sides)
        assert held is (cls in HOLDS_OFF_DOMAIN.get(ident, ())), cls


#: an index box lo..hi of width 1..8, starting at odd and even indices alike
BOX = st.integers(-12, 12).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 7)))


@settings(deadline=None, max_examples=200)
@given(n_range=BOX, m_range=BOX)
@example(n_range=(3, 3), m_range=(-4, 5))  # one column: a single n parity
@example(n_range=(-3, 4), m_range=(2, 2))  # one row: a single m parity
@example(n_range=(-5, 0), m_range=(-5, -5))  # n wholly below min_index 1
@example(n_range=(-4, 3), m_range=(-3, 4))  # odd m start, even n start
def test_index_tuples_are_the_box_filtered_by_refusal(n_range, m_range):
    # the grid asks refusal once per parity sub-box; it must keep exactly
    # the tuples that asking it of every tuple keeps, in the same order.
    # Its blocks hold those tuples, each in order: every one-index grid as
    # its parity classes, whose columns each read one parity, a two-index
    # grid whole
    for ident, idef in _CATALOG.items():
        spans = (n_range,) if idef.arity == 1 else (m_range, n_range)
        box = product(*(range(lo, hi + 1) for lo, hi in spans))
        want = [indices for indices in box if idef.refusal(indices) is None]
        got = _index_tuples(idef, n_range, m_range if idef.arity == 2 else None)
        assert got == want, ident
        blocks = _blocks(idef, got)
        assert sorted(chain(*blocks)) == want and all(block == sorted(block) for block in blocks), ident
        if idef.arity == 1:
            assert len(blocks) == min(len(want), 2), ident
            assert [_Index([n for n, in block]) & 1 for block in blocks] == [n & 1 for n, in want[:2]], ident
        else:
            assert blocks == ([want] if want else []), ident


def test_no_two_index_entry_has_a_min_index():
    # refusal is constant on a parity sub-box only while this holds
    two_index = [idef for idef in _CATALOG.values() if idef.arity == 2]
    assert len(two_index) == 13
    assert all(idef.min_index is None for idef in two_index)


def test_a_failing_ordinary_entry_reports_what_a_naive_loop_does(monkeypatch):
    # sub-qq with q(3) one too large at the points with b = 3 only, so some
    # points hold at every check and others fail at some; a = 2 is given
    # twice, so its counterexamples come back twice. The fault is one
    # perturbed term of the point, in the lanes' reader and in the naive
    # loop alike
    reader = identities._reader

    def perturbed(p, kind, integral):
        read = reader(p, kind, integral)
        if p.b == 3 and kind is SequenceKind.FIBONACCI:
            return lambda idx: read(idx) + _Lane([int(k == 3) for k in idx.v])
        return read

    def perturbed_oracle(a, b):
        table = _OracleTable(a, b, 12)
        if b == 3:
            table.fib.__self__[3] += 1  # the oracle dict behind fib
        return table

    monkeypatch.setattr(identities, "_reader", perturbed)
    _assert_report_is_naive(IdentityId.SUB_QQ, perturbed_oracle, (-6, 5), (-3, 4))

    # the engine twin: binet-fib with the Binet engine one too large at
    # n = 3 and n = 4, one index of each parity block, at the points with
    # b = 3 only. The naive loop runs the same evaluator per tuple
    binet_fib = binet.binet_fib
    monkeypatch.setattr(binet, "binet_fib", lambda p, n: binet_fib(p, n) + int(p.b == 3 and n in (3, 4)))
    _assert_report_is_naive(IdentityId.BINET_FIB, lambda a, b: _OracleTable(a, b, 12), (-6, 5), None)


def _assert_report_is_naive(ident, oracle, n_range, m_range):
    """verify_grid's report of ident equals a naive loop's over the tables ``oracle(a, b)``."""
    a_values, b_values = [2, F(1, 2), 2], [3, F(-3, 2)]
    report = verify_grid(ident, a_values, b_values, n_range=n_range, m_range=m_range)

    idef = _CATALOG[ident]
    spans = (n_range,) if m_range is None else (m_range, n_range)
    grid = [indices for indices in product(*(range(lo, hi + 1) for lo, hi in spans))
            if idef.refusal(indices) is None]
    checked = passed = unexpected = 0
    counterexamples = []
    for a in a_values:
        for b in b_values:
            table = oracle(a, b)
            for indices in grid:
                lhs, rhs = idef.evaluate(table, *indices)
                checked += 1
                if lhs == rhs:
                    passed += 1
                else:
                    unexpected += 1
                    counterexamples.append((F(a), F(b), indices, lhs, rhs))
    counterexamples.sort(key=lambda ce: ce[:3])

    assert 0 < unexpected < checked
    assert (report.checked, report.passed, report.unexpected) == (checked, passed, unexpected)
    got = [(ce.a, ce.b, ce.indices, ce.lhs, ce.rhs) for ce in report.counterexamples]
    assert got == counterexamples
    assert not report_matches_expectation(report)


def test_an_impure_evaluator_is_refused(monkeypatch):
    # a failed check of an engine entry runs again for its counterexample;
    # a check that then holds would be counted both unexpected and passed,
    # so verify_grid raises (python -O keeps it)
    ident = IdentityId.BINET_LUCAS
    runs = 0

    def flaky(t, n):
        nonlocal runs
        lhs, rhs = _eval_binet_lucas(t, n)
        if n == 4:
            runs += 1
            if runs == 1:
                return lhs + 1, rhs
        return lhs, rhs

    monkeypatch.setitem(_CATALOG, ident, dataclasses.replace(_CATALOG[ident], evaluate=flaky))
    with pytest.raises(AssertionError, match="binet-lucas: evaluator is not a pure read of its table"):
        verify_grid(ident, [2], [3], n_range=(1, 9))
    assert runs == 2


def test_an_impure_one_index_lane_evaluator_is_refused(monkeypatch):
    # the lane twin for a one-index entry: the failed checks of a parity
    # block run again, on the block's failing index column, and must fail again
    ident = IdentityId.CASSINI_FIB
    runs = 0

    def flaky(t, n):
        nonlocal runs
        runs += 1
        lhs, rhs = _eval_cassini_fib(t, n)
        return (lhs + 1 if runs == 1 else lhs), rhs

    monkeypatch.setitem(_CATALOG, ident, dataclasses.replace(_CATALOG[ident], evaluate=flaky))
    with pytest.raises(AssertionError, match="cassini-fib: evaluator is not a pure read of its table"):
        verify_grid(ident, [2], [3], n_range=(1, 9))
    assert runs == 2


def test_an_impure_lane_evaluator_is_refused(monkeypatch):
    # the lane twin: a two-index entry's failed checks run again, on the
    # failing index columns, and must fail again
    ident = IdentityId.SUB_QQ
    runs = 0

    def flaky(t, m, n):
        nonlocal runs
        runs += 1
        lhs, rhs = _eval_sub_qq(t, m, n)
        return (lhs + 1 if runs == 1 else lhs), rhs

    monkeypatch.setitem(_CATALOG, ident, dataclasses.replace(_CATALOG[ident], evaluate=flaky))
    with pytest.raises(AssertionError, match="sub-qq: evaluator is not a pure read of its table"):
        verify_grid(ident, [2], [3], n_range=(-4, 4))
    assert runs == 2


def test_the_engine_entries_read_a_term_table_and_have_no_gap():
    # a gap is lane arithmetic, so no entry that reads a TermTable has one
    engines = [ident.value for ident, idef in _CATALOG.items() if idef.table is TermTable]
    assert engines == ["det-power", "binet-fib", "binet-lucas", "matrix-form", "inverse-power"]
    assert all(_CATALOG[IdentityId(ident)].gap is None for ident in engines)
    assert all(idef.table in (_Lanes, TermTable) for idef in _CATALOG.values())


def test_columns_have_no_truth_value_equality_order_or_hash():
    # so a per-check branch cannot run once for a whole column
    for column in (_Index([1, 2, 3]), _Lane([1, 2], [3, 4])):
        for use in (bool, lambda c: c == c, lambda c: c != 1, lambda c: c < 2, hash):
            with pytest.raises(TypeError):
                use(column)


def test_column_arithmetic_matches_elementwise_arithmetic():
    # +, - and * with a column or a constant on either side, against int and
    # Fraction arithmetic one element at a time; a span bounds its column
    def values(x, size=4):
        if type(x) is _Index:
            return x.v
        if type(x) is _Lane:
            return [_fraction(v) for v in _kept(x, repeat(True))]
        return [_fraction(x)] * size

    m, n = _Index([3, -1, 0, 7]), _Index([-2, 5, 4, 1])
    xs, ys = [F(3, 4), F(-5), F(0), F(7, 9)], [F(1, 6), F(2, 3), F(-4, 5), F(3)]
    x = _Lane([v.numerator * 2 for v in xs], [v.denominator * 2 for v in xs])  # unreduced
    y = _Lane([v.numerator for v in ys], [v.denominator for v in ys])
    ints = _Lane([4, -3, 0, 2])
    for op in (add, sub, mul):
        for left, right in ((m, n), (m, 3), (-2, n)):
            got, want = op(left, right), list(map(op, values(left), values(right)))
            assert got.v == want and got.span[0] <= min(want) and max(want) <= got.span[1]
        for left, right in ((x, y), (x, 3), (-2, y), (F(10, -4), y), (ints, y), (ints, 5), (ints, F(3, 4))):
            assert values(op(left, right)) == list(map(op, values(left), values(right))), (op, left, right)
    # ** to an int k >= 0, and / by a nonzero constant
    for lane in (x, y, ints):
        for k in (0, 1, 2, 3):
            assert values(lane**k) == [v**k for v in values(lane)]
        for c in (F(-7, 3), 2, -1, F(1, 5)):
            assert values(lane / c) == [v / c for v in values(lane)]
        for refused in (lambda: lane / 0, lambda: lane / F(0)):
            with pytest.raises(ZeroDivisionError):
                refused()
        for refused in (lambda: lane / lane, lambda: lane**-1, lambda: lane ** F(1, 2)):
            with pytest.raises(TypeError):
                refused()


@settings(deadline=None)
@given(lo=st.integers(-40, 40), width=st.integers(0, 6), k=st.integers(-9, 9))
def test_an_index_column_reads_the_parity_its_indices_share(lo, width, k):
    # & 1 of a column of one parity is that parity, a plain int, also after
    # +, - and * with an int; sequences.parity and _coefficient read it so
    a, b = F(5, 3), F(-7, 2)
    for start in (lo, lo + 1):
        column, bit = _Index(list(range(start, start + 2 * width + 1, 2))), start % 2
        assert type(column & 1) is int and column & 1 == parity(column) == bit
        for derived, want in ((column + k, bit + k), (k + column, bit + k), (column - k, bit - k),
                              (k - column, k - bit), (column * k, bit * k), (k * column, bit * k)):
            assert derived & 1 == want % 2, (start, k)
        assert _coefficient(a, b, SequenceKind.FIBONACCI, column) is (b if bit else a)
    mixed = _Index(list(range(lo, lo + width + 2)))  # two consecutive indices at least
    for read in (lambda c: c & 1, parity, lambda c: _coefficient(a, b, SequenceKind.LUCAS, c)):
        with pytest.raises(TypeError):
            read(mixed)


def test_an_evaluator_that_branches_on_its_index_raises_on_a_column():
    # cassini-fib picks its coefficients by the parity of n, which a column
    # of mixed parity does not have; an evaluator that tests an index's value
    # raises on a column of one parity too
    t = _Lanes(SeqParams(2, 3))
    with pytest.raises(TypeError):
        _eval_cassini_fib(t, _Index([1, 2, 3]))
    lhs, rhs = _sides(_eval_cassini_fib, t, (_Index([-3, 1, 5]),))
    assert [_fraction(v) for v in _kept(lhs, repeat(True))] == [F(-2)] * 3 == [_fraction(v) for v in _kept(rhs, repeat(True))]

    def branching(t, n):
        lhs, rhs = _eval_cassini_fib(t, n)
        return (lhs + 1 if n == 4 else lhs), rhs

    with pytest.raises(TypeError):
        branching(t, _Index([2, 4, 6]))


#: coprime denominators that are not powers of 2, negative parameters, and
#: points on ab = -4, besides the random pairs
LANE_POINTS = st.one_of(
    st.sampled_from([(F(7, 5), F(-11, 3)), (F(-11, 3), F(7, 5)), (F(-3, 7), F(-5)),
                     (F(2), F(-2)), (F(-1, 2), F(8)), (F(4, 3), F(-3))]),
    pairs,
)
#: an index box lo..hi of width 1..7 that may start odd and may cross 0
SMALL_BOX = st.integers(-7, 7).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 6)))


@settings(deadline=None, max_examples=60)
@given(ab=LANE_POINTS, n_range=SMALL_BOX, m_range=SMALL_BOX)
@example(ab=(F(7, 5), F(-11, 3)), n_range=(-5, 1), m_range=(-3, 3))  # odd starts, crossing 0
@example(ab=(F(2), F(-2)), n_range=(-7, -1), m_range=(1, 7))
@example(ab=(F(-3, 7), F(-5)), n_range=(-4, 3), m_range=(2, 2))  # even n start
@example(ab=(F(4, 3), F(-3)), n_range=(3, 3), m_range=(-2, -2))  # one index
@example(ab=(F(-11, 3), F(7, 5)), n_range=(0, 0), m_range=(0, 6))
def test_lanes_match_the_oracle_tuple_by_tuple(ab, n_range, m_range):
    # each recurrence evaluator, and each gap, on the lanes of every block of
    # the grid against the same function over oracle Fractions, one index
    # tuple at a time
    a, b = ab
    oracle = _OracleTable(a, b, 2 * (13 + 13 + 1) + 1)  # thm6-*'s reach, 2(m + n + 1) + 1
    lanes = _Lanes(SeqParams(a, b))
    for ident in ON_LANES:
        idef = _CATALOG[ident]
        grid = _index_tuples(idef, n_range, m_range if idef.arity == 2 else None)
        for block in _blocks(idef, grid):
            columns = tuple(map(_Index, zip(*block)))
            lhs, rhs = _sides(idef.evaluate, lanes, columns)
            got = zip(*(map(_fraction, _kept(side, repeat(True))) for side in (lhs, rhs)))
            want = [idef.evaluate(oracle, *indices) for indices in block]
            assert list(got) == want, (ident, block)
            if idef.gap is not None:
                gaps = map(_fraction, _kept(idef.gap(lanes, lhs, *columns), repeat(True)))
                assert list(gaps) == [idef.gap(oracle, side, *indices)
                                      for (side, _), indices in zip(want, block)], (ident, block)


def test_a_gap_entry_reports_what_a_naive_loop_does(monkeypatch):
    # thm4-i-printed with a gap off by 2 at odd n, so each point counts
    # unexpected tuples among checks that hold (a = b = 2) and among those
    # that fail; integral points, non-integral ones and a = 2 given twice,
    # whose counterexamples come back twice. The naive loop runs over oracle
    # Fractions
    ident = IdentityId.THM4_I_PRINTED

    def skewed(t, lhs, n):
        return _gap_thm4_printed(t, lhs, n) + 1 - _sign(n)

    idef = dataclasses.replace(_CATALOG[ident], gap=skewed)
    monkeypatch.setitem(_CATALOG, ident, idef)
    a_values, b_values = [2, F(1, 2), 2], [2, F(-3, 2), 3]
    n_range = (-5, 8)
    report = verify_grid(ident, a_values, b_values, n_range=n_range)

    checked = passed = unexpected = 0
    counterexamples = []
    for a in a_values:
        for b in b_values:
            table = _OracleTable(a, b, 12)
            for n in range(n_range[0], n_range[1] + 1):
                lhs, rhs = idef.evaluate(table, n)
                checked += 1
                passed += lhs == rhs
                unexpected += lhs - rhs != skewed(table, lhs, n)
                if lhs != rhs:
                    counterexamples.append((F(a), F(b), (n,), lhs, rhs))
    counterexamples.sort(key=lambda ce: ce[:3])

    assert 0 < passed < checked and 0 < unexpected < checked
    assert (report.checked, report.passed, report.unexpected) == (checked, passed, unexpected)
    got = [(ce.a, ce.b, ce.indices, ce.lhs, ce.rhs) for ce in report.counterexamples]
    assert got == counterexamples
    assert not report_matches_expectation(report)


def test_erratum_counterexamples_build_fractions_on_read(monkeypatch):
    # thm6-vi-printed fails at 23,436 of the default grid's 24,336 checks;
    # its report builds Fractions per point, and reading the counterexamples
    # that verify prints normalizes their sides and no others
    new = F.__new__
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    report = verify_default(IdentityId.THM6_VI_PRINTED)
    at_report = built
    shown = [(ce.lhs, ce.rhs) for ce in report.counterexamples[:MAX_COUNTEREXAMPLES_SHOWN]]
    monkeypatch.undo()
    assert len(report.counterexamples) == 23436
    assert all(lhs == -rhs for lhs, rhs in shown)
    assert at_report <= 32 * 36, at_report
    assert built - at_report <= 2 * MAX_COUNTEREXAMPLES_SHOWN == 50, built - at_report


#: the pinned verify grids of the two erratum entries (tests/test_golden.py)
ERRATUM_GRIDS = [
    (IdentityId.THM4_I_PRINTED, [2, 3], [3, 2], (1, 9), None),
    (IdentityId.THM4_I_PRINTED, [F(5, 3), F(-2, 5)], [F(-4, 3), F(7, 2)], (-8, 8), None),
    (IdentityId.THM4_I_PRINTED, [2, -1, 3], [-2, 1, -3], (-8, 8), None),
    (IdentityId.THM6_VI_PRINTED, [F(1, 2), F(1, 2), -3], [3, F(-3, 2)], (-3, 4), (-2, 5)),
    (IdentityId.THM6_VI_PRINTED, [F(5, 3), -2], [F(-7, 2), F(1, 2)], (-7, 6), (-3, 8)),
    (IdentityId.THM6_VI_PRINTED, [2, -1, 3], [-2, 1, -3], (-8, 8), None),
]


@pytest.mark.parametrize("ident, a_values, b_values, n_range, m_range", ERRATUM_GRIDS)
def test_counterexamples_behave_as_if_built_eagerly(ident, a_values, b_values, n_range, m_range):
    # a report's counterexamples against Counterexample(a, b, indices,
    # Fraction, Fraction) built through the constructor; each comparison
    # reads a fresh report, so its first read of every field is its own
    def fresh():
        return verify_grid(ident, a_values, b_values, n_range=n_range, m_range=m_range).counterexamples

    idef = _CATALOG[ident]
    grid = _index_tuples(idef, n_range, (m_range or n_range) if idef.arity == 2 else None)
    eager = []
    for a in a_values:
        for b in b_values:
            for indices in grid:
                lhs, rhs = evaluate(ident, SeqParams(a, b), *indices)
                if lhs != rhs:
                    eager.append(Counterexample(F(a), F(b), indices, lhs, rhs))
    eager.sort(key=lambda ce: (ce.a, ce.b, ce.indices))
    assert eager

    assert list(fresh()) == eager
    assert [hash(ce) for ce in fresh()] == [hash(ce) for ce in eager]
    assert [repr(ce) for ce in fresh()] == [repr(ce) for ce in eager]
    assert [dataclasses.astuple(ce) for ce in fresh()] == [dataclasses.astuple(ce) for ce in eager]
    for got in ([copy.copy(ce) for ce in fresh()], pickle.loads(pickle.dumps(fresh()))):
        assert list(got) == eager
        assert [vars(ce) for ce in got] == [vars(ce) for ce in eager]
    for ce in fresh():
        for side in (ce.lhs, ce.rhs):
            assert type(side) is F
            assert side.denominator > 0 and math.gcd(side.numerator, side.denominator) == 1

import ast
from fractions import Fraction as F
from itertools import islice
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biperiodic import (
    PRESET_CLASSICAL,
    PRESET_K_LUCAS,
    SeqParams,
    SequenceKind,
    TermTable,
    parity,
    preset,
    term_recurrence,
)
from biperiodic import sequences
from biperiodic.sequences import (
    _coefficient,
    _finished_term,
    _forward,
    _reflected,
    _seeds,
    _term_shape,
    term_pairs,
)
from conftest import classical_fib, classical_lucas, oracle_fib_table, oracle_lucas_table, pairs

FIB = SequenceKind.FIBONACCI
LUC = SequenceKind.LUCAS

GENERIC_PAIRS = [(F(2), F(3)), (F(5, 3), F(-7, 2)), (F(-1), F(1, 2))]

indices = st.integers(-40, 40)


def ordered(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted)


RANGE_SHAPES = {
    "below-0": ordered(-40, -1),
    "above-0": ordered(1, 40),
    "straddling-0": st.tuples(st.integers(-40, -1), st.integers(0, 40)),
    "single-point": indices.map(lambda n: (n, n)),
}


def oracle(a, b, kind, lo, hi):
    table = oracle_fib_table if kind is FIB else oracle_lucas_table
    return table(a, b, min(lo, 0), max(hi, 1))


def test_parity_indicator():
    assert parity(4) == 0
    assert parity(7) == 1
    # -3 = 2*(-2) + 1
    assert parity(-3) == 1
    assert parity(0) == 0
    assert parity(-8) == 0
    # n & 1 is n mod 2 for every int, the far negative ones included
    for n in [*range(-41, 42), -(2**70) - 1, -(2**70), 2**70 + 1, -(10**30) + 7]:
        assert parity(n) == n % 2 and type(parity(n)) is int, n


def test_params_reject_zero():
    with pytest.raises(ValueError):
        SeqParams(0, 3)
    with pytest.raises(ValueError):
        SeqParams(2, 0)


def test_derived_constants():
    p = SeqParams(2, 3)
    assert p.ab == 6
    assert p.ab_plus_4 == 10
    assert p.disc == 60
    assert SeqParams(1, -4).disc == 0
    # computed once per instance; equality, hashing and repr see (a, b) only
    assert p.ab_plus_4 is p.ab_plus_4 and p.disc is p.disc
    assert p == SeqParams(F(4, 2), 3) and hash(p) == hash(SeqParams(2, F(3)))
    assert repr(p) == "SeqParams(a=Fraction(2, 1), b=Fraction(3, 1))"


def test_seeds():
    for a, b in GENERIC_PAIRS:
        p = SeqParams(a, b)
        assert term_recurrence(p, FIB, 0) == 0
        assert term_recurrence(p, FIB, 1) == 1
        assert term_recurrence(p, LUC, 0) == 2
        assert term_recurrence(p, LUC, 1) == a


#: (a, b, the same point as SeqParams): int and Fraction values
VALUE_TYPES = [
    (2, -3, SeqParams(2, -3)),
    (F(5, 3), F(-7, 2), SeqParams(F(5, 3), F(-7, 2))),
]


@pytest.mark.parametrize("a, b, p", VALUE_TYPES)
def test_coefficient_and_seeds_hand_back_the_values_they_are_given(a, b, p):
    for n in (0, 4, -4):
        assert _coefficient(a, b, FIB, n) is a and _coefficient(a, b, LUC, n) is b
    for n in (1, 7, -7):
        assert _coefficient(a, b, FIB, n) is b and _coefficient(a, b, LUC, n) is a
    assert _seeds(a, FIB) == (0, 1)
    t0, t1 = _seeds(a, LUC)
    assert t0 == 2 and t1 is a
    # two steps of the recurrence in the value's own type match the oracle
    for kind in (FIB, LUC):
        t0, t1 = _seeds(a, kind)
        t2 = _coefficient(a, b, kind, 2) * t1 + t0
        t3 = _coefficient(a, b, kind, 3) * t2 + t1
        assert (t2, t3) == (term_recurrence(p, kind, 2), term_recurrence(p, kind, 3)), kind


def test_symbolic_prefix_at_generic_rationals():
    for a, b in GENERIC_PAIRS:
        p = SeqParams(a, b)
        assert term_recurrence(p, FIB, 2) == a
        assert term_recurrence(p, FIB, 3) == a * b + 1
        assert term_recurrence(p, LUC, 2) == a * b + 2


def test_fibonacci_at_2_3():
    p = SeqParams(2, 3)
    assert [term_recurrence(p, FIB, n) for n in range(6)] == [0, 1, 2, 7, 16, 55]


def test_lucas_at_2_3():
    p = SeqParams(2, 3)
    assert [term_recurrence(p, LUC, n) for n in range(6)] == [2, 2, 8, 18, 62, 142]


def test_negative_index_examples():
    p = SeqParams(2, 3)
    assert term_recurrence(p, FIB, -2) == -p.a
    assert [term_recurrence(p, FIB, n) for n in range(-3, 4)] == [7, -2, 1, 0, 1, 2, 7]


def test_matches_independent_table_oracle():
    for a, b in GENERIC_PAIRS:
        p = SeqParams(a, b)
        fib = oracle_fib_table(a, b, -25, 25)
        luc = oracle_lucas_table(a, b, -25, 25)
        for n in range(-25, 26):
            assert term_recurrence(p, FIB, n) == fib[n]
            assert term_recurrence(p, LUC, n) == luc[n]


def test_backward_forward_consistency():
    # applying the forward step to (t(n-2), t(n-1)) must reproduce t(n)
    for a, b in GENERIC_PAIRS:
        p = SeqParams(a, b)
        for kind in (FIB, LUC):
            for n in range(-20, 21):
                if kind is FIB:
                    c = a if parity(n) == 0 else b
                else:
                    c = b if parity(n) == 0 else a
                assert term_recurrence(p, kind, n) == c * term_recurrence(
                    p, kind, n - 1
                ) + term_recurrence(p, kind, n - 2)


def test_negative_index_reflection():
    for a, b in [(F(1), F(1)), (F(2), F(3)), (F(1, 2), F(-3, 2))]:
        p = SeqParams(a, b)
        for n in range(1, 51):
            sign = 1 if parity(n) == 1 else -1
            assert term_recurrence(p, FIB, -n) == sign * term_recurrence(p, FIB, n)
            assert term_recurrence(p, LUC, -n) == -sign * term_recurrence(p, LUC, n)


@pytest.mark.parametrize("kind", [FIB, LUC])
@pytest.mark.parametrize("c", [1, 2])
def test_finished_term_checks_its_exact_division(kind, c):
    p = SeqParams(F(5, 3), F(-4, 3))  # ab = -20/9, s = 9
    s = p.ab.denominator
    for n in range(-9, 10):
        eps, k = _term_shape(kind, n)
        t = term_recurrence(p, kind, n)
        x = k + 1  # one spare factor of s, as an engine may hand over
        num = t / p.a**eps * c * s**x
        assert num.denominator == 1, (kind, c, n)
        assert _finished_term(p, kind, n, num.numerator, x, c) == t, (kind, c, n)
        with pytest.raises(AssertionError, match="not a multiple"):
            _finished_term(p, kind, n, num.numerator + 1, x, c)


@pytest.mark.parametrize("shape", RANGE_SHAPES)
@settings(deadline=None)
@given(data=st.data())
def test_terms_match_oracle_tables(shape, data):
    a, b = data.draw(pairs)
    lo, hi = data.draw(RANGE_SHAPES[shape])
    p = SeqParams(a, b)
    for kind in (FIB, LUC):
        expected = oracle(a, b, kind, lo, hi)
        assert [F(*pair) for pair in term_pairs(p, kind, lo, hi)] == [expected[n] for n in range(lo, hi + 1)]


def test_terms_rejects_an_empty_range():
    with pytest.raises(ValueError):
        term_pairs(SeqParams(2, 3), FIB, 1, 0)


#: windows of _reflected: all below 0, across 0 from an odd and from an even
#: lo, all at or above 0, and the single points 0, 1 and -1
REFLECTED_SHAPES = {
    "below-0": ordered(-40, -1),
    "across-0-from-odd": st.tuples(st.integers(-20, -1).map(lambda j: 2 * j + 1), st.integers(0, 40)),
    "across-0-from-even": st.tuples(st.integers(-20, -1).map(lambda j: 2 * j), st.integers(0, 40)),
    "from-0-up": ordered(0, 40),
    "single-point": st.sampled_from([(0, 0), (1, 1), (-1, -1)]),
}


@pytest.mark.parametrize("shape", REFLECTED_SHAPES)
@settings(deadline=None)
@given(data=st.data())
def test_reflected_reads_a_window_from_the_positive_terms(shape, data):
    # against the oracle tables, which step backward for n < 0: terms[k - base]
    # is t(k) from any base up to the least |n| of the window (0 across 0),
    # and the list may run past the window's reach
    a, b = data.draw(pairs)
    lo, hi = data.draw(REFLECTED_SHAPES[shape])
    reach = max(-lo, hi)
    base = data.draw(st.integers(0, max(lo, -hi, 0)), label="base")
    past = data.draw(st.integers(0, 3), label="past")
    for kind in (FIB, LUC):
        t = oracle(a, b, kind, -reach, reach)
        terms = [t[k] for k in range(base, reach + 1)] + [F(0)] * past
        assert _reflected(kind, terms, lo, hi, base) == [t[n] for n in range(lo, hi + 1)], kind


def test_reflected_is_the_one_reader_of_the_sign_rule():
    # t(-k) = +-t(k) is applied in one place: the catalog's lanes, term_pairs
    # and TermTable read every negative index through _reflected
    uses = []
    for path in sorted(Path(sequences.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if "_NEGATED_PARITY" in (getattr(node, "id", None), getattr(node, "attr", None),
                                         getattr(node, "name", None)):
                    ctx = getattr(node, "ctx", None)
                    uses.append((path.name, getattr(stmt, "name", None), type(ctx).__name__ if ctx else "import"))
    assert uses == [("sequences.py", None, "Store"), ("sequences.py", "_reflected", "Load")]


@settings(deadline=None)
@given(ab=pairs, reads=st.lists(st.tuples(st.sampled_from([FIB, LUC]), indices), max_size=40))
@example(ab=(F(1), F(-4)), reads=[(FIB, 17), (LUC, -9), (FIB, 3), (FIB, -30), (LUC, 0), (FIB, 25),
                                  (LUC, 40), (FIB, -40), (LUC, -40), (FIB, 17)])  # ab + 4 = 0, s = 1
def test_term_table_reads_in_any_order_match_oracle_tables(ab, reads):
    # the oracle tables share no code with the package: the walk and
    # term_recurrence share _coefficient. fib and lucas read what term reads
    a, b = ab
    table = TermTable(SeqParams(a, b))
    expected = {kind: oracle(a, b, kind, -40, 40) for kind in (FIB, LUC)}
    for kind, n in reads:
        assert table.term(kind, n) == getattr(table, kind.value)(n) == expected[kind][n], (kind, n)


@settings(deadline=None)
@given(ab=pairs, lo=st.integers(-30, -1), hi=st.integers(0, 30))
@example(ab=(F(1), F(-4)), lo=-30, hi=30)  # ab = -4, s = 1
@example(ab=(F(2, 3), F(-6)), lo=-30, hi=30)  # ab + 4 = 0 with a fractional a
@example(ab=(F(1, 2), F(-8)), lo=-30, hi=30)
def test_walk_matches_term_recurrence_across_zero(ab, lo, hi):
    p = SeqParams(*ab)
    table = TermTable(p)
    for kind in (FIB, LUC):
        expected = [term_recurrence(p, kind, n) for n in range(lo, hi + 1)]
        assert [F(*pair) for pair in term_pairs(p, kind, lo, hi)] == expected, kind
        assert [table.term(kind, n) for n in range(lo, hi + 1)] == expected, kind


#: (a, b) with ab = r/s: s = 1 with a fractional a, s > 1, and a sharing a prime with s
WALK_POINTS = [
    (F(2), F(1, 4)),  # ab = 1/2: a = 2 shares the prime 2 with s = 2
    (F(5, 3), F(-4, 3)),  # ab = -20/9
    (F(2, 3), F(3, 2)),  # ab = 1, s = 1
    (F(1, 2), F(-8)),  # ab + 4 = 0
    (F(-3), F(7, 5)),  # ab = -21/5
]


def assert_canonical(x):
    assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1, x


def assert_canonical_pair(pair):
    num, den = pair
    assert type(num) is type(den) is int and den > 0 and gcd(num, den) == 1, pair


class TestWalkCanonicalForm:
    @settings(deadline=None)
    @given(ab=st.sampled_from(WALK_POINTS), lo=st.integers(-60, 0), width=st.integers(0, 60))
    def test_walked_terms_are_in_lowest_terms(self, ab, lo, width):
        p = SeqParams(*ab)
        table = TermTable(p)
        for kind in (FIB, LUC):
            for pair in term_pairs(p, kind, lo, lo + width):
                assert_canonical_pair(pair)
            for n in range(lo, lo + width + 1):
                assert_canonical(table.term(kind, n))

    def test_deep_walked_terms_are_in_lowest_terms(self):
        for ab in WALK_POINTS:
            p = SeqParams(*ab)
            for kind in (FIB, LUC):
                for lo, hi in ((-2001, -1998), (1998, 2001)):
                    for pair in term_pairs(p, kind, lo, hi):
                        assert_canonical_pair(pair)


@pytest.mark.parametrize("a, b", WALK_POINTS)
@pytest.mark.parametrize("kind", [FIB, LUC])
def test_walk_hands_over_each_term_in_its_term_shape(kind, a, b):
    p = SeqParams(a, b)
    s = p.ab.denominator
    expected = oracle(a, b, kind, 0, 200)
    for n, (eps, num, power) in enumerate(islice(_forward(p, kind), 201)):
        shape_eps, k = _term_shape(kind, n)
        assert (eps, power) == (shape_eps, s**k), n
        assert gcd(num, power) == 1, n
        assert a**eps * F(num, power) == expected[n], n


def test_classical_degeneration():
    p = SeqParams(1, 1)
    fib = classical_fib(31)
    lucas = classical_lucas(31)
    for n in range(31):
        assert term_recurrence(p, FIB, n) == fib[n]
        assert term_recurrence(p, LUC, n) == lucas[n]
    assert term_recurrence(p, LUC, 2) == 1 * 1 + 2  # ab + 2


def test_presets():
    assert preset(PRESET_CLASSICAL) == SeqParams(1, 1)
    assert preset(PRESET_K_LUCAS, 3) == SeqParams(3, 3)
    assert preset(PRESET_K_LUCAS, F(-5, 2)) == SeqParams(F(-5, 2), F(-5, 2))
    with pytest.raises(ValueError):
        preset(PRESET_K_LUCAS, 0)
    with pytest.raises(ValueError):
        preset(PRESET_K_LUCAS)
    with pytest.raises(ValueError):
        preset("no-such-preset")

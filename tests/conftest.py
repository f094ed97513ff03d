"""Shared brute-force oracles.

These deliberately reimplement the sequence walk and matrix powering in
the most naive way possible (direct dict-building loops, repeated
multiplication) so the package's fast paths are always checked against
arithmetic that shares none of their code.
"""
from fractions import Fraction

from hypothesis import strategies as st

from biperiodic import Mat2

nonzero = st.fractions(min_value=-20, max_value=20, max_denominator=20).filter(bool)
#: random nonzero parameter pairs, and pairs on the line ab = -4
pairs = st.one_of(st.tuples(nonzero, nonzero), nonzero.map(lambda a: (a, -4 / a)))


def oracle_fib_table(a, b, lo, hi):
    """Coefficient a at even index, b at odd; seeds 0, 1; backward solve for n < 0."""
    a, b = Fraction(a), Fraction(b)
    t = {0: Fraction(0), 1: Fraction(1)}
    for n in range(2, hi + 1):
        c = a if n % 2 == 0 else b
        t[n] = c * t[n - 1] + t[n - 2]
    for n in range(1, lo + 1, -1):
        c = a if n % 2 == 0 else b
        t[n - 2] = t[n] - c * t[n - 1]
    return t


def oracle_lucas_table(a, b, lo, hi):
    """Coefficient b at even index, a at odd; seeds 2, a; backward solve for n < 0."""
    a, b = Fraction(a), Fraction(b)
    t = {0: Fraction(2), 1: a}
    for n in range(2, hi + 1):
        c = b if n % 2 == 0 else a
        t[n] = c * t[n - 1] + t[n - 2]
    for n in range(1, lo + 1, -1):
        c = b if n % 2 == 0 else a
        t[n - 2] = t[n] - c * t[n - 1]
    return t


def brute_mat_pow(m: Mat2, n: int) -> Mat2:
    """n-fold repeated multiplication, entry by entry with the scalars' own operators.

    The oracle for binary exponentiation: it never calls ``Mat2.__mul__``,
    whose integer-pair path it is compared with.
    """
    x11, x12, x21, x22 = m.e11, m.e12, m.e21, m.e22
    e11, e12, e21, e22 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for _ in range(n):
        e11, e12, e21, e22 = (
            e11 * x11 + e12 * x21,
            e11 * x12 + e12 * x22,
            e21 * x11 + e22 * x21,
            e21 * x12 + e22 * x22,
        )
    return Mat2(e11, e12, e21, e22)


def classical_fib(count):
    """0, 1, 1, 2, ... by seed-and-add, ints only."""
    seq = [0, 1]
    while len(seq) < count:
        seq.append(seq[-1] + seq[-2])
    return seq[:count]


def classical_lucas(count):
    """2, 1, 3, 4, ... by seed-and-add, ints only."""
    seq = [2, 1]
    while len(seq) < count:
        seq.append(seq[-1] + seq[-2])
    return seq[:count]

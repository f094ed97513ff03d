"""Catalog of checkable identities and the exhaustive grid verifier.

Every identity is an evaluator returning the exact pair (lhs, rhs) rather
than a boolean: failures keep full forensics. The two deliberately broken
catalog entries also carry their documented exact lhs - rhs, so every
grid point is judged on its own: a point is as expected exactly when
lhs - rhs equals the documented value (0 for an identity that holds).

Catalog notes:

* ``cassini-fib`` / ``cassini-lucas`` are the three-term determinant-style
  identities; they hold at every integer index.
* ``thm4-i-printed`` is a published variant of the fibonacci Cassini
  identity carrying the same coefficient on both products. It is wrong at
  generic parameters, at even and odd indices alike. Both share rhs and
  the q(n-1)q(n+1) product; cassini-fib weighs q(n)^2 by the other
  coefficient (b at even n, a at odd n). So its lhs is cassini-fib's lhs
  plus (-1)^n * (b - a) * q(n)^2, lhs - rhs = (-1)^n * (b - a) * q(n)^2
  exactly, and it holds only where a = b or q(n) = 0. It is kept so the
  discrepancy stays reproducible.
* ``thm6-i`` .. ``thm6-v`` relate terms at doubled indices; ``thm6-vi``
  ships in two flavors: the published ``-printed`` form has rhs = -lhs
  at every point (its two products are those of ``-corrected`` swapped),
  so lhs - rhs = 2 * lhs and it fails wherever lhs != 0, and
  ``-corrected`` holds everywhere.
* ``add-*`` / ``sub-*`` are the index addition/subtraction rules behind
  the doubled-index family. Each is asserted only on its parity domain,
  a set of (parity(m), parity(n)) classes; outside it ``evaluate`` raises
  ParityMismatchError and the verify grid leaves the tuple out, rather
  than report a false counterexample. ``sub-ql`` holds for even m and odd
  n only: swapping the parities flips the sign of the right-hand side,
  which is exactly the defect ``thm6-vi-printed`` inherits. ``add-qq``
  and ``add-ll`` also hold on the other same-parity class, (odd, odd) and
  (even, even) respectively, which their domains do not include.
* ``det-power``, ``matrix-form``, ``inverse-power``, ``binet-fib`` and
  ``binet-lucas`` cross-check the matrix and closed-form engines against
  the recurrence oracle and against each other. On the line ab = -4,
  where ab + 4 = 0 and ab(ab + 4) = 0 alike (ab != 0), one engine
  refuses: ``inverse-power`` needs G^-n, which does not exist there. It
  carries its reason as data, ``_IdentityDef.line_reason``, and the
  verify grid records every point on the line as an exclusion with that
  reason; the other four check the line like any other point.

How a check runs: every evaluator is called the same way, once per block
of the grid, with the point's ``_Lanes`` and the block's index columns
(``_Index``). ``_Lanes`` holds the point, its constants a, b and ab + 4 as
``Fraction``s, and its terms: a term read is a ``_Lane``, numerators over
one shared int denominator, whose +, -, *, ** and / are C maps.

* The terms come from the integer walk of ``sequences``, which hands over
  each term t(n) as a^eps * N/s^k with ab = r/s in lowest terms and
  gcd(N, s) = 1. The walk is kept as lists of t(0..K) only. A column
  within the span (lo, hi) reads the window t(lo..hi) over den(a) * s^K,
  K the largest k in the span (1 where s = den a = 1), cut once per point,
  each t(-k) read from t(k) by the sign rule (``sequences._reflected``).
  Only the column's parity is scaled where the column knows it; a read is
  one gather, the column's ``itemgetter`` shifted by lo. So operands grow
  by the spread of k within a span, not by the depth of the walk. The
  identities are not homogeneous in index weight (at even m and n, add-qq
  sets q(m+n), over s^((m+n-2)/2), against q(m)*q(n-1), over
  s^((m+n-4)/2)), and no operation reduces a value: a product multiplies
  numerators and denominators, and a sum, or ==, scales the numerators by
  the cofactors of one gcd of the two denominators where they differ. So a
  check takes no gcd, and the evaluators keep the formulas they would have
  over ``Fraction``s. A constant factor is one scalar map;
  ``cassini-lucas`` divides its lane by a.
* A column has no truth value, equality or order, so an evaluator that
  branched on an index would raise there. It may read a column's parity:
  ``sequences.parity`` of a column whose indices share one parity is that
  int, so every coefficient c(n) still comes from
  ``sequences._coefficient``, the one home of that alternation, and a
  column of mixed parity raises.
* The five engine entries (``det-power``, ``matrix-form``,
  ``inverse-power``, ``binet-*``) also map an engine over the indices,
  which they read through ``_ints``, the one read of a column's values.
  They return one value per index in a tuple: ``binet-*`` the engine's
  ``Fraction``s p/q, held against the walk's lane n/d as p * d == n * q
  on integers, det-power ``Fraction``s and the matrix entries ``Mat2``s.
  inverse-power takes each power G^k once per block, for the block's
  indices and their negations, and multiplies G^k by G^-k; ``Mat2``'s
  product, ``det()`` and ``==`` run on the entries' integer pairs
  (``exact`` module docstring).
  matrix-form holds G^n from ``genmatrix.matrix_power`` against the
  paper's theorem, G^n = (a/b)^n * (ab+4)^(n//2) * core(n), written here
  and run on no ``genmatrix`` code: its rhs is ``_Entries``, four lanes,
  the core t(n+1), t(n), (b/a) * t(n), t(n-1) read from the walk (the
  kind by the column's parity) times the prefactor, a lane of int powers
  of the numerators and denominators of a/b and ab + 4 (``_prefactor``).
  Each lane is held against that entry of the ``Mat2``s as binet-*'s
  terms are, so a check finishes G^n once, and compares with no gcd.

``_held`` compares a side that is a lane, a tuple or ``_Entries``, and
``_value`` reads one value of it. A lane value becomes a ``Fraction``
(``_Entries`` of them a ``Mat2``) only at the boundary:
when the public ``evaluate`` returns it (it runs every entry through
``_sides`` too, as a grid of one tuple), and when a side of a
counterexample that ``verify_grid`` built is first read.

How a grid runs: a point pays for its own terms and checks, and runs no
Python loop step per check. A two-index grid is built from its four
parity sub-boxes, and ``_IdentityDef.refusal``, the one domain check, is
asked once per sub-box (``_index_tuples``). Every entry runs through one
loop over the blocks of the grid (``_blocks``): a one-index grid is cut
into its two parity classes, and a two-index grid is one block, as its
evaluators read no parity. The blocks' index columns are built once per
grid and keep what is derived from them (the columns an evaluator forms
with +, - and *, their parity and gather), so index arithmetic runs at
the first point only; nothing outlives the grid. At each point, for each
block:

* ``_sides`` gives the block's two sides, and the flags lhs == rhs come
  from them in one C map.
* Where one is false, the entry runs again on the block's failing index
  columns alone, whose checks must fail again.
* An erratum entry's ``gap`` is lane arithmetic too (thm6-vi-printed's
  2 * lhs, thm4-i-printed's (-1)^n * (b - a) * q(n)^2), held against
  lhs - rhs in one more C map. No engine entry has a gap.

A failed block is kept as the check computed it, and a ``Counterexample``
is built from it only where one is read (``_Counterexamples``), holding
each side as computed; the side becomes a ``Fraction`` when first read.
So ``verify``, which prints at most 25 counterexamples per identity and
counts the rest, builds 25 and normalizes at most 50 sides.
"""
from __future__ import annotations

import enum
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from math import gcd
from operator import add, and_, attrgetter, eq, floordiv, itemgetter, mul, neg, not_, sub
from typing import Callable, NamedTuple, Optional

from . import binet as _binet
from . import genmatrix as _gm
from . import sequences as _sequences
from .exact import _PAIRS, Mat2, _Frozen, _lazy, _rational
from .sequences import SeqParams, SequenceKind, _coefficient, _reflected, _term_shape, parity
from .sequences import TermTable  # noqa: F401 -- perfbench/layertrace.py times identities.TermTable.term

_FIB, _LUCAS = SequenceKind.FIBONACCI, SequenceKind.LUCAS
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


class ParityMismatchError(ValueError):
    """Identity evaluated outside the parity domain on which it is asserted."""


class IdentityId(str, enum.Enum):
    CASSINI_FIB = "cassini-fib"
    CASSINI_LUCAS = "cassini-lucas"
    THM4_I_PRINTED = "thm4-i-printed"
    DET_POWER = "det-power"
    THM6_I = "thm6-i"
    THM6_II = "thm6-ii"
    THM6_III = "thm6-iii"
    THM6_IV = "thm6-iv"
    THM6_V = "thm6-v"
    THM6_VI_PRINTED = "thm6-vi-printed"
    THM6_VI_CORRECTED = "thm6-vi-corrected"
    ADD_QQ = "add-qq"
    ADD_LL = "add-ll"
    ADD_LQ = "add-lq"
    SUB_QQ = "sub-qq"
    SUB_LL = "sub-ll"
    SUB_QL = "sub-ql"
    BINET_FIB = "binet-fib"
    BINET_LUCAS = "binet-lucas"
    MATRIX_FORM = "matrix-form"
    INVERSE_POWER = "inverse-power"


class Expectation(enum.Enum):
    """The documented outcome as a report label; points are judged by ``_IdentityDef.gap``.

    ``fails-for-some-odd-index`` is a legacy label: ``thm4-i-printed`` also
    fails at even indices and holds at odd ones where q(n) = 0. It is kept
    as it is because the JSON output of ``verify`` is pinned byte for byte.
    """

    HOLDS = "holds"
    SIGN_FLIP = "fails-with-lhs-equal-minus-rhs"
    FAILS_AT_ODD_INDEX = "fails-for-some-odd-index"


#: Grid used by default everywhere an (a, b) set is not given explicitly.
STANDARD_VALUES: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-3, 2),
)


def _sign(n: int) -> int:
    return 1 if parity(n) == 0 else -1


class _Pair(tuple):
    """(n, d), the rational n/d of a lane kept unreduced; a tuple built in C, with no Python frame."""

    __slots__ = ()


class _Entries(tuple):
    """(e11, e12, e21, e22) of a matrix side, row-major: four lanes as a side, and the four values
    of one check as a value of it (``_value``), which ``_fraction`` turns into a ``Mat2``."""

    __slots__ = ()


def _fraction(value):
    """A ``_Pair`` or an int as a Fraction, and ``_Entries`` of them as a ``Mat2`` of Fractions;
    any other value (Fraction, Mat2) unchanged."""
    if type(value) is _Pair:
        return Fraction(*value)
    if type(value) is _Entries:
        return Mat2(*map(_fraction, value))
    return Fraction(value) if type(value) is int else value


class _Column:
    """One value per check, with no truth value, equality, order or hash: a
    per-check branch, such as ``n == 4``, raises rather than run once."""

    __slots__ = ()

    def _refuse(self, *other):
        raise TypeError(f"{type(self).__name__}: a column has no truth value, equality or order")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __hash__ = _refuse


def _index_op(op, reflected=False):
    def apply(self, other):
        # a column is keyed by its id, which the entry keeps from being reused by holding the column
        key = (op, reflected, other) if type(other) is int else (op, reflected, None, id(other))
        if key in self.derived:
            return self.derived[key][0]
        if type(other) is int:
            other = _Index(repeat(other), (other, other))
            other.derived[and_] = other.span[0] & 1
        elif type(other) is not _Index:
            return NotImplemented
        x, y = (other, self) if reflected else (self, other)
        corners = [op(i, j) for i in x.span for j in y.span]  # +, - and * take their extremes there
        column = _Index(list(map(op, x.v, y.v)), (min(corners), max(corners)))
        bits = x.derived.get(and_), y.derived.get(and_)
        if None not in bits or op is mul and 0 in bits:  # its parity, from theirs: an even factor's is 0
            column.derived[and_] = op(*(bit or 0 for bit in bits)) & 1
        self.derived[key] = column, other
        return column
    return apply


class _Index(_Column):
    """A column of int indices ``v`` within ``span`` = (lo, hi); +, - and * map in C.

    ``derived`` keeps the columns it yields under +, - and *, its parity and
    its window key and gather, so a grid maps ``2 * (m + n + 1)`` once, not
    once per point.

    ``& 1`` is the parity the indices share, a plain int, which is how
    ``sequences.parity`` reads a column; on a column of mixed parity it
    raises TypeError. A derived column knows its parity where its operands'
    are known, or where one factor is even.
    """

    __slots__ = ("v", "span", "derived")

    def __init__(self, v, span=None):
        self.v, self.span, self.derived = v, span or (min(v), max(v)), {}

    __add__ = __radd__ = _index_op(add)
    __mul__ = __rmul__ = _index_op(mul)
    __sub__, __rsub__ = _index_op(sub), _index_op(sub, reflected=True)

    def __and__(self, other):
        if other != 1:
            return NotImplemented
        if and_ not in self.derived:
            bits = set(map(and_, self.v, repeat(1)))
            if len(bits) != 1:
                raise TypeError("_Index: a column of mixed parity has no parity")
            self.derived[and_] = bits.pop()
        return self.derived[and_]


def _common(x: "_Lane", y: "_Lane"):
    """The numerators of x and y over one denominator, and that denominator: as they are where
    x.d == y.d, else each side times the other's cofactor of gcd(x.d, y.d), one scalar map each."""
    if x.d == y.d:
        return x.n, y.n, x.d
    xs, ys = y.d // (g := gcd(x.d, y.d)), x.d // g
    return (x.n if xs == 1 else map(mul, x.n, repeat(xs)),
            y.n if ys == 1 else map(mul, y.n, repeat(ys)), x.d * xs)


def _constant(x, size: int) -> "_Lane":
    """The int or Fraction x as a lane of ``size`` copies over its denominator."""
    return _Lane([x.numerator] * size, x.denominator)


def _lane_op(op, reflected=False):
    def apply(self, other):
        if type(other) is int or type(other) is Fraction:
            if op is mul:  # one scalar map
                return _Lane(list(map(mul, self.n, repeat(other.numerator))), self.d * other.denominator)
            other = _constant(other, len(self.n))
        elif type(other) is not _Lane:
            return NotImplemented
        x, y = (other, self) if reflected else (self, other)
        if op is mul:
            return _Lane(list(map(mul, x.n, y.n)), x.d * y.d)
        xn, yn, d = _common(x, y)
        return _Lane(list(map(op, xn, yn)), d)
    return apply


class _Lane(_Column):
    """Rationals n[i]/d over one shared int denominator d, never reduced; d is nonzero, of
    either sign, and 1 where every value is an integer.

    +, - and * with a lane or an int or Fraction constant, ** to an int
    k >= 0 and / by a nonzero constant map in C (``_common`` for + and -).
    """

    __slots__ = ("n", "d")

    def __init__(self, n, d: int = 1):
        self.n, self.d = n, d

    __add__ = __radd__ = _lane_op(add)
    __mul__ = __rmul__ = _lane_op(mul)
    __sub__, __rsub__ = _lane_op(sub), _lane_op(sub, reflected=True)

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            return NotImplemented
        return _Lane(list(map(pow, self.n, repeat(k))), self.d**k)

    def __truediv__(self, other):
        if type(other) is not int and type(other) is not Fraction:
            return NotImplemented
        return self * Fraction(1, other)  # ZeroDivisionError where other is 0


def _against(nums, dens, lane: "_Lane"):
    """p * d == n * q for each Fraction p/q, given as its numerators and denominators, and lane n/d."""
    return map(eq, map(mul, nums, repeat(lane.d)), map(mul, lane.n, dens))


def _held(x, y) -> list[bool]:
    """x[i] == y[i] for each i of two sides of ``_sides``: on lanes over one denominator
    (``_common``), on an engine's Fractions p/q against a lane n/d as p * d == n * q, on an
    engine's ``Mat2``s against ``_Entries`` that way entry by entry, else on tuples."""
    if type(y) is tuple:
        return list(map(eq, x, y))
    if type(y) is _Entries:
        ints = list(zip(*map(_PAIRS, x)))  # e11's numerators, e11's denominators, ..., e22's denominators
        return list(map(all, zip(*(_against(ints[2 * k], ints[2 * k + 1], lane) for k, lane in enumerate(y)))))
    if type(x) is tuple:
        return list(_against(map(_NUMERATOR, x), map(_DENOMINATOR, x), y))
    xn, yn, _ = _common(x, y)
    return list(map(eq, xn, yn))


def _sides(evaluate, t: "_Lanes", columns) -> list:
    """``evaluate``'s (lhs, rhs) on index columns: the one home of the calling convention.

    Every entry is called once on the columns. A side comes back as a lane,
    a constant ``Fraction`` broadcast to one, a tuple of one ``Mat2`` or
    ``Fraction`` per index, or matrix-form's ``_Entries`` of four lanes.
    """
    return [_constant(side, len(columns[0].v)) if type(side) is Fraction else side
            for side in evaluate(t, *columns)]


def _value(side, i: int):
    """Value i of a side as the check computed it: a lane's int n[i], or its ``_Pair``
    (n[i], d) where its d is not 1, ``_Entries`` of the four lanes' values, or item i of a tuple."""
    if type(side) is tuple:
        return side[i]
    if type(side) is _Entries:
        return _Entries(_value(lane, i) for lane in side)
    return side.n[i] if side.d == 1 else _Pair((side.n[i], side.d))


class _Lanes:
    """One parameter point as every entry reads it: the terms, as lanes, and the constants.

    ``params`` is the point, the engines' argument, and ``a``, ``b`` and
    ``ab_plus_4`` are its ``Fraction``s. ``fib`` and ``lucas`` are
    ``_reader``s, one walk per kind kept as lists of its nonnegative
    indices. A read is one gather, with the column's ``itemgetter``, from the
    window of the column's span: the terms over one denominator, 1 where
    s = den a = 1.
    """

    def __init__(self, p: SeqParams):
        self.params, self.a, self.b, self.ab_plus_4 = p, p.a, p.b, p.ab_plus_4
        integral = p.ab.denominator == p.a.denominator == 1
        self.fib, self.lucas = (_reader(p, kind, integral) for kind in (_FIB, _LUCAS))


def _window(p: SeqParams, kind: SequenceKind, walk: list, denominators: Optional[list], lo, hi, bit):
    """(numerators, d): t(lo..hi) read from the walk's numerators t(0..K') by ``sequences._reflected``,
    over d = den(a) * s^K, K the largest k of ``_term_shape`` in lo..hi: t(i) times den(a)^(1-eps) *
    s^(K-k), the walk's denominator at c - |i| for c = 2K + 1 (lucas) or 2K + 3 (fibonacci; q(0) = 0
    aside), a slice of ``denominators`` by |n| (None where s = den a = 1, and d is 1). Where ``bit``
    is not None, only the terms of that parity are scaled: no gather reads the others."""
    numerators = _reflected(kind, walk, lo, hi)
    if denominators is None:
        return numerators, 1
    k = _term_shape(kind, max(hi, -lo))[1]
    c = 2 * k + (3 if kind is _FIB else 1)
    scales = denominators[c + lo:c + min(hi + 1, 0)] + denominators[c - hi:c - max(lo, 0) + 1][::-1]
    first, step = (0, 1) if bit is None else ((bit - lo) & 1, 2)
    numerators[first::step] = map(mul, numerators[first::step], scales[first::step])
    return numerators, p.a.denominator * p.ab.denominator**k


def _reader(p: SeqParams, kind: SequenceKind, integral: bool):
    """``read(idx)``: the lane of t(i) for each index i of the column ``idx``, one gather.

    The numerators num(a)^eps * N of the walk's terms a^eps * N/s^k are
    kept as one list by n, t(0..K) only; at a non-integral point so are the
    denominators den(a)^eps * s^k, which depend on |n| only. A column
    reaching within 3 of K extends both with ``islice``. A column's window
    key and gather are kept in its ``derived`` for the grid, and each key
    gets one ``_window`` per point, which reads t(-k) from t(k) by the sign
    rule (``sequences._reflected``).
    """
    forward = _sequences._forward(p, kind)
    nums, dens = (1, p.a.numerator), (1, p.a.denominator)
    numerators, denominators = [], None if integral else []  # t(0..K) by n
    windows = {}  # (lo, hi, bit) -> (numerators, d)

    def read(idx: _Index) -> _Lane:
        got = idx.derived.get(itemgetter)
        if got is None:  # once per grid: the window key (lo, hi, the parity where known) and the gather
            v = list(map(sub, idx.v, repeat(idx.span[0])))  # itemgetter of one item returns it bare
            got = idx.derived[itemgetter] = (*idx.span, idx.derived.get(and_)), (
                itemgetter(*v) if len(v) > 1 else lambda seq: (seq[v[0]],))
        key, get = got
        window = windows.get(key)
        if window is None:
            lo, hi, bit = key
            reach = max(hi, -lo) + 3  # at least _window's c
            if reach >= len(numerators):
                eps, n, power = zip(*islice(forward, reach + 1 - len(numerators)))
                numerators.extend(map(mul, map(nums.__getitem__, eps), n))
                if denominators is not None:
                    denominators.extend(map(mul, map(dens.__getitem__, eps), power))
            window = windows[key] = _window(p, kind, numerators, denominators, lo, hi, bit)
        return _Lane(get(window[0]), window[1])
    return read


def _eval_cassini_fib(t: _Lanes, n: int):
    c, c_next = (_coefficient(t.a, t.b, _FIB, k) for k in (n, n + 1))
    lhs = c * t.fib(n - 1) * t.fib(n + 1) - c_next * t.fib(n) ** 2
    return lhs, t.a * _sign(n)


def _eval_cassini_lucas(t: _Lanes, n: int):
    c, c_next = (_coefficient(t.a, t.b, _LUCAS, k) for k in (n, n + 1))
    lhs = (c * t.lucas(n - 1) * t.lucas(n + 1) - c_next * t.lucas(n) ** 2) / t.a
    return lhs, _sign(n + 1) * t.ab_plus_4


def _eval_thm4_printed(t: _Lanes, n: int):
    # c(n) on both products, where cassini-fib has c(n + 1) on q(n)^2: wrong at generic (a, b)
    c = _coefficient(t.a, t.b, _FIB, n)
    lhs = c * (t.fib(n + 1) * t.fib(n - 1) - t.fib(n) ** 2)
    return lhs, t.a * _sign(n)


def _gap_thm4_printed(t: _Lanes, lhs, n: int):
    # minus cassini-fib's lhs, which is rhs: (c(n + 1) - c(n)) * q(n)^2 = (-1)^n * (b - a) * q(n)^2
    return _sign(n) * (t.b - t.a) * t.fib(n) ** 2


def _ints(column: _Index) -> list[int]:
    """The indices of ``column``: the one read of a column's values, by the engine entries alone."""
    return column.v


def _eval_det_power(t: _Lanes, n: _Index):
    p, ns = t.params, _ints(n)
    return tuple(_gm.matrix_power(p, k).det() for k in ns), tuple(map(_gm.det_power, repeat(p), ns))


def _prefactor(t: _Lanes, ns: list[int]) -> _Lane:
    """(a/b)^n * (ab+4)^(n//2) for each n >= 0 of ``ns`` (matrix-form's n >= 1), from int powers alone.

    With a/b = u/v and ab + 4 = g/h, value i is u^n * g^j * v^(N-n) * h^(J-j)
    over v^N * h^J, for n = ns[i], j = n//2 and the largest N and J.
    """
    ratio, js = t.a / t.b, list(map(floordiv, ns, repeat(2)))
    top, top_j = max(ns), max(js)
    u, v, g, h = ratio.numerator, ratio.denominator, t.ab_plus_4.numerator, t.ab_plus_4.denominator
    of_ratio = map(mul, map(pow, repeat(u), ns), map(pow, repeat(v), map(sub, repeat(top), ns)))
    of_ab_plus_4 = map(mul, map(pow, repeat(g), js), map(pow, repeat(h), map(sub, repeat(top_j), js)))
    return _Lane(list(map(mul, of_ratio, of_ab_plus_4)), v**top * h**top_j)


def _eval_matrix_form(t: _Lanes, n: _Index):
    # G^n by binary exponentiation against the paper's theorem on the walk's lanes:
    # (a/b)^n * (ab+4)^(n//2) * [[t(n+1), t(n)], [(b/a) * t(n), t(n-1)]], fib at even n
    ns, read = _ints(n), t.fib if parity(n) == 0 else t.lucas
    prefactor = _prefactor(t, ns)
    mid = prefactor * read(n)
    rhs = _Entries((prefactor * read(n + 1), mid, mid * (t.b / t.a), prefactor * read(n - 1)))
    return tuple(map(_gm.matrix_power, repeat(t.params), ns)), rhs


def _eval_inverse_power(t: _Lanes, n: _Index):
    p, ns = t.params, _ints(n)
    power = {k: _gm.matrix_power(p, k) for k in {*ns, *map(neg, ns)}}  # each G^k once, for this block
    return tuple(power[k] * power[-k] for k in ns), (Mat2.identity(),) * len(ns)


def _eval_binet_fib(t: _Lanes, n: _Index):
    return tuple(map(_binet.binet_fib, repeat(t.params), _ints(n))), t.fib(n)


def _eval_binet_lucas(t: _Lanes, n: _Index):
    return tuple(map(_binet.binet_lucas, repeat(t.params), _ints(n))), t.lucas(n)


def _eval_thm6_i(t: _Lanes, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(2 * (m + n + 1))
    rhs = t.lucas(2 * m + 1) * t.lucas(2 * (n + 1)) + t.lucas(2 * m) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_thm6_ii(t: _Lanes, m: int, n: int):
    lhs = t.fib(2 * (m + n))
    rhs = t.fib(2 * m) * t.fib(2 * n + 1) + t.fib(2 * m - 1) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_iii(t: _Lanes, m: int, n: int):
    lhs = t.lucas(2 * (m + n) + 1)
    rhs = t.lucas(2 * m + 1) * t.fib(2 * n + 1) + t.lucas(2 * m) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_iv(t: _Lanes, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(2 * (m - n))
    rhs = t.lucas(2 * m + 1) * t.lucas(2 * (n + 1)) - t.lucas(2 * (m + 1)) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_thm6_v(t: _Lanes, m: int, n: int):
    lhs = t.fib(2 * (m - n))
    rhs = t.fib(2 * m) * t.fib(2 * n + 1) - t.fib(2 * m + 1) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_vi_printed(t: _Lanes, m: int, n: int):
    lhs = t.lucas(2 * (m - n) + 1)
    rhs = t.fib(2 * m + 1) * t.lucas(2 * n + 1) - t.fib(2 * (m + 1)) * t.lucas(2 * n)
    return lhs, rhs


def _gap_thm6_vi_printed(t: _Lanes, lhs, m: int, n: int):
    return 2 * lhs  # rhs = -lhs


def _eval_thm6_vi_corrected(t: _Lanes, m: int, n: int):
    lhs = t.lucas(2 * (m - n) + 1)
    rhs = t.fib(2 * (m + 1)) * t.lucas(2 * n) - t.fib(2 * m + 1) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_add_qq(t: _Lanes, m: int, n: int):
    return t.fib(m + n), t.fib(m + 1) * t.fib(n) + t.fib(m) * t.fib(n - 1)


def _eval_add_ll(t: _Lanes, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(m + n)
    return lhs, t.lucas(m + 1) * t.lucas(n) + t.lucas(m) * t.lucas(n - 1)


def _eval_add_lq(t: _Lanes, m: int, n: int):
    return t.lucas(m + n), t.lucas(m + 1) * t.fib(n) + t.lucas(m) * t.fib(n - 1)


def _eval_sub_qq(t: _Lanes, m: int, n: int):
    return t.fib(m - n), t.fib(m) * t.fib(n + 1) - t.fib(m + 1) * t.fib(n)


def _eval_sub_ll(t: _Lanes, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(m - n)
    return lhs, t.lucas(m) * t.lucas(n + 1) - t.lucas(m + 1) * t.lucas(n)


def _eval_sub_ql(t: _Lanes, m: int, n: int):
    return t.lucas(m - n), t.fib(m) * t.lucas(n + 1) - t.fib(m + 1) * t.lucas(n)


class _ParityDomain(NamedTuple):
    """The (m, n) parity classes on which a two-index rule is asserted.

    ``classes`` holds the allowed (parity(m), parity(n)) pairs.
    """

    classes: frozenset[tuple[int, int]]
    desc: str


_BOTH_EVEN = _ParityDomain(frozenset({(0, 0)}), "m and n even")
_BOTH_ODD = _ParityDomain(frozenset({(1, 1)}), "m and n odd")
_OPPOSITE = _ParityDomain(frozenset({(0, 1), (1, 0)}), "m and n of opposite parity")
_EVEN_M_ODD_N = _ParityDomain(frozenset({(0, 1)}), "m even and n odd")


class _IdentityDef(NamedTuple):
    evaluate: Callable
    #: default index ranges, both ends inclusive; m_range is None for one index
    n_range: tuple[int, int]
    m_range: Optional[tuple[int, int]] = None
    parity_domain: Optional[_ParityDomain] = None
    #: why the entry's engine refuses the line ab + 4 = 0, recorded for each
    #: grid point on it; None: the line is checked like any other point
    line_reason: Optional[str] = None
    min_index: Optional[int] = None
    expected: Expectation = Expectation.HOLDS
    #: documented exact lhs - rhs as gap(table, lhs, *indices), on lanes; None: lhs == rhs
    gap: Optional[Callable] = None

    @property
    def arity(self) -> int:
        return 1 if self.m_range is None else 2

    def refusal(self, indices: tuple[int, ...]) -> Optional[tuple]:
        """Why ``indices`` fall outside this entry's index domain, or None inside it.

        The one check of arity, ``min_index`` and the parity classes:
        ``evaluate`` raises what it returns, and the verify grid keeps the
        tuples it admits. A reason is (error type, message template,
        *arguments), the template's first field being the identity's name.
        Only ``evaluate`` formats it: the grid refuses most tuples of a
        parity-conditional entry.
        """
        if len(indices) != self.arity:
            return ValueError, "{} takes {} index argument(s), got {}", self.arity, len(indices)
        if self.min_index is not None and indices[0] < self.min_index:
            return ValueError, "{} requires n >= {}", self.min_index
        domain = self.parity_domain
        if domain is not None and (indices[0] & 1, indices[1] & 1) not in domain.classes:
            return (ParityMismatchError, "{} is asserted only for {}; got m={}, n={}",
                    domain.desc, indices[0], indices[1])
        return None


_DOUBLED = (0, 25)
_SHIFTED = (-30, 30)

_CATALOG: dict[IdentityId, _IdentityDef] = {
    IdentityId.CASSINI_FIB: _IdentityDef(_eval_cassini_fib, (1, 200)),
    IdentityId.CASSINI_LUCAS: _IdentityDef(_eval_cassini_lucas, (1, 200)),
    IdentityId.THM4_I_PRINTED: _IdentityDef(
        _eval_thm4_printed, (1, 200),
        expected=Expectation.FAILS_AT_ODD_INDEX, gap=_gap_thm4_printed,
    ),
    IdentityId.DET_POWER: _IdentityDef(_eval_det_power, (1, 32), min_index=1),
    IdentityId.THM6_I: _IdentityDef(_eval_thm6_i, _DOUBLED, _DOUBLED),
    IdentityId.THM6_II: _IdentityDef(_eval_thm6_ii, _DOUBLED, _DOUBLED),
    IdentityId.THM6_III: _IdentityDef(_eval_thm6_iii, _DOUBLED, _DOUBLED),
    IdentityId.THM6_IV: _IdentityDef(_eval_thm6_iv, _DOUBLED, _DOUBLED),
    IdentityId.THM6_V: _IdentityDef(_eval_thm6_v, _DOUBLED, _DOUBLED),
    IdentityId.THM6_VI_PRINTED: _IdentityDef(
        _eval_thm6_vi_printed, _DOUBLED, _DOUBLED,
        expected=Expectation.SIGN_FLIP, gap=_gap_thm6_vi_printed,
    ),
    IdentityId.THM6_VI_CORRECTED: _IdentityDef(_eval_thm6_vi_corrected, _DOUBLED, _DOUBLED),
    IdentityId.ADD_QQ: _IdentityDef(_eval_add_qq, _SHIFTED, _SHIFTED, parity_domain=_BOTH_EVEN),
    IdentityId.ADD_LL: _IdentityDef(_eval_add_ll, _SHIFTED, _SHIFTED, parity_domain=_BOTH_ODD),
    IdentityId.ADD_LQ: _IdentityDef(_eval_add_lq, _SHIFTED, _SHIFTED, parity_domain=_OPPOSITE),
    IdentityId.SUB_QQ: _IdentityDef(_eval_sub_qq, _SHIFTED, _SHIFTED, parity_domain=_BOTH_EVEN),
    IdentityId.SUB_LL: _IdentityDef(_eval_sub_ll, _SHIFTED, _SHIFTED, parity_domain=_BOTH_ODD),
    IdentityId.SUB_QL: _IdentityDef(_eval_sub_ql, _SHIFTED, _SHIFTED, parity_domain=_EVEN_M_ODD_N),
    IdentityId.BINET_FIB: _IdentityDef(_eval_binet_fib, (-50, 50)),
    IdentityId.BINET_LUCAS: _IdentityDef(_eval_binet_lucas, (-50, 50)),
    IdentityId.MATRIX_FORM: _IdentityDef(_eval_matrix_form, (1, 64), min_index=1),
    IdentityId.INVERSE_POWER: _IdentityDef(
        _eval_inverse_power, (-16, 16), line_reason="ab + 4 = 0: generating matrix is singular",
    ),
}

#: Default index ranges: (n_range, m_range or None), both ends inclusive.
DEFAULT_RANGES = {ident: (idef.n_range, idef.m_range) for ident, idef in _CATALOG.items()}


def expectation(ident: IdentityId) -> Expectation:
    return _CATALOG[ident].expected


def evaluate(ident: IdentityId, p: SeqParams, *indices: int):
    """Evaluate one identity at explicit indices, returning (lhs, rhs).

    Raises ParityMismatchError outside a parity-conditional identity's
    domain and ValueError for indices outside the identity's index domain.
    No parameter point is excluded here, so an engine's domain error passes
    through: inverse-power raises SingularMatrixError at ab + 4 = 0.
    Both sides come back as Fractions (a Mat2 for the matrix identities).
    """
    idef = _CATALOG[ident]
    refusal = idef.refusal(indices)
    if refusal is not None:
        error, message, *args = refusal
        raise error(message.format(ident.value, *args))
    # as a grid of one tuple
    sides = _sides(idef.evaluate, _Lanes(p), tuple(map(_Index, zip(indices))))
    return _fraction(_value(sides[0], 0)), _fraction(_value(sides[1], 0))


def cassini_fib(p: SeqParams, n: int):
    return evaluate(IdentityId.CASSINI_FIB, p, n)


def cassini_lucas(p: SeqParams, n: int):
    return evaluate(IdentityId.CASSINI_LUCAS, p, n)


_ADD_IDS = (IdentityId.ADD_QQ, IdentityId.ADD_LL, IdentityId.ADD_LQ)
_SUB_IDS = (IdentityId.SUB_QQ, IdentityId.SUB_LL, IdentityId.SUB_QL)


def addition_eval(p: SeqParams, ident: IdentityId, m: int, n: int):
    if ident not in _ADD_IDS:
        raise ValueError(f"{ident.value} is not an addition identity")
    return evaluate(ident, p, m, n)


def subtraction_eval(p: SeqParams, ident: IdentityId, m: int, n: int):
    if ident not in _SUB_IDS:
        raise ValueError(f"{ident.value} is not a subtraction identity")
    return evaluate(ident, p, m, n)


def _side(position: int) -> _lazy:
    """Field ``position`` of a ``Counterexample`` that ``verify_grid`` built, normalized on first read."""
    return _lazy(lambda ce: _fraction(ce._row[position]))


class Counterexample(_Frozen):
    """A failed check: the point (a, b), the indices, and the two sides (Fractions, or Mat2s).

    One that ``verify_grid`` built holds only ``_row``, the tuple (a, b,
    indices, lhs, rhs) with each side as the check computed it: an int or a
    ``_Pair`` of a lane, ``_Entries`` of four of them, or an engine's
    ``Fraction`` or ``Mat2``. The first read of a field takes it from the
    row through ``_fraction``, which normalizes a side and passes any other
    value as it is (``_side``). A copy or pickle is built through the
    constructor from the fields, so it holds the normalized sides, never a
    raw one.
    """

    _fields = ("a", "b", "indices", "lhs", "rhs")
    a, b, indices, lhs, rhs = map(_side, range(len(_fields)))

    def __init__(self, a: Fraction, b: Fraction, indices: tuple[int, ...], lhs, rhs):
        # into the instance __dict__, where each entry shadows its _side
        vars(self).update(a=a, b=b, indices=indices, lhs=lhs, rhs=rhs)


def _unread(rows: list) -> list[Counterexample]:
    """A ``Counterexample`` of each row (a, b, indices, lhs, rhs) for ``_side``, built in C loops,
    its row stored by ``object.__setattr__``, past ``Counterexample``'s refusing ``__setattr__``."""
    built = list(map(object.__new__, repeat(Counterexample, len(rows))))
    deque(map(object.__setattr__, built, repeat("_row"), rows), maxlen=0)
    return built


def _merged(blocks: list) -> list[tuple]:
    """(indices, j, i) of check i of failed block j, for each failed check of a point, merged into
    index order by one stable sort: a point given twice interleaves its visits, in visit order."""
    order = [(block[i], j, i) for j, (block, _, _, held) in enumerate(blocks)
             for i in compress(range(len(held)), map(not_, held))]
    return sorted(order, key=itemgetter(0)) if len(blocks) > 1 else order


class _Counterexamples:
    """A report's counterexamples, sorted by (a, b, indices), as a read-only sequence over the
    failed blocks (index tuples, lhs, rhs, flags) that ``verify_grid`` kept per point (a, b).

    ``len`` builds no ``Counterexample``, and an index or a slice builds only
    those in it; a point's ``_merged`` order is worked out on its first read.
    It compares equal to, and hashes, prints, pickles and copies as, the
    tuple of its counterexamples.
    """

    __slots__ = ("_points", "_starts", "_orders")

    def __init__(self, found: dict):
        self._points = sorted(found.items())  # ((a, b), failed blocks)
        self._starts = [0, *accumulate(sum(held.count(False) for *_, held in blocks)
                                       for _, blocks in self._points)]
        self._orders: dict[int, list] = {}  # point -> its _merged, once read

    def __len__(self) -> int:
        return self._starts[-1]

    def _row(self, k: int) -> tuple:
        """(a, b, indices, lhs, rhs) of counterexample k, 0 <= k < len."""
        at = bisect_right(self._starts, k) - 1
        (a, b), blocks = self._points[at]
        if at not in self._orders:
            self._orders[at] = _merged(blocks)
        indices, j, i = self._orders[at][k - self._starts[at]]
        _, lhs, rhs, _ = blocks[j]
        return a, b, indices, _value(lhs, i), _value(rhs, i)

    def __getitem__(self, index):
        rows = range(len(self))[index]  # IndexError out of range, as for a tuple
        if type(rows) is int:
            return _unread([self._row(rows)])[0]
        return tuple(_unread(list(map(self._row, rows))))

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Counterexamples)):
            return NotImplemented
        return len(self) == len(other) and self[:] == other[:]

    def __hash__(self):
        return hash(self[:])

    def __repr__(self) -> str:
        return repr(self[:])

    def __reduce__(self):
        return tuple, (self[:],)


class ExcludedPoint(NamedTuple):
    a: Fraction
    b: Fraction
    reason: str


class IdentityReport(NamedTuple):
    identity: IdentityId
    a_values: tuple[Fraction, ...]
    b_values: tuple[Fraction, ...]
    n_range: tuple[int, int]
    m_range: Optional[tuple[int, int]]
    checked: int
    passed: int
    #: points where lhs - rhs is not the documented value
    unexpected: int
    #: sorted by (a, b, indices); ``verify_grid``'s builds each when read (``_Counterexamples``)
    counterexamples: tuple[Counterexample, ...] = ()
    excluded: tuple[ExcludedPoint, ...] = ()

    @property
    def failed(self) -> int:
        return self.checked - self.passed


def report_matches_expectation(report: IdentityReport) -> bool:
    """True when every grid point is exactly as documented for this identity.

    A point is as documented when lhs - rhs equals the identity's
    documented gap: 0 for an identity that holds, the exact discrepancy
    for the two erratum entries. So the verdict holds on any grid.
    """
    return report.unexpected == 0


def _index_tuples(idef: _IdentityDef, n_range, m_range) -> list[tuple[int, ...]]:
    """The grid's index tuples that ``idef.refusal`` admits, m-major, n ascending.

    A one-index grid asks ``refusal`` of every tuple. A two-index grid is
    the union of its four parity sub-boxes, (m & 1, n & 1) fixed, and asks
    ``refusal`` once per sub-box, of its first tuple, keeping or dropping
    the whole sub-box: no two-index entry has a ``min_index``, so
    ``refusal`` is constant on each. The n of an m row are then one
    stepped range for each parity of m.
    """
    if idef.arity == 1:
        lo, hi = n_range
        return [indices for indices in zip(range(lo, hi + 1)) if idef.refusal(indices) is None]
    (m_lo, m_hi), (n_lo, n_hi) = m_range, n_range
    rows = {}  # parity of m -> the admitted n of every m of that parity
    for m in range(m_lo, min(m_lo + 2, m_hi + 1)):
        kept = [n for n in range(n_lo, min(n_lo + 2, n_hi + 1)) if idef.refusal((m, n)) is None]
        if len(kept) == 2:
            rows[m & 1] = range(n_lo, n_hi + 1)
        else:
            rows[m & 1] = range(kept[0], n_hi + 1, 2) if kept else ()
    return [(m, n) for m in range(m_lo, m_hi + 1) for n in rows[m & 1]]


def _blocks(idef: _IdentityDef, grid: list) -> list[list[tuple[int, ...]]]:
    """The nonempty blocks of ``grid`` that ``idef.evaluate`` is called on, each in index order.

    A one-index grid, consecutive n, is cut into its two parity classes, so
    ``sequences.parity`` reads one int from each column. A two-index grid
    is one block: a two-index evaluator reads no parity.
    """
    if idef.arity == 1:
        return [block for block in (grid[::2], grid[1::2]) if block]
    return [grid] if grid else []


def verify_grid(
    ident: IdentityId,
    a_values,
    b_values,
    *,
    n_range: tuple[int, int],
    m_range: Optional[tuple[int, int]] = None,
) -> IdentityReport:
    """Exhaustively evaluate one identity over a parameter/index grid.

    Only the index tuples inside the identity's domain are checked, so an
    ``n_range`` reaching below its ``min_index`` (1 for det-power and
    matrix-form) is clipped there, while the report's ``n_range`` echoes
    the range given. A one-index identity ignores ``m_range`` and reports
    it as None.

    Where the entry has a ``line_reason`` (inverse-power), each
    point on the line ab + 4 = 0 is recorded as an exclusion with that
    reason, never counted or thrown.
    A point's checks run as the module docstring says. Where a failed check
    of an entry without a ``gap`` holds when run again, an ``AssertionError``
    is raised: the evaluator is not a pure read of its table, and the counts
    would not add up. Counterexamples are built where read
    (``_Counterexamples``), their sides normalized to ``Fraction``s on first read.
    Counterexamples come back sorted lexicographically by (a, b, indices)
    so reports are reproducible byte for byte; the sort is stable, so the
    counterexamples of a point given twice interleave.
    """
    idef = _CATALOG[ident]
    a_vals = tuple(_rational(a) for a in a_values)
    b_vals = tuple(_rational(b) for b in b_values)
    if not a_vals or not b_vals:
        raise ValueError("a_values and b_values must be nonempty")
    if any(v == 0 for v in a_vals + b_vals):
        raise ValueError("sequence parameters must be nonzero")
    lo, hi = n_range
    if lo > hi:
        raise ValueError(f"empty index range {lo}..{hi}")
    if idef.arity == 2:
        if m_range is None:
            m_range = n_range
        elif m_range[0] > m_range[1]:
            raise ValueError(f"empty index range {m_range[0]}..{m_range[1]}")
    else:
        m_range = None

    evaluator, gap, line_reason = idef.evaluate, idef.gap, idef.line_reason
    blocks = _blocks(idef, _index_tuples(idef, n_range, m_range))
    columns = [tuple(map(_Index, zip(*block))) for block in blocks]
    size = sum(map(len, blocks))
    checked = passed = unexpected = 0
    found: dict[tuple, list] = {}  # (a, b) -> (indices, lhs, rhs, flags) of each failed block of every visit
    excluded: list[ExcludedPoint] = []
    for a in a_vals:
        for b in b_vals:
            p = SeqParams(a, b)
            if line_reason is not None and p.ab_plus_4 == 0:
                excluded.append(ExcludedPoint(a, b, line_reason))
                continue
            table = _Lanes(p)
            checked += size
            for block, idx in zip(blocks, columns):
                lhs, rhs = _sides(evaluator, table, idx)
                flags = _held(lhs, rhs)
                held = flags.count(True)
                passed += held
                as_documented = flags if gap is None else _held(lhs - rhs, gap(table, lhs, *idx))
                unexpected += as_documented.count(False)
                if held == len(flags):
                    continue
                if gap is None:  # a failed check runs again, and must fail again
                    failed = list(map(not_, flags))
                    again = _sides(evaluator, table, [_Index(list(compress(c.v, failed))) for c in idx])
                    if any(_held(*again)):
                        raise AssertionError(f"{ident.value}: evaluator is not a pure read of its table")
                found.setdefault((a, b), []).append((block, lhs, rhs, flags))
    excluded.sort(key=lambda ex: (ex.a, ex.b))
    return IdentityReport(
        identity=ident,
        a_values=a_vals,
        b_values=b_vals,
        n_range=n_range,
        m_range=m_range,
        checked=checked,
        passed=passed,
        unexpected=unexpected,
        counterexamples=_Counterexamples(found),
        excluded=tuple(excluded),
    )


def verify_default(ident: IdentityId) -> IdentityReport:
    """Run one identity over the standard grid at its default index ranges."""
    n_range, m_range = DEFAULT_RANGES[ident]
    return verify_grid(
        ident, STANDARD_VALUES, STANDARD_VALUES, n_range=n_range, m_range=m_range
    )

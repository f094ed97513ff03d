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
  the doubled-index family. Each is asserted only on its parity domain;
  outside it the evaluator raises ParityMismatchError rather than
  reporting a false counterexample. ``sub-ql`` holds for even m and odd n
  only: swapping the parities flips the sign of the right-hand side,
  which is exactly the defect ``thm6-vi-printed`` inherits.
* ``det-power``, ``matrix-form``, ``inverse-power``, ``binet-fib`` and
  ``binet-lucas`` cross-check the matrix and closed-form engines against
  the recurrence oracle and against each other.

How a check runs: an evaluator reads its terms and the constants a, b and
ab + 4 from one ``_Table`` per parameter point. The terms come from the
integer walk of ``sequences`` (T(k) = D^k * t(k), D = lcm(den a, den b))
as ``_Unreduced`` values n/d, which no operation ever reduces: a product
multiplies numerators and denominators, a sum cross-multiplies (or adds
numerators over a shared denominator), and n1/d1 == n2/d2 is
n1*d2 == n2*d1. So a check takes no gcd, and the evaluators keep the
formulas they would have over ``Fraction``s. A value becomes a
``Fraction`` only at the boundary: when a ``Counterexample`` stores it,
when the public ``evaluate`` returns it, and in the ``Mat2``-valued
matrix-form core. Every coefficient c(n), a or b by the parity of n, comes
from ``sequences._coefficient``, the one home of that alternation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import binet as _binet
from . import genmatrix as _gm
from .exact import Mat2, _rational
# TermTable has no caller here. It stays importable as identities.TermTable, a
# documented name that the benchmark's layer trace patches (TermTable.term).
from .sequences import SeqParams, SequenceKind, TermTable, _coefficient, _Walk, parity

_FIB, _LUCAS = SequenceKind.FIBONACCI, SequenceKind.LUCAS


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


def _parts(x) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of an int or Fraction; None for any other type."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    return None


class _Unreduced:
    """The rational n/d, d != 0 of either sign, kept unreduced: no operation takes a gcd.

    Supports +, -, * and == among these values and with int and Fraction on
    either side, and / and ** (int exponent) with this value on the left.
    ``fraction()`` normalizes it.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d

    def __repr__(self) -> str:
        return f"_Unreduced({self.n}, {self.d})"

    def fraction(self) -> Fraction:
        return Fraction(self.n, self.d)

    def __neg__(self) -> "_Unreduced":
        return _Unreduced(-self.n, self.d)

    def __add__(self, other):
        if type(other) is _Unreduced:
            on, od = other.n, other.d
        elif (o := _parts(other)) is not None:
            on, od = o
        else:
            return NotImplemented
        d = self.d
        if d == od:
            return _Unreduced(self.n + on, d)
        return _Unreduced(self.n * od + on * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is _Unreduced:
            on, od = other.n, other.d
        elif (o := _parts(other)) is not None:
            on, od = o
        else:
            return NotImplemented
        d = self.d
        if d == od:
            return _Unreduced(self.n - on, d)
        return _Unreduced(self.n * od - on * d, d * od)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is _Unreduced:
            return _Unreduced(self.n * other.n, self.d * other.d)
        if type(other) is int:
            return _Unreduced(self.n * other, self.d)
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _Unreduced(self.n * o[0], self.d * o[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is _Unreduced:
            on, od = other.n, other.d
        elif (o := _parts(other)) is not None:
            on, od = o
        else:
            return NotImplemented
        if on == 0:
            raise ZeroDivisionError("division by zero")
        return _Unreduced(self.n * od, self.d * on)

    def __pow__(self, k: int):
        if type(k) is not int:
            return NotImplemented
        if k >= 0:
            return _Unreduced(self.n**k, self.d**k)
        if self.n == 0:
            raise ZeroDivisionError("zero to a negative power")
        return _Unreduced(self.d**-k, self.n**-k)

    def __eq__(self, other):
        if type(other) is _Unreduced:
            on, od = other.n, other.d
        elif (o := _parts(other)) is not None:
            on, od = o
        else:
            return NotImplemented
        if self.d == od:
            return self.n == on
        return self.n * od == on * self.d

    __hash__ = None


def _fraction(value):
    """An ``_Unreduced`` value as a Fraction; any other value (Fraction, Mat2) unchanged."""
    return value.fraction() if type(value) is _Unreduced else value


class _Table:
    """One parameter point as the evaluators read it: gcd-free terms and constants.

    ``fib(n)`` and ``lucas(n)`` are ``_Unreduced`` terms of one integer walk
    per kind, read as a dict lookup that runs no Python frame once the term
    is walked; ``a``, ``b`` and ``ab_plus_4`` are ``_Unreduced`` too, and
    the evaluators pick each coefficient from ``a`` and ``b`` with
    ``sequences._coefficient``. ``params`` is the point itself, for the engines.
    """

    def __init__(self, p: SeqParams):
        self.params = p
        self.a, self.b, self.ab_plus_4 = (
            _Unreduced(x.numerator, x.denominator) for x in (p.a, p.b, p.ab_plus_4)
        )
        self.fib = _Walk(p, _FIB, _Unreduced).__getitem__
        self.lucas = _Walk(p, _LUCAS, _Unreduced).__getitem__


def _eval_cassini_fib(t: _Table, n: int):
    c, c_next = (_coefficient(t.a, t.b, _FIB, k) for k in (n, n + 1))
    lhs = c * t.fib(n - 1) * t.fib(n + 1) - c_next * t.fib(n) ** 2
    return lhs, t.a * _sign(n)


def _eval_cassini_lucas(t: _Table, n: int):
    c, c_next = (_coefficient(t.a, t.b, _LUCAS, k) for k in (n, n + 1))
    lhs = (c * t.lucas(n - 1) * t.lucas(n + 1) - c_next * t.lucas(n) ** 2) / t.a
    return lhs, _sign(n + 1) * t.ab_plus_4


def _eval_thm4_printed(t: _Table, n: int):
    # c(n) on both products, where cassini-fib has c(n + 1) on q(n)^2: wrong at generic (a, b)
    c = _coefficient(t.a, t.b, _FIB, n)
    lhs = c * (t.fib(n + 1) * t.fib(n - 1) - t.fib(n) ** 2)
    return lhs, t.a * _sign(n)


def _gap_thm4_printed(t: _Table, lhs, n: int):
    # minus cassini-fib's lhs, which is rhs: (c(n + 1) - c(n)) * q(n)^2 = (-1)^n * (b - a) * q(n)^2
    c, c_next = (_coefficient(t.a, t.b, _FIB, k) for k in (n, n + 1))
    return (c_next - c) * t.fib(n) ** 2


def _eval_det_power(t: _Table, n: int):
    return _gm.matrix_power(t.params, n).det(), _gm.det_power(t.params, n)


def _eval_matrix_form(t: _Table, n: int):
    # the core comes from the walk, so binary exponentiation is checked against it
    p, read = t.params, t.fib if _gm._exposed_kind(n) is _FIB else t.lucas
    below, mid, above = (_fraction(read(k)) for k in (n - 1, n, n + 1))
    core = Mat2(above, mid, (p.b / p.a) * mid, below)
    return _gm.ClosedForm(p, n, core).materialize(), _gm.matrix_power(p, n)


def _eval_inverse_power(t: _Table, n: int):
    return _gm.matrix_power(t.params, n) * _gm.matrix_power(t.params, -n), Mat2.identity()


def _eval_binet_fib(t: _Table, n: int):
    return _binet.binet_fib(t.params, n), t.fib(n)


def _eval_binet_lucas(t: _Table, n: int):
    return _binet.binet_lucas(t.params, n), t.lucas(n)


def _eval_thm6_i(t: _Table, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(2 * (m + n + 1))
    rhs = t.lucas(2 * m + 1) * t.lucas(2 * (n + 1)) + t.lucas(2 * m) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_thm6_ii(t: _Table, m: int, n: int):
    lhs = t.fib(2 * (m + n))
    rhs = t.fib(2 * m) * t.fib(2 * n + 1) + t.fib(2 * m - 1) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_iii(t: _Table, m: int, n: int):
    lhs = t.lucas(2 * (m + n) + 1)
    rhs = t.lucas(2 * m + 1) * t.fib(2 * n + 1) + t.lucas(2 * m) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_iv(t: _Table, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(2 * (m - n))
    rhs = t.lucas(2 * m + 1) * t.lucas(2 * (n + 1)) - t.lucas(2 * (m + 1)) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_thm6_v(t: _Table, m: int, n: int):
    lhs = t.fib(2 * (m - n))
    rhs = t.fib(2 * m) * t.fib(2 * n + 1) - t.fib(2 * m + 1) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_vi_printed(t: _Table, m: int, n: int):
    lhs = t.lucas(2 * (m - n) + 1)
    rhs = t.fib(2 * m + 1) * t.lucas(2 * n + 1) - t.fib(2 * (m + 1)) * t.lucas(2 * n)
    return lhs, rhs


def _gap_thm6_vi_printed(t: _Table, lhs, m: int, n: int):
    return 2 * lhs  # rhs = -lhs


def _eval_thm6_vi_corrected(t: _Table, m: int, n: int):
    lhs = t.lucas(2 * (m - n) + 1)
    rhs = t.fib(2 * (m + 1)) * t.lucas(2 * n) - t.fib(2 * m + 1) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_add_qq(t: _Table, m: int, n: int):
    return t.fib(m + n), t.fib(m + 1) * t.fib(n) + t.fib(m) * t.fib(n - 1)


def _eval_add_ll(t: _Table, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(m + n)
    return lhs, t.lucas(m + 1) * t.lucas(n) + t.lucas(m) * t.lucas(n - 1)


def _eval_add_lq(t: _Table, m: int, n: int):
    return t.lucas(m + n), t.lucas(m + 1) * t.fib(n) + t.lucas(m) * t.fib(n - 1)


def _eval_sub_qq(t: _Table, m: int, n: int):
    return t.fib(m - n), t.fib(m) * t.fib(n + 1) - t.fib(m + 1) * t.fib(n)


def _eval_sub_ll(t: _Table, m: int, n: int):
    lhs = t.ab_plus_4 * t.fib(m - n)
    return lhs, t.lucas(m) * t.lucas(n + 1) - t.lucas(m + 1) * t.lucas(n)


def _eval_sub_ql(t: _Table, m: int, n: int):
    return t.lucas(m - n), t.fib(m) * t.lucas(n + 1) - t.fib(m + 1) * t.lucas(n)


class _ParityDomain(NamedTuple):
    """The (m, n) parities on which a two-index rule is asserted.

    ``n_parity[parity(m)]`` is the one parity n takes for such an m, or None
    when no n does.
    """

    n_parity: tuple[Optional[int], Optional[int]]
    desc: str

    def ok(self, m: int, n: int) -> bool:
        return self.n_parity[parity(m)] == parity(n)


_BOTH_EVEN = _ParityDomain((0, None), "m and n even")
_BOTH_ODD = _ParityDomain((None, 1), "m and n odd")
_OPPOSITE = _ParityDomain((1, 0), "m and n of opposite parity")
_EVEN_M_ODD_N = _ParityDomain((1, None), "m even and n odd")


def _needs_invertible(p: SeqParams) -> Optional[str]:
    if p.ab_plus_4 == 0:
        return "ab + 4 = 0: generating matrix is singular"
    return None


def _needs_distinct_roots(p: SeqParams) -> Optional[str]:
    if p.disc == 0:
        return "ab = -4: repeated characteristic root"
    return None


@dataclass(frozen=True)
class _IdentityDef:
    evaluate: Callable
    #: default index ranges, both ends inclusive; m_range is None for one index
    n_range: tuple[int, int]
    m_range: Optional[tuple[int, int]] = None
    parity_domain: Optional[_ParityDomain] = None
    exclude: Optional[Callable[[SeqParams], Optional[str]]] = None
    min_index: Optional[int] = None
    expected: Expectation = Expectation.HOLDS
    #: documented exact lhs - rhs as gap(table, lhs, *indices); None: lhs == rhs
    gap: Optional[Callable] = None

    @property
    def arity(self) -> int:
        return 1 if self.m_range is None else 2


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
    IdentityId.BINET_FIB: _IdentityDef(_eval_binet_fib, (-50, 50), exclude=_needs_distinct_roots),
    IdentityId.BINET_LUCAS: _IdentityDef(_eval_binet_lucas, (-50, 50)),
    IdentityId.MATRIX_FORM: _IdentityDef(_eval_matrix_form, (1, 64), min_index=1),
    IdentityId.INVERSE_POWER: _IdentityDef(
        _eval_inverse_power, (-16, 16), exclude=_needs_invertible
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
    No parameter point is excluded here, so the engines' domain errors pass
    through: binet-fib raises DegenerateDiscriminantError at ab = -4, and
    inverse-power raises SingularMatrixError at ab + 4 = 0.
    Both sides come back as Fractions (a Mat2 for the matrix identities).
    """
    idef = _CATALOG[ident]
    if len(indices) != idef.arity:
        raise ValueError(f"{ident.value} takes {idef.arity} index argument(s), got {len(indices)}")
    if idef.min_index is not None and indices[0] < idef.min_index:
        raise ValueError(f"{ident.value} requires n >= {idef.min_index}")
    domain = idef.parity_domain
    if domain is not None and not domain.ok(*indices):
        raise ParityMismatchError(
            f"{ident.value} is asserted only for {domain.desc}; got m={indices[0]}, n={indices[1]}"
        )
    lhs, rhs = idef.evaluate(_Table(p), *indices)
    return _fraction(lhs), _fraction(rhs)


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


@dataclass(frozen=True)
class Counterexample:
    a: Fraction
    b: Fraction
    indices: tuple[int, ...]
    lhs: object
    rhs: object


@dataclass(frozen=True)
class ExcludedPoint:
    a: Fraction
    b: Fraction
    reason: str


@dataclass(frozen=True)
class IdentityReport:
    identity: IdentityId
    a_values: tuple[Fraction, ...]
    b_values: tuple[Fraction, ...]
    n_range: tuple[int, int]
    m_range: Optional[tuple[int, int]]
    checked: int
    passed: int
    #: points where lhs - rhs is not the documented value
    unexpected: int
    counterexamples: tuple[Counterexample, ...] = field(default=())
    excluded: tuple[ExcludedPoint, ...] = field(default=())

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


def _index_tuples(idef: _IdentityDef, n_range, m_range):
    """The grid's index tuples inside the identity's domain, m-major, n ascending."""
    n_lo, n_hi = n_range
    if idef.arity == 1:
        if idef.min_index is not None:
            n_lo = max(n_lo, idef.min_index)
        for n in range(n_lo, n_hi + 1):
            yield (n,)
        return
    domain = idef.parity_domain
    for m in range(m_range[0], m_range[1] + 1):
        if domain is None:
            n_start, step = n_lo, 1
        else:
            n_par = domain.n_parity[parity(m)]
            if n_par is None:
                continue
            n_start, step = n_lo + parity(n_par - n_lo), 2
        for n in range(n_start, n_hi + 1, step):
            yield (m, n)


def verify_grid(
    ident: IdentityId,
    a_values,
    b_values,
    *,
    n_range: tuple[int, int],
    m_range: Optional[tuple[int, int]] = None,
) -> IdentityReport:
    """Exhaustively evaluate one identity over a parameter/index grid.

    Parameter points where the identity is undefined (singular matrix,
    repeated root) are recorded as exclusions, never counted or thrown.
    Counterexamples come back sorted lexicographically by (a, b, indices)
    so reports are reproducible byte for byte.
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

    evaluator, gap = idef.evaluate, idef.gap
    grid = list(_index_tuples(idef, n_range, m_range))
    checked = passed = unexpected = 0
    counterexamples: list[Counterexample] = []
    excluded: list[ExcludedPoint] = []
    for a in a_vals:
        for b in b_vals:
            p = SeqParams(a, b)
            if idef.exclude is not None:
                reason = idef.exclude(p)
                if reason is not None:
                    excluded.append(ExcludedPoint(a, b, reason))
                    continue
            table = _Table(p)
            for indices in grid:
                lhs, rhs = evaluator(table, *indices)
                checked += 1
                held = lhs == rhs
                if held:
                    passed += 1
                else:
                    counterexamples.append(
                        Counterexample(a, b, indices, _fraction(lhs), _fraction(rhs))
                    )
                if gap is None:
                    unexpected += not held
                elif lhs - rhs != gap(table, lhs, *indices):
                    unexpected += 1
    counterexamples.sort(key=lambda ce: (ce.a, ce.b, ce.indices))
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
        counterexamples=tuple(counterexamples),
        excluded=tuple(excluded),
    )


def verify_default(ident: IdentityId) -> IdentityReport:
    """Run one identity over the standard grid at its default index ranges."""
    n_range, m_range = DEFAULT_RANGES[ident]
    return verify_grid(
        ident, STANDARD_VALUES, STANDARD_VALUES, n_range=n_range, m_range=m_range
    )

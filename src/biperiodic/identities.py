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
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import binet as _binet
from . import genmatrix as _gm
from .exact import Mat2, _rational
from .sequences import SeqParams, TermTable, parity


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
    """The documented outcome as a report label; points are judged by ``_IdentityDef.gap``."""

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


def _eval_cassini_fib(t: TermTable, p: SeqParams, n: int):
    e = parity(n)
    lhs = (
        p.a ** (1 - e) * p.b**e * t.fib(n - 1) * t.fib(n + 1)
        - p.a**e * p.b ** (1 - e) * t.fib(n) ** 2
    )
    return lhs, p.a * _sign(n)


def _eval_cassini_lucas(t: TermTable, p: SeqParams, n: int):
    ratio = p.b / p.a
    lhs = (
        ratio ** parity(n + 1) * t.lucas(n - 1) * t.lucas(n + 1)
        - ratio ** parity(n) * t.lucas(n) ** 2
    )
    return lhs, _sign(n + 1) * p.ab_plus_4


def _eval_thm4_printed(t: TermTable, p: SeqParams, n: int):
    # same coefficient on both products: wrong at generic (a, b)
    c = p.a ** (1 - parity(n)) * p.b ** parity(n)
    lhs = c * (t.fib(n + 1) * t.fib(n - 1) - t.fib(n) ** 2)
    return lhs, p.a * _sign(n)


def _gap_thm4_printed(t: TermTable, p: SeqParams, lhs, n: int):
    return _sign(n) * (p.b - p.a) * t.fib(n) ** 2


def _eval_det_power(t: TermTable, p: SeqParams, n: int):
    return _gm.matrix_power(p, n).det(), _gm.det_power(p, n)


def _eval_matrix_form(t: TermTable, p: SeqParams, n: int):
    # the core comes from the walk, so binary exponentiation is checked against it
    return _gm._closed_form(p, n, t.term).materialize(), _gm.matrix_power(p, n)


def _eval_inverse_power(t: TermTable, p: SeqParams, n: int):
    return _gm.matrix_power(p, n) * _gm.matrix_power(p, -n), Mat2.identity()


def _eval_binet_fib(t: TermTable, p: SeqParams, n: int):
    return _binet.binet_fib(p, n), t.fib(n)


def _eval_binet_lucas(t: TermTable, p: SeqParams, n: int):
    return _binet.binet_lucas(p, n), t.lucas(n)


def _eval_thm6_i(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = p.ab_plus_4 * t.fib(2 * (m + n + 1))
    rhs = t.lucas(2 * m + 1) * t.lucas(2 * (n + 1)) + t.lucas(2 * m) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_thm6_ii(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = t.fib(2 * (m + n))
    rhs = t.fib(2 * m) * t.fib(2 * n + 1) + t.fib(2 * m - 1) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_iii(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = t.lucas(2 * (m + n) + 1)
    rhs = t.lucas(2 * m + 1) * t.fib(2 * n + 1) + t.lucas(2 * m) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_iv(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = p.ab_plus_4 * t.fib(2 * (m - n))
    rhs = t.lucas(2 * m + 1) * t.lucas(2 * (n + 1)) - t.lucas(2 * (m + 1)) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_thm6_v(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = t.fib(2 * (m - n))
    rhs = t.fib(2 * m) * t.fib(2 * n + 1) - t.fib(2 * m + 1) * t.fib(2 * n)
    return lhs, rhs


def _eval_thm6_vi_printed(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = t.lucas(2 * (m - n) + 1)
    rhs = t.fib(2 * m + 1) * t.lucas(2 * n + 1) - t.fib(2 * (m + 1)) * t.lucas(2 * n)
    return lhs, rhs


def _gap_thm6_vi_printed(t: TermTable, p: SeqParams, lhs, m: int, n: int):
    return 2 * lhs  # rhs = -lhs


def _eval_thm6_vi_corrected(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = t.lucas(2 * (m - n) + 1)
    rhs = t.fib(2 * (m + 1)) * t.lucas(2 * n) - t.fib(2 * m + 1) * t.lucas(2 * n + 1)
    return lhs, rhs


def _eval_add_qq(t: TermTable, p: SeqParams, m: int, n: int):
    return t.fib(m + n), t.fib(m + 1) * t.fib(n) + t.fib(m) * t.fib(n - 1)


def _eval_add_ll(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = p.ab_plus_4 * t.fib(m + n)
    return lhs, t.lucas(m + 1) * t.lucas(n) + t.lucas(m) * t.lucas(n - 1)


def _eval_add_lq(t: TermTable, p: SeqParams, m: int, n: int):
    return t.lucas(m + n), t.lucas(m + 1) * t.fib(n) + t.lucas(m) * t.fib(n - 1)


def _eval_sub_qq(t: TermTable, p: SeqParams, m: int, n: int):
    return t.fib(m - n), t.fib(m) * t.fib(n + 1) - t.fib(m + 1) * t.fib(n)


def _eval_sub_ll(t: TermTable, p: SeqParams, m: int, n: int):
    lhs = p.ab_plus_4 * t.fib(m - n)
    return lhs, t.lucas(m) * t.lucas(n + 1) - t.lucas(m + 1) * t.lucas(n)


def _eval_sub_ql(t: TermTable, p: SeqParams, m: int, n: int):
    return t.lucas(m - n), t.fib(m) * t.lucas(n + 1) - t.fib(m + 1) * t.lucas(n)


class _ParityDomain(NamedTuple):
    """The (m, n) parities on which a two-index rule is asserted."""

    ok: Callable[[int, int], bool]
    desc: str


_BOTH_EVEN = _ParityDomain(lambda m, n: parity(m) == 0 and parity(n) == 0, "m and n even")
_BOTH_ODD = _ParityDomain(lambda m, n: parity(m) == 1 and parity(n) == 1, "m and n odd")
_OPPOSITE = _ParityDomain(lambda m, n: parity(m) != parity(n), "m and n of opposite parity")
_EVEN_M_ODD_N = _ParityDomain(lambda m, n: parity(m) == 0 and parity(n) == 1, "m even and n odd")


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
    #: documented exact lhs - rhs as gap(table, p, lhs, *indices); None: lhs == rhs
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
    return idef.evaluate(TermTable(p), p, *indices)


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
    n_lo, n_hi = n_range
    if idef.arity == 1:
        for n in range(n_lo, n_hi + 1):
            if idef.min_index is not None and n < idef.min_index:
                continue
            yield (n,)
        return
    m_lo, m_hi = m_range
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if idef.parity_domain is not None and not idef.parity_domain.ok(m, n):
                continue
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

    gap = idef.gap
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
            table = TermTable(p)
            for indices in _index_tuples(idef, n_range, m_range):
                lhs, rhs = idef.evaluate(table, p, *indices)
                checked += 1
                held = lhs == rhs
                if held:
                    passed += 1
                else:
                    counterexamples.append(Counterexample(a, b, indices, lhs, rhs))
                if gap is None:
                    unexpected += not held
                elif lhs - rhs != gap(table, p, lhs, *indices):
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

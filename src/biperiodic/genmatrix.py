"""The 2x2 generating matrix of the bi-periodic Lucas sequence.

For parameters (a, b) the matrix is

    G = [[a^2 + 2a/b, a^2/b],
         [a,           2a/b]]

and its integer powers factor into a rational scalar prefactor times a
matrix of sequence terms:

    G^n = (a/b)^n * (ab+4)^floor(n/2) * [[t(n+1), t(n)],
                                         [(b/a)*t(n), t(n-1)]]

where t = fibonacci terms for even n and lucas terms for odd n. Reading
the factorization backward turns binary exponentiation into an
O(log |n|) term evaluator (``term_fast``), and one power divided by the
prefactor is the whole core (``power_closed_form``).

Degenerate point ab + 4 = 0: det(G) = (a^2/b^2)(ab+4) = 0, so G has no
inverse and G^n = 0 for n >= 2 (trace and determinant both vanish). The
prefactor then carries no information and term extraction is impossible;
``term_fast`` refuses such parameters, and ``power_closed_form`` reads its
core from one ``TermTable`` walk instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .exact import Mat2, Rational, SingularMatrixError, mat_pow_counted
from .sequences import SeqParams, SequenceKind, TermTable, parity


def generating_matrix(p: SeqParams) -> Mat2:
    a, b = p.a, p.b
    return Mat2(a * a + 2 * a / b, a * a / b, a, 2 * a / b)


def matrix_power_counted(p: SeqParams, n: int) -> tuple[Mat2, int]:
    """G^n for any integer n, with the number of 2x2 products performed.

    Negative powers invert first, which requires ab + 4 != 0 (inversion
    itself costs no matrix products).
    """
    base = generating_matrix(p)
    if n < 0:
        if p.ab_plus_4 == 0:
            raise SingularMatrixError(
                "generating matrix is singular (ab + 4 = 0); negative powers do not exist"
            )
        return mat_pow_counted(base.inverse(), -n)
    return mat_pow_counted(base, n)


def matrix_power(p: SeqParams, n: int) -> Mat2:
    return matrix_power_counted(p, n)[0]


def det_power(p: SeqParams, n: int) -> Rational:
    """det(G^n) = ((a^2/b^2)(ab+4))^n for any integer n, without touching the matrix.

    On the singular line ab + 4 = 0 the determinant is 0 for n >= 1 and 1
    at n = 0; negative powers do not exist there and raise
    SingularMatrixError.
    """
    if n < 0 and p.ab_plus_4 == 0:
        raise SingularMatrixError("ab + 4 = 0: determinant is 0, negative powers do not exist")
    return ((p.a * p.a) / (p.b * p.b) * p.ab_plus_4) ** n


def _exposed_kind(n: int) -> SequenceKind:
    """The sequence the core of G^n holds: fibonacci at even n, lucas at odd n."""
    return SequenceKind.FIBONACCI if parity(n) == 0 else SequenceKind.LUCAS


def _prefactor(p: SeqParams, n: int) -> Rational:
    # (a/b)^n * (ab+4)^floor(n/2); floor toward -infinity for negative n.
    return (p.a / p.b) ** n * p.ab_plus_4 ** (n // 2)


@dataclass(frozen=True)
class ClosedForm:
    """Factored form of G^n: scale exponents plus a core of sequence terms."""

    params: SeqParams
    n: int
    core: Mat2

    @property
    def parity(self) -> Literal["even", "odd"]:
        return "even" if self.kind is SequenceKind.FIBONACCI else "odd"

    @property
    def kind(self) -> SequenceKind:
        return _exposed_kind(self.n)

    @property
    def scale_ab_pow(self) -> int:
        return self.n

    @property
    def scale_abp4_pow(self) -> int:
        return self.n // 2

    def scale(self) -> Rational:
        return _prefactor(self.params, self.n)

    def materialize(self) -> Mat2:
        return self.core.scaled(self.scale())


def _closed_form(p: SeqParams, n: int, term) -> ClosedForm:
    """The factored form of G^n, its core read from ``term(kind, k)``."""
    below, mid, above = (term(_exposed_kind(n), k) for k in (n - 1, n, n + 1))
    return ClosedForm(p, n, Mat2(above, mid, (p.b / p.a) * mid, below))


def power_closed_form(p: SeqParams, n: int) -> ClosedForm:
    """The factored form of G^n (n >= 1).

    The core is one matrix power divided by the prefactor, except at the
    degenerate point ab + 4 = 0 where the prefactor vanishes and one
    ``TermTable`` walk supplies the core terms instead.
    """
    if n < 1:
        raise ValueError("power_closed_form requires n >= 1")
    if p.ab_plus_4 == 0:
        return _closed_form(p, n, TermTable(p).term)
    return ClosedForm(p, n, matrix_power(p, n).scaled(1 / _prefactor(p, n)))


def term_fast_counted(p: SeqParams, kind: SequenceKind, n: int) -> tuple[Rational, int]:
    """Sequence term via one matrix power, with the 2x2 product count.

    Even powers expose fibonacci terms and odd powers expose lucas terms,
    so when the requested kind sits at the wrong parity the adjacent power
    n+1 is used and the term is read from the trailing diagonal entry.
    """
    if p.ab_plus_4 == 0:
        raise SingularMatrixError(
            "term extraction needs ab + 4 != 0 (the prefactor vanishes); "
            "use the recurrence for this parameter point"
        )
    if kind is _exposed_kind(n):
        m, count = matrix_power_counted(p, n)
        return m.e12 / _prefactor(p, n), count
    m, count = matrix_power_counted(p, n + 1)
    return m.e22 / _prefactor(p, n + 1), count


def term_fast(p: SeqParams, kind: SequenceKind, n: int) -> Rational:
    return term_fast_counted(p, kind, n)[0]

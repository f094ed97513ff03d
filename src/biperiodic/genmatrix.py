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
O(log |n|) term evaluator (``term_fast``), and one power read the same
way is the whole core (``power_closed_form``).

Both O(log |n|) paths power an integer matrix. G factors exactly as

    G = (a/b) * S * N * S^-1,  S = diag(1, 1/a),  N = [[ab+2, 1], [ab, 2]]

Proof: conjugating by S multiplies entry (1,2) by a and divides entry
(2,1) by a, so S*N*S^-1 = [[ab+2, a], [b, 2]], and (a/b) times it is G.
Hence G^n = (a/b)^n * S * N^n * S^-1 for every integer n. With ab = r/s in
lowest terms (s > 0), N = K/s for the integer matrix

    K = [[r+2s, s], [r, 2s]],  and  N^-1 = K'/(r+4s),  K' = [[2s, -s], [-r, r+2s]]

Proof of the inverse: det N = 2(ab+2) - ab = ab+4, so
N^-1 = [[2, -1], [-ab, ab+2]]/(ab+4); multiply above and below by s. So
N^n = K^n/s^n for n >= 0 and N^n = K'^|n|/(r+4s)^|n| for n < 0: the
square-and-multiply loop runs on integers, and each result is built with
one normalization at the end. Since S only moves a factor a between the
off-diagonal entries, (a/b)^n cancels from the core of G^n. With the
integer divisor den*(ab+4)^floor(n/2) = s^ceil(|n|/2) * (r+4s)^floor(|n|/2),
the core is [[K11, a*K12], [K21/a, K22]] over it; for example
t(n) = a*K12/divisor from the (1,2) entry.

Degenerate point ab + 4 = 0: det(G) = (a^2/b^2)(ab+4) = 0, so G has no
inverse and G^n = 0 for n >= 2 (trace and determinant both vanish). The
prefactor then carries no information and term extraction is impossible;
``term_fast`` refuses such parameters, and ``power_closed_form`` reads its
core from one ``TermTable`` walk instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .exact import Mat2, Rational, SingularMatrixError, _power
from .sequences import SeqParams, SequenceKind, TermTable, parity


def generating_matrix(p: SeqParams) -> Mat2:
    a, b = p.a, p.b
    return Mat2(a * a + 2 * a / b, a * a / b, a, 2 * a / b)


class _IntMat:
    """Row-major 2x2 integer matrix: K, K' and their powers."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: int, e12: int, e21: int, e22: int):
        self.e11, self.e12, self.e21, self.e22 = e11, e12, e21, e22

    def __mul__(self, other: "_IntMat") -> "_IntMat":
        return _IntMat(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )


def _kernel(p: SeqParams, n: int) -> tuple[_IntMat, int, int]:
    """(K^n, s^n) for n >= 0 and (K'^|n|, (r+4s)^|n|) for n < 0, with the product count.

    N^n is the matrix divided by the integer; see the module docstring.
    """
    r, s = p.ab.numerator, p.ab.denominator
    if n >= 0:
        base, den = _IntMat(r + 2 * s, s, r, 2 * s), s**n
    elif r + 4 * s == 0:
        raise SingularMatrixError(
            "generating matrix is singular (ab + 4 = 0); negative powers do not exist"
        )
    else:
        base, den = _IntMat(2 * s, -s, -r, r + 2 * s), (r + 4 * s) ** -n
    power, count = _power(base, abs(n), _IntMat(1, 0, 0, 1))
    return power, den, count


def _conjugated(p: SeqParams, k: _IntMat, num: int, den: int) -> Mat2:
    """num/den * S*k*S^-1 = num/den * [[K11, a*K12], [K21/a, K22]], one normalization per entry."""
    a_num, a_den = p.a.numerator, p.a.denominator
    return Mat2(
        Fraction(k.e11 * num, den),
        Fraction(k.e12 * num * a_num, den * a_den),
        Fraction(k.e21 * num * a_den, den * a_num),
        Fraction(k.e22 * num, den),
    )


def matrix_power_counted(p: SeqParams, n: int) -> tuple[Mat2, int]:
    """G^n for any integer n, with the number of 2x2 products performed.

    G^n = (a/b)^n/den * [[K11, a*K12], [K21/a, K22]] from the kernel.
    Negative powers require ab + 4 != 0.
    """
    k, den, count = _kernel(p, n)
    scale = (p.a / p.b) ** n
    return _conjugated(p, k, scale.numerator, scale.denominator * den), count


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


def _core_divisor(p: SeqParams, m: int) -> int:
    """den * (ab+4)^floor(m/2) = s^ceil(|m|/2) * (r+4s)^floor(|m|/2), for either sign of m.

    The kernel power of ``_kernel(p, m)`` over it is the core of G^m.
    """
    r, s, j = p.ab.numerator, p.ab.denominator, abs(m)
    return s ** (j - j // 2) * (r + 4 * s) ** (j // 2)


def power_closed_form(p: SeqParams, n: int) -> ClosedForm:
    """The factored form of G^n (n >= 1).

    The core is [[K11, a*K12], [K21/a, K22]] / ``_core_divisor`` from one
    kernel power, one normalization per entry, except at the degenerate
    point ab + 4 = 0 where the divisor vanishes and one ``TermTable`` walk
    supplies the core terms instead.
    """
    if n < 1:
        raise ValueError("power_closed_form requires n >= 1")
    if p.ab_plus_4 == 0:
        return _closed_form(p, n, TermTable(p).term)
    k, _, _ = _kernel(p, n)
    return ClosedForm(p, n, _conjugated(p, k, 1, _core_divisor(p, n)))


def term_fast_counted(p: SeqParams, kind: SequenceKind, n: int) -> tuple[Rational, int]:
    """Sequence term via one kernel power, with the 2x2 product count.

    Even powers expose fibonacci terms and odd powers expose lucas terms,
    so when the requested kind sits at the wrong parity the adjacent power
    m = n+1 is used and the term is read from the trailing diagonal entry:
    t(n) = K22/``_core_divisor(p, m)``. No Mat2 is built, and the term is
    normalized once.
    """
    if p.ab_plus_4 == 0:
        raise SingularMatrixError(
            "term extraction needs ab + 4 != 0 (the prefactor vanishes); "
            "use the recurrence for this parameter point"
        )
    m = n if kind is _exposed_kind(n) else n + 1
    k, _, count = _kernel(p, m)
    divisor = _core_divisor(p, m)
    if m == n:
        return Fraction(p.a.numerator * k.e12, p.a.denominator * divisor), count
    return Fraction(k.e22, divisor), count


def term_fast(p: SeqParams, kind: SequenceKind, n: int) -> Rational:
    return term_fast_counted(p, kind, n)[0]

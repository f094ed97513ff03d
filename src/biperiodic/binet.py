"""Closed-form (Binet) evaluation in the quadratic extension field.

The characteristic roots of both sequences solve X^2 - ab*X - ab = 0:

    alpha = (ab + sqrt(D))/2,  beta = (ab - sqrt(D))/2,  D = ab*(ab+4)

and the terms are recovered exactly as

    fibonacci(n) = a^(1-parity(n)) / (ab)^floor(n/2) * (alpha^n - beta^n)/(alpha - beta)
    lucas(n)     = (alpha^n + beta^n) / (a^floor(n/2) * b^floor((n+1)/2))

Only alpha is raised to the n-th power: beta^n is read as conj(alpha^n),
where conj(u + v*sqrt(d)) = u - v*sqrt(d). This holds for every integer n
and every d, d = 0 included. Conjugation is a ring automorphism of the
formal algebra Q[X]/(X^2 - d) -- it fixes the rationals and maps X to -X,
and (-X)^2 = d -- so it respects sums and products, hence nonnegative
powers; and it commutes with inversion, since conj(x)*conj(1/x) =
conj(x * 1/x) = 1, hence negative powers too. As beta = conj(alpha), this
gives beta^n = conj(alpha)^n = conj(alpha^n). The same rule gives the
second eigenvalue and eigenvector of the generating matrix from the first.

The power itself runs on integers, at half the index. With ab = r/s in
lowest terms (s > 0) and d = r(r+4s) = s^2*D, an integer,

    alpha = (r + sqrt(d))/(2s),  alpha^2 = ab*(alpha + 1) = (ab/s)*w,
    w = s*(alpha + 1) = ((r+2s) + sqrt(d))/2,  N(w) = ((r+2s)^2 - d)/4 = s^2

So w is a root of X^2 - (r+2s)*X + s^2, and w^j = (V + U*sqrt(d))/2 for
the integer Lucas sequences V, U with P = r+2s and Q = s^2 (Joye and
Quisquater, Electron. Lett. 1996). The pairs (x + y*sqrt(d))/2 with
x = P*y = d*y (mod 2) form the ring Z[w] (d = P^2 - 4Q = P^2 (mod 4)), so
each product halves exactly. For j < 0, w^j = conj(w^|j|)/N(w)^|j|
= conj(w^|j|)/s^(2|j|). With T = w^|j|, read as its conjugate when j < 0,

    alpha^(2j) = (ab)^j * w^j / s^j = (ab)^j * T / s^|j|    (either sign of j)

and with c = r + sqrt(d) = 2s*alpha and n = 2j + e, e in {0, 1},

    alpha^n = (ab)^j * Z / (s^|j| * (2s)^e),  Z = T*c^e,  beta^n = conj(alpha^n)

In the two formulas, with 1/(s*b) = a/r and alpha - beta = sqrt(d)/s:

    lucas(n)     = a^e * (Z + conj(Z)) / ((2r)^e * s^|j|)
    fibonacci(n) = a^(1-e) * ((Z - conj(Z))/sqrt(d)) / (2^e * s^(|j|+e-1))

Writing 2T = V + U*sqrt(d), U negated when j < 0, these read
l(2j) = V/s^|j|, q(2j) = a*U/s^(|j|-1), l(2j+1) = a*((V + (r+4s)*U)/2)/s^|j|
and q(2j+1) = ((V + r*U)/2)/s^|j|. The halves are exact: V^2 - d*U^2 =
4*s^(2|j|) and d = r^2 (mod 4), so (V - r*U)(V + r*U) = 0 (mod 4); the
two factors differ by 2*r*U and so share a parity, which must be even,
and V + (r+4s)*U = V + r*U (mod 4). The power of s in each form is the k
of the lowest-terms lemma (``sequences._term_shape``: t(n) = a^eps * N/s^k
with gcd(N, s) = 1), except at odd n < 0, where |n| = 2|j| - 1 makes
k = |j| - 1 and one exact division by s remains. ``exact._lowest_terms``
then finishes the term with gcds against a's numerator and denominator
only. q(0) = 0 needs no power of s: there Z - conj(Z) = 0. The finished
kernel becomes one QuadExt whose radical component must cancel to
exactly zero before the rational part is extracted, and extraction
enforces that.

D = 0 (equivalently ab = -4) collapses the two roots. The fibonacci
formula divides by alpha - beta and is rejected there; the lucas formula
has no such division and keeps working through the formal d = 0 algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Mat2, QuadExt, Rational, _lowest_terms, _power
from .genmatrix import generating_matrix
from .sequences import SeqParams, SequenceKind, _term_shape, parity


class DegenerateDiscriminantError(ValueError):
    """Operation requires distinct characteristic roots (ab != -4)."""


@dataclass(frozen=True)
class RootPair:
    alpha: QuadExt
    beta: QuadExt


def roots(p: SeqParams) -> RootPair:
    """Both roots of X^2 - ab*X - ab = 0 as formal elements of Q(sqrt(D)).

    beta is the conjugate of alpha.
    """
    alpha = QuadExt(p.ab / 2, Fraction(1, 2), p.disc)
    return RootPair(alpha, alpha.conj())


class _IntPair:
    """(x + y*sqrt(d))/2 in Z[w]: integers x = d*y (mod 2), so products halve exactly."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int):
        self.x, self.y, self.d = x, y, d

    def __mul__(self, other: "_IntPair") -> "_IntPair":
        return _IntPair(
            (self.x * other.x + self.d * (self.y * other.y)) >> 1,
            (self.x * other.y + self.y * other.x) >> 1,
            self.d,
        )

    def __add__(self, other: "_IntPair") -> "_IntPair":
        return _IntPair(self.x + other.x, self.y + other.y, self.d)

    def __sub__(self, other: "_IntPair") -> "_IntPair":
        return _IntPair(self.x - other.x, self.y - other.y, self.d)

    def conj(self) -> "_IntPair":
        return _IntPair(self.x, -self.y, self.d)


def _alpha_power(p: SeqParams, n: int) -> _IntPair:
    """Z with alpha^n = (ab)^j * Z / (s^|j| * (2s)^e), n = 2j + e, from one power of w."""
    r, s = p.ab.numerator, p.ab.denominator
    d = r * (r + 4 * s)
    j, e = divmod(n, 2)
    t, _ = _power(_IntPair(r + 2 * s, 1, d), abs(j), _IntPair(2, 0, d))
    if j < 0:
        t = t.conj()
    return t * _IntPair(2 * r, 2, d) if e else t


def _finish(p: SeqParams, kind: SequenceKind, n: int, kernel: _IntPair, divisor: int) -> Rational:
    """t(n) = a^eps * kernel / (divisor * s^k), through one QuadExt whose radical part must cancel.

    (eps, k) is the shape of ``sequences._term_shape``; at odd n < 0 the
    kernel carries one more factor s, divided out exactly here.
    """
    eps, k = _term_shape(kind, n)
    s = p.ab.denominator
    if n < 0 and parity(n):
        divisor *= s
    den = s**k
    rational = _lowest_terms(p.a, eps, kernel.x // (2 * divisor), den)
    # the radical part is kernel.y scaled like kernel.x; only a nonzero one needs the scale
    radical = p.a**eps * Fraction(kernel.y, 2 * divisor * den) if kernel.y else 0
    return QuadExt(rational, radical, kernel.d).as_rational()


def binet_fib(p: SeqParams, n: int) -> Rational:
    if p.disc == 0:
        raise DegenerateDiscriminantError(
            "ab = -4 gives a repeated root; the fibonacci closed form divides by alpha - beta"
        )
    z = _alpha_power(p, n)
    # dividing by sqrt(d) multiplies by sqrt(d) = (0 + 2*sqrt(d))/2 and divides by d
    kernel = (z - z.conj()) * _IntPair(0, 2, z.d)
    return _finish(p, SequenceKind.FIBONACCI, n, kernel, z.d * 2 ** parity(n))


def binet_lucas(p: SeqParams, n: int) -> Rational:
    z = _alpha_power(p, n)
    return _finish(p, SequenceKind.LUCAS, n, z + z.conj(), (2 * p.ab.numerator) ** parity(n))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and eigenvector matrix of the generating matrix, over Q(sqrt(D))."""

    lambda1: QuadExt
    lambda2: QuadExt
    u_matrix: Mat2


def eigen_decompose(p: SeqParams) -> EigenDecomposition:
    """Diagonalize the generating matrix exactly.

    The eigenvalues reduce to (a/b)*(root + 2), which lives in the same
    field Q(sqrt(D)) as the roots themselves, so no half-integer powers of
    a, b or ab+4 are ever formed. The columns of the eigenvector matrix
    pair each eigenvalue with the opposite root:

        u1 = (a^2/b, -(a/b)*beta),  u2 = (a^2/b, -(a/b)*alpha)

    lambda2 and u2 are read as the conjugates of lambda1 and u1.

    The defining relation G*U = U*diag(lambda1, lambda2) is checked before
    returning.
    """
    if p.disc == 0:
        raise DegenerateDiscriminantError("repeated root (ab = -4): no eigenbasis over Q(sqrt(D))")
    pair = roots(p)
    ratio = p.a / p.b
    lambda1 = ratio * (pair.alpha + 2)
    lambda2 = lambda1.conj()
    d = p.disc
    top = QuadExt(p.a * p.a / p.b, Fraction(0), d)
    bottom = -(ratio * pair.beta)
    u = Mat2(top, top.conj(), bottom, bottom.conj())
    zero = QuadExt(Fraction(0), Fraction(0), d)
    diag = Mat2(lambda1, zero, zero, lambda2)
    if generating_matrix(p) * u != u * diag:
        raise AssertionError("eigendecomposition failed its defining relation")
    return EigenDecomposition(lambda1, lambda2, u)

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

The power itself runs on integers. With ab = r/s in lowest terms (s > 0)
and d = r(r+4s) = s^2*D, an integer,

    alpha = (r + sqrt(d))/(2s),  N(alpha) = alpha*beta = (r^2 - d)/(4s^2) = -ab

so alpha^n = (X + Y*sqrt(d))/(2s)^n for n >= 0, where (X, Y) is the n-th
power of the integer pair r + sqrt(d). The lucas kernel alpha^n + beta^n
is 2X/(2s)^n and, as alpha - beta = sqrt(d)/s, the fibonacci kernel is
2s*Y/(2s)^n. For n < 0, alpha^n = conj(alpha^|n|)/N(alpha)^|n|, whose
denominator (2s)^|n|*(-ab)^|n| = (-2r)^|n| is again an integer (r != 0).
Each term is normalized once, at the end: the finished kernel becomes one
QuadExt whose radical component must cancel to exactly zero before the
rational part is extracted, and extraction enforces that.

D = 0 (equivalently ab = -4) collapses the two roots. The fibonacci
formula divides by alpha - beta and is rejected there; the lucas formula
has no such division and keeps working through the formal d = 0 algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Mat2, QuadExt, Rational, _power
from .genmatrix import generating_matrix
from .sequences import SeqParams, parity


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
    """x + y*sqrt(d) with integer coordinates and an integer d."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int):
        self.x, self.y, self.d = x, y, d

    def __mul__(self, other: "_IntPair") -> "_IntPair":
        return _IntPair(
            self.x * other.x + self.d * (self.y * other.y),
            self.x * other.y + self.y * other.x,
            self.d,
        )

    def __add__(self, other: "_IntPair") -> "_IntPair":
        return _IntPair(self.x + other.x, self.y + other.y, self.d)

    def __sub__(self, other: "_IntPair") -> "_IntPair":
        return _IntPair(self.x - other.x, self.y - other.y, self.d)

    def conj(self) -> "_IntPair":
        return _IntPair(self.x, -self.y, self.d)


def _alpha_power(p: SeqParams, n: int) -> tuple[_IntPair, int]:
    """alpha^n as an integer pair and an integer denominator (module docstring)."""
    r, s = p.ab.numerator, p.ab.denominator
    d = r * (r + 4 * s)
    x, _ = _power(_IntPair(r, 1, d), abs(n), _IntPair(1, 0, d))
    if n >= 0:
        return x, (2 * s) ** n
    return x.conj(), (-2 * r) ** -n


def _finish(prefactor: Rational, kernel: _IntPair, den: int) -> Rational:
    """prefactor * kernel/den, normalized once; its radical part must cancel."""
    num, den = prefactor.numerator, prefactor.denominator * den
    value = QuadExt(Fraction(num * kernel.x, den), Fraction(num * kernel.y, den), kernel.d)
    return value.as_rational()


def binet_fib(p: SeqParams, n: int) -> Rational:
    if p.disc == 0:
        raise DegenerateDiscriminantError(
            "ab = -4 gives a repeated root; the fibonacci closed form divides by alpha - beta"
        )
    x, den = _alpha_power(p, n)
    d = x.d
    # dividing by alpha - beta = sqrt(d)/s multiplies by sqrt(d) and by s/d
    kernel = (x - x.conj()) * _IntPair(0, 1, d)
    prefactor = p.a ** (1 - parity(n)) / p.ab ** (n // 2) * Fraction(p.ab.denominator, d)
    return _finish(prefactor, kernel, den)


def binet_lucas(p: SeqParams, n: int) -> Rational:
    x, den = _alpha_power(p, n)
    # a^floor(n/2) * b^floor((n+1)/2) = (ab)^floor(n/2) * b^parity(n)
    prefactor = 1 / (p.ab ** (n // 2) * p.b ** parity(n))
    return _finish(prefactor, x + x.conj(), den)


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

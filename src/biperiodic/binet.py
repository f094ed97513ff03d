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
each product halves exactly. A square takes 3 big products, not 4:

    ((x + y*sqrt(d))/2)^2 = ((x^2 + d*y^2)/2 + x*y*sqrt(d))/2,

the pair ((x^2 + d*y^2) >> 1, x*y) from x^2, y^2 and x*y (d is small).
The shift is exact: x = d*y and d^2 = d (mod 2), so x^2 = d*y^2 and
x^2 + d*y^2 = 2*d*y^2 = 0 (mod 2). ``_IntPair`` takes this path when both
factors are one object, the ``result * result`` step of ``exact._power``.

For j < 0, w^j = conj(w^|j|)/s^(2|j|), so
alpha^(2j) = (ab)^j * w^j/s^j = (ab)^j * T/s^|j| for either sign of j,
with T = w^|j| read as its conjugate when j < 0, and
alpha^(2j+1) = alpha^(2j) * (r + sqrt(d))/(2s). Writing n = 2j + e,
e in {0, 1}, 2T = V + U*sqrt(d), 1/(s*b) = a/r and
alpha - beta = sqrt(d)/s, the two formulas above read

    l(2j) = V/s^|j|,          l(2j+1) = a*((V + (r+4s)*U)/2)/s^|j|,
    q(2j) = a*U/s^(|j|-1),    q(2j+1) = ((V + r*U)/2)/s^|j|

(q(0) = 0 needs no power of s: there U = 0). The halves are exact:
V^2 - d*U^2 = 4*s^(2|j|) and d = r^2 (mod 4), so (V - r*U)(V + r*U) = 0
(mod 4); the two factors differ by 2*r*U and so share a parity, which must
be even, and V + (r+4s)*U = V + r*U (mod 4). ``sequences._finished_term``
finishes each term from its numerator, its power of s and its divisor
(1 or 2), and checks that division.

D = 0 (equivalently ab = -4) collapses the two roots, and all four
formulas still hold: none divides by alpha - beta, and at d = 0, where
Q[X]/(X^2 - d) is the ring of dual numbers, ``_IntPair`` still computes
the Lucas pair (V, U) of (r+2s, s^2). Proof, by the polynomial identity
argument of ``genmatrix``'s core formula: V and U are homogeneous,
V_h(s*P, s^2) = s^h * V_h(P, 1) and U_h(s*P, s^2) = s^(h-1) * U_h(P, 1),
so V/s^|j| = V_|j|(ab+2, 1) and U/s^(|j|-1) = +-U_|j|(ab+2, 1). With
r/s = ab, each formula is a polynomial in a and ab, and each term is a
polynomial in a and b (the recurrence, run either way from seeds in
Z[a]). The two agree wherever ab(ab+4) != 0, so their difference times
ab(ab+4) is the zero polynomial, and the difference vanishes on the line
too. Only ``eigen_decompose`` refuses the line: no eigenbasis exists there.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import Mat2, QuadExt, Rational, _power
from .genmatrix import generating_matrix
from .sequences import SeqParams, SequenceKind, _finished_term, parity


class DegenerateDiscriminantError(ValueError):
    """Operation requires distinct characteristic roots (ab != -4)."""


class RootPair(NamedTuple):
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
        if other is self:  # 3 big products instead of 4 (module docstring)
            x, y = self.x, self.y
            return _IntPair((x * x + self.d * (y * y)) >> 1, x * y, self.d)
        return _IntPair(
            (self.x * other.x + self.d * (self.y * other.y)) >> 1,
            (self.x * other.y + self.y * other.x) >> 1,
            self.d,
        )


def _alpha_power(p: SeqParams, j: int) -> tuple[int, int]:
    """(V, U) with 2*w^|j| = V + U*sqrt(d), U negated when j < 0, from one power of w."""
    r, s = p.ab.numerator, p.ab.denominator
    d = r * (r + 4 * s)
    t, _ = _power(_IntPair(r + 2 * s, 1, d), abs(j), _IntPair(2, 0, d))
    return t.x, -t.y if j < 0 else t.y


def binet_fib(p: SeqParams, n: int) -> Rational:
    j = n // 2
    v, u = _alpha_power(p, j)
    if parity(n):
        return _finished_term(p, SequenceKind.FIBONACCI, n, v + p.ab.numerator * u, abs(j), 2)
    return _finished_term(p, SequenceKind.FIBONACCI, n, u, max(abs(j) - 1, 0), 1)


def binet_lucas(p: SeqParams, n: int) -> Rational:
    j = n // 2
    v, u = _alpha_power(p, j)
    if parity(n):
        r, s = p.ab.numerator, p.ab.denominator
        return _finished_term(p, SequenceKind.LUCAS, n, v + (r + 4 * s) * u, abs(j), 2)
    return _finished_term(p, SequenceKind.LUCAS, n, v, abs(j), 1)


class EigenDecomposition(NamedTuple):
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

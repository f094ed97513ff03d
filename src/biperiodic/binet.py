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

All arithmetic stays inside QuadExt with the formal radical sqrt(D); the
radical component of the finished expression must cancel to exactly zero
before the rational part is extracted, and extraction enforces that.

D = 0 (equivalently ab = -4) collapses the two roots. The fibonacci
formula divides by alpha - beta and is rejected there; the lucas formula
has no such division and keeps working through the formal d = 0 algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import Mat2, QuadExt, Rational
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


def binet_fib(p: SeqParams, n: int) -> Rational:
    if p.disc == 0:
        raise DegenerateDiscriminantError(
            "ab = -4 gives a repeated root; the fibonacci closed form divides by alpha - beta"
        )
    pair = roots(p)
    x = pair.alpha**n
    kernel = (x - x.conj()) / (pair.alpha - pair.beta)
    prefactor = p.a ** (1 - parity(n)) / p.ab ** (n // 2)
    return (prefactor * kernel).as_rational()


def binet_lucas(p: SeqParams, n: int) -> Rational:
    x = roots(p).alpha**n
    kernel = x + x.conj()
    prefactor = 1 / (p.a ** (n // 2) * p.b ** ((n + 1) // 2))
    return (prefactor * kernel).as_rational()


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

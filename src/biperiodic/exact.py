"""Exact scalars, quadratic-extension elements, and 2x2 matrices.

Every value in this package is built from these three layers:

* ``Rational`` -- arbitrary-precision fractions. This is the stdlib
  ``fractions.Fraction``, which already guarantees the canonical form we
  rely on everywhere: positive denominator, lowest terms, zero as 0/1.
  ``_product_pair`` builds sequence terms in that form, as integer pairs.
* ``QuadExt`` -- elements u + v*sqrt(d) of a quadratic extension of the
  rationals. The radical is purely formal: no square root is ever taken,
  so negative and non-square d work the same as positive square d.
* ``Mat2`` -- 2x2 matrices. Entries are usually Rational but any scalar
  type with field arithmetic (in particular QuadExt) is accepted. A
  product, ``det()`` and ``==`` of matrices whose entries are all
  ``Fraction``s run on the entries' integer numerators and denominators:
  each product of two entries through ``_product_pair``, each sum or
  difference through ``_sum_pair``, and each result built by ``_slots``,
  so no intermediate ``Fraction`` is made. A matrix with any other entry
  (the ``QuadExt`` matrices of ``binet.eigen_decompose``) takes the
  entries' own operators.

All values are immutable; all operations are pure functions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Union

Rational = Fraction

_RationalLike = Union[int, Fraction]


class DiscriminantMismatchError(ValueError):
    """Arithmetic attempted between elements of different extensions."""


class SingularMatrixError(ZeroDivisionError):
    """Inverse of a matrix whose determinant is exactly zero."""


def parse_rational(text: str) -> Fraction:
    """Parse the strict ``N``, ``-N``, ``N/D`` syntax (D > 0, no decimals).

    Decimal notation is rejected on purpose: the interface contract is
    exactness, and accepting ``0.1`` would silently smuggle in a binary or
    denominator-10 approximation the caller did not write.
    """
    s = text.strip()
    num_part, slash, den_part = s.partition("/")
    neg = num_part.startswith("-")
    if neg:
        num_part = num_part[1:]
    if not (num_part.isascii() and num_part.isdigit()):
        raise ValueError(f"invalid rational {text!r}: expected N, -N or N/D")
    if slash:
        if not (den_part.isascii() and den_part.isdigit()) or int(den_part) == 0:
            raise ValueError(f"invalid rational {text!r}: denominator must be a positive integer")
        value = Fraction(int(num_part), int(den_part))
    else:
        value = Fraction(int(num_part))
    return -value if neg else value


def format_rational(x: _RationalLike) -> str:
    """Canonical string form: ``_format_pair`` of x's numerator and denominator."""
    x = _rational(x)
    return _format_pair(x.numerator, x.denominator)


def _format_pair(num: int, den: int) -> str:
    """The cell rule for a pair in lowest terms: ``num/den``, ``/den`` omitted when den is 1."""
    return str(num) if den == 1 else f"{num}/{den}"


def _rational(x) -> Fraction:
    """An int or Fraction as a Fraction; a Fraction comes back unchanged.

    Anything else (float, str, Decimal, ...) raises TypeError: converting
    it would accept an approximation or a parse the caller did not ask for.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"unsupported scalar type {type(x).__name__}: expected int or Fraction")


def _lowest_terms(a: Fraction, eps: int, num: int, den: int) -> Fraction:
    """a**eps * num/den in lowest terms, for eps in {0, 1}, den > 0 and gcd(num, den) = 1.

    The pair comes from ``_product_pair`` and becomes a Fraction through
    ``_slots``, with no further gcd. ``sequences._finished_term`` finishes
    the terms of both O(log n) engines here, den a power of s where
    ab = r/s; the matrix core's (2,1) entry (b/a)*t(m) = b*N/s^k too, with
    b in the place of a.
    """
    if eps:
        num, den = _product_pair(a.numerator, a.denominator, num, den)
    return _slots(num, den)


def _product_pair(p: int, q: int, num: int, den: int) -> tuple[int, int]:
    """(p/q) * (num/den) as a lowest-terms pair, for two fractions in lowest terms with q, den > 0.

    Every term a * N/s^k of the fast paths, N prime to s, and every entry
    of G^n is finished here. The lemma: gcd(p*num, q*den) =
    gcd(num, q) * gcd(p, den). A prime dividing p divides neither q nor, if
    it divides den, num, so its share of the gcd is its share of
    gcd(p, den); a prime of q likewise; any other prime divides at most one
    of num and den. So the only gcds taken are against p and q, a big
    operand meets only the other fraction's small one when one fraction is
    small, and the result is canonical without a final normalization.
    """
    g, h = gcd(p, den), gcd(num, q)
    return (p // g) * (num // h), (q // h) * (den // g)


def _sum_pair(p: int, q: int, num: int, den: int) -> tuple[int, int]:
    """p/q + num/den as a lowest-terms pair, for two fractions in lowest terms with q, den > 0.

    Knuth, TAOCP vol. 2, 4.5.1: with g = gcd(q, den), the sum is
    t / ((q/g) * den) for t = p*(den/g) + num*(q/g), and t is prime to q/g
    and to den/g, so gcd(t, g) is the whole gcd. Zero comes out as 0/1.
    """
    g = gcd(q, den)
    q //= g
    t = p * (den // g) + num * q
    h = gcd(t, g)
    return t // h, q * (den // h)


def _dot(n1: int, d1: int, n2: int, d2: int, n3: int, d3: int, n4: int, d4: int) -> Fraction:
    """n1/d1 * n2/d2 + n3/d3 * n4/d4, for four lowest-terms pairs, as a Fraction built by ``_slots``."""
    return _slots(*_sum_pair(*_product_pair(n1, d1, n2, d2), *_product_pair(n3, d3, n4, d4)))


def _slots(num: int, den: int) -> Fraction:
    """num/den, a pair already in lowest terms with den > 0, as a Fraction built with no gcd."""
    # Fraction(num, den) would take a gcd of the whole operands again
    x = object.__new__(Fraction)
    x._numerator, x._denominator = num, den
    return x


def _coerce_scalar(x):
    return x if isinstance(x, QuadExt) else _rational(x)


class _Frozen:
    """Base of the immutable value types: compared, hashed, printed and copied by ``_fields``.

    A subclass stores each field once, in ``__init__``, by
    ``object.__setattr__`` (``identities.Counterexample``: into its
    ``__dict__``); assigning or deleting any attribute raises
    AttributeError. A copy or pickle is rebuilt through the constructor
    from the fields (``__reduce__``), so it never meets the refusing
    ``__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # two or more, so that attrgetter reads a tuple

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))  # the fields' tuple, read in one C call

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class _lazy:
    """An attribute computed by ``derive(instance)`` on its first read, and stored then.

    It is stored in the instance ``__dict__``, past a refusing
    ``__setattr__``. This non-data descriptor is shadowed by that entry, so
    every later read is a plain attribute read (``functools.cached_property``
    without its lock, which costs each first read on 3.11).
    """

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.derive(instance)
        return value


class QuadExt(_Frozen):
    """u + v*sqrt(d) with exact rational coordinates.

    Two elements may be combined only when their ``d`` fields agree;
    rationals (int/Fraction) are lifted into the operand's extension.
    """

    __slots__ = _fields = ("u", "v", "d")

    def __init__(self, u, v, d):
        object.__setattr__(self, "u", _rational(u))
        object.__setattr__(self, "v", _rational(v))
        object.__setattr__(self, "d", _rational(d))

    def __repr__(self) -> str:
        return f"QuadExt({self.u!s}, {self.v!s}, d={self.d!s})"

    def __str__(self) -> str:
        return f"{self.u} + {self.v}*sqrt({self.d})"

    def _lift(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise DiscriminantMismatchError(
                    f"cannot combine sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.v == 0 and self.u == other
        if isinstance(other, QuadExt):
            if self.v == 0 and other.v == 0:
                return self.u == other.u
            return self.u == other.u and self.v == other.v and self.d == other.d
        return NotImplemented

    def __hash__(self):
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    def __add__(self, other) -> "QuadExt":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.u + o.u, self.v + o.v, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.u, -self.v, self.d)

    def __sub__(self, other) -> "QuadExt":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.u - o.u, self.v - o.v, self.d)

    def __rsub__(self, other) -> "QuadExt":
        return (-self) + other

    def __mul__(self, other) -> "QuadExt":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(
            self.u * o.u + self.d * self.v * o.v,
            self.u * o.v + o.u * self.v,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadExt":
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "QuadExt":
        lifted = self._lift(other)
        if lifted is NotImplemented:
            return NotImplemented
        return lifted * self.inverse()

    def conj(self) -> "QuadExt":
        return QuadExt(self.u, -self.v, self.d)

    def norm(self) -> Fraction:
        """u^2 - d*v^2, the product with the conjugate. Always rational."""
        return self.u * self.u - self.d * self.v * self.v

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError(f"division by zero-norm element {self}")
        return QuadExt(self.u / n, -self.v / n, self.d)

    def __pow__(self, n: int) -> "QuadExt":
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        return _power(base, abs(n), QuadExt(Fraction(1), Fraction(0), self.d))[0]

    def as_rational(self) -> Fraction:
        """Extract the rational part, requiring the radical part to be exactly 0."""
        if self.v != 0:
            raise ValueError(f"{self} has a nonzero sqrt({self.d}) component")
        return self.u


#: (e11's numerator, e11's denominator, ..., e22's denominator) of a matrix of Fractions
_PAIRS = attrgetter(*(f"e{ij}.{half}" for ij in ("11", "12", "21", "22") for half in ("_numerator", "_denominator")))


def _over_q(m: "Mat2") -> bool:
    """Whether every entry of m is a Fraction, so that ``_PAIRS`` reads its integers."""
    return type(m.e11) is type(m.e12) is type(m.e21) is type(m.e22) is Fraction


class Mat2(_Frozen):
    """Row-major 2x2 matrix over any exact scalar (Rational or QuadExt).

    ``*``, ``det()`` and ``==`` of matrices of Fractions run on integer
    pairs (module docstring); any other entry type takes its own operators.
    """

    __slots__ = _fields = ("e11", "e12", "e21", "e22")

    def __init__(self, e11, e12, e21, e22):
        # the engines' results are Fractions already, with nothing to coerce
        if not (type(e11) is type(e12) is type(e21) is type(e22) is Fraction):
            e11, e12, e21, e22 = map(_coerce_scalar, (e11, e12, e21, e22))
        object.__setattr__(self, "e11", e11)
        object.__setattr__(self, "e12", e12)
        object.__setattr__(self, "e21", e21)
        object.__setattr__(self, "e22", e22)

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def __repr__(self) -> str:
        return f"Mat2[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"

    def __eq__(self, other):
        if other.__class__ is not Mat2:
            return NotImplemented
        if _over_q(self) and _over_q(other):
            return _PAIRS(self) == _PAIRS(other)  # canonical pairs: equal values, equal integers
        return self._values == other._values

    __hash__ = _Frozen.__hash__

    def __mul__(self, other) -> "Mat2":
        if not isinstance(other, Mat2):
            return NotImplemented
        if _over_q(self) and _over_q(other):
            a11, b11, a12, b12, a21, b21, a22, b22 = _PAIRS(self)
            c11, d11, c12, d12, c21, d21, c22, d22 = _PAIRS(other)
            return Mat2(
                _dot(a11, b11, c11, d11, a12, b12, c21, d21),
                _dot(a11, b11, c12, d12, a12, b12, c22, d22),
                _dot(a21, b21, c11, d11, a22, b22, c21, d21),
                _dot(a21, b21, c12, d12, a22, b22, c22, d22),
            )
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self):
        if _over_q(self):
            a11, b11, a12, b12, a21, b21, a22, b22 = _PAIRS(self)
            return _dot(a11, b11, a22, b22, -a12, b12, a21, b21)  # e11*e22 + (-e12)*e21
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self):
        return self.e11 + self.e22

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 0:
            raise SingularMatrixError(f"matrix {self} has determinant 0")
        return Mat2(self.e22 / d, -self.e12 / d, -self.e21 / d, self.e11 / d)

    def __pow__(self, n: int) -> "Mat2":
        result, _ = mat_pow_counted(self, n)
        return result


def _power(x, n: int, one):
    """x**n for n >= 0 by square-and-multiply, with the number of products.

    ``one`` is returned for n = 0. Otherwise the count is at most
    2*ceil(log2(n+1)): one squaring per bit after the leading one, plus one
    extra product per set bit after the leading one.
    """
    if n == 0:
        return one, 0
    result, count = x, 0
    for bit in bin(n)[3:]:
        result = result * result
        count += 1
        if bit == "1":
            result = result * x
            count += 1
    return result, count


def mat_pow_counted(m: Mat2, n: int) -> tuple[Mat2, int]:
    """Square-and-multiply power for n >= 0, returning the matrix product count."""
    if n < 0:
        raise ValueError("mat_pow_counted requires n >= 0; invert first for negative powers")
    return _power(m, n, Mat2.identity())


def mat_pow(m: Mat2, n: int) -> Mat2:
    return mat_pow_counted(m, n)[0]

"""Bi-periodic Fibonacci and Lucas sequences by plain recurrence.

The two sequences alternate their recurrence coefficient with the parity
of the index, and the coefficient roles are swapped between them:

    fibonacci: t(n) = a*t(n-1) + t(n-2)  for even n,   b*...  for odd n,
               seeds t(0) = 0, t(1) = 1
    lucas:     t(n) = b*t(n-1) + t(n-2)  for even n,   a*...  for odd n,
               seeds t(0) = 2, t(1) = a

Negative indices are defined by running the same recurrence backward:
t(n-2) = t(n) - c(n)*t(n-1), where c(n) is the coefficient the forward
rule assigns at index n. This is the unique extension consistent with the
recurrence, and it is a sign reflection of the positive terms:

    fibonacci: t(-n) = (-1)^(n+1) * t(n)      lucas: t(-n) = (-1)^n * t(n)

Proof: c depends only on the parity of its index, so c(2-n) = c(n) and
the backward rule at index 2-n reads t(-n) = t(2-n) - c(n)*t(1-n). Let
u(n) be the right-hand side above. Its sign alternates with n, so the
forward rule t(n) = c(n)*t(n-1) + t(n-2) times the sign of u(n) is
u(n) = u(n-2) - c(n)*u(n-1): the same rule, and with the same seeds,
u(0) = t(0) and u(1) = t(-1) (fibonacci: 1 = 1 - b*0; lucas:
-a = a - a*2). So u(n) = t(-n) for every n >= 0.

``term_recurrence`` is the designated oracle of the whole package. It is
deliberately a plain Theta(|n|) loop, steps backward for negative n and
must never be optimized; every fast path elsewhere is tested against it
for exact equality.

The fast path walks integers, forward only, in the shape of
``_term_shape``. With ab = r/s in lowest terms (Edson & Yayenie,
*Integers* 9, 2009; Bilgici, *Appl. Math. Comput.* 245, 2014),

    fibonacci: q(0) = 0, q(2j+1) = G_j/s^j,   q(2j+2) = a*F_j/s^j,
    lucas:     l(2j) = V_j/s^j,               l(2j+1) = a*H_j/s^j,

where each pair (X, Y) = (G, F) or (V, H) steps by the same rule

    X_(j+1) = r*Y_j + s*X_j,   Y_(j+1) = X_(j+1) + s*Y_j,

from G_0 = F_0 = 1 and V_0 = 2, H_0 = 1. Proof, by induction on j: the
seeds give q(1) = 1, q(2) = a, l(0) = 2 and l(1) = a, and since b*a = r/s,
q(2j+3) = b*q(2j+2) + q(2j+1) = (r*F_j + s*G_j)/s^(j+1) and
q(2j+4) = a*q(2j+3) + q(2j+2) = a*(G_(j+1) + s*F_j)/s^(j+1); likewise
l(2j+2) = b*l(2j+1) + l(2j) = (r*H_j + s*V_j)/s^(j+1) and
l(2j+3) = a*l(2j+2) + l(2j+1) = a*(V_(j+1) + s*H_j)/s^(j+1). Modulo s,
X_(j+1) and Y_(j+1) are both r*Y_j, and Y_0 = 1, so Y_j and X_(j+1) are
r^j and r^(j+1) modulo s and prime to it (X_0 sits over s^0 = 1): each
term comes out as a^eps * N/s^k with gcd(N, s) = 1, the (eps, k) of
``_term_shape``. ``_forward`` is this one walk; it yields (eps, N, s^k)
per index, carries s^k along and takes no gcd. Every negative index is
read from its positive terms by ``_reflected``, the one reader of the
sign rule, so the fast path never steps backward.
``term_pairs`` walks once to the far end of an index range, keeps only
the terms at the |n| of the range and finishes each as an integer pair
(num, den) with the lemma ``exact._product_pair``: gcds against a's
numerator and denominator only. The CLI formats its pairs straight to
cells. ``TermTable`` is a view of it, one ``Fraction`` per lookup, that
keeps nothing; no module of the package reads it. The identity catalog
builds its values from the same triples, unreduced, and reads its
negative indices through ``_reflected`` too (see ``identities``).

``_coefficient`` and ``_seeds`` take the values a and b, not a
``SeqParams``, and hand them back untouched. ``_coefficient`` reads its
index only through ``parity``, so the catalog passes it an index column
whose indices share one parity (``identities._Index``).
"""
from __future__ import annotations

import enum
from fractions import Fraction
from itertools import islice
from operator import neg

from .exact import Rational, _Frozen, _lazy, _lowest_terms, _product_pair, _rational, _slots


class SequenceKind(enum.Enum):
    FIBONACCI = "fib"
    LUCAS = "lucas"


class SeqParams(_Frozen):
    """Validated nonzero parameter pair (a, b) with derived constants.

    ``ab``, ``ab_plus_4``, ``disc`` = ab*(ab+4) = (ab)^2 + 4ab, the
    radicand of the characteristic roots, ``a_over_b`` and ``det_g`` =
    (a/b)^2 * (ab+4), the determinant of the generating matrix, are
    computed on first read, once per instance (``exact._lazy``): a
    ``table`` request reads ``ab`` only. So are the constants of the
    O(log n) engines: the matrix kernel's, its finisher's and Binet's,
    each derived in the engine's own module and read on every call there.
    Equality, hashing and repr use (a, b) only.
    """

    _fields = ("a", "b")

    def __init__(self, a, b):
        a, b = _rational(a), _rational(b)
        if a == 0 or b == 0:
            raise ValueError("sequence parameters a and b must both be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @_lazy
    def ab(self) -> Rational:
        return self.a * self.b

    @_lazy
    def ab_plus_4(self) -> Rational:
        return self.ab + 4

    @_lazy
    def disc(self) -> Rational:
        return self.ab * self.ab_plus_4

    @_lazy
    def a_over_b(self) -> Rational:
        return self.a / self.b

    @_lazy
    def det_g(self) -> Rational:
        return self.a_over_b * self.a_over_b * self.ab_plus_4

    # The O(log n) engines' constants, derived by the engine that reads them,
    # on its first call at this point; importing this module loads no engine.

    @_lazy
    def _kernel_constants(self) -> tuple:
        from . import genmatrix
        return genmatrix._kernel_constants(self)

    @_lazy
    def _scale_constants(self) -> tuple:
        from . import genmatrix
        return genmatrix._scale_constants(self)

    @_lazy
    def _binet_constants(self) -> tuple:
        from . import binet
        return binet._binet_constants(self)


def parity(n: int) -> int:
    """The {0,1} parity of n, negative indices included: n & 1 is n mod 2 for every int.

    An index column of the catalog (``identities._Index``) answers ``& 1``
    with the parity its indices share, and raises TypeError if they differ.
    """
    return n & 1


def _coefficient(a, b, kind: SequenceKind, n: int):
    """c(n), the coefficient of t(n-1) in t(n): the value a or b, of any type, as given.

    The one home of the alternation: fibonacci uses a at even indices, lucas
    uses b there.
    """
    if kind is SequenceKind.FIBONACCI:
        return a if parity(n) == 0 else b
    return b if parity(n) == 0 else a


def _seeds(a, kind: SequenceKind) -> tuple:
    """(t(0), t(1)): Fractions 0 and 1 for fibonacci; 2 and the value a, as given, for lucas."""
    if kind is SequenceKind.FIBONACCI:
        return Fraction(0), Fraction(1)
    return Fraction(2), a


def term_recurrence(p: SeqParams, kind: SequenceKind, n: int) -> Rational:
    """The n-th sequence term by direct recurrence. Theta(|n|); the oracle."""
    t0, t1 = _seeds(p.a, kind)
    if n == 0:
        return t0
    if n == 1:
        return t1
    if n > 1:
        prev, cur = t0, t1
        for i in range(2, n + 1):
            prev, cur = cur, _coefficient(p.a, p.b, kind, i) * cur + prev
        return cur
    # backward: t(i-2) = t(i) - c(i)*t(i-1)
    above, cur = t1, t0
    for i in range(0, n, -1):
        above, cur = cur, above - _coefficient(p.a, p.b, kind, i + 1) * cur
    return cur


def _forward(p: SeqParams, kind: SequenceKind):
    """(eps, N, s^k) for n = 0, 1, 2, ... without end, so that t(n) = a^eps * N/s^k.

    Integers only, no gcd; (eps, k) is ``_term_shape(kind, n)`` and N is
    prime to s. Each term is stepped only when asked for. See the module
    docstring for the walk and its proof.
    """
    r, s = p.ab.numerator, p.ab.denominator
    if kind is SequenceKind.FIBONACCI:
        yield 1, 0, 1  # q(0) = a*0/1
        x, y = 1, 1  # G_0, F_0
    else:
        x, y = 2, 1  # V_0, H_0
    power = 1  # s^j
    while True:
        yield 0, x, power
        yield 1, y, power
        x = r * y + s * x
        y = x + s * y
        power *= s


#: The sign rule t(-k) = (-1)^(k+1) * t(k) for fibonacci, (-1)^k * t(k) for
#: lucas, as data: the parity of the k >= 0 at which t(-k) = -t(k).
#: ``_reflected`` is its one reader.
_NEGATED_PARITY = {SequenceKind.FIBONACCI: 0, SequenceKind.LUCAS: 1}


def _term_shape(kind: SequenceKind, n: int) -> tuple[int, int]:
    """(eps, k) with t(n) = a^eps * N/s^k for an integer N prime to s, where ab = r/s in lowest terms.

    The walk in the module docstring proves this shape for n >= 0, with
    q(0) = 0 = a*0/1 and l(0) = 2 = 2/1. The sign reflection
    t(-n) = +-t(n) keeps it, which covers n < 0.
    """
    if kind is SequenceKind.FIBONACCI:
        return 1 - parity(n), max(abs(n) - 1, 0) // 2
    return parity(n), abs(n) // 2


def _checked_triple(
    p: SeqParams, kind: SequenceKind, n: int, num: int, x: int, c: int
) -> tuple[int, int, int]:
    """(eps, N, k) with t(n) = a^eps * N/s^k = a^eps * num/(c * s^x).

    Here ab = r/s in lowest terms. Both O(log n) engines hand each term
    over as num/(c * s^x). With (eps, k) from ``_term_shape``, that shape
    makes c * s^(x-k) divide num exactly; a remainder means an engine broke
    that shape and raises AssertionError (raised, not asserted, so
    ``python -O`` keeps the check). N is prime to s. The exponent k comes
    back, not the power s^k, so a caller that only checks builds no big
    power.
    """
    eps, k = _term_shape(kind, n)
    divisor = c * p.ab.denominator ** (x - k)
    quotient, remainder = divmod(num, divisor)
    if remainder:
        raise AssertionError(f"{kind.value}({n}): engine numerator is not a multiple of {divisor}")
    return eps, quotient, k


def _finished_term(p: SeqParams, kind: SequenceKind, n: int, num: int, x: int, c: int) -> Rational:
    """t(n) = a^eps * num/(c * s^x) in lowest terms, where ab = r/s in lowest terms.

    ``_checked_triple`` divides out the spare factors, checked, and
    ``exact._lowest_terms`` finishes the term with gcds against a's
    numerator and denominator only.
    """
    eps, quotient, k = _checked_triple(p, kind, n, num, x, c)
    return _lowest_terms(p.a, eps, quotient, p.ab.denominator**k)


def _reflected(kind: SequenceKind, terms: list, lo: int, hi: int, base: int = 0, negate=neg) -> list:
    """t(lo..hi) as a new list, from ``terms[k - base]`` = t(k) for every k = |n|, n in lo..hi.

    The one reader of the sign rule: the negative part t(lo..min(hi, -1))
    is the slice t(-min(hi, -1)..-lo) reversed, and ``negate`` turns every
    other element of it, those at the k of ``_NEGATED_PARITY``, in one
    slice assignment. A window across 0 needs base = 0.
    """
    if lo >= 0:
        return terms[lo - base:hi + 1 - base]
    below = terms[-min(hi, -1) - base:1 - lo - base][::-1]  # t(-lo) .. t(-min(hi, -1))
    first = (lo + _NEGATED_PARITY[kind]) & 1  # the first position i at which -lo - i has that parity
    below[first::2] = map(negate, below[first::2])
    return below + terms[:hi + 1] if hi >= 0 else below


def term_pairs(p: SeqParams, kind: SequenceKind, lo: int, hi: int) -> list[tuple[int, int]]:
    """t(lo), ..., t(hi) as pairs (num, den) in lowest terms, den > 0, from one forward walk.

    The walk runs to max(|lo|, |hi|) and keeps the terms at the |n| of the
    range only, from the least one, ``base``, on; ``_reflected`` reads the
    range from them. So a far range costs its walk but no memory beyond its
    own width.
    """
    if lo > hi:
        raise ValueError(f"empty index range {lo}..{hi}")
    base, a = max(lo, -hi, 0), p.a
    kept = [_product_pair(a.numerator, a.denominator, num, den) if eps else (num, den)
            for eps, num, den in islice(_forward(p, kind), base, max(-lo, hi) + 1)]
    return _reflected(kind, kept, lo, hi, base, lambda t: (-t[0], t[1]))


class TermTable:
    """Both sequences for one parameter pair as ``Fraction``s: a view of ``term_pairs``.

    A lookup walks to |n| and keeps nothing, so any access order yields the
    same values.
    """

    def __init__(self, params: SeqParams):
        self.params = params

    def term(self, kind: SequenceKind, n: int) -> Rational:
        return _slots(*term_pairs(self.params, kind, n, n)[0])

    def fib(self, n: int) -> Rational:
        return self.term(SequenceKind.FIBONACCI, n)

    def lucas(self, n: int) -> Rational:
        return self.term(SequenceKind.LUCAS, n)


PRESET_CLASSICAL = "classical-fibonacci-lucas"
PRESET_K_LUCAS = "k-lucas"


def preset(name: str, k: Rational | None = None) -> SeqParams:
    """Named parameter choices: the classical pair a=b=1, and a=b=k."""
    if name == PRESET_CLASSICAL:
        return SeqParams(Fraction(1), Fraction(1))
    if name == PRESET_K_LUCAS:
        if k is None or _rational(k) == 0:
            raise ValueError("k-lucas preset requires a nonzero k")
        return SeqParams(k, k)
    raise ValueError(f"unknown preset {name!r}")

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

The fast path walks integers, forward only. With D = lcm(den a, den b),
D*a and D*b are integers, and the scaled terms T(k) = D^k * t(k) obey

    T(k) = (D*c(k)) * T(k-1) + D^2 * T(k-2),
    fibonacci T(0) = 0, T(1) = D;   lucas T(0) = 2, T(1) = D*a.

Proof: multiply t(k) = c(k)*t(k-1) + t(k-2) by D^k and write
D^k = D * D^(k-1) = D^2 * D^(k-2). The seeds are integers and so are both
coefficients, so every T(k) is an integer by induction. ``_forward`` is
this one walk; it yields the unreduced pair (T(k), D^k) and takes no gcd.
``_reflect`` reads every negative index from it, so the fast path never
steps backward. ``TermTable`` and ``terms`` build each ``Fraction`` term
from one pair, one normalization per term; ``TermTable`` keeps each term of
one parameter pair once and reads it in O(1), and ``terms`` walks once to
the far end of an index range and keeps only the terms inside it. The
identity catalog reads the pairs themselves (see ``identities``).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice
from math import lcm

from .exact import Rational, _lowest_terms, _rational


class SequenceKind(enum.Enum):
    FIBONACCI = "fib"
    LUCAS = "lucas"


@dataclass(frozen=True)
class SeqParams:
    """Validated nonzero parameter pair (a, b) with derived constants.

    ``ab``, ``ab_plus_4`` and ``disc`` = ab*(ab+4) = (ab)^2 + 4ab, the
    radicand of the characteristic roots, are computed once per instance.
    Equality, hashing and repr use (a, b) only.
    """

    a: Rational
    b: Rational
    ab: Rational = field(init=False, repr=False, compare=False)
    ab_plus_4: Rational = field(init=False, repr=False, compare=False)
    disc: Rational = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = _rational(self.a), _rational(self.b)
        if a == 0 or b == 0:
            raise ValueError("sequence parameters a and b must both be nonzero")
        ab = a * b
        derived = {"a": a, "b": b, "ab": ab, "ab_plus_4": ab + 4, "disc": ab * (ab + 4)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def parity(n: int) -> int:
    """n - 2*floor(n/2): the {0,1} parity of n, negative indices included."""
    return n - 2 * (n // 2)


def _coefficient(p: SeqParams, kind: SequenceKind, n: int) -> Rational:
    # fibonacci uses a at even indices; lucas uses b there.
    if kind is SequenceKind.FIBONACCI:
        return p.a if parity(n) == 0 else p.b
    return p.b if parity(n) == 0 else p.a


def _seeds(p: SeqParams, kind: SequenceKind) -> tuple[Rational, Rational]:
    if kind is SequenceKind.FIBONACCI:
        return Fraction(0), Fraction(1)
    return Fraction(2), p.a


def term_recurrence(p: SeqParams, kind: SequenceKind, n: int) -> Rational:
    """The n-th sequence term by direct recurrence. Theta(|n|); the oracle."""
    t0, t1 = _seeds(p, kind)
    if n == 0:
        return t0
    if n == 1:
        return t1
    if n > 1:
        prev, cur = t0, t1
        for i in range(2, n + 1):
            prev, cur = cur, _coefficient(p, kind, i) * cur + prev
        return cur
    # backward: t(i-2) = t(i) - c(i)*t(i-1)
    above, cur = t1, t0
    for i in range(0, n, -1):
        above, cur = cur, above - _coefficient(p, kind, i + 1) * cur
    return cur


def _forward(p: SeqParams, kind: SequenceKind):
    """(T(k), D^k) for k = 0, 1, 2, ... without end, so that t(k) = T(k)/D^k.

    Integers only, no gcd; each pair is stepped only when asked for. See the
    module docstring for D and the scaled recurrence.
    """
    d = lcm(p.a.denominator, p.b.denominator)
    scaled = [(d * _coefficient(p, kind, k)).numerator for k in (0, 1)]  # D*c(k) by parity
    t0, t1 = _seeds(p, kind)
    prev, cur, d2, power = t0.numerator, (d * t1).numerator, d * d, d
    yield prev, 1
    for i in count(2):
        yield cur, power
        prev, cur = cur, scaled[i & 1] * cur + d2 * prev
        power *= d


def _reflect(kind: SequenceKind, k: int, t: Rational) -> Rational:
    """t(-k) from t = t(k): the sign is (-1)^(k+1) for fibonacci, (-1)^k for lucas."""
    sign_exponent = k + 1 if kind is SequenceKind.FIBONACCI else k
    return -t if parity(sign_exponent) == 1 else t


def _term_shape(kind: SequenceKind, n: int) -> tuple[int, int]:
    """(eps, k) with t(n) = a^eps * N/s^k for an integer N prime to s, where ab = r/s in lowest terms.

    Lemma: for j >= 0, with x = ab,

        q(2j+1) = g(x),  q(2j+2) = a*f(x),  l(2j+1) = a*h(x),  l(2j+2) = v(x)

    for monic integer polynomials g, f, h, v of degree j, j, j, j+1. By
    induction from q(1) = 1, q(2) = a, l(1) = a, l(2) = x + 2: where the
    coefficient is b it multiplies a term that carries a, so
    q(2j+3) = x*f(x) + g(x) and l(2j+2) = x*h(x) + l(2j); where it is a
    it adds a term that carries a, so q(2j+4) = a*(q(2j+3) + f(x)) and
    l(2j+3) = a*(l(2j+2) + h(x)). A
    monic F of degree k gives F(r/s) = N/s^k with N = r^k (mod s), so
    gcd(N, s) = gcd(r^k, s) = 1. The sign reflection t(-n) = +-t(n) keeps
    the shape, which covers n < 0; q(0) = 0 = 0/1 and l(0) = 2 = 2/1.
    """
    if kind is SequenceKind.FIBONACCI:
        return 1 - parity(n), max(abs(n) - 1, 0) // 2
    return parity(n), abs(n) // 2


def _finished_term(p: SeqParams, kind: SequenceKind, n: int, num: int, x: int, c: int) -> Rational:
    """t(n) = a^eps * num/(c * s^x) in lowest terms, where ab = r/s in lowest terms.

    Both O(log n) engines hand each term over in this form. With (eps, k)
    from ``_term_shape``, the lemma there makes c * s^(x-k) divide num
    exactly; a remainder means an engine broke that lemma and raises
    AssertionError (raised, not asserted, so ``python -O`` keeps the check).
    ``exact._lowest_terms`` then finishes the term with gcds against a's
    numerator and denominator only.
    """
    eps, k = _term_shape(kind, n)
    s = p.ab.denominator
    divisor = c * s ** (x - k)
    quotient, remainder = divmod(num, divisor)
    if remainder:
        raise AssertionError(f"{kind.value}({n}): engine numerator is not a multiple of {divisor}")
    return _lowest_terms(p.a, eps, quotient, s**k)


def terms(p: SeqParams, kind: SequenceKind, lo: int, hi: int) -> list[Rational]:
    """t(lo), ..., t(hi) from one forward walk to max(|lo|, |hi|).

    Only the terms inside the range are kept, so a far range costs its
    walk but no memory beyond its own width.
    """
    if lo > hi:
        raise ValueError(f"empty index range {lo}..{hi}")
    below, above = [], []  # t(min(hi, -1)) down to t(lo); t(max(lo, 0)) up to t(hi)
    for k, (num, den) in enumerate(islice(_forward(p, kind), max(-lo, hi) + 1)):
        inside, mirrored = lo <= k <= hi, k and lo <= -k <= hi
        if inside or mirrored:
            t = Fraction(num, den)
            if inside:
                above.append(t)
            if mirrored:
                below.append(_reflect(kind, k, t))
    return below[::-1] + above


class _Walk(dict):
    """n -> value(T(|n|), D^|n|) for one sequence, signed by ``_reflect`` when n < 0.

    A missing index extends the one ``_forward`` walk to |n| and stores both
    signs of every index it passes, so a stored index is a plain dict read:
    ``walk.__getitem__`` runs no Python frame. ``value`` builds each stored
    value from its unreduced pair, once per index walked.
    """

    def __init__(self, p: SeqParams, kind: SequenceKind, value):
        super().__init__()
        self._kind, self._value = kind, value
        self._pairs = _forward(p, kind)
        self._next = 0  # the first index not walked yet

    def __missing__(self, n: int):
        kind, value = self._kind, self._value
        for k in range(self._next, abs(n) + 1):
            t = value(*next(self._pairs))
            self[-k] = _reflect(kind, k, t)
            self[k] = t
        self._next = abs(n) + 1
        return self[n]


class TermTable:
    """Both sequences for one parameter pair as ``Fraction``s, each term computed once.

    A lookup reads one ``_Walk`` per kind, which normalizes each term once
    and keeps both signs of its index. Later lookups are O(1) and any
    access order yields the same values.
    """

    def __init__(self, params: SeqParams):
        self.params = params
        self._terms = {kind: _Walk(params, kind, Fraction) for kind in SequenceKind}

    def term(self, kind: SequenceKind, n: int) -> Rational:
        return self._terms[kind][n]

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

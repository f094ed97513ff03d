"""Bi-periodic Fibonacci and Lucas sequences by plain recurrence.

The two sequences alternate their recurrence coefficient with the parity
of the index, and the coefficient roles are swapped between them:

    fibonacci: t(n) = a*t(n-1) + t(n-2)  for even n,   b*...  for odd n,
               seeds t(0) = 0, t(1) = 1
    lucas:     t(n) = b*t(n-1) + t(n-2)  for even n,   a*...  for odd n,
               seeds t(0) = 2, t(1) = a

Negative indices are defined by running the same recurrence backward:
t(n-2) = t(n) - c*t(n-1), where c is the coefficient the forward rule
assigns at index n. This is the unique extension consistent with the
recurrence.

``term_recurrence`` is the designated oracle of the whole package. It is
deliberately a plain Theta(|n|) loop and must never be optimized; every
fast path elsewhere is tested against it for exact equality. ``TermTable``
is the fast walker: the same rule (``_coefficient``, ``_seeds``), each term
computed once per parameter pair and then read in O(1).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exact import Rational


class SequenceKind(enum.Enum):
    FIBONACCI = "fib"
    LUCAS = "lucas"


@dataclass(frozen=True)
class SeqParams:
    """Validated nonzero parameter pair (a, b) with derived constants."""

    a: Rational
    b: Rational

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("sequence parameters a and b must both be nonzero")

    @property
    def ab(self) -> Rational:
        return self.a * self.b

    @property
    def ab_plus_4(self) -> Rational:
        return self.a * self.b + 4

    @property
    def disc(self) -> Rational:
        """ab*(ab+4) = (ab)^2 + 4ab, the radicand of the characteristic roots."""
        return self.ab * self.ab_plus_4


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


class TermTable:
    """Both sequences for one parameter pair, each term computed once.

    A lookup extends a forward list t(0), t(1), ... or a backward list
    t(1), t(0), t(-1), ... by the steps of ``_coefficient``; later lookups
    are O(1) and any access order yields the same values.
    """

    def __init__(self, params: SeqParams):
        self.params = params
        seeds = {kind: _seeds(params, kind) for kind in SequenceKind}
        self._fwd = {kind: [t0, t1] for kind, (t0, t1) in seeds.items()}
        self._bwd = {kind: [t1, t0] for kind, (t0, t1) in seeds.items()}

    def term(self, kind: SequenceKind, n: int) -> Rational:
        p = self.params
        if n >= 0:
            fwd = self._fwd[kind]
            while len(fwd) <= n:
                i = len(fwd)
                fwd.append(_coefficient(p, kind, i) * fwd[i - 1] + fwd[i - 2])
            return fwd[n]
        bwd = self._bwd[kind]  # bwd[k] = t(1 - k)
        while len(bwd) <= 1 - n:
            # t(i) = t(i+2) - c(i+2)*t(i+1) for the next index i = 1 - len(bwd)
            bwd.append(bwd[-2] - _coefficient(p, kind, 3 - len(bwd)) * bwd[-1])
        return bwd[1 - n]

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
        if k is None or Fraction(k) == 0:
            raise ValueError("k-lucas preset requires a nonzero k")
        return SeqParams(Fraction(k), Fraction(k))
    raise ValueError(f"unknown preset {name!r}")

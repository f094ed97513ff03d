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
for exact equality. The fast path never steps backward: ``_forward`` is
its one walk, and ``_reflect`` reads every negative index from it.
``TermTable`` keeps each term of one parameter pair once and reads it in
O(1); ``terms`` walks once to the far end of an index range and keeps only
the terms inside it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .exact import Rational, _rational


class SequenceKind(enum.Enum):
    FIBONACCI = "fib"
    LUCAS = "lucas"


@dataclass(frozen=True)
class SeqParams:
    """Validated nonzero parameter pair (a, b) with derived constants."""

    a: Rational
    b: Rational

    def __post_init__(self):
        object.__setattr__(self, "a", _rational(self.a))
        object.__setattr__(self, "b", _rational(self.b))
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


def _forward(p: SeqParams, kind: SequenceKind):
    """t(0), t(1), t(2), ... without end; each term is stepped only when asked for."""
    prev, cur = _seeds(p, kind)
    yield prev
    for i in count(2):
        yield cur
        prev, cur = cur, _coefficient(p, kind, i) * cur + prev


def _reflect(kind: SequenceKind, k: int, t: Rational) -> Rational:
    """t(-k) from t = t(k): the sign is (-1)^(k+1) for fibonacci, (-1)^k for lucas."""
    sign_exponent = k + 1 if kind is SequenceKind.FIBONACCI else k
    return -t if parity(sign_exponent) == 1 else t


def terms(p: SeqParams, kind: SequenceKind, lo: int, hi: int) -> list[Rational]:
    """t(lo), ..., t(hi) from one forward walk to max(|lo|, |hi|).

    Only the terms inside the range are kept, so a far range costs its
    walk but no memory beyond its own width.
    """
    if lo > hi:
        raise ValueError(f"empty index range {lo}..{hi}")
    below, above = [], []  # t(min(hi, -1)) down to t(lo); t(max(lo, 0)) up to t(hi)
    for k, t in enumerate(islice(_forward(p, kind), max(-lo, hi) + 1)):
        if lo <= k <= hi:
            above.append(t)
        if k and lo <= -k <= hi:
            below.append(_reflect(kind, k, t))
    return below[::-1] + above


class TermTable:
    """Both sequences for one parameter pair, each term computed once.

    A lookup extends one forward list t(0), t(1), ... per kind from
    ``_forward``; a negative index reads its reflection, kept once
    computed. Later lookups are O(1) and any access order yields the same
    values.
    """

    def __init__(self, params: SeqParams):
        self.params = params
        self._walks = {kind: _forward(params, kind) for kind in SequenceKind}
        self._fwd = {kind: [] for kind in SequenceKind}
        self._reflected = {kind: [] for kind in SequenceKind}  # [k] = t(-k)

    def term(self, kind: SequenceKind, n: int) -> Rational:
        if n >= 0:
            fwd = self._fwd[kind]
            if len(fwd) <= n:
                fwd.extend(islice(self._walks[kind], n + 1 - len(fwd)))
            return fwd[n]
        reflected = self._reflected[kind]
        if len(reflected) <= -n:
            self.term(kind, -n)
            fwd = self._fwd[kind]
            reflected.extend(_reflect(kind, k, fwd[k]) for k in range(len(reflected), 1 - n))
        return reflected[-n]

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

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
lowest terms (s > 0), N = K/s for the integer matrix K = [[r+2s, s], [r, 2s]],
and K is powered through its square, half as many times:

    K^2 = (r+4s) * M,  M = [[r+s, s], [r, s]],  trace M = r+2s,  det M = s^2

Proof: K^2 = [[(r+2s)^2 + rs, s(r+2s) + 2s^2], [r(r+2s) + 2rs, rs + 4s^2]],
and each entry is r+4s times the entry of M. For negative powers
adj(M) = [[s, -s], [-r, r+s]] stands in for M, as M*adj(M) = s^2 * I.

Core formula. Write m = 2j + e with j = floor(m/2) and e in {0, 1}, let
B = M for j >= 0 and B = adj(M) for j < 0, and P = B^|j| * K^e. Then the
core of G^m is

    core = S * P * S^-1 / s^(|j|+e) = [[P11, a*P12], [P21/a, P22]] / s^(|j|+e)

Proof: the core is G^m over the prefactor, S * N^m * S^-1 / (ab+4)^j, and
ab+4 = (r+4s)/s. For j >= 0, N^(2j) = (K^2/s^2)^j = (r+4s)^j * M^j / s^(2j),
so N^m/(ab+4)^j = M^j * K^e / s^(j+e). For j < 0, M^-1 = adj(M)/s^2 turns
N^(2j) = ((r+4s) * M/s^2)^j into (r+4s)^j * adj(M)^|j|, so
N^m/(ab+4)^j = adj(M)^|j| * K^e / s^(|j|+e). Each case divides by a power
of r+4s, so this proves the formula off the curve ab = -4 only; it holds
on the curve too, for every m. The core holds terms, polynomials in a and b
(for m < 0 by the sign reflection), and M/s, adj(M)/s and K/s have entries
polynomial in ab, so both sides are polynomials in a, 1/a and b that agree
off the curve, hence on it. The kernel never forms the factor (r+4s)^j and
tests no predicate of the curve; the prefactor puts the factor back where
G^m needs it.

Cayley-Hamilton ladder. M and adj(M) = t*I - M share the trace t = r+2s
and the determinant q = s^2, so each B in {M, adj(M)} satisfies

    B^2 = t*B - q*I

Proof: a 2x2 matrix B satisfies B^2 - trace(B)*B + det(B)*I = 0 (multiply
out), trace(tI - M) = 2t - t = t, and a 2x2 adjugate keeps the
determinant. So every integer polynomial in B is u*B - w*I for two
integers (u, w), and

    (u1*B - w1*I)(u2*B - w2*I) = (t*u1*u2 - u1*w2 - w1*u2)*B - (q*u1*u2 - w1*w2)*I
    (u*B - w*I)^2              = (t*u^2 - 2*u*w)*B - (q*u^2 - w^2)*I

by B^2 = t*B - q*I. B is (1, 0), I is (0, -1), and B^h = U_h*B - q*U_(h-1)*I
for the Lucas sequence U of (t, q). Neither formula reads B itself, only t
and q, so one ``_Ladder`` powers M for j >= 0 and adj(M) for j < 0. As
q = s^2 is a square, the square factors:

    t*u^2 - 2*u*w = u*(t*u - 2*w),   q*u^2 - w^2 = (s*u - w)*(s*u + w)

so a square takes 2 big products, and the ladder carries s in place of q;
t and s have the size of r and s. K lies on the ladder too:
K = M + s*I = (r+3s)*I - adj(M) entry by entry, which is (1, -s) for
B = M and (-1, -(r+3s)) for B = adj(M). So
P = B^|j| * K^e is u*B - w*I after at most one more ladder product, and
the entries u*B11 - w, u*B12, u*B22 - w that the core reads are each a
big-by-small product. P21 = u*B21 is never formed: B21 = (r/s)*B12 for
both B, so P21/a = b*P12 and the (2,1) entry is (b/a)*t(m).

Lowest terms. Every term is a^eps * N/s^k with gcd(N, s) = 1, so an
entry of P carries at most two spare factors of s (|j|+e-k is 0, 1 or 2).
``term_fast`` reads t(n) = a^eps * entry/s^(|j|+e) from one entry of P,
and the core of G^m reads t(m+1), t(m) and t(m-1) from P11, a*P12 and P22.
``sequences._checked_triple`` divides the spare factors out of each entry,
checked, and ``exact._lowest_terms`` reduces against a's numerator and
denominator only. The (2,1) entry b*N/s^k shares the checked N of
t(m) = a*N/s^k and is reduced against b's numerator and denominator the
same way. ``matrix_power`` runs the same three checks, then finishes G^n
from the entries of P themselves. A check hands back k, not s^k, so only
the term finishers build the large powers s^k.

Prefactor. Let Q = det(G) = (a/b)^2 (ab+4) in lowest terms
(``SeqParams.det_g``); ``det_power`` is Q^n. For n = 2j + e the prefactor
is (a/b)^n (ab+4)^j = (a/b)^e * Q^j, and the core of G^n is c*Z/s^x with
x = |j|+e, c = (1, a, b, 1) and Z = (P11, P12, P12, P22) row-major. Let
R = Q/s for j >= 0 and R = 1/(Q*s) for j < 0, so that Q^j = (s*R)^|j| in
both cases. Then, entry by entry,

    G^n = c * (a/(b*s))^e * Z * R^|j|

since (a/b)^e * Q^j / s^x = (a/b)^e * s^|j| * R^|j| / s^(|j|+e). The
finisher takes this product without ``Fraction`` arithmetic, in two steps
of the lemma of ``exact._product_pair``: gcd(X*x, Y*y) = gcd(x, Y) *
gcd(X, y) for X/Y and x/y in lowest terms. First Z * R^|j|, with
R = rn/rd in lowest terms: gcd(Z * rn^|j|, rd^|j|) = gcd(Z, rd^|j|), taken
one rd at a time, since gcd(Z, rd^h) = g * gcd(Z/g, rd^(h-1)) for
g = gcd(Z, rd), until g = 1. Then the small factor c * (a/(b*s))^e, with
gcds against its own numerator and denominator only. So every gcd pairs a
big operand with a small one. The loop's rounds are bounded by how often
Z divides by rd's primes, not by |j|: of the primes of s, Z = N * s^(x-k)
holds at most the two spare factors, as N is prime to s. The large powers
of s never meet a gcd. They sit in s^x and R^|j|, and the formula sets
their exponents against each other.
That matters where a/b shares a prime with s: at (a, b) = (2, 1/4),
a/b = 8, s = 2 and every core denominator is a power of 2.
``ClosedForm.materialize`` reads each entry v of its core back as the
integer Z = v * s^x/c, checked, and finishes it the same way; so does the
catalog's matrix-form check, which hands ``_from_core`` its core, read
from the walk, as (numerator, denominator) pairs.

Degenerate line ab + 4 = 0: Q = det(G) = 0, so G has no inverse and
G^n = 0 for n >= 2 (trace and determinant both vanish). There R = Q/s = 0,
so the finisher gives the zero matrix for n >= 2 (j >= 1) and the core
times (a/b)^e for n in {0, 1}. The kernel and the finisher test no
predicate of the line; it is decided once, where n comes in from a caller.
``matrix_power``, ``_from_core`` (so ``ClosedForm.materialize``) and
``det_power`` first call ``_refuse_negative_power``, which raises
SingularMatrixError for n < 0 on the line. ``power_closed_form`` (n >= 1)
and ``term_fast`` (every n) serve the line: they read only the kernel's
entries, which are the terms there too (core formula).
"""
from __future__ import annotations

from math import gcd
from typing import Literal, NamedTuple

from .exact import Mat2, Rational, SingularMatrixError, _lowest_terms, _power, _product_pair, _slots
from .sequences import SeqParams, SequenceKind, _checked_triple, _finished_term, parity


def generating_matrix(p: SeqParams) -> Mat2:
    a, b = p.a, p.b
    return Mat2(a * a + 2 * a / b, a * a / b, a, 2 * a / b)


class _Ladder:
    """u*B - w*I for an integer 2x2 matrix B with B^2 = t*B - s^2*I.

    ``x * x`` takes the square path: 2 big products (module docstring,
    Cayley-Hamilton ladder).
    """

    __slots__ = ("u", "w", "t", "s")

    def __init__(self, u: int, w: int, t: int, s: int):
        self.u, self.w, self.t, self.s = u, w, t, s

    def __mul__(self, other: "_Ladder") -> "_Ladder":
        u, w, t, s = self.u, self.w, self.t, self.s
        if other is self:
            su = s * u
            return _Ladder(u * (t * u - 2 * w), (su - w) * (su + w), t, s)
        uu = u * other.u
        return _Ladder(t * uu - u * other.w - w * other.u, s * s * uu - w * other.w, t, s)


def _kernel(p: SeqParams, m: int) -> tuple[tuple[int, int, int], int, int]:
    """((P11, P12, P22), |j|+e, product count) with P = B^|j| * K^e, for m = 2j + e.

    The count covers the products of powers of B and, when j != 0, the
    product by K. The core of G^m is S*P*S^-1 / s^(|j|+e); P21 is not
    formed, as the core reads its (2,1) entry from P12 (module docstring).
    """
    r, s = p.ab.numerator, p.ab.denominator
    j, e = divmod(m, 2)
    if j >= 0:
        base, k = (r + s, s, s), (1, -s)
    else:
        base, k = (s, -s, r + s), (-1, -r - 3 * s)
    t = r + 2 * s
    x, count = _power(_Ladder(1, 0, t, s), abs(j), _Ladder(0, -1, t, s))
    if e:
        x = x * _Ladder(*k, t, s)
        count += j != 0  # at j = 0 the power is I, and P = K takes no product
    u, w = x.u, x.w
    b11, b12, b22 = base
    return (u * b11 - w, u * b12, u * b22 - w), abs(j) + e, count


def _checked_kernel(p: SeqParams, m: int):
    """_kernel's (P11, P12, P22), the term triples of t(m+1), t(m), t(m-1) and the product count.

    Each entry goes through ``sequences._checked_triple``, whose checked
    division yields the triple (eps, N, k) of the term a^eps * N/s^k it
    holds (module docstring, lowest terms).
    """
    (p11, p12, p22), x, count = _kernel(p, m)
    kind = _exposed_kind(m)
    triples = (
        _checked_triple(p, kind, m + 1, p11, x, 1),
        _checked_triple(p, kind, m, p12, x, 1),
        _checked_triple(p, kind, m - 1, p22, x, 1),
    )
    return (p11, p12, p22), triples, count


def _times_power(z: int, rd: int, big: int, rn_j: int, rd_j: int) -> tuple[int, int]:
    """z * (rn/rd)^big in lowest terms as (numerator, denominator), for rn_j = rn^big, rd_j = rd^big.

    rn/rd is in lowest terms, so gcd(z * rn_j, rd_j) = gcd(z, rd^big); it
    is taken one rd at a time, and every gcd pairs z with the small rd
    (module docstring, prefactor).
    """
    if not z:
        return 0, 1
    g = 1
    for _ in range(big):
        h = gcd(z, rd)
        if h == 1:
            break
        z //= h
        g *= h
    return z * rn_j, rd_j // g


def _scaled(p: SeqParams, n: int, zs) -> Mat2:
    """G^n from Z = (Z11, Z12, Z21, Z22), the core of G^n times s^(|j|+e)/(1, a, b, 1).

    G^n = c * (a/(b*s))^e * Z * R^|j| entry by entry, for n = 2j + e and
    c = (1, a, b, 1); ``exact._product_pair`` multiplies by the small factor
    c * (a/(b*s))^e (module docstring, prefactor).
    """
    j, e = divmod(n, 2)
    big, s = abs(j), p.ab.denominator
    qn, qd = p.det_g.numerator, p.det_g.denominator
    if j < 0:
        qn, qd = (qd, qn) if qn > 0 else (-qd, -qn)
    g = gcd(qn, s)
    rn, rd = qn // g, qd * (s // g)  # R = Q/s for j >= 0, 1/(Q*s) for j < 0
    rn_j, rd_j = rn**big, rd**big
    pa, qa = p.a.numerator, p.a.denominator
    if e:
        # u = a/(b*s), a*u and b*u = a/s, each in lowest terms
        alpha, beta = p.a_over_b.numerator, p.a_over_b.denominator
        g = gcd(alpha, s)
        un, ud = alpha // g, beta * (s // g)
        factors = ((un, ud), _product_pair(pa, qa, un, ud), _product_pair(pa, qa, 1, s), (un, ud))
    else:
        factors = ((1, 1), (pa, qa), (p.b.numerator, p.b.denominator), (1, 1))
    entries, last = [], None
    for (fn, fd), z in zip(factors, zs):
        if z != last:  # Z21 = Z12 in a core of G^n: one product by R^|j| serves both
            last = z
            num, den = _times_power(z, rd, big, rn_j, rd_j)
        entries.append(_slots(*_product_pair(fn, fd, num, den)))
    return Mat2(*entries)


def _refuse_negative_power(p: SeqParams, n: int) -> None:
    """The one refusal of G^n for n < 0 on the line ab + 4 = 0, where det(G) = 0."""
    if n < 0 and p.ab_plus_4 == 0:
        raise SingularMatrixError(
            "ab + 4 = 0: generating matrix is singular, negative powers do not exist"
        )


def matrix_power_counted(p: SeqParams, n: int) -> tuple[Mat2, int]:
    """G^n for any integer n, with the number of 2x2 products performed.

    G^n is finished from one kernel power, whose entries are checked
    against their terms' shapes, and the prefactor's small bases, with no
    ``Fraction`` arithmetic and no gcd of two big integers (module
    docstring, prefactor). Negative powers require ab + 4 != 0.
    """
    _refuse_negative_power(p, n)
    (p11, p12, p22), _, count = _checked_kernel(p, n)
    return _scaled(p, n, (p11, p12, p12, p22)), count


def matrix_power(p: SeqParams, n: int) -> Mat2:
    return matrix_power_counted(p, n)[0]


def det_power(p: SeqParams, n: int) -> Rational:
    """det(G^n) = Q^n for any integer n, Q = det(G) = (a^2/b^2)(ab+4), without touching the matrix.

    On the singular line ab + 4 = 0 the determinant is 0 for n >= 1 and 1
    at n = 0; negative powers do not exist there and raise
    SingularMatrixError. The powers of Q's numerator and denominator are
    in lowest terms already, and become the Fraction through ``_slots``.
    """
    _refuse_negative_power(p, n)
    qn, qd = p.det_g.numerator, p.det_g.denominator
    if n < 0:
        n, (qn, qd) = -n, ((qd, qn) if qn > 0 else (-qd, -qn))
    return _slots(qn**n, qd**n)


def _exposed_kind(n: int) -> SequenceKind:
    """The sequence the core of G^n holds: fibonacci at even n, lucas at odd n."""
    return SequenceKind.FIBONACCI if parity(n) == 0 else SequenceKind.LUCAS


class ClosedForm(NamedTuple):
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
        """(a/b)^n * (ab+4)^floor(n/2) = (a/b)^e * Q^j for n = 2j + e, Q = det(G)."""
        j, e = divmod(self.n, 2)
        return self.params.a_over_b**e * self.params.det_g**j

    def materialize(self) -> Mat2:
        """G^n from this core through ``matrix_power``'s finisher, without ``Fraction`` arithmetic.

        Each core entry is read back as the integer entry * s^(|j|+e)/c,
        c = (1, a, b, 1), checked; a core whose entries do not all give an
        integer raises AssertionError. n < 0 on the line ab + 4 = 0 raises
        SingularMatrixError, as in ``matrix_power``.
        """
        core = self.core
        entries = (core.e11, core.e12, core.e21, core.e22)
        return _from_core(self.params, self.n, [(v.numerator, v.denominator) for v in entries])


def _from_core(p: SeqParams, n: int, pairs) -> Mat2:
    """G^n from its core, each entry e11, e12, e21, e22 given as a pair (num, den), den != 0.

    A pair need not be in lowest terms, and den may be negative. Each entry
    is read back as the integer Z = (num/den) * s^(|j|+e)/c, c = (1, a, b,
    1), by one checked exact division; an entry that gives no integer
    raises AssertionError. ``_scaled`` finishes G^n from the four Z.
    ``ClosedForm.materialize`` and the catalog's matrix-form check, which
    reads its core from the walk, both finish here.
    """
    _refuse_negative_power(p, n)
    j, e = divmod(n, 2)
    x = abs(j) + e
    s_x = p.ab.denominator**x
    zs = []
    for (num, den), c in zip(pairs, (1, p.a, p.b, 1)):
        z, rest = divmod(num * s_x * c.denominator, den * c.numerator)
        if rest:
            raise AssertionError(f"a core entry is not {c} * Z / s^{x} for an integer Z")
        zs.append(z)
    return _scaled(p, n, zs)


def power_closed_form(p: SeqParams, n: int) -> ClosedForm:
    """The factored form of G^n (n >= 1).

    The core comes from one kernel power through the checked division of
    ``term_fast``, with no gcd on kernel-sized operands, at every parameter
    point, ab + 4 = 0 included.
    """
    if n < 1:
        raise ValueError("power_closed_form requires n >= 1")
    _, triples, _ = _checked_kernel(p, n)
    s = p.ab.denominator
    t11, t12, t22 = ((eps, num, s**k) for eps, num, k in triples)
    a, b = p.a, p.b
    core = Mat2(_lowest_terms(a, *t11), _lowest_terms(a, *t12), _lowest_terms(b, *t12), _lowest_terms(a, *t22))
    return ClosedForm(p, n, core)


def term_fast_counted(p: SeqParams, kind: SequenceKind, n: int) -> tuple[Rational, int]:
    """Sequence term via one kernel power, with the 2x2 product count.

    Even powers expose fibonacci terms and odd powers expose lucas terms,
    so when the requested kind sits at the wrong parity the adjacent power
    m = n+1 is used and the term is read from the trailing diagonal entry:
    t(n) = P22 / s^(|j|+e). Otherwise t(n) = a*P12 / s^(|j|+e). No Mat2 is
    built; ``sequences._finished_term`` finishes the term from the entry
    (module docstring, lowest terms). Every (a, b) and every n is served,
    the line ab + 4 = 0 included: the core formula holds there too.
    """
    m = n if kind is _exposed_kind(n) else n + 1
    power, exponent, count = _kernel(p, m)
    entry = power[1] if m == n else power[2]
    return _finished_term(p, kind, n, entry, exponent, 1), count


def term_fast(p: SeqParams, kind: SequenceKind, n: int) -> Rational:
    return term_fast_counted(p, kind, n)[0]

"""The contract of every exported value type, whatever it is built on.

Each type round-trips through pickle, ``copy.copy`` and ``copy.deepcopy``
to an equal value of the same type, hashes equal instances equally,
refuses assignment to its attributes, and keeps the repr pinned here.
``Counterexample`` is taken as ``verify_grid`` builds it: its sides are
normalized on first read, so each check starts from an unread instance.
"""
import copy
import pickle
from fractions import Fraction as F

import pytest

from biperiodic import (
    IdentityId,
    Mat2,
    QuadExt,
    SeqParams,
    eigen_decompose,
    power_closed_form,
    roots,
    verify_grid,
)

P = SeqParams(2, F(-1, 3))
PINNED_P = "SeqParams(a=Fraction(2, 1), b=Fraction(-1, 3))"
PINNED_CE = ("Counterexample(a=Fraction(2, 1), b=Fraction(3, 1), indices=(1,), "
             "lhs=Fraction(-3, 1), rhs=Fraction(-2, 1))")


def report():
    return verify_grid(IdentityId.THM4_I_PRINTED, [2], [3], n_range=(1, 2))


#: name -> (a fresh instance, the attributes it refuses to assign, its pinned repr)
VALUES = {
    "Mat2": (lambda: Mat2(1, F(1, 2), -3, 0), ("e11", "e12", "e21", "e22"), "Mat2[[1, 1/2], [-3, 0]]"),
    "QuadExt": (lambda: QuadExt(1, F(1, 2), 5), ("u", "v", "d"), "QuadExt(1, 1/2, d=5)"),
    "SeqParams": (lambda: SeqParams(2, F(-1, 3)), ("a", "b", "ab", "det_g"), PINNED_P),
    "ClosedForm": (
        lambda: power_closed_form(P, 3), ("params", "n", "core"),
        f"ClosedForm(params={PINNED_P}, n=3, core=Mat2[[-2/9, 14/3], [-7/9, 4/3]])",
    ),
    "RootPair": (
        lambda: roots(P), ("alpha", "beta"),
        "RootPair(alpha=QuadExt(-1/3, 1/2, d=-20/9), beta=QuadExt(-1/3, -1/2, d=-20/9))",
    ),
    "EigenDecomposition": (
        lambda: eigen_decompose(P), ("lambda1", "lambda2", "u_matrix"),
        "EigenDecomposition(lambda1=QuadExt(-10, -3, d=-20/9), lambda2=QuadExt(-10, 3, d=-20/9), "
        "u_matrix=Mat2[[-12 + 0*sqrt(-20/9), -12 + 0*sqrt(-20/9)], "
        "[-2 + -3*sqrt(-20/9), -2 + 3*sqrt(-20/9)]])",
    ),
    "ExcludedPoint": (
        lambda: verify_grid(IdentityId.INVERSE_POWER, [1], [-4], n_range=(0, 1)).excluded[0],
        ("a", "b", "reason"),
        "ExcludedPoint(a=Fraction(1, 1), b=Fraction(-4, 1), "
        "reason='ab + 4 = 0: generating matrix is singular')",
    ),
    "IdentityReport": (
        report, ("identity", "checked", "counterexamples", "excluded"),
        "IdentityReport(identity=<IdentityId.THM4_I_PRINTED: 'thm4-i-printed'>, "
        "a_values=(Fraction(2, 1),), b_values=(Fraction(3, 1),), n_range=(1, 2), m_range=None, "
        f"checked=2, passed=0, unexpected=0, counterexamples=({PINNED_CE}, "
        "Counterexample(a=Fraction(2, 1), b=Fraction(3, 1), indices=(2,), lhs=Fraction(6, 1), "
        "rhs=Fraction(2, 1))), excluded=())",
    ),
    "Counterexample": (
        lambda: report().counterexamples[0], ("a", "b", "indices", "lhs", "rhs"), PINNED_CE,
    ),
}

COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", VALUES)
def test_copies_are_equal_values(name, how):
    make = VALUES[name][0]
    got = COPIES[how](make())
    assert type(got) is type(make())
    assert got == make() and hash(got) == hash(make())
    assert repr(got) == VALUES[name][2]


@pytest.mark.parametrize("name", VALUES)
def test_equal_instances_hash_equal(name):
    make = VALUES[name][0]
    x, y = make(), make()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)


@pytest.mark.parametrize("name", VALUES)
def test_attributes_are_read_only(name):
    make, attributes, _ = VALUES[name]
    for attribute in attributes:
        value = make()
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, attribute, getattr(make(), attribute))
        with pytest.raises(AttributeError):
            delattr(value, attribute)
        assert repr(value) == before


@pytest.mark.parametrize("name", VALUES)
def test_pinned_repr(name):
    make, _, pinned = VALUES[name]
    assert repr(make()) == pinned


def test_derived_constants_survive_a_copy():
    for copied in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
        assert (copied.ab, copied.ab_plus_4, copied.disc, copied.a_over_b, copied.det_g) == (
            P.ab, P.ab_plus_4, P.disc, P.a_over_b, P.det_g)

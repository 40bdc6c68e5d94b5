import random

import pytest

from linquo.monomials import Monomial

from helpers import from_vars

# variables a, b, c, d, e
A, B, C, D, E = range(5)


def m(*vs):
    return from_vars(5, vs)


def one(nvars):
    return Monomial((0,) * nvars)


def test_colon_componentwise():
    # x^2 y : x z over variables x, y, z
    x2y = Monomial([2, 1, 0])
    xz = Monomial([1, 0, 1])
    assert x2y.colon(xz) == Monomial([1, 1, 0])


def test_colon_self_is_one():
    u = m(A, B, B, C)
    assert u.colon(u) == one(5)
    assert u.colon(u).degree() == 0


def test_colon_square_vs_product():
    # (ab)^2 : (ab)(ax) must be the single variable b; c stands in for x
    assert m(A, B, A, B).colon(m(A, B, A, C)) == m(B)


def test_divides():
    ab = m(A, B)
    abpq = m(A, B, C, D)
    assert ab.divides(abpq)
    assert not abpq.divides(ab)
    assert one(5).divides(abpq)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        Monomial([1, 0]).colon(Monomial([1, 0, 0]))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Monomial([1, -1])


def test_colon_gcd_identity_random():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 6)
        u = Monomial([rng.randint(0, 4) for _ in range(n)])
        v = Monomial([rng.randint(0, 4) for _ in range(n)])
        gcd = [min(a, b) for a, b in zip(u.exps, v.exps)]
        assert [c + d for c, d in zip(u.colon(v).exps, gcd)] == list(u.exps)
        # colon is 1 exactly when v dominates u componentwise
        assert (u.colon(v) == one(n)) == all(a <= b for a, b in zip(u.exps, v.exps))


def test_format_names():
    names = ("a", "b", "c", "d", "e")
    assert m(A, A, B, B).format(names) == "a^2*b^2"
    assert m(A, A, B, B).format() == "x0^2*x1^2"
    assert one(5).format(names) == "1"

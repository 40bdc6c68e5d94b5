import random

import pytest

from linquo.monomials import Monomial, from_vars

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
    # (ab)^2 : (ab)(ax) must be the single variable b
    e1 = m(A, B)
    ax = from_vars(5, [A, 2])  # a*c stands in for a*x on 5 variables
    lhs = (e1 * e1).colon(e1 * ax)
    assert lhs == m(B)


def test_deg_var():
    x3c = Monomial([3, 0, 1])
    assert x3c.deg_var(0) == 3
    assert x3c.deg_var(1) == 0
    assert all(one(3).deg_var(v) == 0 for v in range(3))


def test_localize():
    # variables x, y, a, b, c; m = (xy)^2 (xa)(bc)
    u = Monomial([3, 2, 1, 1, 1])
    assert u.localize({0, 4}) == Monomial([3, 0, 0, 0, 1])
    assert u.localize(range(5)) == u
    assert u.localize(()) == one(5)


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
        gcd = Monomial(min(a, b) for a, b in zip(u.exps, v.exps))
        assert u.colon(v) * gcd == u
        # colon is 1 exactly when v dominates u componentwise
        assert (u.colon(v) == one(n)) == all(a <= b for a, b in zip(u.exps, v.exps))


def test_localize_complement_identity_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        u = Monomial([rng.randint(0, 3) for _ in range(n)])
        keep = {v for v in range(n) if rng.random() < 0.5}
        rest = set(range(n)) - keep
        assert u.localize(keep) * u.localize(rest) == u


def test_format_names():
    names = ("a", "b", "c", "d", "e")
    assert m(A, A, B, B).format(names) == "a^2*b^2"
    assert m(A, A, B, B).format() == "x0^2*x1^2"
    assert one(5).format(names) == "1"


def test_product_and_empty_product():
    assert m(A) * m(B) * m(B) == m(A, B, B)
    assert from_vars(5, ()) == one(5)
    with pytest.raises(ValueError):
        m(A) * from_vars(3, ())

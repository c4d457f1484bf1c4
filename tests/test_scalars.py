"""Rational function field and half-twist scalars."""

import random

from heckeb.poly import pconst, peq, pmul
from heckeb.scalars import (
    RF_ONE,
    RF_ZERO,
    HalfTwistScalar,
    RatFunc,
    big_n,
    delta,
    delta_pow,
    invmap_poly,
    lam,
    lam_pow,
    rf_int,
    rf_invmap,
    rf_mono,
    rf_z,
)


def rand_rf(rng, terms=4, span=2):
    num = {}
    for _ in range(terms):
        c = rng.randint(-5, 5)
        if c:
            key = (rng.randint(-span, span), rng.randint(-span, span))
            num[key] = num.get(key, 0) + c
    num = {k: v for k, v in num.items() if v}
    den = {}
    while not den:
        for _ in range(2):
            c = rng.randint(-3, 3)
            if c:
                key = (rng.randint(0, span), rng.randint(0, span))
                den[key] = den.get(key, 0) + c
        den = {k: v for k, v in den.items() if v}
    return RatFunc(dict(num), dict(den))


def test_constructor_normalizes():
    # common factors cancel and the denominator is anchored at exponent (0, 0)
    a = RatFunc({(2, 1): 2, (1, 1): -2}, {(1, 0): 2})
    b = RatFunc({(1, 1): 1, (0, 1): -1}, {(0, 0): 1})
    assert a == b
    assert min(e for e, _ in a.den) >= 0
    assert str(RatFunc({(1, 2): 5}, {(1, 2): 5})) == "1"


def test_field_laws():
    rng = random.Random(21)
    for _ in range(50):
        a = rand_rf(rng)
        b = rand_rf(rng)
        c = rand_rf(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a - a == RF_ZERO
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a * b) / b == a
            assert b * b.inverse() == RF_ONE


def assert_canonical(r):
    # reduced fractions in the normal form are unique, so rebuilding one
    # from its own parts must give back exactly the same dicts
    again = RatFunc(dict(r.num), dict(r.den))
    assert (r.num, r.den) == (again.num, again.den), r


def test_results_are_canonical():
    rng = random.Random(25)
    n = RatFunc(big_n())
    special = [
        # gcd(3 - 3z, 3z - 3q) = 3: a one-term gcd that is not 1
        RatFunc({(0, 0): 1}, {(0, 0): 3, (0, 1): -3}),
        RatFunc({(0, 1): 3, (1, 0): -3}, {(0, 0): 1, (1, 1): 1}),
        RatFunc({(0, 0): 1}, {(0, 1): 3, (1, 0): -3}),
        RatFunc({(1, 0): 2}, {(0, 0): 3}),
        # denominator 1 against powers of N = z + 1 - q
        rf_mono(1, 1, 0) + rf_int(2),
        n.inverse(),
        (n * n).inverse() * rf_mono(-2, 0, 1),
        n ** 3 / rf_mono(4, 1, 1),
        rf_mono(-1, -1, 2),
        RF_ZERO,
    ]
    values = special + [rand_rf(rng) for _ in range(30)]
    for a in values:
        assert_canonical(a)
        assert_canonical(-a)
        assert (a - a).is_zero() and (a + (-a)).is_zero()
        assert_canonical(a - a)
        for e in (0, 1, 2, 3):
            assert_canonical(a ** e)
        if not a.is_zero():
            assert_canonical(a.inverse())
            assert_canonical(a ** -2)
            assert_canonical(a / a)
        for b in special + [rand_rf(rng) for _ in range(4)]:
            assert_canonical(a + b)
            assert_canonical(a - b)
            assert_canonical(a * b)
            if not b.is_zero():
                assert_canonical(a / b)


def test_pow():
    r = rf_mono(1, 1, 0) + rf_int(1)
    assert r ** 0 == RF_ONE
    assert r ** 3 == r * r * r
    assert r ** -2 == (r * r).inverse()


def test_named_scalars():
    q = rf_mono(1, 1, 0)
    z = rf_z()
    n = RatFunc(big_n())
    assert n == z + RF_ONE - q
    assert lam() == n / (q * z)
    assert lam_pow(3) == lam() * lam() * lam()
    assert lam_pow(-2) == (lam() * lam()).inverse()


def test_invmap_involution():
    rng = random.Random(22)
    for _ in range(50):
        r = rand_rf(rng)
        assert rf_invmap(rf_invmap(r)) == r
    assert rf_invmap(RF_ONE) == RF_ONE
    assert rf_invmap(lam()) == lam().inverse()
    assert rf_invmap(rf_mono(1, 1, 0)) == rf_mono(1, -1, 0)


def test_invmap_negative_z_exponents():
    # pure negative powers of z exercise the shifted power table
    zinv = rf_z().inverse()
    assert rf_invmap(rf_invmap(zinv)) == zinv
    assert rf_invmap(zinv) == (lam() * rf_z()).inverse()
    mixed = rf_mono(3, -2, -3) + rf_mono(1, 0, -1)
    assert rf_invmap(rf_invmap(mixed)) == mixed


def test_invmap_poly_matches_substitution():
    # z -> lam * z performed on a polynomial must agree with field arithmetic
    rng = random.Random(23)
    for _ in range(30):
        a = {}
        for _ in range(4):
            c = rng.randint(-4, 4)
            if c:
                a[(rng.randint(-2, 2), rng.randint(0, 3))] = c
        out = invmap_poly(a)
        direct = RF_ZERO
        for (qe, ze), c in a.items():
            direct = direct + rf_mono(c, -qe, 0) * lam_pow(ze) * rf_z() ** ze
        assert out == direct


def test_half_twist_parity():
    w = HalfTwistScalar.w_power(1)
    assert w * w == HalfTwistScalar.from_rf(lam())
    assert HalfTwistScalar.w_power(3) == w * w * w
    assert HalfTwistScalar.w_power(-1) * w == HalfTwistScalar.from_rf(RF_ONE)
    assert (delta() * w) == HalfTwistScalar.from_rf(rf_z().inverse())
    assert delta_pow(2) * HalfTwistScalar.w_power(2) == HalfTwistScalar.from_rf(
        rf_z().inverse() ** 2
    )


def test_half_twist_arithmetic():
    a = HalfTwistScalar.from_rf(rf_int(2)) + HalfTwistScalar.w_power(1)
    b = HalfTwistScalar.from_rf(rf_int(2)) - HalfTwistScalar.w_power(1)
    # (2 + w)(2 - w) = 4 - lam
    assert a * b == HalfTwistScalar.from_rf(rf_int(4) - lam())
    assert a - a == HalfTwistScalar.from_rf(RF_ZERO)
    assert (a * a.inverse()) == HalfTwistScalar.from_rf(RF_ONE)
    assert a.scale(rf_int(3)) == HalfTwistScalar.from_rf(rf_int(3)) * a


def test_str_canonical():
    assert str(RF_ZERO) == "0"
    assert str(rf_int(-1)) == "-1"
    # monomial denominators fold into Laurent numerators
    assert str(lam()) == "q^-1*z^-1 + q^-1 - z^-1"
    assert str(rf_z().inverse()) == "z^-1"
    assert str(rf_mono(1, 0, 1) / (rf_int(1) - rf_mono(1, 1, 0))) == "(z)/(1 - q)"
    assert str(rf_z() / (RF_ONE + rf_z() - rf_mono(1, 1, 0))) == "(z)/(1 + z - q)"


def test_poly_backend_agrees_with_field_mul():
    rng = random.Random(24)
    for _ in range(20):
        a = rand_rf(rng)
        b = rand_rf(rng)
        prod = a * b
        assert peq(
            pmul(prod.num, pmul(a.den, b.den)),
            pmul(prod.den, pmul(a.num, b.num)),
        )
        assert pmul(pconst(1), prod.den) == prod.den

"""Rational function field and closure scalars."""

import random

import pytest

from heckeb import poly as P
from heckeb.poly import pconst, pmul
from heckeb.scalars import (
    RF_ZERO,
    RatFunc,
    _cancel,
    big_n,
    delta_pow,
    lam,
    rf_int,
    rf_invmap,
    rf_mono,
    rf_scale_terms,
    rf_z,
)

RF_ONE = rf_int(1)


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
    assert lam() ** 3 == lam() * lam() * lam()
    assert lam() ** -2 == (lam() * lam()).inverse()


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


def _substituted(a):
    """a(1/q, lam z) term by term in field arithmetic."""
    out = RF_ZERO
    for (qe, ze), c in a.items():
        out = out + rf_mono(c, -qe, 0) * (lam() * rf_z()) ** ze
    return out


def test_invmap_matches_substitution():
    # q -> 1/q, z -> lam z on num and den, divided in the field, against
    # the one-gcd rf_invmap
    rng = random.Random(23)
    n = RatFunc(big_n())
    values = [
        RF_ZERO,
        RF_ONE,
        rf_int(-6),
        rf_mono(3, -2, -3) + rf_mono(1, 0, -1),  # negative z exponents, den 1
        rf_mono(2, 1, 2) / (n * n),
        n ** 3 / rf_mono(4, 1, 1),
        (rf_int(1) - rf_mono(1, 1, 0)) / (rf_z() ** 2 + rf_int(3)),
    ] + [rand_rf(rng) for _ in range(40)]
    for r in values:
        want = RF_ZERO
        if not r.is_zero():
            want = _substituted(r.num) / _substituted(r.den)
        out = rf_invmap(r)
        assert out == want, r
        assert_canonical(out)
        assert rf_invmap(out) == r


def _shared_den_values(rng):
    """Fractions over a few shared denominators (1, a monomial, N^k and
    products, two of them with equally many terms), some with a factor N
    in the numerator, some zero."""
    n = RatFunc(big_n())
    dens = [RF_ONE, rf_mono(1, 1, 2), n, n ** 3, n * n * rf_mono(1, 0, 1)]
    dens += [(rf_int(1) + rf_mono(2, 1, 0)) * n, (rf_int(1) - rf_mono(2, 0, 1)) * n]
    tops = [RF_ONE, n, rf_int(2) * n * n]
    return [
        RatFunc(rand_rf(rng, span=1).num) * rng.choice(tops) / rng.choice(dens)
        for _ in range(12)
    ]


def _rebuilt_product(x, y):
    """x * y through the constructor's one gcd: the slow reference."""
    return RatFunc(pmul(x.num, y.num), pmul(x.den, y.den))


def test_products_and_quotients_match_constructor_rebuild():
    rng = random.Random(29)
    n = RatFunc(big_n())
    special = [RF_ZERO, RF_ONE, rf_int(-2), rf_mono(6, -1, 2), n, n.inverse() * rf_int(4)]

    def operand():
        r = rng.random()
        if r < 0.3:
            return rng.choice(special)
        if r < 0.5:
            return RatFunc(rand_rf(rng).num)  # a unit denominator
        return rand_rf(rng) * rng.choice((RF_ONE, n))

    for _ in range(200):
        a, b = operand(), operand()
        got = a * b
        assert got == _rebuilt_product(a, b)
        assert_canonical(got)
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
            continue
        got = a / b
        assert got == RatFunc(pmul(a.num, b.den), pmul(a.den, b.num))
        assert_canonical(got)


def test_cancel_divides_out_integer_content():
    # against a monomial only an integer content can cancel, and pgcd
    # cancels it; no workload has such a shared content, so it is pinned here
    assert str(RatFunc({(0, 0): 3, (0, 1): -3}, {(0, 1): 3})) == "z^-1 - 1"
    assert str(rf_mono(6, 1, 0) / rf_int(4)) == "(3*q)/(2)"


def test_cancel_takes_no_gcd_for_a_coprime_content(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("pgcd called")

    monkeypatch.setattr(P, "pgcd", no_gcd)
    a, b = {(0, 1): 3}, {(0, 0): 2, (1, 0): 4}
    assert _cancel(a, b) == (a, b, {(0, 0): 1})
    assert _cancel(b, {(1, 1): -1}) == (b, {(1, 1): -1}, {(0, 0): 1})


def test_scale_terms_match_term_by_term_products():
    rng = random.Random(26)
    n = RatFunc(big_n())
    factors = [
        RF_ONE,
        rf_int(-3),
        rf_mono(2, -1, 1),
        n,
        n.inverse() * rf_int(2),
        (rf_z() - RF_ONE) / (n * n),
        (rf_int(1) + rf_mono(2, 1, 0)) / (rf_z() + rf_int(3)),
    ]
    for _ in range(20):
        terms = dict(enumerate(_shared_den_values(rng)))
        for f in factors + [rand_rf(rng)]:
            if f.is_zero():
                continue
            out = dict(rf_scale_terms(terms, f))
            assert list(out) == list(terms)
            for i, x in terms.items():
                assert out[i] == _rebuilt_product(x, f)
                assert_canonical(out[i])


def test_closure_scalar_grid():
    # c = d^m w^e = r w^parity with w^2 = lam and d = w q/N, so
    # c^2 = r^2 lam^parity = (q/N)^(2m) lam^(m+e)
    q_over_n = rf_mono(1, 1, 0) / RatFunc(big_n())
    for n in range(1, 7):
        m = n - 1
        for e in range(-9, 10):
            r, parity = delta_pow(m, e)
            assert parity == (m + e) % 2
            assert r * r * lam() ** parity == q_over_n ** (2 * m) * lam() ** (m + e)
            # w^2 = lam and d w = 1/z fix the sign of r as well
            assert delta_pow(m, e + 2) == (r * lam(), parity)
            assert delta_pow(m + 1, e + 1) == (r / rf_z(), parity)


def test_closure_scalar_spot_values():
    assert delta_pow(0) == (RF_ONE, 0)
    assert delta_pow(0, 1) == (RF_ONE, 1)  # w
    assert delta_pow(1) == (rf_mono(1, 1, 0) / RatFunc(big_n()), 1)  # d
    assert delta_pow(1, 1) == (rf_z().inverse(), 0)  # c(2, 1) = d w = 1/z
    assert delta_pow(0, 2) == (lam(), 0)  # c(1, 2) = w^2 = lam
    assert delta_pow(0, -1) == (lam().inverse(), 1)  # w^-1 = w / lam


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
        assert pmul(prod.num, pmul(a.den, b.den)) == pmul(prod.den, pmul(a.num, b.num))
        assert pmul(pconst(1), prod.den) == prod.den

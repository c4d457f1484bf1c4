"""Laurent polynomial layer: ring laws, gcd and exact division."""

import math
import random

import pytest

import heckeb
from heckeb import poly as P


def rand_poly(rng, terms=5, span=3, lo=-9, hi=9):
    a = {}
    for _ in range(terms):
        key = (rng.randint(-span, span), rng.randint(-span, span))
        c = rng.randint(lo, hi)
        if c:
            a[key] = a.get(key, 0) + c
            if not a[key]:
                del a[key]
    return a


def test_zero_and_const():
    assert P.pconst(0) == {}
    assert P.pconst(3) == {(0, 0): 3}
    assert P.pmono(2, 1, -1) == {(1, -1): 2}
    assert P.pmono(0, 5, 5) == {}


def test_add_group_laws():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert P.padd(a, b) == P.padd(b, a)
        assert P.padd(P.padd(a, b), c) == P.padd(a, P.padd(b, c))
        assert P.padd(a, P.pneg(a)) == {}
        assert P.psub(a, b) == P.padd(a, P.pneg(b))


def test_mul_ring_laws():
    rng = random.Random(12)
    for _ in range(60):
        a, b, c = (rand_poly(rng, terms=4) for _ in range(3))
        assert P.pmul(a, b) == P.pmul(b, a)
        assert P.pmul(P.pmul(a, b), c) == P.pmul(a, P.pmul(b, c))
        assert P.pmul(a, P.padd(b, c)) == P.padd(P.pmul(a, b), P.pmul(a, c))
        assert P.pmul(a, P.PONE) == a


def _pmul_reference(a, b):
    """Term-by-term product: a's terms outside, b's inside, zero sums dropped."""
    out = {}
    for (qa, za), ca in a.items():
        for (qb, zb), cb in b.items():
            k = (qa + qb, za + zb)
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def test_pmul_one_term_operand_matches_double_loop():
    # the one-term fast path, on either side, against the general loop:
    # same terms in the same key order
    rng = random.Random(19)
    for _ in range(80):
        mono = {(rng.randint(-4, 4), rng.randint(-4, 4)): rng.choice((-3, -2, -1, 1, 2, 5))}
        for other in (rand_poly(rng, terms=rng.randint(1, 7)), {}, mono):
            for a, b in ((mono, other), (other, mono)):
                got, want = P.pmul(a, b), _pmul_reference(a, b)
                assert got == want and list(got) == list(want), (a, b)


def test_zero_operands():
    q1 = {(0, 0): 1, (1, 0): 1}
    for a in ({(1, 2): -3}, q1):
        assert P.pmul({}, a) == P.pmul(a, {}) == {}
        assert P.pdivexact({}, a) == {}
    assert P.pmul({}, {}) == {}
    with pytest.raises(ZeroDivisionError):
        P.pdivexact({}, {})


def test_shift_scale_pow():
    a = {(0, 0): 1, (1, 2): -3}
    assert P.pshift(a, 2, -1) == {(2, -1): 1, (3, 1): -3}
    assert P.pmul(a, P.pconst(-2)) == {(0, 0): -2, (1, 2): 6}
    assert P.pmul(a, P.pconst(0)) == {}
    sq = P.pmul(a, a)
    assert P.ppow(a, 2) == sq
    assert P.ppow(a, 0) == P.PONE


def test_minexp_and_content():
    a = {(2, -1): 4, (3, 5): -6}
    assert P.pminexp(a) == (2, -1)
    assert P.pcontent(a) == 2
    assert P.pdivexact(a, P.pconst(2)) == {(2, -1): 2, (3, 5): -3}


def test_divexact_roundtrip():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_poly(rng, terms=4)
        c = rand_poly(rng, terms=3)
        if not c:
            continue
        prod = P.pmul(a, c)
        if not prod:
            continue
        assert P.pdivexact(prod, c) == a


def test_gcd_divides_and_sees_common_factor():
    rng = random.Random(14)
    for _ in range(30):
        a = rand_poly(rng, terms=3)
        b = rand_poly(rng, terms=3)
        c = rand_poly(rng, terms=3)
        if not a or not b or not c:
            continue
        g, fa, fb = P.pgcd(P.pmul(a, c), P.pmul(b, c))
        # g divides both inputs and is itself divisible by the planted factor
        assert P.pmul(fa, g) == P.pmul(a, c)
        assert P.pmul(fb, g) == P.pmul(b, c)
        P.pdivexact(g, c)


def test_gcd_of_zero():
    # gcd is defined up to a monomial unit: zero cases return the other
    # argument shifted so its minimal exponents sit at the origin, and the
    # cofactors are zero and that shift
    a = {(1, 0): 2}
    assert P.pgcd(a, {}) == ({(0, 0): 2}, {(1, 0): 1}, {})
    assert P.pgcd({}, a) == ({(0, 0): 2}, {}, {(1, 0): 1})
    assert P.pgcd({}, {}) == ({}, {}, {})


def _ref_gcd(a, b):
    """pgcd by the primitive remainder sequence alone."""
    qa, za = P.pminexp(a)
    qb, zb = P.pminexp(b)
    g = P._gcd(P.pshift(a, -qa, -za), P.pshift(b, -qb, -zb), 1)
    qm, zm = P.pminexp(g)
    g = P.pshift(g, -qm, -zm)
    return P.pneg(g) if g[max(g)] < 0 else g


def _ref_divexact(a, b):
    """pdivexact by long division alone."""
    qa, za = P.pminexp(a)
    qb, zb = P.pminexp(b)
    out = P._divexact(P.pshift(a, -qa, -za), P.pshift(b, -qb, -zb), 1)
    return P.pshift(out, qa - qb, za - zb)


def _assert_gcd(a, b):
    """pgcd(a, b) against the PRS references: the gcd, and cofactors equal
    to long division by it that multiply back to the inputs."""
    g, fa, fb = P.pgcd(a, b)
    assert g == _ref_gcd(a, b)
    assert fa == _ref_divexact(a, g)
    assert fb == _ref_divexact(b, g)
    assert P.pmul(g, fa) == a
    assert P.pmul(g, fb) == b
    return g


def _planted_factor(rng, i):
    kind = i % 4
    if kind == 0:  # q only
        coeffs = [rng.randint(1, 4), rng.randint(-4, 4), 1]
        return {(e, 0): c for e, c in enumerate(coeffs) if c}
    if kind == 1:  # z only
        return {(0, 0): rng.choice([-2, -1, 1, 3]), (0, rng.randint(1, 3)): 1}
    if kind == 2:  # mixed
        return P.padd(rand_poly(rng, terms=3, span=2), {(1, 1): 1})
    return {(0, 0): 1}


def _scale(a, c):
    return P.pmul(a, P.pconst(c))


def test_gcd_and_division_match_prs():
    rng = random.Random(16)
    pairs = 0
    for i in range(400):
        big = i % 5 == 4
        lo, hi = (-(2 ** 70), 2 ** 70) if big else (-9, 9)
        f = _planted_factor(rng, i)
        a = rand_poly(rng, terms=3, lo=lo, hi=hi)
        b = rand_poly(rng, terms=3, lo=lo, hi=hi)
        if not a or not b:
            continue
        a = _scale(P.pmul(a, f), rng.choice([1, 1, 3, 6, -2]))
        b = _scale(P.pmul(b, f), rng.choice([1, 3, 9]))
        g = _assert_gcd(a, b)
        _assert_gcd(b, a)
        assert P.pdivexact(a, f) == _ref_divexact(a, f)
        assert P.pdivexact(b, g) == _ref_divexact(b, g)
        try:
            q = _ref_divexact(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                P.pdivexact(a, b)
        else:
            assert P.pdivexact(a, b) == q
        pairs += 1
    assert pairs >= 300


def test_gcd_rejects_wrapped_common_factor():
    # z - q - qz and q - 1 - z are coprime, but packed at D = 2 (z = t^2)
    # both images are multiples of t^2 - t + 1, which unpacks to 1 + z - q
    a = {(0, 1): 1, (1, 0): -1, (1, 1): -1}
    b = {(0, 0): -1, (0, 1): -1, (1, 0): 1}
    x, y = P._pack(a, 2, 1), P._pack(b, 2, 1)
    assert P._unpack(math.gcd(x, y), 2, 1) == {(0, 0): 1, (0, 1): 1, (1, 0): -1}
    assert P.pgcd(a, b) == ({(0, 0): 1}, a, b)
    a = P.pshift(a, -2, 3)
    assert P.pgcd(a, b) == ({(0, 0): 1}, a, b)


@pytest.fixture
def pack_widths(monkeypatch):
    """The digit width of every packing, in call order."""
    widths = []
    pack = P._pack

    def counted(a, d, w):
        widths.append(w)
        return pack(a, d, w)

    monkeypatch.setattr(P, "_pack", counted)
    return widths


def test_gcd_strips_integer_factor_of_image(pack_widths):
    # (256 + 2, 3 * 256 + 2) = 2: the candidate 2 is the unit 1 times a
    # stray integer factor, and must pass on the first packing
    a, b = {(0, 0): 2, (1, 0): 1}, {(0, 0): 2, (1, 0): 3}
    assert P.pgcd(a, b) == ({(0, 0): 1}, a, b)
    assert pack_widths == [1, 1]


def test_prs_fallback_agrees(monkeypatch):
    monkeypatch.setattr(P, "_HEU_TRIES", 0)
    rng = random.Random(17)
    for i in range(40):
        f = _planted_factor(rng, i)
        a = P.pmul(rand_poly(rng, terms=3), f)
        b = P.pmul(rand_poly(rng, terms=3), f)
        if a and b:
            _assert_gcd(a, b)
            assert P.pdivexact(a, f) == _ref_divexact(a, f)


def _q(*coeffs):
    """The polynomial sum c_e q^e over coeffs = (c_0, c_1, ...)."""
    return {(e, 0): c for e, c in enumerate(coeffs) if c}


def test_prs_gcd_pinned(monkeypatch):
    # the remainder sequence alone, at every level
    monkeypatch.setattr(P, "_HEU_TRIES", 0)
    zq = {(0, 1): 1, (1, 0): 1}          # z + q
    zm2 = {(0, 1): 1, (0, 0): -2}        # z - 2
    h = {(1, 1): 1, (0, 1): -1, (0, 0): 1}  # qz - z + 1
    cases = [
        # 6(q + 1)(q + 2), 4(q + 1)(q + 3): gcd 2 + 2q
        (P.pmul(P.pconst(6), P.pmul(_q(1, 1), _q(2, 1))),
         P.pmul(P.pconst(4), P.pmul(_q(1, 1), _q(3, 1))),
         (_q(2, 2), _q(6, 3), _q(6, 2))),
        # (q - 1)(q + 2)^2, (q - 1)(q + 2)(2q + 3): gcd -2 + q + q^2
        (P.pmul(_q(-1, 1), P.pmul(_q(2, 1), _q(2, 1))),
         P.pmul(_q(-1, 1), P.pmul(_q(2, 1), _q(3, 2))),
         (_q(-2, 1, 1), _q(2, 1), _q(3, 2))),
        # (q - 1)(z + q), (q - 1)(z - 2): gcd -1 + q
        (P.pmul(_q(-1, 1), zq), P.pmul(_q(-1, 1), zm2), (_q(-1, 1), zq, zm2)),
        # (qz - z + 1)(z + 3), (qz - z + 1)(q + 5): gcd 1 - z + qz
        (P.pmul(h, {(0, 1): 1, (0, 0): 3}), P.pmul(h, _q(5, 1)),
         (h, {(0, 1): 1, (0, 0): 3}, _q(5, 1))),
        # z - q - qz, q - 1 - z: coprime
        ({(0, 1): 1, (1, 0): -1, (1, 1): -1}, {(0, 0): -1, (0, 1): -1, (1, 0): 1},
         ({(0, 0): 1}, {(0, 1): 1, (1, 0): -1, (1, 1): -1},
          {(0, 0): -1, (0, 1): -1, (1, 0): 1})),
    ]
    for a, b, (g, fa, fb) in cases:
        assert P.pgcd(a, b) == (g, fa, fb)
        assert P.pgcd(b, a) == (g, fb, fa)


def test_prs_division_pinned():
    # long division by divisors of two or more terms, then inexact ones
    # that fail in an integer, in q, and on the z-degree
    cases = [
        ({(0, 0): -4, (1, 0): -3, (2, 0): -2, (3, 0): 15}, _q(-4, 5), _q(1, 2, 3)),
        ({(0, 1): 14, (1, 2): 2, (1, 0): 7, (2, 1): -20, (3, 2): -3},
         {(0, 0): 7, (1, 1): 1}, {(1, 0): 1, (2, 1): -3, (0, 1): 2}),
        ({(0, 3): 1, (1, 1): 3, (0, 2): -2, (1, 0): -6, (1, 3): 1, (2, 1): 3,
          (1, 2): -2, (2, 0): -6},
         {(0, 1): 1, (0, 0): -2, (1, 1): 1, (1, 0): -2}, {(1, 0): 3, (0, 2): 1}),
        ({(-2, 4): 6, (-1, 3): 2, (0, 4): 3, (1, 3): 1}, {(1, 0): 3, (2, -1): 1},
         {(-1, 4): 1, (-3, 4): 2}),
    ]
    for a, b, quo in cases:
        assert P.pdivexact(a, b) == quo
    inexact = [
        (_q(3, 3), _q(2, 2)),                      # leads 3 by 2
        ({(2, 1): 1, (0, 1): 1, (0, 0): 1},        # z-leads q^2 + 1 by q + 1
         {(1, 1): 1, (0, 1): 1}),
        ({(0, 1): 1, (1, 0): 1}, {(0, 2): 1, (1, 0): 1}),  # z-degree 1 by 2
    ]
    for a, b in inexact:
        with pytest.raises(ValueError):
            P.pdivexact(a, b)


def test_gcd_cofactors_on_every_branch():
    qm1 = {(1, 0): 1, (0, 0): -1}
    u = {(0, 0): 2, (0, 1): 1}
    v = {(2, 0): 1, (0, 1): -3}
    cases = [
        # a monomial: only the integer content can be shared
        ({(2, 1): 6}, {(0, 0): 4, (1, 3): -2}),
        ({(-1, 0): -5}, {(0, 0): 3, (1, 0): 1}),
        # equal primitive parts, one shifted, with contents 3 and 6
        (P.pshift(_scale(qm1, 3), 1, -2), _scale(qm1, 6)),
        # equal primitive parts whose lex-greatest term is negative, so
        # the gcd's sign flips and both cofactors are negative constants
        (_scale(qm1, -3), _scale(P.pshift(qm1, 0, 2), -6)),
        # the heuristic, with negative contents and a common factor
        (_scale(P.pmul(qm1, u), -4), _scale(P.pmul(qm1, v), -6)),
        (_scale(P.pmul(P.pneg(qm1), u), 2), P.pmul(qm1, v)),
    ]
    for a, b in cases:
        _assert_gcd(a, b)
        _assert_gcd(b, a)
    g, fa, fb = P.pgcd(_scale(qm1, -3), _scale(qm1, -6))
    assert (g, fa, fb) == ({(1, 0): 3, (0, 0): -3}, {(0, 0): -1}, {(0, 0): -2})


def test_gcd_of_monomial_inputs():
    # a monomial is a unit, so the gcd is the gcd of the integer contents
    q1 = {(0, 0): 1, (1, 0): 1}
    cases = [
        ({(2, 1): 1}, q1, {(0, 0): 1}, {(2, 1): 1}, q1),
        ({(1, 0): 6}, _scale(q1, 4), {(0, 0): 2}, {(1, 0): 3}, _scale(q1, 2)),
        ({(0, 1): 3}, {(0, 0): 3, (0, 1): -3}, {(0, 0): 3}, {(0, 1): 1}, {(0, 0): 1, (0, 1): -1}),
        ({(2, 1): 6}, {(0, 3): -4}, {(0, 0): 2}, {(2, 1): 3}, {(0, 3): -2}),
    ]
    for a, b, g, fa, fb in cases:
        assert P.pgcd(a, b) == (g, fa, fb)
        assert P.pgcd(b, a) == (g, fb, fa)
        assert _assert_gcd(a, b) == g


def test_inexact_division_raises():
    q1 = {(1, 0): 1, (0, 0): 1}
    cases = [
        ({(2, 0): 1, (0, 0): 1}, q1),                  # (q^2 + 1) / (q + 1)
        ({(1, 0): 2, (0, 0): 1}, {(0, 0): 2}),         # (2q + 1) / 2
        ({(1, 0): 2, (0, 0): 2}, {(1, 0): 4, (0, 0): 4}),  # (2q + 2) / (4q + 4)
        (q1, {(2, 0): 1, (0, 0): 1}),                  # divisor of higher q-degree
        (q1, {(0, 1): 1, (0, 0): 1}),                  # divisor of higher z-degree
        ({(0, 1): 3, (1, 0): 3}, {(0, 1): 1, (1, 0): -1}),
    ]
    for a, b in cases:
        with pytest.raises(ValueError):
            P.pdivexact(a, b)
        with pytest.raises(ValueError):
            _ref_divexact(a, b)
    with pytest.raises(ZeroDivisionError):
        P.pdivexact(q1, {})


def test_format():
    assert P.pformat({}) == "0"
    assert P.pformat(P.pconst(1)) == "1"
    assert P.pformat({(1, 0): 1, (0, 0): -1}) == "-1 + q"
    assert P.pformat({(-1, 2): 3}) == "3*q^-1*z^2"


def test_backend_is_python():
    # perfbench records heckeb.BACKEND with every run and refuses to
    # compare runs taken on different backends
    assert heckeb.BACKEND == "python"

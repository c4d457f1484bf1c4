"""Trace layer: closed forms, closure invariance, band move equations."""

import importlib
import random

import pytest

from heckeb.lens import generate_system
from heckeb.scalars import (
    RF_ONE,
    HalfTwistScalar,
    lam,
    lam_pow,
    rf_int,
    rf_invmap,
    rf_mono,
    rf_z,
)
from heckeb.trace import (
    TraceDomainError,
    TraceValue,
    bbm_coefficient,
    bbm_equation,
    bbm_equation_pair,
    closure_scalar,
    invariant_x,
    map_I,
    map_index,
    trace_of_word,
    trace_with_rotation_check,
)
from heckeb.words import LoopMonomial, bbm_image, enumerate_level, parse_word

Q = rf_mono(1, 1, 0)
QI = rf_mono(1, -1, 0)
Z = rf_z()


def rand_word(rng, n, length):
    letters = []
    for _ in range(length):
        kind = rng.choice(["sigma", "loop", "ploop"])
        if kind == "sigma":
            letters.append(("sigma", rng.randrange(1, n), rng.choice([-1, 1])))
        else:
            letters.append((kind, rng.randrange(0, n), rng.choice([-2, -1, 1, 2])))
    return parse_word(
        " ".join(
            ("g%d" if k == "sigma" else ("t%d" if k == "loop" else "t%d'")) % i
            + ("^%d" % e if e != 1 else "")
            for k, i, e in letters
        ) or "1",
        n=n,
    )


def test_closed_form_on_primed_monomials():
    assert trace_of_word(parse_word("t^2 t1'^3", n=2)) == TraceValue({(2, 3): RF_ONE})
    assert trace_of_word(parse_word("t^3 t1'^2", n=2)) == TraceValue({(2, 3): RF_ONE})
    assert trace_of_word(parse_word("t^-1 t1'^4 t2'^2", n=3)) == TraceValue(
        {(-1, 2, 4): RF_ONE}
    )
    # idle strands do not change the closure
    assert trace_of_word(parse_word("t^2", n=3)) == TraceValue({(2,): RF_ONE})
    assert trace_of_word(parse_word("1", n=2)) == TraceValue({(): RF_ONE})


def test_single_braiding_closures():
    for n in (2, 3, 4):
        for i in range(1, n):
            pos = trace_of_word(parse_word("g%d" % i, n=n))
            neg = trace_of_word(parse_word("g%d^-1" % i, n=n))
            assert pos == TraceValue({(): Z})
            assert neg == TraceValue({(): lam() * Z})


def test_axis_move_golden_values():
    # the four hand-expanded level-(p+1) products at p = 2
    qm1 = Q - RF_ONE
    qim1 = QI - RF_ONE
    cases = [
        ("t^2 t1 g1", {(1, 2): Q * qm1, (3,): qm1 * qm1 * Z + Q * Z}),
        ("t^2 t1", {(1, 2): Q, (3,): qm1 * Z}),
        ("t^2 t1^-1", {(-1, 2): QI, (1,): QI * qim1 * Z + qim1 * qim1}),
        (
            "t^2 t1^-1 g1^-1",
            {
                (-1, 2): QI * qim1,
                (1,): QI * qim1 * qim1 * Z
                + qim1 * qim1 * qim1
                + QI * qim1
                + QI * QI * Z,
            },
        ),
    ]
    for text, terms in cases:
        assert trace_of_word(parse_word(text, n=2)) == TraceValue(terms), text


def test_trace_string_anchors():
    shows = {
        "t^2 t1 g1": "(-q + q^2) * s[1]s[2] + (z - q*z + q^2*z) * s[3]",
        "t^2 t1": "q * s[1]s[2] + (-z + q*z) * s[3]",
        "t^2 t1^-1": "q^-1 * s[-1]s[2] + (q^-2 + q^-2*z - 2*q^-1 - q^-1*z + 1) * s[1]",
    }
    for text, want in shows.items():
        assert str(trace_of_word(parse_word(text, n=2))) == want


def test_trace_value_ordering():
    # display sorts by weighted level, then lexicographic index multiset
    tv = TraceValue({(3,): RF_ONE, (1, 2): RF_ONE, (1,): RF_ONE, (-1, 2): RF_ONE})
    assert [m for m, _ in tv.sorted_terms()] == [(-1, 2), (1,), (1, 2), (3,)]
    assert str(tv) == "s[-1]s[2] + s[1] + s[1]s[2] + s[3]"


def test_trace_value_arithmetic():
    a = TraceValue({(1,): Q})
    b = TraceValue({(1,): RF_ONE, (2,): Z})
    assert a.add(b) == TraceValue({(1,): Q + RF_ONE, (2,): Z})
    assert a.sub(a).is_zero()
    assert b.scale(Q).coeff((2,)) == Q * Z
    assert b.coeff((5,)) == rf_int(0)
    c = TraceValue()
    c.add_term((1,), Q)
    c.add_term((1,), -Q)
    assert c.is_zero() and c == TraceValue.zero()
    assert TraceValue.one() == TraceValue({(): RF_ONE})


def test_conjugation_invariance():
    rng = random.Random(51)
    for _ in range(12):
        n = rng.choice([2, 3])
        w = rand_word(rng, n, rng.randrange(1, 5))
        i = rng.randrange(1, n)
        conj = parse_word("g%d" % i, n=n) * w * parse_word("g%d^-1" % i, n=n)
        assert trace_of_word(conj) == trace_of_word(w)
        tconj = parse_word("t", n=n) * w * parse_word("t^-1", n=n)
        assert trace_of_word(tconj) == trace_of_word(w)


def test_stabilization():
    rng = random.Random(52)
    for _ in range(8):
        n = rng.choice([2, 3])
        w = rand_word(rng, n, rng.randrange(1, 4))
        up = w.with_strands(n + 1)
        pos = up * parse_word("g%d" % n, n=n + 1)
        neg = up * parse_word("g%d^-1" % n, n=n + 1)
        base = trace_of_word(w)
        assert trace_of_word(pos) == base.scale(Z)
        assert trace_of_word(neg) == base.scale(lam() * Z)


def test_rotation_check_agrees():
    rng = random.Random(53)
    for _ in range(6):
        n = rng.choice([2, 3])
        w = rand_word(rng, n, rng.randrange(0, 5))
        assert trace_with_rotation_check(w) == trace_of_word(w)


def test_map_index():
    assert map_index(-1, 2) == 1
    assert map_index(-3, 2) == 3
    assert map_index(1, 2) == 3
    assert map_index(2, 2) == 2
    assert map_index(1, 3) == 5
    with pytest.raises(TraceDomainError):
        map_index(0, 2)
    with pytest.raises(TraceDomainError):
        map_index(3, 2)


def test_map_I():
    tv = TraceValue({(-2,): lam(), (-1, -1): Q})
    out = map_I(tv, 2)
    assert out == TraceValue({(2,): lam_pow(-1), (1, 1): QI})
    with pytest.raises(TraceDomainError):
        map_I(TraceValue({(3,): RF_ONE}), 2)


def test_bbm_coefficient():
    assert bbm_coefficient(0, 1) == Z.inverse()
    assert bbm_coefficient(2, 1) == lam_pow(2) / Z
    assert bbm_coefficient(1, -1) == Z.inverse()
    assert bbm_coefficient(0, -1) == lam_pow(-1) / Z
    for level in range(-3, 4):
        for sign in (1, -1):
            assert rf_invmap(bbm_coefficient(level, sign)) == bbm_coefficient(
                -level, -sign
            )


def test_bbm_equation_empty_source():
    eq = bbm_equation(LoopMonomial(()), 1, 2)
    assert eq.level == 0 and eq.p == 2 and eq.sign == 1
    assert eq.coeff == Z.inverse()
    assert eq.lhs == TraceValue({(): RF_ONE})
    assert eq.rhs == TraceValue({(2,): RF_ONE})
    assert eq.residual() == eq.lhs.sub(eq.rhs)


def test_bbm_equation_axis_source():
    eq = bbm_equation(LoopMonomial(((0, 1),)), 1, 2)
    assert eq.level == 1
    assert eq.coeff == lam() / Z
    assert eq.lhs == TraceValue({(1,): RF_ONE})
    assert eq.rhs == trace_of_word(parse_word("t^2 t1 g1", n=2)).scale(lam() / Z)
    assert set(eq.rhs.terms) == {(1, 2), (3,)}


def test_bbm_equation_negative_sign_coeff():
    eq = bbm_equation(LoopMonomial(((0, 1),)), -1, 3)
    assert eq.coeff == Z.inverse()
    eqm = bbm_equation(LoopMonomial(()), -1, 2)
    assert eqm.coeff == lam_pow(-1) / Z


def test_bbm_equation_cross_check_runs():
    # the closure identity the runtime coefficient check stands for,
    # derived per monomial: c(src) (lhs - rhs) = X(src) - X(img)
    zero = HalfTwistScalar.from_rf(rf_int(0))
    for p in (2, 3):
        for kk in (0, 1, 2):
            for m in enumerate_level(kk, "+"):
                for sign in (1, -1):
                    eq = bbm_equation(m, sign, p)
                    word_src = m.as_word()
                    x_src = invariant_x(word_src)
                    x_img = invariant_x(bbm_image(m, sign, p))
                    c_src = closure_scalar(word_src)
                    diff = eq.residual()
                    keys = set(diff.terms) | set(x_src.terms) | set(x_img.terms)
                    for k in keys:
                        want = c_src.scale(diff.coeff(k))
                        got = x_src.terms.get(k, zero) - x_img.terms.get(k, zero)
                        assert want == got, (str(m), sign, p, k)


def test_bbm_equation_rejects_wrong_coefficient(monkeypatch):
    def other_sign(level, sign):
        return bbm_coefficient(level, -sign)

    # the package rebinds heckeb.trace to the trace function
    trace_module = importlib.import_module("heckeb.trace")
    monkeypatch.setattr(trace_module, "bbm_coefficient", other_sign)
    for m in (LoopMonomial(()), LoopMonomial(((0, 1),))):
        for sign in (1, -1):
            with pytest.raises(RuntimeError):
                bbm_equation(m, sign, 2)
        with pytest.raises(RuntimeError):
            bbm_equation_pair(m, 2)
    # the lens job assembles its equations through the pair path
    for side in ("+", "-"):
        with pytest.raises(RuntimeError):
            generate_system(2, 1, side)


def test_pair_equations_own_their_traces():
    m = LoopMonomial(((0, 1),))
    want = trace_of_word(m.as_word())
    eq_plus, eq_minus = bbm_equation_pair(m, 2)
    assert (eq_plus.sign, eq_minus.sign) == (1, -1)
    eq_plus.lhs.add_term((1,), RF_ONE)
    eq_plus.lhs.terms[(7,)] = RF_ONE
    eq_plus.rhs.terms.clear()
    assert eq_minus.lhs == want
    assert eq_minus.rhs == bbm_equation(m, -1, 2).rhs
    assert trace_of_word(m.as_word()) == want
    b = generate_system(2, 1, "+")
    first, second = b.equations[:2]
    assert first.source == second.source
    first.lhs.terms.clear()
    assert second.lhs == TraceValue({(): RF_ONE})


def test_bbm_equation_to_json():
    data = bbm_equation(LoopMonomial(()), 1, 2).to_json()
    assert data["source"] == "1"
    assert data["sign"] == "+"
    assert data["p"] == 2
    assert data["level"] == 0
    assert data["coeff"] == {"num": "z^-1", "den": "1"}
    assert data["lhs"] == {"terms": [{"mono": "1", "coeff": {"num": "1", "den": "1"}}]}
    assert data["rhs"] == {
        "terms": [{"mono": "s[2]", "coeff": {"num": "1", "den": "1"}}]
    }


def test_invariant_x_display():
    x = invariant_x(parse_word("t^2 t1'^3", n=2))
    assert x.n == 2 and x.e == 0
    assert str(x) == "(((q)/(1 + z - q)) * w) * s[2]s[3]"


def test_invariant_x_parity():
    rng = random.Random(54)
    for _ in range(10):
        n = rng.choice([2, 3])
        w = rand_word(rng, n, rng.randrange(0, 5))
        x = invariant_x(w)
        odd = (x.n - 1 + x.e) % 2
        for _, scal in x.sorted_terms():
            if odd:
                assert scal.even.is_zero()
            else:
                assert scal.odd.is_zero()


def test_invariant_x_markov_moves():
    rng = random.Random(55)
    for _ in range(8):
        n = rng.choice([2, 3])
        w = rand_word(rng, n, rng.randrange(1, 4))
        i = rng.randrange(1, n)
        conj = parse_word("g%d" % i, n=n) * w * parse_word("g%d^-1" % i, n=n)
        assert invariant_x(conj) == invariant_x(w)
        up = w.with_strands(n + 1)
        assert invariant_x(up * parse_word("g%d" % n, n=n + 1)) == invariant_x(w)
        assert invariant_x(up * parse_word("g%d^-1" % n, n=n + 1)) == invariant_x(w)


def test_invariant_x_unknot_presentations():
    presentations = [
        parse_word("1", n=1),
        parse_word("g1", n=2),
        parse_word("g1^-1", n=2),
        parse_word("g1 g2", n=3),
    ]
    base = invariant_x(presentations[0])
    for w in presentations[1:]:
        assert invariant_x(w) == base


def test_invariant_x_permuted_exponents():
    # closures of commuting-family monomials with permuted exponents agree
    pairs = [
        ("t^2 t1'^3", "t^3 t1'^2", 2),
        ("t^-1 t1'^4", "t^4 t1'^-1", 2),
        ("t t1'^2 t2'^3", "t^3 t1' t2'^2", 3),
    ]
    for left, right, n in pairs:
        assert invariant_x(parse_word(left, n=n)) == invariant_x(
            parse_word(right, n=n)
        ), (left, right)

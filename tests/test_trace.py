"""Trace layer: closed forms, closure invariance, band move equations."""

import importlib
import json
import random

import pytest

from heckeb.algebra import project_braid, rmul_sigma
from heckeb.lens import generate_system
from heckeb.poly import pconst, pmul, ppow
from heckeb.scalars import (
    RF_ZERO,
    RatFunc,
    lam,
    rf_int,
    rf_invmap,
    rf_mono,
    rf_z,
)
from heckeb.trace import (
    Equation,
    TraceDomainError,
    TraceValue,
    XValue,
    _trace_cache,
    _trace_word,
    bbm_coefficient,
    bbm_equation,
    bbm_equation_pair,
    closure_scalar,
    invariant_x,
    map_I,
    map_index,
    trace,
    trace_of_word,
)
from heckeb.words import (
    LoopMonomial,
    MixedBraidWord,
    WordError,
    bbm_image,
    enumerate_level,
    parse_word,
)

Q = rf_mono(1, 1, 0)
QI = rf_mono(1, -1, 0)
Z = rf_z()
RF_ONE = rf_int(1)


def _minus(a, b):
    """a - b for trace values."""
    out = TraceValue(dict(a.terms))
    out.add_scaled(b, -RF_ONE)
    return out


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


def test_scale_and_add_scaled_match_term_by_term():
    # the batched products of scale and add_scaled against products rebuilt
    # through the RatFunc constructor and RatFunc +, one term at a time, on
    # coefficients over shared denominators
    rng = random.Random(27)

    def times(c, r):
        return RatFunc(pmul(c.num, r.num), pmul(c.den, r.den))

    n = RF_ONE + Z - Q
    dens = [RF_ONE, Q * Z, n, n * n, n * n * n * Q, (RF_ONE + Q * Q) * n]

    def coeff():
        return rf_int(rng.choice((-3, -1, 1, 2))) * rng.choice((RF_ONE, Q, n)) / rng.choice(dens)

    for _ in range(40):
        a = TraceValue({(j,): coeff() for j in rng.sample(range(1, 8), 4)})
        keys = rng.sample(range(1, 8), 4) + [rng.choice(list(a.terms))[0]]
        b = TraceValue({(j,): coeff() for j in keys})
        b_before = dict(b.terms)
        shared = next(m for m in b.terms if m in a.terms)
        # the last factor makes the shared monomial cancel to zero
        for r in (rng.choice(dens).inverse() * n, coeff(), -a.terms[shared] / b.terms[shared]):
            assert a.scale(r).terms == {m: times(c, r) for m, c in a.terms.items()}
            want = dict(a.terms)
            for m, c in b.terms.items():
                total = want.get(m, RF_ZERO) + times(c, r)
                if total.is_zero():
                    del want[m]
                else:
                    want[m] = total
            got = TraceValue(dict(a.terms))
            got.add_scaled(b, r)
            assert got.terms == want
            assert b.terms == b_before
        assert shared not in got.terms
        got.add_scaled(b, RF_ZERO)
        assert got.terms == want


def test_zero_trace_value_has_one_form():
    # a stored zero coefficient is zero to is_zero as it is to ==
    stored = TraceValue({(1,): RF_ZERO})
    assert stored == TraceValue() and stored.is_zero()
    assert not TraceValue({(1,): RF_ZERO, (2,): Q}).is_zero()
    # so zero has no parity from either side
    a = XValue(2, 0, TraceValue())
    b = XValue(2, 1, stored)
    assert a == b and b == a


def test_trace_value_stores_no_zero_coefficient():
    terms = {(1,): RF_ZERO, (2,): Q}
    assert TraceValue(terms).terms == {(2,): Q}
    # the constructor stores a copy and leaves its argument alone
    assert terms == {(1,): RF_ZERO, (2,): Q}


def test_residual_is_the_termwise_difference():
    eqs = [eq for m in enumerate_level(2) for eq in bbm_equation_pair(m, 2)]
    # one side of s[1] cancels and one of s[2] is left over
    lhs = TraceValue({(1,): Q, (2,): Z})
    eqs.append(Equation(LoopMonomial(()), 1, 2, RF_ONE, lhs, TraceValue({(1,): Q, (3,): Z})))
    for eq in eqs:
        lhs_before, rhs_before = dict(eq.lhs.terms), dict(eq.rhs.terms)
        want = {}
        for m in set(eq.lhs.terms) | set(eq.rhs.terms):
            d = eq.lhs.terms.get(m, RF_ZERO) - eq.rhs.terms.get(m, RF_ZERO)
            if not d.is_zero():
                want[m] = d
        assert eq.residual().terms == want
        assert (eq.lhs.terms, eq.rhs.terms) == (lhs_before, rhs_before)
    assert set(want) == {(2,), (3,)}


def test_trace_value_arithmetic():
    a = TraceValue({(1,): Q})
    b = TraceValue({(1,): RF_ONE, (2,): Z})
    total = TraceValue(dict(a.terms))
    total.add_scaled(b, RF_ONE)
    assert total == TraceValue({(1,): Q + RF_ONE, (2,): Z})
    assert _minus(a, a).is_zero()
    assert b.scale(Q).terms.get((2,), RF_ZERO) == Q * Z
    assert b.terms.get((5,), RF_ZERO) == rf_int(0)
    c = TraceValue()
    c.add_term((1,), Q)
    c.add_term((1,), -Q)
    assert c.is_zero() and c == TraceValue()


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
        up = MixedBraidWord(n + 1, w.letters)
        pos = up * parse_word("g%d" % n, n=n + 1)
        neg = up * parse_word("g%d^-1" % n, n=n + 1)
        base = trace_of_word(w)
        assert trace_of_word(pos) == base.scale(Z)
        assert trace_of_word(neg) == base.scale(lam() * Z)


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
    assert out == TraceValue({(2,): lam() ** -1, (1, 1): QI})
    with pytest.raises(TraceDomainError):
        map_I(TraceValue({(3,): RF_ONE}), 2)


def test_bbm_coefficient():
    assert bbm_coefficient(0, 1) == Z.inverse()
    assert bbm_coefficient(2, 1) == lam() ** 2 / Z
    assert bbm_coefficient(1, -1) == Z.inverse()
    assert bbm_coefficient(0, -1) == lam() ** -1 / Z
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
    assert eq.residual() == _minus(eq.lhs, eq.rhs)


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
    assert eqm.coeff == lam() ** -1 / Z


def test_bbm_equation_rejects_a_sign_other_than_one():
    m = LoopMonomial(((0, 1),))
    for sign in (0, 2):
        with pytest.raises(WordError):
            bbm_equation(m, sign, 2)


def test_bbm_equation_cross_check_runs():
    # the closure identity the runtime coefficient check stands for,
    # derived per monomial: c(src) (lhs - rhs) = X(src) - X(img), where
    # c(src) = r w^parity and both invariants carry that parity
    for p in (2, 3):
        for kk in (0, 1, 2):
            for m in enumerate_level(kk):
                for sign in (1, -1):
                    eq = bbm_equation(m, sign, p)
                    word_src = m.as_word()
                    x_src = invariant_x(word_src)
                    x_img = invariant_x(bbm_image(m, sign, p))
                    c_src, parity = closure_scalar(word_src)
                    assert x_src.parity == x_img.parity == parity
                    diff = eq.residual()
                    assert diff.scale(c_src) == _minus(x_src.terms, x_img.terms), (str(m), sign, p)


def test_bbm_equation_rejects_wrong_coefficient(monkeypatch):
    def other_sign(level, sign):
        return bbm_coefficient(level, -sign)

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
        assert x.parity == odd
        dead = "even" if odd else "odd"
        for term in x.to_json()["terms"]:
            assert term["coeff"][dead] == RF_ZERO.to_json()


def test_invariant_x_markov_moves():
    rng = random.Random(55)
    for _ in range(8):
        n = rng.choice([2, 3])
        w = rand_word(rng, n, rng.randrange(1, 4))
        i = rng.randrange(1, n)
        conj = parse_word("g%d" % i, n=n) * w * parse_word("g%d^-1" % i, n=n)
        assert invariant_x(conj) == invariant_x(w)
        up = MixedBraidWord(n + 1, w.letters)
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


# outputs recorded when the coefficients were even + odd*w field elements;
# the parity-bit form must print them byte for byte
X_GOLDEN = {
    "1": (
        '{"e": 0, "n": 2, "terms": [{"coeff": {"even": {"den": "1", "num": "0"}, '
        '"odd": {"den": "1 + z - q", "num": "q"}}, "mono": "1"}]}',
        "(((q)/(1 + z - q)) * w) * 1",
    ),
    "g1": (
        '{"e": 1, "n": 2, "terms": [{"coeff": {"even": {"den": "1", "num": "1"}, '
        '"odd": {"den": "1", "num": "0"}}, "mono": "1"}]}',
        "(1) * 1",
    ),
    "t1^-1": (
        '{"e": -2, "n": 2, "terms": [{"coeff": {"even": {"den": "1", "num": "0"}, '
        '"odd": {"den": "1 + 2*z + z^2 - 2*q - 2*q*z + q^2", '
        '"num": "z + z^2 - q*z - q*z^2 + q^2*z"}}, "mono": "s[-1]"}]}',
        "(((z + z^2 - q*z - q*z^2 + q^2*z)/(1 + 2*z + z^2 - 2*q - 2*q*z + q^2))"
        " * w) * s[-1]",
    ),
}


def test_invariant_x_recorded_output():
    for text, (want_json, want_str) in X_GOLDEN.items():
        x = invariant_x(parse_word(text, n=2))
        assert json.dumps(x.to_json(), sort_keys=True) == want_json, text
        assert str(x) == want_str, text


def test_xvalue_equality_compares_parity():
    terms = {(1,): lam(), (): Q}
    even, odd = XValue(2, 1, TraceValue(dict(terms))), XValue(2, 0, TraceValue(dict(terms)))
    assert (even.parity, odd.parity) == (0, 1)
    assert even != odd
    assert even == XValue(3, 0, TraceValue(dict(terms)))
    assert odd == XValue(1, 1, TraceValue(dict(terms)))
    # explicit zero coefficients do not count, and zero has no parity
    assert even == XValue(2, 1, TraceValue({**terms, (5,): RF_ZERO}))
    assert XValue(2, 0, TraceValue()) == XValue(2, 1, TraceValue({(1,): RF_ZERO}))


def _slow_trace(el):
    """Sum c * tr(word) term by term, without grouping shared values."""
    out = TraceValue()
    for (loops, perm), c in el.terms.items():
        for m, v in _trace_word(el.n, loops, perm).items():
            out.add_term(m, RatFunc(pmul(c, v)))
    return out


def test_trace_matches_per_term_sum_on_random_elements():
    rng = random.Random(57)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        el = project_braid(rand_word(rng, n, rng.randrange(0, 6)))
        # a difference of two elements makes coefficients cancel
        other = project_braid(rand_word(rng, n, rng.randrange(0, 4)))
        minus = other.scale(pconst(-1))
        for x in (el, el.add(other), el.add(minus), other.add(minus)):
            assert trace(x) == _slow_trace(x)


def test_trace_matches_per_term_sum_on_band_move_images():
    for p in (2, 3, 4):
        for level in range(4):
            for side in (1, -1):
                for m in enumerate_level(side * level):
                    img = bbm_image(m, 1, p)
                    stem = project_braid(MixedBraidWord(img.n, img.letters[:-1]))
                    for sign in (1, -1):
                        el = rmul_sigma(stem, 1, sign)
                        assert trace(el) == _slow_trace(el), (p, str(m), sign)


def test_equal_trace_values_are_one_object():
    # t^2 g1 and t t1' g1 close to the same value by different peelings
    a = _trace_word(2, ((0, 2),), (1, 0))
    assert a is _trace_word(2, ((0, 1), (1, 1)), (1, 0))
    assert a == {(2,): {(0, 1): 1}}  # z s[2]
    shared = {}
    for v in list(_trace_cache.values()):
        key = frozenset((m, frozenset(c.items())) for m, c in v.items())
        assert shared.setdefault(key, v) is v
    assert len(shared) < len(_trace_cache)


def test_replayed_queries_answer_the_same():
    # many cache keys share one interned value, so a caller that mutated
    # a cached value would change every later answer built from it
    rng = random.Random(58)
    queries = []
    for i in range(30):
        n = rng.choice([2, 3, 4])
        w = rand_word(rng, n, rng.randrange(1, 6))
        queries.append(((project_braid, trace_of_word, invariant_x)[i % 3], w))

    def answer():
        return [json.dumps(fn(w).to_json(), sort_keys=True) for fn, w in queries]

    first = answer()
    assert answer() == first


def test_mutated_answers_do_not_change_later_answers():
    # the letter kernels store a caller's coefficient dict under new keys;
    # storing a memoized table entry instead would let this mutation leak
    rng = random.Random(59)
    words = []
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        words.append(rand_word(rng, n, rng.randrange(1, 7)))

    def vandalize(coeff):
        for k in list(coeff):
            coeff[k] += 7
        coeff[(11, 3)] = 5

    for fn in (project_braid, trace_of_word):
        first = [json.dumps(fn(w).to_json(), sort_keys=True) for w in words]
        for w in words:
            for c in fn(w).terms.values():
                if isinstance(c, RatFunc):
                    vandalize(c.num)
                    vandalize(c.den)
                else:
                    vandalize(c)
        again = [json.dumps(fn(w).to_json(), sort_keys=True) for w in words]
        assert again == first, fn.__name__


def test_closed_form_trace_of_unprimed_loops():
    # t_j = g_j t_{j-1} g_j; the quadratic relation and tr(X g_j) = z tr(X)
    # give tr(t_j) = (q - 1) z tr(t_{j-1}) + q tr(t_{j-1})
    step = {(1, 1): 1, (1, 0): 1, (0, 1): -1}  # q z + q - z
    for j in range(1, 9):
        want = TraceValue({(1,): RatFunc(ppow(step, j))})
        assert trace_of_word(parse_word("t%d" % j)) == want, j

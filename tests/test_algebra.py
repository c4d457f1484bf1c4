"""Algebra engine: permutation tails, loop swaps, and defining relations."""

import copy
import itertools
import random

import pytest

from heckeb import algebra as A
from heckeb import poly as P
from heckeb.words import WordError, bbm_image, enumerate_level, parse_word

ONE_M_QI = {(0, 0): 1, (-1, 0): -1}
Q_M1 = {(1, 0): 1, (0, 0): -1}  # q - 1
QI_M1 = {(-1, 0): 1, (0, 0): -1}  # q^-1 - 1


def fold(el, letters):
    for k, i, e in letters:
        el = A.rmul_letter(el, k, i, e)
    return el


def rand_word(rng, n, length):
    letters = []
    for _ in range(length):
        kind = rng.choice(["sigma", "loop", "ploop"])
        if kind == "sigma":
            letters.append(("sigma", rng.randrange(1, n), rng.choice([-1, 1])))
        else:
            letters.append((kind, rng.randrange(0, n), rng.choice([-2, -1, 1, 2])))
    return letters


def sandwich_equal(rng, n, lhs, rhs, samples=10, maxlen=5):
    """Check lhs = rhs as operators: a * lhs * b == a * rhs * b."""
    for _ in range(samples):
        a = rand_word(rng, n, rng.randrange(0, maxlen))
        b = rand_word(rng, n, rng.randrange(0, maxlen))
        ea = fold(A.AlgebraElement.one(n), a)
        if fold(fold(ea, lhs), b) != fold(fold(ea, rhs), b):
            return False
    return True


def test_perm_blocks_rebuild():
    for n in range(1, 6):
        for w in itertools.permutations(range(n)):
            bl = A.perm_blocks(w)
            assert A.perm_of_blocks(bl, n) == w
            heads = [h for h, _ in bl]
            assert heads == sorted(heads) and len(set(heads)) == len(heads)
            assert sum(length for _, length in bl) == A.perm_len(w)


def test_swap_loops_closed_form():
    # t1' t^e = t^e t1' + (1 - q^-1) t^e t1' g1 - (1 - q^-1) t1'^{e+1} g1
    for e in (1, 2, 3, -1, -2, 5):
        got = {(a, b, g): c for c, a, b, g in A.swap_loops(1, e)}
        want = {
            (e, 1, 0): P.pconst(1),
            (e, 1, 1): dict(ONE_M_QI),
            (0, e + 1, 1): P.pneg(ONE_M_QI),
        }
        assert got == want


def test_swap_loops_q1_degeneration():
    # at q = 1 the families commute: all weight lands on the plain swap
    for K in range(-4, 5):
        if K == 0:
            continue
        for e in (-3, -1, 1, 2, 4):
            acc = {}
            for c, a, b, g in A.swap_loops(K, e):
                val = sum(c.values())
                if val:
                    acc[(a, b, g)] = acc.get((a, b, g), 0) + val
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {(e, K, 0): 1}, (K, e)


def _two_strand(terms):
    """A two-strand element from {(a, b, g): coeff} for t^a t1'^b g1^g."""
    el = A.AlgebraElement(2)
    for (a, b, g), c in terms.items():
        loops = tuple((j, x) for j, x in ((0, a), (1, b)) if x)
        el.add_term(loops, (1, 0) if g else (0, 1), c)
    return el


def test_unprime_loop_unit_powers():
    # t1 = q t1' + (q-1) t1' g1;
    # t1^-1 = q^-1 t1'^-1 + (q^-2 - q^-1) t^-1 g1 + (q^-1 - 1)^2 t^-1
    assert A.unprime_loop(1) == _two_strand(
        {(0, 1, 0): {(1, 0): 1}, (0, 1, 1): Q_M1}
    )
    assert A.unprime_loop(-1) == _two_strand(
        {
            (0, -1, 0): {(-1, 0): 1},
            (-1, 0, 1): {(-2, 0): 1, (-1, 0): -1},
            (-1, 0, 0): P.pmul(QI_M1, QI_M1),
        }
    )


def test_unprime_loop_q1_degeneration():
    # at q = 1 the braiding is a plain transposition and t1 = t1'
    for K in range(-6, 7):
        if K == 0:
            continue
        at_one = {}
        for key, c in A.unprime_loop(K).terms.items():
            val = sum(c.values())
            if val:
                at_one[key] = val
        assert at_one == {(((1, K),), (0, 1)): 1}, K


def test_unprime_loop_exponent_limit():
    # the largest |K| is built; one more is refused before any recursion
    # or caching
    for K in (A.LOOP_EXP_MAX, -A.LOOP_EXP_MAX):
        assert len(A.unprime_loop(K).terms) == 2 * abs(K) + (K < 0)
    for K in (A.LOOP_EXP_MAX + 1, -A.LOOP_EXP_MAX - 1):
        cached = dict(A._unprime_cache)
        with pytest.raises(WordError):
            A.unprime_loop(K)
        assert A._unprime_cache == cached


def test_braiding_power_limit():
    # gi^k stays two terms, T_1 and gi, with coefficients of up to |k|
    # terms; the largest |k| is built, one more is refused
    el = A.rmul_letter(A.AlgebraElement.one(2), "sigma", 1, A.BRAID_EXP_MAX)
    assert sorted(perm for _, perm in el.terms) == [(0, 1), (1, 0)]
    assert max(len(c) for c in el.terms.values()) == A.BRAID_EXP_MAX
    for k in (A.BRAID_EXP_MAX + 1, -A.BRAID_EXP_MAX - 1):
        with pytest.raises(WordError, match="braiding power"):
            A.rmul_letter(A.AlgebraElement.one(3), "sigma", 2, k)


def test_loop_power_limit(monkeypatch):
    # LOOP_POWER_MAX[j] bounds |e| of tj^e for j >= 1, separately for
    # positive and inverse powers; each word at a limit is built, one
    # more unit of |e| is refused before any multiplication
    assert len(A.LOOP_POWER_MAX) == 16  # t15 is the last loop on 16 strands
    for j, e in ((10, 2), (7, -1), (1, 65), (1, -65)):
        assert abs(e) == A.LOOP_POWER_MAX[j][e < 0]
        A.project_braid(parse_word("t%d^%d" % (j, e)))

    def no_work(*args):
        raise AssertionError("multiplied before the bound check")

    monkeypatch.setattr(A, "rmul_sigma", no_work)
    for text in ("t2^21", "t2^-17", "t10^3", "t7^-2", "t9^-1", "t15^-1", "t1^66", "t1^-66"):
        with pytest.raises(WordError, match="loop power " + text.replace("^", r"\^")):
            A.project_braid(parse_word(text))


def test_band_move_words_within_loop_power_limit():
    # lens jobs multiply positive loop powers only (negative sources are
    # traced through the exponent flip); every source and image of level
    # <= 8 is within the limits
    for level in range(9):
        for m in enumerate_level(level):
            for w in (m.as_word(), bbm_image(m, 1, 2)):
                for kind, j, e in w.letters:
                    if kind == "loop" and j >= 2:
                        assert e <= A.LOOP_POWER_MAX[j][0], str(w)


def test_swap_loops_solve_the_commutation():
    # t^e t1^K = t1^K t^e: the left side needs only the +-1 swaps,
    # the right side the swap_loops(K', e) tables with |K'| <= |K|
    for K in [k for k in range(-5, 6) if k]:
        for e in [x for x in range(-4, 5) if x]:
            left = A.project_braid(parse_word("t^%d t1^%d" % (e, K), n=2))
            right = A.project_braid(parse_word("t1^%d t^%d" % (K, e), n=2))
            assert left == right, (K, e)


def test_braid_relation():
    rng = random.Random(41)
    assert sandwich_equal(
        rng, 3,
        [("sigma", 1, 1), ("sigma", 2, 1), ("sigma", 1, 1)],
        [("sigma", 2, 1), ("sigma", 1, 1), ("sigma", 2, 1)],
    )


def test_far_commutation():
    rng = random.Random(42)
    assert sandwich_equal(
        rng, 4,
        [("sigma", 1, 1), ("sigma", 3, 1)],
        [("sigma", 3, 1), ("sigma", 1, 1)],
        samples=6, maxlen=4,
    )


def test_mixed_relation():
    rng = random.Random(43)
    assert sandwich_equal(
        rng, 2,
        [("sigma", 1, 1), ("loop", 0, 1), ("sigma", 1, 1), ("loop", 0, 1)],
        [("loop", 0, 1), ("sigma", 1, 1), ("loop", 0, 1), ("sigma", 1, 1)],
    )


def test_axis_commutes_past_far_braiding():
    rng = random.Random(44)
    assert sandwich_equal(
        rng, 3,
        [("loop", 0, 1), ("sigma", 2, 1)],
        [("sigma", 2, 1), ("loop", 0, 1)],
    )


def test_inverses():
    rng = random.Random(45)
    assert sandwich_equal(rng, 3, [("sigma", 1, 1), ("sigma", 1, -1)], [])
    assert sandwich_equal(rng, 3, [("loop", 0, 1), ("loop", 0, -1)], [])
    assert sandwich_equal(rng, 2, [("loop", 1, 2), ("loop", 1, -2)], [])
    assert sandwich_equal(rng, 2, [("ploop", 1, 1), ("ploop", 1, -1)], [])


def test_quadratic_relation():
    el = A.AlgebraElement.one(2)
    lhs = A.rmul_sigma(A.rmul_sigma(el, 1, 1), 1, 1)
    rhs = A.rmul_sigma(el, 1, 1).scale({(1, 0): 1, (0, 0): -1}).add(
        el.scale({(1, 0): 1})
    )
    assert lhs == rhs


def test_loop_commutations():
    rng = random.Random(46)
    assert sandwich_equal(
        rng, 2, [("loop", 1, 1), ("loop", 0, 1)], [("loop", 0, 1), ("loop", 1, 1)]
    )
    assert sandwich_equal(
        rng, 3, [("loop", 2, 1), ("loop", 1, 1)], [("loop", 1, 1), ("loop", 2, 1)],
        samples=5, maxlen=4,
    )


def test_band_generator_two_spellings():
    for M in (1, 2, 3):
        n = M + 1
        w1 = (
            [("sigma", i, 1) for i in range(M, 1, -1)]
            + [("sigma", 1, 1)]
            + [("sigma", i, -1) for i in range(2, M + 1)]
        )
        w2 = (
            [("sigma", i, -1) for i in range(1, M)]
            + [("sigma", M, 1)]
            + [("sigma", i, 1) for i in range(M - 1, 0, -1)]
        )
        assert fold(A.AlgebraElement.one(n), w1) == fold(A.AlgebraElement.one(n), w2)


def _ref_tail_lmul(tails, i, sign):
    """Left multiply a {perm: coeff} table by gi^{sign}, letter by letter.

    The rule on values: gi T_w is T_{si w} when w^-1 ascends at i (the
    values i-1, i appear in order), else (q - 1) T_w + q T_{si w}; the
    inverse letter mirrors it with q^-1.
    """
    out = {}
    for perm, c in tails.items():
        asc = perm.index(i - 1) < perm.index(i)
        other = tuple(i if x == i - 1 else i - 1 if x == i else x for x in perm)
        if sign > 0:
            if asc:
                _ref_add(out, other, c)
            else:
                _ref_add(out, perm, P.pmul(c, Q_M1))
                _ref_add(out, other, P.pshift(c, 1, 0))
        else:
            if asc:
                _ref_add(out, other, P.pshift(c, -1, 0))
                _ref_add(out, perm, P.pmul(c, QI_M1))
            else:
                _ref_add(out, other, c)
    return out


def test_tail_table_scales_per_coefficient():
    # expanding {perm: c} letter by letter from the left equals c times
    # the memoized table, which rmul_sigma builds from the right
    rng = random.Random(42)
    n = 4
    c = {(-1, 0): 3, (0, 0): -1, (2, 0): 2}
    tails = [(), ((1, 1),), ((2, -1), (1, 1), (2, 1)), ((3, 1), (2, 1))]
    for w in itertools.permutations(range(n)):
        tail = rng.choice(tails) + rng.choice(tails)
        direct = {w: c}
        for j, sgn in reversed(tail):
            direct = _ref_tail_lmul(direct, j, sgn)
        scaled = {pm: P.pmul(c, t) for pm, t in A._tail_table(w, tail)}
        assert scaled == direct, (w, tail)


def test_tail_monomial_rule():
    # T_w t^e = t'^e at the tail head, times T_w, for every w in S_4
    n = 4
    for w in itertools.permutations(range(n)):
        h = A.axis_head(w)
        ew = A.AlgebraElement.word(n, (), w)
        for e in (1, -2):
            left = A.rmul_axis(ew, e)
            right = A.rmul_ploop(A.AlgebraElement.one(n), h, e)
            for i in A.block_letters(A.perm_blocks(w)):
                right = A.rmul_sigma(right, i, 1)
            assert left == right, (w, h, e)


def test_projection_identities():
    pairs = [
        ("g1 t", "t1' g1", 2),
        ("t1", "g1 t g1", 2),
        ("t2", "g2 g1 t g1 g2", 3),
        ("t1'", "g1 t g1^-1", 2),
    ]
    for left, right, n in pairs:
        el = A.project_braid(parse_word(left, n=n))
        er = A.project_braid(parse_word(right, n=n))
        assert el == er, (left, right)


def test_t1_canonical_expansion():
    el = A.project_braid(parse_word("t1", n=2))
    assert str(el) == "(q) * t1' + (-1 + q) * t1' g1"
    data = el.to_json()
    assert data["n"] == 2
    assert data["terms"] == [
        {"coeff": "q", "loops": [[1, 1]], "tail": []},
        {"coeff": "-1 + q", "loops": [[1, 1]], "tail": [[1, 1]]},
    ]


def test_canonical_word_str():
    assert A.canonical_word_str((), (0, 1, 2)) == "1"
    assert A.canonical_word_str(((0, 2), (1, 1)), (0, 1)) == "t0'^2 t1'"
    assert A.canonical_word_str(((0, 1),), (1, 0)) == "t0' g1"


def test_element_arithmetic():
    rng = random.Random(48)
    n = 3
    a = fold(A.AlgebraElement.one(n), rand_word(rng, n, 4))
    b = fold(A.AlgebraElement.one(n), rand_word(rng, n, 4))
    assert a.add(b) == b.add(a)
    assert not a.add(a.scale(P.pconst(-1))).terms
    assert a.add(A.AlgebraElement(n)) == a
    two_a = a.scale(P.pconst(2))
    assert two_a == a.add(a)
    with pytest.raises(WordError):
        A.rmul_sigma(A.AlgebraElement.one(2), 2, 1)


# -- the fused letter kernels against the per-term path -------------------------


def _ref_add(terms, key, c):
    """One term at a time, as AlgebraElement.add_term: drop zero sums."""
    if not c:
        return
    cur = terms.get(key)
    if cur is None:
        terms[key] = c
        return
    s = P.padd(cur, c)
    if not s:
        del terms[key]
    else:
        terms[key] = s


def _ref_rmul_sigma(el, i, sign):
    out = {}
    for (loops, perm), c in el.terms.items():
        asc = perm[i - 1] < perm[i]
        other = A._swap_right(perm, i)
        if sign > 0:
            if asc:
                _ref_add(out, (loops, other), c)
            else:
                _ref_add(out, (loops, perm), P.pmul(c, Q_M1))
                _ref_add(out, (loops, other), P.pshift(c, 1, 0))
        else:
            if asc:
                _ref_add(out, (loops, other), P.pshift(c, -1, 0))
                _ref_add(out, (loops, perm), P.pmul(c, QI_M1))
            else:
                _ref_add(out, (loops, other), c)
    return A.AlgebraElement(el.n, out)


def _ref_rmul_axis(el, e):
    out = {}
    for (loops, perm), c in el.terms.items():
        for cf, loops2, tail in A.insert_loop(loops, A.axis_head(perm), e):
            cc = P.pmul(c, cf)
            if not tail:
                _ref_add(out, (loops2, perm), cc)
                continue
            for pm, t in A._tail_table(perm, tail):
                _ref_add(out, (loops2, pm), P.pmul(cc, t))
    return A.AlgebraElement(el.n, out)


def _rand_coeff(rng):
    c = {}
    for _ in range(rng.randrange(1, 5)):
        k = (rng.randrange(-4, 5), 0)
        c[k] = c.get(k, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    c = {k: v for k, v in c.items() if v}
    return c or P.pconst(1)


def _rand_loops(rng, n):
    idxs = sorted(rng.sample(range(n), rng.randrange(0, n + 1)))
    return tuple((j, rng.choice([-3, -2, -1, 1, 2, 3])) for j in idxs)


def _rand_element(rng, n, i=None, sign=1):
    """Random terms; with a letter gi^sign, pairs that cancel after it."""
    perms = list(itertools.permutations(range(n)))
    el = A.AlgebraElement(n)
    for _ in range(rng.randrange(1, 7)):
        el.add_term(_rand_loops(rng, n), rng.choice(perms), _rand_coeff(rng))
    if i is None:
        return el
    for _ in range(rng.randrange(1, 4)):
        loops = _rand_loops(rng, n)
        w = rng.choice(perms)
        c = _rand_coeff(rng)
        ws = A._swap_right(w, i)
        # c on w and -c on w si: the swap lands them on each other's word
        el.add_term(loops, w, c)
        el.add_term(loops, ws, P.pneg(c))
        # the split side's (q^e - 1) c cancels the plain side exactly
        asc = w[i - 1] < w[i]
        split, plain = (ws, w) if asc == (sign > 0) else (w, ws)
        e = 1 if sign > 0 else -1
        loops = _rand_loops(rng, n)
        el.add_term(loops, split, c)
        el.add_term(loops, plain, P.pneg(P.pmul(c, Q_M1 if e > 0 else QI_M1)))
    return el


def _assert_fused_matches(fused, ref, el, before):
    assert el.terms == before, "the kernel changed its input"
    assert all(fused.terms.values()), "zero coefficient stored"
    assert fused == ref


def test_rmul_sigma_matches_per_term_path():
    rng = random.Random(71)
    for n in range(2, 6):
        for i in range(1, n):
            for sign in (1, -1):
                for _ in range(12):
                    el = _rand_element(rng, n, i, sign)
                    before = copy.deepcopy(el.terms)
                    ref = _ref_rmul_sigma(el, i, sign)
                    _assert_fused_matches(A.rmul_sigma(el, i, sign), ref, el, before)


def test_rmul_axis_matches_per_term_path():
    rng = random.Random(72)
    for n in range(2, 6):
        for e in (1, -1, 2, -2, 0):
            for _ in range(15):
                el = _rand_element(rng, n)
                before = copy.deepcopy(el.terms)
                ref = _ref_rmul_axis(el, e)
                _assert_fused_matches(A.rmul_axis(el, e), ref, el, before)
                assert e or ref == el

"""Algebra engine: permutation tails, loop swaps, and defining relations."""

import itertools
import random

import pytest

from heckeb import algebra as A
from heckeb import poly as P
from heckeb.words import WordError, parse_word

ONE_M_QI = {(0, 0): 1, (-1, 0): -1}


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
        assert set(got) == set(want)
        for k in want:
            assert P.peq(got[k], want[k])


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


def test_times_qm1_matches_pmul():
    rng = random.Random(41)
    for _ in range(100):
        c = {}
        for _ in range(rng.randrange(0, 20)):
            e = rng.randrange(-8, 9)
            v = c.get((e, 0), 0) + rng.randint(-5, 5)
            c[(e, 0)] = v
        c = {k: v for k, v in c.items() if v}
        assert A._times_qm1(c, 1) == P.pmul(c, A._Q1)
        assert A._times_qm1(c, -1) == P.pmul(c, A._QI1)


def test_tail_table_scales_per_coefficient():
    # expanding {perm: c} letter by letter equals c times the memoized table
    rng = random.Random(42)
    n = 4
    c = {(-1, 0): 3, (0, 0): -1, (2, 0): 2}
    tails = [(), ((1, 1),), ((2, -1), (1, 1), (2, 1)), ((3, 1), (2, 1))]
    for w in itertools.permutations(range(n)):
        tail = rng.choice(tails) + rng.choice(tails)
        direct = {w: c}
        for j, sgn in reversed(tail):
            direct = A._tail_lmul(direct, j, sgn)
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


def test_mul_matches_letter_fold():
    rng = random.Random(47)
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        wa = rand_word(rng, n, rng.randrange(0, 5))
        wb = rand_word(rng, n, rng.randrange(0, 5))
        ea = fold(A.AlgebraElement.one(n), wa)
        eb = fold(A.AlgebraElement.one(n), wb)
        assert A.mul(ea, eb) == fold(ea, wb)


def test_element_arithmetic():
    rng = random.Random(48)
    n = 3
    a = fold(A.AlgebraElement.one(n), rand_word(rng, n, 4))
    b = fold(A.AlgebraElement.one(n), rand_word(rng, n, 4))
    assert a.add(b) == b.add(a)
    assert a.sub(a).is_zero()
    assert a.add(A.AlgebraElement.zero(n)) == a
    two_a = a.scale(P.pconst(2))
    assert two_a == a.add(a)
    with pytest.raises(WordError):
        A.rmul_sigma(A.AlgebraElement.one(2), 2, 1)

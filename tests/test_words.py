"""Word layer: parsing, enumeration, ordering, and band moves."""

import random

import pytest

from heckeb.words import (
    LoopMonomial,
    MixedBraidWord,
    WordError,
    bbm_image,
    compare_order,
    enumerate_abs_level,
    enumerate_level,
    f_map_word,
    loop_monomial_of_word,
    order_key,
    parse_word,
    sigma_exponent_sum,
    word_to_json,
    word_to_text,
)


def test_parse_basic():
    w = parse_word("t^2 t1'^3 g2^-1")
    assert w.letters == (("loop", 0, 2), ("ploop", 1, 3), ("sigma", 2, -1))
    assert w.n == 3
    assert parse_word("t", n=4).n == 4
    assert parse_word("1", n=2).letters == ()


def test_parse_errors():
    for bad in ["g0", "x3", "t^", "t1(", "g2^+"]:
        with pytest.raises(WordError):
            parse_word(bad)
    with pytest.raises(WordError):
        parse_word("g3", n=3)  # braid index needs n >= 4


def test_strand_limit():
    assert parse_word("t15").n == 16
    for text, n in (("t16", None), ("1", 17), ("t99999", None)):
        with pytest.raises(WordError):
            parse_word(text, n=n)


def test_text_roundtrip():
    rng = random.Random(31)
    kinds = ("sigma", "loop", "ploop")
    for _ in range(100):
        n = rng.randint(2, 5)
        letters = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.choice(kinds)
            if kind == "sigma":
                letters.append(("sigma", rng.randint(1, n - 1), rng.choice((-2, -1, 1, 2))))
            else:
                letters.append((kind, rng.randint(0, n - 1), rng.choice((-2, -1, 1, 2))))
        w = MixedBraidWord(n, tuple(letters))
        assert parse_word(word_to_text(w), n=n) == w
        data = word_to_json(w)
        tokens = ["%s^%d" % (base, e) for base, e in data["letters"]]
        assert parse_word(" ".join(tokens) or "1", n=data["n"]) == w


def test_inverse_and_mul():
    w = parse_word("t g1 t1'^2", n=3)
    v = parse_word("g2^-1 t^3", n=3)
    wv = w * v
    assert wv.letters == w.letters + v.letters
    assert sigma_exponent_sum(w.inverse()) == -sigma_exponent_sum(w)
    assert w.inverse().letters == (("ploop", 1, -2), ("sigma", 1, -1), ("loop", 0, -1))


def test_sigma_exponent_sum_counts_loop_strings():
    # ti^k hides 2*i*k braidings; ti'^k hides none
    assert sigma_exponent_sum(parse_word("t2^3", n=3)) == 12
    assert sigma_exponent_sum(parse_word("t2'^3", n=3)) == 0
    assert sigma_exponent_sum(parse_word("t^5 g1^-2 t1^-1", n=2)) == -4


def test_f_map_flips_every_exponent():
    w = parse_word("t^2 g1 g2^-1 t1'^3", n=3)
    fw = f_map_word(w)
    assert fw.letters == (("loop", 0, -2), ("sigma", 1, -1), ("sigma", 2, 1), ("ploop", 1, -3))
    assert sigma_exponent_sum(fw) == -sigma_exponent_sum(w)
    assert f_map_word(fw) == w


def test_loop_monomial_of_word():
    m = loop_monomial_of_word(parse_word("t^2 t1 t2^3", n=3))
    assert m.entries == ((0, 2), (1, 1), (2, 3))
    assert m.level == 6
    assert not m.primed
    # the axis belongs to both families, so t^a t1'^b reads as primed
    assert loop_monomial_of_word(parse_word("t^2 t1'^3")).primed
    with pytest.raises(WordError):
        loop_monomial_of_word(parse_word("t g1", n=2))
    with pytest.raises(WordError):
        loop_monomial_of_word(parse_word("t1 t2'", n=3))


def test_loop_monomial_validation():
    with pytest.raises(WordError):
        LoopMonomial(((1, 1), (1, 2)))  # indices must increase strictly
    with pytest.raises(WordError):
        LoopMonomial(((0, 0),))  # zero exponent
    with pytest.raises(WordError):
        LoopMonomial(((-1, 1),))


def test_loop_monomial_shape():
    m = LoopMonomial(((0, 1), (2, 2)), primed=False)
    assert m.top_index == 2
    assert not m.gap_free
    assert m.abs_level == 3 and m.level == 3
    assert LoopMonomial(((0, 1), (1, 2))).gap_free
    assert LoopMonomial(((0, 1), (1, -2))).flip().entries == ((0, -1), (1, 2))
    assert LoopMonomial(()).top_index == -1
    assert LoopMonomial(()).gap_free


def test_as_word_strands():
    m = LoopMonomial(((0, 2), (1, 1)), primed=True)
    w = m.as_word()
    assert w.n == 2
    # the index-0 letter is the axis itself, spelled t in both families
    assert w.letters == (("loop", 0, 2), ("ploop", 1, 1))
    assert m.as_word(n=4).n == 4
    assert str(m) == "t^2 t1'"


def test_enumerate_level_counts():
    for k in range(1, 9):
        assert len(enumerate_level(k, "+")) == 2 ** (k - 1)
    assert enumerate_level(0, "+") == [LoopMonomial((), primed=False)]


def test_enumerate_level_contents():
    pos = enumerate_level(3, "+")
    assert {tuple(e for _, e in m.entries) for m in pos} == {
        (3,), (1, 2), (2, 1), (1, 1, 1)
    }
    for m in pos:
        assert m.gap_free and m.level == 3 and not m.primed
    with pytest.raises(WordError):
        enumerate_level(3, "-")  # the negative side takes the signed sum
    neg = enumerate_level(-3, "-")
    assert {m.entries for m in neg} == {m.flip().entries for m in pos}
    for m in neg:
        assert m.level == -3


def test_enumerate_level_bounds():
    assert len(enumerate_level(16, "+")) == 2 ** 15
    for k, side in ((17, "+"), (-17, "-"), (40, "+")):
        with pytest.raises(WordError):
            enumerate_level(k, side)
    with pytest.raises(WordError):
        enumerate_level(2, "ordered")


def test_enumerate_abs_level():
    # the ordered family: gap-free, nondecreasing nonzero exponents
    out = enumerate_abs_level(2, 2, primed=True)
    seen = {m.entries for m in out}
    assert seen == {
        (),
        ((0, -1),),
        ((0, 1),),
        ((0, -2),),
        ((0, 2),),
        ((0, -1), (1, -1)),
        ((0, -1), (1, 1)),
        ((0, 1), (1, 1)),
    }
    for m in out:
        assert m.abs_level <= 2 and m.top_index <= 1
        assert m.gap_free
        assert m.primed
    plain = enumerate_abs_level(2, 2, primed=False)
    assert {m.entries for m in plain} == seen
    assert not any(m.primed for m in plain)


def test_compare_order_examples():
    # lower exponent sum first; gaps lower the order; higher top exponent wins
    t2 = LoopMonomial(((0, 2),), primed=True)
    tt1 = LoopMonomial(((0, 1), (1, 1)), primed=True)
    assert compare_order(t2, tt1) < 0
    assert compare_order(tt1, t2) > 0
    gap = LoopMonomial(((0, 1), (2, 1)), primed=True)
    assert compare_order(gap, tt1) < 0
    a = LoopMonomial(((0, 2), (1, 2)), primed=True)
    b = LoopMonomial(((0, 1), (1, 3)), primed=True)
    assert compare_order(a, b) < 0
    assert compare_order(tt1, tt1) == 0
    # signed exponent sum decides first: level -1 sits below level 1
    pos = LoopMonomial(((0, 1),), primed=True)
    neg = LoopMonomial(((0, -1),), primed=True)
    assert compare_order(neg, pos) < 0
    # at equal sum, |exponent| from the top index down, positive smaller
    a = LoopMonomial(((0, 1), (1, -1)), primed=True)
    b = LoopMonomial(((0, -1), (1, 1)), primed=True)
    assert compare_order(b, a) < 0


def test_order_key_total_on_level():
    pool = enumerate_level(4, "+")
    ranked = sorted(pool, key=order_key)
    for i in range(len(ranked) - 1):
        assert compare_order(ranked[i], ranked[i + 1]) < 0
        assert compare_order(ranked[i + 1], ranked[i]) > 0


def test_order_key_matches_compare_order_on_random_pairs():
    # negative exponents, gaps and unequal lengths; small ranges so that
    # exponent sums, index sets and absolute exponents often tie
    rng = random.Random(31)

    def rand_profile():
        idx = tuple(sorted(rng.sample(range(4), rng.randrange(0, 4))))
        return idx, tuple(rng.choice([-2, -1, 1, 2]) for _ in idx)

    for _ in range(3000):
        a, b = rand_profile(), rand_profile()
        ka, kb = order_key(a), order_key(b)
        assert compare_order(a, b) == (ka > kb) - (ka < kb), (a, b)
        ma = LoopMonomial(tuple(zip(*a)))
        assert order_key(ma) == ka


def test_bbm_image_shape():
    m = LoopMonomial(((0, 1), (1, 1)), primed=False)
    for sign, text in ((1, "t^2 t1 t2 g1"), (-1, "t^2 t1 t2 g1^-1")):
        w = bbm_image(m, sign, 2)
        assert word_to_text(w) == text
        sigmas = [l for l in w.letters if l[0] == "sigma"]
        assert sigmas == [("sigma", 1, sign)]
    empty = bbm_image(LoopMonomial((), primed=False), 1, 3)
    assert word_to_text(empty) == "t^3 g1"
    assert empty.n == 2


def test_bbm_image_rejects_bad_input():
    with pytest.raises(WordError):
        bbm_image(LoopMonomial(((0, 1),), primed=True), 1, 2)
    with pytest.raises(WordError):
        bbm_image(LoopMonomial(((1, 1),), primed=False), 1, 2)
    with pytest.raises(WordError):
        bbm_image(LoopMonomial(((0, 1),), primed=False), 2, 2)

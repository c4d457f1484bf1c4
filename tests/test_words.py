"""Word layer: parsing, enumeration, ordering, and band moves."""

import random

import pytest

from heckeb.algebra import refused_loop_power
from heckeb.words import (
    LoopMonomial,
    MixedBraidWord,
    WordError,
    band_move_letters,
    bbm_image,
    compare_order,
    enumerate_abs_level,
    enumerate_level,
    f_map_word,
    loop_monomial_of_word,
    order_key,
    parse_word,
    sigma_exponent_sum,
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
        assert parse_word(str(w), n=n) == w
        data = w.to_json()
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
    assert loop_monomial_of_word(parse_word("1")) == LoopMonomial((), primed=False)
    # the axis belongs to both families, so t^a t1'^b reads as primed
    assert loop_monomial_of_word(parse_word("t^2 t1'^3")).primed
    with pytest.raises(WordError):
        loop_monomial_of_word(parse_word("t g1", n=2))
    with pytest.raises(WordError):
        loop_monomial_of_word(parse_word("t1 t2'", n=3))


def test_loop_monomial_validation():
    with pytest.raises(WordError, match="^loop indices must increase strictly$"):
        LoopMonomial(((1, 1), (1, 2)))
    with pytest.raises(WordError, match="^zero exponent in loop monomial$"):
        LoopMonomial(((0, 0),))
    with pytest.raises(WordError, match="^loop indices must increase strictly$"):
        LoopMonomial(((-1, 1),))
    with pytest.raises(WordError, match="^loop indices must increase strictly$"):
        LoopMonomial(x for x in [(1, 1), (1, 2)])


def test_loop_monomial_shape():
    m = LoopMonomial(((0, 1), (2, 2)), primed=False)
    assert m.top_index == 2
    assert not m.gap_free
    assert m.level == 3
    assert LoopMonomial(((0, 1), (1, 2))).gap_free
    assert LoopMonomial(((0, 1), (1, -2))).flip().entries == ((0, -1), (1, 2))
    assert LoopMonomial(()).top_index == -1
    assert LoopMonomial(()).gap_free
    # entries are read once, so a generator gives the same monomial
    assert LoopMonomial(x for x in [(0, 1), (1, 2)]).entries == ((0, 1), (1, 2))


def test_value_types_compare_and_hash_by_fields():
    w = MixedBraidWord(2, (("sigma", 1, 1), ("loop", 0, 0), ("ploop", 0, 2)))
    v = MixedBraidWord(n=2, letters=[("sigma", 1, 1), ("loop", 0, 2)])
    m = LoopMonomial(((0, 1), (1, 2)))
    k = LoopMonomial(entries=[(0, 1), (1, 2)], primed=False)
    assert w == v and hash(w) == hash(v)
    assert m == k and hash(m) == hash(k)
    assert w != MixedBraidWord(3, v.letters)
    assert m != LoopMonomial(((0, 1), (1, 2)), primed=True)
    assert m != m.as_word() and m.as_word() != m
    table = {w: "word", m: "monomial"}
    assert table[v] == "word" and table[k] == "monomial"


def test_value_types_are_immutable():
    w = MixedBraidWord(2, (("sigma", 1, 1),))
    m = LoopMonomial(entries=((0, -1),), primed=True)
    for obj, field in ((w, "n"), (w, "letters"), (m, "entries"), (m, "primed"), (w, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert w == MixedBraidWord(2, (("sigma", 1, 1),)) and m.primed


def test_value_type_repr():
    assert repr(MixedBraidWord(2, (("sigma", 1, -1), ("loop", 1, 2)))) == (
        "MixedBraidWord(n=2, letters=(('sigma', 1, -1), ('loop', 1, 2)))"
    )
    assert repr(LoopMonomial(entries=((0, -1), (1, 2)), primed=True)) == (
        "LoopMonomial(entries=((0, -1), (1, 2)), primed=True)"
    )
    assert repr(LoopMonomial(())) == "LoopMonomial(entries=(), primed=False)"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: MixedBraidWord(0, ()), "strand count must be >= 1"),
        (lambda: MixedBraidWord(17, ()), "17 strands; at most 16"),
        (lambda: MixedBraidWord(2, (("sigma", 2, 1),)), "g2 needs 3 strands"),
        (lambda: MixedBraidWord(2, (("ploop", 2, 1),)), "t2 needs 3 strands"),
        (lambda: MixedBraidWord(2, (("x", 0, 1),)), "unknown letter kind 'x'"),
    ],
)
def test_word_construction_errors(make, message):
    with pytest.raises(WordError) as exc:
        make()
    assert str(exc.value) == message


def test_as_word_strands():
    m = LoopMonomial(((0, 2), (1, 1)), primed=True)
    w = m.as_word()
    assert w.n == 2
    # the index-0 letter is the axis itself, spelled t in both families
    assert w.letters == (("loop", 0, 2), ("ploop", 1, 1))
    assert str(m) == "t^2 t1'"
    # the fewest strands that hold the top index
    assert LoopMonomial(((2, -1),)).as_word().n == 3
    assert LoopMonomial(()).as_word().n == 1


def test_enumerate_level_counts():
    for k in range(1, 9):
        assert len(enumerate_level(k)) == 2 ** (k - 1)
    assert enumerate_level(0) == [LoopMonomial((), primed=False)]


def test_enumerate_level_contents():
    pos = enumerate_level(3)
    assert {tuple(e for _, e in m.entries) for m in pos} == {
        (3,), (1, 2), (2, 1), (1, 1, 1)
    }
    for m in pos:
        assert m.gap_free and m.level == 3 and not m.primed
    neg = enumerate_level(-3)
    assert {m.entries for m in neg} == {m.flip().entries for m in pos}
    for m in neg:
        assert m.level == -3


def test_enumerate_level_bounds():
    assert len(enumerate_level(16)) == 2 ** 15
    for k in (17, -17, 40):
        with pytest.raises(WordError):
            enumerate_level(k)


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
        assert sum(abs(e) for _, e in m.entries) <= 2 and m.top_index <= 1
        assert m.gap_free
        assert m.primed
    plain = enumerate_abs_level(2, 2, primed=False)
    assert {m.entries for m in plain} == seen
    assert not any(m.primed for m in plain)


def test_enumerate_abs_level_is_gap_free_and_nondecreasing():
    # suite_triangular and lens._probes read each entry list as a multiset
    # of exponents on strands 0, 1, ...: indices count up from 0 and the
    # exponents never decrease
    for primed in (True, False):
        for abs_max in range(7):
            for n_max in range(1, 7):
                out = enumerate_abs_level(abs_max, n_max, primed=primed)
                assert len({m.entries for m in out}) == len(out)
                for m in out:
                    idx = [i for i, _ in m.entries]
                    exps = [e for _, e in m.entries]
                    assert idx == list(range(len(exps))) and len(exps) <= n_max
                    assert exps == sorted(exps) and 0 not in exps
                    assert sum(map(abs, exps)) <= abs_max


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
    pool = enumerate_level(4)
    ranked = sorted(pool, key=lambda m: order_key(m.entries))
    for i in range(len(ranked) - 1):
        assert compare_order(ranked[i], ranked[i + 1]) < 0
        assert compare_order(ranked[i + 1], ranked[i]) > 0


def _stepwise_compare_order(a, b):
    """The total order on loop entries ((index, exp), ...) decided one rule
    at a time; the reference that order_key is checked against."""
    ia, ka = [i for i, _ in a], [e for _, e in a]
    ib, kb = [i for i, _ in b], [e for _, e in b]
    ta, tb = sum(ka), sum(kb)
    if ta != tb:
        return -1 if ta < tb else 1
    inda = max(len(ia) - 1, 0)
    indb = max(len(ib) - 1, 0)
    if inda != indb:
        return -1 if inda < indb else 1
    if len(ia) != len(ib):
        # only reachable shapes: the empty word against a single loop
        # generator, which cannot tie on exponent sum
        return -1 if len(ia) < len(ib) else 1
    for s in range(len(ia)):
        if ia[s] != ib[s]:
            return 1 if ia[s] < ib[s] else -1
    for s in range(len(ia) - 1, -1, -1):
        x, y = ka[s], kb[s]
        if x == y:
            continue
        if abs(x) != abs(y):
            return -1 if abs(x) < abs(y) else 1
        return -1 if x > y else 1
    return 0


def _assert_key_matches_reference(a, b):
    ka, kb = order_key(a), order_key(b)
    assert _stepwise_compare_order(a, b) == (ka > kb) - (ka < kb), (a, b)
    assert compare_order(LoopMonomial(a), LoopMonomial(b)) == (ka > kb) - (ka < kb)


def test_order_key_matches_compare_order_on_random_pairs():
    # negative exponents, gaps and unequal lengths; small ranges so that
    # exponent sums, index sets and absolute exponents often tie
    rng = random.Random(31)

    def rand_entries():
        idx = sorted(rng.sample(range(4), rng.randrange(0, 4)))
        return tuple((i, rng.choice([-2, -1, 1, 2])) for i in idx)

    for _ in range(3000):
        _assert_key_matches_reference(rand_entries(), rand_entries())
    # the one length mismatch at equal top position: the empty word
    # against a single generator, both ways round
    for i in range(4):
        for e in (-2, -1, 1, 2):
            _assert_key_matches_reference((), ((i, e),))
            _assert_key_matches_reference(((i, e),), ())


def test_bbm_image_shape():
    m = LoopMonomial(((0, 1), (1, 1)), primed=False)
    for sign, text in ((1, "t^2 t1 t2 g1"), (-1, "t^2 t1 t2 g1^-1")):
        w = bbm_image(m, sign, 2)
        assert str(w) == text
        sigmas = [l for l in w.letters if l[0] == "sigma"]
        assert sigmas == [("sigma", 1, sign)]
    empty = bbm_image(LoopMonomial((), primed=False), 1, 3)
    assert str(empty) == "t^3 g1"
    assert empty.n == 2


def test_bbm_image_rejects_bad_input():
    with pytest.raises(WordError):
        bbm_image(LoopMonomial(((0, 1),), primed=True), 1, 2)
    with pytest.raises(WordError):
        bbm_image(LoopMonomial(((1, 1),), primed=False), 1, 2)
    with pytest.raises(WordError):
        bbm_image(LoopMonomial(((0, 1),), primed=False), 2, 2)


def test_band_move_letters_bound_like_the_images_at_every_modulus():
    # the images add only t^p and g1^sign to the shifted loops, and the
    # loop power bound skips the axis, so no modulus changes the refusal
    for k in range(-12, 13):
        letters = band_move_letters(k)
        for p in range(1, 5):
            images = {s: [bbm_image(m, s, p) for m in enumerate_level(k)] for s in (1, -1)}
            every = [x for s in (1, -1) for w in images[s] for x in w.letters]
            assert refused_loop_power(letters) == refused_loop_power(every), (k, p)
            for s in (1, -1):
                shifted = [x for w in images[s] for x in w.letters if x[0] == "loop" and x[1] >= 1]
                assert letters == shifted, (k, p, s)
    assert band_move_letters(0) == []
    assert refused_loop_power(band_move_letters(8)) is None
    assert refused_loop_power(band_move_letters(9)) == ("loop", 5, 5)

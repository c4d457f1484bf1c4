"""Exact identity suites behind the command line verify action.

Each suite replays a family of algebraic identities against the engine and
returns a report dict: suite name, pass flag, number of checked instances,
the first few failures in serialized form, the parameters used, and notes
where a check settles a documented display ambiguity. All comparisons are
exact; nothing here is numerical.

The checks are built from the engine's own types: words are projected with
`algebra.project_braid`, axis-tagged traces are `trace.TraceValue`s, and
`run_suite` passes each suite the parameters its signature names. Every
suite counts and records its checks in a `_Ledger`, the one place the
report format lives.
"""

import functools
import random

from . import algebra as A
from . import poly as P
from .scalars import RatFunc, lam, rf_invmap, rf_mono, rf_z
from .trace import (
    TraceValue,
    bbm_equation_pair,
    invariant_x,
    map_I,
    map_flip,
    mono_level,
    mono_str,
    trace_of_word,
)
from .words import (
    MixedBraidWord,
    band_move_letters,
    bbm_image,
    enumerate_abs_level,
    enumerate_level,
    f_map_word,
    order_key,
    parse_word,
)

DEFAULT_SEED = 7

RF_Q = rf_mono(1, 1, 0)
RF_QI = rf_mono(1, -1, 0)
RF_Q1 = RF_Q - rf_mono(1)
RF_QI1 = RF_QI - rf_mono(1)


def _at_least(suite, name, value, least):
    """value as an int; ValueError when it is below least."""
    value = int(value)
    if value < least:
        raise ValueError("suite %s needs %s >= %d" % (suite, name, least))
    return value


def _at_most(suite, name, value, letters, where=""):
    """ValueError unless letters(v), v = 1..value, fit algebra.LOOP_POWER_MAX."""
    for v in range(1, value + 1):
        if A.refused_loop_power(letters(v)):
            raise ValueError("suite %s needs %s <= %d%s" % (suite, name, v - 1, where))


class _Ledger:
    """A suite's checked instances and failure records, and its report.

    A failure is a dict of the given fields with every value passed through
    str, here and only for a failure: pass a word or a monomial itself, not
    its text.
    """

    __slots__ = ("checked", "failures")

    def __init__(self):
        self.checked = 0
        self.failures = []

    def check(self, ok, **fields):
        """Count one instance; record a failure of fields unless ok."""
        self.checked += 1
        if not ok:
            self.fail(**fields)

    def fail(self, **fields):
        """Record a failure without counting an instance."""
        self.failures.append({k: str(v) for k, v in fields.items()})

    def report(self, suite, params, notes=()):
        """The suite's report; ValueError when it checked nothing, which
        would otherwise read as a pass."""
        if not self.checked:
            raise ValueError(
                "suite %s checked nothing at %s"
                % (suite, ", ".join("%s=%s" % kv for kv in sorted(params.items())))
            )
        return {
            "suite": suite,
            "passed": not self.failures,
            "checked": self.checked,
            "failure_count": len(self.failures),
            "failures": self.failures[:8],
            "params": {k: str(v) for k, v in params.items()},
            "notes": list(notes),
        }


def _qm1(s, j):
    """q^j (q^s - 1) as a polynomial dict."""
    return {(j + s, 0): 1, (j, 0): -1}


def _letters_el(n, letters):
    return A.project_braid(MixedBraidWord(n, tuple(letters)))


def _combination(n, terms):
    """Sum of coeff * word over (coeff poly, letter list) pairs."""
    out = A.AlgebraElement(n)
    for coeff, letters in terms:
        out = out.add(_letters_el(n, letters).scale(coeff))
    return out


def _random_letters(rng, n, length):
    letters = []
    for _ in range(length):
        kind = rng.choice(("sigma", "loop", "ploop"))
        if kind == "sigma" and n >= 2:
            letters.append(("sigma", rng.randrange(1, n), rng.choice((-1, 1))))
        elif kind == "sigma":
            letters.append(("loop", 0, rng.choice((-1, 1))))
        else:
            letters.append(
                (kind, rng.randrange(0, n), rng.choice((-2, -1, 1, 2)))
            )
    return tuple(letters)


# -- axis-tagged two-strand traces ---------------------------------------------
#
# The band move analysis needs traces of t^a t_1^m g_1^eps with the axis
# power kept as a formal symbol instead of being evaluated to the trace
# monomial s_a. Values are TraceValues keyed by (axis exponent, loop exponent
# tuple) instead of s-monomials; they are compared, never printed. The
# recursion below uses only the quadratic relation and the two-strand loop
# conversions, and the specialization check in suite_lemma4 pins it to the
# engine trace. The memoized values are shared: only the fresh value a call
# builds is ever mutated.


@functools.lru_cache(maxsize=None)
def _tag_sig(a, m, eps):
    """Formal trace of t^a t_1^m g_1^eps (eps = +-1)."""
    out = TraceValue()
    if m == 0:
        out.add_term((a, ()), rf_z() if eps > 0 else lam() * rf_z())
    elif eps > 0 and m > 0:
        for j in range(m):
            out.add_scaled(_tag_plain(a + j, m - j), RF_Q1 * RF_Q ** j)
        out.add_term((a + m, ()), RF_Q ** m * rf_z())
    elif eps < 0 and m < 0:
        k = -m
        for j in range(0, -k, -1):
            out.add_scaled(_tag_plain(a + j, -k - j), RF_QI1 * RF_Q ** j)
        out.add_term((a - k, ()), RF_Q ** (-k - 1) * rf_z() + RF_Q ** (-k) * RF_QI1)
    elif eps > 0:
        # positive braiding on a negative loop: invert the quadratic
        out.add_scaled(_tag_sig(a, m, -1), RF_Q)
        out.add_scaled(_tag_plain(a, m), RF_Q1)
    else:
        out.add_scaled(_tag_sig(a, m, 1), RF_QI)
        out.add_scaled(_tag_plain(a, m), RF_QI1)
    return out


@functools.lru_cache(maxsize=None)
def _tag_plain(a, m):
    """Formal trace of t^a t_1^m."""
    out = TraceValue()
    if m == 0:
        out.add_term((a, ()), rf_mono(1))
    elif m > 0:
        for j in range(1, m):
            out.add_scaled(_tag_sig(a + j, m - j, 1), RF_Q ** (j - 1) * RF_Q1)
        out.add_term((a + m, ()), RF_Q ** (m - 1) * RF_Q1 * rf_z())
        out.add_term((a, (m,)), RF_Q ** m)
    else:
        k = -m
        for j in range(-1, -k, -1):
            out.add_scaled(_tag_sig(a + j, -k - j, -1), RF_Q ** (j + 1) * RF_QI1)
        out.add_term((a, (-k,)), RF_Q ** (-k + 1) * RF_QI)
        out.add_term((a - k, ()), RF_Q ** (-k + 1) * RF_QI1 * lam() * rf_z())
    return out


def tagged_specialize(tv):
    """Evaluate the axis symbol: exponent a becomes the factor s_a, a=0 drops."""
    out = TraceValue()
    for (a, loops), c in tv.terms.items():
        out.add_term(tuple(sorted(loops + ((a,) if a != 0 else ()))), c)
    return out


def tagged_mirror(tv, p):
    """The exponent-flip image before specialization, at twist modulus p.

    Axis symbol a maps to 2p - a, loop exponents flip sign, coefficients
    pass through the bar involution.
    """
    out = TraceValue()
    for (a, loops), c in tv.terms.items():
        out.add_term((2 * p - a, tuple(sorted(-l for l in loops))), rf_invmap(c))
    return out


def _formal_mirror(ledger, p, k, eps):
    """Check that the tagged trace of t^p t1^-k g1^-eps mirrors to that of
    t^p t1^k g1^eps."""
    ledger.check(
        tagged_mirror(_tag_sig(p, -k, -eps), p) == _tag_sig(p, k, eps),
        check="formal-mirror",
        p=p,
        k=k,
        eps=eps,
    )


# -- suites ---------------------------------------------------------------------


def suite_relations(n=4, samples=200, seed=DEFAULT_SEED):
    """Defining relations survive random word sandwiches."""
    n = _at_least("relations", "n", n, 2)
    rng = random.Random(seed)
    ledger = _Ledger()

    def word_pair(tag, nn, lhs, rhs):
        """prefix lhs suffix == prefix rhs suffix for a random prefix and
        suffix; a side is a letter list or a function of the prefix element."""
        a = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(0, 6)))
        b = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(0, 6)))
        ea = A.project_braid(a)
        sides = []
        for side in (lhs, rhs):
            el, letters = (side(ea), ()) if callable(side) else (ea, tuple(side))
            for letter in letters + b.letters:
                el = A.rmul_letter(el, *letter)
            sides.append(el)
        ledger.check(sides[0] == sides[1], relation=tag, n=nn, prefix=a, suffix=b)

    if n >= 3:
        for _ in range(samples):
            nn = rng.randrange(3, n + 1)
            i = rng.randrange(1, nn - 1)
            word_pair(
                "braid",
                nn,
                [("sigma", i, 1), ("sigma", i + 1, 1), ("sigma", i, 1)],
                [("sigma", i + 1, 1), ("sigma", i, 1), ("sigma", i + 1, 1)],
            )
    if n >= 4:
        for _ in range(samples):
            word_pair(
                "far-commutation",
                4,
                [("sigma", 1, 1), ("sigma", 3, 1)],
                [("sigma", 3, 1), ("sigma", 1, 1)],
            )
    for _ in range(samples):
        nn = rng.randrange(2, n + 1)
        word_pair(
            "loop-braid",
            nn,
            [("sigma", 1, 1), ("loop", 0, 1), ("sigma", 1, 1), ("loop", 0, 1)],
            [("loop", 0, 1), ("sigma", 1, 1), ("loop", 0, 1), ("sigma", 1, 1)],
        )
    if n >= 3:
        for _ in range(samples):
            nn = rng.randrange(3, n + 1)
            i = rng.randrange(2, nn)
            word_pair(
                "loop-commutation",
                nn,
                [("loop", 0, 1), ("sigma", i, 1)],
                [("sigma", i, 1), ("loop", 0, 1)],
            )
    for _ in range(samples):
        nn = rng.randrange(2, n + 1)
        i = rng.randrange(1, nn)
        word_pair(
            "braiding-inverse", nn, [("sigma", i, 1), ("sigma", i, -1)], []
        )
        word_pair("loop-inverse", nn, [("loop", 0, 1), ("loop", 0, -1)], [])
    for _ in range(samples):
        nn = rng.randrange(2, n + 1)
        i = rng.randrange(1, nn)
        word_pair(
            "quadratic",
            nn,
            [("sigma", i, 1), ("sigma", i, 1)],
            lambda ea: (
                A.rmul_sigma(ea, i, 1).scale(_qm1(1, 0)).add(ea.scale({(1, 0): 1}))
            ),
        )
    return ledger.report("relations", {"n": n, "samples": samples, "seed": seed})


def suite_markov(n=4, samples=200, seed=DEFAULT_SEED):
    """Trace rules: commuted products, closures, and the closed form."""
    n = _at_least("markov", "n", n, 2)
    rng = random.Random(seed)
    ledger = _Ledger()
    for _ in range(samples):
        nn = rng.randrange(1, n + 1)
        a = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(0, 7)))
        b = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(0, 7)))
        ledger.check(
            trace_of_word(a * b) == trace_of_word(b * a),
            check="commuted-product",
            n=nn,
            a=a,
            b=b,
        )
    # closing the last strand with a single braiding letter
    for nn in range(2, n + 1):
        i = nn - 1
        pos = trace_of_word(
            MixedBraidWord(nn, (("sigma", i, 1),))
        )
        neg = trace_of_word(MixedBraidWord(nn, (("sigma", i, -1),)))
        ledger.check(pos == TraceValue({(): rf_z()}), check="positive-closure", i=i, got=pos)
        ledger.check(
            neg == TraceValue({(): lam() * rf_z()}), check="negative-closure", i=i, got=neg
        )
    # stabilization: appending g_n^{+1} scales by z, g_n^{-1} by lam z
    for _ in range(max(1, samples // 8)):
        nn = rng.randrange(1, n)
        w = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(0, 6)))
        base = trace_of_word(w)
        for s, factor in ((1, rf_z()), (-1, lam() * rf_z())):
            stab = MixedBraidWord(nn + 1, w.letters + (("sigma", nn, s),))
            ledger.check(
                trace_of_word(stab) == base.scale(factor), check="stabilization", sign=s, word=w
            )
    # closed form on ordered commuting-loop words: one factor per exponent
    for m in enumerate_abs_level(5, 4, primed=True):
        want = TraceValue(
            {tuple(sorted(e for _, e in m.entries)): rf_mono(1)}
        )
        ledger.check(trace_of_word(m.as_word()) == want, check="closed-form", word=m)
    return ledger.report("markov", {"n": n, "samples": samples, "seed": seed})


def suite_invariance(n=4, samples=100, seed=DEFAULT_SEED):
    """The invariant is unchanged by conjugation and stabilization."""
    n = _at_least("invariance", "n", n, 2)
    rng = random.Random(seed)
    ledger = _Ledger()
    for _ in range(samples):
        nn = rng.randrange(1, n + 1)
        w = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(1, 8)))
        x = invariant_x(w)
        u = MixedBraidWord(nn, _random_letters(rng, nn, rng.randrange(1, 5)))
        ledger.check(invariant_x(u * w * u.inverse()) == x, move="conjugation", word=w, by=u)
        axis = MixedBraidWord(nn, (("loop", 0, rng.choice((-1, 1))),))
        ledger.check(invariant_x(axis * w * axis.inverse()) == x, move="loop-conjugation", word=w)
        for s in (1, -1):
            stab = MixedBraidWord(nn + 1, w.letters + (("sigma", nn, s),))
            ledger.check(invariant_x(stab) == x, move="stabilization", sign=s, word=w)
    return ledger.report("invariance", {"n": n, "samples": samples, "seed": seed})


def _identity_grid(suite, n, k, extra, build, key="part", names=("positive", "negative")):
    """Check one identity family at every nn in 1..n, kk in 1..k and sign.

    build(nn, kk, s) returns the lhs letters and the rhs (coeff, letters)
    terms of the identity on nn + extra strands; a failure records the
    sign's entry of names under key. Returns the ledger; an n or k past
    algebra.LOOP_POWER_MAX is a ValueError before any work.
    """

    def letters(nns, kk):
        rows = [build(nn, kk, s) for nn in nns for s in (1, -1)]
        return [x for lhs, rhs in rows for w in [lhs] + [t for _, t in rhs] for x in w]

    _at_most(suite, "n", n, lambda nn: letters([nn], 1))
    _at_most(suite, "k", k, lambda kk: letters(range(1, n + 1), kk), " at n = %d" % n)
    ledger = _Ledger()
    for nn in range(1, n + 1):
        strands = nn + extra
        for kk in range(1, k + 1):
            for s, name in zip((1, -1), names):
                lhs, rhs = build(nn, kk, s)
                ok = _letters_el(strands, lhs) == _combination(strands, rhs)
                ledger.check(ok, **{key: name}, n=nn, k=kk)
    return ledger


def suite_eq15(n=3, k=5):
    """Loop-braiding conversion rules, both exponent signs.

    The negative line's printed tail is ambiguous in its source display;
    the suite checks both candidate tails against the defining relations
    and records which one holds.
    """

    def build(nn, kk, s):
        lhs = [("loop", nn, s * kk), ("sigma", nn, s)]
        rhs = [
            (_qm1(s, s * j), [("loop", nn - 1, s * j), ("loop", nn, s * (kk - j))])
            for j in range(kk)
        ]
        rhs.append(({(s * kk, 0): 1}, [("sigma", nn, s), ("loop", nn - 1, s * kk)]))
        return lhs, rhs

    ledger = _identity_grid("eq15", n, k, 1, build, "line", ("positive", "negative-short-tail"))
    # the conjugated three-letter tail candidate, smallest instance; it
    # settles a display question, so it counts only next to a checked grid
    lhs = _letters_el(2, [("loop", 1, -1), ("sigma", 1, -1)])
    alt = _combination(
        2,
        [
            (_qm1(-1, 0), [("loop", 1, -1)]),
            (
                {(-1, 0): 1},
                [("sigma", 1, 1), ("loop", 0, -1), ("sigma", 1, -1)],
            ),
        ],
    )
    if ledger.checked:
        ledger.check(True)
    notes = [
        "negative line tail adjudication: the two-letter tail"
        " (inverse braiding, then inverse lower loop) holds at every"
        " checked (n, k); the conjugated three-letter tail variant "
        + ("also holds" if lhs == alt else "fails already at n=1, k=1")
        + "."
    ]
    return ledger.report("eq15", {"n": n, "k": k}, notes)


def suite_lemma2(n=3, k=5):
    """Recursive expansion of a pure loop power through lower indices."""

    def build(nn, kk, s):
        rhs = [
            (
                _qm1(s, s * (j - 1)),
                [("loop", nn - 1, s * j), ("loop", nn, s * (kk - j)), ("sigma", nn, s)],
            )
            for j in range(1, kk)
        ]
        rhs.append(
            (
                {(s * (kk - 1), 0): 1},
                [("sigma", nn, s), ("loop", nn - 1, s * kk), ("sigma", nn, s)],
            )
        )
        return [("loop", nn, s * kk)], rhs

    return _identity_grid("lemma2", n, k, 1, build).report("lemma2", {"n": n, "k": k})


def suite_lemma3(n=3, k=5):
    """Pushing a loop power past the next braiding letter upward."""

    def build(nn, kk, s):
        lhs = [("loop", nn, s * kk), ("sigma", nn + 1, s)]
        rhs = [
            ({(-s * (kk - 1), 0): 1}, [("sigma", nn + 1, -s), ("loop", nn + 1, s * kk)])
        ] + [
            (
                _qm1(-s, -s * (j - 1)),
                [("loop", nn, s * (kk - j)), ("loop", nn + 1, s * j)],
            )
            for j in range(1, kk)
        ]
        return lhs, rhs

    return _identity_grid("lemma3", n, k, 2, build).report("lemma3", {"n": n, "k": k})


def _s_mono(*indices):
    """The s-monomial of the given indices; s_0 = 1 drops out."""
    return tuple(sorted(j for j in indices if j))


def _axis_move_goldens(p):
    """The four displayed two-strand trace expansions at axis power p."""
    q1 = _qm1(1, 0)
    qi1 = _qm1(-1, 0)
    out = []
    want = TraceValue()
    want.add_term(_s_mono(1, p), RatFunc(_qm1(1, 1)))
    want.add_term(
        _s_mono(p + 1),
        RatFunc(P.padd(P.pshift(P.pmul(q1, q1), 0, 1), P.pmono(1, 1, 1))),
    )
    out.append(("t^%d t1 g1" % p, want))
    want = TraceValue()
    want.add_term(_s_mono(1, p), rf_mono(1, 1, 0))
    want.add_term(_s_mono(p + 1), RatFunc({(1, 1): 1, (0, 1): -1}))
    out.append(("t^%d t1" % p, want))
    want = TraceValue()
    want.add_term(_s_mono(-1, p), rf_mono(1, -1, 0))
    c = P.padd(P.pshift(_qm1(-1, -1), 0, 1), P.pmul(qi1, qi1))
    want.add_term(_s_mono(p - 1), RatFunc(c))
    out.append(("t^%d t1^-1" % p, want))
    want = TraceValue()
    want.add_term(_s_mono(-1, p), RatFunc(_qm1(-1, -1)))
    c = P.pshift(P.pmul(_qm1(-1, -1), qi1), 0, 1)
    c = P.padd(c, P.pmul(qi1, P.pmul(qi1, qi1)))
    c = P.padd(c, _qm1(-1, -1))
    c = P.padd(c, P.pmono(1, -2, 1))
    want.add_term(_s_mono(p - 1), RatFunc(c))
    out.append(("t^%d t1^-1 g1^-1" % p, want))
    return out


def suite_lemma4(p=None, k=3):
    """Axis-power band move traces and their exponent-flip images.

    Checks the displayed golden expansions, the formal mirror identity on
    the axis-tagged recursion at every level, the specialization of that
    recursion back to the engine trace, and the value-level image equality
    exactly where it holds (below the twist modulus).
    """
    p_list = (2, 3) if p is None else (_at_least("lemma4", "p", p, 1),)
    _at_most("lemma4", "k", k, lambda kk: [("loop", 1, kk), ("loop", 1, -kk)])
    ledger = _Ledger()
    for pp in p_list:
        for text, want in _axis_move_goldens(pp):
            ledger.check(trace_of_word(parse_word(text, n=2)) == want, check="golden", word=text)
        for kk in range(1, k + 1):
            for eps in (1, -1):
                neg = trace_of_word(
                    parse_word("t^%d t1^%d g1^%d" % (pp, -kk, -eps), n=2)
                )
                pos = trace_of_word(
                    parse_word("t^%d t1^%d g1^%d" % (pp, kk, eps), n=2)
                )
                formal_neg = _tag_sig(pp, -kk, -eps)
                _formal_mirror(ledger, pp, kk, eps)
                ledger.check(
                    tagged_specialize(formal_neg) == neg
                    and tagged_specialize(_tag_sig(pp, kk, eps)) == pos,
                    check="formal-specialization",
                    p=pp,
                    k=kk,
                    eps=eps,
                )
                degen = any(axis <= 0 for axis, _ in formal_neg.terms)
                if kk < pp:
                    ledger.check(map_I(neg, pp) == pos, check="value-mirror", p=pp, k=kk, eps=eps)
                    if degen:
                        ledger.fail(check="unexpected-degenerate-axis", p=pp, k=kk)
                else:
                    ledger.check(degen, check="missing-degenerate-axis", p=pp, k=kk)
    notes = [
        "value-level image equality holds exactly below the twist modulus"
        " (k < p) and is asserted there;",
        "at k >= p the axis residue of the negative side degenerates (a"
        " constant at k = p, negative powers above) and the identity is"
        " asserted on the axis-tagged recursion, whose image is taken"
        " before the axis symbol is evaluated.",
    ]
    return ledger.report("lemma4", {"p": p_list, "k": k}, notes)


def suite_theorem9(p=3, k=3):
    """Mirrored negative systems against directly generated positive ones.

    Per-equation equality is asserted below the twist modulus; at and
    above it the mismatch is asserted to be exactly the characterized
    axis degeneration, and the formal identity is asserted on the
    axis-tagged recursion for the axis-power sources.
    """
    from .lens import compare_mirror  # here, so that no other suite loads lens

    p_all = range(1, _at_least("theorem9", "p", p, 1) + 1)
    _at_most("theorem9", "k", k, lambda kk: band_move_letters(p_all, kk))
    ledger = _Ledger()
    for pp in p_all:
        rep = compare_mirror(pp, k)
        ledger.checked += len(rep["entries"])
        if not rep["exact_below_p"]:
            ledger.fail(check="exact-below-modulus", p=pp)
        if rep["mismatch_levels"] != rep["expected_mismatch_levels"]:
            ledger.fail(
                check="mismatch-boundary",
                p=pp,
                got=rep["mismatch_levels"],
                expected=rep["expected_mismatch_levels"],
            )
        for row in rep["entries"]:
            if row["status"] == "mismatch" and not row.get("degenerate_axis"):
                ledger.fail(check="mismatch-not-degenerate", p=pp, source=row["source"])
            if row["status"] == "index-out-of-range":
                ledger.fail(check="image-domain", p=pp, source=row["source"])
        for kk in range(1, k + 1):
            for eps in (1, -1):
                _formal_mirror(ledger, pp, kk, eps)
    notes = [
        "equation images match the direct system exactly for levels below"
        " the twist modulus; at level >= p the difference is the axis"
        " degeneration recorded per equation, and the identity holds on"
        " the axis-tagged form (see suite lemma4).",
    ]
    return ledger.report("theorem9", {"p": p, "k": k}, notes)


def suite_prop2(p=None, k=3):
    """Exponent-flipped sources trace into the image of the flip map."""
    p_list = (2, 3) if p is None else (_at_least("prop2", "p", p, 0),)

    def words(kk):
        return [w.as_word() for m in enumerate_level(kk) for w in (m, m.flip())]

    _at_most("prop2", "k", k, lambda kk: [x for w in words(kk) for x in w.letters])
    ledger = _Ledger()
    for kk in range(0, k + 1):
        for m in enumerate_level(kk):
            tv_pos = trace_of_word(m.as_word())
            tv_neg = trace_of_word(m.flip().as_word())
            ledger.check(
                not any(any(j > 0 for j in mono) for mono in tv_neg.terms),
                check="negative-support",
                source=m,
            )
            for pp in p_list:
                ledger.check(map_I(tv_neg, pp) == tv_pos, check="image-equality", p=pp, source=m)
    notes = [
        "flipped traces are supported on all-negative monomials, so the"
        " image map acts independently of the twist modulus on them.",
    ]
    return ledger.report("prop2", {"p": p_list, "k": k}, notes)


def suite_flip(n=3, samples=150, seed=DEFAULT_SEED, p=None, k=3):
    """The exponent flip on traces: tr(f(w)) = Phi(tr(w)).

    f inverts every letter (f_map_word) and Phi is q -> q^{-1},
    z -> lam z, s_j -> s_{-j} (trace.map_flip). Checked on seeded words of
    1-5 letters in g_i, t and t_i on 2..n strands with exponents +-1 and
    +-2, and on every negative band move image at levels 0..k. Band move
    equations of negative sources are built through this identity, and
    here it is checked against the direct traces. Primed letters are left
    out: f_map_word sends t_i' to t_i'^{-1}, which is not the algebra map.
    """
    n = _at_least("flip", "n", n, 2)
    p_list = (2, 3, 4) if p is None else (_at_least("flip", "p", p, 1),)
    exponents = (-2, -1, 1, 2)  # every loop power the seeded words can draw must fit

    def images(pp, kk):
        return [bbm_image(m, sign, pp) for m in enumerate_level(-kk) for sign in (1, -1)]

    _at_most("flip", "n", n, lambda nn: [("loop", nn - 1, e) for e in exponents])
    # f(image) inverts the image's loop powers, and no index allows fewer positive powers
    _at_most("flip", "k", k, lambda v: band_move_letters(p_list, -v))
    rng = random.Random(seed)
    ledger = _Ledger()

    def check(kind, w):
        ok = trace_of_word(f_map_word(w)) == map_flip(trace_of_word(w))
        ledger.check(ok, check=kind, word=w, n=w.n)

    for _ in range(samples):
        nn = rng.randrange(2, n + 1)
        letters = []
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.5:
                letter = ("sigma", rng.randrange(1, nn))
            else:
                letter = ("loop", rng.randrange(0, nn))
            letters.append(letter + (rng.choice(exponents),))
        check("random-word", MixedBraidWord(nn, tuple(letters)))
    for pp in p_list:
        for kk in range(0, k + 1):
            for w in images(pp, kk):
                check("band-move-image", w)
    notes = [
        "checked, not proved: the identity follows from the uniqueness of"
        " the trace once the loop rule for f(t_n')^k is settled.",
    ]
    return ledger.report(
        "flip", {"n": n, "samples": samples, "seed": seed, "p": p_list, "k": k}, notes
    )


def suite_grading(p=2, k=4):
    """Trace levels: sources sit at level k, band images at level p + k."""
    _at_most("grading", "k", k, lambda kk: band_move_letters((p,), kk))
    ledger = _Ledger()
    for kk in range(0, k + 1):
        for m in enumerate_level(kk):
            for eq in bbm_equation_pair(m, p):
                bad = [mono_str(mono) for mono in eq.lhs.terms if mono_level(mono) != kk] + [
                    mono_str(mono) for mono in eq.rhs.terms if mono_level(mono) != p + kk
                ]
                ledger.check(not bad, source=m, sign=eq.sign, **{"off-level": ", ".join(bad)})
    return ledger.report("grading", {"p": p, "k": k})


def suite_triangular(n=3, k=4):
    """Expanding unprimed basis words is triangular in the word order.

    The diagonal coefficient's exponent sign is determined here rather
    than assumed, since the source displays disagree; the observed sign
    is recorded in the notes.
    """
    ledger = _Ledger()
    signs = {}  # observed sign -> first word showing it
    for m in enumerate_abs_level(int(k), int(n), primed=False):
        e = m.entries
        if not e:
            continue
        el = A.project_braid(m.as_word())
        tau_key = order_key(e)
        expo = sum(i * x for i, x in e)
        ident = A.perm_id(el.n)
        diag = el.terms.get((e, ident))
        ok = diag in ({(expo, 0): 1}, {(-expo, 0): 1})
        ledger.check(ok, check="diagonal", word=m, got=P.pformat(diag))
        if ok and expo:
            signs.setdefault("+" if diag == {(expo, 0): 1} else "-", str(m))
        for (loops, perm), _c in el.terms.items():
            if perm != ident or loops == e:
                continue
            if not order_key(loops) < tau_key:
                ledger.fail(check="order", word=m, term=A.canonical_word_str(loops, perm))
    if len(signs) == 2:
        ledger.fail(check="diagonal-sign", positive=signs["+"], negative=signs["-"])
    note = (
        "observed diagonal coefficient: q^(%ssum(index * exponent)) in the"
        " unprimed-to-primed direction" % "".join(signs)
        if len(signs) == 1
        else "the diagonal coefficient's sign is undetermined at these parameters"
    )
    return ledger.report("triangular", {"n": n, "k": k}, [note])


# in the order `heckeb verify` runs them
SUITES = {
    "markov": suite_markov,
    "relations": suite_relations,
    "invariance": suite_invariance,
    "eq15": suite_eq15,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "theorem9": suite_theorem9,
    "prop2": suite_prop2,
    "flip": suite_flip,
    "grading": suite_grading,
    "triangular": suite_triangular,
}


def run_suite(name, **params):
    """Run one suite by name, passing only the parameters its signature
    names (read from the code object: `inspect` would add import time to
    every cold `heckeb verify`)."""
    if name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    fn = SUITES[name]
    allowed = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    kwargs = {k: v for k, v in params.items() if k in allowed and v is not None}
    for key in ("k", "samples"):
        if key in kwargs:
            kwargs[key] = _at_least(name, key, kwargs[key], 0)
    return fn(**kwargs)

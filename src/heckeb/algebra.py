"""Normal forms and multiplication for the annular Hecke-type algebra.

Elements are integer-Laurent-q combinations of canonical words

    t0'^{k_0} t_{i_1}'^{k_1} ... t_{i_r}'^{k_r} * T_w

with strictly increasing loop indices, nonzero exponents, and w a
permutation of the strands (T_w a positive-braiding normal word). The
quadratic relation is gi^2 = (q-1) gi + q.

The engine reduces everything to three local facts:

  * T_w t^e = t_h'^e T_w, h the head of the rightmost descending run of
    w's block decomposition that reaches g1 (h = 0 when none does);
  * loop letters with distinct indices reorder through a two-strand swap
    t1'^K t^e = sum c * t^a t1'^b g1^{0|1}, memoized per (K, e);
  * the swap's braiding byproduct conjugates to an explicit short word
    when transported to higher loop indices.

Right multiplication by one braiding letter (`rmul_sigma`) or one axis
letter (`rmul_axis`) is a single pass over the terms that accumulates
into a plain dict and wraps it in one element at the end. These two
passes are the only multiplication engine: the memoized tables (t1^K,
the swaps, solved from the commutation t^e t1^K = t1^K t^e, and the
braiding-tail expansions) are built with them, on two strands for the
loops and on the element's strands for the tails.

Coefficients here never involve z; they are Laurent polynomials in q
stored in the shared (q-exp, z-exp) dict representation with z-exp 0.
"""

import functools

from . import poly as P
from .words import WordError, order_key

# -- permutations (one-line tuples, positions and values 0-based) --------


def perm_id(n):
    return tuple(range(n))


def perm_len(w):
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


def _swap_right(w, i):
    """w composed with the transposition at positions i-1, i."""
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


@functools.lru_cache(maxsize=None)
def perm_blocks(w):
    """Descending-run block decomposition (head, length), heads increasing.

    T_w factors as the product over blocks (h, L) of g_h g_{h-1} ... g_{h-L+1},
    in increasing head order, and the factorization is reduced.
    """
    u = list(w)
    found = []
    for m in range(len(w) - 1, 0, -1):
        j = u.index(m)
        length = m - j
        if length:
            found.append((m, length))
        del u[j]
    found.reverse()
    return tuple(found)


def perm_of_blocks(blocks, n):
    w = perm_id(n)
    for h, length in blocks:
        for i in range(h, h - length, -1):
            w = _swap_right(w, i)
    return w


@functools.lru_cache(maxsize=None)
def axis_head(w):
    """Head of the rightmost block whose run reaches g1, else 0."""
    h = 0
    for head, length in perm_blocks(w):
        if length == head:
            h = head
    return h


def block_letters(blocks):
    out = []
    for h, length in blocks:
        out.extend(range(h, h - length, -1))
    return out


# -- loop swaps, solved on two strands -------------------------------------
#
# t1^K and the swaps t1'^K t^e are two-strand elements, built with the
# letter kernels below. The two-strand word t^a t1'^b g1^g has the loops
# ((0, a), (1, b)) (zero exponents left out) and the permutation (g, 1 - g).

_swap_cache = {}
_unprime_cache = {}

# unprime_loop(K) recurses once per unit of |K|, and the work below the
# interpreter's recursion limit already grows steeply (one cold run of
# t1'^K t on a 2-vCPU VM: 0.4 s at K=50, 3 s at K=100, 20 s at K=200), so
# a larger |K| is a WordError. Lens jobs at their default settings reach
# |K| <= 3, and the verify suites |K| <= 10.
LOOP_EXP_MAX = 64

# A braiding power gi^k is |k| one-letter passes over coefficients that
# grow to |k| terms, so its cost is quadratic in k (cold `heckeb normalize
# g1^2500 --n 2`: 1.5 s on a 2-vCPU VM); a larger |k| is a WordError.
BRAID_EXP_MAX = 2500

# A commuting loop power tj^e (j >= 1) is |e| rounds of 2j+1 letter passes
# over an element that grows with both j and |e|, and faster for e < 0,
# where every inverse braiding splits a term in two. LOOP_POWER_MAX[j] is
# the largest (e > 0, e < 0) pair of |e| accepted; a larger |e| is a
# WordError. At each limit a cold `heckeb normalize` takes at most about
# 2.5 s on a 2-vCPU VM (t2^20 1.7 s, t4^6 1.8 s, t8^3 2.4 s, t14^2 1.3 s,
# t3^-7 1.5 s, t5^-3 2.3 s, t8^-1 1.4 s), except t4^-5 at 3.1 s, which
# the verify suite lemma3 needs at its default k = 5. The cost above a
# limit climbs steeply (t2^33 13 s, t7^4 16 s, t9^-1 4.3 s, t7^-2 21 s).
# Round K + 1 of t1^e moves t1'^K past the axis through unprime_loop(K), so
# t1^e stops at LOOP_EXP_MAX + 1 (t1^65 and t1^-65 1.1-1.3 s). Band move
# equations of negative sources are traced through the exponent flip, so
# lens jobs multiply positive loop powers only.
LOOP_POWER_MAX = (None, (LOOP_EXP_MAX + 1,) * 2, (20, 16), (9, 7), (6, 5), (4, 3),
                  (3, 2), (3, 1), (3, 1)) + ((2, 0),) * 6 + ((1, 0),)


def refused_loop_power(letters):
    """The first letter ("loop", j, e) with j >= 1 among letters whose |e|
    LOOP_POWER_MAX refuses, or None."""
    table = LOOP_POWER_MAX
    for kind, j, e in letters:
        if kind == "loop" and j and (j >= len(table) or abs(e) > table[j][e < 0]):
            return kind, j, e
    return None


def _acc(out, key, c):
    """Add the coefficient c into out[key], dropping the key at zero."""
    cur = out.get(key)
    if cur is None:
        if c:
            out[key] = c
        return
    s = P.padd(cur, c)
    if s:
        out[key] = s
    else:
        del out[key]


def _h2_exps(key):
    """The exponents (a, b, g) of the two-strand word t^a t1'^b g1^g."""
    loops, perm = key
    exps = dict(loops)
    return exps.get(0, 0), exps.get(1, 0), perm[0]


def unprime_loop(K):
    """The commuting loop power t1^K as a two-strand element; |K| above
    LOOP_EXP_MAX is a WordError."""
    E = _unprime_cache.get(K)
    if E is not None:
        return E
    if abs(K) > LOOP_EXP_MAX:
        raise WordError(
            "loop exponent %d passes a lower loop; |exponent| <= %d" % (K, LOOP_EXP_MAX)
        )
    if K == 0:
        E = AlgebraElement.one(2)
    else:
        step = 1 if K > 0 else -1
        E = rmul_loop(unprime_loop(K - step), 1, step)
        for key in E.terms:
            a, b, _ = _h2_exps(key)
            assert a + b == K, "degree drift in loop expansion"
            assert a * step >= 0 and b * step >= 0
    _unprime_cache[K] = E
    return E


def swap_loops(K, e):
    """Reorder t1'^K t^e for nonzero K and e (a stored loop past an axis
    power, as insert_loop asks) as a combination of t^a t1'^b g1^{0|1} words.

    Solved from t^e t1^K = t1^K t^e using the expansion of t1^K: the
    unique bare t1'^K term there has an invertible monomial coefficient,
    and every other term calls back into strictly smaller |b| swaps.
    Returns a tuple of (coeff, a, b, g) with a + b = K + e.
    """
    key = (K, e)
    hit = _swap_cache.get(key)
    if hit is not None:
        return hit
    U = unprime_loop(K).terms
    pivot = (((1, K),), perm_id(2))
    c0 = U.get(pivot)
    assert c0 is not None and len(c0) == 1, "pivot term missing"
    acc = {}
    rest = AlgebraElement(2)
    for wk, c in U.items():
        a, b, g = _h2_exps(wk)
        # t^e t1^K, with t^e prepended
        _acc(acc, (a + e, b, g), c)
        if wk != pivot:
            assert g or abs(b) < abs(K), "swap recursion must shrink"
            rest.terms[wk] = P.pneg(c)
    # minus t1^K t^e without the pivot word
    for wk, c in rmul_axis(rest, e).terms.items():
        _acc(acc, _h2_exps(wk), c)
    res = []
    for (a, b, g), c in sorted(acc.items()):
        q = P.pdivexact(c, c0)
        assert a + b == K + e, "degree drift in swap"
        res.append((q, a, b, g))
    out = _swap_cache[key] = tuple(res)
    return out


# -- loop insertion --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def insert_loop(loops, h, e):
    """Multiply the increasing loop product `loops` by t_h'^e on the right.

    Returns a tuple of (coeff, loops', tail) where tail is a word of
    braiding letters (index, sign) to be folded into the permutation part.
    """
    if e == 0:
        return ((P.pconst(1), loops, ()),)
    if not loops or h > loops[-1][0]:
        return ((P.pconst(1), loops + ((h, e),), ()),)
    top, K = loops[-1]
    if h == top:
        nk = K + e
        rest = loops[:-1]
        return ((P.pconst(1), rest + (((top, nk),) if nk else ()), ()),)
    rest = loops[:-1]
    out = []
    for cs, al, be, gg in swap_loops(K, e):
        if gg:
            tail = (
                tuple((j, -1) for j in range(h + 1, top))
                + ((top, 1),)
                + tuple((j, 1) for j in range(top - 1, h, -1))
            )
        else:
            tail = ()
        for c2, loops2, tail2 in insert_loop(rest, h, al):
            newloops = loops2 + (((top, be),) if be else ())
            out.append((P.pmul(cs, c2), newloops, tail2 + tail))
    return tuple(out)


# -- elements ---------------------------------------------------------------


class AlgebraElement:
    """A finite combination of canonical words on a fixed strand count."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {} if terms is None else terms

    @staticmethod
    def one(n):
        return AlgebraElement(n, {((), perm_id(n)): P.pconst(1)})

    @staticmethod
    def word(n, loops, perm):
        el = AlgebraElement(n)
        el.add_term(loops, perm, P.pconst(1))
        return el

    def add_term(self, loops, perm, coeff):
        _acc(self.terms, (loops, perm), coeff)

    def add(self, other):
        assert self.n == other.n
        out = AlgebraElement(self.n, dict(self.terms))
        for (loops, perm), c in other.terms.items():
            out.add_term(loops, perm, c)
        return out

    def scale(self, coeff):
        if not coeff:
            return AlgebraElement(self.n)
        return AlgebraElement(
            self.n, {k: P.pmul(v, coeff) for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def sorted_terms(self):
        def keyfun(item):
            (loops, perm), _ = item
            return (order_key(loops), perm_len(perm), perm)

        return sorted(self.terms.items(), key=keyfun)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (loops, perm), c in self.sorted_terms():
            w = canonical_word_str(loops, perm)
            if c == P.PONE:
                parts.append(w)
            else:
                parts.append("(%s) * %s" % (P.pformat(c), w))
        return " + ".join(parts)

    def to_json(self):
        out = []
        for (loops, perm), c in self.sorted_terms():
            out.append(
                {
                    "coeff": P.pformat(c),
                    "loops": [[i, e] for i, e in loops],
                    "tail": [[h, L] for h, L in perm_blocks(perm)],
                }
            )
        return {"n": self.n, "terms": out}


def canonical_word_str(loops, perm):
    parts = []
    for i, e in loops:
        base = "t%d'" % i
        parts.append(base if e == 1 else "%s^%d" % (base, e))
    blocks = perm_blocks(perm)
    if blocks:
        parts.append(
            " · ".join(
                " ".join("g%d" % i for i in range(h, h - L, -1))
                for h, L in blocks
            )
        )
    return " ".join(parts) if parts else "1"


# -- letter multiplication ---------------------------------------------------


def rmul_sigma(el, i, sign):
    """Right multiply by gi^{sign}.

    T_w gi^e (e = +-1) is T_{w si} when w si is longer than w for e = 1,
    or shorter for e = -1; otherwise the quadratic relation makes it
    q^e T_{w si} + (q^e - 1) T_w.
    """
    if not 1 <= i <= el.n - 1:
        raise WordError("g%d out of range for %d strands" % (i, el.n))
    a = i - 1
    up = sign > 0
    e = 1 if up else -1
    out = {}
    for (loops, perm), c in el.terms.items():
        lst = list(perm)
        lst[a], lst[i] = lst[i], lst[a]
        other = tuple(lst)
        # perm ascends at i exactly when the swapped values descend
        if (lst[a] > lst[i]) == up:
            _acc(out, (loops, other), c)
            continue
        qc = P.pshift(c, e, 0)
        dc = P.psub(qc, c)  # (q^e - 1) c, from the one shift
        _acc(out, (loops, other), qc)
        _acc(out, (loops, perm), dc)
    return AlgebraElement(el.n, out)


@functools.lru_cache(maxsize=None)
def _tail_table(perm, tail):
    """The braiding word tail times T_perm, as (perm', q-coefficient) pairs.

    Folds the tail letters and then T_perm's block letters through
    rmul_sigma, once per (perm, tail); rmul_axis scales this one expansion
    per term. Tails come from insert_loop, so there are at most
    n! * O(n^2) entries.
    """
    el = AlgebraElement.one(len(perm))
    for j, sgn in tail:
        el = rmul_sigma(el, j, sgn)
    for i in block_letters(perm_blocks(perm)):
        el = rmul_sigma(el, i, 1)
    return tuple((pm, c) for (_, pm), c in el.terms.items())


def rmul_axis(el, e):
    """Right multiply by the axis loop t^e."""
    one = P.PONE
    out = {}
    for (loops, perm), c in el.terms.items():
        for cf, loops2, tail in insert_loop(loops, axis_head(perm), e):
            cc = c if cf == one else P.pmul(c, cf)
            if not tail:
                _acc(out, (loops2, perm), cc)
                continue
            for pm, t in _tail_table(perm, tail):
                _acc(out, (loops2, pm), cc if t == one else P.pmul(cc, t))
    return AlgebraElement(el.n, out)


def rmul_ploop(el, j, e):
    """Right multiply by the primed loop letter tj'^e."""
    if j == 0:
        return rmul_axis(el, e)
    cur = el
    for i in range(j, 0, -1):
        cur = rmul_sigma(cur, i, 1)
    cur = rmul_axis(cur, e)
    for i in range(1, j + 1):
        cur = rmul_sigma(cur, i, -1)
    return cur


def rmul_loop(el, j, e):
    """Right multiply by the commuting loop letter tj^e."""
    if j == 0:
        return rmul_axis(el, e)
    if refused_loop_power((("loop", j, e),)):
        raise WordError(
            "loop power t%d^%d; |exponent| <= %d for %s powers of t%d"
            % (j, e, LOOP_POWER_MAX[j][e < 0], "inverse" if e < 0 else "positive", j)
        )
    sgn = 1 if e > 0 else -1
    cur = el
    for _ in range(abs(e)):
        for i in range(j, 0, -1):
            cur = rmul_sigma(cur, i, sgn)
        cur = rmul_axis(cur, sgn)
        for i in range(1, j + 1):
            cur = rmul_sigma(cur, i, sgn)
    return cur


def rmul_letter(el, kind, idx, exp):
    if kind == "sigma":
        if abs(exp) > BRAID_EXP_MAX:
            raise WordError(
                "braiding power g%d^%d; |exponent| <= %d" % (idx, exp, BRAID_EXP_MAX)
            )
        sgn = 1 if exp > 0 else -1
        cur = el
        for _ in range(abs(exp)):
            cur = rmul_sigma(cur, idx, sgn)
        return cur
    if kind == "loop":
        return rmul_loop(el, idx, exp)
    if kind == "ploop":
        return rmul_ploop(el, idx, exp)
    raise WordError("unknown letter kind %r" % kind)


def project_braid(word):
    """The image of a braid word in the algebra, in canonical form."""
    el = AlgebraElement.one(word.n)
    for kind, idx, exp in word.letters:
        el = rmul_letter(el, kind, idx, exp)
    return el


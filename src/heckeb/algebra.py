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
    t1'^K t^e = sum c * t^a t1'^b g1^{0|1}, solved once from the
    commutation t^e t_1^K = t_1^K t^e and memoized;
  * the swap's braiding byproduct conjugates to an explicit short word
    when transported to higher loop indices.

Coefficients here never involve z; they are Laurent polynomials in q
stored in the shared (q-exp, z-exp) dict representation with z-exp 0.
"""

from __future__ import annotations

import functools

from . import poly as P
from .words import MixedBraidWord, WordError, order_key

_Q1 = {(1, 0): 1, (0, 0): -1}  # q - 1
_QI1 = {(-1, 0): 1, (0, 0): -1}  # q^-1 - 1


def _times_qm1(c, e):
    """c * (q^e - 1), by a shift and a subtraction instead of P.pmul."""
    return P.psub(P.pshift(c, e, 0), c)


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


def _swap_left(w, i):
    """Transposition of the values i-1, i, applied after w."""
    a = i - 1
    return tuple(i if x == a else a if x == i else x for x in w)


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


# -- the two-strand engine ------------------------------------------------
#
# Elements of the two-strand algebra are dicts {(a, b, g): coeff} encoding
# t^a t1'^b g1^g with g in {0, 1}.

_swap_cache = {}
_unprime_cache = {}


def _h2_add(E, key, c):
    cur = E.get(key)
    if cur is None:
        if not P.pis_zero(c):
            E[key] = c
        return
    s = P.padd(cur, c)
    if P.pis_zero(s):
        del E[key]
    else:
        E[key] = s


def _h2_scale(E, c):
    return {k: P.pmul(v, c) for k, v in E.items()}


def _h2_combine(*parts):
    out = {}
    for E in parts:
        for k, v in E.items():
            _h2_add(out, k, v)
    return out


def h2_mul_t(E, e):
    """Right multiply by t^e."""
    if e == 0:
        return dict(E)
    out = {}
    for (a, b, g), c in E.items():
        if g:
            _h2_add(out, (a, b + e, 1), c)
        elif b == 0:
            _h2_add(out, (a + e, 0, 0), c)
        else:
            for cs, al, be, gg in swap_loops(b, e):
                _h2_add(out, (a + al, be, gg), P.pmul(c, cs))
    return out


def h2_mul_g1(E):
    """Right multiply by g1."""
    out = {}
    for (a, b, g), c in E.items():
        if g:
            _h2_add(out, (a, b, 1), _times_qm1(c, 1))
            _h2_add(out, (a, b, 0), P.pshift(c, 1, 0))
        else:
            _h2_add(out, (a, b, 1), c)
    return out


def h2_mul_tp(E, e):
    """Right multiply by t1'^e."""
    if e == 0:
        return dict(E)
    out = {}
    for (a, b, g), c in E.items():
        if not g:
            _h2_add(out, (a, b + e, 0), c)
            continue
        # g1 t1'^e = t^e g1 + (q-1) t1'^e - (q-1) t^e
        sub = h2_mul_t({(a, b, 0): c}, e)
        for k, v in h2_mul_g1(sub).items():
            _h2_add(out, k, v)
        _h2_add(out, (a, b + e, 0), _times_qm1(c, 1))
        for k, v in sub.items():
            _h2_add(out, k, _times_qm1(P.pneg(v), 1))
    return out


def h2_mul_t1(E, sign):
    """Right multiply by the commuting loop letter t1^{+-1}."""
    if sign == 1:
        # t1 = q t1' + (q-1) t1' g1
        T = h2_mul_tp(E, 1)
        return _h2_combine(
            {k: P.pshift(v, 1, 0) for k, v in T.items()},
            _h2_scale(h2_mul_g1(T), _Q1),
        )
    # t1^-1 = q^-1 t1'^-1 + q^-1 (q^-1 - 1) t^-1 g1 + (q^-1 - 1)^2 t^-1
    A = h2_mul_tp(E, -1)
    B = h2_mul_t(E, -1)
    c2 = P.pmul(_QI1, {(-1, 0): 1})  # q^-1 (q^-1 - 1)
    c3 = P.pmul(_QI1, _QI1)
    return _h2_combine(
        {k: P.pshift(v, -1, 0) for k, v in A.items()},
        _h2_scale(h2_mul_g1(B), c2),
        _h2_scale(B, c3),
    )


def unprime_loop(K):
    """The commuting loop power t1^K expanded over t^a t1'^b g1^g words."""
    E = _unprime_cache.get(K)
    if E is not None:
        return E
    if K == 0:
        E = {(0, 0, 0): P.pconst(1)}
    else:
        step = 1 if K > 0 else -1
        E = h2_mul_t1(unprime_loop(K - step), step)
        for (a, b, g), _ in E.items():
            assert a + b == K, "degree drift in loop expansion"
            if K > 0:
                assert a >= 0 and b >= 0
            else:
                assert a <= 0 and b <= 0
    _unprime_cache[K] = E
    return E


def swap_loops(K, e):
    """Reorder t1'^K t^e as a combination of t^a t1'^b g1^{0|1} words.

    Solved from t^e t1^K = t1^K t^e using the expansion of t1^K: the
    unique bare t1'^K term there has an invertible monomial coefficient,
    and every other term calls back into strictly smaller |b| swaps.
    Returns a tuple of (coeff, a, b, g) with a + b = K + e.
    """
    key = (K, e)
    hit = _swap_cache.get(key)
    if hit is not None:
        return hit
    if e == 0:
        out = ((P.pconst(1), 0, K, 0),)
    elif K == 0:
        out = ((P.pconst(1), e, 0, 0),)
    else:
        U = unprime_loop(K)
        c0 = U.get((0, K, 0))
        assert c0 is not None and P.pis_monomial(c0), "pivot term missing"
        cc, cqe, cze = P.pmonomial_parts(c0)
        acc = {}
        # t^e t1^K, with t^e prepended
        for (a, b, g), c in U.items():
            _h2_add(acc, (a + e, b, g), c)
        # minus t1^K t^e without the pivot word
        for (a, b, g), c in U.items():
            if (a, b, g) == (0, K, 0):
                continue
            nc = P.pneg(c)
            if g:
                _h2_add(acc, (a, b + e, 1), nc)
            elif b == 0:
                _h2_add(acc, (a + e, 0, 0), nc)
            else:
                assert abs(b) < abs(K), "swap recursion must shrink"
                for cs, al, be, gg in swap_loops(b, e):
                    _h2_add(acc, (a + al, be, gg), P.pmul(nc, cs))
        res = []
        for (a, b, g), c in sorted(acc.items()):
            q = P.pdivexact_mono(c, cc, cqe, cze)
            assert a + b == K + e, "degree drift in swap"
            res.append((q, a, b, g))
        out = tuple(res)
    _swap_cache[key] = out
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
    def zero(n):
        return AlgebraElement(n)

    @staticmethod
    def one(n):
        return AlgebraElement(n, {((), perm_id(n)): P.pconst(1)})

    @staticmethod
    def word(n, loops, perm, coeff=None):
        el = AlgebraElement(n)
        el.add_term(loops, perm, P.pconst(1) if coeff is None else coeff)
        return el

    def add_term(self, loops, perm, coeff):
        if P.pis_zero(coeff):
            return
        key = (loops, perm)
        cur = self.terms.get(key)
        if cur is None:
            self.terms[key] = coeff
            return
        s = P.padd(cur, coeff)
        if P.pis_zero(s):
            del self.terms[key]
        else:
            self.terms[key] = s

    def add(self, other):
        assert self.n == other.n
        out = AlgebraElement(self.n, dict(self.terms))
        for (loops, perm), c in other.terms.items():
            out.add_term(loops, perm, c)
        return out

    def sub(self, other):
        assert self.n == other.n
        out = AlgebraElement(self.n, dict(self.terms))
        for (loops, perm), c in other.terms.items():
            out.add_term(loops, perm, P.pneg(c))
        return out

    def scale(self, coeff):
        if P.pis_zero(coeff):
            return AlgebraElement.zero(self.n)
        return AlgebraElement(
            self.n, {k: P.pmul(v, coeff) for k, v in self.terms.items()}
        )

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.n != other.n or len(self.terms) != len(other.terms):
            return False
        for k, v in self.terms.items():
            w = other.terms.get(k)
            if w is None or not P.peq(v, w):
                return False
        return True

    __hash__ = None

    def sorted_terms(self):
        def keyfun(item):
            (loops, perm), _ = item
            idxs = tuple(i for i, _ in loops)
            exps = tuple(e for _, e in loops)
            return (order_key((idxs, exps)), perm_len(perm), perm)

        return sorted(self.terms.items(), key=keyfun)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (loops, perm), c in self.sorted_terms():
            w = canonical_word_str(loops, perm)
            if P.peq(c, P.pconst(1)):
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
    if not 1 <= i <= el.n - 1:
        raise WordError("g%d out of range for %d strands" % (i, el.n))
    out = AlgebraElement.zero(el.n)
    for (loops, perm), c in el.terms.items():
        asc = perm[i - 1] < perm[i]
        other = _swap_right(perm, i)
        if sign > 0:
            if asc:
                out.add_term(loops, other, c)
            else:
                out.add_term(loops, perm, _times_qm1(c, 1))
                out.add_term(loops, other, P.pshift(c, 1, 0))
        else:
            if asc:
                out.add_term(loops, other, P.pshift(c, -1, 0))
                out.add_term(loops, perm, _times_qm1(c, -1))
            else:
                out.add_term(loops, other, c)
    return out


def _tail_lmul(tails, i, sign):
    """Left multiply a {perm: coeff} table by gi^{sign}."""
    out = {}
    for perm, c in tails.items():
        asc = perm.index(i - 1) < perm.index(i)
        other = _swap_left(perm, i)
        if sign > 0:
            if asc:
                _h2_add(out, other, c)
            else:
                _h2_add(out, perm, _times_qm1(c, 1))
                _h2_add(out, other, P.pshift(c, 1, 0))
        else:
            if asc:
                _h2_add(out, other, P.pshift(c, -1, 0))
                _h2_add(out, perm, _times_qm1(c, -1))
            else:
                _h2_add(out, other, c)
    return out


@functools.lru_cache(maxsize=None)
def _tail_table(perm, tail):
    """The braiding word tail times T_perm, as (perm', q-coefficient) pairs.

    Left multiplication is linear in the coefficient, so rmul_axis scales
    this one expansion per term. Tails come from insert_loop, so there
    are at most n! * O(n^2) entries.
    """
    tails = {perm: P.pconst(1)}
    for j, sgn in reversed(tail):
        tails = _tail_lmul(tails, j, sgn)
    return tuple(tails.items())


def rmul_axis(el, e):
    if e == 0:
        return AlgebraElement(el.n, dict(el.terms))
    out = AlgebraElement.zero(el.n)
    for (loops, perm), c in el.terms.items():
        h = axis_head(perm)
        for cf, loops2, tail in insert_loop(loops, h, e):
            if not tail:
                out.add_term(loops2, perm, c if P.peq(cf, P.PONE) else P.pmul(c, cf))
                continue
            cc = P.pmul(c, cf)
            for pm, t in _tail_table(perm, tail):
                out.add_term(loops2, pm, P.pmul(cc, t))
    return out


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


def mul(a, b):
    """Product of two canonical-form elements."""
    if a.n != b.n:
        raise WordError("strand counts differ")
    out = AlgebraElement.zero(a.n)
    for (loops, perm), c in b.terms.items():
        cur = a.scale(c)
        for i, e in loops:
            cur = rmul_ploop(cur, i, e)
        for i in block_letters(perm_blocks(perm)):
            cur = rmul_sigma(cur, i, 1)
        out = out.add(cur)
    return out

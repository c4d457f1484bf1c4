"""Laurent-polynomial arithmetic in q and z.

A polynomial in q and z with integer coefficients is a plain dict
``{(qexp, zexp): coeff}`` with every stored coeff nonzero; the empty
dict is zero.  Exponents may be negative.  All functions return fresh
dicts and never mutate their arguments.

The gcd runs on big integers: both polynomials are packed into integers
by Kronecker substitution, CPython's integer gcd does the work, and the
unpacked gcd and cofactors are accepted only when a coefficient bound
and a degree check prove they multiply back to the inputs (heuristic
gcd, GCDHEU). A rejected candidate is retried with a different packing;
a primitive remainder sequence (PRS) is the last resort. pgcd returns
the two cofactors with the gcd, so reducing a fraction takes no
division. Exact division (pdivexact) by a polynomial that is not a
monomial is the PRS layer's long division.
"""

import math
import sys
from operator import itemgetter

_zexp = itemgetter(1)


def pzero():
    return {}


def pconst(c):
    return {(0, 0): c} if c else {}


PONE = pconst(1)


def pmono(c, qe, ze):
    return {(qe, ze): c} if c else {}


def pis_zero(a):
    return not a


def pis_monomial(a):
    return len(a) == 1


def peq(a, b):
    return a == b


def padd(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pneg(a):
    return {k: -c for k, c in a.items()}


def psub(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pscale(a, c):
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def pshift(a, qe, ze):
    if not qe and not ze:
        return dict(a)
    return {(k[0] + qe, k[1] + ze): v for k, v in a.items()}


def pmul(a, b):
    if not a or not b:
        return {}
    if len(b) == 1:
        ((qe, ze), c) = next(iter(b.items()))
        return {(k[0] + qe, k[1] + ze): v * c for k, v in a.items()}
    if len(a) == 1:
        ((qe, ze), c) = next(iter(a.items()))
        return {(k[0] + qe, k[1] + ze): v * c for k, v in b.items()}
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


def ppow(a, n):
    if n < 0:
        raise ValueError("negative power")
    out = {(0, 0): 1}
    base = dict(a)
    while n:
        if n & 1:
            out = pmul(out, base)
        n >>= 1
        if n:
            base = pmul(base, base)
    return out


def pcontent(a):
    """Positive gcd of all coefficients; 0 for the zero polynomial."""
    return math.gcd(*a.values())


def pdivexact_int(a, c):
    out = {}
    for k, v in a.items():
        d, r = divmod(v, c)
        if r:
            raise ValueError("inexact integer division")
        out[k] = d
    return out


def pdivexact_mono(a, c, qe, ze):
    """Divide by the monomial c*q^qe*z^ze; every coeff must divide."""
    out = {}
    for k, v in a.items():
        d, r = divmod(v, c)
        if r:
            raise ValueError("inexact monomial division")
        out[(k[0] - qe, k[1] - ze)] = d
    return out


def pminexp(a):
    """Componentwise minimum of exponents; (0, 0) for the zero poly."""
    if not a:
        return (0, 0)
    return (min(a)[0], min(a, key=_zexp)[1])


def pmonomial_parts(a):
    """For a one-term polynomial return (coeff, qexp, zexp)."""
    if len(a) != 1:
        raise ValueError("not a monomial")
    ((qe, ze), c) = next(iter(a.items()))
    return c, qe, ze


def _var_power(name, e):
    if e == 1:
        return name
    return "%s^%d" % (name, e)


def pformat(a, vars=("q", "z")):
    """Human-readable form, terms sorted by exponent."""
    if not a:
        return "0"
    parts = []
    for (qe, ze) in sorted(a):
        c = a[(qe, ze)]
        factors = []
        if qe:
            factors.append(_var_power(vars[0], qe))
        if ze:
            factors.append(_var_power(vars[1], ze))
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# -- gcd support ---------------------------------------------------------
# pgcd hands its work to CPython's big-integer gcd (GCDHEU: Char,
# Geddes, Gonnet, J. Symbolic Comput. 7 (1989) 31-48, with Kronecker
# substitution: Geddes, Czapor, Labahn, Algorithms for Computer Algebra,
# 1992, 7.7).
#
# Packing. A polynomial with minimal exponents (0, 0) and q-degree below
# D is the integer A(X, X^D): term (qe, ze) is base-X digit qe + D*ze.
# X = 2^(8w) for a digit width w of 1, 2, 4 or 8 bytes (native integers)
# or a multiple of 8, and X > 2 ||A|| + 1, so balanced digits read every
# coefficient back. The first X also covers ||A|| min(#A, #B), which
# saves most retries of the bound check below.
#
# Acceptance. The gcd h = gcd(A(X), B(X)) is unpacked to H, and the
# cofactor A(X) // h to C. H is accepted only when two checks prove
# H*C = A as polynomials (and likewise for B):
#   * ||H|| ||C|| min(#H, #C) < X/2 bounds every coefficient of H*C, so
#     H(X)C(X) = A(X) means H*C = A in Z[t] for q = t, z = t^D;
#   * deg_q H + deg_q C < D: no q-power of H*C wraps into the z-digits.
# By the GCDHEU theorem a gcd candidate that passes (for A and B) is the
# gcd, and the two checked cofactors are A/H and B/H, so pgcd returns
# them instead of dividing again.
#
# Retries. Integer images can share a factor the polynomials do not:
# z - q - qz and q - 1 - z both map to multiples of t^2 - t + 1 at D = 2,
# where the candidate 1 + z - q fails only the degree check. A retry
# therefore packs with D + 1 as well as a wider X. After _HEU_TRIES
# failures the primitive remainder sequence (PRS) further below decides.

_HEU_TRIES = 4

# digit width in bytes -> memoryview format of that native item size; the
# digits are little-endian, so other platforms take the generic path
_FORMATS = {}
if sys.byteorder == "little":
    _FORMATS = {memoryview(bytes(8)).cast(c).itemsize: c for c in "QIHB"}


def _norm(a):
    return max(max(a.values()), -min(a.values()))


def _width(m):
    """Digit bytes w with X = 2^(8w) > 2m + 1: 1, 2, 4, 8 or a multiple of 8."""
    w = (m.bit_length() + 8) // 8
    if w > 4:
        return (w + 7) // 8 * 8
    return 4 if w == 3 else w


def _halves(w, n):
    """n base-2^(8w) digits, each 2^(8w - 1), as little-endian bytes."""
    return (b"\x00" * (w - 1) + b"\x80") * n


def _digits(buf, w):
    """The little-endian base-2^(8w) digits of buf, as a mutable sequence
    over a copy of buf."""
    fmt = _FORMATS.get(w)
    if fmt is None:
        return [int.from_bytes(buf[i:i + w], "little") for i in range(0, len(buf), w)]
    return memoryview(bytearray(buf)).cast(fmt)


def _pack(a, d, w):
    """a(X, X^d) for X = 2^(8w); a needs min exponents (0, 0), q-degree
    below d and every |coeff| < X/2."""
    half = 1 << (8 * w - 1)
    offset = _halves(w, d * (max(a, key=_zexp)[1] + 1))
    digits = _digits(offset, w)
    for (qe, ze), c in a.items():
        digits[qe + d * ze] = c + half
    if isinstance(digits, list):
        digits = b"".join(v.to_bytes(w, "little") for v in digits)
    return int.from_bytes(digits, "little") - int.from_bytes(offset, "little")


def _unpack(h, d, w):
    """The balanced base-2^(8w) digits of h; digit e at (e % d, e // d)."""
    n = h.bit_length() // (8 * w) + 2
    offset = _halves(w, n)
    buf = (h + int.from_bytes(offset, "little")).to_bytes(n * w, "little")
    half = 1 << (8 * w - 1)
    return {(e % d, e // d): v - half
            for e, v in enumerate(_digits(buf, w)) if v != half}


def _product_bound(h, c, d):
    """A bound on the coefficients of h*c, or None when h*c wraps: its
    q-degree reaches d."""
    if max(h)[0] + max(c)[0] >= d:
        return None
    return _norm(h) * _norm(c) * min(len(h), len(c))


def _heu_gcd(a, b):
    """(g, a/g, b/g) for primitive a and b (min exponents (0, 0)) and g
    their gcd up to sign, or None when no packing in _HEU_TRIES proved a
    candidate."""
    d = 1 + max(max(a)[0], max(b)[0])
    w = _width(max(_norm(a), _norm(b)) * min(len(a), len(b)))
    for _ in range(_HEU_TRIES):
        x = _pack(a, d, w)
        y = _pack(b, d, w)
        h = math.gcd(x, y)
        if h == 1:
            return {(0, 0): 1}, a, b
        g = _unpack(h, d, w)
        c = math.gcd(*g.values())
        if c != 1:
            g = {k: v // c for k, v in g.items()}
            h //= c
        half = 1 << (8 * w - 1)
        ca = _unpack(x // h, d, w)
        bound = _product_bound(g, ca, d)
        if bound is not None and bound < half:
            cb = _unpack(y // h, d, w)
            bound = _product_bound(g, cb, d)
            if bound is not None and bound < half:
                return g, ca, cb
        d += 1
        w = _width(max(bound or 0, half))
    return None


def _cofactor(f, k, qe, ze):
    """k q^qe z^ze f; f itself when that is f (pgcd owns every f)."""
    if k == 1 and not qe and not ze:
        return f
    return {(e[0] + qe, e[1] + ze): v * k for e, v in f.items()}


def pgcd(a, b):
    """(g, a/g, b/g) for g a gcd of two Laurent polynomials, up to a
    monomial unit.

    g has minimal exponents (0, 0), integer content the gcd of the
    inputs' contents, and its lex-greatest term positive; for a zero
    argument g is the other one, shifted likewise (all three are zero
    when both are). Monomials are units here, so callers reduce fractions
    with it rather than compare it against a unique normal form. The
    cofactors are exact: g * (a/g) == a.
    """
    if not b:
        if not a:
            return {}, {}, {}
        qm, zm = pminexp(a)
        return pshift(a, -qm, -zm), {(qm, zm): 1}, {}
    if not a:
        g, fb, fa = pgcd(b, a)
        return g, fa, fb
    qa, za = pminexp(a)
    qb, zb = pminexp(b)
    a = pshift(a, -qa, -za)
    b = pshift(b, -qb, -zb)
    ca = pcontent(a)
    cb = pcontent(b)
    if ca != 1:
        a = {k: v // ca for k, v in a.items()}
    if cb != 1:
        b = {k: v // cb for k, v in b.items()}
    # a = g * fa and b = g * fb, with g primitive up to sign
    if len(a) == 1 or len(b) == 1:
        g, fa, fb = {(0, 0): 1}, a, b
    elif a == b:
        g, fa, fb = a, {(0, 0): 1}, {(0, 0): 1}
    else:
        out = _heu_gcd(a, b)
        if out is None:
            sa, sb = _split_z(a), _split_z(b)
            G = _zgcd(sa, sb)
            out = _join_z(G), _join_z(_zdivexact(sa, G)), _join_z(_zdivexact(sb, G))
        g, fa, fb = out
    c = math.gcd(ca, cb)
    if g[max(g)] < 0:
        c = -c
    if c != 1:
        g = {k: v * c for k, v in g.items()}
    return g, _cofactor(fa, ca // c, qa, za), _cofactor(fb, cb // c, qb, zb)


def pdivexact(a, b):
    """Exact division of Laurent polynomials; raises ValueError if inexact.

    A monomial divisor shifts and divides the coefficients; any other
    divisor takes the long division of the PRS layer below."""
    if not b:
        raise ZeroDivisionError("zero divisor")
    if not a:
        return {}
    qb, zb = pminexp(b)
    if len(b) == 1:
        return pdivexact_mono(a, b[(qb, zb)], qb, zb)
    qa, za = pminexp(a)
    out = _zdivexact(_split_z(pshift(a, -qa, -za)), _split_z(pshift(b, -qb, -zb)))
    return pshift(_join_z(out), qa - qb, za - zb)


# -- primitive remainder sequence ---------------------------------------
# The fallback of pgcd, the long division of pdivexact, and the
# reference the tests compare pgcd with. Univariate helpers work on dicts
# {exp: coeff} over the integers; the bivariate layer views a polynomial
# as a list over z-degree with q-poly coefficients.


def _qprim(f):
    """Primitive part with positive leading coefficient."""
    if not f:
        return {}
    g = math.gcd(*f.values())
    if f[max(f)] < 0:
        g = -g
    if g == 1:
        return dict(f)
    return {k: v // g for k, v in f.items()}


def _qabs(f):
    """Copy with positive leading coefficient, content kept."""
    if not f or f[max(f)] > 0:
        return dict(f)
    return {k: -v for k, v in f.items()}


def _qpseudo_rem(f, g):
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r[dr]
        nxt = {}
        for k, v in r.items():
            if k != dr:
                nxt[k] = v * lg
        for k, v in g.items():
            if k != dg:
                kk = k + dr - dg
                s = nxt.get(kk, 0) - v * lr
                if s:
                    nxt[kk] = s
                else:
                    nxt.pop(kk, None)
        r = nxt
    return r


def _qgcd(f, g):
    if not f:
        return _qabs(g)
    if not g:
        return _qabs(f)
    c = math.gcd(*f.values(), *g.values())
    f = _qprim(f)
    g = _qprim(g)
    while g:
        r = _qpseudo_rem(f, g)
        f, g = g, _qprim(r)
    if c != 1:
        f = {k: v * c for k, v in f.items()}
    return f


def _qdivexact(f, g):
    """Exact division in Z[x]; raises ValueError when inexact."""
    if not g:
        raise ZeroDivisionError("zero divisor")
    if not f:
        return {}
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    out = {}
    while r:
        dr = max(r)
        if dr < dg:
            raise ValueError("inexact division")
        t, rem = divmod(r[dr], lg)
        if rem:
            raise ValueError("inexact division")
        out[dr - dg] = t
        for k, v in g.items():
            kk = k + dr - dg
            s = r.get(kk, 0) - v * t
            if s:
                r[kk] = s
            else:
                r.pop(kk, None)
    return out


def _split_z(a):
    """Dict form (min exponents (0, 0)) to a z-degree list of q-polys."""
    zmax = max(k[1] for k in a)
    out = [dict() for _ in range(zmax + 1)]
    for (qe, ze), c in a.items():
        out[ze][qe] = c
    return out


def _join_z(L):
    out = {}
    for ze, f in enumerate(L):
        for qe, c in f.items():
            out[(qe, ze)] = c
    return out


def _ztrim(F):
    while F and not F[-1]:
        F.pop()
    return F


def _zcontent(F):
    g = {}
    for f in F:
        g = _qgcd(g, f)
        if g == {0: 1}:
            return g
    return g


def _zprim(F):
    g = _zcontent(F)
    if g == {0: 1}:
        return [dict(f) for f in F]
    return [_qdivexact(f, g) if f else {} for f in F]


def _zpseudo_rem(F, G):
    dg = len(G) - 1
    lg = G[dg]
    r = _ztrim([dict(f) for f in F])
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        lr = r[dr]
        # lg*r - lr*x^(dr-dg)*G; the top terms cancel by construction
        nxt = [_qmul(r[i], lg) if r[i] else {} for i in range(dr)]
        for i in range(dg):
            if G[i]:
                j = i + dr - dg
                nxt[j] = _qsub(nxt[j], _qmul(G[i], lr))
        r = _ztrim(nxt)
    return r


def _qmul(f, g):
    if not f or not g:
        return {}
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            k = a + b
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _qsub(f, g):
    out = dict(f)
    for k, v in g.items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _zgcd(F, G):
    F = _ztrim([dict(f) for f in F])
    G = _ztrim([dict(f) for f in G])
    if not F:
        return G
    if not G:
        return F
    c = _qgcd(_zcontent(F), _zcontent(G))
    F = _zprim(F)
    G = _zprim(G)
    if len(F) < len(G):
        F, G = G, F
    while G:
        R = _zpseudo_rem(F, G)
        F, G = G, (_zprim(R) if R else [])
    if c != {0: 1}:
        F = [_qmul(f, c) if f else {} for f in F]
    return F


def _zdivexact(F, G):
    F = _ztrim([dict(f) for f in F])
    G = _ztrim([dict(f) for f in G])
    if not G:
        raise ZeroDivisionError("zero divisor")
    if not F:
        return []
    dg = len(G) - 1
    lg = G[dg]
    out = [dict() for _ in range(len(F) - dg)]
    r = F
    while True:
        _ztrim(r)
        if not r:
            break
        dr = len(r) - 1
        if dr < dg:
            raise ValueError("inexact division")
        t = _qdivexact(r[dr], lg)
        out[dr - dg] = t
        for i in range(dg + 1):
            if G[i]:
                r[i + dr - dg] = _qsub(r[i + dr - dg], _qmul(G[i], t))
    return out

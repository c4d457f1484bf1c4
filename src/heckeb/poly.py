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
division. pdivexact is the one exact division: a monomial divisor, such
as algebra's loop-swap pivot, divides every coefficient, and any other
divisor takes the PRS's long division. The PRS is one recursive copy on
these dicts, over z, q and the integers, and uses no packing: the tests
check pgcd against it.
"""

import math
import sys
from operator import itemgetter

_zexp = itemgetter(1)


def pconst(c):
    return {(0, 0): c} if c else {}


PONE = pconst(1)


def pmono(c, qe, ze):
    return {(qe, ze): c} if c else {}


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


def pshift(a, qe, ze):
    if not qe and not ze:
        return dict(a)
    return {(k[0] + qe, k[1] + ze): v for k, v in a.items()}


def pmul(a, b):
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((qe, ze), c) = next(iter(b.items()))
        return {(k[0] + qe, k[1] + ze): v * c for k, v in a.items()}
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


def pminexp(a):
    """Componentwise minimum of exponents; (0, 0) for the zero poly."""
    if not a:
        return (0, 0)
    return (min(a)[0], min(a, key=_zexp)[1])


def _var_power(name, e):
    if e == 1:
        return name
    return "%s^%d" % (name, e)


def pformat(a):
    """Human-readable form, terms sorted by exponent."""
    if not a:
        return "0"
    parts = []
    for (qe, ze) in sorted(a):
        c = a[(qe, ze)]
        factors = []
        if qe:
            factors.append(_var_power("q", qe))
        if ze:
            factors.append(_var_power("z", ze))
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
    # a = g * fa and b = g * fb, with g primitive up to sign; a monomial
    # here is +-1, so the heuristic's first integer gcd gives g = 1
    if a == b:
        g, fa, fb = a, {(0, 0): 1}, {(0, 0): 1}
    else:
        out = _heu_gcd(a, b)
        if out is None:
            g = _gcd(a, b, 1)
            out = g, _divexact(a, g, 1), _divexact(b, g, 1)
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
    divisor takes the long division of the PRS below."""
    if not b:
        raise ZeroDivisionError("zero divisor")
    qb, zb = pminexp(b)
    if len(b) == 1:
        c = b[(qb, zb)]
        out = {}
        for (qe, ze), v in a.items():
            d, r = divmod(v, c)
            if r:
                raise ValueError("inexact monomial division")
            out[(qe - qb, ze - zb)] = d
        return out
    qa, za = pminexp(a)
    out = _divexact(pshift(a, -qa, -za), pshift(b, -qb, -zb), 1)
    return pshift(out, qa - qb, za - zb)


# -- primitive remainder sequence ---------------------------------------
# The fallback of pgcd, the long division of pdivexact, and the
# reference the tests compare pgcd with, so it calls neither pgcd nor the
# packing (Geddes, Czapor, Labahn, 1992, ch. 7). One recursive copy
# serves three levels of dicts with exponents >= 0: v = 1 is a polynomial
# in z with coefficients in Z[q], v = 0 one in q with integer
# coefficients (every ze = 0), and v = -1 an integer c as {(0, 0): c}.


def _lead(a, v):
    """(e, c) for a nonzero a: its degree e in z (v = 1) or q (v = 0),
    and the coefficient c of that power, a polynomial of level v - 1."""
    e = max(k[v] for k in a)
    return e, {(k[0] * v, 0): c for k, c in a.items() if k[v] == e}


def _shift(a, n, v):
    """a times z^n (v = 1) or q^n (v = 0)."""
    return pshift(a, 0, n) if v else pshift(a, n, 0)


def _prem(a, b, v):
    """The pseudo-remainder of a by b in the variable of level v."""
    d, lb = _lead(b, v)
    while a:
        e, la = _lead(a, v)
        if e < d:
            break
        # lb*a - la*x^(e-d)*b; the top terms cancel
        a = psub(pmul(a, lb), pmul(_shift(b, e - d, v), la))
    return a


def _divexact(a, b, v):
    """Exact quotient a / b at level v for b nonzero; raises ValueError
    when inexact."""
    if v < 0:
        t, r = divmod(a[(0, 0)], b[(0, 0)])
        if r:
            raise ValueError("inexact division")
        return {(0, 0): t}
    d, lb = _lead(b, v)
    out = {}
    while a:
        e, la = _lead(a, v)
        if e < d:
            raise ValueError("inexact division")
        t = _shift(_divexact(la, lb, v - 1), e - d, v)
        out = padd(out, t)
        a = psub(a, pmul(b, t))
    return out


def _content(a, v):
    """The gcd of a's coefficients at level v, a polynomial of level v - 1."""
    coeffs = {}
    for k, c in a.items():
        coeffs.setdefault(k[v], {})[(k[0] * v, 0)] = c
    g = {}
    for c in coeffs.values():
        g = _gcd(g, c, v - 1)
    return g


def _gcd(a, b, v):
    """A gcd of a and b at level v, up to sign."""
    if not a or not b:
        return dict(a or b)
    if v < 0:
        return {(0, 0): math.gcd(a[(0, 0)], b[(0, 0)])}
    ca = _content(a, v)
    cb = _content(b, v)
    a = _divexact(a, ca, v)
    b = _divexact(b, cb, v)
    while b:
        r = _prem(a, b, v)
        a, b = b, (_divexact(r, _content(r, v), v) if r else r)
    return pmul(a, _gcd(ca, cb, v - 1))

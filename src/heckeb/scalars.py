"""Exact scalar arithmetic for the two-variable coefficient field.

Coefficients live in the field of fractions of Z[q^{+-1}, z^{+-1}].
A value is represented as a pair of Laurent polynomials (num, den).
Every fraction is kept in one canonical form: num and den share no
factor but a unit, den's minimal exponents are (0, 0), and den's
lex-least term is positive. Equal values therefore have equal (num, den)
dicts, and equality compares them directly.

The constructor reduces arbitrary input by a polynomial gcd. The field
operations never take the gcd of a product (Henrici's method; Knuth,
TAOCP vol. 2, 4.5.1), because their inputs are already reduced:

  * every product, single or batched, is rf_scale_terms: many fractions
    x_i = n_i/d_i times one a/b cancel gcd(a, d_i) once per distinct
    denominator d_i, and gcd(n_i, b) per term, none when b = 1; the
    product of the cofactors is then reduced. x * y is the case of one
    term, and x / y multiplies by the inverse of y. The rules of a
    band-move system share a few denominators, mostly powers of N = z+1-q.
  * a/b +- c/d with g = gcd(b, d) forms t = a (d/g) +- c (b/g) over
    b (d/g); only gcd(t, g) can cancel. When a denominator is 1, or b
    and d are coprime, no gcd is taken at all; when b = d, g = b.
  * powers are powers of num and den, which stay coprime.

A cancellation calls P.pgcd, which returns the cofactors a/g and b/g
with the gcd, so no exact division follows it. A gcd against a monomial
reduces to an integer gcd of contents, because monomials are units: when
a content is 1 or the contents are coprime, no gcd is taken, and
otherwise P.pgcd cancels the shared content.

The module also provides the loop-removal constant lam = (z+1-q)/(qz),
the variable substitution map q -> q^{-1}, z -> lam*z (rf_invmap), which
is an involution on the field and takes at most one gcd per fraction,
and the closure scalars d^m w^e in closed form (delta_pow). The framing
unit w has w^2 = lam and is not in the field, so a closure scalar is a
fraction r with a parity bit: r w^0 or r w^1. The normalization
constant d = w q/(z+1-q) has d w = 1/z.
"""

import math

from . import poly as P


def _cancel(a, b):
    """(a/g, b/g, g) for g a gcd of nonzero a and b, normalized as by
    P.pgcd."""
    mono = a if len(a) == 1 else b if len(b) == 1 else None
    # monomials are units, so only an integer can cancel, as in
    # gcd(3 - 3z, 3z) = 3, which pgcd takes
    if mono is not None and (
        P.pcontent(mono) == 1 or math.gcd(P.pcontent(a), P.pcontent(b)) == 1
    ):
        return a, b, P.PONE
    g, a, b = P.pgcd(a, b)
    return a, b, g


class RatFunc:
    """A ratio of integer Laurent polynomials in q and z."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = P.pconst(1)
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den
        self._normalize()

    def _normalize(self):
        if self.num:
            self.num, self.den, _ = _cancel(self.num, self.den)
        self._normalize_units()

    def _normalize_units(self):
        """Fix the unit of a fraction whose num and den are coprime."""
        if not self.num:
            self.den = P.pconst(1)
            return
        qe, ze = P.pminexp(self.den)
        if qe or ze:
            self.den = P.pshift(self.den, -qe, -ze)
            self.num = P.pshift(self.num, -qe, -ze)
        # also turns a denominator -1 into 1
        if self.den[min(self.den)] < 0:
            self.num = P.pneg(self.num)
            self.den = P.pneg(self.den)

    @staticmethod
    def _reduced(num, den):
        """num/den for coprime num and den, built without a gcd."""
        r = RatFunc.__new__(RatFunc)
        r.num = num
        r.den = den
        r._normalize_units()
        return r

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other, op):
        """a/b op c/d for op = P.padd or P.psub."""
        a, b, c, d = self.num, self.den, other.num, other.den
        one = P.PONE
        if b == d:
            g, bq, dq = b, one, one
        else:
            bq, dq, g = _cancel(b, d)
        t = op(P.pmul(a, dq), P.pmul(c, bq))
        if not t or g == one:
            return RatFunc._reduced(t, P.pmul(bq, dq))
        # t is prime to bq and dq, so only a factor of g can cancel
        t, g, _ = _cancel(t, g)
        return RatFunc._reduced(t, P.pmul(P.pmul(g, bq), dq))

    def __add__(self, other):
        return self._combine(other, P.padd)

    def __sub__(self, other):
        return self._combine(other, P.psub)

    def __neg__(self):
        return RatFunc._reduced(P.pneg(self.num), self.den)

    def __mul__(self, other):
        ((_, r),) = rf_scale_terms({None: self}, other)
        return r

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero value")
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc._reduced(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._reduced(P.ppow(self.num, n), P.ppow(self.den, n))

    # -- output ---------------------------------------------------------

    def __str__(self):
        if self.den == P.PONE:
            return P.pformat(self.num)
        return "(%s)/(%s)" % (P.pformat(self.num), P.pformat(self.den))

    def __repr__(self):
        return "RatFunc(%s)" % self

    def to_json(self):
        return {"num": P.pformat(self.num), "den": P.pformat(self.den)}


def rf_scale_terms(terms, f):
    """Yield (key, x * f) for every item of the dict terms.

    Every product of fractions, x * f included, is this one. With x = n/d
    and f = a/b, gcd(a, d) is taken once per distinct denominator d of the
    x, and gcd(n, b) once per numerator n, not at all when b = 1.
    """
    a, b = f.num, f.den
    b_one = b == P.PONE
    by_den = {}
    for key, x in terms.items():
        n, d = x.num, x.den
        if not n or not a:
            yield key, RatFunc({})
            continue
        dkey = frozenset(d.items())
        cof = by_den.get(dkey)
        if cof is None:
            cof = by_den[dkey] = _cancel(a, d)
        bn = b
        if not b_one:
            n, bn, _ = _cancel(n, b)
        yield key, RatFunc._reduced(P.pmul(n, cof[0]), P.pmul(cof[1], bn))


def rf_int(c):
    return RatFunc(P.pconst(c))


def rf_mono(c, qe=0, ze=0):
    return RatFunc(P.pmono(c, qe, ze))


RF_ZERO = rf_int(0)


def big_n():
    """The polynomial z + 1 - q (numerator of q*z*lam)."""
    return {(0, 1): 1, (0, 0): 1, (1, 0): -1}


def lam():
    """The loop-removal scalar (z + 1 - q) / (q z)."""
    return RatFunc(big_n(), P.pmono(1, 1, 1))


def rf_z():
    return rf_mono(1, 0, 1)


# N^0, N^1, ...: grown on demand by _n_power and only read, so no entry
# is handed to a caller
_N_POWERS = [P.PONE]


def _n_power(k):
    while len(_N_POWERS) <= k:
        _N_POWERS.append(P.pmul(_N_POWERS[-1], big_n()))
    return _N_POWERS[k]


def _invmap_poly(a):
    """(A, s) with a(1/q, N/q) = A / N^s for a nonzero polynomial a.

    z -> N/q is z -> lam*z. s = max(0, -least z-exponent of a), and the
    term c q^i z^j becomes c q^(-i-j) N^(j+s) / N^s.
    """
    s = max(0, -min(ze for _, ze in a))
    out = {}
    for (qe, ze), c in a.items():
        shift = -qe - ze
        for (nq, nz), nc in _n_power(ze + s).items():
            k = (nq + shift, nz)
            v = out.get(k, 0) + c * nc
            if v:
                out[k] = v
            else:
                del out[k]
    return out, s


def rf_invmap(r):
    """The involution q -> q^{-1}, z -> lam*z on a RatFunc.

    num/den maps to A_num N^(s_den) / (A_den N^(s_num)) in the notation
    of _invmap_poly. The common power of N is dropped, and the
    constructor's one gcd reduces the rest.
    """
    if not r.num:
        return RatFunc({})
    num, s_num = _invmap_poly(r.num)
    den, s_den = _invmap_poly(r.den)
    if s_den > s_num:
        num = P.pmul(num, _n_power(s_den - s_num))
    elif s_num > s_den:
        den = P.pmul(den, _n_power(s_num - s_den))
    return RatFunc(num, den)


def delta_pow(m, e):
    """d^m w^e as (RatFunc, parity): the value is r * w^parity.

    d = w q/N and w^2 = lam = N/(q z) with N = z+1-q, so with s = m + e
    and a = floor(s/2), d^m w^e = N^(a-m) q^(m-a) z^(-a) w^(s mod 2).
    N^k and monomials are coprime, so the fraction needs no gcd.
    """
    s = m + e
    a = s // 2
    if a >= m:
        num, den = P.pshift(_n_power(a - m), m - a, -a), P.pconst(1)
    else:
        num, den = P.pmono(1, m - a, -a), dict(_n_power(m - a))
    return RatFunc._reduced(num, den), s % 2

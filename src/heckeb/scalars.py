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

  * a/b * c/d cancels gcd(a, d) and gcd(c, b) first; the product of the
    cofactors is then reduced. Division multiplies by d/c.
  * a/b +- c/d with g = gcd(b, d) forms t = a (d/g) +- c (b/g) over
    b (d/g); only gcd(t, g) can cancel. When a denominator is 1, or b
    and d are coprime, no gcd is taken at all; when b = d, g = b.
  * powers are powers of num and den, which stay coprime.

Each cancellation is one call of P.pgcd, which returns the cofactors
a/g and b/g with the gcd, so no exact division follows it. A gcd
against a monomial reduces to an integer gcd of contents, because
monomials are units.

The module also provides the loop-removal constant lam = (z+1-q)/(qz),
the framing unit w with w^2 = lam (class HalfTwistScalar), and the
variable substitution map q -> q^{-1}, z -> lam*z (invmap), which is an
involution on the field.
"""

from __future__ import annotations

import math

from . import poly as P


def _cancel(a, b):
    """(a/g, b/g, g) for g a gcd of nonzero a and b, normalized as by
    P.pgcd."""
    mono = a if P.pis_monomial(a) else b if P.pis_monomial(b) else None
    if mono is not None:
        # monomials are units, so only an integer can cancel:
        # gcd(3 - 3z, 3z) = 3
        c = P.pcontent(mono)
        if c != 1:
            c = math.gcd(P.pcontent(a), P.pcontent(b))
        if c == 1:
            return a, b, P.PONE
        return P.pdivexact_int(a, c), P.pdivexact_int(b, c), P.pconst(c)
    g, a, b = P.pgcd(a, b)
    return a, b, g


class RatFunc:
    """A ratio of integer Laurent polynomials in q and z."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = P.pconst(1)
        if P.pis_zero(den):
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den
        self._normalize()

    def _normalize(self):
        if not P.pis_zero(self.num):
            self.num, self.den, _ = _cancel(self.num, self.den)
        self._normalize_units()

    def _normalize_units(self):
        """Fix the unit of a fraction whose num and den are coprime."""
        if P.pis_zero(self.num):
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

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(c):
        return RatFunc(P.pconst(c))

    @staticmethod
    def from_poly(a):
        return RatFunc(dict(a))

    @staticmethod
    def monomial(c, qe=0, ze=0):
        return RatFunc(P.pmono(c, qe, ze))

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return P.pis_zero(self.num)

    def is_one(self):
        return P.peq(self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return P.peq(self.num, other.num) and P.peq(self.den, other.den)

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other, op):
        """a/b op c/d for op = P.padd or P.psub."""
        a, b, c, d = self.num, self.den, other.num, other.den
        one = P.PONE
        if P.peq(b, d):
            g, bq, dq = b, one, one
        elif P.peq(b, one) or P.peq(d, one):
            g, bq, dq = one, b, d
        else:
            bq, dq, g = _cancel(b, d)
        t = op(P.pmul(a, dq), P.pmul(c, bq))
        if P.pis_zero(t) or P.peq(g, one):
            return RatFunc._reduced(t, P.pmul(bq, dq))
        # t is prime to bq and dq, so only a factor of g can cancel
        t, g, _ = _cancel(t, g)
        return RatFunc._reduced(t, P.pmul(P.pmul(g, bq), dq))

    @staticmethod
    def _product(a, b, c, d):
        """(a/b)(c/d) for coprime pairs (a, b) and (c, d)."""
        if P.pis_zero(a) or P.pis_zero(c):
            return RatFunc(P.pzero())
        if not P.peq(d, P.PONE):
            a, d, _ = _cancel(a, d)
        if not P.peq(b, P.PONE):
            c, b, _ = _cancel(c, b)
        return RatFunc._reduced(P.pmul(a, c), P.pmul(b, d))

    def __add__(self, other):
        return self._combine(other, P.padd)

    def __sub__(self, other):
        return self._combine(other, P.psub)

    def __neg__(self):
        return RatFunc._reduced(P.pneg(self.num), self.den)

    def __mul__(self, other):
        return RatFunc._product(self.num, self.den, other.num, other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero value")
        return RatFunc._product(self.num, self.den, other.den, other.num)

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
        if P.peq(self.den, P.pconst(1)):
            return P.pformat(self.num)
        return "(%s)/(%s)" % (P.pformat(self.num), P.pformat(self.den))

    def __repr__(self):
        return "RatFunc(%s)" % self

    def to_json(self):
        return {"num": P.pformat(self.num), "den": P.pformat(self.den)}


RF_ZERO = RatFunc.from_int(0)
RF_ONE = RatFunc.from_int(1)


def rf_int(c):
    return RatFunc.from_int(c)


def rf_mono(c, qe=0, ze=0):
    return RatFunc.monomial(c, qe, ze)


def big_n():
    """The polynomial z + 1 - q (numerator of q*z*lam)."""
    return {(0, 1): 1, (0, 0): 1, (1, 0): -1}


def lam():
    """The loop-removal scalar (z + 1 - q) / (q z)."""
    return RatFunc(big_n(), P.pmono(1, 1, 1))


def lam_pow(k):
    return lam() ** k


def rf_z():
    return rf_mono(1, 0, 1)


def invmap_poly(a):
    """Apply q -> q^{-1}, z -> (z+1-q)/q to a Laurent polynomial.

    z^b picks up N^b with N = z+1-q; negative b values are cleared by a
    common power of N in the denominator.
    """
    if P.pis_zero(a):
        return RF_ZERO
    bmin = min(ze for _, ze in a)
    shift = max(0, -bmin)
    n = big_n()
    # cache powers of N up to the largest needed; the denominator uses
    # N^shift even when every z-exponent is negative
    bmax = max(ze for _, ze in a)
    top = max(bmax + shift, shift)
    pows = [P.pconst(1)]
    for _ in range(top):
        pows.append(P.pmul(pows[-1], n))
    num = P.pzero()
    for (qe, ze), c in a.items():
        term = P.pshift(pows[ze + shift], -qe - ze, 0)
        num = P.padd(num, P.pscale(term, c))
    den = pows[shift] if shift else P.pconst(1)
    return RatFunc(num, dict(den))


def rf_invmap(r):
    """The involution q -> q^{-1}, z -> lam*z on a RatFunc."""
    return invmap_poly(r.num) / invmap_poly(r.den)


class HalfTwistScalar:
    """An element even + odd*w of the quadratic extension with w^2 = lam.

    The unit w tracks half framing twists: w^2 = lam exactly, and the
    normalization constant for closures is delta = w * q/(z+1-q) so that
    delta * w = 1/z.
    """

    __slots__ = ("even", "odd")

    def __init__(self, even, odd=None):
        self.even = even
        self.odd = RF_ZERO if odd is None else odd

    @staticmethod
    def from_rf(r):
        return HalfTwistScalar(r, RF_ZERO)

    @staticmethod
    def w_power(e):
        """w^e folded to even/odd parts using w^2 = lam."""
        body = lam_pow(e // 2)
        if e % 2:
            return HalfTwistScalar(RF_ZERO, body)
        return HalfTwistScalar(body, RF_ZERO)

    def is_zero(self):
        return self.even.is_zero() and self.odd.is_zero()

    def __eq__(self, other):
        if not isinstance(other, HalfTwistScalar):
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None

    def __add__(self, other):
        return HalfTwistScalar(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other):
        return HalfTwistScalar(self.even - other.even, self.odd - other.odd)

    def __neg__(self):
        return HalfTwistScalar(-self.even, -self.odd)

    def __mul__(self, other):
        lm = lam()
        return HalfTwistScalar(
            self.even * other.even + self.odd * other.odd * lm,
            self.even * other.odd + self.odd * other.even,
        )

    def scale(self, r):
        return HalfTwistScalar(self.even * r, self.odd * r)

    def inverse(self):
        nrm = self.even * self.even - self.odd * self.odd * lam()
        if nrm.is_zero():
            raise ZeroDivisionError("non-invertible half-twist scalar")
        inv = nrm.inverse()
        return HalfTwistScalar(self.even * inv, -(self.odd * inv))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = HalfTwistScalar.from_rf(RF_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __str__(self):
        if self.odd.is_zero():
            return str(self.even)
        if self.even.is_zero():
            return "(%s) * w" % self.odd
        return "(%s) + (%s) * w" % (self.even, self.odd)

    def __repr__(self):
        return "HalfTwistScalar(%s)" % self

    def to_json(self):
        return {"even": self.even.to_json(), "odd": self.odd.to_json()}


def delta():
    """Closure normalization constant: delta = w * q/(z+1-q), delta*w = 1/z."""
    return HalfTwistScalar(RF_ZERO, RatFunc(P.pmono(1, 1, 0), big_n()))


def delta_pow(m):
    return delta() ** m

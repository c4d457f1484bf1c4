"""Exact scalar arithmetic for the two-variable coefficient field.

Coefficients live in the field of fractions of Z[q^{+-1}, z^{+-1}].
A value is represented as a pair of Laurent polynomials (num, den).
Every fraction is reduced on construction: the polynomial gcd of
numerator and denominator is cancelled, then integer content, monomial
units and the sign of the denominator are normalized so output is
stable. Equality is decided exactly by cross multiplication.

The module also provides the loop-removal constant lam = (z+1-q)/(qz),
the framing unit w with w^2 = lam (class HalfTwistScalar), and the
variable substitution map q -> q^{-1}, z -> lam*z (invmap), which is an
involution on the field.
"""

from __future__ import annotations

import math

from . import poly as P


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
        if P.pis_zero(self.num):
            self.den = P.pconst(1)
            return
        # shift den's minimal exponents to (0, 0)
        qe, ze = P.pminexp(self.den)
        if qe or ze:
            self.den = P.pshift(self.den, -qe, -ze)
            self.num = P.pshift(self.num, -qe, -ze)
        # single-term denominator divides out entirely when exact
        if P.pis_monomial(self.den):
            c, _, _ = P.pmonomial_parts(self.den)
            if c in (1, -1):
                if c == -1:
                    self.num = P.pneg(self.num)
                self.den = P.pconst(1)
                return
            try:
                self.num = P.pdivexact_int(self.num, c)
                self.den = P.pconst(1)
                return
            except ValueError:
                pass
        # cancel the polynomial gcd; keeps elimination chains from
        # compounding denominators (den keeps minimal exponents (0, 0)
        # under this division, so the shift above stays valid)
        g = P.pgcd(self.num, self.den)
        if len(g) > 1:
            self.num = P.pdivexact(self.num, g)
            self.den = P.pdivexact(self.den, g)
        # integer content
        g = P.pcontent(self.num)
        h = P.pcontent(self.den)
        d = math.gcd(g, h)
        if d > 1:
            self.num = P.pdivexact_int(self.num, d)
            self.den = P.pdivexact_int(self.den, d)
        # sign: lex-least denominator term gets a positive coefficient
        lead = min(self.den)
        if self.den[lead] < 0:
            self.num = P.pneg(self.num)
            self.den = P.pneg(self.den)

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
        return P.peq(P.pmul(self.num, other.den), P.pmul(other.num, self.den))

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if P.peq(self.den, other.den):
            return RatFunc(P.padd(self.num, other.num), dict(self.den))
        return RatFunc(
            P.padd(P.pmul(self.num, other.den), P.pmul(other.num, self.den)),
            P.pmul(self.den, other.den),
        )

    def __sub__(self, other):
        if P.peq(self.den, other.den):
            return RatFunc(P.psub(self.num, other.num), dict(self.den))
        return RatFunc(
            P.psub(P.pmul(self.num, other.den), P.pmul(other.num, self.den)),
            P.pmul(self.den, other.den),
        )

    def __neg__(self):
        return RatFunc(P.pneg(self.num), dict(self.den))

    def __mul__(self, other):
        return RatFunc(P.pmul(self.num, other.num), P.pmul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero value")
        return RatFunc(P.pmul(self.num, other.den), P.pmul(self.den, other.num))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(dict(self.den), dict(self.num))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = RatFunc.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale_poly(self, a):
        """Multiply by a bare Laurent polynomial."""
        return RatFunc(P.pmul(self.num, a), dict(self.den))

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
            base = base * base
            n >>= 1
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

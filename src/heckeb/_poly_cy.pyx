# cython: boundscheck=False, wraparound=False
"""Compiled backend for Laurent-polynomial arithmetic.

Same representation and API as the pure-Python module: a polynomial is
a dict ``{(qexp, zexp): coeff}`` with nonzero integer coeffs, empty
dict meaning zero.  Coefficients stay arbitrary-precision Python ints;
the compilation removes interpreter overhead from the inner loops.
The gcd and exact division are not here: ``heckeb.poly`` takes them from
the pure-Python module for both backends.
"""

import math


def pzero():
    return {}


def pconst(c):
    return {(0, 0): c} if c else {}


def pmono(c, qe, ze):
    return {(qe, ze): c} if c else {}


def pis_zero(a):
    return not a


def pis_monomial(a):
    return len(a) == 1


def peq(a, b):
    return a == b


def padd(dict a, dict b):
    cdef dict out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pneg(dict a):
    cdef dict out = {}
    for k, c in a.items():
        out[k] = -c
    return out


def psub(dict a, dict b):
    cdef dict out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pscale(dict a, c):
    cdef dict out = {}
    if not c:
        return out
    for k, v in a.items():
        out[k] = v * c
    return out


def pshift(dict a, long qe, long ze):
    cdef dict out = {}
    if qe == 0 and ze == 0:
        return dict(a)
    for k, v in a.items():
        out[(k[0] + qe, k[1] + ze)] = v
    return out


def pmul(dict a, dict b):
    cdef dict out = {}
    if not a or not b:
        return out
    if len(b) == 1:
        ((qe, ze), c) = next(iter(b.items()))
        for k, v in a.items():
            out[(k[0] + qe, k[1] + ze)] = v * c
        return out
    if len(a) == 1:
        ((qe, ze), c) = next(iter(a.items()))
        for k, v in b.items():
            out[(k[0] + qe, k[1] + ze)] = v * c
        return out
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1])
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def ppow(dict a, long n):
    if n < 0:
        raise ValueError("negative power")
    cdef dict out = {(0, 0): 1}
    cdef dict base = dict(a)
    while n:
        if n & 1:
            out = pmul(out, base)
        n >>= 1
        if n:
            base = pmul(base, base)
    return out


def pcontent(dict a):
    return math.gcd(*a.values())


def pdivexact_int(dict a, c):
    cdef dict out = {}
    for k, v in a.items():
        d, r = divmod(v, c)
        if r:
            raise ValueError("inexact integer division")
        out[k] = d
    return out


def pdivexact_mono(dict a, c, long qe, long ze):
    cdef dict out = {}
    for k, v in a.items():
        d, r = divmod(v, c)
        if r:
            raise ValueError("inexact monomial division")
        out[(k[0] - qe, k[1] - ze)] = d
    return out


def pminexp(dict a):
    if not a:
        return (0, 0)
    qm = min(k[0] for k in a)
    zm = min(k[1] for k in a)
    return (qm, zm)

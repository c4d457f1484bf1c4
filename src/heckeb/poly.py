"""Backend facade for Laurent-polynomial arithmetic in q and z.

Selects the compiled extension when available, falling back to the
pure-Python implementation.  Set ``HECKEB_PURE=1`` to force the
fallback (useful for benchmarking and debugging).

Both backends share one representation: a polynomial is a plain dict
``{(qexp, zexp): coeff}`` with nonzero int coeffs; ``{}`` is zero.
The gcd and exact division always come from the pure-Python module:
their work is done by CPython's big-integer gcd and division, which a
compiled copy would not speed up.
"""

import os

from heckeb import _poly_py

if os.environ.get("HECKEB_PURE"):
    _impl = _poly_py
    BACKEND = "python"
else:
    try:
        from heckeb import _poly_cy as _impl

        BACKEND = "compiled"
    except ImportError:
        _impl = _poly_py
        BACKEND = "python"

pzero = _impl.pzero
pconst = _impl.pconst
pmono = _impl.pmono
pis_zero = _impl.pis_zero
pis_monomial = _impl.pis_monomial
peq = _impl.peq
padd = _impl.padd
pneg = _impl.pneg
psub = _impl.psub
pscale = _impl.pscale
pshift = _impl.pshift
pmul = _impl.pmul
ppow = _impl.ppow
pcontent = _impl.pcontent
pdivexact_int = _impl.pdivexact_int
pdivexact_mono = _impl.pdivexact_mono
pminexp = _impl.pminexp
pgcd = _poly_py.pgcd
pdivexact = _poly_py.pdivexact

PONE = pconst(1)


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

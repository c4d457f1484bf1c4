"""The Markov-type trace, the solid-torus link invariant, and band moves.

The trace sends a canonical word to a polynomial in q, z and the family
s_k (k a nonzero integer), one s per surviving loop exponent:

  * tr(1) = 1, tr(X tn-1'^k) = s_k tr(X);
  * tr(X g_{n-1} Y) = z tr(X Y) when X, Y use only the first n-1 strands;
  * tr is linear and computed by peeling the top strand.

Each distinct raw trace value is stored once: words with equal traces
share one interned dict, so the trace of an element sums the
coefficients of the words that share a value and multiplies each value
once.

TraceValue holds such a value with rational-function coefficients.
invariant_x rescales a closed-braid trace into the ambient-isotopy
invariant X = c(w) tr(w), with the closure scalar c(w) = d^{n-1} w^e,
where e is the braiding exponent sum, w^2 = lam, and d = w q/(z+1-q).
With m = n-1+e, a = floor(m/2) and N = z+1-q, c(w) is the fraction
N^(a-(n-1)) q^((n-1)-a) z^(-a) times w^(m mod 2), so an XValue is a
parity bit and rational-function terms. map_I is the variable flip
q -> q^{-1}, z -> lam z extended to s-indices for a modulus p, and
bbm_equation assembles the trace identity a band
move imposes, checking that its coefficient is the ratio of the two
closure scalars. bbm_equation_pair assembles both signs of one source
from one trace of the source and one projection of the shared stem of
the two image words.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import poly as P
from .algebra import (
    AlgebraElement,
    perm_blocks,
    perm_of_blocks,
    project_braid,
    rmul_ploop,
    rmul_sigma,
)
from .scalars import (
    RatFunc,
    RF_ONE,
    RF_ZERO,
    delta_pow,
    lam_pow,
    rf_invmap,
    rf_mono,
)
from .words import LoopMonomial, MixedBraidWord, WordError, bbm_image, sigma_exponent_sum


class TraceDomainError(ValueError):
    """An s-index left the domain of the requested operation."""


def mono_str(m):
    return "".join("s[%d]" % i for i in m) if m else "1"


def mono_level(m):
    return sum(m)


def _mono_insert(m, k):
    return tuple(sorted(m + (k,)))


# -- raw trace over polynomial coefficients --------------------------------

_trace_cache = {}
# one shared dict per distinct trace value, keyed by its (monomial,
# coefficient items) pairs; callers never mutate a cached value
_trace_values = {}


def _intern(out):
    key = frozenset((m, frozenset(v.items())) for m, v in out.items())
    return _trace_values.setdefault(key, out)


def _trace_word(n, loops, perm):
    key = (n, loops, perm)
    hit = _trace_cache.get(key)
    if hit is not None:
        return hit
    if n == 1:
        if loops:
            out = {(loops[0][1],): P.pconst(1)}
        else:
            out = {(): P.pconst(1)}
        out = _trace_cache[key] = _intern(out)
        return out
    top = n - 1
    top_loop = loops[-1][1] if loops and loops[-1][0] == top else None
    blocks = perm_blocks(perm)
    top_block = blocks[-1] if blocks and blocks[-1][0] == top else None
    if top_loop is None and top_block is None:
        out = _trace_word(n - 1, loops, perm[: n - 1])
    elif top_block is None:
        rest = _trace_word(n - 1, loops[:-1], perm[: n - 1])
        out = {_mono_insert(m, top_loop): v for m, v in rest.items()}
    else:
        _, length = top_block
        w_rest = perm_of_blocks(blocks[:-1], n - 1)
        if top_loop is None:
            el = AlgebraElement.word(n - 1, loops, w_rest)
        else:
            el = AlgebraElement.word(n - 1, loops[:-1], w_rest)
            el = rmul_ploop(el, n - 2, top_loop)
        for i in range(n - 2, n - 1 - length, -1):
            el = rmul_sigma(el, i, 1)
        inner = _trace_element(el)
        out = {m: P.pshift(v, 0, 1) for m, v in inner.items()}
    out = _trace_cache[key] = _intern(out)
    return out


def _trace_element(el):
    # words with one interned trace value share one product per monomial
    groups = {}
    for (loops, perm), c in el.terms.items():
        v = _trace_word(el.n, loops, perm)
        hit = groups.get(id(v))
        groups[id(v)] = (v, c) if hit is None else (v, P.padd(hit[1], c))
    out = {}
    for v, c in groups.values():
        if P.pis_zero(c):
            continue
        for m, pv in v.items():
            prod = P.pmul(c, pv)
            cur = out.get(m)
            if cur is None:
                out[m] = prod
            else:
                s = P.padd(cur, prod)
                if P.pis_zero(s):
                    del out[m]
                else:
                    out[m] = s
    return out


# -- trace values ------------------------------------------------------------


class TraceValue:
    """A finite sum of rational-function multiples of s-monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    @staticmethod
    def from_poly_terms(d):
        return TraceValue({m: RatFunc.from_poly(v) for m, v in d.items()})

    @staticmethod
    def zero():
        return TraceValue()

    @staticmethod
    def one():
        return TraceValue({(): RF_ONE})

    def is_zero(self):
        return not self.terms

    def add_term(self, m, c):
        if c.is_zero():
            return
        cur = self.terms.get(m)
        if cur is None:
            self.terms[m] = c
            return
        s = cur + c
        if s.is_zero():
            del self.terms[m]
        else:
            self.terms[m] = s

    def add(self, other):
        out = TraceValue(dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def sub(self, other):
        out = TraceValue(dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, -c)
        return out

    def scale(self, r):
        if r.is_zero():
            return TraceValue.zero()
        return TraceValue({m: c * r for m, c in self.terms.items()})

    def coeff(self, m):
        return self.terms.get(tuple(sorted(m)), RF_ZERO)

    def __eq__(self, other):
        if not isinstance(other, TraceValue):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        zero = RF_ZERO
        for k in keys:
            if self.terms.get(k, zero) != other.terms.get(k, zero):
                return False
        return True

    __hash__ = None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (mono_level(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            ms = mono_str(m)
            if c.is_one():
                parts.append(ms)
            else:
                cs = str(c)
                if " " in cs and not (cs.startswith("(") and cs.endswith(")")):
                    cs = "(%s)" % cs
                parts.append("%s * %s" % (cs, ms))
        return " + ".join(parts)

    def to_json(self):
        return {
            "terms": [
                {"mono": mono_str(m), "coeff": c.to_json()}
                for m, c in self.sorted_terms()
            ]
        }


def trace(el):
    """The trace of a canonical-form element."""
    return TraceValue.from_poly_terms(_trace_element(el))


def trace_of_word(word):
    """The trace of a braid word (projects first)."""
    return trace(project_braid(word))


# -- the solid-torus invariant ----------------------------------------------


class XValue:
    """The rescaled invariant of a braid-word closure.

    Every coefficient is r w^parity for a fraction r and one parity bit
    (n-1+e) mod 2 shared by all terms; terms map s-monomials to r. n and
    e record the strand count and braiding exponent sum of the presenting
    word. Output keeps the even + odd*w shape of the quadratic extension.
    """

    __slots__ = ("n", "e", "parity", "terms")

    def __init__(self, n, e, terms):
        self.n = n
        self.e = e
        self.parity = (n - 1 + e) % 2
        self.terms = terms

    def __eq__(self, other):
        if not isinstance(other, XValue):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            if self.terms.get(k, RF_ZERO) != other.terms.get(k, RF_ZERO):
                return False
        return self.parity == other.parity or self.is_zero()

    __hash__ = None

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (mono_level(kv[0]), kv[0]))

    def _coeff_str(self, c):
        return "(%s) * w" % c if self.parity else str(c)

    def _coeff_json(self, c):
        zero = RF_ZERO.to_json()
        c = c.to_json()
        return {"even": zero, "odd": c} if self.parity else {"even": c, "odd": zero}

    def __str__(self):
        live = [(m, c) for m, c in self.sorted_terms() if not c.is_zero()]
        if not live:
            return "0"
        return " + ".join(
            "(%s) * %s" % (self._coeff_str(c), mono_str(m)) for m, c in live
        )

    def to_json(self):
        return {
            "n": self.n,
            "e": self.e,
            "terms": [
                {"mono": mono_str(m), "coeff": self._coeff_json(c)}
                for m, c in self.sorted_terms()
            ],
        }


def closure_scalar(word):
    """c(w) = d^{n-1} w^e as (RatFunc r, parity): c(w) = r w^parity."""
    return delta_pow(word.n - 1, sigma_exponent_sum(word))


def invariant_x(word):
    """The invariant of the closure of a braid word."""
    e = sigma_exponent_sum(word)
    scalar, _ = delta_pow(word.n - 1, e)
    tv = trace_of_word(word)
    return XValue(word.n, e, {m: c * scalar for m, c in tv.terms.items()})


# -- the variable flip --------------------------------------------------------


def map_index(j, p):
    if j == 0:
        raise TraceDomainError("zero s-index")
    if j < 0:
        return -j
    if j <= p:
        return 2 * p - j
    raise TraceDomainError("s-index %d above modulus p=%d" % (j, p))


def map_I(tv, p):
    """q -> q^{-1}, z -> lam z, s_{-j} -> s_j, s_{p-i} -> s_{p+i} (0<=i<p).

    Positive indices above p are outside the domain and raise
    TraceDomainError. s_0 never occurs (it is the empty factor 1).
    """
    out = TraceValue.zero()
    for m, c in tv.terms.items():
        nm = tuple(sorted(map_index(j, p) for j in m))
        out.add_term(nm, rf_invmap(c))
    return out


# -- band move equations -------------------------------------------------------


@dataclass
class Equation:
    """One trace identity imposed by a band move at modulus p.

    lhs is the trace of the source monomial; rhs is the trace of its band
    move image scaled by the level-determined coefficient, so the imposed
    relation is lhs = rhs.
    """

    source: LoopMonomial
    sign: int
    p: int
    level: int
    coeff: RatFunc
    lhs: TraceValue
    rhs: TraceValue

    def residual(self):
        return self.lhs.sub(self.rhs)

    def key(self):
        return (self.source.entries, self.sign)

    def to_json(self):
        return {
            "source": str(self.source),
            "sign": "+" if self.sign > 0 else "-",
            "p": self.p,
            "level": self.level,
            "coeff": self.coeff.to_json(),
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


def bbm_coefficient(level, sign):
    """lam^level / z for the positive move, lam^(level-1) / z for the negative."""
    k = level if sign > 0 else level - 1
    return lam_pow(k) * rf_mono(1, 0, -1)


def _bbm_equations(m, signs, p):
    """bbm_equation(m, sign, p) for each sign in signs.

    The images t^p tau_+ g1^sign differ only in their last letter, so the
    stem t^p tau_+ is projected once and each image is the stem times
    g1^sign. The source is traced once; each equation gets its own copy.
    """
    if not isinstance(m, LoopMonomial):
        raise WordError("expected a loop monomial")
    images = [bbm_image(m, sign, p) for sign in signs]
    word_src = m.as_word()
    c_src, par_src = closure_scalar(word_src)
    lhs = trace_of_word(word_src)
    stem = project_braid(MixedBraidWord(images[0].n, images[0].letters[:-1]))
    out = []
    for sign, word_img in zip(signs, images):
        coeff = bbm_coefficient(m.level, sign)
        c_img, par_img = closure_scalar(word_img)
        if par_img != par_src or c_img != c_src * coeff:
            raise RuntimeError(
                "band move coefficient %s is not the closure-scalar ratio for %s"
                % (coeff, m)
            )
        out.append(
            Equation(
                source=m,
                sign=sign,
                p=p,
                level=m.level,
                coeff=coeff,
                lhs=TraceValue(dict(lhs.terms)),
                rhs=trace(rmul_sigma(stem, 1, sign)).scale(coeff),
            )
        )
    return out


def bbm_equation(m, sign, p):
    """The band move equation of a gap-free commuting loop monomial.

    The move imposes X(source) = X(image), that is c(src) lhs = c(img) raw
    with raw the trace of the image, so lhs = coeff raw where coeff is
    the closure-scalar ratio c(img)/c(src) = d w^(2 level + sign). A
    coefficient that is not this ratio means the coefficient or the
    bookkeeping broke, and raises RuntimeError.
    """
    return _bbm_equations(m, (sign,), p)[0]


def bbm_equation_pair(m, p):
    """The two band move equations of m, signs +1 then -1, from one trace
    of the source and one projection of the shared image stem."""
    return tuple(_bbm_equations(m, (1, -1), p))

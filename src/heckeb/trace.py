"""The Markov-type trace, the solid-torus link invariant, and band moves.

The trace sends a canonical word to a polynomial in q, z and the family
s_k (k a nonzero integer), one s per surviving loop exponent:

  * tr(1) = 1, tr(X tn-1'^k) = s_k tr(X);
  * tr(X g_{n-1} Y) = z tr(X Y) when X, Y use only the first n-1 strands;
  * tr is linear and computed by peeling the top strand.

_trace_cache maps each traced word (n, loops, perm) to its raw value.
Each distinct raw value is stored once, in _trace_values: words with
equal traces share one interned dict, so the trace of an element sums
the coefficients of the words that share a value and multiplies each
value once. The peeling slices loops and perm afresh, so the cache keys
go through algebra._intern too, one tuple per value. Nothing evicts.

TraceValue holds such a value with rational-function coefficients.
invariant_x rescales a closed-braid trace into the ambient-isotopy
invariant X = c(w) tr(w), with the closure scalar c(w) = d^{n-1} w^e,
where e is the braiding exponent sum, w^2 = lam, and d = w q/(z+1-q).
With m = n-1+e, a = floor(m/2) and N = z+1-q, c(w) is the fraction
N^(a-(n-1)) q^((n-1)-a) z^(-a) times w^(m mod 2), so an XValue is a
parity bit and rational-function terms. map_I is the variable flip
q -> q^{-1}, z -> lam z extended to s-indices for a modulus p, and
map_flip (Phi) extends it by s_j -> s_{-j}. bbm_equation_pair assembles
the two trace identities that the band moves of one source impose, one per
move sign, from one trace of the source and one projection of the shared
stem of the two image words. A source of negative level is traced through
the exponent flip f (words.f_map_word), as tr(w) = Phi(tr(f(w))).
The identity is checked, by the verify suite flip, on words in g_i, t and
t_i, but not proved; f_map_word is not the algebra map on primed letters
t_i', and the identity is not claimed for them.
"""

from . import poly as P
from .algebra import (
    AlgebraElement,
    _acc,
    _intern,
    _words,
    perm_blocks,
    perm_of_blocks,
    project_braid,
    rmul_ploop,
    rmul_sigma,
)
from .scalars import (
    RatFunc,
    RF_ZERO,
    delta_pow,
    lam,
    rf_invmap,
    rf_mono,
    rf_scale_terms,
)
from .words import (
    LoopMonomial,
    MixedBraidWord,
    WordError,
    bbm_image,
    f_map_word,
    sigma_exponent_sum,
)


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
# one shared dict per distinct trace value; callers never mutate a
# cached value
_trace_values = {}


def _trace_word(n, loops, perm):
    hit = _trace_cache.get((n, loops, perm))
    if hit is not None:
        return hit
    top = n - 1
    top_loop = loops[-1][1] if loops and loops[-1][0] == top else None
    blocks = perm_blocks(perm)
    top_block = blocks[-1] if blocks and blocks[-1][0] == top else None
    if not n:
        # tr(1) = 1; one strand has no braiding and takes the top-loop rule
        out = {(): P.pconst(1)}
    elif top_loop is None and top_block is None:
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
    key = (n, _intern(_words, loops), _intern(_words, perm))
    out = _trace_cache[key] = _intern(_trace_values, out)
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
        if not c:
            continue
        for m, pv in v.items():
            _acc(out, m, P.pmul(c, pv))
    return out


# -- trace values ------------------------------------------------------------


class TraceValue:
    """A finite sum of rational-function multiples of s-monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # a copy without zero coefficients: zero is the empty dict
        self.terms = {} if terms is None else {
            m: c for m, c in terms.items() if not c.is_zero()
        }

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

    def scale(self, r):
        return TraceValue(dict(rf_scale_terms(self.terms, r)))

    def add_scaled(self, other, r):
        """self += r * other, in place."""
        for m, c in rf_scale_terms(other.terms, r):
            self.add_term(m, c)

    def __eq__(self, other):
        if not isinstance(other, TraceValue):
            return NotImplemented
        return self.terms == other.terms

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
    return TraceValue({m: RatFunc(v) for m, v in _trace_element(el).items()})


def trace_of_word(word):
    """The trace of a braid word (projects first)."""
    return trace(project_braid(word))


# -- the solid-torus invariant ----------------------------------------------


class XValue:
    """The rescaled invariant of a braid-word closure.

    Every coefficient is r w^parity for a fraction r and one parity bit
    (n-1+e) mod 2 shared by all terms; terms is the TraceValue of the
    fractions r. n and e record the strand count and braiding exponent sum
    of the presenting word. Output keeps the even + odd*w shape of the
    quadratic extension.
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
        # zero has no parity
        return self.terms == other.terms and (
            self.parity == other.parity or self.terms.is_zero()
        )

    __hash__ = None

    def _coeff_str(self, c):
        return "(%s) * w" % c if self.parity else str(c)

    def _coeff_json(self, c):
        zero = RF_ZERO.to_json()
        c = c.to_json()
        return {"even": zero, "odd": c} if self.parity else {"even": c, "odd": zero}

    def __str__(self):
        if self.terms.is_zero():
            return "0"
        return " + ".join(
            "(%s) * %s" % (self._coeff_str(c), mono_str(m))
            for m, c in self.terms.sorted_terms()
        )

    def to_json(self):
        return {
            "n": self.n,
            "e": self.e,
            "terms": [
                {"mono": mono_str(m), "coeff": self._coeff_json(c)}
                for m, c in self.terms.sorted_terms()
            ],
        }


def closure_scalar(word):
    """c(w) = d^{n-1} w^e as (RatFunc r, parity): c(w) = r w^parity."""
    return delta_pow(word.n - 1, sigma_exponent_sum(word))


def invariant_x(word):
    """The invariant of the closure of a braid word."""
    scalar, _ = closure_scalar(word)
    return XValue(word.n, sigma_exponent_sum(word), trace_of_word(word).scale(scalar))


# -- the variable flip --------------------------------------------------------


def map_index(j, p):
    if j == 0:
        raise TraceDomainError("zero s-index")
    if j < 0:
        return -j
    if j <= p:
        return 2 * p - j
    raise TraceDomainError("s-index %d above modulus p=%d" % (j, p))


def _map_terms(tv, index):
    """q -> q^{-1}, z -> lam z on the coefficients, s_j -> s_index(j)."""
    out = TraceValue()
    for m, c in tv.terms.items():
        out.add_term(tuple(sorted(index(j) for j in m)), rf_invmap(c))
    return out


def map_I(tv, p):
    """q -> q^{-1}, z -> lam z, s_{-j} -> s_j, s_{p-i} -> s_{p+i} (0<=i<p).

    Positive indices above p are outside the domain and raise
    TraceDomainError, as does a negative p. s_0 never occurs (it is the
    empty factor 1).
    """
    if p < 0:
        raise TraceDomainError("p must be nonnegative")
    return _map_terms(tv, lambda j: map_index(j, p))


def map_flip(tv):
    """Phi: q -> q^{-1}, z -> lam z, s_j -> s_{-j}, an involution.

    tr(f(w)) = Phi(tr(w)) for f = words.f_map_word on words in g_i, t and
    t_i (verify suite flip). It is not claimed for primed letters t_i',
    which f_map_word sends to t_i'^{-1}, not to their algebra image.
    """
    return _map_terms(tv, lambda j: -j)


# -- band move equations -------------------------------------------------------


class Equation:
    """One trace identity imposed by a band move at modulus p.

    lhs is the trace of the source monomial; rhs is the trace of its band
    move image scaled by the level-determined coefficient, so the imposed
    relation is lhs = rhs.
    """

    __slots__ = ("source", "sign", "p", "coeff", "lhs", "rhs")

    def __init__(self, source, sign, p, coeff, lhs, rhs):
        self.source = source
        self.sign = sign
        self.p = p
        self.coeff = coeff
        self.lhs = lhs
        self.rhs = rhs

    @property
    def level(self):
        return self.source.level

    def residual(self):
        out = TraceValue(self.lhs.terms)
        for m, c in self.rhs.terms.items():
            out.add_term(m, -c)
        return out

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
    return lam() ** k * rf_mono(1, 0, -1)


def bbm_equation_pair(m, p):
    """The two band move equations of a gap-free commuting loop monomial
    m, move signs +1 then -1.

    The move imposes X(source) = X(image), that is c(src) lhs = c(img) raw
    with raw the trace of the image, so lhs = coeff raw where coeff is
    the closure-scalar ratio c(img)/c(src) = d w^(2 level + sign). A
    coefficient that is not this ratio means the coefficient or the
    bookkeeping broke, and raises RuntimeError.

    The images t^p tau_+ g1^sign differ only in their last letter, so the
    stem t^p tau_+ is projected once and each image is the stem times
    g1^sign. The source is traced once; each equation gets its own copy.

    A source of negative level is traced through the exponent flip f, as
    tr(w) = Phi(tr(f(w))) with Phi = map_flip: f(source) is a positive
    source, and the flipped stem t^-p f(tau_+) has only positive loops.
    The stem itself carries letters t_j^-1, which split every inverse
    braiding they pass into two terms.
    """
    if not isinstance(m, LoopMonomial):
        raise WordError("expected a loop monomial")
    signs = (1, -1)
    images = [bbm_image(m, sign, p) for sign in signs]
    word_src = m.as_word()
    c_src, par_src = closure_scalar(word_src)
    stem_word = MixedBraidWord(images[0].n, images[0].letters[:-1])
    flip = m.level < 0
    if flip:
        lhs = map_flip(trace_of_word(f_map_word(word_src)))
        stem = project_braid(f_map_word(stem_word))
    else:
        lhs = trace_of_word(word_src)
        stem = project_braid(stem_word)
    out = []
    for sign, word_img in zip(signs, images):
        coeff = bbm_coefficient(m.level, sign)
        c_img, par_img = closure_scalar(word_img)
        if par_img != par_src or c_img != c_src * coeff:
            raise RuntimeError(
                "band move coefficient %s is not the closure-scalar ratio for %s"
                % (coeff, m)
            )
        if flip:
            rhs = map_flip(trace(rmul_sigma(stem, 1, -sign)))
        else:
            rhs = trace(rmul_sigma(stem, 1, sign))
        out.append(
            Equation(
                source=m,
                sign=sign,
                p=p,
                coeff=coeff,
                lhs=TraceValue(lhs.terms),
                rhs=rhs.scale(coeff),
            )
        )
    return tuple(out)


def bbm_equation(m, sign, p):
    """The band move equation of m with move sign +1 or -1, selected
    from bbm_equation_pair(m, p)."""
    if sign not in (1, -1):
        raise WordError("sign must be +1 or -1")
    return bbm_equation_pair(m, p)[sign < 0]

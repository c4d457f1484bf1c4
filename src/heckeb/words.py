"""Braid words with a loop generator, loop monomials, and their combinatorics.

Words live in the braid group of the annulus on n strands: generators are
the axis loop t (= t0), the braidings g1..g(n-1), and derived loop letters
ti (unprimed, pairwise commuting family) and ti' (primed family), with

    ti' = gi ... g1 t g1^{-1} ... gi^{-1}
    ti  = gi ... g1 t g1 ... gi

A word is a sequence of letters (kind, index, exponent). Loop monomials
(products of loop letters with strictly increasing indices) get their own
type with the stacking move, the exponent-flip involution, level-graded
enumeration, and the total order used by the normal-form triangularity
experiment.
"""

import re

_TOKEN_RE = re.compile(r"^(t(\d+)?('?)|g(\d+))(\^(-?\d+))?$")


class WordError(ValueError):
    """Malformed word text, bad index ranges, or wrong letter shapes."""


# The work per word grows with the strand count (the trace of t_j doubles
# per strand), so it is bounded; the words of every level that
# enumerate_level accepts fit.
_STRANDS_MAX = 16


class _Value:
    """Immutable fields named by __slots__, equal and hashed by value. Not a
    dataclass: `dataclasses` imports `inspect`, slow for a cold command."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)


class MixedBraidWord(_Value):
    """A word in t, ti, ti', gi on n strands.

    letters: tuple of (kind, index, exp) with kind in {"loop", "ploop",
    "sigma"}; "loop" index 0 is the axis generator t. Exponents are
    nonzero; zero-exponent letters are dropped at construction. More
    than 16 strands is a WordError.
    """

    __slots__ = ("n", "letters")

    def __init__(self, n, letters):
        if n < 1:
            raise WordError("strand count must be >= 1")
        if n > _STRANDS_MAX:
            raise WordError("%d strands; at most %d" % (n, _STRANDS_MAX))
        clean = []
        for kind, idx, exp in letters:
            if exp == 0:
                continue
            if kind == "sigma":
                if not 1 <= idx <= n - 1:
                    raise WordError("g%d needs %d strands" % (idx, idx + 1))
            elif kind in ("loop", "ploop"):
                if not 0 <= idx <= n - 1:
                    raise WordError("t%d needs %d strands" % (idx, idx + 1))
                if idx == 0 and kind == "ploop":
                    kind = "loop"  # t0' and t0 are the same letter
            else:
                raise WordError("unknown letter kind %r" % (kind,))
            clean.append((kind, idx, exp))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", tuple(clean))

    def __mul__(self, other):
        if self.n != other.n:
            raise WordError("strand counts differ")
        return MixedBraidWord(self.n, self.letters + other.letters)

    def inverse(self):
        return MixedBraidWord(
            self.n, tuple((k, i, -e) for k, i, e in reversed(self.letters))
        )

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        for kind, idx, exp in self.letters:
            base = _letter_token(kind, idx)
            parts.append(base if exp == 1 else "%s^%d" % (base, exp))
        return " ".join(parts)

    def to_json(self):
        return {
            "n": self.n,
            "letters": [[_letter_token(k, i), e] for k, i, e in self.letters],
        }


def sigma_exponent_sum(w):
    """Sum of braiding exponents after expanding loop letters.

    Expanding ti^k contributes 2*i*k (the conjugating strings of ti do not
    cancel), ti'^k contributes 0, and the axis contributes 0.
    """
    total = 0
    for kind, idx, exp in w.letters:
        if kind == "sigma":
            total += exp
        elif kind == "loop":
            total += 2 * idx * exp
    return total


def f_map_word(w):
    """Flip the sign of every exponent (braidings become their inverses)."""
    return MixedBraidWord(w.n, tuple((k, i, -e) for k, i, e in w.letters))


def _min_strands(letters):
    need = 1
    for _, idx, _ in letters:
        need = max(need, idx + 1)
    return need


def parse_word(text, n=None):
    """Parse word text like "t^2 g1 t1'^-3" (the empty word is "1")."""
    text = text.strip()
    letters = []
    if text and text != "1":
        for tok in text.split():
            if tok == "·" or tok == ".":
                continue  # block separators in canonical output are decorative
            m = _TOKEN_RE.match(tok)
            if not m:
                raise WordError("bad token %r" % tok)
            exp = int(m.group(6)) if m.group(6) is not None else 1
            if m.group(4) is not None:
                idx = int(m.group(4))
                if idx < 1:
                    raise WordError("bad token %r" % tok)
                letters.append(("sigma", idx, exp))
            else:
                idx = int(m.group(2)) if m.group(2) is not None else 0
                kind = "ploop" if m.group(3) else "loop"
                letters.append((kind, idx, exp))
    if n is None:
        n = _min_strands(letters)
    return MixedBraidWord(n, tuple(letters))


def _letter_token(kind, idx):
    if kind == "sigma":
        return "g%d" % idx
    if kind == "loop":
        return "t" if idx == 0 else "t%d" % idx
    return "t%d'" % idx


# -- loop monomials -----------------------------------------------------


class LoopMonomial(_Value):
    """A product of loop letters with strictly increasing indices.

    entries: tuple of (index, exp), indices strictly increasing from >= 0,
    exponents nonzero. primed selects the commuting (False) or conjugated
    (True) loop family.
    """

    __slots__ = ("entries", "primed")

    def __init__(self, entries, primed=False):
        entries = tuple(entries)
        last = -1
        for idx, exp in entries:
            if idx <= last:
                raise WordError("loop indices must increase strictly")
            if exp == 0:
                raise WordError("zero exponent in loop monomial")
            last = idx
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "primed", primed)

    @property
    def level(self):
        return sum(e for _, e in self.entries)

    @property
    def top_index(self):
        return self.entries[-1][0] if self.entries else -1

    @property
    def gap_free(self):
        return all(idx == pos for pos, (idx, _) in enumerate(self.entries))

    def as_word(self):
        """The word of the monomial on the fewest strands that hold it."""
        kind = "ploop" if self.primed else "loop"
        letters = tuple((kind, i, e) for i, e in self.entries)
        return MixedBraidWord(max(1, self.top_index + 1), letters)

    def flip(self):
        """Exponent-flip involution (matches f_map_word on the word)."""
        return LoopMonomial(
            tuple((i, -e) for i, e in self.entries), self.primed
        )

    def __str__(self):
        return str(self.as_word())


def loop_monomial_of_word(w):
    """Read a word consisting only of loop letters as a LoopMonomial."""
    kinds = {k for k, _, _ in w.letters}
    if "sigma" in kinds:
        raise WordError("braiding letters in a loop monomial")
    primed = "ploop" in kinds and all(k == "ploop" or i == 0 for k, i, _ in w.letters)
    if not primed and "ploop" in kinds:
        raise WordError("mixed primed and unprimed loop letters")
    entries = tuple((i, e) for _, i, e in w.letters)
    return LoopMonomial(entries, primed)


def bbm_image(m, sign, p):
    """The band move image of an unprimed gap-free loop monomial.

    Shifts every loop index up by one, prepends t^p, and appends g1^{sign}.
    The result lives on one more strand than the smallest ambient of m.
    """
    if m.primed:
        raise WordError("band move applies to unprimed loop monomials")
    if not m.gap_free:
        raise WordError("band move applies to gap-free loop monomials")
    if sign not in (1, -1):
        raise WordError("sign must be +1 or -1")
    if p < 0:
        raise WordError("p must be nonnegative")
    n = max(m.top_index, 0) + 2  # one fresh strand
    letters = []
    if p:
        letters.append(("loop", 0, p))
    for i, e in m.entries:
        letters.append(("loop", i + 1, e))
    letters.append(("sigma", 1, sign))
    return MixedBraidWord(n, tuple(letters))


def band_move_letters(ps, k):
    """The letters of both band move images of every level k source, at
    each p in ps: the words a band-move level multiplies."""
    sources = enumerate_level(k)
    return [x for p in ps for m in sources for s in (1, -1) for x in bbm_image(m, s, p).letters]


# -- the total order on loop monomials ----------------------------------


def order_key(entries):
    """Sort key of the total order on loop monomials, given by their loop
    entries ((index, exp), ...), as in LoopMonomial.entries.

    Smaller exponent sum first; then fewer loop generators (gaps closed);
    with matching shapes a smaller index at the first disagreement makes
    the *larger* word, and exponents are compared from the top index down,
    first by absolute value, then positive-beats-negative as smaller.
    """
    return (
        sum(e for _, e in entries),
        len(entries),
        tuple(-i for i, _ in entries),
        tuple((abs(e), -e) for _, e in reversed(entries)),
    )


def compare_order(a, b):
    """-1, 0 or 1 as loop monomial a is below, equal to or above b."""
    ka, kb = order_key(a.entries), order_key(b.entries)
    return (ka > kb) - (ka < kb)


# -- enumeration by level ------------------------------------------------


def _compositions(total, parts):
    """Compositions of total into exactly `parts` positive parts, lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_LEVEL_MAX = 16  # level k has 2^(|k|-1) words


def enumerate_level(k):
    """The gap-free loop monomials of exponent sum k whose exponents all
    have the sign of k.

    For k >= 1 the 2^(k-1) words with positive exponents, the empty word
    for k = 0, and for k < 0 the exponent flips of level -k, in matching
    order. Every word is built in memory, so |k| above 16 (2^15 = 32768
    words at the limit) is a WordError.
    """
    if abs(k) > _LEVEL_MAX:
        raise WordError(
            "level %d has 2^%d words; |level| <= %d" % (k, abs(k) - 1, _LEVEL_MAX)
        )
    if k < 0:
        return [m.flip() for m in enumerate_level(-k)]
    if k == 0:
        return [LoopMonomial(())]
    out = []
    for parts in range(1, k + 1):
        for comp in _compositions(k, parts):
            out.append(LoopMonomial(tuple(enumerate(comp))))
    return out


def enumerate_abs_level(abs_max, n_max, primed=True):
    """All ordered loop monomials with sum(|exp|) <= abs_max, indices < n_max.

    Enumerates the mixed-sign ordered family used by the closed-form trace
    and triangularity experiments. Each is gap-free (indices 0, 1, ...) with
    nondecreasing nonzero exponents, so its entries read as a multiset.
    Deterministic order: by generator count, then lex on exponent tuples.
    """
    out = [LoopMonomial((), primed=primed)]
    for parts in range(1, min(n_max, abs_max) + 1):

        def rec(pos, minimum, budget):
            if pos == parts:
                yield ()
                return
            for v in range(max(minimum, -budget), budget + 1):
                if v == 0:
                    continue
                for rest in rec(pos + 1, v, budget - abs(v)):
                    yield (v,) + rest

        for exps in rec(0, -abs_max, abs_max):
            out.append(LoopMonomial(tuple(enumerate(exps)), primed=primed))
    return out

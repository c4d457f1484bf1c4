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

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"^(t(\d+)?('?)|g(\d+))(\^(-?\d+))?$")


class WordError(ValueError):
    """Malformed word text, bad index ranges, or wrong letter shapes."""


# The work per word grows with the strand count (the trace of t_j doubles
# per strand), so it is bounded; the words of every level that
# enumerate_level accepts fit.
_STRANDS_MAX = 16


@dataclass(frozen=True)
class MixedBraidWord:
    """A word in t, ti, ti', gi on n strands.

    letters: tuple of (kind, index, exp) with kind in {"loop", "ploop",
    "sigma"}; "loop" index 0 is the axis generator t. Exponents are
    nonzero; zero-exponent letters are dropped at construction. More
    than 16 strands is a WordError.
    """

    n: int
    letters: tuple

    def __post_init__(self):
        if self.n < 1:
            raise WordError("strand count must be >= 1")
        if self.n > _STRANDS_MAX:
            raise WordError("%d strands; at most %d" % (self.n, _STRANDS_MAX))
        clean = []
        for kind, idx, exp in self.letters:
            if exp == 0:
                continue
            if kind == "sigma":
                if not 1 <= idx <= self.n - 1:
                    raise WordError("g%d needs %d strands" % (idx, idx + 1))
            elif kind in ("loop", "ploop"):
                if not 0 <= idx <= self.n - 1:
                    raise WordError("t%d needs %d strands" % (idx, idx + 1))
                if idx == 0 and kind == "ploop":
                    kind = "loop"  # t0' and t0 are the same letter
            else:
                raise WordError("unknown letter kind %r" % (kind,))
            clean.append((kind, idx, exp))
        object.__setattr__(self, "letters", tuple(clean))

    def __mul__(self, other):
        if self.n != other.n:
            raise WordError("strand counts differ")
        return MixedBraidWord(self.n, self.letters + other.letters)

    def inverse(self):
        return MixedBraidWord(
            self.n, tuple((k, i, -e) for k, i, e in reversed(self.letters))
        )

    def with_strands(self, n):
        """The same letters viewed on n strands (n must be large enough)."""
        return MixedBraidWord(n, self.letters)

    def __str__(self):
        return word_to_text(self)


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


def word_to_text(w):
    if not w.letters:
        return "1"
    parts = []
    for kind, idx, exp in w.letters:
        base = _letter_token(kind, idx)
        parts.append(base if exp == 1 else "%s^%d" % (base, exp))
    return " ".join(parts)


def word_to_json(w):
    return {
        "n": w.n,
        "letters": [[_letter_token(k, i), e] for k, i, e in w.letters],
    }


# -- loop monomials -----------------------------------------------------


@dataclass(frozen=True)
class LoopMonomial:
    """A product of loop letters with strictly increasing indices.

    entries: tuple of (index, exp), indices strictly increasing from >= 0,
    exponents nonzero. primed selects the commuting (False) or conjugated
    (True) loop family.
    """

    entries: tuple
    primed: bool = False

    def __post_init__(self):
        last = -1
        for idx, exp in self.entries:
            if idx <= last:
                raise WordError("loop indices must increase strictly")
            if exp == 0:
                raise WordError("zero exponent in loop monomial")
            if idx < 0:
                raise WordError("negative loop index")
            last = idx
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def level(self):
        return sum(e for _, e in self.entries)

    @property
    def abs_level(self):
        return sum(abs(e) for _, e in self.entries)

    @property
    def top_index(self):
        return self.entries[-1][0] if self.entries else -1

    @property
    def gap_free(self):
        return all(idx == pos for pos, (idx, _) in enumerate(self.entries))

    def as_word(self, n=None):
        kind = "ploop" if self.primed else "loop"
        letters = tuple((kind, i, e) for i, e in self.entries)
        if n is None:
            n = max(1, self.top_index + 1)
        return MixedBraidWord(n, letters)

    def flip(self):
        """Exponent-flip involution (matches f_map_word on the word)."""
        return LoopMonomial(
            tuple((i, -e) for i, e in self.entries), self.primed
        )

    def __str__(self):
        return word_to_text(self.as_word())


def loop_monomial_of_word(w):
    """Read a word consisting only of loop letters as a LoopMonomial."""
    if not w.letters:
        return LoopMonomial(())
    kinds = {k for k, _, _ in w.letters}
    if "sigma" in kinds:
        raise WordError("braiding letters in a loop monomial")
    primed = kinds == {"ploop"} or (
        "ploop" in kinds and all(k == "ploop" or i == 0 for k, i, _ in w.letters)
    )
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


# -- the total order on loop monomials ----------------------------------


def _profile(m):
    if isinstance(m, LoopMonomial):
        return tuple(i for i, _ in m.entries), tuple(e for _, e in m.entries)
    return m  # already an (indices, exps) pair


def compare_order(a, b):
    """Total order on loop monomials; returns -1, 0, or 1.

    Smaller exponent sum first; then fewer loop generators (gaps closed);
    with matching shapes a smaller index at the first disagreement makes
    the *larger* word, and exponents are compared from the top index down,
    first by absolute value, then positive-beats-negative as smaller.
    """
    ia, ka = _profile(a)
    ib, kb = _profile(b)
    ta, tb = sum(ka), sum(kb)
    if ta != tb:
        return -1 if ta < tb else 1
    inda = max(len(ia) - 1, 0)
    indb = max(len(ib) - 1, 0)
    if inda != indb:
        return -1 if inda < indb else 1
    if len(ia) != len(ib):
        # only reachable shapes: the empty word against a single loop
        # generator, which cannot tie on exponent sum
        return -1 if len(ia) < len(ib) else 1
    for s in range(len(ia)):
        if ia[s] != ib[s]:
            return 1 if ia[s] < ib[s] else -1
    for s in range(len(ia) - 1, -1, -1):
        x, y = ka[s], kb[s]
        if x == y:
            continue
        if abs(x) != abs(y):
            return -1 if abs(x) < abs(y) else 1
        return -1 if x > y else 1
    return 0


def order_key(m):
    """A tuple sort key equivalent to compare_order (for deterministic output)."""
    idx, exps = _profile(m)
    return (
        sum(exps),
        max(len(idx) - 1, 0),
        len(idx),
        tuple(-i for i in idx),
        tuple((abs(x), -x) for x in reversed(exps)),
    )


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


def enumerate_level(k, side):
    """Loop monomials of the requested exponent sum.

    side "+": gap-free, all exponents positive (k >= 0; 2^(k-1) words for
    k >= 1, the empty word for k = 0). side "-": the exponent flips of the
    "+" enumeration at level -k, in matching order (requires k <= 0 with
    this convention: pass the desired sum). Every word is built in memory,
    so |k| above 16 (2^15 = 32768 words at the limit) is a WordError.
    """
    if side not in ("+", "-"):
        raise WordError("side must be '+' or '-'")
    if abs(k) > _LEVEL_MAX:
        raise WordError(
            "level %d has 2^%d words; |level| <= %d" % (k, abs(k) - 1, _LEVEL_MAX)
        )
    if side == "+":
        if k < 0:
            raise WordError("positive side needs k >= 0")
        if k == 0:
            return [LoopMonomial(())]
        out = []
        for parts in range(1, k + 1):
            for comp in _compositions(k, parts):
                out.append(
                    LoopMonomial(tuple(enumerate(comp)))
                )
        return out
    if k > 0:
        raise WordError("negative side needs k <= 0")
    return [m.flip() for m in enumerate_level(-k, "+")]


def enumerate_abs_level(abs_max, n_max, primed=True):
    """All ordered loop monomials with sum(|exp|) <= abs_max, indices < n_max.

    Enumerates the mixed-sign ordered family used by the closed-form trace
    and triangularity experiments. Deterministic order: by generator count,
    then lex on exponent tuples.
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

"""Band-move equation systems at a fixed twist modulus, and their reduction.

A band move with modulus p turns a loop monomial tau into t^p tau_+ s_1^e
(indices shifted up, e = +-1) and imposes the trace identity assembled by
bbm_equation. generate_system collects those identities for every source
of weighted level 0..k_max on one side of the exponent sign split, both
signs of a source at once through bbm_equation_pair, which traces the
source once and projects the stem t^p tau_+ of the two images once.
mirror_system pushes a negative-side bundle through the index/coefficient
flip map, and reduce_system runs exact Gaussian elimination over the
rational-function field, orienting each relation so that the monomial
carrying the largest index at least p is rewritten into lower terms.

Monomials here are coordinates, not products: a rule rewriting s[4] does
not touch s[4]s[1], which needs its own equation. The quotient being
modeled is by a linear span of imposed identities, so substitution only
ever replaces a whole monomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import rf_int, rf_invmap
from .trace import (
    Equation,
    TraceDomainError,
    TraceValue,
    bbm_equation_pair,
    map_I,
    mono_level,
    mono_str,
)
from .words import enumerate_level


@dataclass(frozen=True)
class SystemBundle:
    """All band-move identities from sources of level 0..k_max on one side."""

    p: int
    k_max: int
    side: str
    equations: tuple

    def to_json(self):
        return {
            "p": self.p,
            "side": self.side,
            "equations": [e.to_json() for e in self.equations],
        }


def generate_system(p, k_max, side="+"):
    """Bundle the level 0..k_max sources with both move signs, fixed order."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if p < 1 or k_max < 0:
        raise ValueError("need p >= 1 and k_max >= 0")
    eqs = []
    for k in range(k_max + 1):
        lvl = k if side == "+" else -k
        for m in enumerate_level(lvl, side):
            eqs.extend(bbm_equation_pair(m, p))
    return SystemBundle(p, k_max, side, tuple(eqs))


def mirror_equation(eq, p):
    """Index-flip image of one equation: source flipped, move sign swapped."""
    return Equation(
        source=eq.source.flip(),
        sign=-eq.sign,
        p=p,
        level=-eq.level,
        coeff=rf_invmap(eq.coeff),
        lhs=map_I(eq.lhs, p),
        rhs=map_I(eq.rhs, p),
    )


def mirror_system(b):
    """Map a negative-side bundle equation-by-equation through the flip."""
    if b.side != "-":
        raise ValueError("mirror_system expects a negative-side bundle")
    return SystemBundle(b.p, b.k_max, "+", tuple(mirror_equation(e, b.p) for e in b.equations))


def compare_mirror(p, k_max):
    """Mirror a negative bundle and diff it against the direct positive one.

    Returns a report with one entry per equation. Exactness is expected
    precisely below level p: at level >= p the negative image traces carry
    monomials whose axis residue has degenerated (a constant at level p,
    all-negative monomials above), and those land off the positive side's
    pure level, so no index map can pair them. The report classifies each
    mismatch accordingly instead of hiding it.
    """
    neg = generate_system(p, k_max, "-")
    pos = generate_system(p, k_max, "+")
    direct = {(e.source.entries, e.sign): e for e in pos.equations}
    entries = []
    all_below_p_match = True
    mismatch_levels = set()
    for e in neg.equations:
        k = -e.level
        row = {"source": str(e.source), "sign": "+" if e.sign > 0 else "-", "level": k}
        try:
            img = mirror_equation(e, p)
        except TraceDomainError as exc:
            row["status"] = "index-out-of-range"
            row["detail"] = str(exc)
            entries.append(row)
            all_below_p_match = False
            continue
        tgt = direct[(img.source.entries, img.sign)]
        same = img.lhs == tgt.lhs and img.rhs == tgt.rhs and img.coeff == tgt.coeff
        row["status"] = "exact" if same else "mismatch"
        if not same:
            mismatch_levels.add(k)
            if k < p:
                all_below_p_match = False
            row["degenerate_axis"] = any(
                m == () or all(j < 0 for j in m) for m in e.rhs.terms
            )
        entries.append(row)
    return {
        "p": p,
        "k_max": k_max,
        "entries": entries,
        "exact_below_p": all_below_p_match,
        "mismatch_levels": sorted(mismatch_levels),
        "expected_mismatch_levels": [k for k in range(p, k_max + 1)],
    }


@dataclass(frozen=True)
class Rule:
    """One oriented relation: the head monomial rewrites to the value."""

    head: tuple
    value: TraceValue

    def to_json(self):
        return {"head": mono_str(self.head), "value": self.value.to_json()}


@dataclass(frozen=True)
class ReducedSystem:
    """Inter-reduced rewrite rules extracted from a bundle, plus leftovers."""

    p: int
    k_max: int
    side: str
    rules: tuple
    redundant: int
    leftovers: tuple
    bundle: SystemBundle

    def rule_map(self):
        return {r.head: r.value for r in self.rules}

    def to_json(self):
        return {
            "p": self.p,
            "k_max": self.k_max,
            "side": self.side,
            "rules": [r.to_json() for r in self.rules],
            "redundant": self.redundant,
            "torsion_candidates": [v.to_json() for v in self.leftovers],
        }


def reduce_value(tv, rules):
    """Substitute whole head monomials until none remains.

    Rule values are kept free of head monomials, so one sweep per pass
    terminates; the loop re-sweeps only if a substitution introduced terms.
    """
    while True:
        if not any(m in rules for m in tv.terms):
            return tv
        out = TraceValue.zero()
        for m, c in tv.terms.items():
            if m in rules:
                out = out.add(rules[m].scale(c))
            else:
                out = out.add(TraceValue({m: c}))
        tv = out


def _pivot_key(m):
    return (mono_level(m), max(m), tuple(sorted(m, reverse=True)))


def _reduce_rows(residuals, eligible, key, reverse):
    """Shared elimination loop over trace-value rows.

    eligible picks which monomials may head a rule; key orders them and
    reverse selects the large (True) or small (False) end. Returns the
    final rule map, the heads in creation order, the count of rows that
    vanished, and the nonzero rows no eligible monomial could orient.
    """
    rules = {}
    order = []
    redundant = 0
    leftovers = []
    for r in residuals:
        r = reduce_value(r, rules)
        if r.is_zero():
            redundant += 1
            continue
        cand = [m for m in r.terms if m != () and eligible(m)]
        if not cand:
            leftovers.append(r)
            continue
        head = max(cand, key=key) if reverse else min(cand, key=key)
        c = r.terms[head]
        value = r.sub(TraceValue({head: c})).scale((-c).inverse())
        for h in order:
            cur = rules[h]
            if head in cur.terms:
                coef = cur.terms[head]
                rules[h] = cur.sub(TraceValue({head: coef})).add(value.scale(coef))
        rules[head] = value
        order.append(head)
    return rules, order, redundant, leftovers


def reduce_system(b, orientation="high"):
    """Eliminate every monomial carrying an index >= p from a positive bundle.

    orientation "high" rewrites the largest eligible monomial (level, then
    top index, then reversed-lex); "low" orients the other way around and
    exists to probe confluence. Rows that reduce to relations purely among
    index < p monomials are returned as leftovers: any nonzero one would
    be a relation the conjectured free basis forbids, so they are findings
    for the caller to surface, never dropped.
    """
    if b.side != "+":
        raise ValueError("reduce_system expects a positive-side bundle")
    p = b.p
    rules, order, redundant, leftovers = _reduce_rows(
        [e.residual() for e in b.equations],
        eligible=lambda m: max(m) >= p,
        key=_pivot_key,
        reverse=(orientation == "high"),
    )
    return ReducedSystem(
        p=p,
        k_max=b.k_max,
        side=b.side,
        rules=tuple(Rule(h, rules[h]) for h in order),
        redundant=redundant,
        leftovers=tuple(leftovers),
        bundle=b,
    )


def _proportional(a, b):
    """True when a equals a rational-function multiple of nonzero b."""
    head = next(iter(b.sorted_terms()))[0]
    ca = a.coeff(head)
    cb = b.terms[head]
    if ca.is_zero():
        return False
    return a == b.scale(ca / cb)


def back_substitution_check(r):
    """Verify the rules reproduce every source identity.

    Each residual must reduce to zero, except that rows recorded as
    leftovers reduce back to themselves (up to scale). Returns the
    offending (source, sign, reduced) triples, empty on success.
    """
    rules = r.rule_map()
    bad = []
    for e in r.bundle.equations:
        red = reduce_value(e.residual(), rules)
        if red.is_zero():
            continue
        if any(_proportional(red, l) for l in r.leftovers):
            continue
        bad.append((str(e.source), e.sign, red))
    return bad


def _partition_monomials(level_max):
    """Multisets of positive indices with weighted level 1..level_max."""
    out = set()

    def rec(prefix, rest, start):
        for j in range(start, rest + 1):
            cur = prefix + (j,)
            out.add(cur)
            rec(cur, rest - j, j)

    rec((), level_max, 1)
    return sorted(out, key=lambda m: (mono_level(m), m))


def check_generating_set(r, probe_level_max):
    """Probe whether low-index monomials generate everything at small scale.

    Reduces each positive monomial of weighted level <= probe_level_max by
    the system's rules. A monomial is settled once only indices < p remain;
    if an index >= p survives with no covering rule, the truncation at
    k_max was too small to decide it and it is reported as undecided, not
    recursed blindly. Confluence is probed by rebuilding the rules with the
    opposite orientation and comparing every settled normal form.
    """
    p = r.p
    rules = r.rule_map()
    alt = reduce_system(r.bundle, orientation="low")
    alt_rules = alt.rule_map()
    probes = _partition_monomials(probe_level_max)
    reduced = []
    undecided = []
    confluent = True
    for m in probes:
        nf = reduce_value(TraceValue({m: rf_int(1)}), rules)
        stuck = any(mm != () and max(mm) >= p for mm in nf.terms)
        nf_alt = reduce_value(TraceValue({m: rf_int(1)}), alt_rules)
        stuck_alt = any(mm != () and max(mm) >= p for mm in nf_alt.terms)
        if stuck or stuck_alt:
            undecided.append(mono_str(m))
            continue
        if not (nf == nf_alt):
            confluent = False
        reduced.append((mono_str(m), str(nf)))
    return {
        "p": p,
        "k_max": r.k_max,
        "probe_level_max": probe_level_max,
        "checked": len(probes),
        "reduced": reduced,
        "undecided": undecided,
        "confluent": confluent,
        "torsion_candidates": [str(v) for v in r.leftovers],
        "alt_torsion_candidates": [str(v) for v in alt.leftovers],
    }


def _window(p):
    """Indices j with -p <= 2j < p, j != 0."""
    return tuple(j for j in range(-p, p) if j != 0 and 2 * j >= -p and 2 * j < p)


def _abs_monomials(level_max, idx_max):
    """Multisets of nonzero indices, |j| <= idx_max, total |weight| <= level_max."""
    out = set()

    def rec(prefix, rest, choices):
        for i, j in enumerate(choices):
            if abs(j) > rest:
                continue
            cur = prefix + (j,)
            out.add(tuple(sorted(cur)))
            rec(cur, rest - abs(j), choices[i:])

    choices = [j for j in range(-idx_max, idx_max + 1) if j != 0]
    rec((), level_max, choices)
    return sorted(out, key=lambda m: (sum(abs(j) for j in m), m))


def candidate_basis_experiment(p, probe_level_max, k_max=None):
    """Join both exponent sides and test the split-window basis candidate.

    The window keeps indices j with -p/2 <= j < p/2. Every relation from
    both sides is oriented to rewrite the monomial whose largest absolute
    index lies outside the window (ties prefer the positive index, then
    higher weight). The report says whether all probed monomials with
    |index| <= p close into the window and whether any relation survives
    purely among window monomials, which would refute independence.
    """
    if k_max is None:
        k_max = probe_level_max
    win = set(_window(p))

    def outside(m):
        return any(j not in win for j in m)

    def abs_key(m):
        outs = [j for j in m if j not in win]
        mx = max(abs(j) for j in outs)
        pos = 1 if mx in outs else 0
        shape = tuple(sorted(((abs(j), int(j > 0)) for j in m), reverse=True))
        return (mx, pos, sum(abs(j) for j in m), shape)

    residuals = [e.residual() for e in generate_system(p, k_max, "+").equations]
    residuals += [e.residual() for e in generate_system(p, k_max, "-").equations]
    rules, order, redundant, leftovers = _reduce_rows(
        residuals, eligible=outside, key=abs_key, reverse=True
    )
    probes = _abs_monomials(probe_level_max, p)
    closed = []
    undecided = []
    for m in probes:
        nf = reduce_value(TraceValue({m: rf_int(1)}), rules)
        if any(mm != () and outside(mm) for mm in nf.terms):
            undecided.append(mono_str(m))
        else:
            closed.append((mono_str(m), str(nf)))
    window_relations = [str(v) for v in leftovers if v.terms]
    return {
        "p": p,
        "k_max": k_max,
        "probe_level_max": probe_level_max,
        "window": sorted(win),
        "rules": [(mono_str(h), str(rules[h])) for h in order],
        "redundant": redundant,
        "checked": len(probes),
        "closed": closed,
        "undecided": undecided,
        "window_relations": window_relations,
        "independent": not window_relations,
    }

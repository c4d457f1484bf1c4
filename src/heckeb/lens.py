"""Band-move equation systems at a fixed twist modulus, and their reduction.

A band move with modulus p turns a loop monomial tau into t^p tau_+ g1^e
(indices shifted up, e = +-1) and imposes a trace identity.
generate_system collects those identities for every source of weighted
level 0..k_max on one side of the exponent sign split, both signs of a
source at once through trace.bbm_equation_pair, which traces the source
once and projects the stem t^p tau_+ of the two images once. On the
negative side both are traced through the exponent flip f and mapped back
with Phi (trace.map_flip), so only positive loops are multiplied.
compare_mirror pushes the negative-side bundle through the
index/coefficient flip map (mirror_equation) and diffs it against the
positive side.
reduce_system eliminates exactly over the rational-function field,
rewriting the monomial carrying the largest index at least p. Its rules
r.rules are one dict head -> value, in creation order, and no value
mentions a head. check_generating_set(r, probe) probes the reduced
positive system r, and candidate_basis_experiment(b, probe) joins the
positive bundle b to the negative side.

Monomials here are coordinates, not products: a rule rewriting s[4] does
not touch s[4]s[1], which needs its own equation. The quotient being
modeled is by a linear span of imposed identities, so substitution only
ever replaces a whole monomial.
"""

from .algebra import refused_loop_power
from .poly import pformat
from .scalars import _n_power, rf_int, rf_invmap
from .trace import (
    Equation,
    TraceDomainError,
    TraceValue,
    bbm_equation_pair,
    map_I,
    mono_level,
    mono_str,
)
from .words import band_move_letters, enumerate_abs_level, enumerate_level


class SystemBundle:
    """All band-move identities from sources of level 0..k_max on one side."""

    __slots__ = ("p", "k_max", "side", "equations")

    def __init__(self, p, k_max, side, equations):
        self.p = p
        self.k_max = k_max
        self.side = side
        self.equations = equations

    def to_json(self):
        return {
            "p": self.p,
            "side": self.side,
            "equations": [e.to_json() for e in self.equations],
        }


def generate_system(p, k_max, side):
    """Bundle the level 0..k_max sources with both move signs, fixed order.

    A k_max whose band move images hold a loop power past
    algebra.LOOP_POWER_MAX (t5^5 at level 9) is a ValueError before any
    trace. The negative side is traced through the flip, so the positive
    images hold the loop powers of both sides.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if p < 1 or k_max < 0:
        raise ValueError("need p >= 1 and k_max >= 0")
    for k in range(k_max + 1):
        bad = refused_loop_power(band_move_letters(k))
        if bad:
            raise ValueError(
                "need k_max <= %d; level %d builds the loop power t%d^%d" % (k - 1, k, *bad[1:])
            )
    eqs = []
    for k in range(k_max + 1):
        for m in enumerate_level(k if side == "+" else -k):
            eqs.extend(bbm_equation_pair(m, p))
    return SystemBundle(p, k_max, side, tuple(eqs))


def mirror_equation(eq):
    """Index-flip image of one equation at its modulus: source flipped,
    move sign swapped."""
    return Equation(
        source=eq.source.flip(),
        sign=-eq.sign,
        p=eq.p,
        coeff=rf_invmap(eq.coeff),
        lhs=map_I(eq.lhs, eq.p),
        rhs=map_I(eq.rhs, eq.p),
    )


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
    direct = {e.key(): e for e in pos.equations}
    entries = []
    all_below_p_match = True
    mismatch_levels = set()
    for e in neg.equations:
        k = -e.level
        row = {"source": str(e.source), "sign": "+" if e.sign > 0 else "-", "level": k}
        try:
            img = mirror_equation(e)
        except TraceDomainError as exc:
            row["status"] = "index-out-of-range"
            row["detail"] = str(exc)
            entries.append(row)
            all_below_p_match = False
            continue
        tgt = direct[img.key()]
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
        "expected_mismatch_levels": list(range(p, k_max + 1)),
    }


class ReducedSystem:
    """Inter-reduced rules (head -> head-free value) from a bundle, plus leftovers."""

    __slots__ = ("rules", "redundant", "leftovers", "bundle")

    def __init__(self, rules, redundant, leftovers, bundle):
        self.rules = rules
        self.redundant = redundant
        self.leftovers = leftovers
        self.bundle = bundle

    def to_json(self):
        b = self.bundle
        return {
            "p": b.p,
            "k_max": b.k_max,
            "side": b.side,
            "rules": [{"head": mono_str(h), "value": v.to_json()} for h, v in self.rules.items()],
            "redundant": self.redundant,
            "torsion_candidates": [v.to_json() for v in self.leftovers],
        }


def reduce_value(tv, rules):
    """Substitute every head monomial of tv in one pass.

    Rule values must be free of heads; a value that still mentions one is
    a ValueError (a cyclic map would otherwise never settle).
    """
    out = TraceValue()
    for m, c in tv.terms.items():
        value = rules.get(m)
        if value is None:
            out.add_term(m, c)
            continue
        for mm in value.terms:
            if mm in rules:
                raise ValueError("rule for %s mentions head %s" % (mono_str(m), mono_str(mm)))
        out.add_scaled(value, c)
    return out


def _reduce_rows(residuals, eligible, key, reverse):
    """Shared elimination loop over trace-value rows.

    eligible picks which monomials may head a rule; key orders them and
    reverse selects the large (True) or small (False) end. Returns the
    rule map (head -> head-free value, in creation order), the count of
    rows that vanished, and the nonzero rows no eligible monomial could
    orient.

    Rule coefficients lie in Z[q^+-1, z^+-1][1/N], N = z+1-q: a
    denominator is +-q^a z^b N^c, which the fraction's canonical form
    makes N^c with c its z-degree. Any other rule denominator raises
    RuntimeError naming the head and the denominator.
    """
    rules = {}
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
        value = r.scale((-r.terms.pop(head)).inverse())
        for cur in rules.values():
            coef = cur.terms.pop(head, None)
            if coef is not None:
                cur.add_scaled(value, coef)
        rules[head] = value
    for head, value in rules.items():
        for c in value.terms.values():
            if c.den != _n_power(max(ze for _, ze in c.den)):
                raise RuntimeError(
                    "rule for %s has denominator %s, not a unit times a power of N"
                    % (mono_str(head), pformat(c.den))
                )
    return rules, redundant, leftovers


def _head_order(m):
    """Rule-head order of the positive system: level, then top index, then
    reversed-lex."""
    return (mono_level(m), max(m), tuple(sorted(m, reverse=True)))


def reduce_system(b):
    """Eliminate every monomial carrying an index >= p from a positive bundle.

    Each row rewrites its largest eligible monomial in _head_order. Rows
    that reduce to relations purely among index < p monomials are returned
    as leftovers: any nonzero one would be a relation the conjectured free
    basis forbids, so they are findings for the caller to surface, never
    dropped.
    """
    if b.side != "+":
        raise ValueError("reduce_system expects a positive-side bundle")
    p = b.p
    rules, redundant, leftovers = _reduce_rows(
        [e.residual() for e in b.equations], lambda m: max(m) >= p, _head_order, reverse=True
    )
    return ReducedSystem(rules, redundant, tuple(leftovers), b)


def _proportional(a, b):
    """True when a equals a rational-function multiple of nonzero b."""
    head = next(iter(b.terms))
    ca = a.terms.get(head)
    return ca is not None and a == b.scale(ca / b.terms[head])


def back_substitution_check(r):
    """Verify the rules reproduce every source identity.

    Each residual must reduce to zero, except that rows recorded as
    leftovers reduce back to themselves (up to scale). Returns the
    offending (source, sign, reduced) triples, empty on success.
    """
    bad = []
    for e in r.bundle.equations:
        red = reduce_value(e.residual(), r.rules)
        if red.is_zero():
            continue
        if any(_proportional(red, l) for l in r.leftovers):
            continue
        bad.append((str(e.source), e.sign, red))
    return bad


def _normal_form(m, rules, outside):
    """The normal form of monomial m under rules, or None when a monomial
    other than 1 that outside accepts remains."""
    nf = reduce_value(TraceValue({m: rf_int(1)}), rules)
    return None if any(mm != () and outside(mm) for mm in nf.terms) else nf


def check_generating_set(r, probe_level_max):
    """Probe whether low-index monomials generate everything at small scale.

    Reduces each positive monomial of weighted level <= probe_level_max by
    the system's rules. A monomial is settled once only indices < p remain;
    if an index >= p survives with no covering rule, the truncation at
    k_max was too small to decide it and it is reported as undecided, not
    recursed blindly. Confluence is probed by rebuilding the rules with the
    opposite orientation (each row rewrites its smallest eligible monomial)
    and comparing every settled normal form. A probe level below 1 probes
    nothing and is a ValueError.
    """
    p = r.bundle.p
    # every multiset of positive indices of weighted level 1..probe_level_max
    probes = [m for m in _probes(probe_level_max, probe_level_max) if m[0] > 0]

    def high(m):
        return max(m) >= p

    residuals = [e.residual() for e in r.bundle.equations]
    alt_rules, _, alt_leftovers = _reduce_rows(residuals, high, _head_order, reverse=False)

    reduced = []
    undecided = []
    confluent = True
    for m in probes:
        nf = _normal_form(m, r.rules, high)
        nf_alt = _normal_form(m, alt_rules, high)
        if nf is None or nf_alt is None:
            undecided.append(mono_str(m))
            continue
        confluent = confluent and nf == nf_alt
        reduced.append((mono_str(m), str(nf)))
    return {
        "p": p,
        "k_max": r.bundle.k_max,
        "probe_level_max": probe_level_max,
        "checked": len(probes),
        "reduced": reduced,
        "undecided": undecided,
        "confluent": confluent,
        "torsion_candidates": [str(v) for v in r.leftovers],
        "alt_torsion_candidates": [str(v) for v in alt_leftovers],
    }


def check_probe_level(level):
    """A probe level below 1 probes nothing, which would read as a pass:
    ValueError."""
    if level < 1:
        raise ValueError("probe level %d checks nothing; need probe >= 1" % level)


def _probes(level_max, idx_max):
    """Multisets of nonzero indices, |j| <= idx_max, total |weight| <= level_max:
    the exponent tuples of the nonempty ordered loop words, by weight."""
    check_probe_level(level_max)
    out = [tuple(e for _, e in m.entries) for m in enumerate_abs_level(level_max, level_max)]
    out = [m for m in out if m and max(map(abs, m)) <= idx_max]
    return sorted(out, key=lambda m: (sum(map(abs, m)), m))


def candidate_basis_experiment(b, probe_level_max):
    """Join both exponent sides and test the split-window basis candidate.

    b is the positive bundle; it gives p, k_max and the positive rows, and
    the negative bundle is generated here. The window keeps indices j with
    -p/2 <= j < p/2. Every relation from both sides is oriented to rewrite
    the monomial whose largest absolute index lies outside the window
    (ties prefer the positive index, then higher weight). The report says
    whether all probed monomials with |index| <= p close into the window
    and whether any relation survives purely among window monomials,
    which would refute independence.
    A probe level below 1 probes nothing and is a ValueError.
    """
    p, k_max = b.p, b.k_max
    probes = _probes(probe_level_max, p)
    win = {j for j in range(-p, p) if j != 0 and -p <= 2 * j < p}

    def outside(m):
        return any(j not in win for j in m)

    def abs_key(m):
        outs = [j for j in m if j not in win]
        mx = max(abs(j) for j in outs)
        pos = 1 if mx in outs else 0
        shape = tuple(sorted(((abs(j), int(j > 0)) for j in m), reverse=True))
        return (mx, pos, sum(abs(j) for j in m), shape)

    residuals = [e.residual() for e in b.equations]
    residuals += [e.residual() for e in generate_system(p, k_max, "-").equations]
    rules, redundant, leftovers = _reduce_rows(residuals, outside, abs_key, reverse=True)
    closed = []
    undecided = []
    for m in probes:
        nf = _normal_form(m, rules, outside)
        if nf is None:
            undecided.append(mono_str(m))
        else:
            closed.append((mono_str(m), str(nf)))
    window_relations = [str(v) for v in leftovers]
    return {
        "p": p,
        "k_max": k_max,
        "probe_level_max": probe_level_max,
        "window": sorted(win),
        "rules": [(mono_str(h), str(v)) for h, v in rules.items()],
        "redundant": redundant,
        "checked": len(probes),
        "closed": closed,
        "undecided": undecided,
        "window_relations": window_relations,
        "independent": not window_relations,
    }

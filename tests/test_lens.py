"""Relation systems at modulus p: generation, mirroring, reduction."""

import json
import time

import pytest

from heckeb import poly
from heckeb.algebra import project_braid
from heckeb.lens import (
    back_substitution_check,
    candidate_basis_experiment,
    check_generating_set,
    compare_mirror,
    generate_system,
    mirror_equation,
    reduce_system,
    reduce_value,
)
from heckeb.scalars import rf_int, rf_mono, rf_z
from heckeb.trace import (
    Equation,
    TraceValue,
    bbm_coefficient,
    bbm_equation,
    trace,
    trace_of_word,
)
from heckeb.words import bbm_image, enumerate_level

Q = rf_mono(1, 1, 0)
QI = rf_mono(1, -1, 0)
Z = rf_z()
RF_ONE = rf_int(1)
N = RF_ONE + Z - Q  # the recurring denominator z + 1 - q


def test_generate_system_shape():
    b = generate_system(2, 1, "+")
    assert (b.p, b.k_max, b.side) == (2, 1, "+")
    assert [(str(e.source), e.sign, e.level) for e in b.equations] == [
        ("1", 1, 0),
        ("1", -1, 0),
        ("t", 1, 1),
        ("t", -1, 1),
    ]
    # sources at level k; each contributes one equation per sign
    b3 = generate_system(2, 3, "+")
    assert len(b3.equations) == 2 * (1 + sum(2 ** (k - 1) for k in (1, 2, 3)))


def test_positive_equations_match_the_image_traces():
    # generate_system traces each source once and projects the shared
    # image stem once; on the positive side each equation must equal the
    # re-derivation from its two words (the negative side is checked below)
    for p in (1, 2, 3, 4):
        for e in generate_system(p, 3, "+").equations:
            assert e.coeff == bbm_coefficient(e.level, e.sign)
            assert e.lhs == trace_of_word(e.source.as_word()), (p, str(e.source))
            img = trace_of_word(bbm_image(e.source, e.sign, p))
            assert e.rhs == img.scale(e.coeff), (p, str(e.source))


def _direct_negative_equation(m, sign, p):
    """The band move equation of m traced without the exponent flip: the
    source and the projected image t^p tau_+ g1^sign themselves."""
    coeff = bbm_coefficient(m.level, sign)
    return Equation(
        source=m,
        sign=sign,
        p=p,
        coeff=coeff,
        lhs=trace_of_word(m.as_word()),
        rhs=trace(project_braid(bbm_image(m, sign, p))).scale(coeff),
    )


def test_negative_equations_match_the_direct_trace():
    # negative sources are traced as Phi(tr(f(w))); the slow reference
    # traces the words with their inverse loops
    for p in (1, 2, 3, 4):
        for k in range(4):
            eqs = generate_system(p, k, "-").equations
            want = [
                _direct_negative_equation(m, sign, p)
                for lvl in range(0, -k - 1, -1)
                for m in enumerate_level(lvl)
                for sign in (1, -1)
            ]
            assert len(eqs) == len(want)
            for got, ref in zip(eqs, want):
                for field in ("source", "sign", "p", "level", "coeff", "lhs", "rhs"):
                    assert getattr(got, field) == getattr(ref, field), (p, k, str(ref.source), field)
                assert json.dumps(got.to_json()) == json.dumps(ref.to_json())


def test_mirror_boundary_at_k_max_5():
    # the k_max=5 negative bundle is affordable through the exponent flip
    # (about 9 s before it, 1.2 s after on a 2-vCPU VM)
    t0 = time.monotonic()
    rep = compare_mirror(2, 5)
    assert rep["exact_below_p"] is True
    assert rep["mismatch_levels"] == [2, 3, 4, 5]
    assert rep["expected_mismatch_levels"] == [2, 3, 4, 5]
    assert len(rep["entries"]) == 2 * (1 + sum(2 ** (k - 1) for k in range(1, 6)))
    assert time.monotonic() - t0 < 10


def test_generate_system_negative_side():
    b = generate_system(2, 1, "-")
    assert [(str(e.source), e.sign, e.level) for e in b.equations] == [
        ("1", 1, 0),
        ("1", -1, 0),
        ("t^-1", 1, -1),
        ("t^-1", -1, -1),
    ]


def test_mirror_equation_flips_sources_and_signs():
    mirrored = [mirror_equation(e) for e in generate_system(2, 2, "-").equations]
    assert [(str(e.source), e.sign) for e in mirrored] == [
        ("1", -1),
        ("1", 1),
        ("t", -1),
        ("t", 1),
        ("t^2", -1),
        ("t^2", 1),
        ("t t1", -1),
        ("t t1", 1),
    ]
    assert all(e.level >= 0 for e in mirrored)


def test_mirror_equation_below_modulus_is_exact():
    # at source level below p the mirrored negative equation reproduces
    # the direct positive one, values included
    for p in (2, 3):
        for level in range(0, p):
            for src in enumerate_level(level):
                pos = bbm_equation(src, 1, p)
                neg = bbm_equation(src.flip(), -1, p)
                mir = mirror_equation(neg)
                assert mir.lhs == pos.lhs and mir.rhs == pos.rhs, (p, str(src))


def test_compare_mirror_boundary():
    for p, levels in ((2, [2, 3]), (3, [3])):
        rep = compare_mirror(p, 3)
        assert rep["exact_below_p"] is True
        assert rep["mismatch_levels"] == levels
        assert rep["expected_mismatch_levels"] == levels
        for entry in rep["entries"]:
            assert entry["status"] in ("exact", "mismatch")
            if entry["status"] == "mismatch":
                assert entry["level"] >= p
                assert entry["degenerate_axis"] is True
    # no mismatch window at all when k_max stays below p
    rep = compare_mirror(3, 2)
    assert rep["mismatch_levels"] == [] and rep["expected_mismatch_levels"] == []
    assert all(e["status"] == "exact" for e in rep["entries"])


def test_reduce_rejects_negative_side():
    with pytest.raises(ValueError):
        reduce_system(generate_system(2, 1, "-"))


def test_reduce_p2_heads_and_anchors():
    r = reduce_system(generate_system(2, 3, "+"))
    heads = list(r.rules)
    assert heads == [
        (2,),
        (3,),
        (1, 2),
        (4,),
        (1, 3),
        (2, 2),
        (1, 1, 2),
        (5,),
        (1, 4),
        (2, 3),
        (1, 1, 3),
        (1, 2, 2),
        (1, 1, 1, 2),
    ]
    rm = r.rules
    assert rm[(2,)] == TraceValue({(): RF_ONE})
    assert rm[(3,)] == TraceValue({(1,): RF_ONE})
    c12 = (
        rf_mono(1, -1, 1)
        + rf_mono(1, -1, 2)
        - Z
        - rf_mono(1, 0, 2)
        + rf_mono(1, 1, 1)
    ) / N
    assert rm[(1, 2)] == TraceValue({(1,): c12})
    assert rm[(4,)] == TraceValue({(): Z / N, (1, 1): (RF_ONE - Q) / N})
    assert r.redundant == 3
    assert r.leftovers == ()
    assert back_substitution_check(r) == []


def test_reduce_p3_anchors():
    r = reduce_system(generate_system(3, 3, "+"))
    rm = r.rules
    assert rm[(3,)] == TraceValue({(): RF_ONE})
    assert rm[(4,)] == TraceValue({(1,): RF_ONE})
    assert rm[(5,)] == TraceValue({(2,): Z / N, (1, 1): (RF_ONE - Q) / N})
    assert r.redundant == 2
    assert r.leftovers == ()
    assert back_substitution_check(r) == []


def test_rule_values_are_head_free():
    for p in (2, 3):
        r = reduce_system(generate_system(p, 3, "+"))
        rm = r.rules
        for head, value in rm.items():
            for mono in value.terms:
                assert mono not in rm, (head, mono)


def test_reduce_value_idempotent():
    r = reduce_system(generate_system(2, 3, "+"))
    rm = r.rules
    v = reduce_value(TraceValue({(2, 2): RF_ONE}), rm)
    assert v == rm[(2, 2)]
    assert reduce_value(v, rm) == v
    untouched = TraceValue({(1, 1): Q})
    assert reduce_value(untouched, rm) == untouched


def test_reduce_value_refuses_a_value_that_mentions_a_head():
    # a cyclic map never settles under repeated substitution; one pass
    # sees the head in the substituted value and stops
    rules = {(2,): TraceValue({(3,): RF_ONE}), (3,): TraceValue({(2,): RF_ONE})}
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=r"^rule for s\[2\] mentions head s\[3\]$"):
        reduce_value(TraceValue({(2,): RF_ONE}), rules)
    assert time.monotonic() - t0 < 1


def test_elimination_gcd_count(monkeypatch):
    # A work guard: the rules share a few denominators, and a product of
    # many fractions by one fraction cancels against each denominator once.
    # Cancelling per term took 2839 gcds here (1 to generate, 2169 to
    # reduce, 669 to back-substitute); the batched products take 2345.
    calls = []
    pgcd = poly.pgcd

    def counted(a, b):
        calls.append(1)
        return pgcd(a, b)

    monkeypatch.setattr(poly, "pgcd", counted)
    r = reduce_system(generate_system(3, 4, "+"))
    assert back_substitution_check(r) == []
    assert len(calls) <= 2345


def test_reduce_rejects_unknown_orientation():
    with pytest.raises(ValueError, match="'hgih'"):
        reduce_system(generate_system(2, 2, "+"), orientation="hgih")


def test_reduced_system_to_json():
    r = reduce_system(generate_system(2, 2, "+"))
    data = r.to_json()
    assert data["p"] == 2 and data["k_max"] == 2 and data["side"] == "+"
    assert data["rules"][0]["head"] == "s[2]"
    assert data["rules"][0]["value"] == {
        "terms": [{"mono": "1", "coeff": {"num": "1", "den": "1"}}]
    }
    assert data["torsion_candidates"] == []


def test_check_generating_set_small_moduli():
    expectations = {
        1: {("s[1]", "1"), ("s[2]", "1")},
        2: {("s[2]", "1"), ("s[3]", "s[1]")},
        3: {("s[3]", "1")},
    }
    for p, expect in expectations.items():
        r = reduce_system(generate_system(p, 3, "+"))
        rep = check_generating_set(r, 3)
        assert rep["p"] == p and rep["probe_level_max"] == 3
        assert rep["confluent"] is True
        assert rep["undecided"] == []
        assert rep["torsion_candidates"] == []
        assert expect <= set(rep["reduced"])
        # normal forms only mention indices below p
        for _, nf in rep["reduced"]:
            for j in range(p, 10):
                assert "s[%d]" % j not in nf


def test_candidate_basis_experiment_p2():
    win = candidate_basis_experiment(reduce_system(generate_system(2, 2, "+")), 2)
    assert win["window"] == [-1]
    assert win["checked"] == 7
    assert win["undecided"] == ["s[1]s[1]"]
    assert win["independent"] is True
    assert win["window_relations"] == []
    rules = dict(win["rules"])
    assert rules["s[1]"] == "s[-1]"
    assert (
        rules["s[-2]"]
        == "(1 - q)/(1 + z - q) * s[-1]s[-1] + (z)/(1 + z - q) * 1"
    )
    assert ("s[1]", "s[-1]") in win["closed"]


def test_candidate_basis_experiment_p3():
    win = candidate_basis_experiment(reduce_system(generate_system(3, 2, "+")), 2)
    assert win["window"] == [-1, 1]
    assert win["checked"] == 7
    assert win["undecided"] == []
    assert win["independent"] is True

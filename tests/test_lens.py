"""Relation systems at modulus p: generation, mirroring, reduction."""

import pytest

from heckeb.lens import (
    back_substitution_check,
    candidate_basis_experiment,
    check_generating_set,
    compare_mirror,
    generate_system,
    mirror_equation,
    mirror_system,
    reduce_system,
    reduce_value,
)
from heckeb.scalars import RF_ONE, rf_mono, rf_z
from heckeb.trace import TraceValue, bbm_equation, trace_of_word
from heckeb.words import bbm_image, enumerate_level

Q = rf_mono(1, 1, 0)
QI = rf_mono(1, -1, 0)
Z = rf_z()
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


def test_generate_system_matches_single_sign_equations():
    # generate_system traces each source once and projects the shared
    # image stem once; each equation must equal the per-sign
    # bbm_equation and the re-derivation from its two words
    for p in (1, 2, 3, 4):
        for side in ("+", "-"):
            for e in generate_system(p, 3, side).equations:
                ref = bbm_equation(e.source, e.sign, p)
                assert e.lhs == ref.lhs and e.rhs == ref.rhs, (p, side, str(e.source))
                assert e.coeff == ref.coeff and e.level == ref.level
                assert e.lhs == trace_of_word(e.source.as_word())
                img = trace_of_word(bbm_image(e.source, e.sign, p))
                assert e.rhs == img.scale(e.coeff)


def test_generate_system_negative_side():
    b = generate_system(2, 1, "-")
    assert [(str(e.source), e.sign, e.level) for e in b.equations] == [
        ("1", 1, 0),
        ("1", -1, 0),
        ("t^-1", 1, -1),
        ("t^-1", -1, -1),
    ]


def test_mirror_system_flips_sources_and_signs():
    m = mirror_system(generate_system(2, 2, "-"))
    assert m.side == "+"
    assert [(str(e.source), e.sign) for e in m.equations] == [
        ("1", -1),
        ("1", 1),
        ("t", -1),
        ("t", 1),
        ("t^2", -1),
        ("t^2", 1),
        ("t t1", -1),
        ("t t1", 1),
    ]
    with pytest.raises(ValueError):
        mirror_system(generate_system(2, 2, "+"))


def test_mirror_equation_below_modulus_is_exact():
    # at source level below p the mirrored negative equation reproduces
    # the direct positive one, values included
    for p in (2, 3):
        for level in range(0, p):
            for src in enumerate_level(level, "+"):
                pos = bbm_equation(src, 1, p)
                neg = bbm_equation(src.flip(), -1, p)
                mir = mirror_equation(neg, p)
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
    heads = [rule.head for rule in r.rules]
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
    rm = r.rule_map()
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
    rm = r.rule_map()
    assert rm[(3,)] == TraceValue({(): RF_ONE})
    assert rm[(4,)] == TraceValue({(1,): RF_ONE})
    assert rm[(5,)] == TraceValue({(2,): Z / N, (1, 1): (RF_ONE - Q) / N})
    assert r.redundant == 2
    assert r.leftovers == ()
    assert back_substitution_check(r) == []


def test_rule_values_are_head_free():
    for p in (2, 3):
        r = reduce_system(generate_system(p, 3, "+"))
        rm = r.rule_map()
        for head, value in rm.items():
            for mono in value.terms:
                assert mono not in rm, (head, mono)


def test_reduce_value_idempotent():
    r = reduce_system(generate_system(2, 3, "+"))
    rm = r.rule_map()
    v = reduce_value(TraceValue({(2, 2): RF_ONE}), rm)
    assert v == rm[(2, 2)]
    assert reduce_value(v, rm) == v
    untouched = TraceValue({(1, 1): Q})
    assert reduce_value(untouched, rm) == untouched


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
    win = candidate_basis_experiment(2, 2)
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
    win = candidate_basis_experiment(3, 2)
    assert win["window"] == [-1, 1]
    assert win["checked"] == 7
    assert win["undecided"] == []
    assert win["independent"] is True

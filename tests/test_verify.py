"""Verification suite harness at small scale."""

import inspect

import pytest

from heckeb import algebra
from heckeb.verify import SUITES, run_suite

REPORT_KEYS = {
    "suite",
    "passed",
    "checked",
    "failure_count",
    "failures",
    "params",
    "notes",
}

SMALL = {
    "markov": {"n": 3, "samples": 30, "seed": 5},
    "relations": {"n": 3, "samples": 30, "seed": 5},
    "invariance": {"n": 3, "samples": 15, "seed": 5},
    "eq15": {"n": 2, "k": 2},
    "lemma2": {"n": 2, "k": 2},
    "lemma3": {"n": 2, "k": 2},
    "lemma4": {"p": 2, "k": 2},
    "theorem9": {"p": 2, "k": 2},
    "prop2": {"p": 2, "k": 2},
    "flip": {"n": 3, "samples": 20, "seed": 5, "p": 2, "k": 2},
    "grading": {"p": 2, "k": 3},
    "triangular": {"n": 3, "k": 3},
}


def test_suite_registry_matches_params():
    # run_suite reads the accepted names from each suite's code object
    assert set(SUITES) == set(SMALL)
    for name, fn in SUITES.items():
        assert set(SMALL[name]) == set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_suite_passes_small(name):
    rep = run_suite(name, **SMALL[name])
    assert set(rep) == REPORT_KEYS
    assert rep["suite"] == name
    assert rep["passed"] is True
    assert rep["failure_count"] == 0
    assert rep["failures"] == []
    assert rep["checked"] > 0


def test_unknown_suite():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; choose from markov, .*flip"):
        run_suite("nope")


def test_irrelevant_params_filtered():
    rep = run_suite("markov", n=3, samples=10, p=5)
    assert "p" not in rep["params"]
    assert rep["passed"]


def test_deterministic_reports():
    a = run_suite("markov", n=3, samples=25, seed=9)
    b = run_suite("markov", n=3, samples=25, seed=9)
    assert a == b
    c = run_suite("invariance", n=3, samples=10, seed=2)
    d = run_suite("invariance", n=3, samples=10, seed=2)
    assert c == d


def test_every_suite_passes_small():
    reports = [run_suite(name, n=3, samples=15, k=2, p=2, seed=3) for name in SUITES]
    assert [r["suite"] for r in reports] == list(SUITES)
    assert all(r["passed"] for r in reports)


def test_flip_suite_checks_words_and_band_move_images():
    # 150 seeded words and the 2 * (1 + 1 + 2 + 4) images at levels 0..3
    # for each of p = 2, 3, 4
    rep = run_suite("flip")
    assert rep["passed"] and rep["checked"] == 150 + 3 * 16
    assert rep["notes"]
    with pytest.raises(ValueError, match="needs n >= 2"):
        run_suite("flip", n=1)


def test_relations_guard():
    with pytest.raises(ValueError):
        run_suite("relations", n=1, samples=5)


def test_notes_present_where_adjudicated():
    # the mirror comparison and triangularity suites document their
    # boundary/sign observations in the notes channel
    rep = run_suite("theorem9", p=2, k=2)
    assert rep["notes"]
    rep = run_suite("triangular", n=3, k=3)
    assert any("+" in note for note in rep["notes"])
    rep = run_suite("lemma4", p=2, k=2)
    assert rep["notes"]


def test_triangular_sign_undetermined_without_a_deciding_word():
    # at k = 1 every checked word has sum(index * exponent) = 0
    rep = run_suite("triangular", n=2, k=1)
    assert rep["passed"] and rep["checked"] == 2
    assert rep["notes"] == [
        "the diagonal coefficient's sign is undetermined at these parameters"
    ]


def test_triangular_records_both_diagonal_signs_as_a_failure(monkeypatch):
    # invert the diagonal coefficient of t t1 only: the other words keep +
    real = algebra.project_braid

    def project(word):
        el = real(word)
        if str(word) == "t t1":
            terms = dict(el.terms)
            terms[(((0, 1), (1, 1)), algebra.perm_id(2))] = {(-1, 0): 1}
            el = algebra.AlgebraElement(el.n, terms)
        return el

    monkeypatch.setattr(algebra, "project_braid", project)
    rep = run_suite("triangular", n=3, k=2)
    assert not rep["passed"]
    assert rep["failures"] == [
        {"check": "diagonal-sign", "positive": "t^-1 t1^-1", "negative": "t t1"}
    ]
    assert rep["notes"] == [
        "the diagonal coefficient's sign is undetermined at these parameters"
    ]

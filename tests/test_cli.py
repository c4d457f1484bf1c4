"""Command line interface, driven in-process."""

import io
import json

import pytest

from heckeb import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", "t^2 t1'^3", "--n", "2")
    assert code == 0
    assert out == "s[2]s[3]\n"


def test_trace_json(capsys):
    code, out, _ = run(capsys, "trace", "t^2 t1'^3", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "terms": [{"mono": "s[2]s[3]", "coeff": {"num": "1", "den": "1"}}]
    }


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "t1", "--n", "2")
    assert code == 0
    assert out == "(q) * t1' + (-1 + q) * t1' g1\n"


def test_normalize_json_roundtrip(capsys):
    code, out, _ = run(capsys, "normalize", "t1", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 2
    assert [t["coeff"] for t in data["terms"]] == ["q", "-1 + q"]


def test_invariant_unknot(capsys):
    code, out, _ = run(capsys, "invariant", "g1", "--n", "2")
    assert code == 0
    assert out == "(1) * 1\n"


def test_bbm(capsys):
    code, out, _ = run(capsys, "bbm", "t t1", "--p", "2", "--side", "-")
    assert code == 0
    assert out == "t^2 t1 t2 g1^-1\n"
    code, out, _ = run(capsys, "bbm", "1", "--p", "3", "--side", "+")
    assert out == "t^3 g1\n"


def test_fmap(capsys):
    code, out, _ = run(capsys, "fmap", "t^2 g1")
    assert code == 0
    assert out == "t^-2 g1^-1\n"


def test_imap(capsys):
    code, out, _ = run(capsys, "imap", "t^-1", "--p", "2")
    assert code == 0
    assert out == "s[1]\n"


def test_order(capsys):
    code, out, _ = run(capsys, "order", "t^2", "t t1")
    assert code == 0 and out == "Less\n"
    code, out, _ = run(capsys, "order", "t t1", "t^2")
    assert out == "Greater\n"
    code, out, _ = run(capsys, "order", "t t1", "t t1")
    assert out == "Equal\n"


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "--level", "2", "--side", "+")
    assert code == 0
    assert out == "t^2\nt t1\n"
    code, out, _ = run(capsys, "enum", "--level", "1", "--side", "-")
    assert out == "t^-1\n"


def test_gen_system_text(capsys):
    code, out, _ = run(capsys, "gen-system", "--p", "2", "--k-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p=2 side=+ equations=4"
    assert lines[1] == "source=1 sign=+ level=0"
    assert lines[2] == "  lhs: 1"
    assert lines[3] == "  rhs: s[2]"


def test_gen_system_json_deterministic(capsys):
    code, out1, _ = run(capsys, "gen-system", "--p", "2", "--k-max", "2", "--format", "json")
    code2, out2, _ = run(capsys, "gen-system", "--p", "2", "--k-max", "2", "--format", "json")
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["p"] == 2 and len(data["equations"]) == 8


def test_reduce_text(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "2", "--k-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s[2] -> 1"
    assert lines[1] == "s[3] -> s[1]"


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "2", "--k-max", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    heads = [r["head"] for r in data["rules"]]
    assert heads[:2] == ["s[2]", "s[3]"]
    assert data["rules"][1]["value"] == {
        "terms": [{"mono": "s[1]", "coeff": {"num": "1", "den": "1"}}]
    }
    assert data["torsion_candidates"] == []


def test_mirror_text(capsys):
    code, out, _ = run(capsys, "mirror", "--p", "2", "--k-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p=2 k_max=2 exact_below_p=True"
    assert "level=2 source=t^-2 sign=+: mismatch (degenerate axis)" in lines


def test_experiment_text(capsys):
    code, out, _ = run(capsys, "experiment", "--p", "2", "--probe", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generating-set probe: p=2 probe=2 checked=3 confluent=True"
    assert "window experiment: window=[-1] closed=6/7 independent=True" in lines
    assert "  undecided at this truncation: s[1]s[1]" in lines


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma4", "--p", "2", "--k", "2")
    assert code == 0
    assert out.startswith("lemma4: PASS (checked ")


def test_verify_grading(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "grading", "--p", "2", "--k", "3")
    assert code == 0
    assert out == "grading: PASS (checked 16)\n"


def test_verify_lemma4_at_modulus_one(capsys):
    # s_{p-1} is s_0 = 1 in the displayed goldens at p = 1
    code, out, _ = run(capsys, "verify", "--suite", "lemma4", "--p", "1")
    assert code == 0
    assert out.startswith("lemma4: PASS (checked ")


@pytest.mark.parametrize(
    "suite, p",
    [("lemma4", "0"), ("lemma4", "-2"), ("theorem9", "0"), ("prop2", "-1")],
)
def test_verify_rejects_out_of_range_modulus(capsys, suite, p):
    code, out, err = run(capsys, "verify", "--suite", suite, "--p", p)
    assert code == 1
    assert out == ""
    assert err == "error: suite %s needs p >= %d\n" % (suite, 0 if suite == "prop2" else 1)


def test_stdin_word(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("t^2 t1'^3\n"))
    code, out, _ = run(capsys, "trace", "-", "--n", "2")
    assert code == 0
    assert out == "s[2]s[3]\n"


def test_order_reads_one_word_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("t^2\n"))
    code, out, _ = run(capsys, "order", "-", "1")
    assert (code, out) == (0, "Greater\n")
    # stdin holds one word; a second read would give the empty word
    monkeypatch.setattr("sys.stdin", io.StringIO("t^2\n"))
    code, out, err = run(capsys, "order", "-", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "trace", "garbage(", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_imap_domain_error(capsys):
    code, _, err = run(capsys, "imap", "t^3", "--p", "2")
    assert code == 1
    assert "error:" in err


def test_reduce_rejects_negative_side(capsys):
    code, _, err = run(capsys, "reduce", "--p", "2", "--k-max", "2", "--side", "-")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace"])  # missing word argument
    assert exc.value.code == 2

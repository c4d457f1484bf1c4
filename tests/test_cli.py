"""Command line interface, driven in-process."""

import io
import json

import pytest

from heckeb import algebra, cli, lens, trace, verify


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
    # side + takes a level >= 0
    code, out, _ = run(capsys, "enum", "--level", "-2", "--side", "+")
    assert code == 1 and out == ""


def test_enum_level_limit(capsys):
    # level 16 (2^15 words) is the largest that is enumerated in memory
    code, out, _ = run(capsys, "enum", "--level", "16", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 32768
    for level in ("17", "-17"):
        code, out, err = run(capsys, "enum", "--level", level, "--side", "-")
        assert code == 1 and out == "" and "16" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "t^2 g1 t1'^-1"),
        ("trace", "t^2 g1 t1'^-1"),
        ("gen-system", "--p", "2", "--k-max", "1"),
        ("reduce", "--p", "2", "--k-max", "1"),
    ],
)
def test_text_output_builds_no_json(capsys, monkeypatch, argv):
    want = run(capsys, *argv)

    def refuse(self):
        raise AssertionError("text output built JSON")

    for cls in (algebra.AlgebraElement, trace.TraceValue, lens.SystemBundle, lens.ReducedSystem):
        monkeypatch.setattr(cls, "to_json", refuse)
    assert want[0] == 0
    assert run(capsys, *argv) == want


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


@pytest.mark.parametrize("probe", ["0", "-1"])
def test_experiment_rejects_probe_that_checks_nothing(capsys, probe):
    # probe < 1 would print checked=0 and closed=0/0 and exit 0
    code, out, err = run(capsys, "experiment", "--p", "2", "--probe", probe, "--k-max", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: probe level %s checks nothing" % probe), err


def test_experiment_checks_the_probe_before_generating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("generated a system for a probe that checks nothing")

    monkeypatch.setattr(lens, "generate_system", refuse)
    code, out, err = run(capsys, "experiment", "--p", "2", "--probe", "0", "--k-max", "5")
    assert (code, out) == (1, "")
    assert err.startswith("error: probe level 0 checks nothing"), err


def test_loop_exponent_limit_exits_1(capsys):
    # t1'^K t swaps t1'^K past the axis through t1^K, built one unit of K
    # at a time; |K| = 64 is the largest accepted
    code, out, _ = run(capsys, "normalize", "t1'^64 t")
    assert code == 0
    assert out.startswith("(q^-1 - 1) * t1'^65 g1 + ")
    for cmd, word in (("normalize", "t1'^65 t"), ("normalize", "t1'^-3000 t"), ("trace", "t1'^1200 t")):
        code, out, err = run(capsys, cmd, word)
        assert code == 1
        assert out == ""
        assert err.startswith("error: loop exponent ") and "64" in err, err


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


@pytest.mark.parametrize(
    "argv, err",
    [
        (("relations", "--samples", "-1"), "suite relations needs samples >= 0"),
        (("relations", "--samples", "0"), "suite relations checked nothing"),
        (("invariance", "--samples", "0"), "suite invariance checked nothing"),
        (("lemma2", "--k", "0"), "suite lemma2 checked nothing"),
        (("lemma3", "--k", "0"), "suite lemma3 checked nothing"),
        (("triangular", "--k", "0"), "suite triangular checked nothing"),
        (("grading", "--k", "-1"), "suite grading needs k >= 0"),
        (("prop2", "--k", "-1"), "suite prop2 needs k >= 0"),
        (("lemma2", "--n", "0"), "suite lemma2 checked nothing"),
        (("triangular", "--n", "0"), "suite triangular checked nothing"),
        (("markov", "--n", "1"), "suite markov needs n >= 2"),
        (("invariance", "--n", "0"), "suite invariance needs n >= 2"),
        (("eq15", "--n", "0"), "suite eq15 checked nothing"),
        (("eq15", "--k", "0"), "suite eq15 checked nothing"),
    ],
)
def test_verify_rejects_suites_that_check_nothing(capsys, argv, err):
    # an empty range would otherwise print PASS (checked 0) and exit 0
    code, out, got = run(capsys, "verify", "--suite", *argv)
    assert code == 1
    assert out == ""
    assert got.startswith("error: " + err), got


def _forbid_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(verify, "trace_of_word", no_work)
    monkeypatch.setattr(algebra, "rmul_sigma", no_work)
    monkeypatch.setattr(algebra, "rmul_axis", no_work)


@pytest.mark.parametrize(
    "argv, err",
    [
        (("lemma2", "--n", "8", "--k", "1"), None),
        (("lemma2", "--n", "9", "--k", "1"), "suite lemma2 needs n <= 8"),
        (("lemma2", "--n", "8", "--k", "2"), "suite lemma2 needs k <= 1 at n = 8"),
        (("eq15", "--n", "8", "--k", "1"), None),
        (("eq15", "--n", "8", "--k", "2"), "suite eq15 needs k <= 1 at n = 8"),
        (("lemma3", "--n", "7", "--k", "1"), None),
        (("lemma3", "--n", "8", "--k", "1"), "suite lemma3 needs n <= 7"),
        (("lemma3", "--n", "4", "--k", "6"), "suite lemma3 needs k <= 3 at n = 4"),
        (("flip", "--n", "7", "--samples", "20", "--k", "0"), None),
        (("flip", "--n", "8"), "suite flip needs n <= 7"),
        # prop2 flips its sources and flip traces negative band move images;
        # from these k on they would build t5^-4
        (("prop2", "--k", "9"), "suite prop2 needs k <= 8"),
        (("flip", "--k", "8"), "suite flip needs k <= 7"),
        # lemma4 builds t1^-k; from level 9 on a band move image holds t5^5
        (("lemma4", "--p", "2", "--k", "66"), "suite lemma4 needs k <= 65"),
        (("theorem9", "--p", "1", "--k", "9"), "suite theorem9 needs k <= 8"),
        (("theorem9", "--p", "3", "--k", "9"), "suite theorem9 needs k <= 8"),
        (("grading", "--p", "2", "--k", "9"), "suite grading needs k <= 8"),
    ],
)
def test_verify_bounds_suite_parameters_by_loop_powers(capsys, monkeypatch, argv, err):
    # past algebra.LOOP_POWER_MAX the suites would build a word the engine
    # refuses; the refusal names the suite parameter and comes before any
    # trace or multiplication
    if err is not None:
        _forbid_work(monkeypatch)
    code, out, got = run(capsys, "verify", "--suite", *argv)
    if err is None:
        assert (code, got) == (0, ""), got
        assert out.startswith("%s: PASS" % argv[0])
    else:
        assert (code, out, got) == (1, "", "error: %s\n" % err)


@pytest.mark.parametrize("command", ["gen-system", "reduce", "mirror"])
def test_lens_commands_bound_k_max_by_loop_powers(capsys, monkeypatch, command):
    # a level 9 band move image holds t5^5, past algebra.LOOP_POWER_MAX;
    # the refusal names k_max and comes before any trace or multiplication
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, command, "--p", "2", "--k-max", "9")
    want = "error: need k_max <= 8; level 9 builds the loop power t5^5\n"
    assert (code, out, err) == (1, "", want)


def test_experiment_generates_each_side_once(capsys, monkeypatch):
    sides = []
    generate_system = lens.generate_system

    def counted(p, k_max, side):
        sides.append(side)
        return generate_system(p, k_max, side)

    monkeypatch.setattr(lens, "generate_system", counted)
    code, out, _ = run(capsys, "experiment", "--p", "2", "--probe", "2")
    assert code == 0 and out.startswith("generating-set probe: p=2")
    assert sorted(sides) == ["+", "-"]


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


def test_imap_rejects_negative_modulus(capsys):
    # bbm and verify --suite prop2 refuse p < 0 too; p = 0 stays in range
    code, out, err = run(capsys, "imap", "t^-1", "--p", "-1")
    assert code == 1 and out == "" and err.startswith("error: ")
    code, out, _ = run(capsys, "imap", "t^-1", "--p", "0")
    assert code == 0 and out == "s[1]\n"


def test_reduce_rejects_negative_side(capsys):
    # reduce runs on the positive system only and takes no --side
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", "--p", "2", "--k-max", "2", "--side", "-"])
    assert exc.value.code == 2


def test_power_limits_exit_1(capsys):
    # a braiding power is |k| letter passes and a loop power |e| rounds,
    # so both are bounded (algebra.BRAID_EXP_MAX, algebra.LOOP_POWER_MAX)
    for word, msg in (
        ("g1^99999", "braiding power g1^99999; |exponent| <= 2500"),
        ("g1^-2501", "braiding power g1^-2501; |exponent| <= 2500"),
        ("t2^33", "loop power t2^33; |exponent| <= 20 for positive powers of t2"),
        ("t g1 t3^-8", "loop power t3^-8; |exponent| <= 7 for inverse powers of t3"),
        ("t1^66", "loop power t1^66; |exponent| <= 65 for positive powers of t1"),
        ("t1^-66", "loop power t1^-66; |exponent| <= 65 for inverse powers of t1"),
        # a primed loop power passing a lower loop is bounded where it is
        # unprimed
        ("t1'^65 t", "loop exponent 65 passes a lower loop; |exponent| <= 64"),
    ):
        code, out, err = run(capsys, "normalize", word, "--n", "4")
        assert (code, out, err) == (1, "", "error: %s\n" % msg)


def test_verify_unknown_suite_exits_1(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown suite 'nope'; choose from ") and "flip" in err


def test_verify_empty_suite_name_exits_1(capsys):
    code, out, err = run(capsys, "verify", "--suite", "")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown suite ''; choose from ")


def test_verify_grading_negative_p_exits_1_before_work(capsys, monkeypatch):
    # p is checked before the k bound, and p = 0 is refused as gen-system does
    _forbid_work(monkeypatch)
    for p, k in (("-1", "2"), ("0", "2"), ("-1", "9")):
        code, out, err = run(capsys, "verify", "--suite", "grading", "--p", p, "--k", k)
        assert (code, out, err) == (1, "", "error: suite grading needs p >= 1\n"), (p, k)


def test_strand_limit_exits_1(capsys):
    code, out, err = run(capsys, "normalize", "1", "--n", "17")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace"])  # missing word argument
    assert exc.value.code == 2

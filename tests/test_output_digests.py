"""Command output pinned byte for byte.

Each digest is the sha256 of everything the listed `heckeb` commands print,
on stdout and stderr, run in order in one process, with every exit code.
The `verify-broken` and `verify-broken-g1` digests run the identity suites
in a fresh interpreter whose kernel is deliberately broken, which pins the
failure reports of every suite. The digests were recorded before the
refactors that must not change output; regenerate them only for a
deliberate change of output, with

    PYTHONPATH=src python tests/test_output_digests.py
"""

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest

from heckeb import algebra, cli
from heckeb.words import enumerate_level

INVARIANT_WORDS = ("g1", "g1^3", "t t1^-2 g1^-1", "t^2 g2 t1'^-1 g1", "t2^-1 g1 t")

# the word commands: one word in, one answer out, or an exit-1 error
WORD_COMMAND_WORDS = ("t1", "t^2 t1'^3", "g1^-1 t t1^-2 g1", "t2^-1 g1 t g2'^2", "1")
BBM_WORDS = ("t t1", "t^2", "1", "t t1^2 t2")
WORD_COMMAND_ERRORS = (
    ("normalize", "t99"),
    ("trace", "q1"),
    ("imap", "t^-1", "--p", "-1"),
    ("bbm", "t1 t", "--p", "2"),
    ("fmap", "g1 t1'"),
)

# the cli-cold benchmark's verify commands, flip, larger grids and rejected
# parameters
VERIFY_ARGS = (
    ("relations", "--n", "3", "--samples", "5"),
    ("markov", "--n", "3", "--samples", "5"),
    ("invariance", "--n", "3", "--samples", "5"),
    ("eq15", "--n", "2", "--k", "2"),
    ("lemma2", "--n", "2", "--k", "2"),
    ("lemma3", "--n", "2", "--k", "2"),
    ("lemma4", "--p", "2", "--k", "2"),
    ("theorem9", "--p", "2", "--k", "2"),
    ("prop2", "--p", "2", "--k", "2"),
    ("grading", "--p", "2", "--k", "2"),
    ("triangular", "--n", "3", "--k", "2"),
    ("flip", "--n", "3", "--samples", "5", "--p", "2", "--k", "2"),
    ("relations", "--n", "4", "--samples", "10", "--seed", "3"),
    ("eq15", "--n", "3", "--k", "3"),
    ("lemma2", "--n", "3", "--k", "3"),
    ("lemma3", "--n", "3", "--k", "3"),
    ("theorem9", "--p", "3", "--k", "3"),
    ("lemma4", "--k", "3"),
    ("relations", "--samples", "0"),
    ("lemma3", "--k", "0"),
    ("prop2", "--p", "-1"),
)

# suites whose identities go through g2, run with it broken
BROKEN_ARGS = (
    ("eq15", "--n", "2", "--k", "2"),
    ("lemma2", "--n", "2", "--k", "2"),
    ("lemma3", "--n", "2", "--k", "2"),
    ("relations", "--n", "3", "--samples", "2"),
    ("relations", "--n", "4", "--samples", "1"),
)

# the other suites, run with g1^-1 broken; grading reads only levels, so it
# is given an off-level term instead
BROKEN_G1_ARGS = (
    ("lemma4", "--p", "2", "--k", "2"),
    ("theorem9", "--p", "2", "--k", "2"),
    ("prop2", "--p", "2", "--k", "2"),
    ("triangular", "--n", "3", "--k", "2"),
    ("markov", "--n", "3", "--samples", "5"),
    ("invariance", "--n", "3", "--samples", "5"),
    ("flip", "--n", "3", "--samples", "5", "--p", "2", "--k", "2"),
    ("grading", "--p", "2", "--k", "2"),
)

BROKEN = {"verify-broken": BROKEN_ARGS, "verify-broken-g1": BROKEN_G1_ARGS}

# enum's listings and its exit-1 cases
ENUM_ARGS = (
    ("--level", "3"),
    ("--level", "3", "--side", "-"),
    ("--level", "0"),
    ("--level", "-1"),
    ("--level", "2", "--side", "x"),
    ("--level", "17"),
)


def _loop_words(levels=(3, -3)):
    return [str(m) for lvl in levels for m in enumerate_level(lvl)]


def _commands(name):
    if name == "order":
        words = _loop_words()
        return [("order", a, b) for a in words for b in words]
    if name == "listing":
        words = _loop_words((2, -2))
        return [
            ("enum",) + args + fmt for args in ENUM_ARGS for fmt in ((), ("--format", "json"))
        ] + [("order", a, b, "--format", "json") for a in words for b in words]
    if name == "invariant":
        return [
            ("invariant", w) + fmt
            for w in INVARIANT_WORDS
            for fmt in ((), ("--format", "json"))
        ]
    if name == "words":
        out = [
            (cmd, w, "--n", "3") + extra
            for w in WORD_COMMAND_WORDS
            for cmd, extra in (
                ("normalize", ()),
                ("trace", ()),
                ("invariant", ()),
                ("fmap", ()),
                ("imap", ("--p", "2")),
                ("imap", ("--p", "3")),
            )
        ]
        out += [
            ("bbm", w, "--p", "2", "--side", side)
            for w in BBM_WORDS
            for side in ("+", "-", "x")
        ]
        out += list(WORD_COMMAND_ERRORS)
        return [argv + fmt for argv in out for fmt in ((), ("--format", "json"))]
    if name == "systems":
        out = []
        for argv in (
            ("gen-system", "--side", "+"),
            ("gen-system", "--side", "-"),
            ("reduce",),
            ("mirror",),
        ):
            for fmt in ((), ("--format", "json")):
                out.append(argv + ("--p", "2", "--k-max", "3") + fmt)
        return out
    if name == "experiment":
        return [("experiment", "--p", "2", "--probe", "2")]
    if name == "systems-k4":
        return [
            argv + fmt
            for argv in (
                ("reduce", "--p", "3", "--k-max", "4"),
                ("reduce", "--p", "4", "--k-max", "4"),
                ("experiment", "--p", "3", "--probe", "3"),
                ("experiment", "--p", "2", "--probe", "3", "--k-max", "4"),
            )
            for fmt in ((), ("--format", "json"))
        ]
    if name == "lens-k4":
        return [
            argv + fmt
            for argv in (
                ("mirror", "--p", "2", "--k-max", "4"),
                ("mirror", "--p", "3", "--k-max", "4"),
                ("mirror", "--p", "4", "--k-max", "4"),
                ("gen-system", "--side", "-", "--p", "3", "--k-max", "4"),
                ("reduce", "--p", "2", "--k-max", "5"),
            )
            for fmt in ((), ("--format", "json"))
        ]
    if name == "verify" or name in BROKEN:
        return [
            ("verify", "--suite") + args + fmt
            for args in BROKEN.get(name, VERIFY_ARGS)
            for fmt in ((), ("--format", "json"))
        ]
    raise KeyError(name)


def _digest(name):
    h = hashlib.sha256()
    for argv in _commands(name):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        h.update(("%s\n%d\n" % (" ".join(argv), code)).encode())
        h.update(out.getvalue().encode())
        h.update(err.getvalue().encode())
    return h.hexdigest()


def _break_g2():
    """Make algebra.rmul_sigma multiply every g2 by 2."""
    rmul_sigma = algebra.rmul_sigma

    def broken(el, i, sign):
        out = rmul_sigma(el, i, sign)
        return out.scale({(0, 0): 2}) if i == 2 else out

    algebra.rmul_sigma = broken


def _break_g1():
    """Make rmul_sigma multiply every g1^-1 by 2, in algebra and in trace,
    which imports it by name; give every band move equation that
    verify builds an off-level term s_7."""
    from heckeb import trace, verify
    from heckeb.scalars import rf_int

    rmul_sigma = algebra.rmul_sigma
    pair = verify.bbm_equation_pair

    def broken(el, i, sign):
        out = rmul_sigma(el, i, sign)
        return out.scale({(0, 0): 2}) if (i, sign) == (1, -1) else out

    def off_level(m, p):
        eqs = pair(m, p)
        for eq in eqs:
            eq.lhs.add_term((7,), rf_int(1))
        return eqs

    algebra.rmul_sigma = trace.rmul_sigma = broken
    verify.bbm_equation_pair = off_level


def _broken_digest(name):
    """A broken-kernel digest, taken in a fresh interpreter: in this one,
    the memo tables would mix entries built with and without the break."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    brk = "_break_g2" if name == "verify-broken" else "_break_g1"
    code = "import test_output_digests as t; t.%s(); print(t._digest(%r))" % (brk, name)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.strip()


def _current(name):
    return _broken_digest(name) if name in BROKEN else _digest(name)


DIGESTS = {
    "order": "1cc7b7cb900ac5133d0f84983f7966396cc9f2bc78b1569fa34331aa554f7fa0",
    "listing": "36b803238d8cd81714ff18cc1168cba99c7f49aa446e41c6728ed5a94b632281",
    "invariant": "515b5ade4dc387d47e10cbfe2ce0c58c75b3f7e581b4596427f37b1b4e0dbec0",
    "systems": "f61d49c8357f50836cfa1d30bf250cc591441fa4d4c1e37d5b3d4fa832d617d3",
    "systems-k4": "a007943766452ee87ec550218d7df1d1c822c4eba5223da954fb7042e1eb29fb",
    "lens-k4": "77f4cc61568b778656a81d17418a11342e743bbaee67c10dbc1309673ccefcd1",
    "experiment": "30f595449b4d1e70d16167e77559007bfcb653dd55581b2a3543996f9eafbbb7",
    "verify": "c98811495586391d85291cc1f6a29d220e81cb1f5a8a401ffcae0fe8c8e04277",
    "verify-broken": "5de7cc09cc92706fd7363643fe2b85b15418d553f49be5f846de335ef47b4335",
    "verify-broken-g1": "32f84c39807c8cfdd70821e234a6bbc70d5bfa168d15d26a7e31c7f32b0faa09",
    "words": "143215a2a09783a524d68defbfcb6e9d861928644a736c73c01eeb2751c008df",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_recorded_digest(name):
    assert len(_commands(name)) > 0
    assert _current(name) == DIGESTS[name]


def test_order_covers_every_pair_of_level_3_words():
    assert len(_commands("order")) == 64


def test_every_subcommand_is_pinned_in_text_and_json():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    pinned = {
        (argv[0], "json" in argv) for name in DIGESTS for argv in _commands(name)
    }
    want = {(cmd, as_json) for cmd in sub.choices for as_json in (False, True)}
    assert want - pinned == set()


if __name__ == "__main__":
    for key in sorted(DIGESTS):
        print("    %r: %r," % (key, _current(key)))

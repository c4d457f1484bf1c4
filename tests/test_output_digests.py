"""Command output pinned byte for byte.

Each digest is the sha256 of everything the listed `heckeb` commands print,
run in order in one process, with every exit code. The digests were recorded
before the refactors that must not change output; regenerate them only for a
deliberate change of output, with

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io

import pytest

from heckeb import cli
from heckeb.words import enumerate_level

INVARIANT_WORDS = ("g1", "g1^3", "t t1^-2 g1^-1", "t^2 g2 t1'^-1 g1", "t2^-1 g1 t")


def _loop_words():
    return [str(m) for lvl, side in ((3, "+"), (-3, "-")) for m in enumerate_level(lvl, side)]


def _commands(name):
    if name == "order":
        words = _loop_words()
        return [("order", a, b) for a in words for b in words]
    if name == "invariant":
        return [
            ("invariant", w) + fmt
            for w in INVARIANT_WORDS
            for fmt in ((), ("--format", "json"))
        ]
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
    raise KeyError(name)


def _digest(name):
    h = hashlib.sha256()
    for argv in _commands(name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        h.update(("%s\n%d\n" % (" ".join(argv), code)).encode())
        h.update(buf.getvalue().encode())
    return h.hexdigest()


DIGESTS = {
    "order": "1cc7b7cb900ac5133d0f84983f7966396cc9f2bc78b1569fa34331aa554f7fa0",
    "invariant": "515b5ade4dc387d47e10cbfe2ce0c58c75b3f7e581b4596427f37b1b4e0dbec0",
    "systems": "f61d49c8357f50836cfa1d30bf250cc591441fa4d4c1e37d5b3d4fa832d617d3",
    "experiment": "30f595449b4d1e70d16167e77559007bfcb653dd55581b2a3543996f9eafbbb7",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_recorded_digest(name):
    assert len(_commands(name)) > 0
    assert _digest(name) == DIGESTS[name]


def test_order_covers_every_pair_of_level_3_words():
    assert len(_commands("order")) == 64


if __name__ == "__main__":
    for key in ("order", "invariant", "systems", "experiment"):
        print("    %r: %r," % (key, _digest(key)))

"""Seeded inputs for the three workloads.

Everything the program receives is generated here from the workload
seed: braid words for the stream, argv lists for the cold commands, and
the job order for the lens solves. `random.Random` seeded with a string
is stable across Python processes and hash seeds.
"""

import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

STREAM_REQUESTS = 2000
STREAM_OPS = ("project_braid", "trace_of_word", "invariant_x")
LENS_PS = (2, 3, 4)
LENS_K_MAX = 4


def _rng(seed, kind, unit):
    return random.Random("%s:%s:%d" % (seed, kind, unit))


LOOP_COUNTS = (0, 0, 1, 1, 2)


def random_word(rng, n, length, loops):
    """A mixed braid word on n strands with `length` letters: `loops`
    unprimed loops ti, about 35% of the rest the axis t or primed loops
    ti', and braidings gi. Exponents are nonzero with |exp| <= 2, or <= 1
    at n = 4.

    Letter counts are fixed by the caller, not drawn per letter: loop
    letters set a word's cost, and words with three or more unprimed loops
    take seconds rather than milliseconds.
    """
    emax = 1 if n == 4 else 2
    exps = [e for e in range(-emax, emax + 1) if e]
    kinds = ["loop"] * loops + ["ploop"] * round(0.35 * (length - loops))
    kinds += ["sigma"] * (length - len(kinds))
    rng.shuffle(kinds)
    toks = []
    for kind in kinds:
        e = rng.choice(exps)
        if kind == "loop":
            base = "t%d" % rng.randint(1, n - 1)
        elif kind == "ploop":
            i = rng.randint(0, n - 1)
            base = "t" if i == 0 else "t%d'" % i
        else:
            base = "g%d" % rng.randint(1, n - 1)
        toks.append(base if e == 1 else "%s^%d" % (base, e))
    return " ".join(toks)


def stream_requests(seed, unit, count=STREAM_REQUESTS):
    """[op, n, word] requests of one stream.

    Requests cycle through every combination of operation, strand count
    (2..4), word length (3..8) and unprimed-loop count (LOOP_COUNTS) in a
    shuffled order, so every stream has the same mix and only the letters
    differ between seeds; that keeps the slowest request near 1% of a run.
    """
    rng = _rng(seed, "stream", unit)
    slots = [(op, n, length, loops) for op in STREAM_OPS for n in (2, 3, 4)
             for length in range(3, 9) for loops in LOOP_COUNTS]
    out = []
    while len(out) < count:
        rng.shuffle(slots)
        for op, n, length, loops in slots:
            out.append([op, n, random_word(rng, n, length, loops)])
    return out[:count]


def lens_jobs(seed, unit):
    """[p, k_max] jobs of one job set, in seeded order."""
    ps = list(LENS_PS)
    _rng(seed, "lens", unit).shuffle(ps)
    return [[p, LENS_K_MAX] for p in ps]


def _loop_monomial(rng, p):
    """A canonical primed loop word t^a t1'^b ...; every trace index <= p."""
    parts = []
    for i in range(rng.randint(1, 3)):
        e = rng.choice([x for x in range(-p, p + 1) if x])
        base = "t" if i == 0 else "t%d'" % i
        parts.append(base if e == 1 else "%s^%d" % (base, e))
    return " ".join(parts)


def _gap_free_positive(rng):
    """A gap-free commuting loop word of level 1..3, as bbm expects."""
    level = rng.randint(1, 3)
    parts = []
    i = 0
    while level:
        e = rng.randint(1, level)
        base = "t" if i == 0 else "t%d" % i
        parts.append(base if e == 1 else "%s^%d" % (base, e))
        level -= e
        i += 1
    return " ".join(parts)


_SUITES = (
    ["relations", "--n", "3", "--samples", "5"],
    ["markov", "--n", "3", "--samples", "5"],
    ["invariance", "--n", "3", "--samples", "5"],
    ["eq15", "--n", "2", "--k", "2"],
    ["lemma2", "--n", "2", "--k", "2"],
    ["lemma3", "--n", "2", "--k", "2"],
    ["lemma4", "--p", "2", "--k", "2"],
    ["theorem9", "--p", "2", "--k", "2"],
    ["prop2", "--p", "2", "--k", "2"],
    ["grading", "--p", "2", "--k", "2"],
    ["triangular", "--n", "3", "--k", "2"],
)


def cli_commands(seed, unit):
    """One sequence of 42 `heckeb` argv lists, fixed mix, seeded arguments.

    6 normalize, 6 trace, 6 invariant (words of 3..6 letters with at most
    one unprimed loop, so they stay interactive), 3 imap, 3 bbm, gen-system, reduce
    and mirror at (p, k_max) = (3, 2) and (2, 3), 1 experiment, and every
    verify suite once (42 commands), shuffled. The mix is fixed so that
    the slow commands are the same share of every sequence, and the
    randomized suites keep their default seed, since their cost depends on
    the words it draws. The workload seed chooses the words, the imap and
    bbm arguments, the experiment's p and the order.
    """
    rng = _rng(seed, "cli", unit)
    cmds = []
    for name in ("normalize", "trace", "invariant"):
        for _ in range(6):
            n = rng.randint(2, 4)
            word = random_word(rng, n, rng.randint(3, 6), rng.randint(0, 1))
            cmds.append([name, word, "--n", str(n)])
    for _ in range(3):
        p = rng.randint(2, 3)
        cmds.append(["imap", _loop_monomial(rng, p), "--p", str(p)])
    for _ in range(3):
        cmds.append(["bbm", _gap_free_positive(rng), "--p", str(rng.randint(2, 4)),
                     "--side", rng.choice("+-")])
    for name in ("gen-system", "reduce", "mirror"):
        for p, k_max in (("3", "2"), ("2", "3")):
            cmds.append([name, "--p", p, "--k-max", k_max])
    cmds.append(["experiment", "--p", str(rng.randint(2, 3)), "--probe", "3"])
    for suite in _SUITES:
        cmds.append(["verify", "--suite"] + suite)
    rng.shuffle(cmds)
    return [c + ["--format", "json"] for c in cmds]

"""Command line front end.

Every engine operation is reachable here: normalization, traces, the
invariant, band moves, the exponent-flip and index maps, word ordering,
enumeration, equation systems and their reduction, the mirror comparison,
the basis experiments, and the verification suites. Output is plain text
by default and JSON with --format json; both are deterministic for fixed
flags and seed.

Exit codes: 0 on success, 1 on domain errors (parse failures, map domain
violations, bad ranges, an unknown suite name), 2 when a verification
suite fails (the first counterexample is printed). The lens and verify
modules are imported by the commands that use them, so the word commands
do not load them, and `verify` loads lens only for suite theorem9.
"""

import argparse
import json
import sys

from .algebra import project_braid
from .trace import TraceDomainError, invariant_x, map_I, mono_str, trace_of_word
from .words import (
    WordError,
    bbm_image,
    compare_order,
    enumerate_level,
    f_map_word,
    loop_monomial_of_word,
    parse_word,
)


def _read_word(text, n):
    """Parse a word argument; - reads the word from stdin."""
    return parse_word(sys.stdin.read().strip() if text == "-" else text, n=n)


def _emit(args, text_fn, json_fn):
    """Print the answer in the requested format, building only that one."""
    print(json.dumps(json_fn(), sort_keys=True) if args.format == "json" else text_fn())


def _sign_of_side(side):
    if side not in ("+", "-"):
        raise WordError("side must be + or -")
    return 1 if side == "+" else -1


_TWIST = ("--p", {"type": int, "required": True, "help": "twist modulus"})

# The word commands read one word, compute one answer and print it through
# str() or to_json(); name -> (help, extra options, answer(word, args)),
# in the order `heckeb --help` lists them.
_WORD_COMMANDS = {
    "normalize": ("canonical form of a word", (), lambda w, a: project_braid(w)),
    "trace": ("trace of a word", (), lambda w, a: trace_of_word(w)),
    "invariant": ("closure invariant of a word", (), lambda w, a: invariant_x(w)),
    "bbm": (
        "band move image of a loop word",
        (_TWIST, ("--side", {"default": "+", "help": "move sign: + or -"})),
        lambda w, a: bbm_image(loop_monomial_of_word(w), _sign_of_side(a.side), a.p),
    ),
    "fmap": ("exponent-flip image of a word", (), lambda w, a: f_map_word(w)),
    "imap": (
        "index-map image of a word's trace",
        (_TWIST,),
        lambda w, a: map_I(trace_of_word(w), a.p),
    ),
}


def _word_command(args):
    _, _, answer = _WORD_COMMANDS[args.command]
    out = answer(_read_word(args.word, args.n), args)
    _emit(args, lambda: str(out), out.to_json)
    return 0


def _cmd_order(args):
    if args.left == "-" and args.right == "-":
        raise WordError("only one of the two words can be read from stdin")
    a = loop_monomial_of_word(_read_word(args.left, args.n))
    b = loop_monomial_of_word(_read_word(args.right, args.n))
    c = compare_order(a, b)
    name = {-1: "Less", 0: "Equal", 1: "Greater"}[c]
    _emit(args, lambda: name, lambda: {"order": name})
    return 0


def _cmd_enum(args):
    lvl = args.level
    if args.side == "-":
        lvl = -abs(lvl)
    elif args.side != "+":
        raise WordError("enum supports side + or -")
    elif lvl < 0:
        raise WordError("side + needs level >= 0")
    words = enumerate_level(lvl)
    _emit(
        args,
        lambda: "\n".join(str(m) for m in words) if words else "(empty)",
        lambda: [str(m) for m in words],
    )
    return 0


def _bundle_text(bundle):
    lines = ["p=%d side=%s equations=%d" % (bundle.p, bundle.side, len(bundle.equations))]
    for eq in bundle.equations:
        lines.append(
            "source=%s sign=%s level=%d"
            % (eq.source, "+" if eq.sign > 0 else "-", eq.level)
        )
        lines.append("  lhs: %s" % eq.lhs)
        lines.append("  rhs: %s" % eq.rhs)
    return "\n".join(lines)


def _cmd_gen_system(args):
    from .lens import generate_system

    bundle = generate_system(args.p, args.k_max, args.side)
    _emit(args, lambda: _bundle_text(bundle), bundle.to_json)
    return 0


def _reduced_text(r):
    lines = []
    for head, value in r.rules.items():
        lines.append("%s -> %s" % (mono_str(head), value))
    lines.append("redundant equations: %d" % r.redundant)
    if r.leftovers:
        lines.append("torsion candidates: %d" % len(r.leftovers))
        for tv in r.leftovers:
            lines.append("  %s" % tv)
    else:
        lines.append("torsion candidates: none")
    return "\n".join(lines)


def _cmd_reduce(args):
    from .lens import generate_system, reduce_system

    r = reduce_system(generate_system(args.p, args.k_max, "+"))
    _emit(args, lambda: _reduced_text(r), r.to_json)
    return 0


def _mirror_text(rep):
    lines = [
        "p=%d k_max=%d exact_below_p=%s"
        % (rep["p"], rep["k_max"], rep["exact_below_p"])
    ]
    for row in rep["entries"]:
        extra = ""
        if row.get("degenerate_axis"):
            extra = " (degenerate axis)"
        lines.append(
            "level=%d source=%s sign=%s: %s%s"
            % (row["level"], row["source"], row["sign"], row["status"], extra)
        )
    lines.append("mismatch levels: %s" % (rep["mismatch_levels"] or "none"))
    lines.append("expected mismatch levels: %s" % (rep["expected_mismatch_levels"] or "none"))
    return "\n".join(lines)


def _cmd_mirror(args):
    from .lens import compare_mirror

    rep = compare_mirror(args.p, args.k_max)
    _emit(args, lambda: _mirror_text(rep), lambda: rep)
    return 0


def _experiment_text(gen, win):
    lines = [
        "generating-set probe: p=%d probe=%d checked=%d confluent=%s"
        % (gen["p"], gen["probe_level_max"], gen["checked"], gen["confluent"])
    ]
    for mono, nf in gen["reduced"]:
        lines.append("  %s -> %s" % (mono, nf))
    if gen["undecided"]:
        lines.append("  undecided at this truncation: %s" % ", ".join(gen["undecided"]))
    if gen["torsion_candidates"]:
        lines.append("  torsion candidates: %d" % len(gen["torsion_candidates"]))
    lines.append(
        "window experiment: window=%s closed=%d/%d independent=%s"
        % (win["window"], len(win["closed"]), win["checked"], win["independent"])
    )
    for mono, nf in win["closed"]:
        lines.append("  %s -> %s" % (mono, nf))
    if win["undecided"]:
        lines.append("  undecided at this truncation: %s" % ", ".join(win["undecided"]))
    if win["window_relations"]:
        lines.append("  window relations: %s" % "; ".join(win["window_relations"]))
    return "\n".join(lines)


def _cmd_experiment(args):
    from .lens import (
        candidate_basis_experiment,
        check_generating_set,
        check_probe_level,
        generate_system,
        reduce_system,
    )

    check_probe_level(args.probe)
    k_max = args.k_max if args.k_max is not None else args.probe
    r = reduce_system(generate_system(args.p, k_max, "+"))
    gen = check_generating_set(r, args.probe)
    win = candidate_basis_experiment(r, args.probe)
    _emit(
        args,
        lambda: _experiment_text(gen, win),
        lambda: {"generating": gen, "window": win},
    )
    return 0


def _suite_text(rep):
    lines = [
        "%s: %s (checked %d)"
        % (rep["suite"], "PASS" if rep["passed"] else "FAIL", rep["checked"])
    ]
    for note in rep["notes"]:
        lines.append("  note: %s" % note)
    if not rep["passed"]:
        lines.append("  counterexample: %s" % json.dumps(rep["failures"][0], sort_keys=True))
        if rep["failure_count"] > 1:
            lines.append("  (%d failures total)" % rep["failure_count"])
    return "\n".join(lines)


def _cmd_verify(args):
    from .verify import SUITES, run_suite

    if args.suite is not None and args.suite not in SUITES:
        raise ValueError(
            "unknown suite %r; choose from %s" % (args.suite, ", ".join(SUITES))
        )
    params = {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "p": args.p,
        "k": args.k,
    }
    names = [args.suite] if args.suite else list(SUITES)
    reports = [run_suite(name, **params) for name in names]
    _emit(
        args,
        lambda: "\n".join(_suite_text(rep) for rep in reports),
        lambda: reports if args.suite is None else reports[0],
    )
    return 0 if all(rep["passed"] for rep in reports) else 2


def build_parser():
    top = argparse.ArgumentParser(
        prog="heckeb",
        description="Mixed-braid algebra, trace, invariant, and band-move systems.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    wordp = argparse.ArgumentParser(add_help=False)
    wordp.add_argument("word", help="braid word, or - to read it from stdin")
    wordp.add_argument("--n", type=int, default=None, help="strand count override")

    for name, (text, options, _) in _WORD_COMMANDS.items():
        p = sub.add_parser(name, parents=[wordp, fmt], help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=_word_command)

    p = sub.add_parser("order", parents=[fmt], help="compare two loop words")
    p.add_argument("left", help="first loop word, or -")
    p.add_argument("right", help="second loop word, or - (not both)")
    p.add_argument("--n", type=int, default=None, help="strand count override")
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("enum", parents=[fmt], help="enumerate loop words of one level")
    p.add_argument("--level", type=int, required=True, help="exponent sum (absolute value on side -)")
    p.add_argument("--side", default="+", help="+ or -")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("gen-system", parents=[fmt], help="band move equation bundle")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--side", default="+")
    p.set_defaults(fn=_cmd_gen_system)

    p = sub.add_parser("reduce", parents=[fmt], help="eliminate the positive system into rules")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("mirror", parents=[fmt], help="mirror the negative system and diff")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.set_defaults(fn=_cmd_mirror)

    p = sub.add_parser("experiment", parents=[fmt], help="generating-set and window probes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--probe", type=int, required=True, help="probe level bound")
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", parents=[fmt], help="run verification suites")
    p.add_argument("--suite", default=None, help="one suite by name (default: all)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="seed of the randomized suites")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
    except (WordError, TraceDomainError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

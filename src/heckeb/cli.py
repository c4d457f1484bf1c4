"""Command line front end.

Every engine operation is reachable here: normalization, traces, the
invariant, band moves, the exponent-flip and index maps, word ordering,
enumeration, equation systems and their reduction, the mirror comparison,
the basis experiments, and the verification suites. Output is plain text
by default and JSON with --format json; both are deterministic for fixed
flags and seed.

Exit codes: 0 on success, 1 on domain errors (parse failures, map domain
violations, bad ranges), 2 when a verification suite fails (the first
counterexample is printed).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import project_braid
from .lens import (
    candidate_basis_experiment,
    check_generating_set,
    compare_mirror,
    generate_system,
    reduce_system,
)
from .trace import TraceDomainError, invariant_x, map_I, trace_of_word
from .verify import DEFAULT_SEED, SUITES, run_suite
from .words import (
    WordError,
    bbm_image,
    compare_order,
    enumerate_level,
    f_map_word,
    loop_monomial_of_word,
    parse_word,
    word_to_json,
    word_to_text,
)


def _read_word_arg(text):
    if text == "-":
        return sys.stdin.read().strip()
    return text


def _emit(args, text_fn, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        print(text_fn())


def _cmd_normalize(args):
    el = project_braid(parse_word(_read_word_arg(args.word), n=args.n))
    _emit(args, lambda: str(el), el.to_json())
    return 0


def _cmd_trace(args):
    tv = trace_of_word(parse_word(_read_word_arg(args.word), n=args.n))
    _emit(args, lambda: str(tv), tv.to_json())
    return 0


def _cmd_invariant(args):
    x = invariant_x(parse_word(_read_word_arg(args.word), n=args.n))
    _emit(args, lambda: str(x), x.to_json())
    return 0


def _sign_of_side(side):
    if side not in ("+", "-"):
        raise WordError("side must be + or -")
    return 1 if side == "+" else -1


def _cmd_bbm(args):
    m = loop_monomial_of_word(parse_word(_read_word_arg(args.word), n=args.n))
    w = bbm_image(m, _sign_of_side(args.side), args.p)
    _emit(args, lambda: word_to_text(w), word_to_json(w))
    return 0


def _cmd_fmap(args):
    w = f_map_word(parse_word(_read_word_arg(args.word), n=args.n))
    _emit(args, lambda: word_to_text(w), word_to_json(w))
    return 0


def _cmd_imap(args):
    tv = trace_of_word(parse_word(_read_word_arg(args.word), n=args.n))
    out = map_I(tv, args.p)
    _emit(args, lambda: str(out), out.to_json())
    return 0


def _cmd_order(args):
    if args.left == "-" and args.right == "-":
        raise WordError("only one of the two words can be read from stdin")
    a = loop_monomial_of_word(parse_word(_read_word_arg(args.left), n=args.n))
    b = loop_monomial_of_word(parse_word(_read_word_arg(args.right), n=args.n))
    c = compare_order(a, b)
    name = {-1: "Less", 0: "Equal", 1: "Greater"}[c]
    _emit(args, lambda: name, {"order": name})
    return 0


def _cmd_enum(args):
    lvl = args.level
    if args.side == "-":
        lvl = -abs(lvl)
    elif args.side != "+":
        raise WordError("enum supports side + or -")
    words = enumerate_level(lvl, args.side)
    _emit(
        args,
        lambda: "\n".join(str(m) for m in words) if words else "(empty)",
        [str(m) for m in words],
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
    bundle = generate_system(args.p, args.k_max, args.side)
    _emit(args, lambda: _bundle_text(bundle), bundle.to_json())
    return 0


def _reduced_text(r):
    lines = []
    for rule in r.rules:
        j = rule.to_json()
        lines.append("%s -> %s" % (j["head"], rule.value))
    lines.append("redundant equations: %d" % r.redundant)
    if r.leftovers:
        lines.append("torsion candidates: %d" % len(r.leftovers))
        for tv in r.leftovers:
            lines.append("  %s" % tv)
    else:
        lines.append("torsion candidates: none")
    return "\n".join(lines)


def _cmd_reduce(args):
    r = reduce_system(generate_system(args.p, args.k_max, "+"))
    _emit(args, lambda: _reduced_text(r), r.to_json())
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
    rep = compare_mirror(args.p, args.k_max)
    _emit(args, lambda: _mirror_text(rep), rep)
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
    k_max = args.k_max if args.k_max is not None else args.probe
    r = reduce_system(generate_system(args.p, k_max, "+"))
    gen = check_generating_set(r, args.probe)
    win = candidate_basis_experiment(args.p, args.probe, k_max)
    _emit(
        args,
        lambda: _experiment_text(gen, win),
        {"generating": gen, "window": win},
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
    params = {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "p": args.p,
        "k": args.k,
    }
    names = [args.suite] if args.suite else list(SUITES)
    reports = [run_suite(name, **params) for name in names]
    if args.format == "json":
        print(json.dumps(reports if args.suite is None else reports[0], sort_keys=True))
    else:
        print("\n".join(_suite_text(rep) for rep in reports))
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

    p = sub.add_parser("normalize", parents=[wordp, fmt], help="canonical form of a word")
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("trace", parents=[wordp, fmt], help="trace of a word")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("invariant", parents=[wordp, fmt], help="closure invariant of a word")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("bbm", parents=[wordp, fmt], help="band move image of a loop word")
    p.add_argument("--p", type=int, required=True, help="twist modulus")
    p.add_argument("--side", default="+", help="move sign: + or -")
    p.set_defaults(fn=_cmd_bbm)

    p = sub.add_parser("fmap", parents=[wordp, fmt], help="exponent-flip image of a word")
    p.set_defaults(fn=_cmd_fmap)

    p = sub.add_parser("imap", parents=[wordp, fmt], help="index-map image of a word's trace")
    p.add_argument("--p", type=int, required=True, help="twist modulus")
    p.set_defaults(fn=_cmd_imap)

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
    p.add_argument("--suite", choices=sorted(SUITES), default=None, help="one suite (default: all)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
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

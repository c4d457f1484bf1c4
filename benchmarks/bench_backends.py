"""Compare the compiled and pure-Python polynomial backends.

Runs a fixed set of workloads in the current process and reports wall
times. With --both, re-runs itself in two subprocesses (one forcing
HECKEB_PURE=1) and prints the side-by-side ratio table; it exits
non-zero when the compiled extension is not built.

Usage:
    python benchmarks/bench_backends.py          # current backend only
    python benchmarks/bench_backends.py --both   # compiled vs pure
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time


def bench_poly_mul(reps=60):
    from heckeb import poly as P

    rng = random.Random(1)

    def rand_poly(terms):
        a = {}
        for _ in range(terms):
            a[(rng.randint(-6, 6), rng.randint(-6, 6))] = rng.randint(-9, 9) or 1
        return a

    pairs = [(rand_poly(30), rand_poly(30)) for _ in range(reps)]
    t0 = time.perf_counter()
    acc = 0
    for a, b in pairs:
        acc ^= len(P.pmul(a, b))
    return time.perf_counter() - t0, acc


def bench_poly_gcd(reps=40):
    from heckeb import poly as P

    rng = random.Random(2)

    def rand_poly(terms):
        a = {}
        for _ in range(terms):
            a[(rng.randint(0, 4), rng.randint(0, 4))] = rng.randint(-5, 5) or 1
        return a

    acc = 0
    t0 = time.perf_counter()
    for _ in range(reps):
        a, b, c = rand_poly(4), rand_poly(4), rand_poly(4)
        g = P.pgcd(P.pmul(a, c), P.pmul(b, c))
        acc ^= len(g)
    return time.perf_counter() - t0, acc


def bench_normalize(reps=6):
    from heckeb.algebra import project_braid
    from heckeb.words import parse_word

    w = parse_word("t^2 g1 t1^-1 g2 t2'^2 g1^-1 t^-1 g2^-1 t1 g1", n=3)
    t0 = time.perf_counter()
    acc = 0
    for _ in range(reps):
        acc ^= len(project_braid(w).terms)
    return time.perf_counter() - t0, acc


def bench_trace(reps=4):
    from heckeb.trace import trace_of_word
    from heckeb.words import parse_word

    w = parse_word("t^2 t1^-2 t2 g1 g2^-1 g1", n=3)
    t0 = time.perf_counter()
    acc = 0
    for _ in range(reps):
        acc ^= len(trace_of_word(w).terms)
    return time.perf_counter() - t0, acc


def bench_reduce(reps=2):
    from heckeb.lens import generate_system, reduce_system

    t0 = time.perf_counter()
    acc = 0
    for _ in range(reps):
        acc ^= len(reduce_system(generate_system(2, 3, "+")).rules)
    return time.perf_counter() - t0, acc


WORKLOADS = [
    ("poly-mul", bench_poly_mul),
    ("poly-gcd", bench_poly_gcd),
    ("normalize", bench_normalize),
    ("trace", bench_trace),
    ("reduce-p2-k3", bench_reduce),
]


def run_current():
    from heckeb import BACKEND

    out = {"backend": BACKEND, "results": {}}
    for name, fn in WORKLOADS:
        elapsed, check = fn()
        out["results"][name] = {"seconds": elapsed, "check": check}
    return out


def run_both():
    rows = {}
    for label, env_extra in (("compiled", {}), ("pure", {"HECKEB_PURE": "1"})):
        env = dict(os.environ)
        env.pop("HECKEB_PURE", None)
        env.update(env_extra)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--json"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        rows[label] = json.loads(proc.stdout)
        if label == "compiled" and rows[label]["backend"] == "python":
            raise SystemExit(
                "the compiled backend is not built (heckeb._poly_cy did not "
                "import), so there is nothing to compare the pure backend "
                "with; build it with `pip install -e . --no-build-isolation` "
                "(needs Cython and a C compiler)"
            )
    print("backend reported: compiled=%s pure=%s" % (
        rows["compiled"]["backend"], rows["pure"]["backend"]))
    print("%-14s %12s %12s %8s" % ("workload", "compiled", "pure", "ratio"))
    for name, _ in WORKLOADS:
        c = rows["compiled"]["results"][name]
        p = rows["pure"]["results"][name]
        if c["check"] != p["check"]:
            raise SystemExit("backends disagree on %s" % name)
        ratio = p["seconds"] / c["seconds"] if c["seconds"] else float("inf")
        print("%-14s %10.4fs %10.4fs %7.2fx" % (
            name, c["seconds"], p["seconds"], ratio))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--both", action="store_true", help="compare both backends")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    args = ap.parse_args()
    if args.both:
        run_both()
        return
    out = run_current()
    if args.json:
        print(json.dumps(out))
    else:
        print("backend: %s" % out["backend"])
        for name, row in out["results"].items():
            print("%-14s %10.4fs" % (name, row["seconds"]))


if __name__ == "__main__":
    main()

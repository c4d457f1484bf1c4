"""The heckeb benchmark: cold lens solves, a warm invariant query stream
and cold CLI commands.

    python3 perfbench/run.py --workload lens-solve|invariant-stream|cli-cold
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference

Runs from the root of a source checkout against `src/` (the package is
not installed). Work runs in child interpreters, one at a time. Prints
one line per metric and, last, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. --trace 0 reports the end-to-end
metrics; --trace 1 runs one unit of the workload untraced and then
traced, and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads as W
from worker import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench-out"

CHILD_LIMIT_S = 150
SETUP_SAMPLES = 11
# Percentile reported as op_tail_ms: the highest whole percentile with at
# least ten samples beyond it at the workload's minimum sample count. A
# cli-cold run has at least three 42-command sequences (10 of 126 beyond
# p92). A stream has 2000 requests; p99 (20 beyond) is kept as the
# request tail users see. A lens job set has three jobs, so its tail is
# the slowest job.
TAIL_PCT = {"lens-solve": 100, "invariant-stream": 99, "cli-cold": 92}
MIN_UNITS = {"lens-solve": 1, "invariant-stream": 1, "cli-cold": 3}
REFERENCE_UNITS = {"invariant-stream": 6, "cli-cold": 6}
ROTATION_CHECKS = 20

INFO_STUB = ("import json, os, platform, heckeb; print(json.dumps({'backend': heckeb.BACKEND,"
             " 'python': platform.python_version(), 'file': heckeb.__file__,"
             " 'nproc': os.cpu_count()}))")

UNITS = {"setup_s": "s", "unit_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}
# the names these generic metrics go by on each workload
ALIASES = {
    "lens-solve": {"unit_s": "solve_s"},
    "invariant-stream": {"op_p50_ms": "query_p50_ms", "op_tail_ms": "query_p99_ms"},
    "cli-cold": {"op_p50_ms": "cli_p50_ms", "op_tail_ms": "cli_tail_ms"},
}


class Child:
    """Result of one child process."""

    def __init__(self, code, out, err, wall_s, rss_mb, t0_mono):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.rss_mb, self.t0_mono = wall_s, rss_mb, t0_mono

    def json(self):
        return json.loads(self.out.splitlines()[-1])


def spawn(argv, stdin=b""):
    """Run argv to completion; wall time, peak RSS and captured output.

    Output goes through files in the checkout rather than pipes, so no
    buffer can fill, and the child is reaped with wait4 for its rusage.
    """
    with tempfile.TemporaryFile(dir=OUT) as fin, \
            tempfile.TemporaryFile(dir=OUT) as fout, \
            tempfile.TemporaryFile(dir=OUT) as ferr:
        fin.write(stdin)
        fin.seek(0)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        t0_mono = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                env=env, cwd=str(ROOT))
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fout.seek(0)
        ferr.seek(0)
        return Child(proc.returncode, fout.read().decode(), ferr.read().decode(),
                     wall, usage.ru_maxrss / 1024.0, t0_mono)


def spawn_cold(argv):
    """Run `heckeb argv` (or only the import, for no argv) through cold.py.

    Returns the child, its wall time in reference seconds, and the
    reference seconds from starting the interpreter to `import heckeb`
    done; both are None if the child did not report its clock."""
    child = spawn(python(str(HERE / "cold.py"), *argv))
    try:
        imported, factor, spent = map(float, child.err.splitlines()[-1].split())
    except (IndexError, ValueError):
        return child, None, None
    return child, (child.wall_s - spent) * factor, (imported - child.t0_mono - spent) * factor


def python(*args):
    return [sys.executable] + list(args)


def worker(*args):
    return python(str(HERE / "worker.py"), *args)


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100.0 * len(s)) - 1)]


def load_reference():
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {"lens": {}, "invariant-stream": [], "cli-cold": []}


class Run:
    """Accumulates one workload run: operations, failures, trace summaries."""

    def __init__(self, name, seed, reference):
        self.name, self.seed = name, seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.lat_s = []
        self.unit_s = []
        self.wall_s = []
        self.rss_mb = []
        self.summaries = []
        self.digests = []
        self.trace_n = 0

    def fail(self, what, count=1):
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(what)

    def trace_path(self):
        self.trace_n += 1
        return str(OUT / ("%s-%d.trace.json" % (self.name, self.trace_n)))

    def expect(self, unit, i, got):
        """Compare with the digest recorded for the default seed, if any."""
        if self.seed != W.DEFAULT_SEED:
            return True
        ref = self.reference.get(self.name, [])
        if unit >= len(ref):
            return True
        return ref[unit][i] == got

    def load_summary(self, path):
        with open(path) as fh:
            self.summaries.append(json.load(fh))


# -- lens-solve ---------------------------------------------------------------


def lens_unit(run, unit, traced):
    total = wall = 0.0
    for p, k in W.lens_jobs(run.seed, unit):
        args = ["lens", str(p), str(k)]
        path = run.trace_path() if traced else None
        if path:
            args += ["--trace", path]
        child = spawn(worker(*args))
        run.attempted += 1
        if child.code != 0:
            run.fail("lens p=%d: exit %d %s" % (p, child.code, child.err[-300:]))
            continue
        res = child.json()
        ref = run.reference["lens"].get("%d,%d" % (p, k))
        run.digests.append(("%d,%d" % (p, k), res["digest"]))
        if res["problems"] or (ref is not None and ref != res["digest"]):
            run.fail("lens p=%d: %s" % (p, res["problems"] or "digest differs"))
        run.lat_s.append(res["job_s"])
        run.rss_mb.append(child.rss_mb)
        total += res["job_s"]
        wall += res["wall_s"]
        if path:
            run.load_summary(path)
    return total, wall


# -- invariant-stream -------------------------------------------------------------


def stream_job(seed, unit):
    reqs = [[op, n, word, None] for op, n, word in W.stream_requests(seed, unit)]
    rng = random.Random("%s:rotate:%d" % (seed, unit))
    cand = [i for i, r in enumerate(reqs) if r[0] == "invariant_x"]
    rotations = []
    for i in sorted(rng.sample(cand, ROTATION_CHECKS)):
        toks = reqs[i][2].split()
        r = rng.randrange(1, len(toks))
        rotations.append([i, " ".join(toks[r:] + toks[:r])])
    return {"requests": reqs, "rotations": rotations}


def stream_unit(run, unit, traced):
    job = stream_job(run.seed, unit)
    args = ["stream"]
    path = run.trace_path() if traced else None
    if path:
        args += ["--trace", path]
    child = spawn(worker(*args), json.dumps(job).encode())
    run.attempted += len(job["requests"])
    if child.code != 0:
        run.fail("stream %d: exit %d %s" % (unit, child.code, child.err[-300:]),
                 len(job["requests"]))
        return 0.0, 0.0
    res = child.json()
    bad = set(map(int, res["errors"])) | set(res["rotation_failures"])
    for i, d in enumerate(res["digests"]):
        if d is not None and not run.expect(unit, i, d):
            bad.add(i)
    for i in sorted(bad):
        run.fail("stream %d request %d %s: %s" % (
            unit, i, job["requests"][i][:3], res["errors"].get(str(i), "wrong answer")))
    run.digests.append(res["digests"])
    run.lat_s.extend(res["lat_s"])
    run.rss_mb.append(child.rss_mb)
    if path:
        run.load_summary(path)
    return res["unit_s"], res["wall_s"]


# -- cli-cold -------------------------------------------------------------------


def _check_cli_output(argv, text):
    """Command-level checks that hold at every seed."""
    out = json.loads(text)
    cmd = argv[0]
    if cmd == "verify":
        return out["passed"]
    if cmd == "mirror":
        return out["exact_below_p"]
    if cmd == "reduce":
        return not out["torsion_candidates"]
    return True


WORD_COMMANDS = ("normalize", "trace", "invariant", "imap")


def _word_request(argv):
    """[op, n, word, p] for a word command's argv, as the stream worker takes."""
    opts = dict(zip(argv[2::2], argv[3::2]))
    n = int(opts["--n"]) if "--n" in opts else None
    p = int(opts["--p"]) if "--p" in opts else None
    return [argv[0], n, argv[1], p]


def cli_unit(run, unit, traced):
    cmds = W.cli_commands(run.seed, unit)
    total = wall = 0.0
    outputs = []
    for argv in cmds:
        if traced:
            path = run.trace_path()
            child = spawn(worker("cli", "--trace", path, "--", *argv))
            ref_s = child.wall_s
        else:
            child, ref_s, _ = spawn_cold(argv)
        run.attempted += 1
        ok = child.code == 0 and ref_s is not None
        ref_s = child.wall_s if ref_s is None else ref_s
        run.lat_s.append(ref_s)
        run.rss_mb.append(child.rss_mb)
        total += ref_s
        wall += child.wall_s
        outputs.append(child.out.strip())
        if traced and child.code == 0:
            run.load_summary(path)
            run.summaries[-1]["spawn_s"] = run.summaries[-1]["started"] - child.t0_mono
        if ok:
            try:
                ok = _check_cli_output(argv, outputs[-1])
            except (ValueError, KeyError):
                ok = False
        i = len(outputs) - 1
        if ok and not run.expect(unit, i, digest(outputs[-1])):
            ok = False
        if not ok:
            run.fail("cli %s: exit %d %s" % (" ".join(argv), child.code, child.err[-300:]))
    run.digests.append([digest(o) for o in outputs])
    # cross-check the word commands against a warm in-process computation
    idx = [i for i, a in enumerate(cmds) if a[0] in WORD_COMMANDS]
    job = {"requests": [_word_request(cmds[i]) for i in idx]}
    check = spawn(worker("stream"), json.dumps(job).encode())
    want = check.json()["digests"] if check.code == 0 else [None] * len(idx)
    for i, d in zip(idx, want):
        if d is None or d != digest(outputs[i]):
            run.fail("cli %s: differs from the in-process answer" % " ".join(cmds[i]))
    return total, wall


UNIT_FNS = {"lens-solve": lens_unit, "invariant-stream": stream_unit, "cli-cold": cli_unit}


# -- metrics ----------------------------------------------------------------------


def measure_setup():
    """Median reference seconds from starting an interpreter to `import
    heckeb` done."""
    spawn_cold([])  # compiles bytecode on a fresh checkout
    vals = []
    for _ in range(SETUP_SAMPLES):
        child, _, setup_s = spawn_cold([])
        if child.code != 0 or setup_s is None:
            raise SystemExit("import heckeb failed: %s" % child.err[-500:])
        vals.append(setup_s)
    return statistics.median(vals)


def end_to_end(run, setup_s):
    return {
        "setup_s": setup_s,
        "unit_s": statistics.mean(run.unit_s),
        "op_p50_ms": 1e3 * statistics.median(run.lat_s),
        "op_tail_ms": 1e3 * percentile(run.lat_s, TAIL_PCT[run.name]),
        "peak_rss_mb": statistics.median(run.rss_mb),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(run, overhead_s):
    """Sum the traced workers' summaries into the per-layer metrics."""
    calls, self_s, counters = {}, {}, {}
    hits = {"insert_loop": [0, 0], "perm_blocks": [0, 0]}
    sizes = {"swap": 0, "trace": 0}
    extra = {"import_s": 0.0, "spawn_s": 0.0}
    for s in run.summaries:
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for fn, hm in hits.items():
            hm[0] += s["caches"][fn]["hits"]
            hm[1] += s["caches"][fn]["misses"]
        sizes["swap"] = max(sizes["swap"], s["swap_cache_size"])
        sizes["trace"] = max(sizes["trace"], s["trace_cache_size"])
        for k in extra:
            extra[k] += s.get(k, 0.0)

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    m = {}
    for name in ("poly.pgcd", "poly.pdivexact", "poly.pmul", "poly.padd",
                 "scalars.rf_invmap", "scalars.delta_pow", "algebra.project_braid",
                 "algebra.rmul_axis", "trace.trace_of_word", "trace.invariant_x",
                 "trace.bbm_equation", "trace.map_I", "lens.generate_system",
                 "lens.reduce_system", "lens.back_substitution_check",
                 "lens.compare_mirror", "lens.reduce_value", "words.parse_word"):
        m[name + ".calls"] = c(name)
        m[name + ".s"] = t(name)
    m["poly.pgcd.nontrivial_frac"] = _ratio(counters.get("poly.pgcd.nontrivial", 0), c("poly.pgcd"))
    m["poly.pmul.term_products"] = counters.get("poly.pmul.term_products", 0)
    m["scalars.RatFunc.new"] = c("scalars.RatFunc.new")
    m["scalars.RatFunc.normalize_s"] = t("scalars.RatFunc._normalize")
    m["scalars.lam.calls"] = c("scalars.lam")
    m["algebra.project_braid.out_terms"] = counters.get("algebra.project_braid.out_terms", 0)
    m["algebra.rmul_sigma.calls"] = c("algebra.rmul_sigma")
    for fn, (h, miss) in hits.items():
        m["algebra.%s.hit_frac" % fn] = _ratio(h, h + miss)
    m["algebra.swap_cache.size"] = sizes["swap"]
    m["trace.cache.size"] = sizes["trace"]
    m["trace.project_per_bbm"] = _ratio(
        counters.get("algebra.project_braid.in_bbm", 0), c("trace.bbm_equation"))
    m["lens.rules"] = counters.get("lens.rules", 0)
    m["lens.redundant_frac"] = _ratio(counters.get("lens.redundant", 0),
                                      counters.get("lens.equations", 0))
    m["verify.run_suite.s"] = t("verify.run_suite")
    m["cli.main.s"] = t("cli.main")
    m["cli.import_s"] = extra["import_s"]
    m["cli.spawn_s"] = extra["spawn_s"]
    m["tracing.overhead_s"] = overhead_s
    return m


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last.endswith("_frac") or last == "project_per_bbm":
        return "ratio"
    return "count"


# -- entry point ----------------------------------------------------------------------


def execute(name, seed, seconds, trace, reference):
    run = Run(name, seed, reference)
    unit_fn = UNIT_FNS[name]
    if trace:
        _, plain = unit_fn(run, 0, False)
        run.summaries = []
        _, traced = unit_fn(run, 0, True)
        return run, per_layer(run, traced - plain)
    t_start = time.perf_counter()
    unit = 0
    while True:
        ref_s, wall_s = unit_fn(run, unit, False)
        run.unit_s.append(ref_s)
        run.wall_s.append(wall_s)
        unit += 1
        elapsed = time.perf_counter() - t_start
        if unit >= MIN_UNITS[name] and elapsed + elapsed / unit > seconds:
            break
    return run, None


def environment():
    child = spawn(python("-c", INFO_STUB))
    if child.code != 0:
        raise SystemExit("cannot import heckeb from %s: %s" % (ROOT / "src", child.err[-500:]))
    info = child.json()
    if not Path(info["file"]).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("heckeb imported from %s, not from this checkout" % info["file"])
    return info


def record_reference():
    """Record output digests at the default seed into reference.json."""
    ref = {"lens": {}, "invariant-stream": [], "cli-cold": []}
    run = Run("lens-solve", W.DEFAULT_SEED, {"lens": {}})
    lens_unit(run, 0, False)
    ref["lens"] = dict(run.digests)
    for name, units in REFERENCE_UNITS.items():
        run = Run(name, W.DEFAULT_SEED, {"lens": {}})
        for unit in range(units):
            UNIT_FNS[name](run, unit, False)
        ref[name] = run.digests
        if run.failed:
            raise SystemExit("%s failed while recording: %s" % (name, run.notes))
    REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print("wrote %s" % REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(UNIT_FNS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    # on SIGTERM, unwind through spawn(), which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "heckeb" / "__init__.py").exists():
        print("no heckeb sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    info = environment()
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    setup_s = measure_setup()
    run, layers = execute(args.workload, args.seed, args.seconds, args.trace,
                          load_reference())
    print("env backend=%s python=%s nproc=%s seed=%d workload=%s" % (
        info["backend"], info["python"], info["nproc"], args.seed, args.workload))
    if layers is None:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in end_to_end(run, setup_s).items()}
        alias = ALIASES[args.workload]
        for k, v in metrics.items():
            print("%-14s %14.6f %-3s %s" % (k, v["value"], v["unit"],
                                            "(%s)" % alias[k] if k in alias else ""))
        print("units=%d ops=%d op_tail=p%d failed_frac=%.6f wall_unit_s=%.6f" % (
            len(run.unit_s), len(run.lat_s), TAIL_PCT[args.workload],
            run.failed / max(1, run.attempted), statistics.median(run.wall_s)))
    else:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        for k, v in metrics.items():
            print("%-40s %16.6f %s" % (k, v["value"], v["unit"]))
    for note in run.notes:
        print("FAILED: %s" % note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

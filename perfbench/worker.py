"""Child process for the benchmark: one lens job, one request stream, or
one traced `heckeb` command.

    worker.py lens P K_MAX [--trace OUT]
    worker.py stream [--trace OUT]        (job JSON on stdin)
    worker.py cli --trace OUT -- ARGV...

lens and stream print one JSON result line. With --trace OUT the worker
installs the tracing wrappers before running, then writes a summary to
OUT and every span to OUT + ".spans". Import time is measured but never
part of a timed region.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from speed import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def canonical(obj):
    """The text `heckeb --format json` prints for obj."""
    return json.dumps(obj, sort_keys=True)


def _import_heckeb(module="heckeb"):
    t0 = time.perf_counter()
    importlib.import_module(module)
    return time.perf_counter() - t0


class WallClock:
    """Plain wall clock with SpeedClock's interface, used under tracing:
    a calibration tick would land inside whatever span is open."""

    now = staticmethod(time.perf_counter)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _start_tracing(path):
    if path is None:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_tracing(tracer, path, extra=None):
    if tracer is None:
        return
    out = tracer.summary()
    out.update(extra or {})
    with open(path, "w") as fh:
        json.dump(out, fh)
    tracer.dump(path + ".spans")


def run_lens(p, k_max, trace_path):
    import_s = _import_heckeb()
    tracer = _start_tracing(trace_path)
    lens = importlib.import_module("heckeb.lens")
    if tracer is not None:
        tracer.request_id = p
    with (SpeedClock() if tracer is None else WallClock()) as clock:
        w0, t0 = time.perf_counter(), clock.now()
        reduced = lens.reduce_system(lens.generate_system(p, k_max, "+"))
        bad = lens.back_substitution_check(reduced)
        mirror = lens.compare_mirror(p, k_max)
        job_s, wall_s = clock.now() - t0, time.perf_counter() - w0
    problems = []
    if bad:
        problems.append("back substitution left %d rows" % len(bad))
    if reduced.leftovers:
        problems.append("%d torsion candidates" % len(reduced.leftovers))
    if not mirror["exact_below_p"]:
        problems.append("mirror not exact below p")
    _finish_tracing(tracer, trace_path)
    return {
        "import_s": import_s,
        "job_s": job_s,
        "wall_s": wall_s,
        "problems": problems,
        "digest": digest(canonical(reduced.to_json()) + canonical(mirror)),
    }


def _handlers():
    algebra = importlib.import_module("heckeb.algebra")
    trace = importlib.import_module("heckeb.trace")
    words = importlib.import_module("heckeb.words")
    ops = {
        "project_braid": lambda w, p: algebra.project_braid(w),
        "trace_of_word": lambda w, p: trace.trace_of_word(w),
        "invariant_x": lambda w, p: trace.invariant_x(w),
        "imap": lambda w, p: trace.map_I(trace.trace_of_word(w), p),
    }
    # the CLI names of the same operations, used to check cold commands
    ops["normalize"] = ops["project_braid"]
    ops["trace"] = ops["trace_of_word"]
    ops["invariant"] = ops["invariant_x"]
    # resolved per call, so the tracing wrapper is used when installed
    return ops, lambda text, n: words.parse_word(text, n=n)


def run_stream(job, trace_path):
    """Answer job["requests"] ([op, n, word, p]) in order, one at a time.

    Each request is timed from parsing the word to the canonical JSON
    answer, in reference seconds unless traced. After the timed loop,
    job["rotations"] ([index, rotated word]) re-derives sampled invariant
    values from a cyclic rotation of the word, which presents a conjugate
    braid with the same closure.
    """
    import_s = _import_heckeb()
    tracer = _start_tracing(trace_path)
    ops, parse = _handlers()
    keep = {i for i, _ in job.get("rotations", ())}
    kept = {}
    lat = []
    digests = []
    errors = {}
    with (SpeedClock() if tracer is None else WallClock()) as clock:
        now = clock.now
        w_start, t_start = time.perf_counter(), now()
        for i, (op, n, word, p) in enumerate(job["requests"]):
            if tracer is not None:
                tracer.request_id = i
            t0 = now()
            try:
                res = ops[op](parse(word, n), p)
                text = canonical(res.to_json())
            except Exception as exc:  # a failed request is counted, not fatal
                lat.append(now() - t0)
                digests.append(None)
                errors[i] = "%s: %s" % (type(exc).__name__, exc)
                continue
            lat.append(now() - t0)
            digests.append(digest(text))
            if i in keep:
                kept[i] = res
        unit_s, wall_s = now() - t_start, time.perf_counter() - w_start
    _finish_tracing(tracer, trace_path)
    rotation_failures = []
    if tracer is not None:
        tracer.uninstall()
    for i, rotated in job.get("rotations", ()):
        if i in kept:
            _, n, _, p = job["requests"][i]
            if ops["invariant_x"](parse(rotated, n), p) != kept[i]:
                rotation_failures.append(i)
    return {
        "import_s": import_s,
        "unit_s": unit_s,
        "wall_s": wall_s,
        "lat_s": lat,
        "digests": digests,
        "errors": errors,
        "rotation_failures": rotation_failures,
    }


def run_cli(argv, trace_path):
    import_s = _import_heckeb("heckeb.cli")
    tracer = _start_tracing(trace_path)
    cli = importlib.import_module("heckeb.cli")
    code = 0
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        _finish_tracing(tracer, trace_path, {"started": STARTED, "import_s": import_s})
    return code


def main(argv):
    trace_path = None
    if "--trace" in argv:
        i = argv.index("--trace")
        trace_path = argv[i + 1]
        del argv[i:i + 2]
    mode = argv[0]
    if mode == "lens":
        out = run_lens(int(argv[1]), int(argv[2]), trace_path)
    elif mode == "stream":
        out = run_stream(json.load(sys.stdin), trace_path)
    elif mode == "cli":
        return run_cli(argv[argv.index("--") + 1:], trace_path)
    else:
        raise SystemExit("unknown mode %r" % mode)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

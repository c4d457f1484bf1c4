"""Self-test of the tracing wrappers.

    python3 -m pytest perfbench/test_tracing.py
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def _span_counts(tracer):
    counts = {}
    for nid in tracer.name_id:
        name = tracer.names[nid]
        counts[name] = counts.get(name, 0) + 1
    return counts


def test_bbm_equation_projects_each_word_twice():
    words = importlib.import_module("heckeb.words")
    trace = importlib.import_module("heckeb.trace")
    algebra = importlib.import_module("heckeb.algebra")
    tracer = Tracer()
    tracer.install()
    try:
        # the by-name binding in heckeb.trace is the wrapper too
        assert trace.project_braid is algebra.project_braid
        assert hasattr(trace.project_braid, "__wrapped__")
        trace.bbm_equation(words.LoopMonomial(((0, 1), (1, 1))), 1, 2)
    finally:
        tracer.uninstall()
    counts = _span_counts(tracer)
    assert counts["algebra.project_braid"] == 4
    assert counts["trace.trace_of_word"] == 4
    assert counts["trace.bbm_equation"] == 1
    assert tracer.counters["algebra.project_braid.in_bbm"] == 4
    # uninstall restores every by-name binding
    assert trace.project_braid is algebra.project_braid
    assert not hasattr(algebra.project_braid, "__wrapped__")


def test_self_time_excludes_children():
    trace = importlib.import_module("heckeb.trace")
    words = importlib.import_module("heckeb.words")
    tracer = Tracer()
    tracer.install()
    try:
        trace.invariant_x(words.parse_word("t^2 g1 t1'^-1 g2", n=3))
    finally:
        tracer.uninstall()
    top = tracer.names.index("trace.invariant_x")
    i = list(tracer.name_id).index(top)
    total = tracer.end[i] - tracer.start[i]
    children = sum(tracer.end[j] - tracer.start[j]
                   for j in range(len(tracer.start)) if tracer.parent[j] == i)
    assert abs(tracer.self_s["trace.invariant_x"] - (total - children)) < 1e-9
    assert 0 <= tracer.self_s["trace.invariant_x"] <= total


def _traced_counts():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "invariant-stream",
         "--seed", "3", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=str(HERE.parent),
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


def test_traced_counts_repeat_exactly():
    first = _traced_counts()
    assert first["algebra.project_braid.calls"] > 0
    assert first == _traced_counts()

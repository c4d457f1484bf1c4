"""Every package name the layer tracer in perfbench/tracing.py patches or
reads still resolves, so a rename cannot break `perfbench/run.py --trace 1`
unnoticed."""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _traced():
    # run from source, so no bytecode is written next to the benchmark
    return runpy.run_path(str(TRACING))["TRACED"]


def _module(name):
    return importlib.import_module("heckeb." + name)


def test_traced_functions_resolve():
    traced = _traced()
    assert traced
    for modname, attr, kind in traced:
        assert kind in ("span", "count"), (modname, attr)
        assert callable(getattr(_module(modname), attr)), (modname, attr)


def test_patched_methods_and_read_state_resolve():
    rf = _module("scalars").RatFunc
    assert callable(rf.__init__) and callable(rf._normalize)
    algebra = _module("algebra")
    for fn in ("insert_loop", "perm_blocks"):
        info = getattr(algebra, fn).cache_info()
        assert info.hits >= 0 and info.misses >= 0
    assert isinstance(algebra._swap_cache, dict)
    assert isinstance(_module("trace")._trace_cache, dict)


def test_layer_counts_follow_the_letter_kernels():
    # t2^-1 on 3 strands is g2^-1 g1^-1 t^-1 g1^-1 g2^-1: four braiding
    # letters and one axis letter, then g1 is the fifth braiding letter
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    algebra = _module("algebra")
    words = _module("words")
    tracer.install()
    try:
        algebra.project_braid(words.parse_word("t2^-1 g1", n=3))
        calls = dict(tracer.calls)
    finally:
        tracer.uninstall()
    assert calls["algebra.rmul_sigma"] == 5
    assert calls["algebra.rmul_axis"] == 1
    assert calls["algebra.project_braid"] == 1
    assert not hasattr(algebra.rmul_sigma, "__wrapped__")


def test_worker_calls_bind_to_package_signatures():
    # every lens.*, trace.*, words.* and algebra.* call in the benchmark's
    # worker binds, by positional count and keyword names, to the package
    # function's signature, so dropping a parameter the benchmark passes
    # fails here and not only in a benchmark run
    tree = ast.parse(WORKER.read_text())
    bound = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            continue
        if func.value.id not in ("lens", "trace", "words", "algebra"):
            continue
        fn = getattr(_module(func.value.id), func.attr)
        sig = inspect.signature(fn)
        sig.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        bound.append("%s.%s" % (func.value.id, func.attr))
    assert {"lens.generate_system", "lens.compare_mirror", "words.parse_word"} <= set(bound)

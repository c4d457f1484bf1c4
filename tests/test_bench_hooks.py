"""Every package name the layer tracer in perfbench/tracing.py patches or
reads still resolves, so a rename cannot break `perfbench/run.py --trace 1`
unnoticed."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    # run from source, so no bytecode is written next to the benchmark
    return runpy.run_path(str(TRACING))["TRACED"]


def _module(name):
    # the package rebinds heckeb.trace to the trace function
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

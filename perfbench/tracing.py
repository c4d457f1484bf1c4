"""Layer tracing for the benchmark: timing wrappers installed from outside.

The package under test is not modified. `Tracer.install()` replaces each
traced public function with a wrapper in every `heckeb` module that binds
it, because several modules import functions by name (`from .algebra
import project_braid`); patching only the defining module would miss
those callers. Modules are reached through `importlib.import_module`,
since `import heckeb.trace` yields the function `heckeb.trace` (the
package rebinds that attribute).

Every wrapped call records one span: name, start, end, parent span and
request id. Spans stay in memory (compact arrays) until `dump()` writes
them out. Self time is a span's duration minus the time its direct child
spans cover; calls nest on one thread, so children never overlap.
"""

import array
import importlib
import json
import sys
import time

# (module, attribute, kind). "span" records a timed span, "count" only
# counts calls (used for very hot or trivially cheap functions).
TRACED = (
    ("poly", "pgcd", "span"),
    ("poly", "pdivexact", "span"),
    ("poly", "pmul", "span"),
    ("poly", "padd", "span"),
    ("scalars", "rf_invmap", "span"),
    ("scalars", "lam", "count"),
    ("scalars", "delta_pow", "span"),
    ("words", "parse_word", "span"),
    ("algebra", "project_braid", "span"),
    ("algebra", "rmul_axis", "span"),
    ("algebra", "rmul_sigma", "count"),
    ("trace", "trace_of_word", "span"),
    ("trace", "invariant_x", "span"),
    ("trace", "bbm_equation", "span"),
    ("trace", "map_I", "span"),
    ("lens", "generate_system", "span"),
    ("lens", "reduce_system", "span"),
    ("lens", "back_substitution_check", "span"),
    ("lens", "compare_mirror", "span"),
    ("lens", "reduce_value", "span"),
    ("verify", "run_suite", "span"),
    ("cli", "main", "span"),
)


def _module(name):
    return importlib.import_module("heckeb." + name)


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.request_id = -1
        self._stack = []  # [span index, time covered by children]
        self._restore = []

    # -- recording -----------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return i

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, observe=None):
        """Wrap fn so each call records a span named name."""
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.request.append(self.request_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            self.end.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn so each call only increments a call count."""
        self._id(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def open_spans(self, name):
        """How many spans named name are open right now."""
        nid = self._ids.get(name)
        return sum(1 for idx, _ in self._stack if self.name_id[idx] == nid)

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        # The backend modules (heckeb._poly_py / _poly_cy) are left alone:
        # calls inside the poly layer are not layer crossings, and the
        # compiled backend could not be patched anyway.
        for modname, mod in list(sys.modules.items()):
            if modname != "heckeb" and not modname.startswith("heckeb."):
                continue
            if modname.startswith("heckeb._poly"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        """Wrap every traced function and the RatFunc constructor."""
        importlib.import_module("heckeb")
        for modname, attr, kind in TRACED:
            original = getattr(_module(modname), attr)
            name = "%s.%s" % (modname, attr)
            if kind == "span":
                wrapper = self.span(name, original, _OBSERVERS.get(name))
            else:
                wrapper = self.counter(name, original)
            self._replace_everywhere(original, wrapper)
        rf = _module("scalars").RatFunc
        for attr, wrapper in (
            ("__init__", self.counter("scalars.RatFunc.new", rf.__init__)),
            ("_normalize", self.span("scalars.RatFunc._normalize", rf._normalize)),
        ):
            self._restore.append((rf, attr, getattr(rf, attr)))
            setattr(rf, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore = []

    # -- output -----------------------------------------------------------

    def summary(self):
        """Per-name call counts and self times, counters and cache state."""
        algebra = _module("algebra")
        caches = {}
        for fn in ("insert_loop", "perm_blocks"):
            info = getattr(algebra, fn).cache_info()
            caches[fn] = {"hits": info.hits, "misses": info.misses}
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "caches": caches,
            "swap_cache_size": len(algebra._swap_cache),
            "trace_cache_size": len(_module("trace")._trace_cache),
            "spans": len(self.start),
        }

    def dump(self, path):
        """Write every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name_id", "i"], ["parent", "i"], ["request", "i"],
                       ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.name_id, self.parent, self.request, self.start, self.end):
                col.tofile(fh)


def _observe_pmul(tr, args, out):
    tr.add("poly.pmul.term_products", len(args[0]) * len(args[1]))


def _observe_pgcd(tr, args, out):
    if len(out) > 1:
        tr.add("poly.pgcd.nontrivial", 1)


def _observe_project(tr, args, out):
    tr.add("algebra.project_braid.out_terms", len(out.terms))
    if tr.open_spans("trace.bbm_equation"):
        tr.add("algebra.project_braid.in_bbm", 1)


def _observe_reduce(tr, args, out):
    tr.add("lens.rules", len(out.rules))
    tr.add("lens.redundant", out.redundant)
    tr.add("lens.equations", len(args[0].equations))


_OBSERVERS = {
    "poly.pmul": _observe_pmul,
    "poly.pgcd": _observe_pgcd,
    "algebra.project_braid": _observe_project,
    "lens.reduce_system": _observe_reduce,
}

"""The package root: importing it loads no module, each module is
reached under its own name, and every public name has a caller."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys, types
import heckeb
loaded = sorted(m for m in sys.modules if m.startswith("heckeb."))
assert not loaded, loaded
import heckeb.trace
assert isinstance(heckeb.trace, types.ModuleType), heckeb.trace
assert callable(heckeb.trace.trace)
"""


def _run_probe(code):
    """Run code in a fresh interpreter on the sources under test."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_root_import_loads_no_module():
    _run_probe(PROBE)


CLI_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from heckeb import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["normalize", "t1 g1^-1", "--format", "json"]) == 0
loaded = {"heckeb.lens", "heckeb.verify", "dataclasses", "inspect"}
loaded &= set(sys.modules) - before
assert not loaded, loaded
"""


def test_normalize_command_loads_no_lens_or_verify():
    # the commands that need lens or verify import them when they run, and
    # no command pays for dataclasses and the inspect module it imports
    _run_probe(CLI_PROBE)


VERIFY_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from heckeb import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "lemma2", "--n", "2", "--k", "2"]) == 0
assert "heckeb.lens" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "theorem9", "--p", "2", "--k", "1"]) == 0
assert "heckeb.lens" in sys.modules
loaded = {"dataclasses", "inspect"} & (set(sys.modules) - before)
assert not loaded, loaded
"""


def test_verify_loads_lens_only_for_theorem9():
    _run_probe(VERIFY_PROBE)


def test_no_module_imports_dataclasses_or_inspect():
    # both cost a cold command more import time than a module of ours
    for path in sorted((SRC / "heckeb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            bad = [n for n in names if n.split(".")[0] in ("dataclasses", "inspect")]
            assert not bad, (path.name, node.lineno, bad)


def _public_definitions(tree):
    """(qualified name, node) for each public top-level function or class
    and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item


def _referenced_names(node):
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def test_every_public_name_has_a_caller_in_src_or_perfbench():
    # a public name that only tests call is dead code with a test around it
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((SRC / "heckeb").glob("*.py"))}
    perfbench = "\n".join(
        path.read_text() for path in sorted((SRC.parent / "perfbench").glob("*.py"))
    )
    counts = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    dead = []
    for mod, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = node.name
            if counts[name] > _referenced_names(node).count(name):
                continue
            if re.search(r"\b%s\b" % re.escape(name), perfbench):
                continue
            dead.append("%s.%s" % (mod, qualname))
    assert not dead, dead

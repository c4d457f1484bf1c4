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


def _definitions(tree, private):
    """(qualified name, node) for each top-level function or class and
    each method of a top-level class, either the public ones or the
    private ones that are not dunders."""

    def wanted(name):
        if name.startswith("__") and name.endswith("__"):
            return False
        return name.startswith("_") == private

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and wanted(item.name):
                    yield "%s.%s" % (node.name, item.name), item


def _referenced_names(node):
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _source_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted((SRC / "heckeb").glob("*.py"))}


def _uncalled(trees, private):
    """The definitions that no name in src refers to outside their own body."""
    counts = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    for mod, tree in trees.items():
        for qualname, node in _definitions(tree, private):
            if counts[node.name] == _referenced_names(node).count(node.name):
                yield "%s.%s" % (mod, qualname), node.name


def _named_in_perfbench(name):
    text = "\n".join(
        path.read_text() for path in sorted((SRC.parent / "perfbench").glob("*.py"))
    )
    return re.search(r"\b%s\b" % re.escape(name), text) is not None


def test_every_public_name_has_a_caller_in_src_or_perfbench():
    # a public name that only tests call is dead code with a test around it
    dead = [
        qualname
        for qualname, name in _uncalled(_source_trees(), private=False)
        if not _named_in_perfbench(name)
    ]
    assert not dead, dead


def test_every_public_module_constant_has_a_reader_in_src_or_perfbench():
    # the guard above sees functions, classes and methods; a module-level
    # constant that nothing reads outside its assignment is dead too
    trees = _source_trees()
    counts = Counter(name for tree in trees.values() for name in _referenced_names(tree))
    dead = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name) or target.id.startswith("_"):
                    continue
                name = target.id
                unread = counts[name] == _referenced_names(node).count(name)
                if unread and not _named_in_perfbench(name):
                    dead.append("%s.%s" % (mod, name))
    assert not dead, dead


def test_every_private_name_has_a_caller_in_src():
    # a private helper that only its tests reach, such as a second copy
    # of an algorithm left behind by a refactor, is dead code
    dead = [qualname for qualname, _ in _uncalled(_source_trees(), private=True)]
    assert not dead, dead


def test_every_module_import_is_used():
    # a deletion can leave behind an import that nothing in its module names
    unused = []
    for mod, tree in _source_trees().items():
        names = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append("%s.%s" % (mod, bound))
    assert not unused, unused

"""Source hygiene: every module of the package uses what it imports and
none imports multiprocessing, every private helper is used, the package's
modules import each other without a cycle, and no CLI run that forks
imports multiprocessing."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmfg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(name, line) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


def _imported_modules(tree):
    """(top-level package, line) of each absolute import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_no_module_imports_multiprocessing():
    # cli forks its children itself (cli._Child), so that no run pays for
    # importing multiprocessing
    found = [f"{path.name} (line {line})" for path in SRC.glob("*.py")
             for name, line in _imported_modules(
                 ast.parse(path.read_text(), filename=str(path)))
             if name == "multiprocessing"]
    assert not found, f"multiprocessing imported by {found}"


def _references(tree, skip):
    """Names tree reads outside the node skip: as a name, an attribute or
    an imported name."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_helper_is_used():
    # a module-level _helper that nothing in the package reads outside its
    # own definition is left over from a deletion
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SRC.glob("*.py")}
    orphans = [
        f"{name}: {node.name}"
        for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in _references(t, node)
                    for t in trees.values())]
    assert not orphans, f"private helpers nothing uses: {orphans}"


def test_import_graph_is_acyclic():
    # a cycle works, or not, by the order the modules happen to load in;
    # from . import names the package itself
    graph = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = {node.module or "__init__"
                            for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom)
                            and node.level == 1}
    # peel off modules that import nothing left; a cycle never peels
    while leaves := [m for m, deps in graph.items() if not deps & graph.keys()]:
        for m in leaves:
            del graph[m]
    assert not graph, f"import cycle among {sorted(graph)}"


def test_reproduce_paper_imports_no_multiprocessing(tmp_path):
    # importing multiprocessing takes 20-30 ms; the CLI's import and the
    # sweep formatter's fork, two CPUs or not, must do without it
    script = f"""
import sys
sys.path.insert(0, {str(SRC.parent)!r})
import rsmfg.cli as cli
cli._usable_cpus = lambda: 2
code = cli.main(["reproduce-paper", "--config", {str(tmp_path / "c.json")!r},
                 "--out", {str(tmp_path / "out")!r}])
assert code == 0, code
print("multiprocessing" in sys.modules)
"""
    (tmp_path / "c.json").write_text('{"grid": {"steps": 50}}')
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("mode", ["nash-gap", "verify-single"])
def test_forking_modes_import_no_multiprocessing(tmp_path, mode):
    # both modes run their independent jobs in forked children; with two
    # CPUs and no size threshold they fork even on a small config
    config = {
        "nash-gap": dict(
            json.loads((SRC / "configs" / "paper_example.json").read_text()),
            grid={"steps": 20}, montecarlo={"seed": 3},
            population={"N_schedule": [2, 3], "n_reps": 4}),
        "verify-single": {
            "model": {"type": "single", "A": [[0.0]], "B": [[1.0]],
                      "sigma": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                      "Q_hat": [[0.0]], "delta": 0.5, "x0": [1.0],
                      "T": 1.0},
            "grid": {"steps": 20},
            "montecarlo": {"n_paths": 100, "seed": 3}}}[mode]
    script = f"""
import sys
sys.path.insert(0, {str(SRC.parent)!r})
import rsmfg.cli as cli
cli._usable_cpus = lambda: 2
cli.FORK_MIN_STEPS = 0
forks = []
start = cli._Child.__init__
cli._Child.__init__ = lambda self, fn: forks.append(1) or start(self, fn)
code = cli.main([{mode!r}, "--config", {str(tmp_path / "c.json")!r}])
assert code == 0, code
assert forks, "no child forked"
print("multiprocessing" in sys.modules)
"""
    (tmp_path / "c.json").write_text(json.dumps(config))
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "False"

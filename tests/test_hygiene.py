"""Source hygiene: every module of the package uses what it imports, every
private helper is used, the package's modules import each other without a
cycle, and a reproduce-paper run never imports multiprocessing."""

import ast
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

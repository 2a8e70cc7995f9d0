"""The benchmark's tracer names functions of rsmfg; they must still exist.

bench/child.py wraps the functions in TRACED by their module-qualified
names and reads the arguments of those in COUNTS by name.  A renamed
function or argument fails only in a traced benchmark run, so it is
checked here against the package as it is.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import rsmfg

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _child():
    """bench/child.py, with every module it names imported, so that the
    names resolve whichever test modules ran before."""
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in module.MODULES:
        importlib.import_module(f"rsmfg.{name}")
    return module


def _arguments_read(counter):
    """The keys a counter looks up in its `args` mapping."""
    tree = ast.parse(inspect.getsource(counter))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
            and isinstance(node.slice, ast.Constant)}


def test_traced_names_resolve():
    child = _child()
    for qualified in child.TRACED:
        module, name = qualified.split(".")
        assert module in child.MODULES, qualified
        assert callable(getattr(getattr(rsmfg, module), name, None)), \
            qualified


def test_counted_arguments_exist():
    child = _child()
    read = set()
    for qualified, counter in child.COUNTS.items():
        module, name = qualified.split(".")
        params = inspect.signature(
            getattr(getattr(rsmfg, module), name)).parameters
        keys = _arguments_read(counter)
        assert keys <= set(params), (qualified, keys - set(params))
        read |= keys
    # the source scan finds the lookups the counters make
    assert {"grid", "n_paths", "sol", "eq", "overrides", "n_reps",
            "N"} <= read

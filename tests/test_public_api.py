"""Public surface: declared exports resolve, every export is used, and the
benchmark's traced functions stay public."""
import ast
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import asianpde

MODULES = sorted(m.name for m in pkgutil.iter_modules(asianpde.__path__)
                 if m.name != "__main__")


def _public_functions(module):
    """Functions the benchmark's tracer wraps: the names in __all__ (every
    non-underscore name without one), defined in the module itself."""
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")]
    return {n for n in names
            if callable(getattr(module, n, None))
            and not isinstance(getattr(module, n), type)
            and getattr(module, n).__module__ == module.__name__}


@pytest.mark.parametrize("name", ["asianpde"] + [f"asianpde.{m}"
                                                 for m in MODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_benchmark_layers_are_public():
    bench = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    metrics = json.loads(bench.read_text())["per_layer"]
    layers = {tuple(m["name"].split(".")[:2]) for m in metrics
              if m["name"].split(".")[0] not in ("import", "trace")}
    assert layers
    missing = [f"{mod}.{fn}" for mod, fn in sorted(layers)
               if fn not in _public_functions(
                   importlib.import_module(f"asianpde.{mod}"))]
    assert missing == []


def _names_used(path):
    """Identifiers a source file reads, attributes it takes and names it
    imports; definitions, strings and comments do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_exported_callable_is_used():
    # an export that no library module and no benchmark file names is
    # reached by tests alone; fd.load_grid reads what fd-solve --out writes
    files = (sorted(Path(asianpde.__file__).parent.glob("*.py"))
             + sorted((Path(__file__).resolve().parents[1] / "bench")
                      .glob("*.py")))
    used = set().union(*map(_names_used, files))
    dead = []
    for m in MODULES:
        module = importlib.import_module(f"asianpde.{m}")
        dead += [f"{m}.{n}" for n in getattr(module, "__all__", ())
                 if callable(getattr(module, n)) and n not in used]
    assert dead == ["fd.load_grid"]

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import demerlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(demerlab.__path__))
SRC = Path(demerlab.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
UNCALLED = {  # exported names nothing in the package runs, each kept for a reason
    "emitted_circuit": "the paper's loop as a gate list; tests replay it against the exact value",
    "optimal_witness": "the paper's collapse of Merlin to a top eigenvector; tests check it",
    "rac_round": "the paper's random-access round; tests run it as `honest_round_audit`'s oracle",
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"demerlab.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def _defined(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    return {t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)}


def test_every_exported_name_is_read_by_the_package_or_named_by_the_benchmark():
    """An exported name must be read in `src/` outside its own top-level
    definition, or be named in `bench/*.py`, whose tracer patches names."""
    statements = [(p.stem, _defined(node), {n.id if isinstance(n, ast.Name) else n.attr
                                            for n in ast.walk(node)
                                            if isinstance(n, (ast.Name, ast.Attribute))})
                  for p in SRC.glob("*.py") for node in ast.parse(p.read_text()).body]
    bench = "\n".join(p.read_text() for p in BENCH.glob("*.py"))
    unused = [f"{module}.{name}" for module in MODULES
              for name in getattr(importlib.import_module(f"demerlab.{module}"), "__all__", [])
              if not any(name in reads for m, defined, reads in statements
                         if m != module or name not in defined)
              and not re.search(rf"\b{name}\b", bench) and name not in UNCALLED]
    assert unused == []

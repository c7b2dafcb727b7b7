"""Every name a module lists in ``__all__`` must exist in that module, and
every exported function must be reached from the package's own code."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pmpcheck

MODULES = ["pmpcheck"] + [f"pmpcheck.{info.name}"
                          for info in pkgutil.iter_modules(pmpcheck.__path__)]

# Exported functions that no package code calls, each for a stated reason.
ENTRY_POINTS = {
    "verify_certificate": "the certificate itself; callers start here",
    "parse_problem": "reads a problem file, the input of every certificate",
    "candidate_from_functions": "builds a candidate from closed-form callables",
    "adjoint_from_function": "wraps a user-supplied adjoint for the condition checks",
    "dynamics_residual": "deferred: becomes the A0/B0 process premise once its tolerance is fixed",
    "solve_ode": "perfbench/spans.py wraps pmp.solve_ode by name",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _loaded_names() -> set[str]:
    """Names read as a variable or an attribute anywhere in the package.

    ``def`` statements, imports and ``__all__`` strings are not loads, so
    a function only counts when some code actually refers to it.
    """
    loaded = set()
    for path in Path(pmpcheck.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_exported_function_has_a_caller():
    loaded = _loaded_names()
    unreached = set()
    for name in MODULES:
        module = importlib.import_module(name)
        unreached.update(attr for attr in module.__all__
                         if inspect.isfunction(getattr(module, attr, None))
                         and attr not in loaded and attr not in ENTRY_POINTS)
    assert not unreached, f"exported functions nothing in pmpcheck calls: {sorted(unreached)}"
    called = sorted(set(ENTRY_POINTS) & loaded)
    assert not called, f"ENTRY_POINTS lists functions that now have a caller: {called}"

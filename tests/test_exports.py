"""Every name a module lists in ``__all__`` must exist in that module,
every exported function and every public method or property of an
exported class must be reached from the package's own code, and every
defaulted parameter of an exported function must be set somewhere."""

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

# Public methods of exported classes that no package code calls, each for a
# stated reason.
UNCALLED_METHODS = {
    "CertificateReport.condition": "report accessor: one condition's record by name",
    "ConcavityReport.pairs_at": "report accessor: the sampled pairs behind one slice's verdict",
}

# Defaulted parameters that no call site sets, each for a stated reason.
_CONTRACT = "the certificate's public contract"
KEPT_DEFAULTS = {
    ("verify_certificate", "gamma"): _CONTRACT,
    ("verify_certificate", "audit"): _CONTRACT + ": reuse an audit already run",
    ("verify_certificate", "tol_adjoint"): _CONTRACT,
    ("verify_certificate", "tol_gap"): _CONTRACT,
    ("verify_certificate", "tol_decay"): _CONTRACT,
    ("verify_certificate", "t_backward"): _CONTRACT,
    ("candidate_from_functions", "label"): "names the candidate in reports",
    ("from_expression", "label"): "names the weight in reports",
    ("adjoint_from_function", "measures"): "constraint atoms of a user-supplied adjoint",
    ("adjoint_from_function", "route"): "names the source of a user-supplied adjoint",
    ("hamiltonian_sup", "lambda0"): "the abnormal case of the maximized Hamiltonian",
}

ROOT = Path(pmpcheck.__file__).resolve().parents[2]


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


def _exported_functions() -> dict:
    functions = {}
    for name in MODULES:
        module = importlib.import_module(name)
        functions.update((attr, getattr(module, attr)) for attr in module.__all__
                         if inspect.isfunction(getattr(module, attr, None)))
    return functions


def test_every_exported_function_has_a_caller():
    loaded = _loaded_names()
    unreached = sorted(name for name in _exported_functions()
                       if name not in loaded and name not in ENTRY_POINTS)
    assert not unreached, f"exported functions nothing in pmpcheck calls: {unreached}"
    called = sorted(set(ENTRY_POINTS) & loaded)
    assert not called, f"ENTRY_POINTS lists functions that now have a caller: {called}"


def test_every_public_method_has_a_caller():
    """Methods, class methods and properties count; dunder and private names do not."""
    loaded = _loaded_names()
    methods = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for cls in (getattr(module, attr) for attr in module.__all__):
            if not inspect.isclass(cls):
                continue
            for key, value in vars(cls).items():
                if not key.startswith("_") and (inspect.isfunction(value) or isinstance(
                        value, (classmethod, staticmethod, property))):
                    methods.add(f"{cls.__name__}.{key}")
    unreached = sorted(m for m in methods
                       if m.split(".")[1] not in loaded and m not in UNCALLED_METHODS)
    assert not unreached, f"public methods nothing in pmpcheck calls: {unreached}"
    stale = sorted(m for m in UNCALLED_METHODS
                   if m not in methods or m.split(".")[1] in loaded)
    assert not stale, f"UNCALLED_METHODS lists methods that are gone or now called: {stale}"


def test_every_defaulted_parameter_is_set():
    """A default that no caller overrides is a constant, not an option.

    Call sites are read from the package, its tests and the benchmark; a
    call by name sets the parameters it passes by position or keyword.
    """
    functions = _exported_functions()
    set_by_call = {name: set() for name in functions}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in functions:
                continue
            params = list(inspect.signature(functions[name]).parameters)
            set_by_call[name].update(params[:len(node.args)])
            set_by_call[name].update(k.arg for k in node.keywords)
    unset, kept_but_set = [], []
    for name, fn in functions.items():
        for param, spec in inspect.signature(fn).parameters.items():
            if spec.default is inspect.Parameter.empty:
                continue
            if (name, param) in KEPT_DEFAULTS:
                if param in set_by_call[name]:
                    kept_but_set.append(f"{name}({param})")
            elif param not in set_by_call[name]:
                unset.append(f"{name}({param})")
    assert not unset, f"defaulted parameters no call site sets: {unset}"
    assert not kept_but_set, f"KEPT_DEFAULTS lists parameters that now have a setter: {kept_but_set}"
    stale = sorted(key for key in KEPT_DEFAULTS if key[0] not in functions
                   or key[1] not in inspect.signature(functions[key[0]]).parameters)
    assert not stale, f"KEPT_DEFAULTS lists parameters that do not exist: {stale}"

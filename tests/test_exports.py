"""Every name a module lists in ``__all__`` must exist in that module,
every exported function and every public method or property of an
exported class must be reached from the package's own code, every
defaulted parameter of an exported function or class must be set by the
package or the benchmark, and every field of an exported dataclass must
be read somewhere."""

import ast
import dataclasses
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
_SOLVE_ODE = "kept with solve_ode until ROADMAP item 3 deletes it together with perfbench/spans.py"
KEPT_DEFAULTS = {
    ("verify_certificate", "mode"): _CONTRACT + ": the weak route",
    ("verify_certificate", "lambda0"): _CONTRACT + ": the abnormal case",
    ("verify_certificate", "measures"): _CONTRACT + ": constraint atoms of the multiplier",
    ("verify_certificate", "include_sufficiency"): _CONTRACT + ": skip the Arrow scan",
    ("verify_certificate", "gamma"): _CONTRACT,
    ("verify_certificate", "audit"): _CONTRACT + ": reuse an audit already run",
    ("verify_certificate", "tol_adjoint"): _CONTRACT,
    ("verify_certificate", "tol_gap"): _CONTRACT,
    ("verify_certificate", "tol_decay"): _CONTRACT,
    ("verify_certificate", "t_backward"): _CONTRACT,
    ("adjoint_from_function", "lambda0"): "the abnormal case of a user-supplied adjoint",
    ("adjoint_from_function", "measures"): "constraint atoms of a user-supplied adjoint",
    ("hamiltonian_sup", "lambda0"): "the abnormal case of the maximized Hamiltonian",
    ("solve_ode", "rtol"): _SOLVE_ODE,
    ("solve_ode", "atol"): _SOLVE_ODE,
    ("solve_ode", "blowup"): _SOLVE_ODE,
}

# Fields of exported dataclasses that no code reads, each for a stated reason.
UNREAD_FIELDS = {
    "AssumptionReport.gamma":
        "the tube radius of an audit passed in through verify_certificate(audit=...)",
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


def _exported(predicate) -> dict:
    found = {}
    for name in MODULES:
        module = importlib.import_module(name)
        found.update((attr, getattr(module, attr)) for attr in module.__all__
                     if predicate(getattr(module, attr, None)))
    return found


def _parameters(obj) -> dict:
    """Parameters of a function, or of a class's constructor; none for a
    class whose constructor is a builtin's."""
    try:
        return dict(inspect.signature(obj).parameters)
    except ValueError:
        return {}


def _trees(*dirs):
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            yield ast.parse(path.read_text(), filename=str(path))


def test_every_exported_function_has_a_caller():
    loaded = _loaded_names()
    unreached = sorted(name for name in _exported(inspect.isfunction)
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

    Exported functions and the constructors of exported classes count.
    Call sites are read from the package and the benchmark only: a test
    that sets a parameter does not make it an option.  A call by name sets
    the parameters it passes by position or keyword.
    """
    functions = {name: _parameters(fn)
                 for name, fn in _exported(lambda obj: inspect.isfunction(obj)
                                           or inspect.isclass(obj)).items()}
    set_by_call = {name: set() for name in functions}
    for tree in _trees("src", "perfbench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in functions:
                continue
            set_by_call[name].update(list(functions[name])[:len(node.args)])
            set_by_call[name].update(k.arg for k in node.keywords)
    unset, kept_but_set = [], []
    for name, params in functions.items():
        for param, spec in params.items():
            if spec.default is inspect.Parameter.empty:
                continue
            if (name, param) in KEPT_DEFAULTS:
                if param in set_by_call[name]:
                    kept_but_set.append(f"{name}({param})")
            elif param not in set_by_call[name]:
                unset.append(f"{name}({param})")
    assert not unset, f"defaulted parameters no call site sets: {unset}"
    assert not kept_but_set, f"KEPT_DEFAULTS lists parameters that now have a setter: {kept_but_set}"
    stale = sorted(key for key in KEPT_DEFAULTS if key[1] not in functions.get(key[0], {}))
    assert not stale, f"KEPT_DEFAULTS lists parameters that do not exist: {stale}"


def test_every_dataclass_field_is_read():
    """A record field that nothing reads is dead weight; tests count as readers."""
    read = {node.attr for tree in _trees("src", "tests", "perfbench")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f"{cls.__name__}.{f.name}"
              for cls in _exported(dataclasses.is_dataclass).values()
              for f in dataclasses.fields(cls)}
    unread = sorted(f for f in fields
                    if f.split(".")[1] not in read and f not in UNREAD_FIELDS)
    assert not unread, f"dataclass fields nothing reads: {unread}"
    stale = sorted(f for f in UNREAD_FIELDS if f not in fields or f.split(".")[1] in read)
    assert not stale, f"UNREAD_FIELDS lists fields that are gone or now read: {stale}"


def test_one_gauss_rule_builds_every_quadrature():
    """Only ``integrate`` lays out quadrature nodes, once; every integral
    along a grid goes through its one Gauss rule."""
    calls = sorted(path.name for path in Path(pmpcheck.__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", getattr(node.func, "id", None)) == "leggauss")
    assert calls == ["integrate.py"], f"leggauss calls by module: {calls}"


def test_one_chain_composes_every_cell_map():
    """Cell maps are composed into knots only by ``integrate._affine_chain``;
    a loop that applies ``P[k]`` knot by knot anywhere else fails here."""
    hits = sorted(f"{path.name}:{number}"
                  for path in Path(pmpcheck.__file__).parent.glob("*.py")
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if "P[k] @" in line or "@ P[k]" in line)
    assert not hits, f"cell maps composed outside _affine_chain: {hits}"

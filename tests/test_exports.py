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
    "pontryagin_H": "reproduces a residual from a record's witness",
    "pontryagin_H_u": "reproduces a weak-inequality witness",
}

# Public methods of exported classes that no package code calls, each for a
# stated reason.
UNCALLED_METHODS = {
    "CertificateReport.condition": "report accessor: one condition's record by name",
    "ConcavityReport.pairs_at": "report accessor: the sampled pairs behind one slice's verdict",
}

# Defaulted parameters that no call site sets, each for a stated reason.
_CONTRACT = "the certificate's public contract"
_SOLVE_ODE = ("kept with solve_ode, which ROADMAP item 4 deletes once item 12 drops "
              "its span from perfbench/spans.py")
KEPT_DEFAULTS = {
    ("verify_certificate", "mode"): _CONTRACT + ": the weak route",
    ("verify_certificate", "lambda0"): _CONTRACT + ": the abnormal case",
    ("verify_certificate", "measures"): _CONTRACT + ": constraint atoms of the multiplier",
    ("verify_certificate", "gamma"): _CONTRACT,
    ("adjoint_from_function", "lambda0"): "the abnormal case of a user-supplied adjoint",
    ("AdjointSolution", "measures"): ("constraint atoms of the multiplier; verify_certificate "
                                      "attaches them through dataclasses.replace"),
    ("solve_ode", "rtol"): _SOLVE_ODE,
    ("solve_ode", "atol"): _SOLVE_ODE,
    ("solve_ode", "blowup"): _SOLVE_ODE,
}

# Fields of exported dataclasses that no code reads, each for a stated reason.
UNREAD_FIELDS = {}

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


def test_verdict_thresholds_are_module_constants():
    """No check and no certificate takes a threshold, and every record
    reports one the package fixes: a ``tolerance=`` keyword names a module
    constant, or a parameter that every call site fills with one."""
    settable = sorted(f"{name}({param})" for name, fn in _exported(inspect.isfunction).items()
                      if name.startswith("check_") or name == "verify_certificate"
                      for param in _parameters(fn) if param.startswith("tol"))
    assert not settable, f"threshold parameters: {settable}"

    constants, params, calls, keywords = set(), {}, {}, []
    for path in Path(pmpcheck.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)
                      and target.id.lstrip("_").isupper()}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            params[func.name] = [arg.arg for arg in func.args.args]
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(callee, []).append(node)
                    keywords += [(f"{path.name}:{func.name}", func.name, k.value)
                                 for k in node.keywords if k.arg == "tolerance"]

    def fixed(value, owner) -> bool:
        if not isinstance(value, ast.Name):
            return False
        if value.id in constants:
            return True
        if value.id not in params.get(owner, ()):
            return False
        index = params[owner].index(value.id)
        passed = [call.args[index] if index < len(call.args) else
                  next((k.value for k in call.keywords if k.arg == value.id), None)
                  for call in calls.get(owner, [])]
        return bool(passed) and all(fixed(arg, None) for arg in passed)

    loose = sorted(site for site, owner, value in keywords if not fixed(value, owner))
    assert not loose, f"tolerance= values that are not module constants: {loose}"


def test_one_chain_composes_every_cell_map():
    """Cell maps are composed into knots only by ``integrate._affine_chain``;
    a loop that applies ``P[k]`` knot by knot anywhere else fails here."""
    hits = sorted(f"{path.name}:{number}"
                  for path in Path(pmpcheck.__file__).parent.glob("*.py")
                  for number, line in enumerate(path.read_text().splitlines(), 1)
                  if "P[k] @" in line or "@ P[k]" in line)
    assert not hits, f"cell maps composed outside _affine_chain: {hits}"


def test_one_rule_reads_a_stride_0_view():
    """A stride-0 view of one row is told by ``integrate._one_map``, which
    reads that row, and ``integrate._repeats``, which tells whether every
    row is one matrix; a test of ``strides`` anywhere else in the package
    fails here."""
    sites = []
    for path in Path(pmpcheck.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _owners(tree)
        sites += [f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and any(
                      isinstance(sub, ast.Attribute) and sub.attr == "strides"
                      for sub in ast.walk(node))]
    assert sorted(sites) == ["integrate.py:_one_map", "integrate.py:_repeats"], sites


def _owners(tree) -> dict:
    """The name of the innermost function around each node of ``tree``, by ``id``."""
    # ast.walk is breadth first, so a nested function overwrites its parent
    return {id(node): func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)}


def _call_sites(path: Path, name: str) -> list:
    """``file:function`` of each call of ``name`` in the module at ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = _owners(tree)
    return sorted(f"{path.name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == name)


def test_dp45_serves_solve_ode_only():
    """Every state solve runs on the Gauss collocation cell maps; the
    Dormand-Prince stepper is reached from ``solve_ode`` alone, which
    calls ``_integrate_cell``, which calls ``_dp_step``.  A call of either
    anywhere else in the package, or a tolerance parameter of
    ``solve_state``, fails here."""
    package = Path(pmpcheck.__file__).parent
    sites = {name: [site for path in package.glob("*.py") for site in _call_sites(path, name)]
             for name in ("_dp_step", "_integrate_cell")}
    assert sites == {"_dp_step": ["integrate.py:_integrate_cell"],
                     "_integrate_cell": ["integrate.py:solve_ode"]}, sites
    tolerances = [p for p in _parameters(pmpcheck.solve_state) if p.endswith("tol")]
    assert not tolerances, f"solve_state takes tolerances: {tolerances}"


def test_one_certificate_builds_the_adjoint_cell_maps():
    """Both adjoint routes read the maps ``verify_certificate`` builds once;
    a second call of ``_adjoint_cell_maps``, there or anywhere else in the
    package, fails here."""
    sites = [site for path in Path(pmpcheck.__file__).parent.glob("*.py")
             for site in _call_sites(path, "_adjoint_cell_maps")]
    assert sites == ["pmp.py:verify_certificate"], f"_adjoint_cell_maps calls: {sites}"


def test_one_certificate_composes_the_fundamental_system():
    """The fundamental matrix of the variational equation is the chain of
    the transposed adjoint maps, which ``verify_certificate`` composes once
    and hands to the representation route and the normality probe.  A
    chain of transposed maps anywhere else, or any chain in either reader,
    fails here."""
    package = Path(pmpcheck.__file__).parent

    def transposes(node) -> bool:
        return any(getattr(sub.func, "attr", getattr(sub.func, "id", None))
                   in ("swapaxes", "transpose") if isinstance(sub, ast.Call)
                   else isinstance(sub, ast.Attribute) and sub.attr == "T"
                   for sub in ast.walk(node))

    transposed = []
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _owners(tree)
        transposed += [f"{path.name}:{owner.get(id(node), '<module>')}"
                       for node in ast.walk(tree) if isinstance(node, ast.Call)
                       and getattr(node.func, "attr", getattr(node.func, "id", None))
                       == "_affine_chain" and node.args and transposes(node.args[0])]
    assert transposed == ["pmp.py:verify_certificate"], f"chains of transposed maps: {transposed}"
    readers = {"pmp.py:adjoint_representation", "pmp.py:check_normality"}
    chains = readers.intersection(_call_sites(package / "pmp.py", "_affine_chain"))
    assert not chains, f"readers of the fundamental system that compose it: {chains}"


def test_one_kernel_solves_the_stage_systems():
    """Every Gauss collocation stage system is solved in ``_collocate``, a
    block of cells at a time, and only ``_linear_cell_maps`` calls it; a
    call anywhere else, which could bring a second, unblocked stage solve
    with it, fails here."""
    sites = {site for path in Path(pmpcheck.__file__).parent.glob("*.py")
             for site in _call_sites(path, "_collocate")}
    assert sites == {"integrate.py:_linear_cell_maps"}, f"_collocate calls: {sites}"


def test_one_pass_checks_the_adjoint_relation():
    """Both forms of the adjoint relation read the cell integrals
    ``check_adjoint`` builds once; a second call of
    ``_adjoint_cell_integrals``, there or anywhere else in the package,
    fails here."""
    sites = [site for path in Path(pmpcheck.__file__).parent.glob("*.py")
             for site in _call_sites(path, "_adjoint_cell_integrals")]
    assert sites == ["pmp.py:check_adjoint"], f"_adjoint_cell_integrals calls: {sites}"


def test_one_search_per_sampled_tube_point():
    """The Arrow check searches the control in two places only: the sampled
    scan (``_scan``) through ``hamiltonian_sup``, one search per distinct
    tube point, and one search at the center of each proved slice
    (``check_arrow``).  A second path, such as a search shared by the
    points of a knot, fails here."""
    path = Path(pmpcheck.__file__).parent / "sufficiency.py"
    sites = {name: _call_sites(path, name) for name in ("hamiltonian_sup", "_sup_over_u")}
    assert sites == {
        "hamiltonian_sup": ["sufficiency.py:_scan"],
        "_sup_over_u": ["sufficiency.py:check_arrow", "sufficiency.py:hamiltonian_sup"],
    }, sites


def test_every_expression_node_has_an_interval_rule():
    """The interval evaluator covers the whole grammar: every node class
    and every function the parser or the derivatives can produce, so the
    grammar cannot grow without an enclosure."""
    from pmpcheck import expressions

    def leaves(cls):
        subs = cls.__subclasses__()
        return {cls} if not subs else set().union(*(leaves(sub) for sub in subs))

    nodes = {cls for cls in leaves(expressions.Expression)
             if cls.__module__ == expressions.__name__}
    missing = sorted(cls.__name__ for cls in nodes if cls not in expressions._IV_NODES)
    functions = {*expressions._UNARY_FUNCTIONS, "pow"}
    missing += sorted(fn for fn in functions if fn not in expressions._IV_FUNCTIONS)
    assert not missing, f"no interval rule for: {missing}"
    assert len(nodes) >= 9, sorted(cls.__name__ for cls in nodes)


def _definition(path: Path, name: str):
    """The class or function ``name`` defined in the module at ``path``."""
    return next(node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)


def test_one_rule_shapes_every_sample_array():
    """Candidates, adjoints and the control samples of ``solve_state`` are
    shaped by ``problem._check_samples`` alone; a record that promotes or
    checks its own samples (reads ``.ndim``) fails here."""
    package = Path(pmpcheck.__file__).parent
    sites = sorted(site for path in package.glob("*.py")
                   for site in _call_sites(path, "_check_samples"))
    assert sites == ["integrate.py:solve_state", "pmp.py:__post_init__",
                     "problem.py:__post_init__", "problem.py:__post_init__"], sites
    own = sorted(f"{module}:{name}" for module, name in (
        ("problem.py", "CandidateProcess"), ("pmp.py", "AdjointSolution"),
        ("integrate.py", "solve_state"))
        for node in ast.walk(_definition(package / module, name))
        if isinstance(node, ast.Attribute) and node.attr == "ndim")
    assert not own, f"sample shapes read outside _check_samples: {own}"


def test_arrow_scan_reads_the_pointwise_knots():
    """``check_arrow`` skips weight poles through ``pmp._finite_weight``,
    the mask of every pointwise condition; a scan that evaluates the
    weight itself fails here."""
    path = Path(pmpcheck.__file__).parent / "sufficiency.py"
    assert _call_sites(path, "_finite_weight") == ["sufficiency.py:check_arrow"]
    assert "sufficiency.py:check_arrow" not in _call_sites(path, "omega")


def test_the_maximum_condition_reports_its_own_escape():
    """``check_maximum_condition`` returns the failed record of an unbounded
    H itself; ``verify_certificate`` catches UnboundedAbove only around
    ``check_arrow``, which keeps raising.  A handler that rebuilds the
    record around the maximum condition fails here."""
    func = _definition(Path(pmpcheck.__file__).parent / "pmp.py", "verify_certificate")
    guarded = {getattr(node.func, "id", getattr(node.func, "attr", None))
               for block in ast.walk(func) if isinstance(block, ast.Try)
               and any(isinstance(name, ast.Name) and name.id == "UnboundedAbove"
                       for handler in block.handlers if handler.type is not None
                       for name in ast.walk(handler.type))
               for statement in block.body for node in ast.walk(statement)
               if isinstance(node, ast.Call)}
    assert guarded == {"check_arrow"}, f"calls guarded against UnboundedAbove: {guarded}"


def test_the_audit_evaluates_f_and_phi_in_its_tube_stages_only():
    """The audit bounds f and phi over the tube by enclosure: it calls no
    evaluator of the problem and generates none, and each of its stages
    hands its data to the one bisection engine (``settle`` for cost,
    growth and constraints, and continuity in the audit itself).  The
    data is evaluated at points only to confirm a witness: by the
    engine's ``_domain_probe`` for a domain failure, and by ``crossing``
    for a sign change.  A sampled stage, or a sampled continuity probe,
    fails here."""
    path = Path(pmpcheck.__file__).parent / "problem.py"
    func = _definition(path, "audit_assumptions")
    evaluators = {"f_value", "f_grad_x", "f_grad_u", "phi_value", "phi_jac_x", "phi_jac_u",
                  "g_value", "g_jac_x", "u_slopes"}
    called = sorted(node.func.attr for node in ast.walk(func) if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) in evaluators)
    assert not called, f"problem evaluators the audit calls: {called}"
    assert set(_call_sites(path, "_evaluator")) == {"problem.py:__post_init__"}
    assert _call_sites(path, "ev") == ["problem.py:_parse_weight", "problem.py:crossing"]
    assert _call_sites(path, "_bisect") == ["problem.py:audit_assumptions", "problem.py:settle"]
    assert _call_sites(path, "_domain_probe") == ["problem.py:settle"]


def test_one_engine_bisects_every_box():
    """``expressions._bisect`` is the package's one bisection loop over
    boxes.  Besides it, only ``_concave_slices`` encloses in a loop, one
    Hessian term per expression with no box split, and ``_enclose`` has no
    callers but the engine, the engine's judges and the Arrow scan's two
    proofs.  A second bisection loop fails here."""
    package = Path(pmpcheck.__file__).parent
    loops, callers = set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _owners(tree)
        for loop in ast.walk(tree):
            called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                      for node in ast.walk(loop) if isinstance(node, ast.Call)}
            if isinstance(loop, (ast.While, ast.For)) and called & {"_enclose", "_bisect"}:
                loops.add(f"{path.name}:{owner.get(id(loop), '<module>')}")
        callers |= set(_call_sites(path, "_enclose"))
    assert loops == {"expressions.py:_bisect", "sufficiency.py:_concave_slices"}, loops
    assert callers == {"expressions.py:_bisect", "problem.py:judge",
                       "sufficiency.py:_concave_slices", "sufficiency.py:_least_magnitude"}, callers


def test_one_tube_box_serves_the_audit_and_the_arrow_scan():
    """``problem._tube_box`` is the one tube box: defined in ``problem.py``
    alone, it builds the audit's box (through ``_tube``) and both boxes of
    the Arrow scan's proofs.  The unit-ball sampler ``_ball`` serves the
    Arrow scan's sampled midpoint pairs alone, in ``sufficiency.py``."""
    package = Path(pmpcheck.__file__).parent
    defined = {name: sorted(path.name for path in package.glob("*.py")
                            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                            if isinstance(node, ast.FunctionDef) and node.name == name)
               for name in ("_tube_box", "_ball")}
    assert defined == {"_tube_box": ["problem.py"], "_ball": ["sufficiency.py"]}, defined
    sites = sorted(site for path in package.glob("*.py")
                   for site in _call_sites(path, "_tube_box"))
    assert sites == ["problem.py:_tube", "sufficiency.py:_concave_slices",
                     "sufficiency.py:_least_magnitude"], sites


def test_one_walker_finds_the_kinks():
    """``problem._kinks`` is the one walker over ``abs`` and ``sign``
    nodes: in ``problem.py`` and ``sufficiency.py`` no other function reads
    a node's ``fn`` or compares anything with ``"sign"``."""
    found = []
    for module in ("problem.py", "sufficiency.py"):
        path = Path(pmpcheck.__file__).parent / module
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _owners(tree)
        found += [f"{module}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr == "fn")
                  or (isinstance(node, ast.Compare)
                      and any(isinstance(c, ast.Constant) and c.value == "sign"
                              for c in ast.walk(node)))]
    assert set(found) == {"problem.py:_kinks"}, found

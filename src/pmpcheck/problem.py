"""Problem descriptions, candidate processes, and standing-assumption audits.

A :class:`ControlProblem` holds the integrand, the dynamics, optional state
constraints, a control box, and the weight pair; all Jacobians are derived
symbolically at construction.  A :class:`CandidateProcess` is a sampled
trajectory/control pair (with optional closed forms for oracle work).  The
audits never solve anything: they sample a tube around the candidate and
report, with witnesses, whether the regularity and growth conditions that
the certificate machinery relies on are credible there.

Two audit modes exist.  The uniform mode uses a constant tube radius and
carries the constraint conditions; the scaled mode shrinks the tube with a
declared radius function and also perturbs the control.  Verdict keys are
``A0``..``A3`` for the former and ``B0``..``B2`` for the latter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .expressions import (DomainError, Expression, ExpressionSyntaxError, _build, _emit,
                          parse_expression)
from .integrate import _GL_NODES, _GL_WEIGHTS, InvalidGrid, _sample_at
from .weights import (
    WeightSpec,
    check_distribution,
    check_tube_scale,
    check_weight_properties,
    exp_decay,
    from_expression,
    power,
    weibull,
)

__all__ = [
    "ControlBox",
    "ControlProblem",
    "CandidateProcess",
    "AssumptionReport",
    "ActiveSet",
    "SlaterReport",
    "GradientDiagnostic",
    "ProblemSyntaxError",
    "DimensionMismatch",
    "UnknownIdentifier",
    "InfeasibleState",
    "EmptyTube",
    "parse_problem",
    "audit_assumptions",
    "active_indices",
    "slater_check",
    "check_objective_gradient",
    "candidate_from_functions",
    "dynamics_residual",
]


class ProblemSyntaxError(ValueError):
    """A problem-definition text violates the file grammar."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = int(line)
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({where})")


class DimensionMismatch(ValueError):
    """Declared dimensions disagree with the supplied data."""


class UnknownIdentifier(ValueError):
    """An expression refers to a variable the problem does not declare."""

    def __init__(self, name: str, context: str):
        self.name = name
        super().__init__(f"unknown identifier '{name}' in {context}")


class InfeasibleState(ValueError):
    """A candidate trajectory violates a state constraint outright."""

    def __init__(self, j: int, t: float, value: float):
        self.j = int(j)
        self.t = float(t)
        self.value = float(value)
        super().__init__(f"constraint g{j} is {value:.6g} > 0 at t={t:.6g}")


class EmptyTube(ValueError):
    """The sampling tube around the candidate collapsed below resolution."""

    def __init__(self, t: float, radius: float):
        self.t = float(t)
        self.radius = float(radius)
        super().__init__(
            f"tube radius {radius:.6g} at t={t:.6g} is below machine resolution"
        )


# --------------------------------------------------------------------------
# control set


@dataclass(frozen=True, eq=False)
class ControlBox:
    """A coordinate box of admissible controls; bounds may be infinite.

    ``open_lo``/``open_hi`` mark strict endpoints, so half-open intervals
    like [0, 1) are expressible.  An empty box is rejected outright: the
    problem class requires a nonempty control set.
    """

    lo: np.ndarray
    hi: np.ndarray
    open_lo: np.ndarray
    open_hi: np.ndarray
    convex: bool = True

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        olo = np.atleast_1d(np.asarray(self.open_lo, dtype=bool))
        ohi = np.atleast_1d(np.asarray(self.open_hi, dtype=bool))
        if not (lo.shape == hi.shape == olo.shape == ohi.shape):
            raise DimensionMismatch("control bound arrays must share one shape")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "open_lo", olo)
        object.__setattr__(self, "open_hi", ohi)
        empty = (lo > hi) | ((lo == hi) & (olo | ohi))
        if np.any(empty):
            k = int(np.argmax(empty))
            raise ValueError(
                f"control set is empty in coordinate {k + 1} "
                f"({'(' if olo[k] else '['}{lo[k]:g}, {hi[k]:g}{')' if ohi[k] else ']'})"
            )

    @classmethod
    def unbounded(cls, m: int) -> "ControlBox":
        inf = np.full(m, np.inf)
        strict = np.ones(m, dtype=bool)
        return cls(-inf, inf, strict, strict)

    @property
    def m(self) -> int:
        return self.lo.size

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def contains(self, u, tol: float = 0.0) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        above = np.where(self.open_lo, u > self.lo, u >= self.lo - tol)
        below = np.where(self.open_hi, u < self.hi, u <= self.hi + tol)
        return bool(np.all(above & below))

    def project(self, u) -> np.ndarray:
        """Clip into the box, staying strictly inside open endpoints."""
        u = np.atleast_1d(np.asarray(u, dtype=float)).copy()
        width = self.hi - self.lo
        lo_eff = self.lo.copy()
        mask = self.open_lo & np.isfinite(self.lo)
        if np.any(mask):
            margin = np.minimum(
                1e-9 * np.maximum(1.0, np.abs(self.lo[mask])) + 1e-12, width[mask] / 4
            )
            lo_eff[mask] = self.lo[mask] + margin
        hi_eff = self.hi.copy()
        mask = self.open_hi & np.isfinite(self.hi)
        if np.any(mask):
            margin = np.minimum(
                1e-9 * np.maximum(1.0, np.abs(self.hi[mask])) + 1e-12, width[mask] / 4
            )
            hi_eff[mask] = self.hi[mask] - margin
        return np.clip(u, lo_eff, hi_eff)

    def corners(self) -> np.ndarray:
        """All 2^m vertices; only defined for a fully bounded box."""
        if not self.bounded:
            raise ValueError("corners are defined only for bounded control boxes")
        grids = np.meshgrid(*[(self.lo[i], self.hi[i]) for i in range(self.m)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


# --------------------------------------------------------------------------
# the problem record


def _check_variables(exprs, allowed: set[str], context: str) -> None:
    for e in exprs:
        extra = e.variables() - allowed
        if extra:
            raise UnknownIdentifier(sorted(extra)[0], context)


def _evaluator(exprs, shape: tuple, n: int, m: int) -> Callable:
    """Generate one function ``(t, x[, u])`` evaluating ``exprs`` in turn.

    ``exprs`` fill an array of shape ``t.shape + shape`` in C order, so
    constant components broadcast over the times; with ``shape == ()`` the
    single expression's value is returned, broadcast to ``t.shape``.  The
    control argument exists only when ``m > 0``.  A domain failure raises
    :class:`DomainError` whose witness reads ``t``, ``x1..xn`` and
    ``u1..um`` at the first offending point.
    """
    names: list[str] = []
    if shape == ():
        body, results = _emit(exprs, names)
    else:  # components that are exactly 0.0 keep the zeros they start with
        kept = [(k, e) for k, e in enumerate(exprs) if str(e) != "0.0"]
        stores = [f"out[..., {', '.join(map(str, np.unravel_index(k, shape)))}] = {{}}"
                  for k, _ in kept]
        body, _ = _emit([e for _, e in kept], names, stores)
    columns = {"t": "t", **{f"x{i + 1}": f"x[..., {i}]" for i in range(n)},
               **{f"u{i + 1}": f"u[..., {i}]" for i in range(m)}}
    lines = [f"def evaluator(t, x{', u' if m else ''}):",
             "    t = _np.asarray(t, dtype=float)",
             "    x = _np.asarray(x, dtype=float)"]
    if m:
        lines.append("    u = _np.asarray(u, dtype=float)")
    # [()] turns a 0-d column into a numpy scalar, whose arithmetic is cheap
    lines += [f"    v_{name} = {columns[name]}[()]" for name in names]
    if shape != ():
        lines.append(f"    out = _np.zeros(t.shape + {shape!r})")
    if body:
        env = ", ".join(f"{name!r}: {column}" for name, column in columns.items())
        lines += ["    try:", *(f"        {s}" for s in body),
                  "    except _OutOfDomain as err:",
                  f"        raise err.at({{{env}}}) from None"]
    if shape == ():
        lines += [f"    value = _np.asarray({results[0]}, dtype=float)",
                  "    if value.shape == t.shape:",
                  "        return value",
                  "    return _np.broadcast_to(value, t.shape)"]
    else:
        lines.append("    return out")
    return _build(lines, "evaluator")


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """An infinite-horizon control problem in minimization form.

    ``f`` is the running cost without the weight factor; ``phi`` drives the
    state; ``g`` are pointwise state constraints (``g_j <= 0``).  All
    first-order partials, and the control Hessian ``f_uu`` of the
    integrand, are derived symbolically here; the former are exposed through
    the ``*_grad_*`` / ``*_jac_*`` evaluators, which accept scalars or
    arrays of times with matching state/control batches.  Each evaluator
    is one generated function that writes all its components into one
    array (see :func:`_evaluator`).

    Maximization problems must be negated before construction; the parser
    does this and sets ``negated`` so reports can say so.
    """

    n: int
    m: int
    f: Expression
    phi: tuple
    x0: np.ndarray
    omega: WeightSpec
    nu: WeightSpec
    U: ControlBox | None = None
    p_exp: float = 2.0
    g: tuple = ()
    eta: WeightSpec | None = None
    sense: str = "min"
    negated: bool = False
    label: str = ""
    f_x: tuple = field(init=False, repr=False)
    f_u: tuple = field(init=False, repr=False)
    f_uu: tuple = field(init=False, repr=False)
    phi_x: tuple = field(init=False, repr=False)
    phi_u: tuple = field(init=False, repr=False)
    g_x: tuple = field(init=False, repr=False)
    _evaluators: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch("need n >= 1 states and m >= 1 controls")
        if self.sense != "min":
            raise ValueError("problems are stored in min convention; negate f first")
        phi = tuple(self.phi)
        if len(phi) != self.n:
            raise DimensionMismatch(f"dynamics has {len(phi)} components, n={self.n}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.n,):
            raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({self.n},)")
        U = self.U if self.U is not None else ControlBox.unbounded(self.m)
        if U.m != self.m:
            raise DimensionMismatch(f"control box has {U.m} coordinates, m={self.m}")
        g = tuple(self.g)

        states = [f"x{i + 1}" for i in range(self.n)]
        controls = [f"u{i + 1}" for i in range(self.m)]
        allowed = {"t", *states, *controls}
        _check_variables([self.f], allowed, "objective integrand")
        _check_variables(phi, allowed, "dynamics")
        _check_variables(g, {"t", *states}, "state constraints")

        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f_x", tuple(self.f.diff(s) for s in states))
        object.__setattr__(self, "f_u", tuple(self.f.diff(c) for c in controls))
        object.__setattr__(
            self, "f_uu", tuple(tuple(fu.diff(c) for c in controls) for fu in self.f_u)
        )
        object.__setattr__(
            self, "phi_x", tuple(tuple(p.diff(s) for s in states) for p in phi)
        )
        object.__setattr__(
            self, "phi_u", tuple(tuple(p.diff(c) for c in controls) for p in phi)
        )
        object.__setattr__(
            self, "g_x", tuple(tuple(gj.diff(s) for s in states) for gj in g)
        )
        n, m, l = self.n, self.m, len(g)
        flat = lambda rows: [e for row in rows for e in row]
        object.__setattr__(self, "_evaluators", {
            "f_value": _evaluator([self.f], (), n, m),
            "f_grad_x": _evaluator(self.f_x, (n,), n, m),
            "f_grad_u": _evaluator(self.f_u, (m,), n, m),
            "phi_value": _evaluator(phi, (n,), n, m),
            "phi_jac_x": _evaluator(flat(self.phi_x), (n, n), n, m),
            "phi_jac_u": _evaluator(flat(self.phi_u), (n, m), n, m),
            "g_value": _evaluator(g, (l,), n, 0),
            "g_jac_x": _evaluator(flat(self.g_x), (l, n), n, 0),
        })

    @property
    def l(self) -> int:
        return len(self.g)

    def f_value(self, t, x, u):
        return self._evaluators["f_value"](t, x, u)

    def f_grad_x(self, t, x, u) -> np.ndarray:
        return self._evaluators["f_grad_x"](t, x, u)

    def f_grad_u(self, t, x, u) -> np.ndarray:
        return self._evaluators["f_grad_u"](t, x, u)

    def phi_value(self, t, x, u) -> np.ndarray:
        return self._evaluators["phi_value"](t, x, u)

    def phi_jac_x(self, t, x, u) -> np.ndarray:
        return self._evaluators["phi_jac_x"](t, x, u)

    def phi_jac_u(self, t, x, u) -> np.ndarray:
        return self._evaluators["phi_jac_u"](t, x, u)

    def g_value(self, t, x) -> np.ndarray:
        return self._evaluators["g_value"](t, x)

    def g_jac_x(self, t, x) -> np.ndarray:
        return self._evaluators["g_jac_x"](t, x)


# --------------------------------------------------------------------------
# candidate processes


@dataclass(frozen=True, eq=False)
class CandidateProcess:
    """A sampled trajectory/control pair on a fixed time grid.

    ``x`` interpolates linearly between knots and ``u`` is piecewise
    constant and left-continuous (the sample at a cell's right knot owns
    the cell).  When closed forms are attached they take precedence in
    :meth:`state` / :meth:`control`, so oracle candidates are evaluated
    exactly rather than through interpolation.
    """

    grid: np.ndarray
    x: np.ndarray
    u: np.ndarray
    closed_x: Callable | None = None
    closed_u: Callable | None = None
    label: str = ""

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise InvalidGrid("candidate grid must be strictly increasing")
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        u = np.asarray(self.u, dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        if x.shape[0] != grid.size or u.shape[0] != grid.size:
            raise DimensionMismatch(
                f"grid has {grid.size} knots but x has {x.shape[0]} rows "
                f"and u has {u.shape[0]}"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def _shape_rows(self, out, t_arr, width: int) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        if out.shape == t_arr.shape and width == 1:
            return out[..., None]
        return out

    def state(self, t) -> np.ndarray:
        """State at arbitrary times; clamps beyond the grid ends."""
        t_arr = np.asarray(t, dtype=float)
        if self.closed_x is not None:
            return self._shape_rows(self.closed_x(t_arr), t_arr, self.n)
        cols = [np.interp(t_arr, self.grid, self.x[:, i]) for i in range(self.n)]
        return np.stack(cols, axis=-1)

    def control(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        if self.closed_u is not None:
            return self._shape_rows(self.closed_u(t_arr), t_arr, self.m)
        return _sample_at(self.grid, self.u, t_arr)


def candidate_from_functions(grid, x_fn: Callable, u_fn: Callable,
                             label: str = "") -> CandidateProcess:
    """Sample closed-form state/control functions into a CandidateProcess.

    Both callables must accept numpy arrays of times; the closed forms are
    kept on the record so later evaluation bypasses interpolation.
    """
    grid = np.asarray(grid, dtype=float)
    x = np.asarray(x_fn(grid), dtype=float)
    u = np.asarray(u_fn(grid), dtype=float)
    return CandidateProcess(grid=grid, x=x, u=u, closed_x=x_fn, closed_u=u_fn,
                            label=label)


def dynamics_residual(prob: ControlProblem, cand: CandidateProcess) -> np.ndarray:
    """Per-cell norms of x(t_{k+1}) - x(t_k) - integral of the dynamics.

    The integral uses the 7-point Gauss rule on each cell with the
    candidate's own state/control evaluation, so closed-form candidates
    are checked at full accuracy while sampled ones see interpolation
    error as part of the residual.
    """
    grid = cand.grid
    lo, hi = grid[:-1], grid[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    vals = prob.phi_value(ts, cand.state(ts), cand.control(ts))
    vals = vals.reshape(lo.size, _GL_NODES.size, prob.n)
    cell = np.einsum("kqn,q->kn", vals, _GL_WEIGHTS) * half[:, None]
    res = cand.x[1:] - cand.x[:-1] - cell
    return np.linalg.norm(res, axis=1)


# --------------------------------------------------------------------------
# tube sampling


def _quasi_uniform(dim: int, count: int, offset: int) -> np.ndarray:
    """Deterministic low-discrepancy points in [0,1]^dim.

    Additive recurrence driven by the generalized golden ratio; ``offset``
    shifts the sequence so different grid times see different points while
    staying reproducible.
    """
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    alpha = (1.0 / x) ** np.arange(1, dim + 1)
    idx = np.arange(offset, offset + count, dtype=float)
    return np.mod(0.5 + idx[:, None] * alpha[None, :], 1.0)


def _ball_offsets(dim: int, count: int, offset: int) -> np.ndarray:
    """Low-discrepancy offsets inside the unit ball (first row is zero)."""
    pts = 2.0 * _quasi_uniform(dim, count - 1, offset) - 1.0
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / np.maximum(1.0, norms)
    return np.concatenate([np.zeros((1, dim)), pts], axis=0)


# --------------------------------------------------------------------------
# assumption audit


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts, constants, and the sampled majorant for one audit run.

    Every ``fail`` verdict carries a witness ``(t, x, u)`` (``u`` is None
    when the control played no role).  ``L_values`` is the empirical
    per-time majorant of the cost data over the tube, and ``L_partials``
    the decade partials of its weighted integral, so a divergence is
    visible rather than asserted.
    """

    mode: str
    gamma: float
    verdicts: dict
    witnesses: dict
    C0: float
    K_estimate: float | None
    L_grid: np.ndarray
    L_values: np.ndarray
    L_partials: tuple
    L_verdict: str
    weight_reports: dict
    notes: tuple

    _OK = ("pass", "no counterexample", "assumed", "vacuous")

    @property
    def all_ok(self) -> bool:
        return all(v in self._OK for v in self.verdicts.values())


def _window_growth(grid: np.ndarray, vals: np.ndarray, slack: float = 1.05):
    """Fit max(vals) and flag growth persisting into the last decade."""
    t_max = grid[-1]
    cuts = (t_max / 100.0, t_max / 10.0)
    w1 = float(np.max(vals[grid <= cuts[0]], initial=0.0))
    w2 = float(np.max(vals[(grid > cuts[0]) & (grid <= cuts[1])], initial=0.0))
    w3 = float(np.max(vals[grid > cuts[1]], initial=0.0))
    growing = w3 > slack * max(w1, w2, 1e-300) and w3 > 1e-12
    return max(w1, w2, w3), growing


def _decade_partials(grid: np.ndarray, integrand: np.ndarray) -> tuple:
    cells = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid)
    partial = np.concatenate([[0.0], np.cumsum(cells)])
    t_max = grid[-1]
    marks = np.searchsorted(grid, [t_max / 100.0, t_max / 10.0])
    return (float(partial[marks[0]]), float(partial[marks[1]]), float(partial[-1]))


def _tail_settles(grid, core_vals, tail_bound, budget: float) -> bool:
    """Whether a declared distribution tail caps the integral beyond the grid.

    Valid only when ``core_vals`` (the unweighted factor) is not still
    rising at the horizon; then its recent sup times the tail mass bounds
    the remaining contribution.
    """
    if tail_bound is None:
        return False
    _, rising = _window_growth(grid, core_vals)
    if rising:
        return False
    w_sup = float(np.max(core_vals))
    return w_sup * float(tail_bound(grid[-1])) <= budget


def _majorant_verdict(grid, omega, L_vals, growth_tol: float = 0.01):
    """Weighted-integral verdict for the sampled majorant.

    Divergence means the partial integral is still growing by more than
    ``growth_tol`` relatively over the last decade, or the majorant hit
    a point where the data left its domain (inf samples).  Growth at the
    horizon is forgiven when the distribution declares a tail bound and
    the majorant itself has stopped rising: the remaining mass is then
    provably inside the growth budget.
    """
    if not np.all(np.isfinite(L_vals)):
        k = int(np.argmax(~np.isfinite(L_vals)))
        return "divergent", (np.inf, np.inf, np.inf), k
    omega_vals = np.abs(np.asarray(omega(grid), dtype=float))
    p1, p2, p3 = _decade_partials(grid, omega_vals * L_vals)
    growing = (abs(p3) - abs(p2)) > growth_tol * max(abs(p3), 1e-300)
    if growing and _tail_settles(grid, L_vals, omega.tail_bound,
                                 growth_tol * max(abs(p3), 1e-300)):
        growing = False
    if growing:
        return "divergent", (p1, p2, p3), int(np.argmax(L_vals))
    return "finite", (p1, p2, p3), -1


def _eval_rows(fn, nt: int, ns: int):
    """Run a bulk tube evaluation with a per-time fallback on domain errors.

    ``fn(sl)`` evaluates a slice of flattened sample indices to per-sample
    norms.  Returns the (nt, ns) value matrix (inf rows where the data
    left its domain) and the first offending point, if any.
    """
    full = slice(0, nt * ns)
    try:
        return fn(full).reshape(nt, ns), None
    except DomainError as err:
        witness = err.point
    out = np.empty((nt, ns))
    for k in range(nt):
        sl = slice(k * ns, (k + 1) * ns)
        try:
            out[k] = fn(sl)
        except DomainError:
            out[k] = np.inf
    return out, witness


def audit_assumptions(
    prob: ControlProblem,
    cand: CandidateProcess,
    gamma: float,
    mode: str = "strong",
    samples: int = 32,
    tol: float = 1e-8,
) -> AssumptionReport:
    """Probe the standing assumptions on a tube around the candidate.

    ``gamma`` scales the tube: a constant radius in strong mode, a radius
    ``gamma * eta(t)`` (state and control alike) in weak mode.  Per grid
    time, ``samples`` quasi-random tube points feed the empirical
    majorant, the growth-constant fits, and the continuity probe.  The
    audit is deterministic.

    Raises
    ------
    EmptyTube
        when the tube radius falls below machine resolution relative to
        the candidate's scale before a quarter of the horizon, so not
        even a meaningful prefix could be sampled.  A later collapse
        truncates the audited range instead and leaves a note.

    Notes
    -----
    The audit samples points; it cannot see between them.  Data whose
    invalid region raises (logs, roots, genuine division by zero) is
    caught reliably, but an integrable spike or a sign-flipping pole
    strictly between sample points can escape notice.  Model domain
    edges with forms that raise rather than overflow.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be strong or weak, got {mode!r}")
    weak = mode == "weak"
    if weak and prob.eta is None:
        raise ValueError("weak mode needs the problem to declare a tube radius eta")
    if samples < 2:
        raise ValueError("need at least 2 tube samples per time")

    grid = cand.grid
    nt = grid.size
    x_star = cand.x
    u_star = cand.u
    verdicts: dict[str, str] = {}
    witnesses: dict[str, tuple] = {}
    notes: list[str] = []
    names = {
        "base": "B0" if weak else "A0",
        "cont": "B1" if weak else "A1",
        "growth": "B2" if weak else "A2",
    }

    # tube radii, and the collapse guard
    if weak:
        radii = gamma * np.asarray(prob.eta(grid), dtype=float)
    else:
        radii = np.full(nt, float(gamma))
    floor = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.linalg.norm(x_star, axis=1))
    collapsed = radii < np.maximum(floor, 1e-300)
    if np.any(collapsed):
        # a shrinking tube eventually drops below float resolution around
        # the candidate; beyond that point sampling is meaningless, so the
        # audit covers the resolvable prefix and says so.  A prefix shorter
        # than a quarter of the horizon cannot support the window fits,
        # and such a tube is treated as empty outright.
        k = int(np.argmax(collapsed))
        if k < 16 or grid[k] < 0.25 * grid[-1]:
            raise EmptyTube(grid[k], radii[k])
        notes.append(
            f"tube radius below machine resolution from t={grid[k]:.6g}; "
            f"assumptions audited on [{grid[0]:g}, {grid[k - 1]:.6g}]")
        grid, x_star, u_star = grid[:k], x_star[:k], u_star[:k]
        radii, nt = radii[:k], k

    # ---- base verdict: weights qualify, candidate is basically admissible
    nu_report = check_weight_properties(prob.nu, mode=mode)
    omega_report = check_distribution(prob.omega, mode=mode)
    base_ok = nu_report.all_pass and all(
        v == "pass" for v in omega_report.verdicts.values()
    )
    pair_ok = 1.0 < prob.p_exp < np.inf
    if not pair_ok:
        notes.append(f"{names['base']}: space exponent p={prob.p_exp:g} has no conjugate in (1, inf)")
    if weak:
        eta_report = check_tube_scale(prob.eta)
        base_ok = base_ok and eta_report.verdicts.get("F6") == "pass"
    reports = {"nu": nu_report, "omega": omega_report}
    if weak:
        reports["eta"] = eta_report

    x0_gap = float(np.linalg.norm(x_star[0] - prob.x0))
    feasible_u = all(prob.U.contains(u_star[k], tol=tol) for k in range(nt))
    if x0_gap > tol:
        base_ok = False
        witnesses[names["base"]] = (float(grid[0]), tuple(x_star[0]), None)
        notes.append(f"{names['base']}: initial state misses x0 by {x0_gap:.3g}")
    if not feasible_u:
        bad = next(k for k in range(nt) if not prob.U.contains(u_star[k], tol=tol))
        base_ok = False
        witnesses[names["base"]] = (float(grid[bad]), tuple(x_star[bad]), tuple(u_star[bad]))
        notes.append(f"{names['base']}: control leaves the admissible box at t={grid[bad]:.4g}")
    if not (base_ok and pair_ok):
        for label, rep in reports.items():
            for prop, verdict in rep.verdicts.items():
                if verdict != "pass":
                    notes.append(f"{names['base']}: {label} property {prop} is {verdict}")
                    if prop in rep.witnesses and names["base"] not in witnesses:
                        t_w, v_w = rep.witnesses[prop]
                        witnesses[names["base"]] = (float(t_w), None, None)
    verdicts[names["base"]] = "pass" if (base_ok and pair_ok) else "fail"

    # ---- tube sample points (first offset per time is the candidate itself)
    dim = prob.n + prob.m if weak else prob.n
    T = np.repeat(grid, samples)
    X = np.empty((nt * samples, prob.n))
    Uarr = np.empty((nt * samples, prob.m))
    for k in range(nt):
        offs = _ball_offsets(dim, samples, offset=k * samples)
        rows = slice(k * samples, (k + 1) * samples)
        X[rows] = x_star[k] + radii[k] * offs[:, : prob.n]
        if weak:
            u_pts = u_star[k] + radii[k] * offs[:, prob.n:]
            Uarr[rows] = np.stack([prob.U.project(up) for up in u_pts])
        else:
            Uarr[rows] = u_star[k]

    # ---- majorant over the tube and its weighted integral
    def cost_norms(sl: slice) -> np.ndarray:
        fv = prob.f_value(T[sl], X[sl], Uarr[sl])
        gx = prob.f_grad_x(T[sl], X[sl], Uarr[sl])
        total = fv**2 + np.sum(gx**2, axis=-1)
        if weak:
            gu = prob.f_grad_u(T[sl], X[sl], Uarr[sl])
            total = total + np.sum(gu**2, axis=-1)
        return np.sqrt(total)

    L_matrix, cost_witness = _eval_rows(cost_norms, nt, samples)
    L_values = np.max(L_matrix, axis=1)
    L_verdict, L_partials, bad_idx = _majorant_verdict(grid, prob.omega, L_values)

    # ---- dynamics growth constants over the tube
    def growth_norms(sl: slice) -> np.ndarray:
        pv = prob.phi_value(T[sl], X[sl], Uarr[sl])
        jx = prob.phi_jac_x(T[sl], X[sl], Uarr[sl])
        scale = 1.0 + np.linalg.norm(X[sl], axis=-1)
        jac_sq = np.sum(jx**2, axis=(-2, -1))
        if weak:
            scale = scale + np.linalg.norm(Uarr[sl], axis=-1)
            ju = prob.phi_jac_u(T[sl], X[sl], Uarr[sl])
            jac_sq = jac_sq + np.sum(ju**2, axis=(-2, -1))
        ratio = np.linalg.norm(pv, axis=-1) / scale
        return np.maximum(ratio, np.sqrt(jac_sq))

    C_matrix, growth_witness = _eval_rows(growth_norms, nt, samples)
    C_values = np.max(C_matrix, axis=1)
    if np.all(np.isfinite(C_values)):
        C0, c_growing = _window_growth(grid, C_values)
    else:
        C0, c_growing = float("inf"), True

    growth_ok = L_verdict == "finite" and not c_growing
    if L_verdict != "finite":
        notes.append(
            f"{names['growth']}: weighted majorant integral divergent "
            f"(partials {L_partials[0]:.4g}, {L_partials[1]:.4g}, {L_partials[2]:.4g})"
        )
        if cost_witness is not None:
            witnesses[names["growth"]] = (
                cost_witness.get("t", float("nan")),
                tuple(v for k, v in sorted(cost_witness.items()) if k.startswith("x")),
                tuple(v for k, v in sorted(cost_witness.items()) if k.startswith("u")) or None,
            )
            notes.append(f"{names['growth']}: cost data left its domain inside the tube")
        elif bad_idx >= 0:
            k = bad_idx
            witnesses[names["growth"]] = (float(grid[k]), tuple(x_star[k]), tuple(u_star[k]))
    if c_growing:
        k = int(np.argmax(C_values if np.all(np.isfinite(C_values))
                          else ~np.isfinite(C_values)))
        witnesses.setdefault(
            names["growth"], (float(grid[k]), tuple(x_star[k]), tuple(u_star[k]))
        )
        notes.append(f"{names['growth']}: dynamics growth constant still rising at the horizon")
        if growth_witness is not None:
            notes.append(f"{names['growth']}: dynamics left its domain inside the tube")
    verdicts[names["growth"]] = "pass" if growth_ok else "fail"

    # ---- continuity probe in (x, u): secant deviations under shrinking steps.
    # A jump keeps the deviation pinned at the gap size as the step shrinks
    # (ratios near 1); anything continuous decays at the small-step end.
    # Only the last two ratios are tested, and against 0.9 rather than 1,
    # because a smooth integrand can put one sample near a cancellation root
    # (|s^2 - 2sx| vanishes at s = 2x): one ratio can then spike, but a
    # single quadratic root cannot hold two consecutive ratios above 0.9.
    probe_idx = np.unique(np.linspace(0, nt - 1, min(64, nt)).astype(int))
    jump_witness = None
    for k in probe_idx:
        direction = _ball_offsets(dim, 2, offset=7919 + k)[1]
        direction = direction / max(np.linalg.norm(direction), 1e-12)
        deltas = []
        try:
            base_x = x_star[k]
            base_u = u_star[k]
            f0 = prob.f_value(grid[k], base_x, base_u)
            p0 = prob.phi_value(grid[k], base_x, base_u)
            for frac in (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125):
                step = frac * radii[k]
                xx = base_x + step * direction[: prob.n]
                uu = base_u + step * direction[prob.n:] if weak else base_u
                if weak:
                    uu = prob.U.project(uu)
                df = abs(prob.f_value(grid[k], xx, uu) - f0)
                dp = float(np.max(np.abs(prob.phi_value(grid[k], xx, uu) - p0)))
                deltas.append(max(float(df), dp))
        except DomainError:
            continue  # domain holes are the majorant's business
        scale = 1e-6 * (1.0 + abs(float(f0)))
        if (deltas[-1] > scale
                and deltas[-1] > 0.9 * deltas[-2]
                and deltas[-2] > 0.9 * deltas[-3]):
            jump_witness = (float(grid[k]), tuple(x_star[k]), tuple(u_star[k]))
            break
    if jump_witness is None:
        verdicts[names["cont"]] = "no counterexample"
    else:
        verdicts[names["cont"]] = "fail"
        witnesses[names["cont"]] = jump_witness
    notes.append(f"{names['cont']}: measurability in t assumed (not checkable numerically)")

    # ---- constraint data (uniform mode only; the weak track carries none)
    if not weak:
        if prob.l == 0:
            verdicts["A3"] = "vacuous"
        else:
            a3_ok = True
            try:
                gv = prob.g_value(T, X)
                gj = prob.g_jac_x(T, X)
            except DomainError as err:
                a3_ok = False
                witnesses["A3"] = (
                    err.point.get("t", float("nan")),
                    tuple(v for k, v in sorted(err.point.items()) if k.startswith("x")),
                    None,
                )
                notes.append("A3: constraint data left its domain inside the tube")
            if a3_ok:
                scale = 1.0 + np.linalg.norm(X, axis=-1)
                bound = np.maximum(
                    np.max(np.abs(gv) / scale[:, None], axis=-1),
                    np.max(np.linalg.norm(gj, axis=-1), axis=-1),
                )
                per_time = np.max(bound.reshape(nt, samples), axis=1)
                cg, g_growing = _window_growth(grid, per_time)
                # difference quotients of the constraint gradients, damped
                # by the space weight
                nu_vals = np.asarray(prob.nu(grid), dtype=float)
                gj3 = gj.reshape(nt, samples, prob.l, prob.n)
                X3 = X.reshape(nt, samples, prob.n)
                dx = np.linalg.norm(X3[:, 1:] - X3[:, :-1], axis=-1)
                dgj = np.linalg.norm(gj3[:, 1:] - gj3[:, :-1], axis=(-2, -1))
                usable = dx > 1e-12 * radii[:, None]
                ratio = np.where(usable, dgj / np.where(usable, dx, 1.0), 0.0)
                lip_per_time = nu_vals * np.max(ratio, axis=1)
                cl, l_growing = _window_growth(grid, lip_per_time)
                if g_growing or l_growing or not np.isfinite(cg) or not np.isfinite(cl):
                    a3_ok = False
                    k = int(np.argmax(per_time if g_growing else lip_per_time))
                    witnesses["A3"] = (float(grid[k]), tuple(x_star[k]), None)
                    notes.append("A3: constraint constants still rising at the horizon")
                else:
                    notes.append(
                        f"A3: constraint bound {cg:.4g}, weighted gradient Lipschitz {cl:.4g}"
                    )
            verdicts["A3"] = "pass" if a3_ok else "fail"
    elif prob.l > 0:
        notes.append("state constraints are outside the weak-mode audit and were ignored")

    return AssumptionReport(
        mode=mode,
        gamma=float(gamma),
        verdicts=verdicts,
        witnesses=witnesses,
        C0=float(C0),
        K_estimate=nu_report.K_estimate,
        L_grid=grid,
        L_values=L_values,
        L_partials=L_partials,
        L_verdict=L_verdict,
        weight_reports=reports,
        notes=tuple(notes),
    )


# --------------------------------------------------------------------------
# active constraints and the separation condition


@dataclass(frozen=True)
class ActiveSet:
    """Active constraint indices (1-based) with their active-time samples."""

    I: tuple
    times: dict
    peak: dict
    tol: float


def active_indices(prob: ControlProblem, cand: CandidateProcess,
                   tol: float = 1e-8) -> ActiveSet:
    """Classify each constraint as active, slack, or violated on the grid.

    A constraint is active when its maximum over the grid sits within
    ``tol`` of zero; beyond ``+tol`` the candidate is infeasible and that
    is an error, not a verdict.
    """
    if prob.l == 0:
        return ActiveSet((), {}, {}, tol)
    gv = prob.g_value(cand.grid, cand.x)  # (N, l)
    active = []
    times: dict[int, np.ndarray] = {}
    peak: dict[int, float] = {}
    for j in range(prob.l):
        col = gv[:, j]
        top = float(np.max(col))
        peak[j + 1] = top
        if top > tol:
            k = int(np.argmax(col))
            raise InfeasibleState(j + 1, cand.grid[k], top)
        if top >= -tol:
            active.append(j + 1)
            times[j + 1] = cand.grid[np.abs(col) <= tol]
    return ActiveSet(tuple(active), times, peak, tol)


@dataclass(frozen=True)
class SlaterReport:
    """Interior-point evidence for every active constraint."""

    verdicts: dict
    witnesses: dict

    @property
    def passed(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())


def slater_check(prob: ControlProblem, cand: CandidateProcess,
                 active: ActiveSet, tol: float = 1e-8) -> SlaterReport:
    """For each active constraint, find a time where it is strictly slack.

    An empty active set passes vacuously.  Failure means the constraint
    is tight along the entire grid, which collapses the multiplier set.
    """
    verdicts: dict[int, str] = {}
    witnesses: dict[int, tuple] = {}
    if not active.I:
        return SlaterReport(verdicts, witnesses)
    gv = prob.g_value(cand.grid, cand.x)
    for j in active.I:
        col = gv[:, j - 1]
        k = int(np.argmin(col))
        if col[k] < -tol:
            verdicts[j] = "pass"
            witnesses[j] = (float(cand.grid[k]), float(col[k]))
        else:
            verdicts[j] = "fail"
    return SlaterReport(verdicts, witnesses)


# --------------------------------------------------------------------------
# differentiability of the objective at the candidate


@dataclass(frozen=True)
class GradientDiagnostic:
    """Partial integrals of the objective's directional derivative.

    ``partials`` are the cumulative values at the horizon's percent,
    tenth, and full mark; ``quotients`` holds (step, difference quotient,
    relative gap) rows when the derivative integral is finite.
    """

    verdict: str
    value: float
    partials: tuple
    growth: float
    quotients: tuple
    notes: tuple


def check_objective_gradient(
    prob: ControlProblem,
    cand: CandidateProcess,
    direction=None,
    steps=(1e-2, 1e-3, 1e-4),
) -> GradientDiagnostic:
    """Evaluate the objective's derivative along a bounded state direction.

    The default direction is the constant vector of ones.  The derivative
    integral is declared divergent when its partial integrals still grow
    by more than 1% over the final decade of the horizon; otherwise the
    value is cross-checked against difference quotients of the truncated
    objective.
    """
    grid = cand.grid
    nt = grid.size
    if direction is None:
        xi = np.ones((nt, prob.n))
    elif callable(direction):
        xi = np.asarray(direction(grid), dtype=float)
        if xi.ndim == 1:
            xi = xi[:, None]
    else:
        xi = np.broadcast_to(np.asarray(direction, dtype=float), (nt, prob.n)).copy()
    sup = float(np.max(np.abs(xi)))
    if sup > 1.0 + 1e-9:
        raise ValueError(f"direction must satisfy sup|xi| <= 1, got {sup:.6g}")

    notes: list[str] = []
    omega_vals = np.asarray(prob.omega(grid), dtype=float)
    try:
        fx = prob.f_grad_x(grid, cand.x, cand.u)
    except DomainError as err:
        return GradientDiagnostic(
            verdict="undefined", value=float("nan"), partials=(np.nan,) * 3,
            growth=float("nan"), quotients=(),
            notes=(f"cost gradient undefined at the candidate: {err}",),
        )
    core = np.sum(fx * xi, axis=1)
    integrand = omega_vals * core
    p1, p2, p3 = _decade_partials(grid, integrand)
    growth = (abs(p3) - abs(p2)) / max(abs(p3), 1e-300)
    if growth > 0.01:
        if _tail_settles(grid, np.abs(core), prob.omega.tail_bound,
                         0.01 * max(abs(p3), 1e-300)):
            notes.append("growth at the horizon settled by the declared tail bound")
        else:
            return GradientDiagnostic(
                verdict="divergent", value=float(p3), partials=(p1, p2, p3),
                growth=float(growth), quotients=(),
                notes=tuple(notes) + (
                    "partial integrals still growing by more than 1% per decade",
                ),
            )

    # finite: compare against difference quotients of the truncated objective
    def truncated_objective(states: np.ndarray) -> float:
        fv = prob.f_value(grid, states, cand.u)
        cells = 0.5 * (omega_vals[1:] * fv[1:] + omega_vals[:-1] * fv[:-1]) * np.diff(grid)
        return float(np.sum(cells))

    quotients = []
    try:
        j0 = truncated_objective(cand.x)
        for lam in steps:
            j_lam = truncated_objective(cand.x + lam * xi)
            quot = (j_lam - j0) / lam
            gap = abs(quot - p3) / (1.0 + abs(p3))
            quotients.append((float(lam), float(quot), float(gap)))
    except DomainError as err:
        notes.append(f"difference quotient skipped, perturbed state left the domain: {err}")
    return GradientDiagnostic(
        verdict="finite", value=float(p3), partials=(p1, p2, p3),
        growth=float(growth), quotients=tuple(quotients), notes=tuple(notes),
    )


# --------------------------------------------------------------------------
# the problem-definition file format


_SECTIONS = ("problem", "dynamics", "objective", "space", "controls", "constraints")


def _parse_weight(text: str, line: int) -> WeightSpec:
    """Parse a weight literal: a named family or an expression with options."""
    text = text.strip()
    head = text.split(None, 1)
    family = head[0]
    if family in ("exp_decay", "power", "weibull"):
        if len(head) != 2:
            raise ProblemSyntaxError(f"{family} needs one parameter", line)
        try:
            value = float(head[1])
        except ValueError:
            raise ProblemSyntaxError(f"bad {family} parameter {head[1]!r}", line) from None
        maker = {"exp_decay": exp_decay, "power": power, "weibull": weibull}[family]
        try:
            return maker(value)
        except ValueError as err:
            raise ProblemSyntaxError(str(err), line) from None
    if family.startswith("expr(") or text.startswith("expr("):
        body_start = text.index("(")
        depth = 0
        for i in range(body_start, len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    break
        else:
            raise ProblemSyntaxError("unbalanced parentheses in weight expression", line)
        body = text[body_start + 1:i]
        rest = text[i + 1:].split()
        tail = None
        pole = None
        k = 0
        while k < len(rest):
            if rest[k] == "tail" and k + 1 < len(rest):
                stop = k + 1
                while stop < len(rest) and rest[stop] != "pole":
                    stop += 1
                try:
                    tail_expr = parse_expression(" ".join(rest[k + 1:stop]))
                except ExpressionSyntaxError as err:
                    raise ProblemSyntaxError(f"bad tail bound: {err}", line) from None
                extra = tail_expr.variables() - {"t"}
                if extra:
                    raise ProblemSyntaxError(
                        f"tail bound may only use t, found {sorted(extra)[0]}", line
                    )
                tail = lambda T, e=tail_expr: float(e.ev({"t": float(T)}))
                k = stop
            elif rest[k] == "pole" and k + 1 < len(rest):
                try:
                    pole = float(rest[k + 1])
                except ValueError:
                    raise ProblemSyntaxError(
                        f"bad pole exponent {rest[k + 1]!r}", line
                    ) from None
                k += 2
            else:
                raise ProblemSyntaxError(f"unexpected weight option {rest[k]!r}", line)
        try:
            return from_expression(body, tail_bound=tail, pole_exp=pole)
        except (ExpressionSyntaxError, ValueError) as err:
            raise ProblemSyntaxError(f"bad weight expression: {err}", line) from None
    raise ProblemSyntaxError(
        f"unknown weight literal {family!r} (expected exp_decay/power/weibull/expr(...))",
        line,
    )


def _parse_bounds(text: str, line: int) -> tuple[float, float, bool, bool]:
    text = text.strip()
    if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]":
        raise ProblemSyntaxError(
            f"control bounds must look like [lo, hi] or (lo, hi), got {text!r}", line
        )
    open_lo = text[0] == "("
    open_hi = text[-1] == ")"
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ProblemSyntaxError("control bounds need exactly two endpoints", line)
    try:
        lo = float(parts[0])
        hi = float(parts[1])
    except ValueError:
        raise ProblemSyntaxError(f"bad control bound in {text!r}", line) from None
    return lo, hi, open_lo, open_hi


def _parse_expr(text: str, line: int) -> Expression:
    try:
        return parse_expression(text)
    except ExpressionSyntaxError as err:
        raise ProblemSyntaxError(str(err), line, err.column) from None


def parse_problem(source: str) -> ControlProblem:
    """Build a ControlProblem from its definition text.

    The format is line-based: ``[section]`` headers followed by
    ``key = value`` entries; ``#`` starts a comment.  Sections ``problem``
    (n, m, x0, sense, p), ``dynamics`` (phi1..), ``objective`` (f, omega),
    and ``space`` (nu, optional eta) are required; ``controls`` (per-
    coordinate boxes, convex flag) and ``constraints`` (g1..) are not.
    Maximization is normalized away here by negating the integrand.
    """
    entries: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTIONS}
    headers: dict[str, int] = {}
    section = None
    lines = source.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ProblemSyntaxError("unterminated section header", lineno)
            name = text[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ProblemSyntaxError(f"unknown section [{name}]", lineno)
            section = name
            headers.setdefault(name, lineno)
            continue
        if section is None:
            raise ProblemSyntaxError("content before any [section] header", lineno)
        if "=" not in text:
            raise ProblemSyntaxError("expected key = value", lineno)
        key, value = text.split("=", 1)
        key = key.strip().lower()
        if key in entries[section]:
            raise ProblemSyntaxError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[section][key] = (value.strip(), lineno)

    def need(section: str, key: str) -> tuple[str, int]:
        if key not in entries[section]:
            raise ProblemSyntaxError(f"missing key {key!r} in [{section}]",
                                     headers[section])
        return entries[section][key]

    def grab(section: str, key: str, default=None):
        return entries[section].get(key, (default, 0))

    for sec in ("problem", "dynamics", "objective", "space"):
        if sec not in headers:
            raise ProblemSyntaxError(f"missing required section [{sec}]",
                                     max(1, len(lines)))

    text, line = need("problem", "n")
    try:
        n = int(text)
    except ValueError:
        raise ProblemSyntaxError(f"n must be an integer, got {text!r}", line) from None
    text, line = need("problem", "m")
    try:
        m = int(text)
    except ValueError:
        raise ProblemSyntaxError(f"m must be an integer, got {text!r}", line) from None
    if n < 1 or m < 1:
        raise ProblemSyntaxError("need n >= 1 and m >= 1", line)

    text, line = need("problem", "x0")
    try:
        x0 = np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError:
        raise ProblemSyntaxError(f"bad x0 entry in {text!r}", line) from None
    if x0.size != n:
        raise DimensionMismatch(f"x0 has {x0.size} entries, n={n} (line {line})")

    sense, line = grab("problem", "sense", "min")
    sense = sense.lower()
    if sense not in ("min", "max"):
        raise ProblemSyntaxError(f"sense must be min or max, got {sense!r}", line)
    p_text, line = grab("problem", "p", None)
    if p_text is None:
        p_text, line = grab("problem", "p_exp", "2")
    try:
        p_exp = float(p_text)
    except ValueError:
        raise ProblemSyntaxError(f"bad space exponent {p_text!r}", line) from None

    for key in entries["problem"]:
        if key not in ("n", "m", "x0", "sense", "p", "p_exp"):
            raise ProblemSyntaxError(f"unknown key {key!r} in [problem]",
                                     entries["problem"][key][1])

    phi = []
    for i in range(1, n + 1):
        text, line = need("dynamics", f"phi{i}")
        phi.append(_parse_expr(text, line))
    for key in entries["dynamics"]:
        if key not in {f"phi{i}" for i in range(1, n + 1)}:
            raise ProblemSyntaxError(f"unexpected dynamics component {key!r} (n={n})",
                                     entries["dynamics"][key][1])

    text, f_line = need("objective", "f")
    f = _parse_expr(text, f_line)
    negated = sense == "max"
    if negated:
        from .expressions import Neg

        f = Neg(f)
    text, line = need("objective", "omega")
    omega = _parse_weight(text, line)
    for key in entries["objective"]:
        if key not in ("f", "omega"):
            raise ProblemSyntaxError(f"unknown key {key!r} in [objective]",
                                     entries["objective"][key][1])

    text, line = need("space", "nu")
    nu = _parse_weight(text, line)
    eta = None
    if "eta" in entries["space"]:
        text, line = entries["space"]["eta"]
        eta = _parse_weight(text, line)
    for key in entries["space"]:
        if key not in ("nu", "eta"):
            raise ProblemSyntaxError(f"unknown key {key!r} in [space]",
                                     entries["space"][key][1])

    if entries["controls"]:
        lo = np.full(m, -np.inf)
        hi = np.full(m, np.inf)
        olo = np.ones(m, dtype=bool)
        ohi = np.ones(m, dtype=bool)
        convex = True
        for key, (value, line) in entries["controls"].items():
            if key == "convex":
                convex = value.lower() in ("true", "yes", "1")
                continue
            if not (key.startswith("u") and key[1:].isdigit()):
                raise ProblemSyntaxError(f"unknown key {key!r} in [controls]", line)
            i = int(key[1:])
            if not 1 <= i <= m:
                raise ProblemSyntaxError(f"control index {key!r} out of range (m={m})", line)
            lo[i - 1], hi[i - 1], olo[i - 1], ohi[i - 1] = _parse_bounds(value, line)
        try:
            U = ControlBox(lo, hi, olo, ohi, convex=convex)
        except ValueError as err:
            raise ProblemSyntaxError(str(err), headers["controls"]) from None
    else:
        U = ControlBox.unbounded(m)

    g = []
    if entries["constraints"]:
        # shorter keys first, so g2 precedes g10: this is index order for
        # every well-formed key, and any other key still fails the match
        ordered = sorted(entries["constraints"], key=lambda k: (len(k), k))
        for idx, key in enumerate(ordered, start=1):
            if key != f"g{idx}":
                raise ProblemSyntaxError(
                    f"constraints must be named g1..gl consecutively, found {key!r}",
                    entries["constraints"][key][1],
                )
            text, line = entries["constraints"][key]
            g.append(_parse_expr(text, line))

    return ControlProblem(
        n=n, m=m, f=f, phi=tuple(phi), x0=x0, omega=omega, nu=nu, U=U,
        p_exp=p_exp, g=tuple(g), eta=eta, sense="min", negated=negated,
    )

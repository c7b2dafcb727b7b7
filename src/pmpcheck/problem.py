"""Problem descriptions, candidate processes, and standing-assumption audits.

A :class:`ControlProblem` holds the integrand, the dynamics, optional state
constraints, a control box, and the weight pair; all Jacobians are derived
symbolically at construction.  A :class:`CandidateProcess` is a sampled
trajectory/control pair (with optional closed forms for oracle work).  The
audits never solve anything: they bound the data over a tube around the
candidate and report, with witnesses, whether the regularity and growth
conditions that the certificate machinery relies on hold there.  One
helper lays the tube for the audit and the Arrow scan alike, and one
interval box per grid time encloses it (:func:`_tube_box`).  The audit's
bounds are interval enclosures over those boxes; a box whose enclosure
proves nothing goes to the one bisection engine
(:func:`~pmpcheck.expressions._bisect`), which splits it and confirms a
failure at a tube point with the pointwise evaluator.  Continuity is read
off the expression tree: the only jump an expression can hold is a
``sign`` node, and the audit encloses its arguments over the same boxes.

Two audit modes exist.  The uniform mode uses a constant tube radius and
carries the constraint conditions; the scaled mode shrinks the tube with a
declared radius function and also perturbs the control.  Verdict keys are
``A0``..``A3`` for the former and ``B0``..``B2`` for the latter.

:func:`parse_problem` reads the problem-definition file, whose docstring
is the grammar reference; a malformed file fails there, at its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .expressions import (Call, Expression, ExpressionSyntaxError, Neg, UnknownIdentifier,
                          _bisect, _build, _check_variables, _children, _domain_probe, _emit,
                          _enclose, _up, parse_expression)
from .integrate import _cell_integrals, _check_grid, _sample_at, improper_integral
from .weights import (
    InvalidExponent,
    WeightSpec,
    _window_growth,
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
    "ProblemSyntaxError",
    "DimensionMismatch",
    "UnknownIdentifier",
    "InfeasibleState",
    "EmptyTube",
    "parse_problem",
    "audit_assumptions",
    "active_indices",
    "slater_check",
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


class InfeasibleState(ValueError):
    """A candidate trajectory violates a state constraint outright."""

    def __init__(self, j: int, t: float, value: float):
        self.j = int(j)
        self.t = float(t)
        self.value = float(value)
        super().__init__(f"constraint g{j} is {value:.6g} > 0 at t={t:.6g}")


class EmptyTube(ValueError):
    """The tube around the candidate collapsed below machine resolution."""

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
    """A coordinate box of admissible controls; bounds may be infinite, not NaN.

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
        if np.any(np.isnan(lo) | np.isnan(hi)):
            raise ValueError("control bounds may be infinite but not NaN")
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

    @property
    def m(self) -> int:
        return self.lo.size

    @property
    def bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def contains(self, u, tol: float = 0.0):
        """Whether each row of ``u`` lies in the box; closed faces get ``tol`` slack."""
        u = np.asarray(u, dtype=float)
        above = np.where(self.open_lo, u > self.lo, u >= self.lo - tol)
        below = np.where(self.open_hi, u < self.hi, u <= self.hi + tol)
        return np.all(above & below, axis=-1)

    def project(self, u) -> np.ndarray:
        """Clip into the box, staying strictly inside open endpoints.

        Returns a new array; ``u`` itself is left as it is.
        """
        u = np.array(u, dtype=float, ndmin=1)
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
        return np.clip(u, lo_eff, hi_eff, out=u)


# --------------------------------------------------------------------------
# the problem record


def _kinks(e: Expression, names: set[str], fns: tuple) -> list[Expression]:
    """Arguments of the nodes of ``e`` that call one of ``fns`` and name
    one of ``names``; ``fns`` picks from ``abs`` and ``sign``."""
    found = [e.args[0]] if (isinstance(e, Call) and e.fn in fns
                            and not e.variables().isdisjoint(names)) else []
    for k in _children(e):
        found += _kinks(k, names, fns)
    return found


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
    first-order partials, and the diagonal ``f_uu`` of the integrand's
    control Hessian, are derived symbolically here; the former are exposed through
    the ``*_grad_*`` / ``*_jac_*`` evaluators, which accept scalars or
    arrays of times with matching state/control batches.  Each evaluator
    is one generated function that writes all its components into one
    array (see :func:`_evaluator`).  The diagonal ``phi_uu`` of the
    dynamics' control Hessians joins ``f_uu`` in :meth:`u_slopes`, which
    gives the control search the slope and curvature of H along one
    control coordinate.  ``u_quadratic[i]`` holds when H is at most
    quadratic in ``u_i``: ``f_uu[i]`` and ``phi_uu[:, i]`` are free of
    ``u_i``, and so is every ``sign`` node (the derivative of ``abs``,
    whose own derivative reads 0) in ``f_u[i]`` and ``phi_u[:, i]``.
    ``x_affine`` holds when the dynamics are affine in the state: no
    entry of ``phi_x`` names ``x1..xn``.  The test is symbolic and
    conservative (``x1/x1`` does not count as affine);
    :func:`~pmpcheck.integrate.solve_state` picks its engine by it.
    The full second derivatives in (x, u) that the concavity proof of
    :func:`~pmpcheck.sufficiency.check_arrow` reads are built on first
    use, not here (``_curvature``).

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
    U: ControlBox
    p_exp: float = 2.0
    g: tuple = ()
    eta: WeightSpec | None = None
    negated: bool = False
    f_x: tuple = field(init=False, repr=False)
    f_u: tuple = field(init=False, repr=False)
    f_uu: tuple = field(init=False, repr=False)
    phi_x: tuple = field(init=False, repr=False)
    phi_u: tuple = field(init=False, repr=False)
    phi_uu: tuple = field(init=False, repr=False)
    u_quadratic: tuple = field(init=False, repr=False)
    x_affine: bool = field(init=False, repr=False)
    g_x: tuple = field(init=False, repr=False)
    _evaluators: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch("need n >= 1 states and m >= 1 controls")
        phi = tuple(self.phi)
        if len(phi) != self.n:
            raise DimensionMismatch(f"dynamics has {len(phi)} components, n={self.n}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.n,):
            raise DimensionMismatch(f"x0 has shape {x0.shape}, expected ({self.n},)")
        if self.U.m != self.m:
            raise DimensionMismatch(f"control box has {self.U.m} coordinates, m={self.m}")
        g = tuple(self.g)

        states = [f"x{i + 1}" for i in range(self.n)]
        controls = [f"u{i + 1}" for i in range(self.m)]
        allowed = {"t", *states, *controls}
        _check_variables([self.f], allowed, "objective integrand")
        _check_variables(phi, allowed, "dynamics")
        _check_variables(g, {"t", *states}, "state constraints")

        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f_x", tuple(self.f.diff(s) for s in states))
        object.__setattr__(self, "f_u", tuple(self.f.diff(c) for c in controls))
        object.__setattr__(  # diagonal only: f_uu[i] = d^2 f / du_i^2
            self, "f_uu", tuple(fu.diff(c) for fu, c in zip(self.f_u, controls))
        )
        object.__setattr__(
            self, "phi_x", tuple(tuple(p.diff(s) for s in states) for p in phi)
        )
        object.__setattr__(
            self, "phi_u", tuple(tuple(p.diff(c) for c in controls) for p in phi)
        )
        object.__setattr__(  # diagonal only: phi_uu[k][i] = d^2 phi_k / du_i^2
            self, "phi_uu",
            tuple(tuple(row[i].diff(c) for i, c in enumerate(controls))
                  for row in self.phi_u)
        )
        object.__setattr__(self, "u_quadratic", tuple(
            all(c not in e.variables() for e in (fuu, *(row[i] for row in self.phi_uu)))
            and not any(_kinks(e, {c}, ("sign",)) for e in (fu, *(row[i] for row in self.phi_u)))
            for i, (c, fu, fuu) in enumerate(zip(controls, self.f_u, self.f_uu))))
        object.__setattr__(self, "x_affine", all(
            e.variables().isdisjoint(states) for row in self.phi_x for e in row))
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
            "u_slopes": tuple(
                _evaluator([self.f_u[i], *(row[i] for row in self.phi_u),
                            self.f_uu[i], *(row[i] for row in self.phi_uu)],
                           (2, 1 + n), n, m)
                for i in range(m)),
        })

    @property
    def l(self) -> int:
        return len(self.g)

    @cached_property
    def _curvature(self) -> tuple:
        """Second derivatives in z = (x1..xn, u1..um), and where they hold.

        Returns ``(rows, kinks)``.  ``rows[0]`` is the upper triangle of the
        Hessian of f in z, row by row, and ``rows[1 + i]`` that of phi_i.
        ``kinks[0]`` and ``kinks[1 + i]`` are the arguments of the ``abs``
        and ``sign`` nodes of f and phi_i that depend on z: abs
        differentiates to sign and sign to 0, so the Hessian holds only
        where no kink argument vanishes.  Built on first use and cached,
        so parsing a problem does not pay for it.
        """
        names = ([f"x{i + 1}" for i in range(self.n)]
                 + [f"u{i + 1}" for i in range(self.m)])
        d = len(names)
        gradients = [(self.f, (*self.f_x, *self.f_u))] + [
            (phi, (*row_x, *row_u)) for phi, row_x, row_u in zip(self.phi, self.phi_x, self.phi_u)]
        rows = tuple(tuple(grad[a].diff(names[b]) for a in range(d) for b in range(a, d))
                     for _, grad in gradients)
        kinks = tuple(tuple(_kinks(e, set(names), ("abs", "sign"))) for e, _ in gradients)
        return rows, kinks

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

    def u_slopes(self, i: int, t, x, u) -> np.ndarray:
        """First and second derivatives in control ``i``, shape ``(..., 2, 1 + n)``.

        Row 0 holds ``f_u[i]`` and ``phi_u[:, i]``, row 1 ``f_uu[i]`` and
        the diagonal ``phi_uu[:, i]``.
        """
        return self._evaluators["u_slopes"][i](t, x, u)

    def g_value(self, t, x) -> np.ndarray:
        return self._evaluators["g_value"](t, x)

    def g_jac_x(self, t, x) -> np.ndarray:
        return self._evaluators["g_jac_x"](t, x)


# --------------------------------------------------------------------------
# candidate processes


def _shape_rows(hook: str, out, t_arr, width: int) -> np.ndarray:
    """A closed form's values shaped ``t.shape + (width,)``; for width 1
    a bare ``t.shape`` is promoted, any other shape is refused."""
    out = np.asarray(out, dtype=float)
    if out.shape == t_arr.shape and width == 1:
        return out[..., None]
    if out.shape != t_arr.shape + (width,):
        raise DimensionMismatch(f"{hook} returned shape {out.shape} for times shaped "
                                f"{t_arr.shape}; expected {t_arr.shape + (width,)}")
    return out


def _check_samples(name: str, samples, grid: np.ndarray, width: str) -> np.ndarray:
    """``samples`` as a float array shaped (knots, columns), after the
    package's one sample rule: one row per knot of ``grid``, a 1-d array
    being one column.  Candidates, adjoints and the control samples of
    :func:`~pmpcheck.integrate.solve_state` all apply it."""
    out = np.asarray(samples, dtype=float)
    if out.ndim not in (1, 2) or out.shape[0] != grid.size:
        raise DimensionMismatch(f"{name} samples have shape {out.shape}; expected "
                                f"({grid.size},) or ({grid.size}, {width})")
    return out.reshape(grid.size, -1)


@dataclass(frozen=True, eq=False)
class CandidateProcess:
    """A sampled trajectory/control pair on a fixed time grid.

    ``x`` interpolates linearly between knots and ``u`` is piecewise
    constant and left-continuous (the sample at a cell's right knot owns
    the cell).  When closed forms are attached they take precedence in
    :meth:`state` / :meth:`control`, so oracle candidates are evaluated
    exactly rather than through interpolation.  ``x`` and ``u`` hold one
    row per knot, shaped (K, n) and (K, m); a 1-d array is one column and
    any other shape raises :class:`DimensionMismatch` (:func:`_check_samples`).
    """

    grid: np.ndarray
    x: np.ndarray
    u: np.ndarray
    closed_x: Callable | None = None
    closed_u: Callable | None = None

    def __post_init__(self):
        grid = _check_grid(self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "x", _check_samples("x", self.x, grid, "n"))
        object.__setattr__(self, "u", _check_samples("u", self.u, grid, "m"))

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def state(self, t) -> np.ndarray:
        """State at arbitrary times; clamps beyond the grid ends."""
        t_arr = np.asarray(t, dtype=float)
        if self.closed_x is not None:
            return _shape_rows("closed_x", self.closed_x(t_arr), t_arr, self.n)
        cols = [np.interp(t_arr, self.grid, self.x[:, i]) for i in range(self.n)]
        return np.stack(cols, axis=-1)

    def control(self, t) -> np.ndarray:
        t_arr = np.asarray(t, dtype=float)
        if self.closed_u is not None:
            return _shape_rows("closed_u", self.closed_u(t_arr), t_arr, self.m)
        return _sample_at(self.grid, self.u, t_arr)


def candidate_from_functions(grid, x_fn: Callable, u_fn: Callable) -> CandidateProcess:
    """Sample closed-form state/control functions into a CandidateProcess.

    Both callables must accept numpy arrays of times; the closed forms are
    kept on the record so later evaluation bypasses interpolation.
    """
    grid = np.asarray(grid, dtype=float)
    x = np.asarray(x_fn(grid), dtype=float)
    u = np.asarray(u_fn(grid), dtype=float)
    return CandidateProcess(grid=grid, x=x, u=u, closed_x=x_fn, closed_u=u_fn)


def dynamics_residual(prob: ControlProblem, cand: CandidateProcess) -> np.ndarray:
    """Per-cell norms of x(t_{k+1}) - x(t_k) - integral of the dynamics.

    The integral uses the package's one 7-point Gauss rule on each cell
    with the candidate's own state/control evaluation, so closed-form
    candidates are checked at full accuracy while sampled ones see
    interpolation error as part of the residual.
    """
    cell = _cell_integrals(
        lambda ts: prob.phi_value(ts, cand.state(ts), cand.control(ts)), cand.grid)
    res = cand.x[1:] - cand.x[:-1] - cell
    return np.linalg.norm(res, axis=1)


def _matching_widths(prob: ControlProblem, cand: CandidateProcess, adj=None) -> None:
    """Raise :class:`DimensionMismatch` unless the candidate has one column
    per state and per control, and ``adj``, when given, one per state.

    Every check that reads a candidate calls this first, the audit and the
    Arrow scan through :func:`_tube`: a wider or narrower array would
    broadcast against the problem's data and read as a residual, or stop
    in a numpy error that names neither width.
    """
    widths = [("candidate", cand.n, "state columns", "n", prob.n, "states"),
              ("candidate", cand.m, "control columns", "m", prob.m, "controls")]
    if adj is not None:
        widths.append(("adjoint", adj.n, "components", "n", prob.n, "states"))
    for what, have, unit, dim, want, kind in widths:
        if have != want:
            raise DimensionMismatch(
                f"{what} has {have} {unit}, but the problem has {dim}={want} {kind}")


# --------------------------------------------------------------------------
# the tube


def _tube_box(ts, centers, radii, controls) -> dict:
    """The interval box ``t`` x ``centers +- radii`` x ``controls``, a
    ``(lo, hi)`` pair per control coordinate; the state part is rounded out
    so that it encloses each tube ball."""
    box = {"t": (ts, ts)}
    for i in range(centers.shape[1]):
        box[f"x{i + 1}"] = (np.nextafter(centers[:, i] - radii, -np.inf),
                            np.nextafter(centers[:, i] + radii, np.inf))
    for j, ends in enumerate(controls):
        box[f"u{j + 1}"] = ends
    return box


def _tube(prob: ControlProblem, cand: CandidateProcess, gamma: float, mode: str):
    """Validate the widths and the tube arguments; return ``(weak, radii,
    resolvable, box)``.

    The tube at grid time t_k is the closed ball of radius ``radii[k]``
    (gamma, or gamma * eta(t_k) in weak mode) about the candidate's state,
    or in weak mode its state and control, each point's control projected
    into the box (:meth:`ControlBox.project`).  A grid time is resolvable
    while its radius stays above ``64 eps max(1, |x(t)|)``.  ``box`` (by
    :func:`_tube_box`) holds the control at the candidate's in strong mode
    and takes ``u* +- r`` through the projection in weak mode, which holds
    every projected point and reaches no open face.
    """
    _matching_widths(prob, cand)
    if not (gamma > 0 and np.isfinite(gamma)):
        raise ValueError(f"gamma must be finite and positive, got {gamma!r}")
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be strong or weak, got {mode!r}")
    weak = mode == "weak"
    if weak and prob.eta is None:
        raise ValueError("weak mode needs the problem to declare a tube radius eta")
    if weak:
        radii = gamma * np.asarray(prob.eta(cand.grid), dtype=float)
        lo, hi = (prob.U.project(cand.u + side * radii[:, None]) for side in (-1.0, 1.0))
        controls = zip(lo.T, hi.T)
    else:
        radii = np.full(cand.grid.size, float(gamma))
        controls = [(col, col) for col in cand.u.T]
    floor = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.linalg.norm(cand.x, axis=1))
    resolvable = ~(radii < floor)  # a NaN radius is eta's F6 failure, not a collapse
    return weak, radii, resolvable, _tube_box(cand.grid, cand.x, radii, controls)


# --------------------------------------------------------------------------
# assumption audit


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts, constants, and the per-knot upper bound of one audit run.

    Every ``fail`` verdict carries a witness ``(t, x, u)`` (``u`` is None
    when the control played no role).  ``L_values`` is the per-knot upper
    bound of the cost data over the tube, one value per audited knot
    ``cand.grid[:len(L_values)]``, and ``L_partials`` the decade partials
    of its weighted integral, so a divergence is visible rather than
    asserted.  They stay finite at a weight pole at t = 0; a knot where
    the cost data is not proved defined on the tube reads inf, and the
    partials ``(inf, inf, inf)``.
    """

    mode: str
    verdicts: dict
    witnesses: dict
    C0: float
    L_values: np.ndarray
    L_partials: tuple
    L_verdict: str
    weight_reports: dict
    notes: tuple

    _OK = ("pass", "no counterexample", "vacuous")

    @property
    def all_ok(self) -> bool:
        return all(v in self._OK for v in self.verdicts.values())


def _decade_partials(grid: np.ndarray, omega: WeightSpec, L_vals: np.ndarray) -> tuple:
    """Integrals of |omega| times the linearly interpolated majorant up to
    T/100, T/10 and T, by the Gauss rule: no knot, so no pole, is touched."""
    partial = improper_integral(lambda ts: np.abs(omega(ts)) * np.interp(ts, grid, L_vals), grid)
    marks = np.searchsorted(grid, [grid[-1] / 100.0, grid[-1] / 10.0, grid[-1]])
    return tuple(float(v) for v in partial[marks])


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


_GROWTH_TOL = 0.01  # relative growth of the majorant integral over its last decade
_ADMISSIBLE_TOL = 1e-8  # slack of x(0) = x0 and of closed control faces in A0/B0
_ACTIVE_TOL = 1e-8  # |g_j| within this of zero counts as active


def _majorant_verdict(grid, omega, L_vals):
    """Weighted-integral verdict for the per-knot upper bound of the cost data.

    Divergence means the partial integral is still growing by more than
    ``_GROWTH_TOL`` relatively over the last decade, or the bound is
    infinite at a knot.  Growth at the horizon is forgiven when the
    distribution declares a tail bound and the bound itself has stopped
    rising: the remaining mass is then provably inside the growth budget.
    """
    if not np.all(np.isfinite(L_vals)):
        k = int(np.argmax(~np.isfinite(L_vals)))
        return "divergent", (np.inf, np.inf, np.inf), k
    p1, p2, p3 = _decade_partials(grid, omega, L_vals)
    growing = (abs(p3) - abs(p2)) > _GROWTH_TOL * max(abs(p3), 1e-300)
    if growing and _tail_settles(grid, L_vals, omega.tail_bound,
                                 _GROWTH_TOL * max(abs(p3), 1e-300)):
        growing = False
    if growing:
        return "divergent", (p1, p2, p3), int(np.argmax(L_vals))
    return "finite", (p1, p2, p3), -1


def _point_witness(point: dict, n: int, m: int) -> tuple:
    """The witness ``(t, x, u)`` of a domain failure's ``point``, with
    ``x1..xn`` and ``u1..um`` read by index; ``u`` is None for ``m = 0``."""
    return (point.get("t", float("nan")),
            tuple(point[f"x{i + 1}"] for i in range(n)),
            tuple(point[f"u{i + 1}"] for i in range(m)) or None)


def _norm_bound(found, count: int) -> np.ndarray:
    """Per box, an upper bound of the Euclidean norm of the vector whose
    entries are enclosed in ``found``; NaN where one proves nothing."""
    total = 0.0
    with np.errstate(over="ignore"):
        for lo, hi in found:
            mag = np.maximum(np.abs(lo), np.abs(hi))
            total = _up(total + _up(mag * mag))
    return np.broadcast_to(_up(np.sqrt(total)), (count,))


def audit_assumptions(
    prob: ControlProblem,
    cand: CandidateProcess,
    gamma: float,
    mode: str = "strong",
) -> AssumptionReport:
    """Check the standing assumptions on the tube around the candidate.

    ``gamma`` scales the tube: a constant radius in strong mode, a radius
    ``gamma * eta(t)`` (state and control alike) in weak mode.  Every bound
    is an interval enclosure over the tube box of each grid time
    (:func:`_tube`): L(t_k) bounds ``sqrt(f^2 + |f_x|^2)`` (with f_u in weak
    mode), C(t_k) the dynamics' growth in the mean value form, and A3 the
    constraint data.  Where an enclosure proves nothing, the bisection
    engine (:func:`~pmpcheck.expressions._bisect`) splits the box and
    probes tube points pointwise: a :class:`DomainError` there is the
    witness of a ``fail``, and a knot left open reads ``undetermined``.

    Continuity (A1/B1) is read off the expression tree: every function of
    the grammar is continuous where it is defined, so f and phi can jump
    only across the zero of the argument of a ``sign`` node, which only
    the derivative of ``abs`` builds.  The arguments that name a moved
    variable (x, and u in weak mode) are enclosed over the tube where f and
    phi are proved defined.  A knot fails where a tube point puts one at 0
    or across its sign at the candidate, whose point is the witness; no
    such node reads "no counterexample", and measurability in t is assumed.

    Raises
    ------
    EmptyTube
        when the tube radius falls below machine resolution relative to
        the candidate's scale before a quarter of the horizon, so not
        even a meaningful prefix could be audited.  A later collapse
        truncates the audited range instead and leaves a note.
    """
    weak, radii, resolvable, box = _tube(prob, cand, gamma, mode)
    grid, x_star, u_star = cand.grid, cand.x, cand.u
    n, m = prob.n, prob.m
    verdicts: dict[str, str] = {}
    witnesses: dict[str, tuple] = {}
    notes: list[str] = []
    names = {
        "base": "B0" if weak else "A0",
        "cont": "B1" if weak else "A1",
        "growth": "B2" if weak else "A2",
    }

    if not np.all(resolvable):
        # a shrinking tube eventually drops below float resolution around
        # the candidate; beyond that point the tube is meaningless, so the
        # audit covers the resolvable prefix and says so.  A prefix shorter
        # than a quarter of the horizon cannot support the window fits,
        # and such a tube is treated as empty outright.
        k = int(np.argmin(resolvable))
        if k < 16 or grid[k] < 0.25 * grid[-1]:
            raise EmptyTube(grid[k], radii[k])
        notes.append(
            f"tube radius below machine resolution from t={grid[k]:.6g}; "
            f"assumptions audited on [{grid[0]:g}, {grid[k - 1]:.6g}]")
        grid, x_star, u_star, radii = grid[:k], x_star[:k], u_star[:k], radii[:k]
        box = {name: (lo[:k],) * 2 if lo is hi else (lo[:k], hi[:k])
               for name, (lo, hi) in box.items()}

    # ---- base verdict: weights qualify, candidate is basically admissible
    nu_report = check_weight_properties(prob.nu, mode=mode)
    omega_report = check_distribution(prob.omega, mode=mode)
    base_ok = nu_report.all_pass and all(
        v == "pass" for v in omega_report.verdicts.values()
    )
    pair_ok = 1.0 < prob.p_exp < np.inf
    if not pair_ok:
        notes.append(f"{names['base']}: space exponent p={prob.p_exp:g} has no conjugate in (1, inf)")
    reports = {"nu": nu_report, "omega": omega_report}
    if weak:
        reports["eta"] = check_tube_scale(prob.eta)
        base_ok = base_ok and reports["eta"].verdicts.get("F6") == "pass"

    x0_gap = float(np.linalg.norm(x_star[0] - prob.x0))
    inside = prob.U.contains(u_star, tol=_ADMISSIBLE_TOL)
    if not x0_gap <= _ADMISSIBLE_TOL:  # a NaN gap fails too
        base_ok = False
        witnesses[names["base"]] = (float(grid[0]), tuple(x_star[0]), None)
        notes.append(f"{names['base']}: initial state misses x0 by {x0_gap:.3g}")
    if not np.all(inside):
        bad = int(np.argmin(inside))
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

    # ---- bounds over the tube, per knot.  The ball is about (x*, u*); the
    # mean value form expands about (x*, u*) with u* projected in weak mode
    coords = [f"x{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)]
    moved = coords[:n + m if weak else n]
    centre = np.column_stack([x_star, u_star])
    expand = np.column_stack([x_star, prob.U.project(u_star) if weak else u_star])
    faces = prob.U.project(np.stack([prob.U.lo, prob.U.hi]))
    flat = lambda rows: [e for row in rows for e in row]

    def meets(part, knots):
        # whether each box meets its knot's ball.  A control range at an
        # effective face of ControlBox.project reaches past it, since the
        # face holds the projection of every point beyond.  A box, not a
        # point (one array twice), gets 1e-12 on the squared radius
        gap = 0.0
        for v, name in enumerate(moved):
            lo, hi = part[name]
            if v >= n:
                lo = np.where(lo <= faces[0, v - n], -np.inf, lo)
                hi = np.where(hi >= faces[1, v - n], np.inf, hi)
            c = centre[knots, v]
            gap = gap + np.maximum(0.0, np.maximum(lo - c, c - hi)) ** 2
        slack = 1.0 if part["x1"][0] is part["x1"][1] else 1.0 + 1e-12
        return gap <= radii[knots] ** 2 * slack

    at_candidate = lambda k: (float(grid[k]), tuple(x_star[k]), tuple(u_star[k]))

    def cost_bound(found, part, knots):
        bound = _norm_bound(found, knots.size)
        return ~np.isnan(bound), bound[:, None]

    def growth_bound(field):
        """The judge of the map ``field``, enclosed first, then its Jacobian
        in the moved coordinates; the norm of any further data is row 1."""
        k = len(field) * (1 + len(moved))

        def judge(found, part, knots):
            point = dict(part)  # the point of each box nearest the expansion centre
            for v, name in enumerate(moved):
                c = np.clip(expand[knots, v], *part[name])
                point[name] = (c, c)
            size = np.sqrt(sum(point[name][0] ** 2 for name in moved))
            lip = _norm_bound(found[len(field):k], knots.size)
            # the mean value form about that point c: with rho = |z - c| <= r,
            # |v(z)| <= |v(c)| + lip rho and |z| >= ||c| - rho|, whose quotient
            # rises up to rho = |c| and tends monotonely to lip beyond.  Unlike
            # sup |v| / (1 + inf |z|) it is no looser where the ball holds 0,
            # so a growth test along t cannot read looseness as growth
            rho = np.minimum(radii[knots], size)
            with np.errstate(invalid="ignore", over="ignore"):
                ratio = (_norm_bound(_enclose(field, point), knots.size) + lip * rho) / (
                    1.0 + size - rho) * (1.0 + 1e-12)  # the rounding of the norms
            growth = np.fmax(ratio, lip)
            return (~np.isnan(_norm_bound(found, knots.size)),
                    np.column_stack([growth, _norm_bound(found[k:], knots.size)]))

        return judge

    def settle(key, what, exprs, bound, probe_m):
        """Bound ``exprs`` over the tube (inf rows where they are not proved
        defined); a note, and the witness of a failure, go under ``key``."""
        state, rows, point = _bisect(exprs, box, bound, meets, _domain_probe(exprs))
        if point is not None:
            witnesses.setdefault(key, _point_witness(point, n, probe_m))
            notes.append(f"{key}: {what} left its domain inside the tube")
        elif np.any(state == 0):
            notes.append(f"{key}: {what} not proved defined on the tube at {np.sum(state == 0)} "
                         f"knot(s), the first at t={grid[np.argmax(state == 0)]:.6g}")
        return rows, state

    key = names["growth"]
    L_rows, cost = settle(key, "cost data", [prob.f, *prob.f_x, *(prob.f_u if weak else ())],
                          cost_bound, m)
    C_rows, growth = settle(key, "dynamics", [*prob.phi, *flat(prob.phi_x),
                                              *(flat(prob.phi_u) if weak else ())],
                            growth_bound(prob.phi), m)
    L_values, C_values, defined = L_rows[:, 0], C_rows[:, 0], np.minimum(cost, growth)
    L_verdict, L_partials, bad_idx = _majorant_verdict(grid, prob.omega, L_values)
    C0, c_growing = (_window_growth(grid, C_values) if np.all(np.isfinite(C_values))
                     else (float("inf"), True))
    if L_verdict != "finite":
        notes.append(f"{key}: weighted majorant integral divergent (partials "
                     f"{L_partials[0]:.4g}, {L_partials[1]:.4g}, {L_partials[2]:.4g})")
    if np.any(defined == -1):
        verdicts[key] = "fail"
    elif np.any(defined == 0):
        verdicts[key] = "undetermined"
    else:
        if bad_idx >= 0:
            witnesses[key] = at_candidate(bad_idx)
        if c_growing:
            witnesses.setdefault(key, at_candidate(int(np.argmax(C_values))))
            notes.append(f"{key}: dynamics growth constant still rising at the horizon")
        verdicts[key] = "pass" if L_verdict == "finite" and not c_growing else "fail"

    # ---- continuity in (x, u), read off the tree (see the docstring): the
    # zeros of the sign arguments that name a moved variable, on the tube
    # where f and phi are proved defined
    cont = names["cont"]
    verdicts[cont] = "no counterexample"
    args = [a for e in (prob.f, *prob.phi) for a in _kinks(e, set(moved), ("sign",))]
    if args:
        at = {"t": grid, **{name: expand[:, v] for v, name in enumerate(coords)}}

        def off_zero(found, part, knots):
            # cleared where no argument may vanish (NaN compares False), and
            # where f or phi is not proved defined
            clear = np.all([(lo > 0) | (hi < 0) for lo, hi in found], axis=0)
            return clear | (defined[knots] != 1), np.zeros((knots.size, 0))

        def crossing(points, knots):
            # one evaluation: the points, then their knots' candidate points
            env = {name: np.concatenate([points[name], at[name][knots]]) for name in at}
            s = np.sign([np.broadcast_to(a.ev(env), env["t"].shape) for a in args])
            bad = np.any((s[:, :knots.size] == 0) | (s[:, :knots.size] != s[:, knots.size:]),
                         axis=0)
            return int(np.argmax(bad)) if np.any(bad) else -1

        state = _bisect(args, box, off_zero, meets, crossing)[0]
        if np.any(state == -1):
            verdicts[cont] = "fail"
            witnesses[cont] = at_candidate(int(np.argmax(state == -1)))
        elif np.any(state == 0):
            verdicts[cont] = "undetermined"
            notes.append(f"{cont}: sign arguments not cleared of 0 on the tube at "
                         f"{np.sum(state == 0)} knot(s), the first at "
                         f"t={grid[np.argmax(state == 0)]:.6g}")
    notes.append(f"{cont}: measurability in t assumed (not checkable numerically)")

    # ---- constraint data (uniform mode only; the weak track carries none):
    # the constraint bound, and the Lipschitz bound of the constraint
    # gradients (from g_xx) damped by the space weight
    if not weak and prob.l == 0:
        verdicts["A3"] = "vacuous"
    elif not weak:
        second = [d.diff(x) for d in flat(prob.g_x) for x in moved]
        rows, state = settle("A3", "constraint data", [*prob.g, *flat(prob.g_x), *second],
                             growth_bound(prob.g), 0)
        if np.any(state == -1):
            verdicts["A3"] = "fail"
        elif np.any(state == 0):
            verdicts["A3"] = "undetermined"
        else:
            per_time = rows[:, 0]
            lip_per_time = np.asarray(prob.nu(grid), dtype=float) * rows[:, 1]
            cg, g_growing = _window_growth(grid, per_time)
            cl, l_growing = _window_growth(grid, lip_per_time)
            if g_growing or l_growing or not np.isfinite(cg) or not np.isfinite(cl):
                k = int(np.argmax(per_time if g_growing else lip_per_time))
                verdicts["A3"] = "fail"
                witnesses["A3"] = (float(grid[k]), tuple(x_star[k]), None)
                notes.append("A3: constraint constants still rising at the horizon")
            else:
                verdicts["A3"] = "pass"
                notes.append(f"A3: constraint bound {cg:.4g}, "
                             f"weighted gradient Lipschitz {cl:.4g}")
    elif prob.l > 0:
        notes.append("state constraints are outside the weak-mode audit and were ignored")

    return AssumptionReport(mode=mode, verdicts=verdicts, witnesses=witnesses, C0=float(C0),
                            L_values=L_values, L_partials=L_partials, L_verdict=L_verdict,
                            weight_reports=reports, notes=tuple(notes))


# --------------------------------------------------------------------------
# active constraints and the separation condition


@dataclass(frozen=True)
class ActiveSet:
    """Active constraint indices (1-based) with their active-time samples."""

    I: tuple
    times: dict
    peak: dict


def active_indices(prob: ControlProblem, cand: CandidateProcess) -> ActiveSet:
    """Classify each constraint as active, slack, or violated on the grid.

    A constraint is active when its maximum over the grid sits within
    ``_ACTIVE_TOL`` of zero; beyond ``+_ACTIVE_TOL`` the candidate is
    infeasible and that is an error, not a verdict.
    """
    if prob.l == 0:
        return ActiveSet((), {}, {})
    gv = prob.g_value(cand.grid, cand.x)  # (N, l)
    active = []
    times: dict[int, np.ndarray] = {}
    peak: dict[int, float] = {}
    for j in range(prob.l):
        col = gv[:, j]
        top = float(np.max(col))
        peak[j + 1] = top
        if top > _ACTIVE_TOL:
            k = int(np.argmax(col))
            raise InfeasibleState(j + 1, cand.grid[k], top)
        if top >= -_ACTIVE_TOL:
            active.append(j + 1)
            times[j + 1] = cand.grid[np.abs(col) <= _ACTIVE_TOL]
    return ActiveSet(tuple(active), times, peak)


@dataclass(frozen=True)
class SlaterReport:
    """Interior-point evidence for every active constraint."""

    verdicts: dict
    witnesses: dict

    @property
    def passed(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())


def slater_check(prob: ControlProblem, cand: CandidateProcess,
                 active: ActiveSet) -> SlaterReport:
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
        if col[k] < -_ACTIVE_TOL:
            verdicts[j] = "pass"
            witnesses[j] = (float(cand.grid[k]), float(col[k]))
        else:
            verdicts[j] = "fail"
    return SlaterReport(verdicts, witnesses)


# --------------------------------------------------------------------------
# the problem-definition file format


# The keys each section takes; ``<i>`` stands for a component index 1, 2, ...
_KEYS = {
    "problem": "n|m|x0|sense|p",
    "dynamics": "phi<i>",
    "objective": "f|omega",
    "space": "nu|eta",
    "controls": "u<i>|convex",
    "constraints": "g<i>",
}
_FAMILIES = {"exp_decay": exp_decay, "power": power, "weibull": weibull}


def _number(text: str, line: int, what: str, infinite: bool = False) -> float:
    """Read one float; NaN never passes, and +-inf only where ``infinite``."""
    try:
        value = float(text)
    except ValueError:
        raise ProblemSyntaxError(f"bad {what} {text.strip()!r}", line) from None
    if np.isnan(value) or (np.isinf(value) and not infinite):
        raise ProblemSyntaxError(f"{what} must be {'a number, not NaN' if infinite else 'finite'}"
                                 f", got {text.strip()!r}", line)
    return value


def _parse_weight(text: str, line: int) -> WeightSpec:
    """Parse a weight literal: a named family or an expression with options."""
    words = text.split()
    if words and words[0] in _FAMILIES:
        if len(words) != 2:
            raise ProblemSyntaxError(f"{words[0]} needs one parameter", line)
        try:
            return _FAMILIES[words[0]](_number(words[1], line, f"{words[0]} parameter"))
        except InvalidExponent as err:
            raise ProblemSyntaxError(str(err), line) from None
    # a weight body may only use t, so the words tail and pole cannot occur in it
    head, *options = re.split(r"\b(tail|pole)\b", text)
    head = head.rstrip()
    if not (head.startswith("expr(") and head.endswith(")")):
        raise ProblemSyntaxError(
            f"unknown weight literal {text!r} (expected exp_decay a, power a, weibull k "
            f"or expr(<t-expression>) [tail <T-expression>] [pole <number>])", line)
    named = dict(zip(options[::2], options[1::2]))
    if len(named) < len(options) // 2:
        raise ProblemSyntaxError("a weight option is given twice", line)
    tail = pole = None
    if "pole" in named:
        pole = _number(named["pole"], line, "pole exponent")
    try:
        if "tail" in named:
            tail_expr = _parse_expr(named["tail"], line)
            _check_variables([tail_expr], {"t"}, "tail bound")
            tail = lambda T, e=tail_expr: float(e.ev({"t": float(T)}))
        return from_expression(head[5:-1], tail_bound=tail, pole_exp=pole)
    except (ExpressionSyntaxError, UnknownIdentifier) as err:
        raise ProblemSyntaxError(f"bad weight expression: {err}", line) from None


def _parse_bounds(text: str, line: int) -> tuple[float, float, bool, bool]:
    parts = text[1:-1].split(",")
    if len(text) < 2 or text[0] not in "([" or text[-1] not in ")]" or len(parts) != 2:
        raise ProblemSyntaxError(
            f"control bounds must look like [lo, hi] or (lo, hi), got {text!r}", line
        )
    lo, hi = (_number(part, line, "control bound", infinite=True) for part in parts)
    return lo, hi, text[0] == "(", text[-1] == ")"


def _parse_expr(text: str, line: int) -> Expression:
    try:
        return parse_expression(text)
    except ExpressionSyntaxError as err:
        raise ProblemSyntaxError(str(err), line, err.column) from None


def parse_problem(source: str) -> ControlProblem:
    """Build a ControlProblem from its definition text.

    The format is line-based: ``[section]`` headers followed by
    ``key = value`` entries.  ``#`` starts a comment, and section names
    and keys ignore case.  A key may appear once per section; a section
    may be reopened.  The sections and their keys::

        [problem]      n = <integer >= 1>        states
                       m = <integer >= 1>        controls
                       x0 = <n numbers>          separated by spaces or commas
                       sense = min|max           default min
                       p = <number>              space exponent, default 2
        [dynamics]     phi1 .. phin = <expression in t, x1..xn, u1..um>
        [objective]    f = <expression in t, x1..xn, u1..um>
                       omega = <weight>          the density
        [space]        nu = <weight>             the space weight
                       eta = <weight>            optional tube radius
        [controls]     ui = [lo, hi] | (lo, hi) | [lo, hi) | (lo, hi]
                       convex = true|false       default true
        [constraints]  g1 .. gl = <expression in t, x1..xn>, meaning g <= 0

    A weight is one of ``exp_decay a`` (e^(-a t), a > 0), ``power a``
    ((1+t)^(-a), a > 0), ``weibull k`` (t^(k-1) e^(-t^k), 0 < k <= 1), or
    ``expr(<t-expression>) [tail <T-expression>] [pole <number>]``.  The
    options may come in either order, each at most once: ``tail`` bounds
    the mass beyond T (written in the variable t), and ``pole`` declares
    the power of t at 0.  ``[problem]``, ``[dynamics]``, ``[objective]``
    and ``[space]`` are required.  A control without a ``ui`` entry is
    unbounded, and bounds may be ``inf`` or ``-inf``; every other number
    outside an expression must be finite.  Maximization is normalized away
    here by negating the integrand.
    """
    entries: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _KEYS}
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
            section = text[1:-1].strip().lower()
            if section not in _KEYS:
                raise ProblemSyntaxError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ProblemSyntaxError("content before any [section] header", lineno)
        key, equals, value = text.partition("=")
        key = key.strip().lower()
        if not equals:
            raise ProblemSyntaxError("expected key = value", lineno)
        if not re.fullmatch(_KEYS[section].replace("<i>", "[1-9][0-9]*"), key):
            raise ProblemSyntaxError(
                f"unknown key in [{section}]: expected {_KEYS[section]}, found {key!r}", lineno)
        if key in entries[section]:
            raise ProblemSyntaxError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[section][key] = (value.strip(), lineno)

    for sec in ("problem", "dynamics", "objective", "space"):
        if sec not in headers:
            raise ProblemSyntaxError(f"missing required section [{sec}]",
                                     max(1, len(lines)))

    def need(section: str, key: str) -> tuple[str, int]:
        if key not in entries[section]:
            raise ProblemSyntaxError(f"missing key {key!r} in [{section}]",
                                     headers[section])
        return entries[section][key]

    def components(section: str, stem: str, count: int) -> tuple:
        """The expressions ``stem1..stem<count>``, which are the section's keys."""
        for key, (_, line) in entries[section].items():
            if int(key[len(stem):]) > count:
                raise ProblemSyntaxError(f"[{section}] needs {stem}1..{stem}{count} "
                                         f"numbered consecutively, found {key!r}", line)
        return tuple(_parse_expr(*need(section, f"{stem}{i}")) for i in range(1, count + 1))

    dims = []
    for key in ("n", "m"):
        text, line = need("problem", key)
        value = _number(text, line, key)
        if value < 1 or not value.is_integer():
            raise ProblemSyntaxError(f"{key} must be a positive integer, got {text!r}", line)
        dims.append(int(value))
    n, m = dims
    text, line = need("problem", "x0")
    x0 = np.array([_number(v, line, "x0 entry") for v in text.replace(",", " ").split()])
    if x0.size != n:
        raise DimensionMismatch(f"x0 has {x0.size} entries, n={n} (line {line})")
    sense, line = entries["problem"].get("sense", ("min", 0))
    if sense.lower() not in ("min", "max"):
        raise ProblemSyntaxError(f"sense must be min or max, got {sense!r}", line)
    p_exp = _number(*entries["problem"].get("p", ("2", 0)), "space exponent")

    phi = components("dynamics", "phi", n)
    f = _parse_expr(*need("objective", "f"))
    negated = sense.lower() == "max"
    omega = _parse_weight(*need("objective", "omega"))
    nu = _parse_weight(*need("space", "nu"))
    eta = _parse_weight(*entries["space"]["eta"]) if "eta" in entries["space"] else None

    lo, hi = np.full(m, -np.inf), np.full(m, np.inf)
    olo, ohi = np.ones(m, dtype=bool), np.ones(m, dtype=bool)
    convex, line = entries["controls"].get("convex", ("true", 0))
    if convex.lower() not in ("true", "false"):
        raise ProblemSyntaxError(f"convex must be true or false, got {convex!r}", line)
    for key, (value, line) in entries["controls"].items():
        if key != "convex":
            i = int(key[1:])
            if i > m:
                raise ProblemSyntaxError(f"control index {key!r} out of range (m={m})", line)
            lo[i - 1], hi[i - 1], olo[i - 1], ohi[i - 1] = _parse_bounds(value, line)
    try:
        U = ControlBox(lo, hi, olo, ohi, convex=convex.lower() == "true")
    except ValueError as err:
        raise ProblemSyntaxError(str(err), headers["controls"]) from None

    g = components("constraints", "g", len(entries["constraints"]))
    return ControlProblem(
        n=n, m=m, f=Neg(f) if negated else f, phi=phi, x0=x0, omega=omega, nu=nu, U=U,
        p_exp=p_exp, g=g, eta=eta, negated=negated,
    )

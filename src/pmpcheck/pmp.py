"""Adjoint multipliers and the necessary-condition battery.

Everything here works with the running function

    H(t, x, u, p, l0) = -l0 * w(t) * f(t, x, u) + <p, phi(t, x, u)>

where ``w`` is the objective weight of the problem.  Along a candidate the
adjoint must satisfy ``p' = -phi_x^T p + l0 * w * f_x`` almost everywhere,
which is ``p' = -H_x``; the checks below never assume more smoothness than
continuity of ``p`` between measure atoms.

Two routes produce an adjoint, both from the same backward cell maps
``p(t_k) = P_k p(t_{k+1}) + q_k`` of the adjoint equation:

* :func:`adjoint_backward` runs the maps backward from a zero terminal
  condition, for any ``l0``;
* :func:`adjoint_representation` evaluates the normal-case formula
  ``p(t) = -Z(t) * integral_t^inf w(s) Z(s)^{-1} f_x(s) ds`` through the
  fundamental system ``Z' = -phi_x^T Z``, ``Z(0) = I``, whose inverse is
  the running product of the ``P_k``.

Since the routes share their discretisation, their agreement on the first
half of the horizon measures the terminal truncation and the conditioning
of ``Z``, not the integration error; :func:`verify_certificate` runs both
and reports the deviation.  The residual checks below measure the
integration error independently of the maps.

Each ``check_*`` function returns a :class:`ConditionRecord`.  A record
whose premise fails is marked ``not-applicable``, never ``pass``: the
verdicts state exactly what was established, nothing more.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .expressions import DomainError
from .integrate import (
    _GAUSS_B,
    _GAUSS_C,
    BlowUp,
    InvalidGrid,
    _linear_cell_maps,
    decays_to_zero,
    solve_ode,  # unused here, but perfbench/spans.py wraps pmp.solve_ode by name
    solve_state,
)
from .problem import (
    ActiveSet,
    CandidateProcess,
    ControlProblem,
    SlaterReport,
    active_indices,
    audit_assumptions,
    slater_check,
)

__all__ = [
    "AdjointSolution",
    "AtomOffActiveSet",
    "CertificateReport",
    "ConditionRecord",
    "DivergentTail",
    "IllConditioned",
    "UnboundedAbove",
    "adjoint_backward",
    "adjoint_from_function",
    "adjoint_representation",
    "check_adjoint_residual",
    "check_integral_adjoint",
    "check_maximum_condition",
    "check_michel",
    "check_normality",
    "check_transversality",
    "check_weak_inequality",
    "pontryagin_H",
    "pontryagin_H_u",
    "pontryagin_H_x",
    "verify_certificate",
]

_TINY = 1e-300


class UnboundedAbove(RuntimeError):
    """H grows without bound in an unbounded control direction."""

    def __init__(self, t: float, coordinate: int, direction: int):
        self.t = float(t)
        self.coordinate = int(coordinate)
        self.direction = int(direction)
        arrow = "+" if direction > 0 else "-"
        super().__init__(
            f"H increases without bound in control coordinate "
            f"{coordinate + 1} toward {arrow}inf at t={t:.6g}"
        )


class AtomOffActiveSet(ValueError):
    """A measure atom sits where its constraint is inactive, or has bad mass."""

    def __init__(self, j: int, t: float, value: float, reason: str = ""):
        self.j = int(j)
        self.t = float(t)
        self.value = float(value)
        msg = reason or (
            f"constraint {j} is inactive at t={t:.6g} (value {value:.3g}), "
            "but a measure atom was placed there"
        )
        super().__init__(msg)


class DivergentTail(RuntimeError):
    """The representation integrand keeps accumulating mass at the horizon."""


class IllConditioned(RuntimeError):
    """The fundamental system cannot be inverted reliably."""


# --------------------------------------------------------------------------
# adjoint solutions


@dataclass(frozen=True, eq=False)
class AdjointSolution:
    """A multiplier pair (lambda0, p) sampled on a grid.

    ``measures`` optionally attaches finite atom lists per state
    constraint, keyed by the 1-based constraint index; each atom is a
    ``(time, mass)`` pair with nonnegative mass.  Between atoms ``p`` is
    treated as continuous, so :meth:`value` interpolates linearly; grid
    samples follow the left-continuity convention, meaning the sample at
    an atom's time already includes the atom's contribution.
    """

    grid: np.ndarray
    p: np.ndarray
    lambda0: float
    route: str
    measures: Mapping[int, tuple] | None = None
    p_callable: Callable | None = None
    terminal_error: float | None = None
    tail_error: float | None = None
    ill_conditioned: bool = False
    notes: tuple = ()

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise InvalidGrid("adjoint grid must be strictly increasing")
        p = np.asarray(self.p, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if p.shape[0] != grid.size:
            raise InvalidGrid(
                f"adjoint has {p.shape[0]} samples on a grid of {grid.size} knots"
            )
        if self.lambda0 < 0:
            raise ValueError(f"lambda0 must be nonnegative, got {self.lambda0!r}")
        if self.measures:
            for j, atoms in self.measures.items():
                for t_a, mass in atoms:
                    if mass < 0:
                        raise AtomOffActiveSet(
                            j, t_a, mass,
                            f"atom of constraint {j} at t={t_a:.6g} has negative "
                            f"mass {mass:.3g}; measure multipliers are nonnegative",
                        )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lambda0", float(self.lambda0))

    @property
    def n(self) -> int:
        return self.p.shape[1]

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.p, axis=1)))

    @property
    def nontrivial(self) -> bool:
        """Multiplier nontriviality: lambda0, p and the measures not all zero."""
        if self.lambda0 > 0 or self.sup_norm > 0:
            return True
        if self.measures:
            return any(mass > 0 for atoms in self.measures.values()
                       for _, mass in atoms)
        return False

    def value(self, t) -> np.ndarray:
        """Adjoint at arbitrary times (closed form when attached)."""
        t_arr = np.asarray(t, dtype=float)
        if self.p_callable is not None:
            out = np.asarray(self.p_callable(t_arr), dtype=float)
            if out.shape == t_arr.shape and self.n == 1:
                out = out[..., None]
            return out
        cols = [np.interp(t_arr, self.grid, self.p[:, i]) for i in range(self.n)]
        return np.stack(cols, axis=-1)


def adjoint_from_function(grid, p_fn: Callable, lambda0: float = 1.0,
                          measures: Mapping[int, tuple] | None = None,
                          route: str = "user") -> AdjointSolution:
    """Wrap a closed-form adjoint into an :class:`AdjointSolution`."""
    grid = np.asarray(grid, dtype=float)
    p = np.asarray(p_fn(grid), dtype=float)
    if p.ndim == 1:
        p = p[:, None]
    return AdjointSolution(grid=grid, p=p, lambda0=lambda0, route=route,
                           measures=measures, p_callable=p_fn)


# --------------------------------------------------------------------------
# the running function and its partials


def pontryagin_H(prob: ControlProblem, t, x, u, p, lambda0: float):
    """H(t,x,u,p,l0) = -l0*w(t)*f + <p, phi>, batched over leading axes."""
    return _hamiltonian(prob, np.asarray(prob.omega(t), dtype=float), t, x, u, p, lambda0)


def _hamiltonian(prob: ControlProblem, w, t, x, u, p, lambda0: float):
    """:func:`pontryagin_H` with the weight ``w = omega(t)`` already evaluated."""
    f = prob.f_value(t, x, u)
    phi = prob.phi_value(t, x, u)
    pv = np.asarray(p, dtype=float)
    return -lambda0 * w * f + np.einsum("...n,...n->...", pv, phi)


def pontryagin_H_x(prob: ControlProblem, t, x, u, p, lambda0: float) -> np.ndarray:
    """State gradient of H; the adjoint equation reads p' = -H_x."""
    w = np.asarray(prob.omega(t), dtype=float)
    fx = prob.f_grad_x(t, x, u)
    A = prob.phi_jac_x(t, x, u)
    pv = np.asarray(p, dtype=float)
    return -lambda0 * w[..., None] * fx + np.einsum("...nm,...n->...m", A, pv)


def pontryagin_H_u(prob: ControlProblem, t, x, u, p, lambda0: float) -> np.ndarray:
    """Control gradient of H, used by the weak-route inequality."""
    w = np.asarray(prob.omega(t), dtype=float)
    fu = prob.f_grad_u(t, x, u)
    B = prob.phi_jac_u(t, x, u)
    pv = np.asarray(p, dtype=float)
    return -lambda0 * w[..., None] * fu + np.einsum("...nm,...n->...m", B, pv)


# --------------------------------------------------------------------------
# the adjoint routes, both built from one set of backward cell maps

_BLOWUP = 1e12  # largest backward adjoint norm before BlowUp
_Y_LIMIT = 1e290  # largest inverse fundamental system norm before IllConditioned
_COND_LIMIT = 1e12  # condition number from which representation values are flagged


def _adjoint_cell_maps(prob: ControlProblem, cand: CandidateProcess,
                       grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell maps p(t_k) = P_k p(t_{k+1}) + q_k of p' = -phi_x^T p + w f_x."""

    def coef(ts):
        x, u = cand.state(ts), cand.control(ts)
        A = prob.phi_jac_x(ts, x, u)
        w = np.asarray(prob.omega(ts), dtype=float)
        return -np.swapaxes(A, -1, -2), w[:, None] * prob.f_grad_x(ts, x, u)

    return _linear_cell_maps(coef, grid[1:], grid[:-1])


def adjoint_backward(prob: ControlProblem, cand: CandidateProcess,
                     lambda0: float = 1.0,
                     t_end: float | None = None) -> AdjointSolution:
    """Integrate p' = -phi_x^T p + l0*w*f_x backward from p(T) = 0.

    ``t_end`` defaults to 80% of the candidate horizon; the truncation
    error is estimated by re-running from a terminal point at 80% of
    ``t_end`` and taking the largest deviation over the first half of the
    shorter run.  A :class:`~pmpcheck.integrate.BlowUp` here means the
    adjoint equation is unstable in reverse time; the representation
    route does not suffer from that and should be tried instead.
    """
    grid = cand.grid
    T = float(t_end) if t_end is not None else 0.8 * float(grid[-1])
    if not grid[0] < T <= grid[-1]:
        raise InvalidGrid(f"terminal time {T:g} outside the candidate grid")
    k_main = int(np.searchsorted(grid, T, side="right")) - 1
    if k_main < 1:
        raise InvalidGrid(f"terminal time {T:g} leaves no room to integrate")
    P, q = _adjoint_cell_maps(prob, cand, grid[: k_main + 1])

    def run(k_term: int) -> np.ndarray:
        p = np.zeros((k_term + 1, prob.n))
        for k in range(k_term - 1, -1, -1):
            p[k] = P[k] @ p[k + 1] + lambda0 * q[k]
            norm = float(np.max(np.abs(p[k])))
            if not norm <= _BLOWUP:
                raise BlowUp(grid[k], norm, _BLOWUP)
        return p

    p_main = run(k_main)
    k_short = int(np.searchsorted(grid, 0.8 * grid[k_main], side="right")) - 1
    terminal_error = None
    if k_short >= 1:
        p_short = run(k_short)
        k_half = max(1, int(np.searchsorted(grid, 0.5 * grid[k_short], side="right")) - 1)
        diff = p_main[: k_half + 1] - p_short[: k_half + 1]
        terminal_error = float(np.max(np.linalg.norm(diff, axis=1)))

    return AdjointSolution(grid=grid[: k_main + 1], p=p_main, lambda0=lambda0,
                           route="backward-ode", terminal_error=terminal_error)


def adjoint_representation(prob: ControlProblem,
                           cand: CandidateProcess) -> AdjointSolution:
    """Evaluate p(t) = -Z(t) * integral_t^T w Z^{-1} f_x ds with a tail bound.

    The backward cell maps ``p(t_k) = P_k p(t_{k+1}) + q_k`` of the adjoint
    equation carry the whole formula: the inverse fundamental system
    Y = Z^{-1} composes as ``Y_{k+1} = Y_k P_k``, and a cell's share of the
    integral is ``-Y_k q_k``.  The shares are summed right to left into the
    remaining mass, so no accumulated value ever has to be differenced.
    The mass beyond the grid horizon is estimated geometrically from the
    last two octave windows; if those windows do not shrink the formula
    has no usable limit and :class:`DivergentTail` is raised.
    """
    grid = cand.grid
    n = prob.n
    unusable = "the representation formula is numerically unusable here"
    try:
        P, q = _adjoint_cell_maps(prob, cand, grid)
    except BlowUp as e:
        raise IllConditioned(f"{e}; {unusable}") from e
    Y = np.empty((grid.size, n, n))
    Y[0] = np.eye(n)
    for k in range(grid.size - 1):
        Y[k + 1] = Y[k] @ P[k]
        if not np.max(np.abs(Y[k + 1])) <= _Y_LIMIT:
            raise IllConditioned(
                f"fundamental system overflows at t={grid[k + 1]:.6g}; {unusable}")

    shares = -np.einsum("kij,kj->ki", Y[:-1], q)
    rem = np.vstack((np.cumsum(shares[::-1], axis=0)[::-1], np.zeros((1, n))))
    v_scale = float(np.max(np.linalg.norm(rem[0] - rem, axis=1)))

    # tail beyond the horizon: compare the mass gained over [T/4, T/2] with
    # the mass gained over [T/2, T]; geometric decay bounds the remainder
    # by the last gain times q/(1-q)
    T = grid[-1]
    k_q = int(np.searchsorted(grid, T / 4))
    k_h = int(np.searchsorted(grid, T / 2))
    d1 = float(np.linalg.norm(rem[k_q] - rem[k_h]))
    d2 = float(np.linalg.norm(rem[k_h]))
    notes: list[str] = []
    if d2 <= 1e-12 * (1.0 + v_scale):
        tail_mass = d2
    else:
        ratio = d2 / max(d1, _TINY)
        if ratio >= 0.9:
            raise DivergentTail(
                f"running integral still grows at the horizon: last octave "
                f"gained {d2:.3g} after {d1:.3g} (ratio {ratio:.3g})"
            )
        tail_mass = d2 * ratio / (1.0 - ratio)
        notes.append(
            f"tail mass beyond t={T:g} estimated at {tail_mass:.3g}; the "
            "induced adjoint error starts at that size and scales with the "
            "fundamental system toward the horizon")

    cond = np.linalg.cond(Y)
    ill = bool(np.any(cond > _COND_LIMIT))
    if ill:
        k = int(np.argmax(cond > _COND_LIMIT))
        notes.append(
            f"fundamental system condition number exceeds {_COND_LIMIT:.1g} "
            f"from t={grid[k]:.6g}; adjoint values there are unreliable"
        )

    try:
        p = -np.linalg.solve(Y, rem[..., None])[..., 0]
    except np.linalg.LinAlgError as e:
        k = int(np.argmax(cond >= 1.0 / np.finfo(float).eps))
        raise IllConditioned(
            f"fundamental system is singular at t={grid[k]:.6g}; {unusable}") from e

    return AdjointSolution(grid=grid, p=p, lambda0=1.0, route="representation",
                           tail_error=float(tail_mass), ill_conditioned=ill,
                           notes=tuple(notes))


# --------------------------------------------------------------------------
# condition records


@dataclass(frozen=True)
class ConditionRecord:
    """Outcome of a single necessary-condition check.

    ``verdict`` is ``pass``, ``fail`` or ``not-applicable``; the last one
    is used when ``premise_ok`` is False and means the condition asserts
    nothing here.  ``series`` (with ``series_grid``) keeps the residual
    time profile for reporting.
    """

    name: str
    verdict: str
    residual: float | None = None
    tolerance: float | None = None
    premise: str | None = None
    premise_ok: bool | None = None
    witnesses: tuple = ()
    notes: tuple = ()
    series_grid: np.ndarray | None = field(default=None, repr=False)
    series: np.ndarray | None = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _adjoint_cell_integrals(prob, cand, adj, p_start=None):
    """Per-cell integrals of the adjoint right-hand side -H_x.

    The integrals use a 7-point Gauss rule on a cubic Hermite
    reconstruction of p inside each cell, so smooth closed-form triples
    resolve to O(h^4) per unit length.  End slopes that are not finite
    (weight poles) fall back to the cell secant.  ``p_start`` optionally
    replaces the values used at the left ends of cells: with measure atoms
    the stored samples are left limits, and a cell starting at an atom
    must open at the right limit.
    """
    grid, p, lam = adj.grid, adj.p, adj.lambda0
    x, u = cand.state(grid), cand.control(grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d_end = -pontryagin_H_x(prob, grid, x, u, p, lam)
        if p_start is None:
            p_start, d_start = p, d_end
        else:
            d_start = -pontryagin_H_x(prob, grid, x, u, p_start, lam)
    a, b, h = p_start[:-1], p[1:], np.diff(grid)[:, None]
    secant = (b - a) / h
    d0 = np.where(np.isfinite(d_start[:-1]), d_start[:-1], secant)
    d1 = np.where(np.isfinite(d_end[1:]), d_end[1:], secant)
    tau = _GAUSS_C
    # the cubic Hermite basis at the nodes, paired with (a, h d0, b, h d1)
    basis = np.array([2 * tau**3 - 3 * tau**2 + 1, tau**3 - 2 * tau**2 + tau,
                      3 * tau**2 - 2 * tau**3, tau**3 - tau**2])
    ph = np.einsum("jq,jkn->kqn", basis, np.array((a, h * d0, b, h * d1)))
    flat_t = (grid[:-1, None] + h * tau).ravel()
    xq, uq = cand.state(flat_t), cand.control(flat_t)
    hx = pontryagin_H_x(prob, flat_t, xq, uq, ph.reshape(-1, adj.n), lam)
    return -h * np.einsum("kqn,q->kn", hx.reshape(ph.shape), _GAUSS_B)


def _residual_record(name, adj, defect, where, tol, notes) -> ConditionRecord:
    """A residual record: ``defect`` per point of ``where``, over sup |p|."""
    series = defect / max(adj.sup_norm, _TINY)
    worst = int(np.argmax(series))
    residual = float(series[worst])
    return ConditionRecord(
        name=name, verdict="pass" if residual <= tol else "fail",
        residual=residual, tolerance=tol,
        witnesses=((float(where[worst]), residual),), notes=tuple(notes),
        series_grid=where, series=series)


def check_adjoint_residual(prob: ControlProblem, cand: CandidateProcess,
                           adj: AdjointSolution, tol: float = 1e-6) -> ConditionRecord:
    """Defect of p' = -phi_x^T p + l0*w*f_x, cell by cell.

    The residual is the worst cell value of ``|dp - integral of the
    right-hand side| / width``, divided by the largest adjoint norm so the
    number is scale-free.  An identically zero multiplier produces a zero
    residual; nontriviality is a separate invariant and only noted here.
    """
    cells = _adjoint_cell_integrals(prob, cand, adj)
    grid, p = adj.grid, adj.p
    defect = np.linalg.norm(p[1:] - p[:-1] - cells, axis=1) / np.diff(grid)
    notes = []
    if not adj.nontrivial:
        notes.append("multiplier is trivial (lambda0 = 0 and p = 0): the zero "
                     "residual is vacuous")
    return _residual_record("adjoint_residual", adj, defect,
                            0.5 * (grid[:-1] + grid[1:]), tol, notes)


def check_integral_adjoint(prob: ControlProblem, cand: CandidateProcess,
                           adj: AdjointSolution, tol: float = 1e-6,
                           activity_tol: float = 1e-8) -> ConditionRecord:
    """Residual of the integral form of the adjoint relation.

    At every knot the sample must equal the terminal sample plus the
    remaining integral of H_x minus the jump contributions of all measure
    atoms at or after that knot, each worth ``nu(t_a) g_jx(t_a) * mass``.
    Without constraints the check degenerates to the integrated adjoint
    equation.  Atoms must sit on the active set of their constraint.
    """
    grid, p, lam = adj.grid, adj.p, adj.lambda0
    atom_sum = np.zeros_like(p)
    jumps = np.zeros_like(p)
    T = grid[-1]
    notes = []
    if adj.measures:
        for j, atoms in adj.measures.items():
            if not 1 <= j <= prob.l:
                raise AtomOffActiveSet(
                    j, 0.0, 0.0,
                    f"measure refers to constraint {j}, but the problem has "
                    f"{prob.l} state constraints")
            for t_a, mass in atoms:
                gval = float(prob.g_value(t_a, cand.state(t_a))[j - 1])
                if abs(gval) > activity_tol:
                    raise AtomOffActiveSet(j, t_a, gval)
                if t_a >= T - 1e-12 * (1.0 + T):
                    continue  # folded into the terminal sample already
                nu_g = float(prob.nu(t_a)) * prob.g_jac_x(t_a, cand.state(t_a))[j - 1]
                # the atom acts as a step: snap it to the nearest knot so the
                # cell reconstruction can open at the post-jump value
                k_a = int(np.argmin(np.abs(grid - t_a)))
                if abs(grid[k_a] - t_a) > 1e-9 * (1.0 + abs(t_a)):
                    notes.append(
                        f"atom at t={t_a:.6g} is off-grid; treated as sitting "
                        f"at the nearest knot t={grid[k_a]:.6g}")
                atom_sum[: k_a + 1] += mass * nu_g
                jumps[k_a] += mass * nu_g

    cells = _adjoint_cell_integrals(prob, cand, adj, p_start=p + jumps)
    # p' = -H_x between atoms, so the H_x cell masses are the negated cells;
    # sum them into the remaining integral from each knot to the terminal knot
    tail_int = np.vstack((np.cumsum(-cells[::-1], axis=0)[::-1],
                          np.zeros((1, adj.n))))
    model = p[-1][None, :] + tail_int - atom_sum
    if prob.l == 0:
        notes.append("no state constraints: this is the integrated form of "
                     "the adjoint equation")
    return _residual_record("integral_adjoint_residual", adj,
                            np.linalg.norm(p - model, axis=1), grid, tol, notes)


# --------------------------------------------------------------------------
# pointwise maximality of H over the control set


def _expr_is_zero(e) -> bool:
    return not e.variables() and float(np.asarray(e.ev({}), dtype=float)) == 0.0


def _u_free(e, controls: set) -> bool:
    return not (e.variables() & controls)


# The control search below varies u at fixed times, so the weight w =
# omega(ts) is evaluated once per search and handed down.


def _h_of_u(prob, w, ts, xs, ps, lam, base_u, i, col):
    u = base_u.copy()
    u[:, i] = col
    return _hamiltonian(prob, w, ts, xs, u, ps, lam)


def _golden_max(prob, w, ts, xs, ps, lam, base_u, i, a, b, iters: int = 60):
    """Vectorized golden-section maximization of H along one coordinate."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a = a.astype(float).copy()
    b = b.astype(float).copy()
    for _ in range(iters):
        span = b - a
        c = b - inv * span
        d = a + inv * span
        hc = _h_of_u(prob, w, ts, xs, ps, lam, base_u, i, c)
        hd = _h_of_u(prob, w, ts, xs, ps, lam, base_u, i, d)
        take = hc < hd
        a = np.where(take, c, a)
        b = np.where(take, b, d)
    mid = 0.5 * (a + b)
    return mid, _h_of_u(prob, w, ts, xs, ps, lam, base_u, i, mid)


def _coordinate_probes(box, i, u_col):
    """Sorted per-knot probe columns spanning coordinate i of the box.

    Open finite faces are approached but never touched: integrands like
    log(1-u) are legal on the open set and must not be evaluated on its
    boundary.  The supremum is still resolved because the probes come
    within 2^-10 of the face and golden refinement works inside them.
    """
    lo, hi = box.lo[i], box.hi[i]
    nk = u_col.size
    f_lo = 1.0 - 2.0 ** -10 if box.open_lo[i] else 1.0
    f_hi = 1.0 - 2.0 ** -10 if box.open_hi[i] else 1.0
    blocks = []
    if np.isfinite(lo) and np.isfinite(hi):
        span = np.linspace(0.0, 1.0, 33)
        for s in span:
            val = lo + s * (hi - lo)
            if s == 0.0:
                val = hi - f_lo * (hi - lo)
            if s == 1.0:
                val = lo + f_hi * (hi - lo)
            blocks.append(np.full(nk, val))
        return blocks, False, False
    step = 1.0 + np.abs(u_col)
    down = not np.isfinite(lo)
    up = not np.isfinite(hi)
    if down:
        for j in range(16, -1, -1):
            blocks.append(u_col - 2.0 ** j * step)
    else:
        start = u_col - f_lo * (u_col - lo)
        for frac in np.linspace(0.0, 1.0, 9)[:-1]:
            blocks.append(start + frac * (u_col - start))
    blocks.append(u_col.copy())
    if up:
        for j in range(17):
            blocks.append(u_col + 2.0 ** j * step)
    else:
        for frac in np.linspace(0.0, 1.0, 9)[1:]:
            blocks.append(u_col + f_hi * frac * (hi - u_col))
    return blocks, down, up


def _max_condition_sampler(prob, w, ts, xs, us, ps, lam, h_star, tol):
    """Prescan plus golden refinement, one coordinate sweep at a time."""
    box = prob.U
    best_u = us.copy()
    h_best = h_star.copy()
    sweeps = 1 if prob.m == 1 else 2
    margin = tol * (1.0 + np.abs(h_star)) + 1e-12
    for _ in range(sweeps):
        for i in range(prob.m):
            cols, open_down, open_up = _coordinate_probes(box, i, best_u[:, i])
            hmat = np.empty((len(cols), ts.size))  # filled row by row: no list of rows
            for k, c in enumerate(cols):
                hmat[k] = _h_of_u(prob, w, ts, xs, ps, lam, best_u, i, c)
            vmat = np.stack(cols)
            hmat[~np.isfinite(hmat)] = -np.inf
            k_best = np.argmax(hmat, axis=0)
            idx = np.arange(ts.size)
            # escape toward an unbounded end: the best probe sits at the
            # outermost ring and H is still climbing there
            if open_down:
                at_edge = k_best == 0
                climbing = hmat[0] > hmat[1]
                worth = hmat[0] > h_star + margin
                bad = at_edge & climbing & worth
                if np.any(bad):
                    k = int(np.argmax(bad))
                    raise UnboundedAbove(float(ts[k]), i, -1)
            if open_up:
                at_edge = k_best == len(cols) - 1
                climbing = hmat[-1] > hmat[-2]
                worth = hmat[-1] > h_star + margin
                bad = at_edge & climbing & worth
                if np.any(bad):
                    k = int(np.argmax(bad))
                    raise UnboundedAbove(float(ts[k]), i, +1)
            lo_idx = np.maximum(k_best - 1, 0)
            hi_idx = np.minimum(k_best + 1, len(cols) - 1)
            a = vmat[lo_idx, idx]
            b = vmat[hi_idx, idx]
            u_ref, h_ref = _golden_max(prob, w, ts, xs, ps, lam, best_u, i, a, b)
            h_pre = hmat[k_best, idx]
            u_pre = vmat[k_best, idx]
            better = h_ref > h_pre
            new_col = np.where(better, u_ref, u_pre)
            new_h = np.where(better, h_ref, h_pre)
            improve = new_h > h_best
            best_u[:, i] = np.where(improve, new_col, best_u[:, i])
            h_best = np.where(improve, new_h, h_best)
    return best_u, h_best, "golden"


def _sup_over_u(prob, ts, xs, us, ps, lam, h_star, tol, sampler="auto"):
    """Maximize H over the control box, one vectorized pass per knot.

    ``us`` is a feasible starting guess and ``h_star`` its H value.  A
    single control entering H quadratically with strictly concave
    curvature is solved at the clamped stationary point; a purely linear
    H is settled at the box faces; everything else goes through the
    prescan-plus-golden sampler.  Returns the improved controls, their H
    values, and the method label.
    """
    method = "golden"
    w = np.asarray(prob.omega(ts), dtype=float)
    controls = {f"u{i + 1}" for i in range(prob.m)}
    if sampler == "auto" and prob.m == 1:
        fu = prob.f_u[0]
        fuu = prob.f_uu[0][0]  # one tree per problem, so it compiles once
        phi_u_exprs = [row[0] for row in prob.phi_u]
        phi_lin = all(_u_free(e, controls) for e in phi_u_exprs)
        if phi_lin and _u_free(fuu, controls):
            if _expr_is_zero(fuu) and _u_free(fu, controls):
                method = "vertex"
            elif lam > 0:
                method = "stationary"

    if method == "stationary":
        env = {"t": ts, "u1": us[:, 0], **{f"x{i + 1}": xs[:, i] for i in range(prob.n)}}
        fuu_vals = np.broadcast_to(np.asarray(fuu.ev(env), dtype=float), ts.shape)
        h_uu = -lam * w * fuu_vals
        if np.all(h_uu < 0):
            h_u = pontryagin_H_u(prob, ts, xs, us, ps, lam)[:, 0]
            u_stat = us[:, 0] - h_u / h_uu
            lo, hi = prob.U.lo[0], prob.U.hi[0]
            u_stat = np.clip(u_stat, lo, hi)
            h_at = _h_of_u(prob, w, ts, xs, ps, lam, us, 0, u_stat)
            h_best = np.maximum(h_at, h_star)
            best_u = us.copy()
            best_u[:, 0] = np.where(h_at >= h_star, u_stat, us[:, 0])
        else:
            method = "golden"
    if method == "vertex":
        h_u = pontryagin_H_u(prob, ts, xs, us, ps, lam)[:, 0]
        lo, hi = prob.U.lo[0], prob.U.hi[0]
        slope_scale = 1e-13 * (1.0 + np.abs(h_star))
        live = np.abs(h_u) > slope_scale
        if not np.isfinite(hi) and np.any(live & (h_u > 0)):
            k = int(np.argmax(live & (h_u > 0)))
            raise UnboundedAbove(float(ts[k]), 0, +1)
        if not np.isfinite(lo) and np.any(live & (h_u < 0)):
            k = int(np.argmax(live & (h_u < 0)))
            raise UnboundedAbove(float(ts[k]), 0, -1)
        target = np.where(h_u > 0, hi, lo)
        target = np.where(live, target, us[:, 0])
        h_at = _h_of_u(prob, w, ts, xs, ps, lam, us, 0, target)
        h_best = np.maximum(h_at, h_star)
        best_u = us.copy()
        best_u[:, 0] = np.where(h_at >= h_star, target, us[:, 0])
    if method == "golden":
        best_u, h_best, _ = _max_condition_sampler(
            prob, w, ts, xs, us, ps, lam, h_star, tol)
    return best_u, h_best, method


def check_maximum_condition(prob: ControlProblem, cand: CandidateProcess,
                            adj: AdjointSolution, tol: float = 1e-8,
                            sampler: str = "auto") -> ConditionRecord:
    """Gap between sup_u H and H at the candidate control, per knot.

    For a single control that enters H quadratically with strictly
    concave curvature, the interior stationary point is solved exactly
    (clamped to the box); a purely linear H is settled at the box faces.
    Everything else goes through a dense prescan with golden-section
    refinement per coordinate.  Knots where the weight is not finite (an
    integrable pole at 0) carry no pointwise information and are skipped.
    """
    if sampler not in ("auto", "grid"):
        raise ValueError(f"unknown sampler {sampler!r}")
    grid = adj.grid
    xs, us = cand.state(grid), cand.control(grid)
    ps, lam = adj.p, adj.lambda0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.asarray(prob.omega(grid), dtype=float)
    finite = np.isfinite(w)
    notes = []
    if not np.all(finite):
        notes.append(f"{int(np.sum(~finite))} knot(s) skipped: weight pole")
    ts, xs, us, ps = grid[finite], xs[finite], us[finite], ps[finite]
    if ts.size == 0:
        raise InvalidGrid("no knots with finite weight to check")
    h_star = pontryagin_H(prob, ts, xs, us, ps, lam)
    best_u, h_best, method = _sup_over_u(prob, ts, xs, us, ps, lam, h_star,
                                         tol, sampler)

    gaps = h_best - h_star
    rel = gaps / (1.0 + np.abs(h_star))
    worst = int(np.argmax(rel))
    residual = float(rel[worst])
    notes.append(f"inner maximization: {method}")
    return ConditionRecord(
        name="maximum_condition",
        verdict="pass" if residual <= tol else "fail",
        residual=residual,
        tolerance=tol,
        witnesses=((float(ts[worst]), float(gaps[worst]),
                    tuple(best_u[worst])),),
        notes=tuple(notes),
        series_grid=ts,
        series=gaps,
    )


def check_weak_inequality(prob: ControlProblem, cand: CandidateProcess,
                          adj: AdjointSolution, tol: float = 1e-8) -> ConditionRecord:
    """sup over the box of <H_u(t), u - u*(t)>, which must stay nonpositive.

    The functional is linear in u, so on a box the supremum splits per
    coordinate and is attained at a face.  A coordinate without a face
    (unbounded side) admits arbitrarily large excursions, so the condition
    degenerates to "the H_u component must vanish toward that side"; it is
    probed with a unit excursion scaled to the candidate control, which
    keeps the residual finite and comparable to the bounded case.
    """
    if not prob.U.convex:
        return ConditionRecord(
            name="weak_inequality", verdict="not-applicable",
            premise="control set must be convex", premise_ok=False,
            notes=("the control box was declared non-convex",))
    grid = adj.grid
    xs, us = cand.state(grid), cand.control(grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.asarray(prob.omega(grid), dtype=float)
    finite = np.isfinite(w)
    notes = []
    if not np.all(finite):
        notes.append(f"{int(np.sum(~finite))} knot(s) skipped: weight pole")
    ts, xs, us, ps = grid[finite], xs[finite], us[finite], adj.p[finite]
    hu = pontryagin_H_u(prob, ts, xs, us, ps, adj.lambda0)
    unit = 1.0 + np.abs(us)
    d_up = np.where(np.isfinite(prob.U.hi)[None, :],
                    prob.U.hi[None, :] - us, unit)
    d_dn = np.where(np.isfinite(prob.U.lo)[None, :],
                    prob.U.lo[None, :] - us, -unit)
    if not np.all(prob.U.bounded):
        notes.append("unbounded faces probed with a unit excursion; there "
                     "the condition reads H_u -> 0 toward that side")
    up = np.where(hu > 0, hu * d_up, 0.0)
    dn = np.where(hu < 0, hu * d_dn, 0.0)
    totals = np.sum(np.maximum(up, dn), axis=1)
    worst = int(np.argmax(totals))
    residual = float(totals[worst])
    h_scale = 1.0 + np.abs(pontryagin_H(prob, ts, xs, us, ps, adj.lambda0))
    ok = bool(np.all(totals <= tol * h_scale))
    return ConditionRecord(
        name="weak_inequality",
        verdict="pass" if ok else "fail",
        residual=residual,
        tolerance=tol,
        premise="control set is a convex box",
        premise_ok=True,
        witnesses=((float(ts[worst]), residual),),
        notes=tuple(notes),
        series_grid=ts,
        series=totals,
    )


# --------------------------------------------------------------------------
# behaviour at the horizon: transversality and the Michel condition


def _weight_ratio(num, den, power: float) -> tuple[Callable, bool]:
    """num(t)^power / den(t) as a callable, in log space when possible.

    Log space matters for limit questions probed far out: both factors can
    underflow to zero long before their ratio does anything sensible, and
    0/0 would silently report decay for a ratio that in fact explodes.
    With log values the horizon can be pushed to the limit-check depth
    used by the weight audits; the bool says whether that is safe.
    """
    ln_n = getattr(num, "log_value", None)
    ln_d = getattr(den, "log_value", None)
    if ln_n is not None and ln_d is not None:
        def ratio(ts):
            ts = np.asarray(ts, dtype=float)
            expo = power * np.asarray(ln_n(ts), dtype=float) \
                - np.asarray(ln_d(ts), dtype=float)
            with np.errstate(over="ignore"):
                return np.exp(expo)
        return ratio, True

    def ratio(ts):
        ts = np.asarray(ts, dtype=float)
        top = np.asarray(num(ts), dtype=float) ** power
        return top / np.maximum(np.asarray(den(ts), dtype=float), _TINY)
    return ratio, False


def _decay_flavor(prob: ControlProblem, mode: str) -> tuple[str, Callable]:
    if mode == "weak":
        return "|p(t)| -> 0", lambda pn, nu: pn
    if prob.p_exp == 2.0 and prob.l == 0:
        return "|p(t)|^2 / nu(t) -> 0", lambda pn, nu: pn ** 2 / nu
    return "|p(t)| / nu(t) -> 0", lambda pn, nu: pn / nu


def check_transversality(prob: ControlProblem, cand: CandidateProcess,
                         adj: AdjointSolution, mode: str = "strong",
                         test_functions: Sequence[tuple] | None = None,
                         tol: float = 1e-3) -> tuple[ConditionRecord, ConditionRecord]:
    """Pairing and decay records for the behaviour of p at the horizon.

    The pairing record checks ``<p(t), x(t)> -> 0`` for a finite battery of
    admissible trajectories: the candidate itself, a constant (admissible
    because qualified densities are integrable), and two probes of the form
    ``nu^(-1/p) (1+t)^(-k)`` that sit near the boundary of the state space.
    The pairing witnesses list every battery entry with its verdict and
    final window sup, so a failure can be traced to the trajectory that
    caused it.  The decay record checks the mode's own norm decay.  Both
    use the same three-window criterion as the weight audits.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    n = adj.n
    t_max = float(adj.grid[-1])
    pexp = prob.p_exp if np.isfinite(prob.p_exp) and prob.p_exp > 1 else 2.0
    e = np.ones(n) / np.sqrt(n)

    def probe(k):
        def fn(ts):
            ts = np.asarray(ts, dtype=float)
            base = np.asarray(prob.nu(ts), dtype=float) ** (-1.0 / pexp)
            return (base * (1.0 + ts) ** (-k))[..., None] * e
        return fn

    battery: list[tuple[str, Callable]] = [
        ("candidate", lambda ts: cand.state(ts)),
        ("constant", lambda ts: np.ones(np.shape(ts) + (n,))),
        ("density-probe-1", probe(1.0)),
        ("density-probe-2", probe(2.0)),
    ]
    if test_functions:
        battery.extend(test_functions)

    results = []
    for label, fn in battery:
        g = (lambda fn: lambda ts: np.sum(adj.value(ts) * fn(ts), axis=-1))(fn)
        rec = decays_to_zero(g, t_max=t_max, tol=tol)
        results.append((label, rec))
    failed = [(label, rec) for label, rec in results if not rec.passed]
    pair_witnesses = tuple(
        (label, "pass" if rec.passed else "fail", float(rec.sups[-1]))
        for label, rec in results)
    pair_notes = ["battery: " + ", ".join(label for label, _ in results),
                  "a finite battery only samples the dual-space claim"]
    grid = adj.grid
    pair_series = np.abs(np.sum(adj.p * cand.state(grid), axis=1))
    pairing = ConditionRecord(
        name="transversality_pairing",
        verdict="pass" if not failed else "fail",
        residual=max((rec.sups[-1] for _, rec in results), default=None),
        tolerance=tol,
        witnesses=pair_witnesses,
        notes=tuple(pair_notes),
        series_grid=grid,
        series=pair_series,
    )

    label, shape = _decay_flavor(prob, mode)

    def decay_g(ts):
        ts = np.asarray(ts, dtype=float)
        pn = np.linalg.norm(adj.value(ts), axis=-1)
        nu = np.asarray(prob.nu(ts), dtype=float)
        return shape(pn, np.maximum(nu, _TINY))

    rec = decays_to_zero(decay_g, t_max=t_max, tol=tol)
    decay_notes = [f"decay quantity: {label}"]
    if mode == "weak" and prob.p_exp == 2.0:
        extra = decays_to_zero(
            lambda ts: np.linalg.norm(adj.value(ts), axis=-1) ** 2
            / np.maximum(np.asarray(prob.nu(ts), dtype=float), _TINY),
            t_max=t_max, tol=tol)
        decay_notes.append(
            "p=2 refinement |p|^2/nu -> 0: "
            + ("holds" if extra.passed else "fails") + " (informative)")
    decay = ConditionRecord(
        name="transversality_decay",
        verdict="pass" if rec.passed else "fail",
        residual=rec.sups[-1],
        tolerance=tol,
        witnesses=(rec.witness,) if rec.witness else (),
        notes=tuple(decay_notes),
        series_grid=grid,
        series=np.asarray(decay_g(grid), dtype=float),
    )
    return pairing, decay


def check_michel(prob: ControlProblem, cand: CandidateProcess,
                 adj: AdjointSolution, mode: str = "strong",
                 tol: float = 1e-3) -> ConditionRecord:
    """H along the candidate must vanish at infinity, when the premise holds.

    The premise ties the objective weight to the density: without
    constraints the ratio ``w^2/nu`` must vanish (``w/nu`` when state
    constraints are present), and the weak route additionally needs
    ``nu |u*|^2 -> 0``.  A failing premise makes the condition assert
    nothing, so the verdict is not-applicable; the H limit is still
    reported as a note because it is cheap and often informative.

    |H| is judged after subtracting the cancellation floor of its two
    terms: once the running part and the inner product agree to working
    accuracy their difference is indistinguishable from zero, and
    feeding the raw roundoff to the window criterion would make the
    verdict depend on noise.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    t_max = float(adj.grid[-1])
    power = 1.0 if (mode == "strong" and prob.l > 0) else 2.0
    ratio, deep = _weight_ratio(prob.omega, prob.nu, power)
    ratio_max = 1e4 if deep else t_max

    label = "w/nu -> 0" if power == 1.0 else "w^2/nu -> 0"
    premises: list[tuple[str, Callable, float]] = [(label, ratio, ratio_max)]
    if mode == "weak":
        premises.append(
            ("nu*|u*|^2 -> 0",
             lambda ts: np.asarray(prob.nu(ts), dtype=float)
             * np.linalg.norm(np.atleast_2d(cand.control(ts)), axis=-1) ** 2,
             1e4))

    premise_text = " and ".join(lbl for lbl, _, _ in premises)
    failed_premises = []
    for lbl, g, tm in premises:
        rec = decays_to_zero(g, t_max=tm, tol=tol)
        if not rec.passed:
            failed_premises.append((lbl, rec))

    def h_terms(ts):
        ts = np.asarray(ts, dtype=float)
        x, u, pv = cand.state(ts), cand.control(ts), adj.value(ts)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = np.asarray(prob.omega(ts), dtype=float)
            run = -adj.lambda0 * w * prob.f_value(ts, x, u)
            phi = prob.phi_value(ts, x, u)
        inner = np.einsum("...n,...n->...", pv, phi)
        gross = np.abs(run) + np.einsum("...n,...n->...", np.abs(pv), np.abs(phi))
        return run + inner, gross

    # one uniform floor for the whole horizon: a pointwise floor would zero
    # some windows and leave residue in others, and the window comparison
    # would then see noise as growth.  The scale reflects that the adjoint
    # is only solver-accurate, so the floor sits orders of magnitude above
    # machine eps yet far below the verdict tolerance.
    _, gross_grid = h_terms(adj.grid)
    finite = gross_grid[np.isfinite(gross_grid)]
    h_floor = 1e-11 * (float(np.max(finite)) if finite.size else 0.0)

    def h_along(ts):
        h, _ = h_terms(ts)
        return np.maximum(np.abs(h) - h_floor, 0.0)

    h_rec = decays_to_zero(h_along, t_max=t_max, tol=tol)
    if failed_premises:
        lbl, rec = failed_premises[0]
        note = (f"premise {lbl} fails "
                f"(window sups {rec.sups[0]:.3g}, {rec.sups[1]:.3g}, "
                f"{rec.sups[2]:.3g}); H itself "
                + ("does vanish" if h_rec.passed else "does not vanish")
                + " at the horizon (informative)")
        return ConditionRecord(
            name="michel", verdict="not-applicable",
            premise=premise_text, premise_ok=False,
            witnesses=(rec.witness,) if rec.witness else (),
            notes=(note,))
    return ConditionRecord(
        name="michel",
        verdict="pass" if h_rec.passed else "fail",
        residual=h_rec.sups[-1],
        tolerance=tol,
        premise=premise_text,
        premise_ok=True,
        witnesses=(h_rec.witness,) if h_rec.witness else (),
        notes=(f"window sups of |H|: {h_rec.sups[0]:.3g}, "
               f"{h_rec.sups[1]:.3g}, {h_rec.sups[2]:.3g}",),
    )


# --------------------------------------------------------------------------
# stability of the state flow: the normality probe


def check_normality(prob: ControlProblem, cand: CandidateProcess,
                    delta: float = 1e-3, t_window: float | None = None,
                    blowup: float = 1e100, rtol: float = 1e-9,
                    atol: float = 1e-11) -> ConditionRecord:
    """Probe the perturbed-start stability that forces a normal multiplier.

    The state equation is re-solved under the candidate control from
    ``2n+1`` starts on a delta-ball around x0.  The worst deviation per
    unit of initial offset is fitted against an exponential envelope
    ``C * exp(-c t)`` (c of either sign), and the verdict asks whether
    that envelope is square-integrable against the density.  Blow-up of
    any perturbed solution is an immediate fail: the flow is not stable
    enough to force normality.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return ConditionRecord(
            name="normality_representation", verdict="pass",
            premise="delta > 0 perturbation probe", premise_ok=True,
            notes=("delta = 0: no perturbation probed, vacuous pass",))
    grid = cand.grid
    T_s = min(float(grid[-1]), t_window) if t_window else min(float(grid[-1]), 20.0)
    sub = grid[grid <= T_s * (1 + 1e-12)]
    if sub.size < 8:
        raise InvalidGrid("probe window leaves too few grid points")
    x_base = cand.state(sub)
    starts = [prob.x0 + delta * e for e in np.eye(prob.n)]
    starts += [prob.x0 - delta * e for e in np.eye(prob.n)]
    starts.append(prob.x0 + delta * np.ones(prob.n) / np.sqrt(prob.n))

    ratios = np.zeros(sub.size)
    for zeta in starts:
        try:
            pert = solve_state(prob, u=cand.control, x0=zeta,
                               grid=sub, rtol=rtol, atol=atol, blowup=blowup)
        except BlowUp as e:
            return ConditionRecord(
                name="normality_representation", verdict="fail",
                premise="perturbed starts stay solvable", premise_ok=True,
                witnesses=((float(e.t), float(e.norm)),),
                notes=(f"perturbed start {np.array2string(zeta, precision=6)} "
                       f"blows up at t={e.t:.6g}",))
        except DomainError as e:
            return ConditionRecord(
                name="normality_representation", verdict="fail",
                premise="perturbed starts stay solvable", premise_ok=True,
                notes=(f"perturbed solve left the expression domain: {e}",))
        dev = np.linalg.norm(pert.x - x_base, axis=1)
        offset = float(np.linalg.norm(zeta - prob.x0))
        ratios = np.maximum(ratios, dev / offset)

    # log-linear fit of the envelope; t=0 contributes ratio 1 exactly
    mask = ratios > 1e-14
    ts_fit = sub[mask]
    logs = np.log(ratios[mask])
    A = np.vstack((np.ones_like(ts_fit), -ts_fit)).T
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    log_c, rate = float(coef[0]), float(coef[1])
    fit_resid = float(np.max(np.abs(A @ coef - logs))) if ts_fit.size else 0.0
    envelope_c = float(np.max(ratios[mask] / np.exp(-rate * ts_fit)))

    # square of the envelope against the density; log space keeps a growing
    # envelope from overflowing before the decaying density can tame it
    ln_nu = prob.nu.log_value

    def weighted_sq(ts):
        ts = np.asarray(ts, dtype=float)
        if ln_nu is not None:
            with np.errstate(over="ignore"):
                return np.exp(-2.0 * rate * ts + np.asarray(ln_nu(ts), dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(-2.0 * rate * ts) * np.asarray(prob.nu(ts), dtype=float)
        return np.where(np.isnan(out), np.inf, out)

    from .integrate import improper_verdict  # local: avoids eager import cost

    tail = None
    if rate >= 0 and prob.nu.tail_bound is not None:
        nu_tail = prob.nu.tail_bound
        tail = lambda T: float(np.exp(-2.0 * rate * T)) * float(nu_tail(T))
    ladder = improper_verdict(weighted_sq, pole_exp=prob.nu.pole_exp,
                              tail_bound=tail)
    fit_ok = fit_resid <= np.log(10.0)
    verdict = "pass" if (ladder.verdict == "converged" and fit_ok) else "fail"
    notes = [
        f"envelope fit: C={np.exp(log_c):.3g} (sup form {envelope_c:.3g}), "
        f"rate c={rate:.6g}, max log-residual {fit_resid:.3g}",
        f"square-integrability of the envelope against the density: {ladder.verdict}",
    ]
    if not fit_ok:
        notes.append("deviation envelope is not exponential within a decade; "
                     "refusing to extrapolate it")
    return ConditionRecord(
        name="normality_representation",
        verdict=verdict,
        residual=fit_resid,
        premise="perturbed starts stay solvable",
        premise_ok=True,
        witnesses=((float(sub[-1]), float(ratios[-1])),),
        notes=tuple(notes),
        series_grid=sub,
        series=ratios,
    )


# --------------------------------------------------------------------------
# the full certificate


@dataclass(frozen=True)
class CertificateReport:
    """Aggregate outcome of the necessary-condition battery.

    ``overall`` is ``pass`` only when the assumption audit holds and every
    applicable condition passes; a failing audit yields
    ``assumptions-violated`` regardless of the condition verdicts, since
    the theorems then assert nothing about the candidate.
    """

    mode: str
    lambda0: float
    audit: object
    active: ActiveSet | None
    slater: SlaterReport | None
    adjoints: Mapping[str, AdjointSolution]
    route_agreement: float | None
    conditions: tuple
    sufficiency: object | None
    nontrivial: bool
    overall: str
    notes: tuple = ()

    def condition(self, name: str) -> ConditionRecord:
        for rec in self.conditions:
            if rec.name == name:
                return rec
        raise KeyError(name)


def verify_certificate(prob: ControlProblem, cand: CandidateProcess,
                       mode: str = "strong", lambda0: float = 1.0,
                       gamma: float = 0.5, audit=None,
                       measures: Mapping[int, tuple] | None = None,
                       tol_adjoint: float = 1e-6, tol_gap: float = 1e-8,
                       tol_decay: float = 1e-3,
                       include_sufficiency: bool = True,
                       t_backward: float | None = None) -> CertificateReport:
    """Run both adjoint routes and every applicable condition check.

    The assumption audit is embedded (or run here when not supplied);
    its verdict gates the overall result but never suppresses the
    individual checks, so pathological candidates still get their
    condition-level diagnosis.  ``measures`` attaches constraint atoms to
    whichever adjoint ends up primary.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if audit is None:
        audit = audit_assumptions(prob, cand, gamma=gamma, mode=mode)
    notes: list[str] = []

    active = slater = None
    if prob.l > 0 and mode == "strong":
        active = active_indices(prob, cand)
        slater = slater_check(prob, cand, active=active)
        if not slater.passed:
            notes.append("interior-point separation fails; measure "
                         "multipliers may be degenerate")

    adjoints: dict[str, AdjointSolution] = {}
    rep_failure = None
    if lambda0 == 1.0:
        try:
            adjoints["representation"] = adjoint_representation(prob, cand)
        except (IllConditioned, DivergentTail) as e:
            rep_failure = e
            notes.append(f"representation route unavailable: {e}")
    else:
        notes.append("representation route skipped: it encodes the normal "
                     "case lambda0 = 1")
    try:
        adjoints["backward-ode"] = adjoint_backward(prob, cand, lambda0=lambda0,
                                                    t_end=t_backward)
    except BlowUp as e:
        if not adjoints:
            # no adjoint at all: surface the backward blow-up with its own
            # numbers and say why the representation route is missing too
            e.args = (f"no adjoint route succeeded; backward route: {e}; "
                      + (f"representation route: {rep_failure}" if rep_failure
                         else "representation route skipped for lambda0 != 1"),)
            raise e from rep_failure
        notes.append(f"backward route blew up at t={e.t:.6g}; the "
                     "representation formula is the reliable route here")

    route_agreement = None
    if len(adjoints) == 2:
        pb = adjoints["backward-ode"]
        pr = adjoints["representation"]
        t_half = 0.5 * float(pb.grid[-1])
        k = int(np.searchsorted(pb.grid, t_half, side="right"))
        shared = pb.grid[:k]
        diff = pb.p[:k] - pr.value(shared)
        scale = max(pr.sup_norm, _TINY)
        route_agreement = float(np.max(np.linalg.norm(diff, axis=1))) / scale

    primary = adjoints.get("representation") or adjoints["backward-ode"]
    if measures:
        primary = dataclasses.replace(primary, measures=measures)

    conditions: list[ConditionRecord] = []
    conditions.append(check_adjoint_residual(prob, cand, primary, tol=tol_adjoint))
    if mode == "weak" and prob.l > 0:
        conditions.append(ConditionRecord(
            name="integral_adjoint_residual", verdict="not-applicable",
            premise="state constraints are a strong-route feature",
            premise_ok=False))
    else:
        conditions.append(check_integral_adjoint(prob, cand, primary,
                                                 tol=tol_adjoint))
    if mode == "strong":
        try:
            conditions.append(check_maximum_condition(prob, cand, primary,
                                                      tol=tol_gap))
        except UnboundedAbove as e:
            conditions.append(ConditionRecord(
                name="maximum_condition", verdict="fail",
                residual=float("inf"), tolerance=tol_gap,
                witnesses=((e.t, e.coordinate + 1, e.direction),),
                notes=(str(e),)))
    else:
        conditions.append(ConditionRecord(
            name="maximum_condition", verdict="not-applicable",
            premise="pointwise maximality is asserted by the strong route only",
            premise_ok=False))
    conditions.append(check_weak_inequality(prob, cand, primary, tol=tol_gap))
    pairing, decay = check_transversality(prob, cand, primary, mode=mode,
                                          tol=tol_decay)
    conditions.extend((pairing, decay))
    conditions.append(check_michel(prob, cand, primary, mode=mode, tol=tol_decay))

    normality = check_normality(prob, cand)
    if route_agreement is not None:
        extra = (f"route agreement sup|backward - representation| / sup|p| = "
                 f"{route_agreement:.3g} on the first half horizon")
        normality = dataclasses.replace(normality, notes=normality.notes + (extra,))
    conditions.append(normality)

    sufficiency = None
    if include_sufficiency:
        from .sufficiency import check_arrow  # deferred: sufficiency imports pmp
        try:
            sufficiency = check_arrow(prob, cand, primary, gamma=gamma, mode=mode)
        except UnboundedAbove as e:
            notes.append(f"concavity scan aborted: {e}")

    if not primary.nontrivial:
        notes.append("multiplier is trivial: (lambda0, p, measures) all vanish")
    applicable = [c for c in conditions if c.verdict != "not-applicable"]
    if not audit.all_ok:
        overall = "assumptions-violated"
    elif any(c.verdict == "fail" for c in applicable) or not primary.nontrivial:
        overall = "fail"
    else:
        overall = "pass"

    return CertificateReport(
        mode=mode, lambda0=float(lambda0), audit=audit, active=active,
        slater=slater, adjoints=adjoints, route_agreement=route_agreement,
        conditions=tuple(conditions), sufficiency=sufficiency,
        nontrivial=primary.nontrivial, overall=overall, notes=tuple(notes))

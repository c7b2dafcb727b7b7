"""Adjoint multipliers and the necessary-condition battery.

Everything here works with the running function

    H(t, x, u, p, l0) = -l0 * w(t) * f(t, x, u) + <p, phi(t, x, u)>

where ``w`` is the objective weight of the problem.  Along a candidate the
adjoint must satisfy ``p' = -phi_x^T p + l0 * w * f_x`` almost everywhere,
which is ``p' = -H_x``; the checks below never assume more smoothness than
continuity of ``p`` between measure atoms.

Two routes produce an adjoint, both read off the backward cell maps
``p(t_k) = P_k p(t_{k+1}) + q_k`` of the adjoint equation, which
:func:`verify_certificate` builds once per certificate:

* :func:`adjoint_backward` runs the maps backward from a zero terminal
  condition at 80% of the grid, for any ``l0``;
* :func:`adjoint_representation` evaluates the normal-case formula
  ``p(t) = -Z(t) * integral_t^inf w(s) Z(s)^{-1} f_x(s) ds`` through the
  fundamental system ``Z' = -phi_x^T Z``, ``Z(0) = I``, whose inverse is
  the running product of the ``P_k``.

Since the routes share their maps, their agreement on the first half of
the backward route's horizon measures the terminal truncation and the
conditioning of ``Z``, not the integration error; :func:`verify_certificate`
reports the deviation.  The residual checks below measure the integration
error independently of the maps.

Each ``check_*`` function returns a :class:`ConditionRecord`, or a pair
for the two forms of the adjoint relation and of transversality.  A record
whose premise fails is marked ``not-applicable``, never ``pass``: the
verdicts state exactly what was established, nothing more.  The verdict
thresholds are fixed, and each record reports its own in ``tolerance``:

* ``_TOL_ADJOINT`` = 1e-6 for both adjoint residuals, relative to sup |p|;
* ``_TOL_GAP`` = 1e-8 for the maximum condition and the weak inequality,
  relative to 1 + |H| at the candidate, knot by knot;
* ``integrate._DECAY_TOL`` = 1e-3 for transversality and Michel, on the
  final window sup of :func:`~pmpcheck.integrate.decays_to_zero`,
  relative to 1 + the first window's sup;
* ``_TOL_FIT`` = ln 10 for normality, on the largest log-residual of the
  envelope fit: the deviations stay within a decade of an exponential.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .expressions import DomainError
from .integrate import (
    _DECAY_TOL,
    _GAUSS_C,
    BlowUp,
    InvalidGrid,
    _affine_chain,
    _cell_integrals,
    _check_grid,
    _decay_residual,
    _linear_cell_maps,
    _one_map,
    decays_to_zero,
    improper_verdict,
    solve_ode,  # unused here, but perfbench/spans.py wraps pmp.solve_ode by name
    solve_state,
)
from .problem import (
    _ACTIVE_TOL,
    ActiveSet,
    CandidateProcess,
    ControlProblem,
    DimensionMismatch,
    SlaterReport,
    _check_samples,
    _matching_widths,
    _shape_rows,
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
    "check_adjoint",
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

    ``p`` holds one row per knot, shaped (K, n); a 1-d array is one column
    and any other shape raises
    :class:`~pmpcheck.problem.DimensionMismatch`, as for a candidate.
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
        grid = _check_grid(self.grid)
        p = _check_samples("adjoint", self.p, grid, "n")
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
            return _shape_rows("p_callable", self.p_callable(t_arr), t_arr, self.n)
        cols = [np.interp(t_arr, self.grid, self.p[:, i]) for i in range(self.n)]
        return np.stack(cols, axis=-1)


def adjoint_from_function(grid, p_fn: Callable, lambda0: float = 1.0) -> AdjointSolution:
    """Wrap a closed-form adjoint into an :class:`AdjointSolution`; atoms
    are attached through its ``measures`` field."""
    grid = np.asarray(grid, dtype=float)
    return AdjointSolution(grid=grid, p=p_fn(grid), lambda0=lambda0, route="user",
                           p_callable=p_fn)


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
    return _hamiltonian_u(prob, np.asarray(prob.omega(t), dtype=float), t, x, u, p, lambda0)


def _hamiltonian_u(prob: ControlProblem, w, t, x, u, p, lambda0: float) -> np.ndarray:
    """:func:`pontryagin_H_u` with the weight ``w = omega(t)`` already evaluated."""
    fu = prob.f_grad_u(t, x, u)
    B = prob.phi_jac_u(t, x, u)
    pv = np.asarray(p, dtype=float)
    return -lambda0 * w[..., None] * fu + np.einsum("...nm,...n->...m", B, pv)


# --------------------------------------------------------------------------
# the adjoint routes, both built from one set of backward cell maps

_BLOWUP = 1e12  # largest backward adjoint norm before BlowUp
_Y_LIMIT = 1e290  # largest inverse fundamental system norm before IllConditioned
_COND_LIMIT = 1e12  # condition number from which representation values are flagged


def _adjoint_cell_maps(prob: ControlProblem,
                       cand: CandidateProcess) -> tuple[np.ndarray, np.ndarray]:
    """Cell maps p(t_k) = P_k p(t_{k+1}) + q_k of p' = -phi_x^T p + w f_x,
    one per cell of ``cand.grid``.  The candidate is read at the Gauss
    nodes of the cells the build names (:meth:`CandidateProcess.in_cells`).
    A constant ``phi_x`` arrives as a stride-0 view
    (:func:`~pmpcheck.problem._evaluator`); its one matrix is negated and
    transposed, and leaves as a view again.  With x and u released, the
    forcing ``w f_x`` is formed in the array ``f_grad_x`` returns, unless
    that is a read-only view of a constant."""

    def coef(ts, cells):
        x, u = cand.in_cells(ts, cells)
        A = prob.phi_jac_x(ts, x, u)
        w = np.asarray(prob.omega(ts), dtype=float)
        f_x = prob.f_grad_x(ts, x, u)
        del x, u
        M = -np.swapaxes(_one_map(A), -1, -2)
        forcing = f_x if f_x.flags.writeable else None
        return np.broadcast_to(M, A.shape), np.multiply(w[:, None], f_x, out=forcing)

    return _linear_cell_maps(coef, cand.grid[1:], cand.grid[:-1])


def adjoint_backward(grid: np.ndarray, P: np.ndarray, q: np.ndarray,
                     lambda0: float) -> AdjointSolution:
    """Run the cell maps of p' = -phi_x^T p + l0*w*f_x backward from p(T) = 0.

    ``P`` and ``q`` are the maps of the cells of ``grid``; the terminal
    knot T is the last one at or before 80% of the grid's end, and a
    caller that wants an earlier horizon passes a prefix of the maps.
    The truncation error is estimated by re-running from the knot at 80%
    of T and taking the largest deviation over the first half of the
    shorter run.  A :class:`~pmpcheck.integrate.BlowUp` here means the
    adjoint equation is unstable in reverse time; the representation
    route does not suffer from that and should be tried instead.
    """
    T = 0.8 * float(grid[-1])
    k_main = int(np.searchsorted(grid, T, side="right")) - 1
    if k_main < 1:
        raise InvalidGrid(f"terminal time {T:g} leaves no room to integrate")

    def run(k_term: int) -> np.ndarray:
        # the chain runs in reverse time, from p(t_term) = 0 down to t = 0
        p = _affine_chain(P[k_term - 1::-1], lambda0 * q[k_term - 1::-1],
                          np.zeros(q.shape[1]))[::-1]
        norms = np.abs(p).max(axis=1)
        bad = np.flatnonzero(~(norms <= _BLOWUP))
        if bad.size:  # the escape the reverse sweep meets first
            raise BlowUp(grid[bad[-1]], norms[bad[-1]], _BLOWUP)
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


def _cond(Y: np.ndarray) -> np.ndarray:
    """``np.linalg.cond`` of a finite stack, without an SVD each for n <= 2.

    1 x 1 matrices follow numpy's rule for them: inf at zero, 1 elsewhere.
    A 2 x 2 matrix is first divided by its largest entry, so no square
    overflows or underflows to zero, and then ``s = |Y|_F^2 = sv_1^2 + sv_2^2``
    and ``D = |det Y| = sv_1 sv_2`` give ``sv_1 / sv_2 = sv_1^2 / D =
    (s + sqrt((s - 2D)(s + 2D))) / (2D)``, inf at ``D = 0``.  Rounding in
    ``D`` moves it from the SVD's value by a relative error of about ``cond``
    times the unit roundoff.
    """
    n = Y.shape[1]
    if n == 1:
        return np.where(Y[:, 0, 0] == 0.0, np.inf, 1.0)
    if n > 2:
        return np.linalg.cond(Y)
    big = np.abs(Y).max(axis=(1, 2))
    Z = Y / np.where(big > 0.0, big, 1.0)[:, None, None]
    s = np.einsum("kij,kij->k", Z, Z)
    D = np.abs(Z[:, 0, 0] * Z[:, 1, 1] - Z[:, 0, 1] * Z[:, 1, 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(D > 0.0, (s + np.sqrt((s - 2.0 * D) * (s + 2.0 * D))) / (2.0 * D), np.inf)


def adjoint_representation(grid: np.ndarray, flow: np.ndarray,
                           q: np.ndarray) -> AdjointSolution:
    """Evaluate p(t) = -Z(t) * integral_t^T w Z^{-1} f_x ds with a tail bound.

    ``flow`` holds the fundamental matrix Phi(t_k, 0) of the variational
    equation at each knot of ``grid``, the chain of the transposed backward
    cell maps ``p(t_k) = P_k p(t_{k+1}) + q_k`` of the adjoint equation
    (see :func:`verify_certificate`).  With the offsets ``q_k`` it carries
    the whole formula: Y = Z^{-1} is Phi^T, and a cell's share of the
    integral is ``-Y_k q_k``.
    The shares are summed right to left into the remaining mass, so no
    accumulated value ever has to be differenced.
    The mass beyond the grid horizon is estimated geometrically from the
    last two octave windows; if those windows do not shrink the formula
    has no usable limit and :class:`DivergentTail` is raised.
    """
    n = q.shape[1]
    unusable = "the representation formula is numerically unusable here"
    Y = np.swapaxes(flow, 1, 2)
    bad = ~(np.abs(Y).max(axis=(1, 2)) <= _Y_LIMIT)
    if bad.any():
        raise IllConditioned(
            f"fundamental system overflows at t={grid[np.argmax(bad)]:.6g}; {unusable}")

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

    cond = _cond(Y)
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


# the verdict thresholds; the module docstring says what each is relative to
_TOL_ADJOINT = 1e-6
_TOL_GAP = 1e-8
_TOL_FIT = float(np.log(10.0))


def _residual_record(name, series, scale, where, tol, witness, notes,
                     **fields) -> ConditionRecord:
    """The record of a condition judged point by point.

    The residual is the largest ``series / scale`` over the points
    ``where``, judged against ``tol``; the witness is that point's time
    and ``series`` value, followed by its row of ``witness`` when given.
    ``fields`` set the premise of the record.
    """
    rel = series / scale
    worst = int(np.argmax(rel))
    residual = float(rel[worst])
    evidence = (float(where[worst]), float(series[worst]))
    if witness is not None:
        evidence += (tuple(witness[worst]),)
    return ConditionRecord(
        name=name, verdict="pass" if residual <= tol else "fail",
        residual=residual, tolerance=tol, witnesses=(evidence,),
        notes=tuple(notes), series_grid=where, series=series, **fields)


def _decay_record(name, rec, notes, **fields) -> ConditionRecord:
    """The record of a limit-zero claim judged by
    :func:`~pmpcheck.integrate.decays_to_zero`: its residual is the
    number that judges its final window, and its witness the record's."""
    return ConditionRecord(
        name=name, verdict="pass" if rec.passed else "fail",
        residual=_decay_residual(rec.sups), tolerance=_DECAY_TOL,
        witnesses=(rec.witness,) if rec.witness else (),
        notes=tuple(notes), **fields)


def _adjoint_cell_integrals(prob, cand, adj, jumps):
    """Per-cell integrals of the adjoint right-hand side -H_x.

    The integrals use the package's one 7-point Gauss rule on a cubic
    Hermite reconstruction of p inside each cell, so smooth closed-form
    triples resolve to O(h^4) per unit length.  End slopes that are not finite
    (weight poles) fall back to the cell secant.  The stored samples are
    left limits, so a cell opens at the right limit ``p + jumps`` of its
    left knot, which differs from the sample at a measure atom only.
    """
    grid, p, lam = adj.grid, adj.p, adj.lambda0
    x, u = cand.state(grid), cand.control(grid)
    p_start = p + jumps
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d_end = -pontryagin_H_x(prob, grid, x, u, p, lam)
        d_start = -pontryagin_H_x(prob, grid, x, u, p_start, lam) if jumps.any() else d_end
    a, b, h = p_start[:-1], p[1:], np.diff(grid)[:, None]
    secant = (b - a) / h
    d0 = np.where(np.isfinite(d_start[:-1]), d_start[:-1], secant)
    d1 = np.where(np.isfinite(d_end[1:]), d_end[1:], secant)
    tau = _GAUSS_C
    # the cubic Hermite basis at the nodes, paired with (a, h d0, b, h d1)
    basis = np.array([2 * tau**3 - 3 * tau**2 + 1, tau**3 - 2 * tau**2 + tau,
                      3 * tau**2 - 2 * tau**3, tau**3 - tau**2])
    ph = np.einsum("jq,jkn->kqn", basis, np.array((a, h * d0, b, h * d1)))
    # an adjoint on a prefix of the candidate's grid reads the candidate
    # cell by cell; one on another grid searches it at every node
    if grid.size <= cand.grid.size and np.array_equal(grid, cand.grid[:grid.size]):
        read = lambda ts: cand.in_cells(ts, slice(0, grid.size - 1))
    else:
        read = lambda ts: (cand.state(ts), cand.control(ts))
    h_x = lambda ts: pontryagin_H_x(prob, ts, *read(ts), ph, lam)
    return -_cell_integrals(h_x, grid)


_ROUNDOFF_CELL = 4.0  # cell defects within this many roundoffs of the cell's terms read 0


def check_adjoint(prob: ControlProblem, cand: CandidateProcess,
                  adj: AdjointSolution) -> tuple[ConditionRecord, ConditionRecord]:
    """The adjoint relation p' = -phi_x^T p + l0*w*f_x, differential and integral.

    Both records read one set of cell integrals of the right-hand side and
    the same measure atoms.  An atom of constraint j at t_a with mass m
    makes p jump by ``m nu(t_a) g_jx(t_a)`` (the direct-adjoining form of
    Hartl, Sethi and Vickson, SIAM Review 37, 1995).  It is snapped to the
    nearest knot, with a note when it is off the grid, and must sit on the
    active set of its constraint, at the activity tolerance of
    :func:`~pmpcheck.problem.active_indices`; an atom at the last knot is
    part of the terminal sample already.

    * ``adjoint_residual`` is the worst cell value of ``|p_{k+1} - (p_k +
      jump_k) - integral| / width``, divided by the largest adjoint norm
      so the number is scale-free.  A cell whose numerator is within
      ``_ROUNDOFF_CELL`` roundoffs of its terms, ``eps (|p_k + jump_k| +
      |p_{k+1}| + |integral|)``, counts as exact: divided by a width of
      1e-12 near a weight pole, roundoff alone would read 1e-4.  An
      identically zero multiplier produces a zero residual; nontriviality
      is a separate invariant and only noted here.
    * ``integral_adjoint_residual`` asks at every knot that the sample
      equal the terminal sample plus the remaining integral of H_x minus
      the jumps of all atoms at or after that knot.  Without constraints
      it is the integrated adjoint equation.
    """
    _matching_widths(prob, cand, adj)
    grid, p = adj.grid, adj.p
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
                if abs(gval) > _ACTIVE_TOL:
                    raise AtomOffActiveSet(j, t_a, gval)
                if t_a >= T - 1e-12 * (1.0 + T):
                    continue  # folded into the terminal sample already
                nu_g = float(prob.nu(t_a)) * prob.g_jac_x(t_a, cand.state(t_a))[j - 1]
                k_a = int(np.argmin(np.abs(grid - t_a)))
                if abs(grid[k_a] - t_a) > 1e-9 * (1.0 + abs(t_a)):
                    notes.append(
                        f"atom at t={t_a:.6g} is off-grid; treated as sitting "
                        f"at the nearest knot t={grid[k_a]:.6g}")
                jumps[k_a] += mass * nu_g

    cells = _adjoint_cell_integrals(prob, cand, adj, jumps)
    scale = max(adj.sup_norm, _TINY)
    norm = lambda a: np.linalg.norm(a, axis=1)
    opened = p[:-1] + jumps[:-1]
    gap = norm(p[1:] - opened - cells)
    roundoff = _ROUNDOFF_CELL * np.finfo(float).eps * (norm(opened) + norm(p[1:]) + norm(cells))
    defect = np.where(gap <= roundoff, 0.0, gap) / np.diff(grid)
    trivial = [] if adj.nontrivial else [
        "multiplier is trivial (lambda0 = 0 and p = 0): the zero residual is vacuous"]
    differential = _residual_record("adjoint_residual", defect / scale, 1.0,
                                    0.5 * (grid[:-1] + grid[1:]), _TOL_ADJOINT, None,
                                    trivial + notes)

    # p' = -H_x between atoms, where p jumps: sum the H_x cell masses, the
    # negated cells, less the jumps into the remaining change of p from each
    # knot to the terminal knot
    rest = np.vstack((np.cumsum(-(cells + jumps[:-1])[::-1], axis=0)[::-1],
                      np.zeros((1, adj.n))))
    model = p[-1][None, :] + rest
    if prob.l == 0:
        notes.append("no state constraints: this is the integrated form of "
                     "the adjoint equation")
    integral = _residual_record("integral_adjoint_residual",
                                norm(p - model) / scale, 1.0, grid, _TOL_ADJOINT, None, notes)
    return differential, integral


# --------------------------------------------------------------------------
# pointwise maximality of H over the control set


# The control search below varies u at fixed times, so the weight w =
# omega(ts) is evaluated once per search and handed down.  Each search owns
# one control array and writes the probed column into it in place.


def _h_of_u(prob, w, ts, xs, ps, lam, u, i, col):
    """H with column ``i`` of the control array ``u`` overwritten by ``col``."""
    u[:, i] = col
    return _hamiltonian(prob, w, ts, xs, u, ps, lam)


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(prob, w, ts, xs, ps, lam, u, i, a, b, iters: int = 60):
    """Golden-section maximization of H along coordinate ``i``, per knot.

    Each of the ``iters`` steps compares H at the interior points
    c = b - r(b - a) and d = a + r(b - a), r = (sqrt5 - 1)/2, and keeps
    [c, b] when H(c) < H(d), else [a, d] (so a tie keeps [a, d]).  The
    interior point that survives is a golden point of the kept bracket,
    so only the other one needs H (Kiefer 1953): the bracket is carried
    with the survivor's side and its H value, both interior points are
    recomputed from the bracket, and H is evaluated once per step at the
    new one.  With the first interior point and the returned midpoint
    that is ``iters + 2`` evaluations.  Column ``i`` of ``u`` is
    overwritten.  Returns the final midpoints and H there.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    h_keep = _h_of_u(prob, w, ts, xs, ps, lam, u, i, b - _INV_PHI * (b - a))
    left = np.ones(a.shape, dtype=bool)  # the survivor is c, not d
    for _ in range(iters):
        step = _INV_PHI * (b - a)
        c = b - step
        d = a + step
        h_new = _h_of_u(prob, w, ts, xs, ps, lam, u, i, np.where(left, d, c))
        take = np.where(left, h_keep < h_new, h_new < h_keep)  # H(c) < H(d)
        np.copyto(a, c, where=take)
        np.copyto(b, d, where=~take)
        # [c, b] keeps d as its new c, [a, d] keeps c as its new d
        np.copyto(h_keep, h_new, where=left == take)
        left = take
    mid = 0.5 * (a + b)
    return mid, _h_of_u(prob, w, ts, xs, ps, lam, u, i, mid)


def _slopes(prob, w, ts, xs, ps, lam, u, i):
    """H_u and H_uu along coordinate ``i`` at the controls ``u``."""
    s = prob.u_slopes(i, ts, xs, u)
    return (-lam * w * s[:, 0, 0] + np.einsum("kn,kn->k", ps, s[:, 0, 1:]),
            -lam * w * s[:, 1, 0] + np.einsum("kn,kn->k", ps, s[:, 1, 1:]))


_NEWTON_STEP = 1e-12  # a Newton knot stops once its step is below this times 1 + |u|


def _newton_max(prob, w, ts, xs, ps, lam, u, i, a, b, u_pre):
    """Safeguarded Newton iteration on H_u inside [a, b], per knot.

    Each knot starts at the best probe ``u_pre``, takes the Newton step
    u - H_u/H_uu and bisects its bracket instead whenever H_uu >= 0 or
    the step leaves the bracket (Press et al., *Numerical Recipes*
    §9.4, rtsafe); the bracket shrinks by the sign of H_u.  A knot stops
    on its own, once H_u == 0 or its step is below ``_NEWTON_STEP``
    times 1 + |u|, and then no longer moves.  Where H_u does not fall
    from >= 0 to <= 0 across the bracket, H_uu >= 0 at the last Newton
    point, a value is not finite or golden's 60 steps do not settle the
    knot, the knot goes to :func:`_golden_max` unchanged; a
    :class:`DomainError` of the slope evaluator sends the whole block
    there.  Column ``i`` of ``u`` is overwritten.  Returns the
    maximizers and H there.
    """
    args = (prob, w, ts, xs, ps, lam)
    lo, hi, x = a.copy(), b.copy(), u_pre.copy()
    done = np.zeros(ts.size, dtype=bool)
    curv = np.full(ts.size, np.nan)  # H_uu at each knot's last Newton point
    try:
        u[:, i] = lo
        g_lo, _ = _slopes(*args, u, i)
        u[:, i] = hi
        g_hi, _ = _slopes(*args, u, i)
        active = (g_lo >= 0) & (g_hi <= 0)  # False on NaN
        for _ in range(60):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            uk = u[idx]
            uk[:, i] = xk = x[idx]
            g, c = _slopes(prob, w[idx], ts[idx], xs[idx], ps[idx], lam, uk, i)
            curv[idx] = c
            lk = np.where(g > 0, xk, lo[idx])
            hk = np.where(g < 0, xk, hi[idx])
            with np.errstate(divide="ignore", invalid="ignore"):
                new = xk - g / c
            bisect = ~((c < 0) & (lk <= new) & (new <= hk))  # True on NaN
            new = np.where(bisect, 0.5 * (lk + hk), new)
            new[g == 0] = xk[g == 0]
            stop = np.abs(new - xk) <= _NEWTON_STEP * (1.0 + np.abs(xk))
            finite = np.isfinite(g) & np.isfinite(c)
            lo[idx], hi[idx], x[idx] = lk, hk, new
            done[idx] = stop & finite
            active[idx] = ~stop & finite
    except DomainError:
        done[:] = False
    ok = done & (curv < 0)
    x = np.where(ok, x, u_pre)
    h = _h_of_u(*args, u, i, x)
    ok &= np.isfinite(h)
    if not np.all(ok):
        fb = np.flatnonzero(~ok)
        x[fb], h[fb] = _golden_max(prob, w[fb], ts[fb], xs[fb], ps[fb], lam,
                                   u[fb], i, a[fb], b[fb])
    return x, h


_REACH = 16  # toward an unbounded face the probes go out to u +- 2^16 (1 + |u|)


def _coordinate_probes(box, i, u_col):
    """Sorted per-knot probe columns spanning coordinate i of the box.

    Open finite faces are approached but never touched: integrands like
    log(1-u) are legal on the open set and must not be evaluated on its
    boundary.  The supremum is still resolved because the probes come
    within 2^-10 of the face and the refinement works inside them.
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
        for j in range(_REACH, -1, -1):
            blocks.append(u_col - 2.0 ** j * step)
    else:
        start = u_col - f_lo * (u_col - lo)
        for frac in np.linspace(0.0, 1.0, 9)[:-1]:
            blocks.append(start + frac * (u_col - start))
    blocks.append(u_col.copy())
    if up:
        for j in range(_REACH + 1):
            blocks.append(u_col + 2.0 ** j * step)
    else:
        for frac in np.linspace(0.0, 1.0, 9)[1:]:
            blocks.append(u_col + f_hi * frac * (hi - u_col))
    return blocks, down, up


def _escape(ts, i, direction, bad):
    """Raise :class:`UnboundedAbove` at the first knot flagged in ``bad``."""
    if np.any(bad):
        raise UnboundedAbove(float(ts[int(np.argmax(bad))]), i, direction)


def _prescan(prob, w, ts, xs, ps, lam, u, i, h_floor):
    """Best probe of coordinate ``i`` per knot and the bracket around it.

    The best probe is tracked row by row (first one on ties, as argmax),
    so no probe-by-knot H matrix is stored; only the two outermost rows
    at each end are kept for the escape test, which flags a best probe at
    an unbounded end with H still climbing and above ``h_floor``.  The
    bracket ends ``a`` and ``b`` are the nearest probes that differ from
    the best one, as a control on a closed face collapses the probes on
    that side onto the face.  Returns ``a``, ``b``, the best probe and H.
    """
    cols, open_down, open_up = _coordinate_probes(prob.U, i, u[:, i])
    last = len(cols) - 1
    h_pre = np.full(ts.size, -np.inf)
    u_pre = cols[0].copy()
    rows = {}
    for k, c in enumerate(cols):
        h = _h_of_u(prob, w, ts, xs, ps, lam, u, i, c)
        h[~np.isfinite(h)] = -np.inf
        up = h > h_pre
        np.copyto(h_pre, h, where=up)
        np.copyto(u_pre, c, where=up)
        if k in (0, 1, last - 1, last):
            rows[k] = h
    for open_end, edge, inner, direction in ((open_down, 0, 1, -1),
                                             (open_up, last, last - 1, +1)):
        if open_end:
            _escape(ts, i, direction, (u_pre == cols[edge])
                    & (rows[edge] > rows[inner]) & (rows[edge] > h_floor))
    # the columns are sorted per knot, so the last probe written going up
    # (down) is the nearest one below (above) the best
    a, b = u_pre.copy(), u_pre.copy()
    for c in cols:
        np.copyto(a, c, where=c < u_pre)
    for c in reversed(cols):
        np.copyto(b, c, where=c > u_pre)
    return a, b, u_pre, h_pre


# Knots are searched independently, a block at a time: at 2^15 knots the
# few arrays a search step makes stay in cache and are reused by the
# allocator, where whole-grid arrays (420k knots in extraction's Arrow scan)
# are returned to the system and faulted in again on every H evaluation.
_BLOCK = 2 ** 15


def _sampled_max(prob, w, ts, xs, ps, lam, u, i, h_floor):
    """Prescan plus safeguarded Newton (golden section where not concave).

    Column ``i`` of ``u`` is overwritten.  Returns the better of the best
    probe and the refined point per knot, and H there.
    """
    a, b, u_pre, h_pre = _prescan(prob, w, ts, xs, ps, lam, u, i, h_floor)
    u_ref, h_ref = _newton_max(prob, w, ts, xs, ps, lam, u, i, a, b, u_pre)
    better = h_ref > h_pre
    return np.where(better, u_ref, u_pre), np.where(better, h_ref, h_pre)


def _quadratic_max(prob, w, ts, xs, ps, lam, u, i, h_floor):
    """Exact maximizer along a coordinate where H is at most quadratic.

    With the slope g and curvature c of H at the current control, a
    concave slice (c < 0) peaks at u - g/c clipped to the box; otherwise
    the face with the larger rise d (g + c d / 2) wins, and the control
    stays where neither rises (a linear slice with g = +-0.0).  H is a
    polynomial in u_i, so an open face is taken as is; an unbounded one
    is replaced by the prescan's outermost probe and its escape test.
    Column ``i`` of ``u`` is overwritten.  Returns the maximizers and H.
    """
    x = u[:, i].copy()
    g, c = _slopes(prob, w, ts, xs, ps, lam, u, i)
    reach = 2.0 ** _REACH * (1.0 + np.abs(x))
    lo, hi = prob.U.lo[i], prob.U.hi[i]
    faces = (x - reach if np.isinf(lo) else lo, x + reach if np.isinf(hi) else hi)
    r_lo, r_hi = ((f - x) * (g + 0.5 * c * (f - x)) for f in faces)
    target = np.where(r_hi > r_lo, faces[1], faces[0])
    target = np.where(np.maximum(r_lo, r_hi) > 0, target, x)
    concave = c < 0
    with np.errstate(divide="ignore", invalid="ignore"):
        target = np.where(concave, np.clip(x - g / c, lo, hi), target)
    h = _h_of_u(prob, w, ts, xs, ps, lam, u, i, target)
    for bound, face, direction in ((lo, faces[0], -1), (hi, faces[1], +1)):
        if np.isinf(bound):
            _escape(ts, i, direction, ~concave & (target == face) & (h > h_floor))
    return target, h


def _sup_over_u(prob, w, ts, xs, us, ps, lam, h_star, h_floor):
    """Maximize H over the control box, one coordinate search at a time.

    ``w`` is ``omega(ts)``, ``us`` a feasible starting guess and
    ``h_star`` its H value; a climb toward an unbounded face escapes
    (:class:`UnboundedAbove`) only once H there exceeds ``h_floor``.  A
    coordinate in ``prob.u_quadratic`` is solved by :func:`_quadratic_max`,
    every other one by :func:`_sampled_max`; two or more controls are
    swept twice.  Each block of knots has one control array, a view into
    ``us``: a search writes coordinate ``i`` into it, and the sweep then
    keeps the new column where H rises.  Returns the improved controls and
    their H values, which overwrite ``us`` and ``h_star``: a tube-wide
    search holds no knot-sized array beyond its arguments.
    """
    for lo in range(0, ts.size, _BLOCK):
        k = slice(lo, lo + _BLOCK)
        args = (prob, w[k], ts[k], xs[k], ps[k], lam)
        u, h = us[k], h_star[k]
        for _ in range(min(prob.m, 2)):
            for i, quadratic in enumerate(prob.u_quadratic):
                u_col = u[:, i].copy()
                search = _quadratic_max if quadratic else _sampled_max
                new_col, new_h = search(*args, u, i, h_floor[k])
                improve = new_h > h
                u[:, i] = np.where(improve, new_col, u_col)
                np.copyto(h, new_h, where=improve)
    return us, h_star


def _finite_weight(prob: ControlProblem, grid):
    """The knots of ``grid`` where the weight is finite, omega there, and
    the note that names the knots skipped at a weight pole.

    A pole (integrable, at 0) carries no pointwise information, so every
    pointwise judgement skips its knots through this one mask: the
    maximum condition, the weak inequality and the Arrow scan
    (:func:`~pmpcheck.sufficiency.check_arrow`).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.asarray(prob.omega(grid), dtype=float)
    finite = np.isfinite(w)
    notes = [] if np.all(finite) else [f"{int(np.sum(~finite))} knot(s) skipped: weight pole"]
    return finite, w[finite], notes


def check_maximum_condition(prob: ControlProblem, cand: CandidateProcess,
                            adj: AdjointSolution) -> ConditionRecord:
    """Gap between sup_u H and H at the candidate control, per knot.

    Each control coordinate along which H is at most quadratic is solved
    in closed form: the clipped stationary point of a concave slice, else
    the better box face.  Every other one goes through a prescan of 26-35
    probes and a safeguarded Newton iteration on H_u between the best
    probe's nearest distinct neighbours; where that slice is not concave
    (no sign change of H_u across the bracket, H_uu >= 0 at the result, a
    non-finite value, or H_u undefined in the block), a 60-step golden
    section takes over.  Two or more controls are swept twice; the notes
    name each coordinate's search.  A slice that climbs toward an
    unbounded face, with H at the outermost probe (u +- 2^16 (1 + |u|))
    above H at the candidate by more than ``_TOL_GAP`` times its
    magnitude, has no maximum to compare with: the record then fails with
    an infinite residual, the witness ``(t, coordinate, direction)`` of
    the first escape (1-based coordinate, direction +-1) and the escape
    as its note.  Knots at a weight pole are skipped.  Otherwise the
    witness adds the maximizing control to the worst gap.
    """
    _matching_widths(prob, cand, adj)
    grid = adj.grid
    xs, us = cand.state(grid), cand.control(grid)
    ps, lam = adj.p, adj.lambda0
    finite, w, notes = _finite_weight(prob, grid)
    ts, xs, us, ps = grid[finite], xs[finite], us[finite], ps[finite]
    if ts.size == 0:
        raise InvalidGrid("no knots with finite weight to check")
    h_star = _hamiltonian(prob, w, ts, xs, us, ps, lam)
    try:
        best_u, h_best = _sup_over_u(prob, w, ts, xs, us, ps, lam, h_star.copy(),
                                     h_star + _TOL_GAP * np.abs(h_star))
    except UnboundedAbove as e:
        return ConditionRecord(
            name="maximum_condition", verdict="fail", residual=float("inf"),
            tolerance=_TOL_GAP, witnesses=((e.t, e.coordinate + 1, e.direction),),
            notes=(str(e),))
    notes.append("inner maximization: " + ", ".join(
        f"u{i + 1} {'closed form' if q else 'sampled'}"
        for i, q in enumerate(prob.u_quadratic)))
    return _residual_record("maximum_condition", h_best - h_star, 1.0 + np.abs(h_star),
                            ts, _TOL_GAP, best_u, notes)


def check_weak_inequality(prob: ControlProblem, cand: CandidateProcess,
                          adj: AdjointSolution) -> ConditionRecord:
    """sup over the box of <H_u(t), u - u*(t)>, which must stay nonpositive.

    The functional is linear in u, so on a box the supremum splits per
    coordinate and is attained at a face.  A coordinate without a face
    (unbounded side) admits arbitrarily large excursions, so the condition
    degenerates to "the H_u component must vanish toward that side"; it is
    probed with a unit excursion scaled to the candidate control, which
    keeps the residual finite and comparable to the bounded case.  The
    residual is the largest sup relative to ``1 + |H|``, as judged; the
    witness and ``series`` hold raw sups.
    """
    _matching_widths(prob, cand, adj)
    if not prob.U.convex:
        return ConditionRecord(
            name="weak_inequality", verdict="not-applicable",
            premise="control set must be convex", premise_ok=False,
            notes=("the control box was declared non-convex",))
    grid = adj.grid
    xs, us = cand.state(grid), cand.control(grid)
    finite, w, notes = _finite_weight(prob, grid)
    ts, xs, us, ps = grid[finite], xs[finite], us[finite], adj.p[finite]
    hu = _hamiltonian_u(prob, w, ts, xs, us, ps, adj.lambda0)
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
    h = _hamiltonian(prob, w, ts, xs, us, ps, adj.lambda0)
    return _residual_record("weak_inequality", totals, 1.0 + np.abs(h), ts, _TOL_GAP,
                            None, notes, premise="control set is a convex box",
                            premise_ok=True)


# --------------------------------------------------------------------------
# behaviour at the horizon: transversality and the Michel condition


def _weight_ratio(num, den, power: float) -> Callable:
    """num(t)^power / den(t) as a callable, combined from the log-values.

    Log space matters for limit questions probed far out: both factors can
    underflow to zero long before their ratio does anything sensible, and
    0/0 would silently report decay for a ratio that in fact explodes.
    In log space the premise can be probed out to t = 1e4, the depth of
    the weight audits' limit checks.
    """
    def ratio(ts):
        ts = np.asarray(ts, dtype=float)
        expo = power * np.asarray(num.log_value(ts), dtype=float) \
            - np.asarray(den.log_value(ts), dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(expo)
    return ratio


def _decay_flavor(prob: ControlProblem, mode: str) -> tuple[str, Callable]:
    if mode == "weak":
        return "|p(t)| -> 0", lambda pn, nu: pn
    if prob.p_exp == 2.0 and prob.l == 0:
        return "|p(t)|^2 / nu(t) -> 0", lambda pn, nu: pn ** 2 / nu
    return "|p(t)| / nu(t) -> 0", lambda pn, nu: pn / nu


def check_transversality(prob: ControlProblem, cand: CandidateProcess,
                         adj: AdjointSolution,
                         mode: str = "strong") -> tuple[ConditionRecord, ConditionRecord]:
    """Pairing and decay records for the behaviour of p at the horizon.

    The pairing record checks ``<p(t), x(t)> -> 0`` for a finite battery of
    admissible trajectories: the candidate itself, a constant (admissible
    because qualified densities are integrable), and two probes of the form
    ``nu^(-1/p) (1+t)^(-k)`` that sit near the boundary of the state space.
    The pairing witnesses list every battery entry with its verdict and
    the number that judges its final window, so a failure can be traced to
    the trajectory that caused it.  The decay record checks the mode's own norm decay.  Both
    use the same three-window criterion as the weight audits.
    """
    _matching_widths(prob, cand, adj)
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

    results = []
    for label, fn in battery:
        g = (lambda fn: lambda ts: np.sum(adj.value(ts) * fn(ts), axis=-1))(fn)
        results.append((label, decays_to_zero(g, t_max=t_max)))
    failed = [(label, rec) for label, rec in results if not rec.passed]
    pair_witnesses = tuple(
        (label, "pass" if rec.passed else "fail", _decay_residual(rec.sups))
        for label, rec in results)
    pair_notes = ["battery: " + ", ".join(label for label, _ in results),
                  "a finite battery only samples the dual-space claim"]
    grid = adj.grid
    pair_series = np.abs(np.sum(adj.p * cand.state(grid), axis=1))
    pairing = ConditionRecord(
        name="transversality_pairing",
        verdict="pass" if not failed else "fail",
        residual=max(witness[-1] for witness in pair_witnesses),
        tolerance=_DECAY_TOL,
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

    rec = decays_to_zero(decay_g, t_max=t_max)
    decay_notes = [f"decay quantity: {label}"]
    if mode == "weak" and prob.p_exp == 2.0:
        extra = decays_to_zero(
            lambda ts: np.linalg.norm(adj.value(ts), axis=-1) ** 2
            / np.maximum(np.asarray(prob.nu(ts), dtype=float), _TINY),
            t_max=t_max)
        decay_notes.append(
            "p=2 refinement |p|^2/nu -> 0: "
            + ("holds" if extra.passed else "fails") + " (informative)")
    decay = _decay_record("transversality_decay", rec, decay_notes, series_grid=grid,
                          series=np.asarray(decay_g(grid), dtype=float))
    return pairing, decay


def check_michel(prob: ControlProblem, cand: CandidateProcess,
                 adj: AdjointSolution, mode: str = "strong") -> ConditionRecord:
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
    _matching_widths(prob, cand, adj)
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    t_max = float(adj.grid[-1])
    power = 1.0 if (mode == "strong" and prob.l > 0) else 2.0
    ratio = _weight_ratio(prob.omega, prob.nu, power)

    label = "w/nu -> 0" if power == 1.0 else "w^2/nu -> 0"
    premises: list[tuple[str, Callable, float]] = [(label, ratio, 1e4)]
    if mode == "weak":
        premises.append(
            ("nu*|u*|^2 -> 0",
             lambda ts: np.asarray(prob.nu(ts), dtype=float)
             * np.linalg.norm(np.atleast_2d(cand.control(ts)), axis=-1) ** 2,
             1e4))

    premise_text = " and ".join(lbl for lbl, _, _ in premises)
    failed_premises = []
    for lbl, g, tm in premises:
        rec = decays_to_zero(g, t_max=tm)
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

    h_rec = decays_to_zero(h_along, t_max=t_max)
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
    return _decay_record("michel", h_rec,
                         (f"window sups of |H|: {h_rec.sups[0]:.3g}, "
                          f"{h_rec.sups[1]:.3g}, {h_rec.sups[2]:.3g}",),
                         premise=premise_text, premise_ok=True)


# --------------------------------------------------------------------------
# stability of the state flow: the normality probe


_NORMALITY_WINDOW = 20.0  # the probe covers [0, min(T, this)]
_NORMALITY_DELTA = 1e-3  # radius of the ball the perturbed starts lie on
_NORMALITY_BLOWUP = 1e100  # perturbed state norm counted as escape
# the smallest deviation the envelope fit reads, per unit of max(1, |x*(t)|):
# 2^20 ulps, so that one ulp of the state moves a log ratio by at most 1e-6
_NORMALITY_FLOOR = 2.0**20 * np.finfo(float).eps


def check_normality(prob: ControlProblem, cand: CandidateProcess,
                    flow: np.ndarray) -> ConditionRecord:
    """Probe the perturbed-start stability that forces a normal multiplier.

    The state equation is re-solved under the candidate control from the
    distinct starts ``x0 +- delta e_i`` and ``x0 + delta 1/sqrt(n)`` on the
    ``_NORMALITY_DELTA``-ball around x0: ``2n+1`` of them, 2 for n = 1,
    where the diagonal start is ``x0 + delta e_1`` again.  Each runs over the
    grid's first ``_NORMALITY_WINDOW`` time units at most.  The worst
    deviation per unit of initial offset is fitted against an exponential
    envelope ``C * exp(-c t)`` (c of either sign), and the verdict asks
    whether that envelope is square-integrable against the density, taken
    in log space through ``nu.log_value``.  The fit reads only deviations
    above ``_NORMALITY_FLOOR * max(1, |x*(t)|)``, where rounding of the two
    states no longer shows in their logs; a probe left with fewer than two
    of them fails, since it cannot resolve the flow.  A perturbed solution
    whose norm passes ``_NORMALITY_BLOWUP`` is an immediate fail: the flow
    is not stable enough to force normality.

    A perturbed solve that blows up or leaves the domain of the dynamics
    is a fail with witness ``(t, max |x_i|)`` where it stopped.

    ``flow`` holds Phi(t_k, 0), the fundamental matrix of the variational
    equation ``dx' = phi_x(t, x*, u*) dx``, at each knot of ``cand.grid``
    (see :func:`verify_certificate`); another shape raises
    :class:`~pmpcheck.problem.DimensionMismatch`.  Each start ``zeta``
    costs one :func:`~pmpcheck.integrate.solve_state` under the candidate
    control, its closed form or else its samples on the window, on the
    Gauss collocation cell maps of a linear equation: one build for dynamics
    affine in x (``prob.x_affine``), else Newton sweeps from the linear
    envelope ``x*(t) + Phi(t, 0) (zeta - x0)``, or ``x*(t)`` where that is
    not finite.  Exact to first order, the envelope leaves the sweeps to
    converge to the perturbed solution itself, at its finite offset, in
    one sweep and a confirming one near the candidate; farther away they
    take more sweeps and shorter windows, not less accuracy.
    """
    _matching_widths(prob, cand)
    grid = cand.grid
    if np.shape(flow) != (grid.size, prob.n, prob.n):
        raise DimensionMismatch(f"flow has shape {np.shape(flow)}, but the candidate "
                                f"grid and the problem need {(grid.size, prob.n, prob.n)}")
    sub = grid[grid <= min(float(grid[-1]), _NORMALITY_WINDOW) * (1 + 1e-12)]
    if sub.size < 8:
        raise InvalidGrid("probe window leaves too few grid points")
    x_base = cand.state(sub)
    starts = [prob.x0 + _NORMALITY_DELTA * e for e in np.eye(prob.n)]
    starts += [prob.x0 - _NORMALITY_DELTA * e for e in np.eye(prob.n)]
    if prob.n > 1:  # for n = 1 the diagonal start is x0 + delta e_1
        starts.append(prob.x0 + _NORMALITY_DELTA * np.ones(prob.n) / np.sqrt(prob.n))
    guesses = x_base + np.einsum("kij,sj->ski", flow[:sub.size], np.array(starts) - prob.x0)
    guesses = np.where(np.isfinite(guesses).all(axis=2, keepdims=True), guesses, x_base)

    # a sampled control goes as its samples, which solve_state reads by the
    # candidate's own rule, each cell's right-knot sample
    control = cand.control if cand.closed_u is not None else cand.u[:sub.size]
    ratios = np.zeros(sub.size)
    for zeta, guess in zip(starts, guesses):
        try:
            pert = solve_state(prob, u=control, x0=zeta, grid=sub, guess=guess,
                               blowup=_NORMALITY_BLOWUP)
        except BlowUp as e:
            return ConditionRecord(
                name="normality_representation", verdict="fail",
                premise="perturbed starts stay solvable", premise_ok=True,
                witnesses=((float(e.t), float(e.norm)),),
                notes=(f"perturbed start {np.array2string(zeta, precision=6)} "
                       f"blows up at t={e.t:.6g}",))
        except DomainError as e:
            x = [e.point[f"x{i + 1}"] for i in range(prob.n)]
            return ConditionRecord(
                name="normality_representation", verdict="fail",
                premise="perturbed starts stay solvable", premise_ok=True,
                witnesses=((e.point["t"], float(np.max(np.abs(x)))),),
                notes=(f"perturbed solve left the expression domain: {e}",))
        dev = np.linalg.norm(pert.x - x_base, axis=1)
        offset = float(np.linalg.norm(zeta - prob.x0))
        ratios = np.maximum(ratios, dev / offset)

    # log-linear fit of the envelope on the deviations above rounding; t=0
    # contributes ratio 1 exactly
    scale = np.maximum(1.0, np.linalg.norm(x_base, axis=1))
    mask = ratios * _NORMALITY_DELTA > _NORMALITY_FLOOR * scale
    if np.count_nonzero(mask) < 2:
        return ConditionRecord(
            name="normality_representation", verdict="fail",
            premise="perturbed starts stay solvable", premise_ok=True,
            witnesses=((float(sub[-1]), float(ratios[-1])),),
            notes=(f"no two deviations of the starts {_NORMALITY_DELTA:g} away clear "
                   f"the rounding floor {_NORMALITY_FLOOR:.3g} max(1, |x*(t)|); "
                   "the probe cannot resolve the flow",),
            series_grid=sub, series=ratios)
    ts_fit = sub[mask]
    logs = np.log(ratios[mask])
    A = np.vstack((np.ones_like(ts_fit), -ts_fit)).T
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    log_c, rate = float(coef[0]), float(coef[1])
    fit_resid = float(np.max(np.abs(A @ coef - logs)))
    envelope_c = float(np.max(ratios[mask] / np.exp(-rate * ts_fit)))

    # square of the envelope against the density; log space keeps a growing
    # envelope from overflowing before the decaying density can tame it
    def weighted_sq(ts):
        ts = np.asarray(ts, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(-2.0 * rate * ts + np.asarray(prob.nu.log_value(ts), dtype=float))

    tail = None
    if rate >= 0 and prob.nu.tail_bound is not None:
        nu_tail = prob.nu.tail_bound
        tail = lambda T: float(np.exp(-2.0 * rate * T)) * float(nu_tail(T))
    ladder = improper_verdict(weighted_sq, pole_exp=prob.nu.pole_exp,
                              tail_bound=tail)
    fit_ok = fit_resid <= _TOL_FIT
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
        tolerance=_TOL_FIT,
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
                       gamma: float = 0.5,
                       measures: Mapping[int, tuple] | None = None) -> CertificateReport:
    """Run both adjoint routes and every applicable condition check.

    The assumption audit is embedded; its verdict gates the overall result but never suppresses the
    individual checks, so pathological candidates still get their
    condition-level diagnosis.  The adjoint cell maps are built once, on
    the candidate grid, and both routes are read off them; a cell the
    build cannot resolve raises :class:`~pmpcheck.integrate.BlowUp`,
    since neither route exists without the maps.  So is the chain of their
    transposes, the variational flow that the representation route and
    :func:`check_normality` read.  ``measures`` attaches
    constraint atoms to whichever adjoint ends up primary.  The concavity
    check (:func:`~pmpcheck.sufficiency.check_arrow`) always runs; where
    it aborts, ``sufficiency`` is None and a note names the cause.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    audit = audit_assumptions(prob, cand, gamma=gamma, mode=mode)
    notes: list[str] = []

    active = slater = None
    if prob.l > 0 and mode == "strong":
        active = active_indices(prob, cand)
        slater = slater_check(prob, cand, active=active)
        if not slater.passed:
            notes.append("interior-point separation fails; measure "
                         "multipliers may be degenerate")

    P, q = _adjoint_cell_maps(prob, cand)
    flow = _affine_chain(np.swapaxes(P, 1, 2), np.zeros_like(q), np.eye(prob.n))
    adjoints: dict[str, AdjointSolution] = {}
    rep_failure = None
    if lambda0 == 1.0:
        try:
            adjoints["representation"] = adjoint_representation(cand.grid, flow, q)
        except (IllConditioned, DivergentTail) as e:
            rep_failure = e
            notes.append(f"representation route unavailable: {e}")
    else:
        notes.append("representation route skipped: it encodes the normal "
                     "case lambda0 = 1")
    try:
        adjoints["backward-ode"] = adjoint_backward(cand.grid, P, q, lambda0)
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
        # the backward grid is a prefix of the representation grid
        pb, pr = adjoints["backward-ode"], adjoints["representation"]
        k = int(np.searchsorted(pb.grid, 0.5 * pb.grid[-1], side="right"))
        diff = np.linalg.norm(pb.p[:k] - pr.p[:k], axis=1)
        route_agreement = float(np.max(diff)) / max(pr.sup_norm, _TINY)
        notes.append(f"route agreement sup|backward - representation| / sup|p| = "
                     f"{route_agreement:.3g} on the first half horizon")

    primary = adjoints.get("representation") or adjoints["backward-ode"]
    if measures:
        primary = dataclasses.replace(primary, measures=measures)

    differential, integral = check_adjoint(prob, cand, primary)
    if mode == "weak" and prob.l > 0:
        integral = ConditionRecord(
            name="integral_adjoint_residual", verdict="not-applicable",
            premise="state constraints are a strong-route feature",
            premise_ok=False)
    conditions: list[ConditionRecord] = [differential, integral]
    if mode == "strong":
        conditions.append(check_maximum_condition(prob, cand, primary))
    else:
        conditions.append(ConditionRecord(
            name="maximum_condition", verdict="not-applicable",
            premise="pointwise maximality is asserted by the strong route only",
            premise_ok=False))
    conditions.append(check_weak_inequality(prob, cand, primary))
    conditions.extend(check_transversality(prob, cand, primary, mode=mode))
    conditions.append(check_michel(prob, cand, primary, mode=mode))

    conditions.append(check_normality(prob, cand, flow))

    from .sufficiency import check_arrow  # deferred: sufficiency imports pmp
    sufficiency = None
    try:
        sufficiency = check_arrow(prob, cand, primary, gamma=gamma, mode=mode)
    except (UnboundedAbove, DomainError) as e:
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

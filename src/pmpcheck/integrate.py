"""Quadrature and ODE machinery on the half line.

Everything downstream needs three capabilities, all provided here:

* improper integrals over [0, inf) with an explicit truncation policy:
  cell-wise sums of the one 7-point Gauss-Legendre rule over a grid that
  packs geometrically shrinking cells toward t = 0 (its nodes are
  interior, so an integrable pole at t = 0 is never evaluated there), a
  decade ladder of partial integrals that makes divergence visible, and
  an optional analytic tail bound that settles integrability outright.
  Every integral along a grid in the package goes through this one rule;

* per-cell affine maps ``y(tb) = P y(ta) + q`` of linear systems
  ``y' = M(t) y + b(t)`` along a fixed candidate, by 7-stage Gauss
  collocation, one transposed stage system per distinct stage matrix
  solved for the map alone (cells of one width share it where the
  linearization is one matrix at every node, as for linear dynamics with
  constant coefficients), a fixed block at a time, with every map checked
  against its two half-cell maps (unresolved cells are bisected), and
  composed into every knot by one blocked prefix scan.  Both adjoint
  routes and every state solve run on these maps: dynamics affine in x
  in one build, other dynamics in Newton sweeps, each sweep the linear
  equation of ``phi`` linearized along the previous iterate;

* an explicit adaptive Dormand-Prince 5(4) one-step integrator that never
  steps across a grid knot (controls are allowed to jump there).  It
  serves :func:`solve_ode` only.

Decisions at infinity are made by documented finite criteria (decade
ladders, three-window decay tests), never by a symbolic limit engine, and
every verdict carries the numbers it was based on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expressions import DomainError

__all__ = [
    "BlowUp",
    "InvalidGrid",
    "MissingTailBound",
    "LadderRecord",
    "DecayRecord",
    "default_grid",
    "improper_integral",
    "improper_verdict",
    "decays_to_zero",
    "solve_ode",
    "solve_state",
]


class InvalidGrid(ValueError):
    """Grid is not strictly increasing from 0, or too short."""


class BlowUp(RuntimeError):
    """A solution norm (or cell-map defect) exceeded its bound during integration."""

    def __init__(self, t: float, norm: float, bound: float, what: str = "solution norm"):
        self.t = float(t)
        self.norm = float(norm)
        self.bound = float(bound)
        super().__init__(f"{what} {norm:.3g} exceeded {bound:.3g} at t={t:.6g}")


class MissingTailBound(ValueError):
    """No analytic tail bound and the numeric tail estimate does not stabilize."""


# smallest knot above 0 of the zero-refined grids: cell boundaries double
# from here, so an integrable pole at 0 is resolved down to this scale
_T_MIN = 1e-12


def _check_grid(grid) -> np.ndarray:
    """``grid`` as a float array, after the package's one grid rule: 1-d,
    at least two knots, starting at 0 (every problem lives on [0, inf))
    and strictly increasing.  Candidates, adjoints and solves all apply it."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidGrid("grid must be a 1-d array with at least two points")
    if grid[0] != 0.0:
        raise InvalidGrid(f"grid must start at 0, got {grid[0]:g}")
    if not np.all(np.diff(grid) > 0):
        raise InvalidGrid("grid must be strictly increasing")
    return grid


def default_grid(
    t_max: float,
    cells: int = 4096,
    refine_zero: bool = True,
) -> np.ndarray:
    """Build the standard grid on [0, t_max].

    With ``refine_zero`` the grid spends ``cells`` uniform cells on
    [knee, t_max], where the knee is ``min(1, t_max / 2)``.  Below the
    knee, cells grow geometrically from ``_T_MIN`` (cell boundaries
    double) until they would outgrow the body's cells; cells of at most
    the body's width fill the rest of the head.  Quadrature rules with
    interior nodes can then integrate functions with an integrable pole
    at 0, and no head cell is coarser than the body.  Without
    ``refine_zero`` the grid is plain uniform, which is what ODE solves
    want (micro-cells near 0 force pointlessly small steps).
    """
    if t_max <= 0:
        raise InvalidGrid("t_max must be positive")
    if not refine_zero:
        return np.linspace(0.0, t_max, cells + 1)
    knee = min(1.0, t_max / 2.0)
    width = (t_max - knee) / cells
    geo = _T_MIN * 2.0 ** np.arange(int(np.ceil(np.log2(knee / _T_MIN))) + 1)
    geo = geo[(geo < knee) & (geo <= 2.0 * width)]  # a boundary closes a cell half its size
    fill = np.linspace(geo[-1], knee, int(np.ceil((knee - geo[-1]) / width)) + 1)[1:]
    body = np.linspace(knee, t_max, cells + 1)[1:]
    return np.concatenate(([0.0], geo, fill, body))


# The package's one quadrature rule: 7-point Gauss-Legendre, moved onto
# [0, 1].  Its nodes are interior, so no integrand is evaluated at a knot.
_GAUSS_C, _GAUSS_B = np.polynomial.legendre.leggauss(7)
_GAUSS_C, _GAUSS_B = 0.5 * (_GAUSS_C + 1.0), 0.5 * _GAUSS_B


def _cell_integrals(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """Per-cell integrals of ``f`` over ``grid`` by the 7-point Gauss rule.

    ``f`` gets all node times at once, shaped (cells, 7), and returns
    values shaped (cells, 7, ...); the result is shaped (cells, ...).
    """
    h = np.diff(grid)
    sums = np.einsum("kq...,q->k...", f(grid[:-1, None] + h[:, None] * _GAUSS_C), _GAUSS_B)
    return h.reshape((-1,) + (1,) * (sums.ndim - 1)) * sums


def improper_integral(f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """Partial integrals of ``f`` from 0 to each knot of ``grid``, cell by cell.

    ``partials[0]`` is 0 and ``partials[-1]`` the integral over
    [0, grid[-1]].  ``f`` is called once, on the (cells, 7) Gauss nodes.
    """
    grid = _check_grid(grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cells = _cell_integrals(f, grid)
    return np.concatenate(([0.0], np.cumsum(cells)))


@dataclass(frozen=True)
class LadderRecord:
    """Convergence evidence for an integral over [0, inf).

    ``partials`` are the integrals up to each rung of ``decades``; the
    verdict is one of ``converged`` / ``diverged`` / ``inconclusive``.
    Divergence at 0 is decided analytically when a pole exponent is
    declared (exponent <= -1 diverges) and only heuristically otherwise;
    the heuristic never claims divergence, it degrades to inconclusive.
    """

    verdict: str
    value: float
    decades: np.ndarray
    partials: np.ndarray
    tail_estimate: float | None
    notes: tuple[str, ...] = ()


# the decade ladder: log-spaced cells up to _LADDER_T_MAX, and the
# increment below which the last decade counts as settled
_LADDER_T_MAX = 1.0e4
_LADDER_CELLS = 256  # per decade
_LADDER_TOL = 1e-8


def improper_verdict(
    f: Callable[[np.ndarray], np.ndarray],
    pole_exp: float | None = 0.0,
    tail_bound: Callable[[float], float] | None = None,
) -> LadderRecord:
    """Decide whether ``int_0^inf f`` converges, with the evidence attached.

    ``pole_exp`` declares the power behaviour of ``f`` at 0 (``f ~ t^e``);
    ``None`` means unknown.  ``tail_bound(T)``, when supplied, must bound
    the remaining mass beyond T and settles tail convergence by itself.
    """
    # grid: geometric head below 1, then log-spaced decades up to the horizon
    n_geo = int(np.ceil(np.log2(1.0 / _T_MIN)))
    head = _T_MIN * 2.0 ** np.arange(n_geo + 1)
    head[-1] = 1.0
    pieces = [np.array([0.0]), head]
    decades = [1.0]
    t = 1.0
    while t < _LADDER_T_MAX * (1 - 1e-12):
        nxt = min(t * 10.0, _LADDER_T_MAX)
        pieces.append(np.geomspace(t, nxt, _LADDER_CELLS + 1)[1:])
        decades.append(nxt)
        t = nxt
    grid = np.concatenate(pieces)
    partials = improper_integral(f, grid=grid)

    decade_idx = np.searchsorted(grid, np.asarray(decades))
    decade_partials = partials[decade_idx]
    increments = np.diff(np.concatenate(([0.0], decade_partials)))

    # head blocks: mass over [1e-9,1e-6], [1e-6,1e-3], [1e-3,1]
    marks = np.searchsorted(grid, [1e-9, 1e-6, 1e-3, 1.0])
    head_blocks = np.diff(partials[marks])

    notes: list[str] = []
    # --- behaviour at 0 ---
    if pole_exp is not None:
        head_status = "converged" if pole_exp > -1.0 else "diverged"
        if head_status == "diverged":
            notes.append(
                f"pole exponent {pole_exp:g} <= -1: not integrable at 0"
            )
    else:
        # blocks scale like 10^{3(e+1)} per step toward 0; a ratio near or
        # above 1 means the local exponent is at or below -1
        b = np.abs(head_blocks)
        if b[0] > 1e-13 * (1.0 + abs(partials[-1])) and b[0] >= 0.5 * b[1]:
            head_status = "unresolved"
            notes.append("behaviour at 0 unresolved (no declared pole exponent)")
        else:
            head_status = "converged"

    # --- behaviour at infinity ---
    tail_estimate = None
    if not np.all(np.isfinite(decade_partials)):
        tail_status = "diverged"
        notes.append("partial integrals overflow")
    elif tail_bound is not None:
        tail_estimate = float(tail_bound(float(decades[-1])))
        tail_status = "converged" if np.isfinite(tail_estimate) else "inconclusive"
    else:
        d = np.abs(increments)
        growing = d.size >= 2 and d[-1] > 1.01 * d[-2] and d[-1] > _LADDER_TOL
        still_moving = d[-1] > 0.01 * (abs(decade_partials[-1]) + 1e-300)
        settled = d[-1] <= _LADDER_TOL * (1.0 + abs(decade_partials[-1]))
        if growing or (still_moving and d.size >= 2 and d[-1] >= 0.99 * d[-2]):
            tail_status = "diverged"
        elif settled:
            tail_status = "converged"
        else:
            tail_status = "inconclusive"
            notes.append("tail not settled at t_max; no tail bound declared")

    if "diverged" in (head_status, tail_status):
        verdict = "diverged"
    elif head_status == "converged" and tail_status == "converged":
        verdict = "converged"
    else:
        verdict = "inconclusive"

    # the partials cover [0, _LADDER_T_MAX]; a tail bound is reported separately
    return LadderRecord(
        verdict,
        float(decade_partials[-1]),
        np.asarray(decades),
        decade_partials,
        tail_estimate,
        tuple(notes),
    )


@dataclass(frozen=True)
class DecayRecord:
    """Three-window decay evidence for ``g(t) -> 0`` as t grows.

    ``sups`` are suprema of |g| over windows ending at t_max/100, t_max/10
    and t_max, each sampled at ``_DECAY_SAMPLES`` points over its last
    tenth.  The quantity qualifies when the sups are nonincreasing (slack
    ``_DECAY_SLACK``) and the final one is below ``_DECAY_TOL * (1 + first)``.
    """

    passed: bool
    sups: tuple[float, float, float]
    witness: tuple[float, float] | None
    detail: str


_DECAY_SAMPLES = 33
_DECAY_SLACK = 0.02
_DECAY_TOL = 1e-3  # the final window sup may reach this times 1 + the first


def decays_to_zero(
    g: Callable[[np.ndarray], np.ndarray],
    t_max: float = 50.0,
) -> DecayRecord:
    """Finite decay criterion for a limit-zero claim at infinity."""
    ends = (t_max / 100.0, t_max / 10.0, t_max)
    sups: list[float] = []
    argmax_t: list[float] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for end in ends:
            ts = np.linspace(0.9 * end, end, _DECAY_SAMPLES)
            vals = np.abs(np.asarray(g(ts), dtype=float))
            if vals.ndim > 1:
                vals = np.linalg.norm(vals, axis=-1)
            k = int(np.argmax(vals)) if np.all(np.isfinite(vals)) else int(np.argmax(~np.isfinite(vals)))
            sups.append(float(vals[k]))
            argmax_t.append(float(ts[k]))
    s1, s2, s3 = sups
    floor = 1e-300
    if not all(np.isfinite(sups)):
        bad = next(i for i, s in enumerate(sups) if not np.isfinite(s))
        return DecayRecord(False, tuple(sups), (argmax_t[bad], sups[bad]), "non-finite samples")
    if s2 > s1 * (1 + _DECAY_SLACK) + floor:
        return DecayRecord(False, tuple(sups), (argmax_t[1], s2), "grows between first and second window")
    if s3 > s2 * (1 + _DECAY_SLACK) + floor:
        return DecayRecord(False, tuple(sups), (argmax_t[2], s3), "grows between second and third window")
    if s3 > _DECAY_TOL * (1.0 + s1):
        return DecayRecord(False, tuple(sups), (argmax_t[2], s3), f"final window sup {s3:.3g} above tol*(1+first)")
    return DecayRecord(True, tuple(sups), None, "decays across windows")


# --- Dormand-Prince 5(4) -----------------------------------------------------
#
# Dormand & Prince, J. Comput. Appl. Math. 6 (1980); Hairer, Norsett and
# Wanner, Solving Ordinary Differential Equations I, sec. II.5.
#
#   c  |  a
#  ----+------------------------------------------------------------
#  0   |
#  1/5 | 1/5
#  3/10| 3/40        9/40
#  4/5 | 44/45      -56/15       32/9
#  8/9 | 19372/6561 -25360/2187  64448/6561 -212/729
#  1   | 9017/3168  -355/33      46732/5247  49/176  -5103/18656
#  1   | 35/384      0           500/1113    125/192 -2187/6784  11/84
#
# The last stage row doubles as the 5th-order weights (FSAL).

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = _DP_A[-1]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_ERR = _DP_B5 - _DP_B4
_DP_ROWS = tuple(_DP_A[i, :i] for i in range(7))  # stage i combines the first i slopes


def _dp_step(stages, t, y, h, k1):
    """One Dormand-Prince step; returns (y5, error_vector, K).

    ``stages(ts)`` is called once with the step's seven stage times and
    returns ``slope(i, y_i)`` for stage i.  ``k1``, the slope at (t, y),
    is evaluated as stage 0 when it is None.  ``K`` holds the seven
    slopes; ``K[-1]`` is the slope at (t + h, y5) (FSAL).
    """
    slope = stages(t + _DP_C * h)
    K = np.empty((7, y.size))
    K[0] = slope(0, y) if k1 is None else k1
    for i in range(1, 7):
        yi = y + h * (_DP_ROWS[i] @ K[:i])
        K[i] = slope(i, yi)
    return yi, h * (_DP_ERR @ K), K


def _integrate_cell(stages, ta, tb, y, rtol, atol, blowup, k1=None):
    """Advance y from ta to tb without stepping past tb; returns (y, k_last)."""
    t = ta
    h = tb - ta
    steps = 0
    while t < tb:
        h = min(h, tb - t)
        if h < (tb - ta) * 1e-14:
            raise BlowUp(t, float(np.max(np.abs(y))), blowup)
        y_new, err_vec, K = _dp_step(stages, t, y, h, k1)
        k1 = K[0]  # a rejected step retries from the same slope
        scaled = err_vec / (atol + rtol * np.maximum(abs(y), abs(y_new)))
        err = math.sqrt(float(scaled @ scaled) / scaled.size)  # RMS norm
        if not math.isfinite(err):
            raise BlowUp(t + h, float(np.max(np.abs(y_new))), blowup)
        if err <= 1.0:
            t += h
            y = y_new
            k1 = K[-1]
            ynorm = float(abs(y).max())
            if ynorm > blowup:
                raise BlowUp(t, ynorm, blowup)
        factor = 0.9 * (err + 1e-300) ** -0.2
        h *= min(5.0, max(0.2, factor))
        steps += 1
        if steps > 200000:
            raise BlowUp(t, float(np.max(np.abs(y))), blowup)
    return y, k1


def solve_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    grid: np.ndarray,
    y0: Sequence[float] | float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    blowup: float = 1e12,
) -> np.ndarray:
    """Integrate ``y' = rhs(t, y)`` through every grid point.

    Integration restarts at each knot, so right-hand sides may jump there
    (piecewise controls).  Returns an array of shape ``(len(grid), n)``.
    """
    grid = _check_grid(grid)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    out = np.empty((grid.size, y.size))
    out[0] = y
    stages = lambda ts: lambda i, yi: rhs(ts[i], yi)
    k1 = None
    for i in range(grid.size - 1):
        y, k1 = _integrate_cell(stages, grid[i], grid[i + 1], y, rtol, atol, blowup, k1)
        out[i + 1] = y
    return out


def _sample_at(grid: np.ndarray, samples: np.ndarray, t) -> np.ndarray:
    """Piecewise-constant, left-continuous lookup: the right knot owns a cell."""
    return samples[np.minimum(np.searchsorted(grid, t, side="left"), grid.size - 1)]


def _check_norms(ts: np.ndarray, x: np.ndarray, blowup: float) -> None:
    """Raise :class:`BlowUp` at the first of ``ts`` whose state norm
    exceeds ``blowup`` or is NaN."""
    norms = np.abs(x).max(axis=1)
    bad = ~(norms <= blowup)
    if bad.any():
        k = int(np.argmax(bad))
        raise BlowUp(ts[k], norms[k], blowup)


def _affine_state(prob, control, grid, x0, blowup):
    """Knot states of dynamics affine in x, from the Gauss collocation cell maps.

    Under a fixed control the state equation is ``x' = M(t) x + b(t)``
    with ``M = phi_x(t, 0, u)`` and ``b = phi(t, 0, u)``, read at interior
    Gauss nodes only.  :func:`_affine_chain` composes the maps into every
    knot at once; then the first knot whose norm exceeds ``blowup`` (or is
    NaN) raises :class:`BlowUp`, whatever later knots read.
    """

    def coef(ts):
        us = np.asarray(control(ts), dtype=float).reshape(ts.size, -1)
        zero = np.zeros((ts.size, x0.size))
        return prob.phi_jac_x(ts, zero, us), prob.phi_value(ts, zero, us)

    x = _affine_chain(*_linear_cell_maps(coef, grid[:-1], grid[1:]), x0)
    _check_norms(grid[1:], x[1:], blowup)
    return x


# Newton (quasilinearization) sweeps for dynamics that are not affine in x.
# A window of cells has converged when a sweep moves no knot by more than
# _NEWTON_TOL times max(1, |x|); it gets _NEWTON_SWEEPS sweeps before it is
# halved.  A sweep's maps may hold _NEWTON_PIECES cells per window cell on
# one halving level, so an iterate far off the flow fails fast and its
# window is halved rather than bisected.  A kept cell whose iterate strays
# from the flow by more than _NEWTON_CELL_TOL times max(1, |x|) at its
# midpoint is split; no cell is split below _NEWTON_FLOOR times the horizon.
_NEWTON_TOL = 1e-12
_NEWTON_CELL_TOL = 1e-7
_NEWTON_SWEEPS = 12
_NEWTON_PIECES = 4
_NEWTON_FLOOR = 1e-14


def _cell_controls(control, tw: np.ndarray) -> np.ndarray:
    """Each cell's own control at its left and right knot, shaped
    (2 (K), m) with the left ends first: the left knot is moved to the
    next float above it, so a control that jumps there gives its right
    limit."""
    ends = np.concatenate((np.nextafter(tw[:-1], tw[1:]), tw[1:]))
    return np.asarray(control(ends), dtype=float).reshape(ends.size, -1)


def _iterate(prob, tw, xw, u_ends):
    """The iterate through the knot states ``xw``, as a function of time:
    the cubic Hermite interpolant with the slopes ``phi`` gives at each
    cell's knots, read with the cell's own control ``u_ends``, so the
    iterate may bend at a knot where the control jumps."""
    ends = np.concatenate((tw[:-1], tw[1:]))
    left, right = prob.phi_value(ends, np.concatenate((xw[:-1], xw[1:])), u_ends).reshape(
        2, tw.size - 1, xw.shape[1])

    def at(ts):
        k = np.clip(np.searchsorted(tw, ts, side="right") - 1, 0, tw.size - 2)
        h = (tw[k + 1] - tw[k])[:, None]
        s = (ts - tw[k])[:, None] / h
        return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * xw[k] + s * (1.0 - s) ** 2 * h * left[k]
                + s * s * (3.0 - 2.0 * s) * xw[k + 1] - s * s * (1.0 - s) * h * right[k])

    return at


def _newton_sweep(prob, control, tw, x0, iterate) -> np.ndarray:
    """The knots of one Newton sweep over the knots ``tw`` from ``x0``.

    Along ``iterate`` the sweep solves ``x' = M x + b`` with
    ``M = phi_x(t, x_j, u)`` and ``b = phi(t, x_j, u) - M x_j``, through
    the Gauss collocation cell maps and the blocked prefix scan.
    """

    def coef(ts):
        xs = iterate(ts)
        us = np.asarray(control(ts), dtype=float).reshape(ts.size, -1)
        M = prob.phi_jac_x(ts, xs, us)
        return M, prob.phi_value(ts, xs, us) - np.einsum("kij,kj->ki", M, xs)

    maps = _linear_cell_maps(coef, tw[:-1], tw[1:], pieces=_NEWTON_PIECES * (tw.size - 1))
    return _affine_chain(*maps, x0)


def _coarse_cells(prob, control, tw, xw, iterate) -> np.ndarray:
    """Which cells of the iterate between the knots ``tw`` to split.

    At a cell's midpoint the flow along the iterate differs from it by
    about the integral of ``phi(t, x_j, u) - x_j'`` over the cell's first
    half, taken by the Gauss rule.  A cell is coarse when that exceeds
    ``_NEWTON_CELL_TOL`` times ``max(1, |x|)``, and so is the first cell
    where the iterate leaves the expression domain at those nodes.
    """
    h = 0.5 * np.diff(tw)
    ts = (tw[:-1, None] + h[:, None] * _GAUSS_C).ravel()
    us = np.asarray(control(ts), dtype=float).reshape(ts.size, -1)
    try:
        slopes = prob.phi_value(ts, iterate(ts), us).reshape(h.size, _GAUSS_C.size, -1)
    except DomainError as err:
        coarse = np.zeros(h.size, dtype=bool)
        coarse[np.searchsorted(tw, err.point["t"]) - 1] = True  # nodes are interior
        return coarse
    gap = h[:, None] * np.einsum("kqn,q->kn", slopes, _GAUSS_B) - (iterate(tw[:-1] + h) - xw[:-1])
    scale = np.maximum(1.0, np.maximum(np.abs(xw[:-1]), np.abs(xw[1:])))
    return ~np.all(np.abs(gap) <= _NEWTON_CELL_TOL * scale, axis=1)


def _newton_window(prob, control, tw, xw):
    """Newton sweeps over the window knots ``tw`` from the knot states
    ``xw``, whose first row is the converged start.

    Returns ``(xw, kept, coarse, error)``.  ``xw`` holds the last
    iterate's knots.  ``kept`` counts the leading knots the last sweep
    left in place, ``tw.size`` once the window has converged: a knot that
    moves is not kept, and neither is any knot after it, since a cell's
    iterate reads both of its knots.  ``coarse`` marks the cells between
    kept knots to split (:func:`_coarse_cells`, judged on the iterate the
    last sweep read).  ``error`` is the
    :class:`~pmpcheck.expressions.DomainError` or :class:`BlowUp` that
    ended the sweeps, if one did: an iterate that leaves the expression
    domain, or whose cell maps cannot be resolved.  Knots that turn
    non-finite end them too.
    """
    u_ends = _cell_controls(control, tw)
    kept, error = 1, None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_SWEEPS):
            try:
                iterate = _iterate(prob, tw, xw, u_ends)
                new = _newton_sweep(prob, control, tw, xw[0], iterate)
            except (DomainError, BlowUp) as err:
                error = err
                break
            still = np.all(np.abs(new - xw) <= _NEWTON_TOL * np.maximum(1.0, np.abs(new)), axis=1)
            kept = tw.size if still.all() else int(np.argmin(still))
            read, xw = (xw[:kept], iterate), new
            if kept == tw.size or not np.isfinite(new).all():
                break
        coarse = _coarse_cells(prob, control, tw[:kept], *read) if kept > 1 else np.zeros(0, bool)
    return xw, kept, coarse, error


def _check_start(prob, control, ta, tb, xa) -> None:
    """Evaluate ``phi`` at ``(ta, xa)`` under the control of the cell
    [ta, tb]: a converged point outside the expression domain raises its
    :class:`~pmpcheck.expressions.DomainError` here."""
    prob.phi_value(ta, xa, _cell_controls(control, np.array([ta, tb]))[0])


def _newton_state(prob, control, grid, x0, guess, blowup):
    """Knot states of dynamics not affine in x, by Newton sweeps on windows
    of cells (quasilinearization: Bellman and Kalaba, 1965).

    The first iterate is ``guess`` (knot states, one row per knot), or
    ``x0`` held constant; the first window covers the whole grid.  When a
    window does not converge, the knots its last sweep left in place are
    kept (they are converged: a cell's map reads only its own knots), the
    iterate past them restarts from the last of them held constant, and
    the window is halved (Newton over a sequence: Lim et al., "DEER",
    ICLR 2024); a window of one cell is halved by splitting the cell.  A
    converged window doubles the next.  Kept knots count only up to the
    first coarse cell among them (:func:`_coarse_cells`): the coarse cells
    are split, and the solve sweeps again from there.

    The knots the solve works on are the grid's and the midpoints of split
    cells.  The first of them whose norm exceeds ``blowup`` raises
    :class:`BlowUp`.  A window that fails on a converged point outside the
    domain raises that point's
    :class:`~pmpcheck.expressions.DomainError`.  A cell that would have to
    be split below the floor stops the solve at its left knot: with the
    domain error that ended its last window, if one did, else with
    :class:`BlowUp`.
    """
    floor = _NEWTON_FLOOR * grid[-1]
    tw = grid
    xw = np.tile(x0, (grid.size, 1)) if guess is None else (
        np.array(guess, dtype=float).reshape(grid.size, x0.size))
    xw[0] = x0
    k, span = 0, grid.size - 1
    while k < tw.size - 1:
        hi = min(tw.size - 1, k + span)
        x, kept, coarse, error = _newton_window(prob, control, tw[k:hi + 1], xw[k:hi + 1])
        xw[k:k + kept] = x[:kept]
        coarse &= np.diff(tw[k:k + kept]) >= 2.0 * floor
        done = int(np.argmax(coarse)) + 1 if coarse.any() else kept  # knots that stand
        _check_norms(tw[k + 1:k + done], xw[k + 1:k + done], blowup)
        converged = kept > hi - k
        if not converged:  # restart past the kept knots from the last of them
            xw[k + kept:] = xw[k + kept - 1]
            span = (hi - k) // 2
        if coarse.any():  # sweep again from the first coarse cell, every one split
            cells = k + np.flatnonzero(coarse)
            if converged:
                span = hi + cells.size - int(cells[0])
            k = int(cells[0])
        elif converged:
            k, span = hi, 2 * span
            continue
        else:
            k += kept - 1
            _check_start(prob, control, tw[k], tw[k + 1], xw[k])
            if span:
                continue
            if tw[k + 1] - tw[k] < 2.0 * floor:
                if isinstance(error, DomainError):
                    raise error
                raise BlowUp(tw[k], float(np.max(np.abs(xw[k]))), blowup)
            cells, span = np.array([k]), 1
        tw = np.insert(tw, cells + 1, 0.5 * (tw[cells] + tw[cells + 1]))
        xw = np.insert(xw, cells + 1, 0.5 * (xw[cells] + xw[cells + 1]), axis=0)
    return xw[np.searchsorted(tw, grid)]


def solve_state(prob, u, x0=None, grid=None, guess=None, blowup: float = 1e12):
    """Integrate the state equation under a given control.

    ``u`` is either a callable or an array of samples on the grid knots.
    A callable takes an array of times and returns one control row per
    time (a 1-d array when m = 1), as in
    :func:`~pmpcheck.problem.candidate_from_functions`.  Samples, given or
    read off the callable at the knots, follow the candidate's shape rule
    (:func:`~pmpcheck.problem._check_samples`).  They are treated as
    constant on each half-open cell, the sample at the right knot owning
    the cell, and are read through the same lookup.  The control is read
    inside the cells only (a cell's left knot moved to the next float
    above it), so a control that jumps at the knots, such as
    ``CandidateProcess.control`` of a sampled candidate, is seen with the
    cell's own value.

    Every dynamics runs on one engine: the 7-stage Gauss collocation cell
    maps of a linear equation ``x' = M(t) x + b(t)``, checked against
    their half-cell maps with bisection (``_MAP_TOL``) and composed into
    the knots by one blocked prefix scan.

    * Dynamics affine in x (``prob.x_affine``) are that equation under the
      fixed control: one build (see :func:`_affine_state`).
    * Other dynamics take Newton sweeps (see :func:`_newton_state`): each
      linearizes ``phi`` along the current iterate and builds its maps,
      until a sweep moves no knot by more than ``_NEWTON_TOL`` times
      ``max(1, |x|)``.  The first iterate is ``guess``, knot states with
      one row per knot, or ``x0`` held constant; a window that does not
      converge is halved and marched, so progress does not depend on the
      guess.

    The first knot whose state norm exceeds ``blowup`` raises
    :class:`BlowUp`.  Nonlinear dynamics raise it, or the
    :class:`~pmpcheck.expressions.DomainError` of ``phi``, only from the
    converged solution: at the first knot past ``blowup``, at the point
    where the solution leaves the domain, or where no cell of
    ``_NEWTON_FLOOR`` times the horizon passes.  ``guess`` is not read for
    dynamics affine in x.  Without ``grid`` the knots
    are a uniform 1024-cell grid on [0, 50].  Returns a
    :class:`~pmpcheck.problem.CandidateProcess`; a callable ``u`` becomes
    its ``closed_u``.
    """
    from .problem import CandidateProcess, _check_samples  # deferred: avoids an import cycle

    if grid is None:
        grid = default_grid(50.0, cells=1024, refine_zero=False)
    grid = _check_grid(grid)
    if x0 is None:
        x0 = prob.x0
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    u_samples = _check_samples("control", u(grid) if callable(u) else u, grid, "m")
    control = u if callable(u) else (lambda ts: _sample_at(grid, u_samples, ts))

    if prob.x_affine:
        x = _affine_state(prob, control, grid, x0, blowup)
    else:
        x = _newton_state(prob, control, grid, x0, guess, blowup)
    return CandidateProcess(grid=grid, x=x, u=u_samples,
                            closed_u=u if callable(u) else None)


# --- Gauss collocation for linear systems -----------------------------------
#
# Along a fixed candidate, y' = M(t) y + b(t) needs no adaptive stepping:
# one 7-stage Gauss collocation step (order 14) turns a cell into an affine
# map y(tb) = P y(ta) + q, carried as the matrix [[P, q], [0, 1]] so that
# maps compose by matrix products.
#
# The step's stage slopes solve L k = R, with L = I - h (A x M) and
# R = [M | b] (one column per unit start and one for the forcing), but the
# map needs only their weighted sum h (b x I)^T k.  That linear functional
# comes from the transposed system: L^T W = b x I_d gives h W^T R (the
# adjoint approach; Giles and Pierce, Flow Turb. Combust. 65, 2000).  So a
# cell solves for d right-hand sides instead of d + 1, and no slope is kept.
#
# L depends on the cell only through h and M at its nodes.  Where M is one
# matrix at every node (linear dynamics with constant coefficients, for
# the adjoint's -phi_x^T and for the state's phi_x alike), cells of one
# width have the same L, and one factorization serves them all, as
# implicit Runge-Kutta codes reuse one LU across steps of equal h and
# Jacobian (Hairer and Wanner, Solving ODEs II, IV.8).  Equal h and
# value-equal M assemble bitwise-equal matrices and LAPACK is
# deterministic, so sharing changes no bit of a map.

# a_ij integrates the j-th Lagrange polynomial on the nodes over [0, c_i];
# the Gauss rule itself, moved onto [0, c_i], does so exactly
_GAUSS_A = _GAUSS_C[:, None] * np.stack([
    np.prod((np.outer(_GAUSS_C, _GAUSS_C)[..., None] - np.delete(_GAUSS_C, j))
            / (_GAUSS_C[j] - np.delete(_GAUSS_C, j)), axis=-1) @ _GAUSS_B
    for j in range(_GAUSS_C.size)], axis=1)
_MAP_TOL = 1e-8  # accepted defect of a one-step cell map against its halves
_MAP_HALVINGS = 256  # resolves a Weibull 0.1 pole on the default grid
_MAP_PIECES = 2**15  # most cells one halving level may hold, unless a build sets fewer
# floats of stage matrices solved at once: a block of cells holds at most
# 256 KB of them (or one cell's, when a single 7d x 7d matrix is larger),
# however many cells a level has
_STAGE_FLOATS = 2**15


def _collocate(coef, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """One collocation step per cell, as augmented maps shaped (K, d+1, d+1).

    ``coef`` is called once, on the Gauss nodes of every cell.  A cell's
    transposed stage matrix ``I - h (A x M)^T`` depends on the cell only
    through ``h`` and ``M`` at its nodes, so the cells fall into classes
    that share one: when ``M`` is one matrix at every node of the call and
    two cells share a width, the cells of one width (``np.unique`` of
    ``h``), else each cell alone.  Per
    class the matrix is solved once, for the weights ``W`` of the d
    right-hand sides ``b x I_d``, and each cell's map is
    ``I + h W^T [M | b]`` with its class's weights.  The classes are taken
    one block at a time, each block's stage matrices filling at most
    ``_STAGE_FLOATS`` floats of one buffer that every block reuses (the
    last block a leading slice of it), and the cells of a block's classes
    in grid order, at most that many at a time.  LAPACK factors every
    matrix on its own, and equal ``h`` with value-equal ``M`` assemble the
    same bits (``+0`` and ``-0`` entries subtract from the identity
    alike), so the maps are bitwise those of one solve per cell.
    """
    h = tb - ta
    K, s = ta.size, _GAUSS_C.size
    M, b = coef((ta[:, None] + h[:, None] * _GAUSS_C).ravel())
    d = b.shape[-1]
    M, b = M.reshape(K, s, d, d), b.reshape(K, s, d)
    sd = s * d
    eye = np.eye(sd)
    weights = np.kron(_GAUSS_B[:, None], np.eye(d))  # b x I_d, (sd, d)
    cells = max(1, _STAGE_FLOATS // sd**2)
    nodes = M.reshape(K * s, d * d)
    # one M at every node: == is transitive, and a NaN node fails it
    shared = (nodes[1:] == nodes[:-1]).all()
    widths, cls = np.unique(h, return_inverse=True) if shared else (h, None)
    if widths.size == K:  # no two cells share a stage matrix: class k is cell k
        widths, cls, M_cls = h, None, M
    else:
        M_cls = np.broadcast_to(M[:1], (widths.size,) + M.shape[1:])
        block_of = cls // cells  # the block that solves each cell's class
        order = np.argsort(block_of, kind="stable")  # the cells block by block, in grid order
        block_of = block_of[order]
    M_t = M_cls.transpose(0, 3, 1, 2)  # M_t[k, c, i, r] = M_cls[k, i, r, c]
    G = np.zeros((K, d + 1, d + 1))
    # entry (j, c, i, r) of a class's h (A x M)^T is h a_ij M_i[r, c]
    lhs = np.empty((min(widths.size, cells), s, d, s, d))
    for lo in range(0, widths.size, cells):
        block = slice(lo, lo + cells)
        m = widths[block].size
        np.multiply(_GAUSS_A.T[:, None, :, None],
                    widths[block, None, None, None, None] * M_t[block, None],
                    out=lhs[:m])
        lhs_t = lhs[:m].reshape(m, sd, sd)
        np.subtract(eye, lhs_t, out=lhs_t)  # I - h (A x M)^T, in place
        # an explicit batch axis: numpy < 2 reads a 2-d b as a stack of vectors
        W = np.linalg.solve(lhs_t, np.broadcast_to(weights, (m, sd, d)))
        first, last = ((lo, lo + m) if cls is None else
                       np.searchsorted(block_of, (lo // cells, lo // cells + 1)))
        for at in range(first, last, cells):  # the cells of these classes, a block at a time
            if cls is None:  # the block's own cells, in grid order
                k, W_k = slice(lo, lo + m), W
            else:
                k = order[at:min(at + cells, last)]
                if k[-1] - k[0] == k.size - 1:  # a run of cells: views, not copies
                    k = slice(k[0], k[-1] + 1)
                W_k = W.take(cls[k] - lo, 0)  # each cell's class weights
            rhs = np.concatenate((M[k], b[k, ..., None]), axis=-1).reshape(-1, sd, d + 1)
            G[k, :d] = h[k, None, None] * (W_k.transpose(0, 2, 1) @ rhs)
    G += np.eye(d + 1)
    return G


def _linear_cell_maps(coef, ta, tb, pieces: int = _MAP_PIECES) -> tuple[np.ndarray, np.ndarray]:
    """Maps ``y(tb) = P y(ta) + q`` of ``y' = M(t) y + b(t)``, one per cell.

    ``coef(ts)`` returns ``M`` (len(ts), d, d) and ``b`` (len(ts), d); it
    sees interior Gauss nodes only, once per level, while
    :func:`_collocate` solves the level's stage systems a block of cells
    at a time, so a cell's (7d)^2 stage floats are held for one block
    only.  Cells may run backward.  A cell whose one-step map differs from
    the product of its half-cell maps by more than ``_MAP_TOL`` (relative
    to ``max(1, |P|)``, offsets in units of the summed offsets, so scaling
    ``b`` changes no decision) is bisected; running out of halvings, or a
    level that would hold more than ``pieces`` cells, raises
    :class:`BlowUp`.  Returns ``P`` (K, d, d) and ``q``
    (K, d).
    """
    lo, hi = np.asarray(ta, dtype=float), np.asarray(tb, dtype=float)
    levels = []
    with np.errstate(over="ignore", invalid="ignore"):
        whole = _collocate(coef, lo, hi)
        total = np.nansum(np.abs(whole[:, :-1, -1]))
        units = np.ones(whole.shape[1:])
        units[:-1, -1] = 1.0 / total if 0.0 < total < np.inf else 1.0
        for halvings in range(_MAP_HALVINGS + 1):
            mid = 0.5 * (lo + hi)
            halves = _collocate(coef, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
            left, right = halves[: lo.size], halves[lo.size:]
            fine = right @ left
            scale = np.maximum(1.0, np.max(np.abs(fine * units), axis=(1, 2)))
            err = np.max(np.abs((fine - whole) * units), axis=(1, 2)) / scale
            bad = ~(err <= _MAP_TOL)  # NaN counts as bad
            levels.append((fine, bad))
            if not bad.any():
                break
            if halvings == _MAP_HALVINGS or 2 * np.count_nonzero(bad) > pieces:
                k = int(np.argmax(bad))
                raise BlowUp(lo[k], err[k], _MAP_TOL, what="cell map defect")
            # the halves of an unresolved cell are the next level's cells
            lo = np.stack((lo[bad], mid[bad]), axis=1).ravel()
            hi = np.stack((mid[bad], hi[bad]), axis=1).ravel()
            whole = np.stack((left[bad], right[bad]), axis=1).reshape(-1, *fine.shape[1:])
    # deepest level first: an unresolved cell is the product of its two
    # children, which sit side by side one level down
    maps = None
    for fine, bad in reversed(levels):
        if maps is not None:
            fine[bad] = maps[1::2] @ maps[0::2]
        maps = fine
    return maps[:, :-1, :-1], maps[:, :-1, -1]


# cells per doubling block of the chain.  A product over the whole grid can
# overflow (30 units of growth over 50 time units is e^{1500}) and turn an
# exact zero the loop would keep into inf * 0 = NaN; a product over one
# block grows by at most the 64th power of one cell's map.
_CHAIN_BLOCK = 64


def _affine_chain(P: np.ndarray, q: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Every knot of ``y_{k+1} = P_k y_k + q_k``, shaped ``(K+1,) + y0.shape``.

    ``P`` is (K, d, d) and ``q`` (K, d); ``y0`` is a vector (d,) or a
    matrix (d, r), and then ``q_k`` is added to each column.  The
    augmented maps ``[[P_k, q_k], [0, 1]]`` are composed by a doubling
    prefix scan (Hillis and Steele, CACM 29, 1986) inside blocks of
    ``_CHAIN_BLOCK`` cells, and the block starts are chained in order.
    Knots past an overflow read inf or NaN without a warning; callers find
    the first knot past their limit on the result.
    """
    K, d = q.shape
    y0 = np.asarray(y0, dtype=float)
    cols = y0.reshape(d, -1)
    blocks = -(-K // _CHAIN_BLOCK)
    maps = np.zeros((blocks * _CHAIN_BLOCK, d + 1, d + 1))
    maps[K:] = np.eye(d + 1)  # padding cells leave the knot as it is
    maps[:K, :d, :d], maps[:K, :d, d], maps[:K, d, d] = P, q, 1.0
    maps = maps.reshape(blocks, _CHAIN_BLOCK, d + 1, d + 1)
    starts = np.empty((blocks + 1, d + 1, cols.shape[1]))
    starts[0, :d], starts[0, d] = cols, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        step = 1
        while step < _CHAIN_BLOCK:  # maps[:, j] becomes cell j's map times all before it
            maps[:, step:] = maps[:, step:] @ maps[:, :-step]
            step *= 2
        for b in range(blocks):
            starts[b + 1] = maps[b, -1] @ starts[b]
        knots = (maps @ starts[:-1, None]).reshape(-1, d + 1, cols.shape[1])
    return np.concatenate((cols[None], knots[:K, :d])).reshape((K + 1,) + y0.shape)

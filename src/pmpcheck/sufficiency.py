"""Concavity of the maximized Hamiltonian: the sufficient-condition side.

A candidate that passes the necessary conditions with a normal
multiplier is locally optimal once the maximized Hamiltonian

    hamilton_sup(t, x) = sup over admissible u of H(t, x, u, p(t), 1)

is concave in x on the tube around the trajectory.  Concavity of a
supremum cannot be read off the integrand (an upper envelope of concave
slices need not be concave), so it is probed directly: midpoint
inequalities over sampled point pairs, plus a second-difference stencil
in one dimension where the geometry allows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pmp import _BLOCK, AdjointSolution, _hamiltonian, _sup_over_u
from .problem import CandidateProcess, ControlProblem, _ball, _tube

__all__ = ["ConcavityReport", "check_arrow", "hamiltonian_sup"]

_SUP_TOL = 1e-10  # relative rise above the start's H an escaping search must show
_PAIRS = 64  # midpoint pairs per scanned time
_CONCAVITY_TOL = 1e-9  # accepted midpoint defect relative to 1 + |h|


@dataclass(frozen=True)
class ConcavityReport:
    """Per-time concavity verdicts for the maximized Hamiltonian.

    ``worst`` holds the largest midpoint defect found at each scanned
    time: ``(h(x1) + h(x2))/2 - h((x1+x2)/2)``, clipped at zero, so a
    concave slice reads 0 up to roundoff.  ``pair_offsets`` are the
    unit-ball offsets shared by all slices; ``pairs_at`` rebuilds the
    actual coordinates for one slice.  A failed premise (no normal
    multiplier to scan with) leaves the arrays empty.
    """

    grid: np.ndarray
    worst: np.ndarray
    slice_ok: np.ndarray
    radii: np.ndarray
    centers: np.ndarray
    pair_offsets: np.ndarray
    witness: tuple | None
    premise: str
    premise_ok: bool
    tolerance: float
    notes: tuple = ()

    @property
    def overall(self) -> str:
        if not self.premise_ok:
            return "not-applicable"
        return "pass" if bool(np.all(self.slice_ok)) else "fail"

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    def pairs_at(self, k: int) -> np.ndarray:
        """Sampled (x1, x2) pairs at grid index ``k``, shape (pairs, 2, n)."""
        return self.centers[k] + self.radii[k] * self.pair_offsets


def _as_points(t, x, p, n: int):
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    xs = np.asarray(x, dtype=float)
    ps = np.asarray(p, dtype=float)
    if xs.ndim == 1:
        xs = np.broadcast_to(xs, (ts.size, n))
    if ps.ndim == 1:
        ps = np.broadcast_to(ps, (ts.size, n))
    if xs.shape != (ts.size, n) or ps.shape != (ts.size, n):
        raise ValueError(
            f"expected x and p with shape ({ts.size}, {n}), "
            f"got {xs.shape} and {ps.shape}")
    return ts, np.ascontiguousarray(xs), np.ascontiguousarray(ps)


def hamiltonian_sup(prob: ControlProblem, t, x, p, u_start=None):
    """sup over the control box of H(t, x, u, p, 1), vectorized.

    ``t`` may be a scalar or a 1-d array; ``x`` and ``p`` follow with one
    row per time (a single row is broadcast).  The inner maximization
    uses the same search as the maximum-condition check: a closed form
    for each control coordinate along which H is at most quadratic, the
    prescan plus safeguarded Newton for every other one, with golden
    section where a slice is not concave.  ``u_start`` overrides the
    default feasible starting point (the projection of 0 into the box).

    Raises UnboundedAbove when H climbs without bound toward an open
    face of the box.
    """
    scalar = np.ndim(t) == 0
    ts, xs, ps = _as_points(t, x, p, prob.n)
    if u_start is None:
        u0 = np.broadcast_to(prob.U.project(np.zeros(prob.m)),
                             (ts.size, prob.m)).copy()
    else:
        u0 = np.asarray(u_start, dtype=float)
        if u0.ndim == 1:
            u0 = np.broadcast_to(u0, (ts.size, prob.m))
        u0 = np.ascontiguousarray(u0)
    w = np.asarray(prob.omega(ts), dtype=float)
    h0 = _hamiltonian(prob, w, ts, xs, u0, ps, 1.0)
    _, h_best = _sup_over_u(prob, w, ts, xs, u0, ps, 1.0, h0,
                            h0 + _SUP_TOL * np.abs(h0))
    return float(h_best[0]) if scalar else h_best


def _knot_sup(prob: ControlProblem, w, ts, centers, u_star, ps, xs):
    """:func:`hamiltonian_sup` at tube points, one control search per knot.

    ``xs`` has shape (knots, points, n); row k of ``w``, ``ts``,
    ``centers``, ``u_star`` and ``ps`` belongs to knot k.  Valid only when
    ``prob.u_separable``, so that all points of a knot share their
    maximizing control.  H at the candidate control is evaluated at every
    point first, knot after knot, so a state outside the domain of H
    names the point that the per-point search names.  The search then
    runs once at each center, from the candidate control.  Its escape
    floor takes the smallest ``|H|`` over the knot's points: the rise
    toward a face is the same at every point, so the knot escapes when
    the per-point search escapes at one of them.  Each point finally
    takes H at the knot's control where that exceeds H at the candidate
    control, the test the per-point search makes at that point; so the
    center does not judge the first coordinate's result, which may tie
    with the candidate there and yet rise at another point.
    H is evaluated in blocks of whole knots, at most ``_BLOCK`` points
    each unless one knot has more.
    """
    h = np.empty(xs.shape[:2])
    step = max(1, _BLOCK // xs.shape[1])
    blocks = [slice(lo, lo + step) for lo in range(0, ts.size, step)]

    def at_points(u, k):
        # H at the points of knots k, each knot's row broadcast over its points
        x = xs[k]
        row = lambda a: np.broadcast_to(a[k, None], x.shape[:2] + a.shape[1:])
        return _hamiltonian(prob, row(w), row(ts), x, row(u), row(ps), 1.0)

    for k in blocks:
        h[k] = at_points(u_star, k)
    h_center = _hamiltonian(prob, w, ts, centers, u_star, ps, 1.0)
    u_knot, _ = _sup_over_u(prob, w, ts, centers, u_star, ps, 1.0,
                            np.full(ts.size, -np.inf),
                            h_center + _SUP_TOL * np.fmin.reduce(np.abs(h), axis=1))
    for k in blocks:
        h_new = at_points(u_knot, k)
        np.copyto(h[k], h_new, where=h_new > h[k])
    return h


def check_arrow(prob: ControlProblem, cand: CandidateProcess,
                adj: AdjointSolution, gamma: float = 0.5,
                mode: str = "strong") -> ConcavityReport:
    """Scan the maximized Hamiltonian for concavity in x on the tube.

    Each resolvable grid time of the audit's tube (same radius and
    resolution floor) gets 64 point pairs inside the closed ball of
    radius gamma (strong mode) or gamma * eta(t) (weak mode) around the
    candidate state.  The same unit-ball pairs serve every time: 32
    symmetric about the center, the axis diameters first and then
    mirrored low-discrepancy points, so the scan always crosses the
    center; then 32 independent pairs, the first of them the center
    itself.  The midpoint inequality is enforced up to
    ``1e-9 * (1 + |h|)`` with ``|h|`` the largest sampled magnitude at
    that time.  In one state dimension a 9-point stencil across the tube
    diameter sharpens the same test.  The multiplier must be normal; any
    positive lambda0 is rescaled onto lambda0 = 1, which changes no
    verdict.

    When no entry of ``f_u`` or ``phi_u`` names the state
    (``prob.u_separable``), H(t, x, u, p) splits as A(t, x, p) +
    B(t, u, p), so sup_u H = A + sup_u B: every tube point at one time
    shares its maximizing control (Arrow and Kurz 1970; Seierstad and
    Sydsaeter 1977).  The control is then searched once per knot, at the
    candidate, instead of once per tube point; see :func:`_knot_sup`.

    UnboundedAbove from the inner maximization propagates: a Hamiltonian
    unbounded in u anywhere on the tube has no maximized value to test.
    """
    _, radii, resolvable, _ = _tube(prob, cand, gamma, mode)
    n = prob.n
    empty = lambda *shape: np.zeros(shape)
    if adj.lambda0 <= 0:
        return ConcavityReport(
            grid=empty(0), worst=empty(0), slice_ok=empty(0).astype(bool),
            radii=empty(0), centers=empty(0, n),
            pair_offsets=empty(0, 2, n), witness=None,
            premise="normal multiplier (lambda0 = 1)", premise_ok=False,
            tolerance=_CONCAVITY_TOL,
            notes=("concavity asserts optimality only for the normal case; "
                   f"got lambda0 = {adj.lambda0:g}",))

    notes = []
    lam = float(adj.lambda0)
    p_grid = adj.value(cand.grid)
    if lam != 1.0:
        p_grid = p_grid / lam
        notes.append(f"multiplier rescaled from lambda0 = {lam:g} onto the "
                     "normal case; verdicts are scale-invariant")

    grid = cand.grid
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = np.asarray(prob.omega(grid), dtype=float)
    usable = np.isfinite(w)
    n_pole = int(np.sum(~usable))
    if n_pole:
        notes.append(f"{n_pole} slice(s) skipped: weight pole")
    collapsed = usable & ~resolvable
    if np.any(collapsed):
        notes.append(f"{int(np.sum(collapsed))} slice(s) skipped: tube radius "
                     "below machine resolution around the candidate")
        usable &= resolvable
    if not np.any(usable):
        return ConcavityReport(
            grid=grid, worst=np.zeros(grid.size),
            slice_ok=np.zeros(grid.size, dtype=bool), radii=radii,
            centers=cand.x, pair_offsets=empty(0, 2, n), witness=None,
            premise="a resolvable tube with finite weight", premise_ok=False,
            tolerance=_CONCAVITY_TOL, notes=tuple(notes))

    ts = grid[usable]
    centers = cand.x[usable]
    u_star = cand.u[usable]
    ps = p_grid[usable]
    rr = radii[usable]
    nt = ts.size

    # symmetric half: axis diameters first (they include the boundary),
    # then mirrored low-discrepancy offsets; fill half: independent pairs
    half = _PAIRS // 2
    sym = np.concatenate([np.eye(n), _ball(n, np.arange(1, half))])[:half]
    fill = lambda start: np.concatenate([np.zeros((1, n)),
                                         _ball(n, np.arange(start, start + half - 1))])
    offsets = np.stack([np.concatenate([sym, fill(7919)]),
                        np.concatenate([-sym, fill(15877)])], axis=1)  # (pairs, 2, n)

    # stencil block: 9 collinear points across the first-axis diameter;
    # in one dimension that is the whole tube
    stencil = np.linspace(-1.0, 1.0, 9)
    stl = np.zeros((9, n))
    stl[:, 0] = stencil

    # every hamiltonian_sup evaluation for the scan in one flat batch:
    # per slice the pair endpoints, the midpoints, and the stencil.  Of
    # these 201 offsets 164 are distinct (the symmetric midpoints, the
    # (center, center) pair and the stencil middle are all the center, and
    # the stencil ends are the first axis diameter), so each distinct one
    # is searched once and its value scattered back
    blocks = np.concatenate([
        offsets[:, 0], offsets[:, 1],
        0.5 * (offsets[:, 0] + offsets[:, 1]),
        stl,
    ])  # (3*_PAIRS + 9, n)
    distinct, slot = np.unique(blocks, axis=0, return_inverse=True)
    per = distinct.shape[0]
    xs = centers[:, None, :] + rr[:, None, None] * distinct[None, :, :]
    if prob.u_separable:
        h = _knot_sup(prob, w[usable], ts, centers, u_star, ps, xs)
    else:
        h = hamiltonian_sup(prob, np.repeat(ts, per), xs.reshape(nt * per, n),
                            np.repeat(ps, per, axis=0),
                            u_start=np.repeat(u_star, per, axis=0)).reshape(nt, per)
    scale = 1.0 + np.max(np.abs(h), axis=1)  # the scatter below repeats, never drops, a point
    h = h[:, slot.ravel()]
    h1, h2 = h[:, :_PAIRS], h[:, _PAIRS:2 * _PAIRS]
    hm = h[:, 2 * _PAIRS:3 * _PAIRS]
    hs = h[:, 3 * _PAIRS:]

    defects = 0.5 * (h1 + h2) - hm                    # > 0 breaks concavity
    d2 = 0.5 * (hs[:, :-2] + hs[:, 2:]) - hs[:, 1:-1]  # same test, stencil triples
    all_defects = np.concatenate([defects, d2], axis=1)
    worst_usable = np.max(all_defects, axis=1)
    ok_usable = worst_usable <= _CONCAVITY_TOL * scale

    worst = np.zeros(grid.size)
    slice_ok = np.ones(grid.size, dtype=bool)
    worst[usable] = np.maximum(worst_usable, 0.0)
    slice_ok[usable] = ok_usable

    witness = None
    if not np.all(ok_usable):
        k = int(np.argmax(np.where(ok_usable, -np.inf, worst_usable)))
        j = int(np.argmax(all_defects[k]))
        if j < _PAIRS:
            x1 = centers[k] + rr[k] * offsets[j, 0]
            x2 = centers[k] + rr[k] * offsets[j, 1]
        else:
            i = j - _PAIRS  # stencil triple (i, i+1, i+2)
            x1 = centers[k] + rr[k] * stl[i]
            x2 = centers[k] + rr[k] * stl[i + 2]
        witness = (float(ts[k]), x1, x2, float(all_defects[k, j]))

    return ConcavityReport(
        grid=grid, worst=worst, slice_ok=slice_ok, radii=radii,
        centers=cand.x, pair_offsets=offsets, witness=witness,
        premise="normal multiplier (lambda0 = 1)", premise_ok=True,
        tolerance=_CONCAVITY_TOL, notes=tuple(notes))

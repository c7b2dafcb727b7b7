"""Concavity of the maximized Hamiltonian: the sufficient-condition side.

A candidate that passes the necessary conditions with a normal
multiplier is locally optimal once the maximized Hamiltonian

    hamilton_sup(t, x) = sup over admissible u of H(t, x, u, p(t), 1)

is concave in x on the tube around the trajectory.  An upper envelope of
concave slices need not be concave, so concavity of the supremum cannot
be read off the integrand in general.  It can when H(t, ., ., p(t)) is
jointly concave in (x, u) on the tube times a convex control set: a
partial supremum of a jointly concave function is concave (Mangasarian,
SIAM J. Control 4, 1966; Arrow and Kurz, 1970).  At a grid time t and p
are numbers, so that is a question about one symbolic Hessian over a
box, which interval arithmetic settles.  Every slice it does not settle
is probed directly: midpoint inequalities over sampled point pairs, plus
a second-difference stencil in one dimension where the geometry allows
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import DomainError, _enclose, _iv_add, _iv_mul
from .pmp import (_BLOCK, AdjointSolution, UnboundedAbove, _hamiltonian,
                  _matching_adjoint, _sup_over_u)
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
    concave slice reads 0 up to roundoff.  A slice proved concave through
    its Hessian is not sampled and reads exactly 0.  ``pair_offsets`` are
    the unit-ball offsets shared by all slices; ``pairs_at`` rebuilds the
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


def _least_magnitude(prob: ControlProblem, w, ts, centers, radii, ps, us) -> np.ndarray:
    """A lower bound of |H(t_k, x, us[k], p_k)| over the tube box, per knot.

    This is the enclosure's counterpart of the smallest sampled ``|H|``
    that :func:`_knot_sup` takes for a knot's escape floor; it reads 0
    where the enclosure contains 0 or proves nothing.
    """
    found = _enclose([prob.f, *prob.phi],
                     _tube_box(ts, centers, radii, [(col, col) for col in us.T]))
    h = _iv_mul((-w,) * 2, found[0])
    for p, term in zip(ps.T, found[1:]):
        h = _iv_add(h, _iv_mul((p, p), term))
    lo, hi = h
    return np.where(lo > 0, lo, np.where(hi < 0, -hi, 0.0))


def _concave_slices(prob: ControlProblem, w, ts, centers, radii, ps) -> np.ndarray:
    """Knots where H(t_k, ., ., p_k) is proved jointly concave in (x, u).

    The box is ``centers[k] +- radii[k]`` in each state coordinate, which
    encloses the tube ball, times the closed hull of the control box;
    U itself must be convex.  With z = (x, u) the Hessian of H is
    ``-w f_zz + sum_i p_i phi_i,zz``; its entries are enclosed over the
    box (:func:`~pmpcheck.expressions._enclose`).  Where ``p_i(t_k) == 0``
    the term is dropped exactly, not enclosed: a curvature of phi_i that
    proves nothing (NaN) would otherwise spoil a knot it does not act on.
    A knot is proved when every row passes Gershgorin's test with no
    tolerance, ``hi(H_ii) + sum_{j != i} max |H_ij| <= 0``, rounded up, so
    every symmetric matrix in the enclosure is negative semidefinite.
    The Hessian holds only where H is twice differentiable, so the
    argument of every ``abs`` or ``sign`` of a kept term must stay off 0
    on the box.  f and every phi_i, dropped or not, are enclosed over
    the box as well: a knot where one of them may leave its domain (NaN
    in the enclosure) is not proved and keeps the sampled scan, which
    names the offending point.  Returns a boolean per knot.
    """
    proved = np.isfinite(w) & np.all(np.isfinite(ps), axis=1)
    if not (prob.U.convex and np.any(proved)):
        return np.zeros(ts.size, dtype=bool)
    box = _tube_box(ts, centers, radii, zip(prob.U.lo, prob.U.hi))
    rows, kinks = prob._curvature
    entries = len(rows[0])
    h_lo, h_hi = np.zeros((ts.size, entries)), np.zeros((ts.size, entries))
    for e, row, kink, coef in zip((prob.f, *prob.phi), rows, kinks, (-w, *ps.T)):
        (lo, hi), = _enclose([e], box)
        proved &= ~(np.isnan(lo) | np.isnan(hi))
        live = np.flatnonzero(proved & (coef != 0))
        if live.size == 0:
            continue
        at = {name: tuple(np.broadcast_to(v, ts.shape)[live] for v in ends)
              for name, ends in box.items()}
        found = _enclose([*row, *kink], at)
        for lo, hi in found[entries:]:
            proved[live] &= (lo > 0) | (hi < 0)
        c = coef[live]
        for j, entry in enumerate(found[:entries]):
            h_lo[live, j], h_hi[live, j] = _iv_add((h_lo[live, j], h_hi[live, j]),
                                                   _iv_mul((c, c), entry))
    d = prob.n + prob.m
    upper = np.triu_indices(d)
    lo_zz, hi_zz = np.empty((ts.size, d, d)), np.empty((ts.size, d, d))
    for full, half in ((lo_zz, h_lo), (hi_zz, h_hi)):
        full[:, upper[0], upper[1]] = half
        full[:, upper[1], upper[0]] = half
    bound = np.diagonal(hi_zz, axis1=1, axis2=2).copy()
    spread = np.maximum(np.abs(lo_zz), np.abs(hi_zz))
    for j in range(d):
        off = np.where(np.arange(d) == j, 0.0, spread[:, :, j])
        bound = _iv_add((bound, bound), (off, off))[1]
    return proved & np.all(bound <= 0, axis=1)


def check_arrow(prob: ControlProblem, cand: CandidateProcess,
                adj: AdjointSolution, gamma: float = 0.5,
                mode: str = "strong") -> ConcavityReport:
    """Prove or scan concavity in x of the maximized Hamiltonian on the tube.

    The tube is the audit's (same radius and resolution floor): the closed
    ball of radius gamma (strong mode) or gamma * eta(t) (weak mode)
    around the candidate state at each resolvable grid time.  The
    multiplier must be normal; any positive lambda0 is rescaled onto
    lambda0 = 1, which changes no verdict.

    A slice is first tried by :func:`_concave_slices`: where H is proved
    jointly concave in (x, u) on the tube times the control box, H⁰ is
    concave there (Mangasarian 1966).  Such a slice is not sampled; its
    ``worst`` reads 0 and a note counts these slices.  It still takes one
    control search at its center, from the candidate control, so a
    Hamiltonian unbounded in u there raises :class:`UnboundedAbove`.  The
    search's escape floor takes a lower bound of ``|H|`` at the candidate
    control over the tube (:func:`_least_magnitude`), as the per-knot
    search below takes the smallest sampled one.

    Every other slice gets 64 point pairs inside the ball.  The same
    unit-ball pairs serve every time: 32 symmetric about the center, the
    axis diameters first and then mirrored low-discrepancy points, so the
    scan always crosses the center; then 32 independent pairs, the first
    of them the center itself.  The midpoint inequality is enforced up to
    ``1e-9 * (1 + |h|)`` with ``|h|`` the largest sampled magnitude at
    that time.  In one state dimension a 9-point stencil across the tube
    diameter sharpens the same test.

    When no entry of ``f_u`` or ``phi_u`` names the state
    (``prob.u_separable``), H(t, x, u, p) splits as A(t, x, p) +
    B(t, u, p), so sup_u H = A + sup_u B: every tube point at one time
    shares its maximizing control (Arrow and Kurz 1970; Seierstad and
    Sydsaeter 1977).  The control is then searched once per knot, at the
    candidate, instead of once per tube point; see :func:`_knot_sup`.

    UnboundedAbove from the inner maximization propagates: a Hamiltonian
    unbounded in u anywhere on the tube has no maximized value to test.
    Where proved and sampled slices both abort, with UnboundedAbove or a
    DomainError of the scan, the abort at the earlier time is raised, as
    one scan of every slice in grid order would raise it.
    """
    _matching_adjoint(prob, adj)
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

    # symmetric half: axis diameters first (they include the boundary),
    # then mirrored low-discrepancy offsets; fill half: independent pairs
    half = _PAIRS // 2
    sym = np.concatenate([np.eye(n), _ball(n, np.arange(1, half))])[:half]
    fill = lambda start: np.concatenate([np.zeros((1, n)),
                                         _ball(n, np.arange(start, start + half - 1))])
    offsets = np.stack([np.concatenate([sym, fill(7919)]),
                        np.concatenate([-sym, fill(15877)])], axis=1)  # (pairs, 2, n)

    proved = np.zeros(grid.size, dtype=bool)
    proved[usable] = _concave_slices(prob, w[usable], grid[usable], cand.x[usable],
                                     radii[usable], p_grid[usable])
    aborts = []
    if np.any(proved):
        at = (prob, w[proved], grid[proved], cand.x[proved])
        u_c, p_c = cand.u[proved], p_grid[proved]
        h0 = _hamiltonian(*at, u_c, p_c, 1.0)
        low = _least_magnitude(*at, radii[proved], p_c, u_c)
        try:
            _sup_over_u(*at, u_c, p_c, 1.0, h0, h0 + _SUP_TOL * low)
        except UnboundedAbove as e:
            aborts.append(e)
        notes.append(f"{int(np.sum(proved))} slice(s) proved concave: H jointly "
                     "concave in (x, u) on the tube times the control box")
    scanned = usable & ~proved

    worst = np.zeros(grid.size)
    slice_ok = np.ones(grid.size, dtype=bool)
    witness = None
    if np.any(scanned):
        try:
            worst[scanned], slice_ok[scanned], witness = _scan(
                prob, w[scanned], grid[scanned], cand.x[scanned], cand.u[scanned],
                p_grid[scanned], radii[scanned], offsets)
        except (UnboundedAbove, DomainError) as e:
            aborts.append(e)
    if aborts:
        raise min(aborts, key=_abort_time)

    return ConcavityReport(
        grid=grid, worst=worst, slice_ok=slice_ok, radii=radii,
        centers=cand.x, pair_offsets=offsets, witness=witness,
        premise="normal multiplier (lambda0 = 1)", premise_ok=True,
        tolerance=_CONCAVITY_TOL, notes=tuple(notes))


def _abort_time(e: UnboundedAbove | DomainError) -> float:
    """The time an abort of :func:`check_arrow` names; a DomainError
    that names none counts as the earliest."""
    if isinstance(e, UnboundedAbove):
        return e.t
    return e.point.get("t", -np.inf)


def _scan(prob: ControlProblem, w, ts, centers, u_star, ps, rr, offsets):
    """The sampled midpoint scan of :func:`check_arrow` on the given slices.

    Returns the clipped worst defect and the verdict per slice, and the
    witness ``(t, x1, x2, defect)`` of the worst failing slice, or None.
    """
    n = prob.n
    nt = ts.size
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
        h = _knot_sup(prob, w, ts, centers, u_star, ps, xs)
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
    worst = np.max(all_defects, axis=1)
    ok = worst <= _CONCAVITY_TOL * scale

    witness = None
    if not np.all(ok):
        k = int(np.argmax(np.where(ok, -np.inf, worst)))
        j = int(np.argmax(all_defects[k]))
        if j < _PAIRS:
            x1 = centers[k] + rr[k] * offsets[j, 0]
            x2 = centers[k] + rr[k] * offsets[j, 1]
        else:
            i = j - _PAIRS  # stencil triple (i, i+1, i+2)
            x1 = centers[k] + rr[k] * stl[i]
            x2 = centers[k] + rr[k] * stl[i + 2]
        witness = (float(ts[k]), x1, x2, float(all_defects[k, j]))
    return np.maximum(worst, 0.0), ok, witness

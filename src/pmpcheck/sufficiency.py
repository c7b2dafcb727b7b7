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
from .pmp import AdjointSolution, UnboundedAbove, _finite_weight, _hamiltonian, _sup_over_u
from .problem import (CandidateProcess, ControlProblem, DimensionMismatch, _matching_widths,
                      _tube, _tube_box)

__all__ = ["ConcavityReport", "check_arrow", "hamiltonian_sup"]

_SUP_TOL = 1e-10  # relative rise above the start's H an escaping search must show
_PAIRS = 64  # midpoint pairs per scanned time
_CONCAVITY_TOL = 1e-9  # accepted midpoint defect relative to 1 + |h|


@dataclass(frozen=True)
class ConcavityReport:
    """Per-time concavity verdicts for the maximized Hamiltonian.

    ``grid``, ``worst``, ``slice_ok``, ``radii`` and ``centers`` hold the
    judged knots only, in grid order; a skipped knot (weight pole,
    collapsed tube, past the adjoint's last knot) has no entry, and the
    notes count it.  ``worst`` holds the largest midpoint defect found at
    each judged time: ``(h(x1) + h(x2))/2 - h((x1+x2)/2)``, clipped at
    zero, so a concave slice reads 0 up to roundoff.  A slice proved
    concave through its Hessian is not sampled and reads exactly 0.
    ``pair_offsets`` are the unit-ball offsets shared by all slices;
    ``pairs_at`` rebuilds the actual coordinates for one slice.  A failed
    premise (no normal multiplier, or no knot to judge) leaves the arrays
    empty.
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
        """The (x1, x2) pairs of judged slice ``k``, shape (pairs, 2, n).

        These are the pairs the scan samples at a slice it cannot prove;
        a proved slice reads ``worst`` 0 and its pairs were never sampled.
        """
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
    section where a slice is not concave.  ``u_start``, one row of m
    controls or one per time, overrides the default start 0; the start is
    projected into the box (:meth:`~pmpcheck.problem.ControlBox.project`),
    so an infeasible one cannot raise the supremum, and a start of any
    other shape raises :class:`~pmpcheck.problem.DimensionMismatch`.

    Raises UnboundedAbove when H climbs without bound toward an open
    face of the box.
    """
    scalar = np.ndim(t) == 0
    ts, xs, ps = _as_points(t, x, p, prob.n)
    u0 = np.zeros(prob.m) if u_start is None else np.asarray(u_start, dtype=float)
    if u0.shape not in ((prob.m,), (ts.size, prob.m)):
        raise DimensionMismatch(f"u_start has shape {u0.shape}, expected ({prob.m},) "
                                f"or ({ts.size}, {prob.m})")
    # the projection is the search's one working copy of the starts
    u0 = prob.U.project(np.broadcast_to(u0, (ts.size, prob.m)))
    w = np.asarray(prob.omega(ts), dtype=float)
    h0 = _hamiltonian(prob, w, ts, xs, u0, ps, 1.0)
    _, h_best = _sup_over_u(prob, w, ts, xs, u0, ps, 1.0, h0,
                            h0 + _SUP_TOL * np.abs(h0))
    return float(h_best[0]) if scalar else h_best


def _ball(dim: int, idx: np.ndarray) -> np.ndarray:
    """Low-discrepancy points in the closed unit ball, one per sequence index.

    An additive recurrence driven by the generalized golden ratio fills
    the cube, which is pulled into the ball; a point depends on its index
    alone, however the indices are batched.
    """
    x = 2.0
    for _ in range(64):
        x = (1.0 + x) ** (1.0 / (dim + 1))
    alpha = (1.0 / x) ** np.arange(1, dim + 1)
    pts = 2.0 * np.mod(0.5 + np.asarray(idx, dtype=float)[:, None] * alpha, 1.0) - 1.0
    return pts / np.maximum(1.0, np.linalg.norm(pts, axis=1, keepdims=True))


def _least_magnitude(prob: ControlProblem, w, ts, centers, radii, ps, us) -> np.ndarray:
    """A lower bound of |H(t_k, x, us[k], p_k)| over the tube box, per knot.

    The per-point search of a sampled slice sets each point's escape
    floor from ``|H|`` at that point and the candidate control.  A proved
    slice searches at its center alone, on behalf of every point of its
    tube, so its floor takes this bound, below the floor of any point.
    It reads 0 where the enclosure contains 0 or proves nothing.
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
    ``-w f_zz + sum_i p_i phi_i,zz``; the entries of each term that are
    not the constant 0 (``ControlProblem._curvature``) are enclosed over
    the box (:func:`~pmpcheck.expressions._enclose`) and summed, and a
    term with none, as linear dynamics, costs nothing.  Where
    ``p_i(t_k) == 0`` the term is dropped exactly, not enclosed: a
    curvature of phi_i that proves nothing (NaN) would otherwise spoil a
    knot it does not act on.  A knot is proved when every row passes
    Gershgorin's test with no tolerance, ``hi(H_ii) + sum_{j != i} max
    |H_ij| <= 0``, rounded up, so every symmetric matrix in the enclosure
    is negative semidefinite.  The sum runs over the entries that are not
    the constant 0, in increasing j: a constant 0 would add an exact 0.
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
    column = {ab: j for j, ab in enumerate(sorted(set().union(*rows)))}  # the live entries
    h_lo, h_hi = np.zeros((ts.size, len(column))), np.zeros((ts.size, len(column)))
    for e, row, kink, coef in zip((prob.f, *prob.phi), rows, kinks, (-w, *ps.T)):
        (lo, hi), = _enclose([e], box)
        proved &= ~(np.isnan(lo) | np.isnan(hi))
        live = np.flatnonzero(proved & (coef != 0))
        if live.size == 0 or not (row or kink):
            continue
        at = {name: tuple(np.broadcast_to(v, ts.shape)[live] for v in ends)
              for name, ends in box.items()}
        found = _enclose([*row.values(), *kink], at)
        for lo, hi in found[len(row):]:
            proved[live] &= (lo > 0) | (hi < 0)
        c = coef[live]
        for ab, entry in zip(row, found):
            j = column[ab]
            h_lo[live, j], h_hi[live, j] = _iv_add((h_lo[live, j], h_hi[live, j]),
                                                   _iv_mul((c, c), entry))
    # Gershgorin: each row's diagonal, then its off-diagonal magnitudes in
    # increasing column order, entry (a, b) serving row a in column b and
    # row b in column a; an entry that is the constant 0 would add exactly 0
    bound = np.zeros((ts.size, prob.n + prob.m))
    for (a, b), j in column.items():
        if a == b:
            bound[:, a] = h_hi[:, j]
    for col in range(bound.shape[1]):
        hits = [(a + b - col, j) for (a, b), j in column.items() if a != b and col in (a, b)]
        if hits:
            at_rows, js = map(list, zip(*hits))
            spread = np.maximum(np.abs(h_lo[:, js]), np.abs(h_hi[:, js]))
            bound[:, at_rows] = _iv_add((bound[:, at_rows],) * 2, (spread, spread))[1]
    return proved & np.all(bound <= 0, axis=1)


def check_arrow(prob: ControlProblem, cand: CandidateProcess,
                adj: AdjointSolution, gamma: float = 0.5,
                mode: str = "strong") -> ConcavityReport:
    """Prove or scan concavity in x of the maximized Hamiltonian on the tube.

    The tube is the audit's (:func:`~pmpcheck.problem._tube`: same radius
    and resolution floor): the closed ball of radius gamma (strong mode)
    or gamma * eta(t) (weak mode) around the candidate state at each
    resolvable grid time, whose state part the one tube box
    (:func:`~pmpcheck.problem._tube_box`) encloses for both proofs.  The
    multiplier must be normal; any positive lambda0 is rescaled onto
    lambda0 = 1, which changes no verdict.  A slice is judged only at a
    knot with finite weight (the pointwise conditions' mask,
    :func:`~pmpcheck.pmp._finite_weight`) that the adjoint reaches: knots
    past the adjoint's last knot have no p, so they are skipped, not
    clamped, and a note counts them.  The report holds the judged knots.

    A slice is first tried by :func:`_concave_slices`: where H is proved
    jointly concave in (x, u) on the tube times the control box, H⁰ is
    concave there (Mangasarian 1966).  Such a slice is not sampled; its
    ``worst`` reads 0 and a note counts these slices.  It still takes one
    control search at its center, from the candidate control, so a
    Hamiltonian unbounded in u there raises :class:`UnboundedAbove`.  The
    search's escape floor takes a lower bound of ``|H|`` at the candidate
    control over the tube (:func:`_least_magnitude`), below the floor the
    per-point search would set at any point of it.

    Every other slice gets 64 point pairs inside the ball.  The same
    unit-ball pairs serve every time: 32 symmetric about the center, the
    axis diameters first and then mirrored low-discrepancy points, so the
    scan always crosses the center; then 32 independent pairs, the first
    of them the center itself.  Each distinct tube point takes its own
    control search, from the candidate control (:func:`hamiltonian_sup`).
    The midpoint inequality is enforced up to ``1e-9 * (1 + |h|)`` with
    ``|h|`` the largest sampled magnitude at that time.  In one state
    dimension a 9-point stencil across the tube diameter sharpens the
    same test.

    UnboundedAbove from the inner maximization propagates: a Hamiltonian
    unbounded in u anywhere on the tube has no maximized value to test.
    Where proved and sampled slices both abort, with UnboundedAbove or a
    DomainError of the scan, the abort at the earlier time is raised, as
    one scan of every slice in grid order would raise it.
    """
    _matching_widths(prob, cand, adj)
    _, radii, resolvable, _ = _tube(prob, cand, gamma, mode)
    n = prob.n
    not_applicable = lambda premise, notes: ConcavityReport(
        grid=np.zeros(0), worst=np.zeros(0), slice_ok=np.zeros(0, dtype=bool),
        radii=np.zeros(0), centers=np.zeros((0, n)), pair_offsets=np.zeros((0, 2, n)),
        witness=None, premise=premise, premise_ok=False,
        tolerance=_CONCAVITY_TOL, notes=tuple(notes))
    if adj.lambda0 <= 0:
        return not_applicable("normal multiplier (lambda0 = 1)",
                              ["concavity asserts optimality only for the normal case; "
                               f"got lambda0 = {adj.lambda0:g}"])

    notes = []
    lam = float(adj.lambda0)
    if lam != 1.0:
        notes.append(f"multiplier rescaled from lambda0 = {lam:g} onto the "
                     "normal case; verdicts are scale-invariant")

    grid = cand.grid
    finite, w, pole = _finite_weight(prob, grid)
    notes += pole
    usable = finite & (grid <= adj.grid[-1])
    past = int(np.sum(finite & ~usable))
    if past:
        notes.append(f"{past} knot(s) skipped: past the adjoint's last knot "
                     f"t = {adj.grid[-1]:.6g}")
    collapsed = usable & ~resolvable
    if np.any(collapsed):
        notes.append(f"{int(np.sum(collapsed))} slice(s) skipped: tube radius "
                     "below machine resolution around the candidate")
        usable &= resolvable
    if not np.any(usable):
        return not_applicable("a resolvable tube with finite weight", notes)

    # symmetric half: axis diameters first (they include the boundary),
    # then mirrored low-discrepancy offsets; fill half: independent pairs
    half = _PAIRS // 2
    sym = np.concatenate([np.eye(n), _ball(n, np.arange(1, half))])[:half]
    fill = lambda start: np.concatenate([np.zeros((1, n)),
                                         _ball(n, np.arange(start, start + half - 1))])
    offsets = np.stack([np.concatenate([sym, fill(7919)]),
                        np.concatenate([-sym, fill(15877)])], axis=1)  # (pairs, 2, n)

    # the usable knots, the only ones judged and reported from here on
    w, ts, xs, us, rr = (w[usable[finite]], grid[usable], cand.x[usable],
                         cand.u[usable], radii[usable])
    ps = adj.value(ts) / lam
    proved = _concave_slices(prob, w, ts, xs, rr, ps)
    aborts = []
    if np.any(proved):
        at = (prob, w[proved], ts[proved], xs[proved])
        u_c, p_c = us[proved], ps[proved]
        h0 = _hamiltonian(*at, u_c, p_c, 1.0)
        low = _least_magnitude(*at, rr[proved], p_c, u_c)
        try:
            _sup_over_u(*at, u_c, p_c, 1.0, h0, h0 + _SUP_TOL * low)
        except UnboundedAbove as e:
            aborts.append(e)
        notes.append(f"{int(np.sum(proved))} slice(s) proved concave: H jointly "
                     "concave in (x, u) on the tube times the control box")
    scanned = ~proved

    worst = np.zeros(ts.size)
    slice_ok = np.ones(ts.size, dtype=bool)
    witness = None
    if np.any(scanned):
        try:
            worst[scanned], slice_ok[scanned], witness = _scan(
                prob, w[scanned], ts[scanned], xs[scanned], us[scanned],
                ps[scanned], rr[scanned], offsets)
        except (UnboundedAbove, DomainError) as e:
            aborts.append(e)
    if aborts:
        raise min(aborts, key=_abort_time)

    return ConcavityReport(
        grid=ts, worst=worst, slice_ok=slice_ok, radii=rr,
        centers=xs, pair_offsets=offsets, witness=witness,
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

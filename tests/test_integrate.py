import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import test_pmp
from pmpcheck import integrate
from pmpcheck.expressions import DomainError
from pmpcheck.integrate import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    _DP_ERR,
    _CHAIN_BLOCK,
    _GAUSS_A,
    _GAUSS_B,
    _GAUSS_C,
    _STAGE_FLOATS,
    _affine_chain,
    _linear_cell_maps,
    BlowUp,
    InvalidGrid,
    decays_to_zero,
    default_grid,
    improper_integral,
    improper_verdict,
    solve_ode,
    solve_state,
)
from pmpcheck.pmp import AdjointSolution
from pmpcheck.problem import CandidateProcess, candidate_from_functions, parse_problem


class TestDefaultGrid:
    def test_shape_and_monotonicity(self):
        g = default_grid(50.0, cells=256)
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(50.0)
        assert np.all(np.diff(g) > 0)

    def test_refined_head_reaches_picoscale(self):
        g = default_grid(50.0, cells=64)
        assert g[1] == pytest.approx(1e-12)

    @pytest.mark.parametrize("t_max,cells", [(50.0, 2048), (50.0, 64), (2.0, 4), (200.0, 2048)])
    def test_head_cells_are_no_wider_than_the_body(self, t_max, cells):
        # doubling up to the knee left cells 0.27 and 0.45 wide on
        # default_grid(50, 2048), whose body cells are 0.024 wide
        g = default_grid(t_max, cells=cells)
        knee = min(1.0, t_max / 2.0)
        body = np.diff(g[g >= knee])
        np.testing.assert_allclose(body, (t_max - knee) / cells, rtol=1e-9)
        assert np.diff(g).max() <= body.max() * (1.0 + 1e-12)
        # the head still starts at 1e-12 and doubles
        np.testing.assert_allclose(g[1:6], 1e-12 * 2.0 ** np.arange(5), rtol=1e-15)

    def test_uniform_variant(self):
        g = default_grid(10.0, cells=10, refine_zero=False)
        np.testing.assert_allclose(g, np.linspace(0, 10, 11))

    def test_invalid_horizon(self):
        with pytest.raises(InvalidGrid):
            default_grid(-1.0)


class TestImproperIntegral:
    def test_exponential(self):
        # int_0^inf e^{-3t} dt = 1/3
        partials = improper_integral(lambda t: np.exp(-3 * t), default_grid(30.0, cells=512))
        assert partials[-1] == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_partials_monotone_for_nonnegative_integrand(self):
        grid = default_grid(20.0, cells=128)
        partials = improper_integral(lambda t: np.exp(-t), grid)
        assert partials.shape == grid.shape
        assert np.all(np.diff(partials) >= 0)
        assert partials[0] == 0.0

    def test_integrable_pole_at_zero(self):
        # int_0^inf t^(-1/2) e^(-sqrt(t)) dt = 2 (substitute s = sqrt(t))
        f = lambda t: t**-0.5 * np.exp(-np.sqrt(t))
        partials = improper_integral(f, grid=default_grid(200.0, cells=2048))
        assert partials[-1] == pytest.approx(2.0, abs=5e-6)


class TestImproperVerdict:
    def test_exponential_converges(self):
        rec = improper_verdict(lambda t: np.exp(-2 * t))
        assert rec.verdict == "converged"
        assert rec.value == pytest.approx(0.5, rel=1e-8)

    def test_constant_diverges(self):
        rec = improper_verdict(lambda t: np.ones_like(t))
        assert rec.verdict == "diverged"

    def test_exponential_growth_diverges(self):
        rec = improper_verdict(lambda t: np.exp(0.5 * t))
        assert rec.verdict == "diverged"

    def test_logarithmic_tail_diverges(self):
        rec = improper_verdict(lambda t: 1.0 / (1.0 + t))
        assert rec.verdict == "diverged"

    def test_slow_power_tail_is_inconclusive(self):
        rec = improper_verdict(lambda t: (1.0 + t) ** -1.1)
        assert rec.verdict == "inconclusive"

    def test_declared_pole_below_threshold_diverges(self):
        rec = improper_verdict(lambda t: 1.0 / t, pole_exp=-1.0)
        assert rec.verdict == "diverged"

    def test_undeclared_hard_pole_is_not_called_converged(self):
        rec = improper_verdict(lambda t: 1.0 / t, pole_exp=None)
        assert rec.verdict in ("inconclusive", "diverged")

    def test_integrable_pole_with_declaration(self):
        f = lambda t: t**-0.5 * np.exp(-np.sqrt(t))
        rec = improper_verdict(f, pole_exp=-0.5)
        assert rec.verdict == "converged"
        assert rec.value == pytest.approx(2.0, abs=5e-6)

    def test_tail_bound_settles_convergence(self):
        rec = improper_verdict(
            lambda t: (1.0 + t) ** -2,
            tail_bound=lambda T: 1.0 / (1.0 + T),
        )
        assert rec.verdict == "converged"
        # the ladder stops at 1e4; the bound covers the rest
        assert rec.decades[-1] == 1.0e4
        assert rec.tail_estimate == pytest.approx(1.0 / 10001.0)

    def test_overflowing_partials_diverge_despite_a_tail_bound(self):
        # a finite tail bound says nothing about the mass before the horizon
        rec = improper_verdict(lambda t: np.where(t < 10, np.exp(800.0), np.exp(-t)),
                               tail_bound=lambda T: np.exp(-T))
        assert rec.verdict == "diverged"
        assert not np.isfinite(rec.value)

    def test_the_ladder_is_built_once_and_read_only(self):
        # the construction improper_verdict repeated on every call
        n_geo = int(np.ceil(np.log2(1.0 / integrate._T_MIN)))
        head = integrate._T_MIN * 2.0 ** np.arange(n_geo + 1)
        head[-1] = 1.0
        pieces, decades, t = [np.array([0.0]), head], [1.0], 1.0
        while t < integrate._LADDER_T_MAX * (1 - 1e-12):
            nxt = min(t * 10.0, integrate._LADDER_T_MAX)
            pieces.append(np.geomspace(t, nxt, integrate._LADDER_CELLS + 1)[1:])
            decades.append(nxt)
            t = nxt
        grid = np.concatenate(pieces)
        want = (grid, np.asarray(decades), np.searchsorted(grid, np.asarray(decades)),
                np.searchsorted(grid, [1e-9, 1e-6, 1e-3, 1.0]))
        got = (integrate._LADDER_GRID, integrate._LADDER_DECADES, integrate._LADDER_RUNGS,
               integrate._LADDER_MARKS)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        assert improper_verdict(lambda t: np.exp(-2 * t)).decades is integrate._LADDER_DECADES


class TestDecay:
    def test_exponential_decay_passes(self):
        assert decays_to_zero(lambda t: np.exp(-t)).passed

    def test_slow_exponential_decay_passes(self):
        # rate 0.33/unit: far from settled at t=5 but clearly gone by t=50
        assert decays_to_zero(lambda t: np.exp(-0.3284 * t)).passed

    def test_bump_then_decay_passes(self):
        assert decays_to_zero(lambda t: t * np.exp(-t)).passed

    def test_constant_fails(self):
        rec = decays_to_zero(lambda t: np.ones_like(t))
        assert not rec.passed
        assert rec.witness is not None

    def test_limit_one_fails(self):
        rec = decays_to_zero(lambda t: t / (1.0 + t))
        assert not rec.passed

    def test_oscillation_fails(self):
        assert not decays_to_zero(lambda t: np.sin(t)).passed

    def test_growth_fails(self):
        rec = decays_to_zero(lambda t: np.exp(0.172 * t))
        assert not rec.passed

    def test_identically_zero_passes(self):
        assert decays_to_zero(lambda t: np.zeros_like(t)).passed

    def test_vector_valued(self):
        g = lambda t: np.stack([np.exp(-t), np.exp(-2 * t)], axis=-1)
        assert decays_to_zero(g).passed

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_first_window_reads_an_infinite_residual(self, bad):
        # s3 / (1 + s1) would read 0 here, below the tolerance of a failure
        rec = decays_to_zero(lambda t: np.where(t < 1.0, bad, 0.0))
        assert not rec.passed and rec.detail == "non-finite samples"
        assert rec.sups[2] == 0.0 and integrate._decay_residual(rec.sups) == np.inf


class TestGridRule:
    """Candidates, adjoints and solves take their grids through one rule."""

    MAKERS = {
        "candidate": lambda g: CandidateProcess(grid=g, x=np.zeros(3), u=np.zeros(3)),
        "adjoint": lambda g: AdjointSolution(grid=g, p=np.zeros(3), lambda0=1.0, route="user"),
        "solve_ode": lambda g: solve_ode(lambda t, y: -y, g, 1.0),
    }

    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("grid,message", [
        (np.array([0.0]), "grid must be a 1-d array with at least two points"),
        (np.zeros((3, 1)), "grid must be a 1-d array with at least two points"),
        (np.array([1.0, 2.0, 3.0]), "grid must start at 0, got 1"),
        (np.array([0.0, 2.0, 1.0]), "grid must be strictly increasing"),
    ], ids=["one-knot", "2-d", "off-origin", "unsorted"])
    def test_every_raise(self, maker, grid, message):
        with pytest.raises(InvalidGrid, match=message):
            self.MAKERS[maker](grid)


class TestSolveOde:
    def test_linear_decay(self):
        grid = np.linspace(0.0, 5.0, 65)
        y = solve_ode(lambda t, y: -2.0 * y, grid, 1.0)
        np.testing.assert_allclose(y[:, 0], np.exp(-2 * grid), rtol=1e-8)

    def test_two_dimensional_rotation(self):
        grid = np.linspace(0.0, np.pi, 129)
        rhs = lambda t, y: np.array([y[1], -y[0]])
        y = solve_ode(rhs, grid, [1.0, 0.0])
        np.testing.assert_allclose(y[:, 0], np.cos(grid), atol=1e-8)
        np.testing.assert_allclose(y[:, 1], -np.sin(grid), atol=1e-8)

    def test_fixed_step_order_at_least_four(self):
        # y' = y cos t, y(0)=1, y = e^{sin t}; tolerances loose enough that
        # every cell is one accepted DP45 step, so halving cells must cut the
        # endpoint error by at least 2^4 (the scheme is 5th order)
        exact = np.exp(np.sin(2.0))
        errs = []
        for cells in (16, 32):
            calls = []
            rhs = lambda t, y: calls.append(t) or y * np.cos(t)
            grid = np.linspace(0.0, 2.0, cells + 1)
            y = solve_ode(rhs, grid, 1.0, rtol=1.0, atol=1.0)
            assert len(calls) <= 7 * cells  # one 7-stage step per cell
            errs.append(abs(y[-1, 0] - exact))
        assert errs[0] / errs[1] >= 2.0**4

    def test_blowup_reports_escape_time(self):
        grid = np.linspace(0.0, 2.0, 33)
        with pytest.raises(BlowUp) as err:
            solve_ode(lambda t, y: y**2, grid, 1.0, blowup=1e9)
        assert err.value.t == pytest.approx(1.0, abs=0.05)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(InvalidGrid):
            solve_ode(lambda t, y: y, np.array([0.0, 2.0, 1.0]), 1.0)


def _order_conditions(A, c):
    """(order, elementary weight, 1/gamma) of the 17 rooted trees with <= 5 nodes.

    Weights b reach order q when b @ weight == 1/gamma for every tree of
    at most q nodes (Hairer, Norsett and Wanner, sec. II.2).
    """
    Ac, Ac2 = A @ c, A @ c**2
    AAc = A @ Ac
    return [
        (1, np.ones_like(c), 1.0), (2, c, 1 / 2),
        (3, c**2, 1 / 3), (3, Ac, 1 / 6),
        (4, c**3, 1 / 4), (4, c * Ac, 1 / 8), (4, Ac2, 1 / 12), (4, AAc, 1 / 24),
        (5, c**4, 1 / 5), (5, c**2 * Ac, 1 / 10), (5, c * Ac2, 1 / 15),
        (5, c * AAc, 1 / 30), (5, Ac**2, 1 / 20), (5, A @ c**3, 1 / 20),
        (5, A @ (c * Ac), 1 / 40), (5, A @ Ac2, 1 / 60), (5, A @ AAc, 1 / 120),
    ]


def test_dormand_prince_tableau_is_consistent():
    np.testing.assert_allclose(_DP_A.sum(axis=1), _DP_C, rtol=0, atol=1e-15)
    assert np.all(np.triu(_DP_A) == 0.0)  # explicit
    assert _DP_B5.sum() == pytest.approx(1.0, abs=1e-15)
    assert _DP_B4.sum() == pytest.approx(1.0, abs=1e-15)
    assert _DP_ERR.sum() == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(_DP_B5, _DP_A[-1])  # first same as last
    trees = _order_conditions(_DP_A, _DP_C)
    assert len(trees) == 17 and sum(order <= 4 for order, _, _ in trees) == 8
    for order, weight, target in trees:
        assert abs(_DP_B5 @ weight - target) <= 1e-15  # order 5
        if order <= 4:
            assert abs(_DP_B4 @ weight - target) <= 1e-15  # order 4
    # the embedded weights miss order 5, so the error estimate is not zero
    misses = [abs(_DP_B4 @ weight - target) for order, weight, target in trees if order == 5]
    assert max(misses) > 1e-4


# x' = -x + u under a control that flips sign at every knot; the dynamics
# are affine in x, so solve_state takes the collocation cell maps
_FLIPPING = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = -x1 + u1

[objective]
f = x1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""

# the nonlinear twin, which solve_state takes by Newton sweeps
_FLIPPING_CUBIC = _FLIPPING.replace("phi1 = -x1 + u1", "phi1 = -x1^3 + u1")


def _flipping(src):
    prob = parse_problem(src)
    grid = np.linspace(0.0, 8.0, 257)
    u = np.where(np.arange(grid.size) % 2 == 0, 1.0, -1.0)
    return prob, CandidateProcess(grid=grid, x=np.zeros(grid.size), u=u)


def _recording(control):
    calls = []

    def recorded(ts):
        calls.append(np.array(ts, dtype=float))
        return control(ts)

    return recorded, calls


class TestSolveState:
    @pytest.fixture(scope="class")
    def flipping(self):
        prob, cand = _flipping(_FLIPPING)
        assert prob.x_affine
        return prob, cand

    @pytest.fixture(scope="class")
    def cubic(self):
        prob, cand = _flipping(_FLIPPING_CUBIC)
        assert not prob.x_affine
        return prob, cand

    def test_callable_and_samples_agree_at_jumping_knots(self, cubic):
        # CandidateProcess.control is left-continuous: at t_k it returns the
        # previous cell's sample, but the cell's slope at t_k needs its own
        prob, cand = cubic
        by_samples = solve_state(prob, cand.u, grid=cand.grid)
        by_callable = solve_state(prob, cand.control, grid=cand.grid)
        np.testing.assert_allclose(by_callable.x, by_samples.x, rtol=0, atol=1e-12)

    def test_samples_path_matches_the_piecewise_closed_form(self, flipping):
        prob, cand = flipping
        x = solve_state(prob, cand.u, grid=cand.grid).x[:, 0]
        decay = np.exp(-np.diff(cand.grid))
        exact = [1.0]
        for d, uk in zip(decay, cand.u[1:, 0]):
            exact.append(uk + (exact[-1] - uk) * d)
        np.testing.assert_allclose(x, exact, rtol=0, atol=1e-8)

    def test_affine_path_agrees_for_callable_and_samples_reading_inside_cells(self, flipping):
        prob, cand = flipping
        control, calls = _recording(cand.control)
        by_callable = solve_state(prob, control, grid=cand.grid)
        by_samples = solve_state(prob, cand.u, grid=cand.grid)
        np.testing.assert_allclose(by_callable.x, by_samples.x, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(calls[0], cand.grid)  # the knot samples
        ts = np.concatenate(calls[1:])
        k = np.searchsorted(cand.grid, ts, side="right") - 1
        assert np.all(cand.grid[k] < ts) and np.all(ts < cand.grid[k + 1])

    def test_newton_path_reads_the_control_inside_cells(self, cubic, monkeypatch):
        # the sweeps read the control at the Gauss nodes and at each cell's
        # ends, the left end moved to the next float: inside (t_k, t_k+1]
        prob, cand = cubic
        monkeypatch.setattr(integrate, "_dp_step", None)  # DP45 serves solve_ode only
        control, calls = _recording(cand.control)
        out = solve_state(prob, control, grid=cand.grid)
        assert out.closed_u is control
        np.testing.assert_array_equal(calls[0], cand.grid)  # the knot samples
        ts = np.concatenate(calls[1:])
        k = np.searchsorted(cand.grid, ts, side="left") - 1
        assert np.all(cand.grid[k] < ts) and np.all(ts <= cand.grid[k + 1])
        assert np.any(ts == cand.grid[k + 1])  # right ends, read left-continuously
        np.testing.assert_array_equal(out.x, solve_state(prob, cand.u, grid=cand.grid).x)


_TIME_VARYING = """
[problem]
n = 2
m = 1
x0 = 1.0, -2.0
sense = min

[dynamics]
phi1 = -0.5*x1 + sin(t)*x2 + u1
phi2 = -cos(2*t)*x1 - 0.2*t*x2

[objective]
f = x1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""


class TestAffineState:
    """solve_state on dynamics affine in x, through the cell maps."""

    def test_time_varying_system_matches_scipy(self):
        prob = parse_problem(_TIME_VARYING)
        assert prob.x_affine
        u = lambda t: np.exp(-np.asarray(t))
        grid = np.linspace(0.0, 6.0, 49)
        out = solve_state(prob, u, grid=grid)

        def rhs(t, y):
            return [-0.5 * y[0] + np.sin(t) * y[1] + np.exp(-t),
                    -np.cos(2 * t) * y[0] - 0.2 * t * y[1]]

        ref = solve_ivp(rhs, (0.0, 6.0), [1.0, -2.0], method="DOP853",
                        rtol=1e-12, atol=1e-14, t_eval=grid)
        assert np.max(np.abs(out.x - ref.y.T)) < 1e-9

    def test_blowup_is_raised_within_one_cell_of_the_crossing(self):
        prob = parse_problem(_FLIPPING.replace("phi1 = -x1 + u1", "phi1 = 30*x1 + u1"))
        assert prob.x_affine
        grid = np.linspace(0.0, 30.0, 601)
        # x = e^{30 t} passes 1e100 at t = 100 ln(10) / 30; past t = 23.7
        # it would overflow, so the knots must be checked as they are made
        crossing = 100.0 * np.log(10.0) / 30.0
        with np.errstate(over="raise", invalid="raise"), pytest.raises(BlowUp) as err:
            solve_state(prob, np.zeros(grid.size), grid=grid, blowup=1e100)
        assert crossing <= err.value.t <= crossing + (grid[1] - grid[0])
        assert err.value.norm > 1e100


def _gompertz(z, t):
    """EXTRACTION's state under u = 1/4 from z: y = ln x solves y' = 1/2 - y."""
    return np.exp(0.5 + (np.log(z) - 0.5) * np.exp(-np.asarray(t)))


# a pendulum swinging out to 2.5 rad: nonlinear enough that Newton over the
# whole horizon does not converge from the start held constant
_PENDULUM = """
[problem]
n = 2
m = 1
x0 = 2.5, 0.0
sense = min

[dynamics]
phi1 = x2
phi2 = -sin(x1) + u1

[objective]
f = x1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""


def _recorded_windows(monkeypatch):
    """Record ``(first knot, last knot, knots, converged)`` of each Newton window."""
    windows = []

    def window(prob, control, tw, xw, _fn=integrate._newton_window):
        out = _fn(prob, control, tw, xw)
        windows.append((tw[0], tw[-1], tw.size, out[1] == tw.size))
        return out

    monkeypatch.setattr(integrate, "_newton_window", window)
    return windows


class TestNewtonState:
    """solve_state on dynamics not affine in x, by Newton sweeps on the cell maps."""

    @pytest.mark.parametrize("s", [0.5, 1.3, 1.9])
    def test_extraction_window_matches_the_closed_form_and_dop853(self, s):
        # the normality probe's solves on the benchmark's grid: its first 20
        # time units, from x0 +- 1e-3, the candidate's state the first iterate
        prob = parse_problem(test_pmp.EXTRACTION.replace("x0 = 1.0", f"x0 = {s!r}"))
        grid = default_grid(50.0, cells=2048)
        grid = grid[grid <= 20.0]
        quarter = lambda t: np.full(np.shape(t), 0.25)
        for z in (s + 1e-3, s - 1e-3):
            x = solve_state(prob, quarter, x0=z, grid=grid,
                            guess=_gompertz(s, grid)[:, None]).x[:, 0]
            ref = solve_ivp(lambda t, y: y * (0.5 - np.log(y)), (0.0, grid[-1]), [z],
                            method="DOP853", rtol=1e-13, atol=1e-15, t_eval=grid).y[0]
            np.testing.assert_allclose(x, _gompertz(z, grid), rtol=1e-14)
            np.testing.assert_allclose(x, ref, rtol=2e-12)  # the reference's own error

    def test_flipping_cubic_matches_dop853_cell_by_cell(self):
        prob, cand = _flipping(_FLIPPING_CUBIC)
        x = solve_state(prob, cand.u, grid=cand.grid).x[:, 0]
        ref = [1.0]
        for ta, tb, uk in zip(cand.grid[:-1], cand.grid[1:], cand.u[1:, 0]):
            ref.append(solve_ivp(lambda t, y: -y**3 + uk, (ta, tb), [ref[-1]], method="DOP853",
                                 rtol=1e-13, atol=1e-15).y[0, -1])
        np.testing.assert_allclose(x, ref, rtol=1e-12)

    def test_marching_reaches_the_reference_where_one_window_cannot(self, monkeypatch):
        prob = parse_problem(_PENDULUM)
        grid = np.linspace(0.0, 20.0, 401)
        windows = _recorded_windows(monkeypatch)
        x = solve_state(prob, np.zeros(grid.size), grid=grid).x
        # the whole horizon fails; converged prefixes and halved windows reach its end
        assert windows[0] == (0.0, 20.0, 401, False)
        assert windows[-1][1:] == (20.0, windows[-1][2], True) and len(windows) > 2
        ref = solve_ivp(lambda t, y: [y[1], -np.sin(y[0])], (0.0, 20.0), [2.5, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-15, t_eval=grid).y.T
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-10)

    def test_blowup_is_raised_on_the_converged_solution(self):
        # x' = x^2 from 1 is 1 / (1 - t): it first exceeds 1e6 just past
        # 1 - 1e-6, inside the cell [0.95, 1], and the knot where the solve
        # sees it puts the pole, t + 1/x, within 1e-9 of t = 1
        prob = parse_problem(_FLIPPING.replace("phi1 = -x1 + u1", "phi1 = x1^2 + u1"))
        grid = np.linspace(0.0, 4.0, 81)
        with pytest.raises(BlowUp) as err:
            solve_state(prob, np.zeros(grid.size), grid=grid, blowup=1e6)
        assert 1.0 - 1e-6 < err.value.t < 1.0 and err.value.norm > 1e6
        assert err.value.t + 1.0 / err.value.norm == pytest.approx(1.0, abs=1e-9)

    def test_a_domain_error_names_where_the_solution_leaves(self):
        # x' = -sqrt(x) - 1/2 from 1 reaches x = 0 at t = 2 - ln 3
        prob = parse_problem(_FLIPPING.replace("phi1 = -x1 + u1", "phi1 = -sqrt(x1) - 0.5 + u1"))
        grid = np.linspace(0.0, 4.0, 81)
        with pytest.raises(DomainError, match="^sqrt of negative argument at t=0.901388, x1=") as err:
            solve_state(prob, np.zeros(grid.size), grid=grid)
        assert err.value.point["t"] == pytest.approx(2.0 - np.log(3.0), abs=1e-9)
        assert -1e-9 < err.value.point["x1"] < 0.0

    def test_coarse_cells_are_split_until_the_iterate_follows_the_flow(self, monkeypatch):
        # on cells one time unit wide the cubic Hermite iterate strays from
        # the flow, and knots that stop moving would still be off by 6.6e-7
        prob = parse_problem(test_pmp.EXTRACTION.replace("x0 = 1.0", "x0 = 0.5"))
        grid = np.linspace(0.0, 20.0, 21)
        windows = _recorded_windows(monkeypatch)
        x = solve_state(prob, lambda t: np.full(np.shape(t), 0.25), grid=grid).x[:, 0]
        assert max(knots for _, _, knots, _ in windows) > grid.size
        np.testing.assert_allclose(x, _gompertz(0.5, grid), rtol=1e-14)

    @pytest.mark.parametrize("case", ["coarse-cells", "marching"])
    def test_the_iterate_gives_the_bits_of_the_searched_hermite_formula(self, monkeypatch,
                                                                        case):
        # every read of every iterate: the sweeps' Gauss nodes, on bisected
        # levels too, and the coarse-cell test's half-cell nodes and midpoints
        if case == "coarse-cells":
            prob = parse_problem(test_pmp.EXTRACTION.replace("x0 = 1.0", "x0 = 0.5"))
            grid, u = np.linspace(0.0, 20.0, 21), lambda t: np.full(np.shape(t), 0.25)
        else:
            prob, grid = parse_problem(_PENDULUM), np.linspace(0.0, 20.0, 401)
            u = np.zeros(grid.size)
        reads = []

        def iterate(prob, tw, xw, u_ends, _fn=integrate._iterate):
            at = _fn(prob, tw, xw, u_ends)

            def read(ts, cells, nodes=_GAUSS_C.size):
                got = at(ts, cells, nodes)
                want = _searched_hermite(prob, tw, xw, u_ends, ts)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                reads.append((nodes, isinstance(cells, slice)))
                return got

            return read

        monkeypatch.setattr(integrate, "_iterate", iterate)
        solve_state(prob, u, grid=grid)
        assert {(_GAUSS_C.size, True), (1, True)} <= set(reads)
        if case == "marching":  # a sweep far off the flow bisects its cells
            assert (_GAUSS_C.size, False) in reads


def _searched_hermite(prob, tw, xw, u_ends, ts):
    """The Newton iterate at times ``ts`` by a search of the knots ``tw``:
    cubic Hermite between the knot states ``xw`` with the slopes ``phi``
    gives at each cell's knots under its own control ``u_ends``."""
    ends = np.concatenate((tw[:-1], tw[1:]))
    left, right = prob.phi_value(ends, np.concatenate((xw[:-1], xw[1:])), u_ends).reshape(
        2, tw.size - 1, xw.shape[1])
    k = np.clip(np.searchsorted(tw, ts, side="right") - 1, 0, tw.size - 2)
    h = (tw[k + 1] - tw[k])[:, None]
    s = (ts - tw[k])[:, None] / h
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * xw[k] + s * (1.0 - s) ** 2 * h * left[k]
            + s * s * (3.0 - 2.0 * s) * xw[k + 1] - s * s * (1.0 - s) * h * right[k])


def _rotating_system(scale):
    """y' = A(t) y + b(t) with A(s) A(t) != A(t) A(s), and its coefficients."""

    def A(t):
        t = np.asarray(t, dtype=float)
        rows = [[np.full_like(t, -0.5), np.sin(t)], [-np.cos(2 * t), -0.2 * t]]
        return scale * np.moveaxis(np.array(rows), (0, 1), (-2, -1))

    def b(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.exp(-t), np.cos(3 * t)], axis=-1)

    return A, b


def _chain_loop(P, q, y0):
    """The sequential reference: y_{k+1} = P_k y_k + q_k, q_k added to each column."""
    ys = [np.asarray(y0, dtype=float)]
    for Pk, qk in zip(P, q):
        ys.append(Pk @ ys[-1] + qk.reshape(qk.shape + (1,) * (ys[-1].ndim - 1)))
    return np.array(ys)


class TestLinearCellMaps:
    """Gauss collocation cell maps against scipy's Radau at tight tolerances."""

    @pytest.mark.parametrize("scale,cells", [(1.0, 40), (3.0, 2)],
                             ids=["fine-grid", "bisected"])
    def test_matches_radau(self, scale, cells):
        A, b = _rotating_system(scale)
        nodes = []

        def coef(ts, cells):
            nodes.append(ts.size)
            return A(ts), b(ts)

        grid = np.linspace(0.0, 4.0, cells + 1)
        P, q = _linear_cell_maps(coef, grid[:-1], grid[1:])
        y0 = [1.0, -2.0]
        ref = solve_ivp(lambda t, y: A(t) @ y + b(t), (0.0, 4.0), y0,
                        method="Radau", rtol=1e-12, atol=1e-14, t_eval=grid)
        assert np.max(np.abs(_chain_loop(P, q, y0) - ref.y.T)) < 1e-9
        # one step and two half steps cost 21 nodes per cell; h |A| = 6
        # forces bisection, which evaluates more
        unsplit = 21 * cells
        assert (sum(nodes) > unsplit) == (scale == 3.0)

    def test_reversed_cells_give_the_inverse_map(self):
        A, b = _rotating_system(1.0)
        coef = lambda ts, cells: (A(ts), b(ts))
        grid = np.linspace(0.0, 4.0, 9)
        P_fwd, _ = _linear_cell_maps(coef, grid[:-1], grid[1:])
        P_rev, _ = _linear_cell_maps(coef, grid[1:], grid[:-1])
        np.testing.assert_allclose(P_rev @ P_fwd, np.broadcast_to(np.eye(2), P_fwd.shape),
                                   atol=1e-12)

    def test_unforced_system_has_exactly_zero_offset(self):
        A, _ = _rotating_system(1.0)
        coef = lambda ts, cells: (A(ts), np.zeros((ts.size, 2)))
        grid = np.linspace(0.0, 4.0, 9)
        _, q = _linear_cell_maps(coef, grid[:-1], grid[1:])
        assert np.all(q == 0.0)

    def test_unresolvable_cell_raises_blowup(self):
        coef = lambda ts, cells: (np.full((ts.size, 1, 1), np.nan), np.zeros((ts.size, 1)))
        with pytest.raises(BlowUp, match="cell map defect"):
            _linear_cell_maps(coef, np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_every_node_lies_in_the_cell_its_call_names(self, backward):
        # h |A| = 6 bisects both cells: the whole cells and their halves
        # name the caller's cells by a slice, the halves of the pieces at a
        # bisected level (their whole maps are halves already) by an array
        A, b = _rotating_system(3.0)
        grid = np.linspace(0.0, 4.0, 3)
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        named = []

        def coef(ts, cells):
            lo, hi = np.minimum(ta, tb)[cells], np.maximum(ta, tb)[cells]
            runs = ts.reshape(-1, lo.size, _GAUSS_C.size)
            assert np.all((lo[:, None] < runs) & (runs < hi[:, None]))
            named.append((runs.shape[0], cells))
            return A(ts), b(ts)

        _linear_cell_maps(coef, ta, tb)
        assert named[:2] == [(1, slice(0, 2)), (2, slice(0, 2))] and len(named) > 2
        assert [runs for runs, _ in named] == [1] + [2] * (len(named) - 1)
        assert all(isinstance(cells, np.ndarray) for _, cells in named[2:])


def _build_calls(ta, tb, split):
    """``(ts, cells)`` of each ``coef`` call of a build over the cells
    ``ta``, ``tb`` in which the cells marked by ``split`` bisect: the whole
    cells, their halves, and the halves of the pieces on two bisected
    levels.  M is NaN at the nodes of the marked cells on the first level
    only, so the maps of their halves, the next level's whole cells, are
    NaN too."""
    calls = []

    def coef(ts, cells):
        calls.append((ts, cells))
        M = np.zeros((ts.size, 1, 1))
        if len(calls) <= 2:
            M[np.tile(np.repeat(split, _GAUSS_C.size), len(calls))] = np.nan
        return M, np.zeros((ts.size, 1))

    _linear_cell_maps(coef, ta, tb)
    assert len(calls) == (4 if split.any() else 2)
    return calls


@st.composite
def _sampled_candidates(draw):
    """A sampled candidate with n = 1-3 and m = 1-2 on a uniform grid or a
    zero-refined one, a few samples possibly not finite, and a mask of
    cells to bisect."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    t_max, cells = draw(st.floats(0.5, 60.0)), draw(st.integers(1, 40))
    grid = default_grid(t_max, cells=cells, refine_zero=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1e3, 1e3, (grid.size, n))
    u = rng.uniform(-1e3, 1e3, (grid.size, m))
    if draw(st.booleans()):  # np.interp's retry from the right knot
        x.flat[rng.integers(x.size)] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    split = rng.random(grid.size - 1) < draw(st.floats(0.0, 1.0))
    return CandidateProcess(grid=grid, x=x, u=u), split, draw(st.booleans())


class TestCellReads:
    """A sampled candidate read cell by cell against the search it replaces."""

    @given(case=_sampled_candidates())
    @settings(max_examples=200, deadline=None)
    def test_a_cell_read_gives_the_bits_of_the_search(self, case):
        cand, split, backward = case
        grid = cand.grid
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        # whole cells, their halves and the halves of two bisected levels
        for ts, cells in _build_calls(ta, tb, split):
            x, u = cand.in_cells(ts, cells)
            want_x, want_u = cand.state(ts), cand.control(ts)
            assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
            assert u.shape == want_u.shape and u.tobytes() == want_u.tobytes()

    def test_closed_forms_are_evaluated_on_the_times_as_given(self):
        grid = np.linspace(0.0, 4.0, 9)
        shapes = []

        def x_fn(t):
            shapes.append(np.shape(t))
            return np.exp(-np.asarray(t))

        cand = candidate_from_functions(grid, x_fn, lambda t: np.zeros(np.shape(t)))
        ts = (grid[:-1, None] + np.diff(grid)[:, None] * _GAUSS_C)
        x, u = cand.in_cells(ts, slice(0, 8))
        assert shapes[-1] == (8, 7) and x.shape == (8, 7, 1) and u.shape == (8, 7, 1)
        assert x.tobytes() == cand.state(ts).tobytes()


def _time_varying_coef():
    """``M`` and ``b`` of _TIME_VARYING under u = e^{-t}, as solve_state reads them."""
    prob = parse_problem(_TIME_VARYING)

    def coef(ts, cells):
        zero, us = np.zeros((ts.size, 2)), np.exp(-ts)[:, None]
        return prob.phi_jac_x(ts, zero, us), prob.phi_value(ts, zero, us)

    return coef


def _rotating_coef(scale):
    A, b = _rotating_system(scale)
    return lambda ts, cells: (A(ts), b(ts))


def _trig_coef(d, forced=True, constant=False, scale=1.0):
    """``M`` and ``b`` of a d-dimensional system whose entries each mix a
    constant, sin t and cos 2t with fixed random weights, ``M`` times
    ``scale``.  With ``constant`` the sin and cos weights of ``M`` are
    zero: one ``M`` at every node, while ``b`` still varies."""
    rng = np.random.default_rng(d)
    M_w, b_w = rng.uniform(-1.0, 1.0, (3, d, d)), rng.uniform(-1.0, 1.0, (3, d))
    M_w = scale * M_w
    if constant:
        M_w[1:] = 0.0

    def coef(ts, cells):
        basis = np.stack([np.ones_like(ts), np.sin(ts), np.cos(2 * ts)], axis=-1)
        b = basis @ b_w if forced else np.zeros((ts.size, d))
        return np.einsum("kw,wrc->krc", basis, M_w), b

    return coef


def _nan_node(coef):
    """``coef`` with ``M`` NaN at the first node past t = 10."""

    def nan_coef(ts, cells):
        M, b = coef(ts, cells)
        M[np.argmax(ts > 10.0)] = np.nan
        return M, b

    return nan_coef


def _constant_view(coef):
    """``coef`` with its constant ``M`` as a read-only stride-0 view of its
    first node, as the evaluator of a constant Jacobian returns it."""

    def view_coef(ts, cells):
        M, b = coef(ts, cells)
        return np.broadcast_to(M[0], M.shape), b

    return view_coef


def _stage_slope_maps(coef, ta, tb):
    """The collocation maps by way of every stage slope: per cell, solve
    ``(I - h A x M) k = [M | b]`` for the 7d slopes with d + 1 right-hand
    sides, then take the map ``I + h sum_i b_i k_i``."""
    s = _GAUSS_C.size
    maps = []
    for k, (lo, hi) in enumerate(zip(ta, tb)):
        h = hi - lo
        M, b = coef(lo + h * _GAUSS_C, slice(k, k + 1))
        d = b.shape[-1]
        stages = np.block([[_GAUSS_A[i, j] * M[i] for j in range(s)] for i in range(s)])
        rhs = np.concatenate((M, b[..., None]), axis=-1).reshape(s * d, d + 1)
        slopes = np.linalg.solve(np.eye(s * d) - h * stages, rhs).reshape(s, d, d + 1)
        G = np.eye(d + 1)
        G[:d] += h * np.tensordot(_GAUSS_B, slopes, axes=1)
        maps.append(G)
    return np.array(maps)


def _one_cell_at_a_time(coef, ta, tb):
    """``_collocate`` called on each cell alone, its pairs stacked."""
    pairs = [integrate._collocate(coef, ta[k:k + 1], tb[k:k + 1], slice(k, k + 1))
             for k in range(ta.size)]
    return np.concatenate([P for P, _ in pairs]), np.concatenate([q for _, q in pairs])


def _one_call(coef, ta, tb):
    """``_collocate`` called once on all the cells ``ta``, ``tb``."""
    return integrate._collocate(coef, ta, tb, slice(0, ta.size))


def _same_bits(got, want):
    """Whether two pairs ``(P, q)`` hold the same bytes; a stride-0 ``P``
    reads as the rows it stands for."""
    return all(np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
               for a, b in zip(got, want))


class TestCollocate:
    """The transposed weighted solve against the stage slopes it replaces."""

    @pytest.mark.parametrize("d,constant", [
        pytest.param(1, False, id="1"),
        pytest.param(2, False, id="2"),
        pytest.param(3, False, id="3"),
        pytest.param(2, True, id="2-constant-M"),
    ])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("forced", [True, False], ids=["forced", "unforced"])
    def test_matches_the_stage_slope_maps(self, monkeypatch, d, constant, backward, forced):
        coef = _trig_coef(d, forced, constant)
        grid = np.linspace(0.0, 4.0, 17)
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        want = _stage_slope_maps(coef, ta, tb)
        shapes = []

        def solve(a, b, _solve=np.linalg.solve):
            shapes.append((a.shape, b.shape))
            return _solve(a, b)

        monkeypatch.setattr(integrate.np.linalg, "solve", solve)
        P, q = _one_call(coef, ta, tb)
        assert P.shape == (ta.size, d, d) and q.shape == (ta.size, d)
        err = np.maximum(np.max(np.abs(P - want[:, :d, :d]), axis=(1, 2)),
                         np.max(np.abs(q - want[:, :d, d]), axis=1))
        assert np.all(err <= 1e-14 * np.max(np.abs(want), axis=(1, 2)))
        if not forced:
            assert np.all(q == 0.0)
        # one solve per block, for the d weight columns of every cell in it
        sd = _GAUSS_C.size * d
        if constant:  # one width and one M: the cells share one stage matrix
            assert shapes == [((1, sd, sd), (1, sd, d))]
        else:
            assert shapes == [((ta.size, sd, sd), (ta.size, sd, d))]

    @pytest.mark.parametrize("grid", [
        pytest.param(np.linspace(0.0, 50.0, 2049), id="power-of-two"),
        pytest.param(default_grid(50.0, cells=2048), id="refine-zero"),
        pytest.param(np.linspace(0.0, 50.0, 2001), id="linspace-2001"),
    ])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_shared_stage_solves_give_the_bits_of_one_cell_at_a_time(self, monkeypatch,
                                                                       grid, backward):
        coef = _trig_coef(2, constant=True)
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        one_by_one = _one_cell_at_a_time(coef, ta, tb)
        solved = []

        def solve(a, b, _solve=np.linalg.solve):
            solved.append(a.shape[0])
            return _solve(a, b)

        monkeypatch.setattr(integrate.np.linalg, "solve", solve)
        got = _one_call(coef, ta, tb)
        assert _same_bits(got, one_by_one)
        # one solve per distinct width, fewer than the cells on every grid
        assert sum(solved) == np.unique(tb - ta).size < ta.size

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_one_width_gives_the_bits_of_its_cells_beside_a_second_width(self, d, backward):
        # alone, 256 cells of one width share one stage matrix and one map,
        # and P is a read-only stride-0 view of it; with one cell of a second
        # width in the call, the same cells gather their width's map
        coef = _trig_coef(d, constant=True)
        grid = np.linspace(0.0, 64.0, 257)
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        one = _one_call(coef, ta, tb)
        assert one[0].strides[0] == 0 and not one[0].flags.writeable
        ends = (64.5, 64.0) if backward else (64.0, 64.5)
        P, q = _one_call(coef, np.append(ta, ends[0]), np.append(tb, ends[1]))
        assert P.strides[0] != 0 and P.flags.writeable
        assert _same_bits(one, (P[:-1], q[:-1]))

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_an_M_constant_per_cell_matches_one_cell_at_a_time_to_rounding(self, backward):
        # as x' = u x under a control sampled per cell: one M within each cell
        # but not over the call, which forms I + h W^T [M | b] per cell, while
        # a call of one cell forms I + h W^T M and h W^T b apart
        coef = _trig_coef(2)
        grid = np.linspace(0.0, 4.0, 17)
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])

        def sampled(ts, cells):  # M at the left end of each node's cell
            return coef(grid[np.searchsorted(grid, ts) - 1], cells)[0], coef(ts, cells)[1]

        one_by_one = _one_cell_at_a_time(sampled, ta, tb)
        got = _one_call(sampled, ta, tb)
        for part, want in zip(got, one_by_one):
            assert np.all(np.abs(part - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("constant", [True, False], ids=["constant-M", "varying-M"])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_any_layout_of_M_gives_the_bits_of_its_contiguous_copy(self, d, constant,
                                                                   backward):
        # the adjoint's coef returns -phi_x^T, a transposed view
        coef = _trig_coef(d, constant=constant)

        def transposed(ts, cells):
            M, b = coef(ts, cells)
            return np.ascontiguousarray(np.swapaxes(M, 1, 2)).swapaxes(1, 2), b

        grid = default_grid(50.0, cells=300)  # a head of distinct widths, a body of few
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        assert not transposed(ta, slice(0, ta.size))[0].flags.c_contiguous
        want = _one_call(coef, ta, tb)
        assert _same_bits(_one_call(transposed, ta, tb), want)
        if constant:  # one matrix, stride 0 along the nodes
            assert _same_bits(_one_call(_constant_view(coef), ta, tb), want)


class TestComposePairs:
    """The pair product against the augmented maps it replaces."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("views", [(False, False), (True, False), (False, True),
                                       (True, True)], ids=["", "right-view", "left-view",
                                                           "two-views"])
    def test_gives_the_bits_of_the_augmented_product(self, d, views):
        rng = np.random.default_rng(d)
        cells = 300

        def pair(view):
            P = rng.standard_normal((1 if view else cells, d, d))
            return np.broadcast_to(P, (cells, d, d)) if view else P, rng.standard_normal((cells, d))

        def augmented(P, q):
            G = np.zeros((cells, d + 1, d + 1))
            G[:, :d, :d], G[:, :d, d], G[:, d, d] = P, q, 1.0
            return G

        right, left = pair(views[0]), pair(views[1])
        P, q = integrate._compose(right, left)
        want = augmented(*right) @ augmented(*left)
        assert P.tobytes() == np.ascontiguousarray(want[:, :d, :d]).tobytes()
        assert q.tobytes() == np.ascontiguousarray(want[:, :d, d]).tobytes()
        assert (P.strides[0] == 0) == all(views)


class TestBlockedStageSolves:
    """The stage systems are solved a block of cells at a time."""

    # every system fills more than one default block (668 cells for d = 1,
    # 167 for d = 2, 74 for d = 3) and leaves a partial last block at both
    # levels; at scale 3 the late cells, where |A| grows with t, bisect
    @pytest.mark.parametrize("system,cells,bisects", [
        pytest.param(_time_varying_coef, 300, False, id="time-varying"),
        pytest.param(lambda: _rotating_coef(1.0), 300, False, id="rotating"),
        pytest.param(lambda: _rotating_coef(3.0), 300, True, id="rotating-bisected"),
        pytest.param(lambda: _trig_coef(1), 1000, False, id="scalar"),
        pytest.param(lambda: _trig_coef(3), 300, False, id="three-state"),
        # one M at every node: the cells of a width share one stage solve
        pytest.param(lambda: _trig_coef(2, constant=True), 300, False, id="constant-M"),
        pytest.param(lambda: _trig_coef(2, constant=True, scale=30.0), 300, True,
                     id="constant-M-bisected"),
    ])
    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, system, cells, bisects,
                                                backward):
        coef = system()
        levels = []

        def counted(ts, cells):
            levels.append(ts.size)
            return coef(ts, cells)

        grid = np.linspace(0.0, 60.0, cells + 1)
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        P, q = _linear_cell_maps(counted, ta, tb)
        assert (len(levels) > 2) == bisects
        d = q.shape[1]
        per_block = _STAGE_FLOATS // (_GAUSS_C.size * d) ** 2
        assert cells > per_block and cells % per_block and 2 * cells % per_block
        for floats in (1, 2**40):  # one cell per block; every cell of a level in one
            monkeypatch.setattr(integrate, "_STAGE_FLOATS", floats)
            P_blk, q_blk = _linear_cell_maps(coef, ta, tb)
            assert P_blk.tobytes() == P.tobytes() and q_blk.tobytes() == q.tobytes()

    @pytest.mark.parametrize("scale,bisects", [(1.0, False), (30.0, True)],
                             ids=["constant-M", "constant-M-bisected"])
    def test_only_a_bisected_one_width_build_writes_its_homogeneous_maps(self, scale, bisects):
        # 256 cells of one width and one M: a level whose cells bisect copies
        # the rows of the one map it writes; a build with no bisection
        # returns the read-only stride-0 view of the one map
        coef = _trig_coef(2, constant=True, scale=scale)
        levels = []

        def counted(ts, cells):
            levels.append(ts.size)
            return coef(ts, cells)

        grid = np.linspace(0.0, 64.0, 257)
        P, q = _linear_cell_maps(counted, grid[:-1], grid[1:])
        assert (len(levels) > 2) == bisects
        assert (P.strides[0] != 0) == P.flags.writeable == bisects
        assert q.flags.writeable and q.strides[0] != 0
        if bisects:
            P[0] = 0.0  # a writable array of its own rows

    def test_a_build_holds_one_block_of_stage_matrices(self):
        # d = 2 at 2048 cells that need no bisection: per cell, the 14
        # half-cell Gauss nodes' M and b (6 floats each), twice over while
        # coef builds them, and eight maps of at most 3 x 3 floats (whole,
        # halves, their product and its defect); beside those, a few
        # blocks of stage matrices.  Stage matrices for all cells of the
        # halves at once are 2 x 196 floats per cell, three times over.
        # With one M at every node the cells share one stage matrix and
        # one map, and test_a_one_width_constant_M_build_holds_offsets_only
        # bounds that build by its offsets alone
        for system in (_rotating_coef(1.0), _trig_coef(2, constant=True)):
            calls = []

            def coef(ts, cells):
                calls.append(ts.size)
                return system(ts, cells)

            cells = 2048
            grid = np.linspace(0.0, 50.0, cells + 1)
            _linear_cell_maps(coef, grid[:-1], grid[1:])  # warm up outside the trace
            calls.clear()
            tracemalloc.start()
            try:
                _linear_cell_maps(coef, grid[:-1], grid[1:])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            nodes = 2 * _GAUSS_C.size
            assert calls == [cells * _GAUSS_C.size, cells * nodes]  # one coef call per level
            assert peak < 8 * (cells * (2 * nodes * 6 + 8 * 9) + 4 * _STAGE_FLOATS)

    @pytest.mark.parametrize("d", [3, 4])
    def test_a_one_width_constant_M_build_holds_offsets_only(self, d):
        # M is a stride-0 view of one matrix and coef's arrays are built
        # before the trace, so the build's own arrays remain.  Per cell: the
        # halves' 14 node times and their product with the widths, and eight
        # offsets of d floats (whole, halves, their product and its defect);
        # beside those, one stage matrix, its factors and weights.  No
        # homogeneous map per cell: d x d floats each, eight of them would
        # pass this bound
        rng = np.random.default_rng(d)
        M_0, b_w = rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, (3, d))
        built = {}

        def coef(ts, cells):
            if ts.size not in built:
                basis = np.stack([np.ones_like(ts), np.sin(ts), np.cos(2 * ts)], axis=-1)
                built[ts.size] = np.broadcast_to(M_0, (ts.size, d, d)), basis @ b_w
            return built[ts.size]

        cells = 2048
        grid = np.linspace(0.0, 50.0, cells + 1)
        _linear_cell_maps(coef, grid[:-1], grid[1:])  # builds coef's arrays outside the trace
        tracemalloc.start()
        try:
            P, _ = _linear_cell_maps(coef, grid[:-1], grid[1:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nodes = 2 * _GAUSS_C.size
        assert peak < 8 * (cells * (2 * nodes + 8 * d) + 4 * (_GAUSS_C.size * d) ** 2)
        assert P.strides[0] == 0  # no cell bisects

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    def test_distinct_widths_give_the_bits_of_one_cell_at_a_time_in_one_block(self, backward):
        # one M on a geometric grid: no two cells share a width, so every cell
        # solves its own stage matrix and the build gathers each cell's weights
        coef = _trig_coef(2, constant=True)
        cells = 2048
        grid = np.geomspace(1.0, 51.0, cells + 1) - 1.0
        ta, tb = (grid[1:], grid[:-1]) if backward else (grid[:-1], grid[1:])
        assert np.unique(tb - ta).size == cells
        one_by_one = _one_cell_at_a_time(coef, ta, tb)
        assert _same_bits(_one_call(coef, ta, tb), one_by_one)
        calls = []

        def counted(ts, cells):
            calls.append(ts.size)
            return coef(ts, cells)

        def traced_peak(ta, tb):
            _linear_cell_maps(coef, ta, tb)  # warm up outside the trace
            tracemalloc.start()
            try:
                _linear_cell_maps(counted, ta, tb)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = traced_peak(ta, tb)
        nodes = 2 * _GAUSS_C.size
        assert calls == [cells * _GAUSS_C.size, cells * nodes]  # no cell bisects
        # the bound of test_a_build_holds_one_block_of_stage_matrices
        assert peak < 8 * (cells * (2 * nodes * 6 + 8 * 9) + 4 * _STAGE_FLOATS)
        # the weights are gathered a block of cells at a time, so a build of
        # 2048 widths holds about what a build of one width holds; weights
        # gathered for every cell of a level at once would hold 25% more
        uniform = np.linspace(0.0, 50.0, cells + 1)
        ua, ub = (uniform[1:], uniform[:-1]) if backward else (uniform[:-1], uniform[1:])
        assert peak < 1.1 * traced_peak(ua, ub)

    @pytest.mark.parametrize("system,shared", [
        pytest.param(lambda: _trig_coef(2, constant=True), True, id="constant-M"),
        pytest.param(lambda: _constant_view(_trig_coef(2, constant=True)), True,
                     id="constant-M-view"),
        pytest.param(lambda: _rotating_coef(1.0), False, id="time-varying-M"),
        pytest.param(lambda: _nan_node(_trig_coef(2, constant=True)), False,
                     id="constant-M-with-a-NaN-node"),
    ])
    def test_one_stage_solve_per_distinct_stage_matrix(self, monkeypatch, system, shared):
        coef = system()
        solved, cells = [], []

        def solve(a, b, _solve=np.linalg.solve):
            solved[-1] += a.shape[0]
            return _solve(a, b)

        def collocate(coef, ta, tb, owners, _collocate=integrate._collocate):
            solved.append(0)
            cells.append(ta.size)
            return _collocate(coef, ta, tb, owners)

        monkeypatch.setattr(integrate.np.linalg, "solve", solve)
        monkeypatch.setattr(integrate, "_collocate", collocate)
        grid = np.linspace(0.0, 50.0, 2049)  # 2048 cells of one width
        try:
            _linear_cell_maps(coef, grid[:-1], grid[1:])
        except BlowUp:  # every level of the NaN system holds its NaN node
            assert len(cells) == integrate._MAP_HALVINGS + 2
        assert cells[:2] == [2048, 4096]
        assert solved == ([1] * len(cells) if shared else cells)


class TestAffineChain:
    """The blocked prefix scan against the plain loop it replaces."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("cells", [3 * _CHAIN_BLOCK, 3 * _CHAIN_BLOCK + 17, 5])
    @pytest.mark.parametrize("growth", [-0.05, 0.05], ids=["stable", "unstable"])
    @pytest.mark.parametrize("matrix_start", [False, True], ids=["vector", "matrix"])
    def test_matches_the_sequential_loop(self, d, cells, growth, matrix_start):
        rng = np.random.default_rng(17 * d + cells)
        # random maps near e^{growth} I: every knot grows or decays with k
        P = np.exp(growth) * np.eye(d) + 0.1 * rng.standard_normal((cells, d, d))
        q = rng.standard_normal((cells, d))
        y0 = rng.standard_normal((d, 2) if matrix_start else d)
        got = _affine_chain(P, q, y0)
        want = _chain_loop(P, q, y0)
        assert got.shape == want.shape == (cells + 1,) + y0.shape
        scale = np.max(np.abs(want).reshape(cells + 1, -1), axis=1)
        err = np.max(np.abs(got - want).reshape(cells + 1, -1), axis=1)
        assert np.all(err <= 1e-12 * scale)

    def test_a_direction_without_forcing_stays_exactly_zero(self):
        # the first coordinate grows e^{1.5} per cell and is never excited;
        # a product over the whole grid would read inf there and turn the
        # exact zero into inf * 0 = NaN
        cells = 16 * _CHAIN_BLOCK
        P = np.zeros((cells, 2, 2))
        P[:, 0, 0], P[:, 1, 1] = np.exp(1.5), np.exp(-0.1)
        q = np.zeros((cells, 2))
        q[:, 1] = 1.0
        got = _affine_chain(P, q, np.zeros(2))
        assert np.all(got[:, 0] == 0.0)
        np.testing.assert_allclose(got, _chain_loop(P, q, np.zeros(2)), rtol=1e-12)

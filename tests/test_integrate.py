import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pmpcheck.integrate import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    _DP_ERR,
    _CHAIN_BLOCK,
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
from pmpcheck.problem import CandidateProcess, parse_problem


class TestDefaultGrid:
    def test_shape_and_monotonicity(self):
        g = default_grid(50.0, cells=256)
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(50.0)
        assert np.all(np.diff(g) > 0)

    def test_refined_head_reaches_picoscale(self):
        g = default_grid(50.0, cells=64)
        assert g[1] == pytest.approx(1e-12)

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

# the nonlinear twin, which keeps solve_state on DP45
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
        # previous cell's sample, but the cell's first stage needs its own
        prob, cand = cubic
        by_samples = solve_state(prob, cand.u, grid=cand.grid, rtol=1e-9)
        by_callable = solve_state(prob, cand.control, grid=cand.grid, rtol=1e-9)
        np.testing.assert_allclose(by_callable.x, by_samples.x, rtol=0, atol=1e-12)

    def test_samples_path_matches_the_piecewise_closed_form(self, flipping):
        prob, cand = flipping
        x = solve_state(prob, cand.u, grid=cand.grid, rtol=1e-9).x[:, 0]
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

    def test_control_is_called_once_per_step_inside_one_cell(self, cubic):
        prob, cand = cubic
        cells = cand.grid.size - 1
        for rtol, retries in ((1e-9, False), (1e-11, True)):
            control, calls = _recording(cand.control)
            out = solve_state(prob, control, grid=cand.grid, rtol=rtol)
            assert out.closed_u is control
            np.testing.assert_array_equal(calls[0], cand.grid)  # the knot samples
            # one read covers the stage times of every one-step cell
            first = calls[1].reshape(cells, 7)
            assert np.all(cand.grid[:-1, None] < first)
            assert np.all(first <= cand.grid[1:, None])
            # retried and shorter steps read once per step, inside their cell
            assert (len(calls) > 2) == retries
            for ts in calls[2:]:
                assert ts.shape == (7,)
                k = np.searchsorted(cand.grid, ts[0], side="right") - 1
                assert cand.grid[k] < ts.min() and ts.max() <= cand.grid[k + 1]


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

        def coef(ts):
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
        coef = lambda ts: (A(ts), b(ts))
        grid = np.linspace(0.0, 4.0, 9)
        P_fwd, _ = _linear_cell_maps(coef, grid[:-1], grid[1:])
        P_rev, _ = _linear_cell_maps(coef, grid[1:], grid[:-1])
        np.testing.assert_allclose(P_rev @ P_fwd, np.broadcast_to(np.eye(2), P_fwd.shape),
                                   atol=1e-12)

    def test_unforced_system_has_exactly_zero_offset(self):
        A, _ = _rotating_system(1.0)
        coef = lambda ts: (A(ts), np.zeros((ts.size, 2)))
        grid = np.linspace(0.0, 4.0, 9)
        _, q = _linear_cell_maps(coef, grid[:-1], grid[1:])
        assert np.all(q == 0.0)

    def test_unresolvable_cell_raises_blowup(self):
        coef = lambda ts: (np.full((ts.size, 1, 1), np.nan), np.zeros((ts.size, 1)))
        with pytest.raises(BlowUp, match="cell map defect"):
            _linear_cell_maps(coef, np.array([0.0, 1.0]), np.array([1.0, 2.0]))


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

"""Adjoint routes, the running-function conditions, and full certificates."""

import mpmath
import numpy as np
import pytest

from pmpcheck.integrate import BlowUp, InvalidGrid, default_grid
from pmpcheck.pmp import (
    AdjointSolution,
    AtomOffActiveSet,
    DivergentTail,
    IllConditioned,
    UnboundedAbove,
    adjoint_backward,
    adjoint_from_function,
    adjoint_representation,
    check_adjoint_residual,
    check_integral_adjoint,
    check_maximum_condition,
    check_michel,
    check_normality,
    check_transversality,
    check_weak_inequality,
    pontryagin_H,
    pontryagin_H_u,
    pontryagin_H_x,
    verify_certificate,
)
from pmpcheck.problem import candidate_from_functions, parse_problem

SQRT2 = np.sqrt(2.0)

# Quadratic regulator with exponential discounting.  Closed forms: the
# optimal feedback is u = -(1+sqrt2) x, so from x0 = 2 the state runs as
# x*(t) = 2 e^{(1-sqrt2)t}, and the discounted adjoint is
# p(t) = -2(1+sqrt2) e^{-(1+sqrt2)t}.
REGULATOR = """
[problem]
n = 1
m = 1
x0 = 2.0
sense = min
p = 2

[dynamics]
phi1 = 2*x1 + u1

[objective]
f = 0.5*(x1^2 + u1^2)
omega = exp_decay 2.0

[space]
nu = exp_decay {a}
"""

# Log-utility investment split, discount rate 1/2: invest the fraction
# u* = 1/2, so x*(t) = e^{t/2} and p(t) = 2 e^{-t}.
INVESTMENT = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = max
p = 2

[dynamics]
phi1 = u1 * x1

[objective]
f = ln((1 - u1) * x1)
omega = exp_decay 0.5

[space]
nu = exp_decay 0.5

[controls]
u1 = (-inf, 1)
"""

# Undiscounted linear cost with bang control on [0.1, 1]: full effort
# u* = 1 gives x*(t) = e^{-t}, and the normal-case adjoint is p = -1
# once the horizon truncation is accounted for.
UNDISCOUNTED = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = -u1 * x1

[objective]
f = x1
omega = expr(1)

[space]
nu = exp_decay 1.0
eta = exp_decay 1.0

[controls]
u1 = [0.1, 1]
"""

# Log cost whose gradient 1/x grows exactly as fast as the discount
# decays: the candidate u* = 0, x*(t) = e^{-t} has adjoint p = -1.
DISCOUNTED_LOG = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = u1 - x1

[objective]
f = ln(x1)
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
eta = exp_decay 1.0

[controls]
u1 = [0, 1]
"""

# Extraction effort against Gompertz growth, priced through a saturating
# market share, with a heavy-tailed arrival weight.  The payoff rate
# u/(u+1/4) - u has no state dependence, so f_x = 0 along any candidate
# and the adjoint vanishes identically; the maximizer is u* = 1/4.
EXTRACTION = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = max

[dynamics]
phi1 = x1*(1 - ln(x1)) - u1*x1 - 0.25*x1

[objective]
f = u1/(u1 + 0.25) - u1
omega = weibull 0.5

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, inf)
"""

CONSTRAINED = REGULATOR.format(a=4.5) + """
[constraints]
g1 = x1 - 2
"""


def regulator(a=4.5):
    return parse_problem(REGULATOR.format(a=a))


def regulator_candidate(grid):
    x = lambda t: 2.0 * np.exp((1 - SQRT2) * np.asarray(t))
    u = lambda t: -2.0 * (1 + SQRT2) * np.exp((1 - SQRT2) * np.asarray(t))
    return candidate_from_functions(grid, x, u)


def regulator_p(t):
    return -2.0 * (1 + SQRT2) * np.exp(-(1 + SQRT2) * np.asarray(t))


def investment_pieces(grid):
    prob = parse_problem(INVESTMENT)
    cand = candidate_from_functions(
        grid, lambda t: np.exp(0.5 * np.asarray(t)),
        lambda t: np.full(np.shape(t), 0.5))
    adj = adjoint_from_function(grid, lambda t: 2.0 * np.exp(-np.asarray(t)))
    return prob, cand, adj


def undiscounted_pieces(grid):
    prob = parse_problem(UNDISCOUNTED)
    cand = candidate_from_functions(
        grid, lambda t: np.exp(-np.asarray(t)),
        lambda t: np.full(np.shape(t), 1.0))
    return prob, cand


@pytest.fixture(scope="module")
def grid():
    return default_grid(50.0, cells=2048, refine_zero=False)


@pytest.fixture(scope="module")
def reg_setup(grid):
    prob = regulator()
    cand = regulator_candidate(grid)
    adj = adjoint_from_function(grid, regulator_p)
    return prob, cand, adj


class TestPontryaginFunction:
    def test_value_at_start(self, reg_setup):
        prob, _, _ = reg_setup
        x0 = np.array([2.0])
        u0 = np.array([-2.0 * (1 + SQRT2)])
        p0 = np.array([-2.0 * (1 + SQRT2)])
        got = pontryagin_H(prob, 0.0, x0, u0, p0, 1.0)
        # closed form: -0.5(4 + 4(1+sqrt2)^2) + 2(1+sqrt2)^2 = -4 - 4 sqrt2
        assert got == pytest.approx(-4.0 - 4.0 * SQRT2, rel=1e-14)

    def test_batched_matches_scalar(self, reg_setup):
        prob, cand, adj = reg_setup
        ts = np.linspace(0.0, 10.0, 7)
        batch = pontryagin_H(prob, ts, cand.state(ts), cand.control(ts),
                             adj.value(ts), 1.0)
        single = [float(pontryagin_H(prob, t, cand.state(t), cand.control(t),
                                     adj.value(t), 1.0)) for t in ts]
        np.testing.assert_allclose(batch, single, rtol=1e-14)

    @pytest.mark.parametrize("source,u_range", [
        (REGULATOR.format(a=4.5), (-2.0, 2.0)),
        (INVESTMENT, (-1.5, 0.9)),  # stay clear of the open face at u = 1
    ])
    def test_gradients_match_finite_differences(self, source, u_range):
        prob = parse_problem(source)
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = float(rng.uniform(0.0, 10.0))
            x = rng.uniform(0.5, 3.0, size=1)
            u = rng.uniform(*u_range, size=1)
            p = rng.uniform(-3.0, 3.0, size=1)
            hu = pontryagin_H_u(prob, t, x, u, p, 1.0)
            hx = pontryagin_H_x(prob, t, x, u, p, 1.0)
            du = 1e-6 * (1.0 + abs(u[0]))
            dx = 1e-6 * (1.0 + abs(x[0]))
            fd_u = (pontryagin_H(prob, t, x, u + du, p, 1.0)
                    - pontryagin_H(prob, t, x, u - du, p, 1.0)) / (2 * du)
            fd_x = (pontryagin_H(prob, t, x + dx, u, p, 1.0)
                    - pontryagin_H(prob, t, x - dx, u, p, 1.0)) / (2 * dx)
            assert hu[0] == pytest.approx(float(fd_u), rel=1e-5, abs=1e-7)
            assert hx[0] == pytest.approx(float(fd_x), rel=1e-5, abs=1e-7)


class TestAdjointBackward:
    def test_regulator_truncated_at_thirty(self, reg_setup):
        prob, cand, _ = reg_setup
        bwd = adjoint_backward(prob, cand, lambda0=1.0, t_end=30.0)
        # p(0) = -2(1+sqrt2); truncation at t=30 leaks back about 2e-5
        assert bwd.p[0, 0] == pytest.approx(regulator_p(0.0), rel=1e-5)
        assert bwd.route == "backward-ode"
        assert bwd.grid[-1] <= 30.0 + 1e-9

    def test_terminal_error_estimate_is_conservative(self, reg_setup):
        prob, cand, _ = reg_setup
        bwd = adjoint_backward(prob, cand, lambda0=1.0, t_end=30.0)
        actual = abs(bwd.p[0, 0] - regulator_p(0.0))
        assert bwd.terminal_error is not None
        assert bwd.terminal_error >= actual

    def test_default_horizon_is_tighter(self, reg_setup):
        prob, cand, _ = reg_setup
        bwd = adjoint_backward(prob, cand)  # t_end = 0.8 * 50 = 40
        assert abs(bwd.p[0, 0] - regulator_p(0.0)) < 1e-6

    def test_investment_start_value(self, grid):
        prob, cand, _ = investment_pieces(grid)
        bwd = adjoint_backward(prob, cand, t_end=30.0)
        # closed form p(t) = 2 e^{-t}
        assert bwd.p[0, 0] == pytest.approx(2.0, rel=1e-5)
        # the representation route reproduces it on the whole grid
        rep = adjoint_representation(prob, cand)
        assert np.max(np.abs(rep.p[:, 0] - 2.0 * np.exp(-rep.grid))) < 1e-9

    def test_rejects_terminal_time_off_grid(self, reg_setup):
        prob, cand, _ = reg_setup
        with pytest.raises(InvalidGrid):
            adjoint_backward(prob, cand, t_end=60.0)
        with pytest.raises(InvalidGrid):
            adjoint_backward(prob, cand, t_end=0.0)


class TestAdjointRepresentation:
    def test_regulator_matches_closed_form(self, reg_setup):
        prob, cand, _ = reg_setup
        rep = adjoint_representation(prob, cand)
        exact = regulator_p(rep.grid)
        rel = np.max(np.abs(rep.p[:, 0] - exact)) / np.max(np.abs(exact))
        assert rel < 1e-8
        assert rep.route == "representation"
        # remaining mass beyond t=50 for the e^{-(3+sqrt2)t} integrand
        assert 0.0 < rep.tail_error < 1e-5
        assert not rep.ill_conditioned

    def test_flat_adjoint_survives_accumulator_saturation(self, grid):
        # the running integral converges in floats long before the horizon;
        # the sub-resolution cells must not read back as zero adjoint
        prob, cand = undiscounted_pieces(grid)
        rep = adjoint_representation(prob, cand)
        assert rep.p[0, 0] == pytest.approx(-1.0, abs=1e-10)
        p_mid = float(np.interp(25.0, rep.grid, rep.p[:, 0]))
        assert p_mid == pytest.approx(-1.0, abs=1e-8)
        # near the horizon the value follows the truncation law -1 + e^{t-50}
        p45 = float(np.interp(45.0, rep.grid, rep.p[:, 0]))
        assert p45 == pytest.approx(-(1.0 - np.exp(-5.0)), rel=1e-6)
        assert rep.tail_error < 1e-12

    def test_matching_log_gradient_flat_adjoint(self, grid):
        prob = parse_problem(DISCOUNTED_LOG)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        rep = adjoint_representation(prob, cand)
        assert rep.p[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_gradient_gives_exact_zero(self):
        grid = default_grid(50.0, cells=1024)
        prob = parse_problem(EXTRACTION)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.full(np.shape(t), 0.25))
        rep = adjoint_representation(prob, cand)
        assert rep.sup_norm == 0.0
        assert adjoint_backward(prob, cand).sup_norm == 0.0

    @pytest.mark.parametrize("c", [1.0, 1e4])
    def test_weight_pole_is_resolved_by_bisection(self, c):
        # omega = t^{-0.8} e^{-t^0.2} and f_x = 2c e^{-t}: the first cell
        # [0, 1e-12] holds a sizeable share of the integrand's mass
        src = f"""
[problem]
n = 1
m = 1
x0 = 1.0

[dynamics]
phi1 = -x1 + u1

[objective]
f = {c}*x1^2 + u1^2
omega = weibull 0.2

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        cand = candidate_from_functions(
            default_grid(50.0, cells=1024), lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        # p(0) = -int_0^inf 2c e^{-2s} s^{-0.8} e^{-s^0.2} ds, with s = v^5
        exact = -c * float(mpmath.quad(lambda v: 10 * mpmath.exp(-2 * v**5 - v),
                                       [0, 1, mpmath.inf]))
        for adj in (adjoint_representation(prob, cand), adjoint_backward(prob, cand)):
            assert adj.p[0, 0] == pytest.approx(exact, rel=1e-6)

    def test_two_state_mixed_stability(self):
        # Y = diag(e^t, e^{-t}): the condition number crosses 1e12 around
        # t = 13.8, and p2(0) has the closed form -(2/5)(1 - e^{-250})
        src = """
[problem]
n = 2
m = 1
x0 = 1.0, 1.0
sense = min

[dynamics]
phi1 = x1
phi2 = -x2

[objective]
f = x2^2
omega = exp_decay 3.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        grid = default_grid(50.0, cells=1024, refine_zero=False)
        dec = lambda t: np.exp(-np.asarray(t))
        cand = candidate_from_functions(
            grid, lambda t: np.stack([dec(t), dec(t)], axis=-1),
            lambda t: np.zeros(np.shape(t) + (1,)))
        rep = adjoint_representation(prob, cand)
        assert rep.ill_conditioned
        assert any("condition number" in note for note in rep.notes)
        assert rep.p[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert rep.p[0, 1] == pytest.approx(-0.4, rel=1e-7)

    def test_divergent_running_integral_raises(self):
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = x1

[objective]
f = x1
omega = expr(1)

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        grid = default_grid(50.0, cells=512, refine_zero=False)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        with pytest.raises(DivergentTail):
            adjoint_representation(prob, cand)

    def test_overflowing_fundamental_system_raises(self):
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = 15*x1

[objective]
f = x1
omega = exp_decay 20.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        grid = default_grid(50.0, cells=512, refine_zero=False)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        with pytest.raises(IllConditioned):
            adjoint_representation(prob, cand)


class TestAdjointSolutionContainer:
    def test_one_dimensional_samples_are_promoted(self):
        g = np.linspace(0.0, 1.0, 5)
        adj = AdjointSolution(grid=g, p=np.ones(5), lambda0=1.0, route="user")
        assert adj.p.shape == (5, 1)
        assert adj.n == 1

    def test_value_uses_callable_when_present(self):
        g = np.linspace(0.0, 10.0, 11)
        adj = adjoint_from_function(g, lambda t: np.exp(-np.asarray(t)))
        # interpolation on an 11-knot grid would be off by ~1e-2 here
        assert float(adj.value(2.5)[0]) == pytest.approx(np.exp(-2.5), rel=1e-12)

    def test_value_interpolates_without_callable(self):
        g = np.linspace(0.0, 1.0, 3)
        adj = AdjointSolution(grid=g, p=np.array([0.0, 1.0, 0.0]),
                              lambda0=1.0, route="user")
        assert float(adj.value(0.25)[0]) == pytest.approx(0.5)

    def test_negative_atom_mass_rejected(self):
        g = np.linspace(0.0, 1.0, 5)
        with pytest.raises(AtomOffActiveSet, match="negative"):
            AdjointSolution(grid=g, p=np.zeros((5, 1)), lambda0=1.0,
                            route="user", measures={1: ((0.0, -0.1),)})

    def test_nontriviality(self):
        g = np.linspace(0.0, 1.0, 5)
        zero = AdjointSolution(grid=g, p=np.zeros((5, 1)), lambda0=0.0,
                               route="user")
        assert not zero.nontrivial
        atom = AdjointSolution(grid=g, p=np.zeros((5, 1)), lambda0=0.0,
                               route="user", measures={1: ((0.0, 0.5),)})
        assert atom.nontrivial


class TestAdjointResidual:
    def test_closed_form_triple_passes(self, reg_setup):
        prob, cand, adj = reg_setup
        rec = check_adjoint_residual(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-7

    def test_constant_offset_is_flagged(self, reg_setup):
        prob, cand, _ = reg_setup
        bad = adjoint_from_function(cand.grid,
                                    lambda t: regulator_p(t) + 0.01)
        rec = check_adjoint_residual(prob, cand, bad)
        assert not rec.passed
        # the offset feeds the residual through phi_x^T p: ~0.02/sup|p|
        assert 0.003 < rec.residual < 0.006

    def test_fourth_order_under_refinement(self):
        prob = regulator()
        prev = None
        for cells in (512, 1024, 2048):
            g = default_grid(50.0, cells=cells, refine_zero=False)
            rec = check_adjoint_residual(prob, regulator_candidate(g),
                                         adjoint_from_function(g, regulator_p))
            if prev is not None:
                assert prev / rec.residual > 10.0
            prev = rec.residual

    def test_trivial_multiplier_is_noted(self, reg_setup):
        prob, cand, _ = reg_setup
        zero = AdjointSolution(grid=cand.grid,
                               p=np.zeros((cand.grid.size, 1)),
                               lambda0=0.0, route="user")
        rec = check_adjoint_residual(prob, cand, zero)
        assert rec.passed  # the zero pair does solve the equation
        assert any("trivial" in note for note in rec.notes)


class TestIntegralAdjoint:
    def test_agrees_with_differential_form(self):
        # without state constraints both residuals measure the same defect
        g = default_grid(50.0, cells=4096, refine_zero=False)
        prob = regulator()
        cand = regulator_candidate(g)
        adj = adjoint_from_function(g, regulator_p)
        diff = check_adjoint_residual(prob, cand, adj)
        integ = check_integral_adjoint(prob, cand, adj)
        assert integ.passed
        assert abs(diff.residual - integ.residual) < 5e-9
        assert any("integrated form" in note for note in integ.notes)

    def test_atom_with_correct_mass_passes(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        mass = 0.3
        adj = AdjointSolution(
            grid=grid, p=regulator_p(grid)[:, None] - mass * (grid <= 0.0)[:, None],
            lambda0=1.0, route="user", measures={1: ((0.0, mass),)})
        rec = check_integral_adjoint(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-6

    def test_atom_with_wrong_mass_fails(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        adj = AdjointSolution(
            grid=grid, p=regulator_p(grid)[:, None] - 0.3 * (grid <= 0.0)[:, None],
            lambda0=1.0, route="user", measures={1: ((0.0, 0.6),)})
        rec = check_integral_adjoint(prob, cand, adj)
        assert not rec.passed
        assert rec.residual > 1e-3

    def test_atom_where_constraint_inactive_raises(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)  # g = x - 2 is active only at t=0
        adj = AdjointSolution(grid=grid, p=regulator_p(grid)[:, None],
                              lambda0=1.0, route="user",
                              measures={1: ((1.0, 0.1),)})
        with pytest.raises(AtomOffActiveSet):
            check_integral_adjoint(prob, cand, adj)

    def test_atom_with_unknown_constraint_index_raises(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        adj = AdjointSolution(grid=grid, p=regulator_p(grid)[:, None],
                              lambda0=1.0, route="user",
                              measures={3: ((0.0, 0.1),)})
        with pytest.raises(AtomOffActiveSet):
            check_integral_adjoint(prob, cand, adj)

    def test_off_grid_atom_is_snapped_with_note(self, grid):
        prob = parse_problem(CONSTRAINED)
        # hold the state at the constraint boundary so any time is active
        cand = candidate_from_functions(
            grid, lambda t: np.full(np.shape(t), 2.0),
            lambda t: np.full(np.shape(t), -4.0))
        p = np.zeros((grid.size, 1))
        t_atom = float(grid[40]) + 0.3 * float(grid[41] - grid[40])
        adj = AdjointSolution(grid=grid, p=p, lambda0=0.0, route="user",
                              measures={1: ((t_atom, 0.0),)})
        rec = check_integral_adjoint(prob, cand, adj)
        assert any("off-grid" in note for note in rec.notes)


class TestMaximumCondition:
    def test_quadratic_uses_stationary_path(self, reg_setup):
        prob, cand, adj = reg_setup
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-12
        assert any("stationary" in note for note in rec.notes)

    def test_bang_control_uses_vertex_path(self, grid):
        prob, cand = undiscounted_pieces(grid)
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert rec.residual == 0.0
        assert any("vertex" in note for note in rec.notes)

    def test_interior_control_on_bang_problem_fails(self, grid):
        prob, _ = undiscounted_pieces(grid)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(-0.5 * np.asarray(t)),
            lambda t: np.full(np.shape(t), 0.5))
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        rec = check_maximum_condition(prob, cand, adj)
        assert not rec.passed
        # H(t,x,u) = -x(1 + pu): at t=0 the gap to the u=1 vertex is
        # x(1 - 0.5)/(1 + |H*|) = 0.5/1.5
        assert rec.residual == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_log_problem_uses_golden_sampler(self, grid):
        prob, cand, adj = investment_pieces(grid)
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-12
        assert any("golden" in note for note in rec.notes)

    def test_sampler_override_skips_the_stationary_shortcut(self, reg_setup):
        prob, cand, adj = reg_setup
        rec = check_maximum_condition(prob, cand, adj, sampler="grid")
        assert rec.passed
        assert any("golden" in note for note in rec.notes)

    def test_weight_pole_knots_are_skipped(self):
        g = default_grid(50.0, cells=1024)
        prob = parse_problem(EXTRACTION)
        cand = candidate_from_functions(
            g, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.full(np.shape(t), 0.25))
        adj = adjoint_from_function(g, lambda t: np.zeros(np.shape(t)))
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert any("weight pole" in note for note in rec.notes)

    def test_unbounded_direction_raises(self, reg_setup):
        prob, cand, _ = reg_setup
        # lambda0 = 0 strips the concave running cost; H = p(2x + u) is
        # then linear in u on an unbounded box
        adj = adjoint_from_function(cand.grid,
                                    lambda t: np.ones(np.shape(t)), lambda0=0.0)
        with pytest.raises(UnboundedAbove) as err:
            check_maximum_condition(prob, cand, adj)
        assert err.value.coordinate == 0
        assert err.value.direction > 0

    @pytest.mark.parametrize("factor", [0.5, 3.0, 7.0])
    def test_gap_series_scales_with_the_multiplier(self, reg_setup, factor):
        prob, cand, adj = reg_setup
        base = check_maximum_condition(prob, cand, adj)
        scaled = AdjointSolution(grid=adj.grid, p=factor * adj.p,
                                 lambda0=factor * adj.lambda0, route="user")
        rec = check_maximum_condition(prob, cand, scaled)
        np.testing.assert_allclose(rec.series, factor * base.series,
                                   atol=1e-11)


class TestWeakInequality:
    def test_interior_optimum_passes(self, grid):
        prob, cand, adj = investment_pieces(grid)
        rec = check_weak_inequality(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-12

    def test_unbounded_faces_use_unit_excursion(self, reg_setup):
        prob, cand, adj = reg_setup
        rec = check_weak_inequality(prob, cand, adj)
        assert rec.passed
        assert any("unit excursion" in note for note in rec.notes)

    def test_wrong_candidate_fails(self, grid):
        prob, _ = undiscounted_pieces(grid)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(-0.5 * np.asarray(t)),
            lambda t: np.full(np.shape(t), 0.5))
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        rec = check_weak_inequality(prob, cand, adj)
        assert not rec.passed
        # full effort u* = 1 sits on the face that H_u points to
        _, bang = undiscounted_pieces(grid)
        assert check_weak_inequality(prob, bang, adj).residual == 0.0

    def test_nonconvex_box_is_not_applicable(self, grid):
        src = REGULATOR.format(a=4.5) + "\n[controls]\nu1 = [-9, 9]\nconvex = false\n"
        prob = parse_problem(src)
        cand = regulator_candidate(grid)
        adj = adjoint_from_function(grid, regulator_p)
        rec = check_weak_inequality(prob, cand, adj)
        assert rec.verdict == "not-applicable"
        assert rec.premise_ok is False


class TestTransversality:
    def test_regulator_passes_both_records(self, reg_setup):
        prob, cand, adj = reg_setup
        pairing, decay = check_transversality(prob, cand, adj)
        assert pairing.passed and decay.passed
        assert pairing.series is not None and decay.series is not None
        # every battery entry reports its own verdict
        labels = {w[0]: w[1] for w in pairing.witnesses}
        assert labels["candidate"] == "pass"
        assert set(labels.values()) == {"pass"}

    def test_density_too_slow_fails_both(self, grid):
        # nu = e^{-5t} decays faster than |p|^2 = c e^{-2(1+sqrt2)t}
        prob = regulator(a=5.0)
        cand = regulator_candidate(grid)
        adj = adjoint_from_function(grid, regulator_p)
        pairing, decay = check_transversality(prob, cand, adj)
        assert not pairing.passed
        assert not decay.passed

    def test_flat_adjoint_fails_decay_but_pairs_with_candidate(self, grid):
        prob, cand = undiscounted_pieces(grid)
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        pairing, decay = check_transversality(prob, cand, adj, mode="weak")
        assert not decay.passed
        assert decay.residual == pytest.approx(1.0, rel=1e-12)
        labels = {w[0]: w[1] for w in pairing.witnesses}
        # <p, x*> = -e^{-t} -> 0 even though |p| does not decay; the
        # constant trajectory is admissible here and exposes the failure
        assert labels["candidate"] == "pass"
        assert labels["constant"] == "fail"
        assert not pairing.passed

    def test_representation_route_sees_the_same_failure(self, grid):
        prob, cand = undiscounted_pieces(grid)
        rep = adjoint_representation(prob, cand)
        _, decay = check_transversality(prob, cand, rep, mode="weak")
        assert not decay.passed
        # sup |p| over the last window, under the truncation law
        assert decay.residual == pytest.approx(1.0 - np.exp(-5.0), rel=1e-3)

    def test_user_test_function_joins_the_battery(self, reg_setup):
        prob, cand, adj = reg_setup
        # outpaces the e^{-(1+sqrt2)t} adjoint, so the pairing grows
        growing = ("runaway", lambda ts: np.exp(
            2.6 * np.asarray(ts, dtype=float))[..., None])
        pairing, _ = check_transversality(prob, cand, adj,
                                          test_functions=[growing])
        labels = {w[0]: w[1] for w in pairing.witnesses}
        assert labels["runaway"] == "fail"
        assert not pairing.passed

    def test_weak_mode_reports_square_refinement(self, grid):
        prob, cand = undiscounted_pieces(grid)
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        _, decay = check_transversality(prob, cand, adj, mode="weak")
        assert any("p=2 refinement" in note for note in decay.notes)


class TestMichel:
    def test_weight_ratio_premise_fails_gracefully(self, reg_setup):
        # w^2/nu = e^{-4t}/e^{-4.5t} grows, so the condition asserts nothing
        prob, cand, adj = reg_setup
        rec = check_michel(prob, cand, adj)
        assert rec.verdict == "not-applicable"
        assert rec.premise_ok is False
        assert any("does vanish" in note for note in rec.notes)

    def test_premise_holds_and_h_vanishes(self, grid):
        prob = regulator(a=3.9)
        cand = regulator_candidate(grid)
        adj = adjoint_from_function(grid, regulator_p)
        rec = check_michel(prob, cand, adj)
        assert rec.passed
        assert rec.premise_ok is True

    def test_investment_passes(self, grid):
        prob, cand, adj = investment_pieces(grid)
        rec = check_michel(prob, cand, adj)
        assert rec.passed
        # <p, x*> = 2 e^{-t/2} and |p|^2/nu = 4 e^{-3t/2} both vanish
        pairing, decay = check_transversality(prob, cand, adj)
        assert pairing.passed and decay.passed

    def test_constraint_problem_uses_first_power(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        adj = adjoint_from_function(grid, regulator_p)
        rec = check_michel(prob, cand, adj)
        assert "w/nu" in rec.premise

    def test_weak_mode_adds_control_decay_premise(self, grid):
        prob, cand = undiscounted_pieces(grid)
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        rec = check_michel(prob, cand, adj, mode="weak")
        assert "nu*|u*|^2" in rec.premise
        # w^2/nu = e^t grows, so the condition asserts nothing here
        assert rec.verdict == "not-applicable"


class TestNormality:
    def test_regulator_flow_is_stable_enough(self, reg_setup):
        prob, cand, _ = reg_setup
        rec = check_normality(prob, cand)
        assert rec.passed
        # open-loop deviations under the frozen control grow like e^{2t},
        # so the fitted envelope rate is -2
        assert any("rate c=-2" in note for note in rec.notes)

    def test_density_below_the_threshold_fails(self, grid):
        # e^{4t} deviation growth is not square-integrable against e^{-3.9t}
        prob = regulator(a=3.9)
        rec = check_normality(prob, regulator_candidate(grid))
        assert not rec.passed

    def test_zero_radius_is_vacuous(self, reg_setup):
        prob, cand, _ = reg_setup
        rec = check_normality(prob, cand, delta=0.0)
        assert rec.passed
        assert any("vacuous" in note for note in rec.notes)

    def test_finite_escape_fails_with_witness(self):
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = x1^2

[objective]
f = x1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        g = default_grid(10.0, cells=256, refine_zero=False)
        cand = candidate_from_functions(
            g, lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        rec = check_normality(prob, cand, blowup=1e50)
        assert not rec.passed
        assert rec.witnesses

    def test_negative_radius_rejected(self, reg_setup):
        prob, cand, _ = reg_setup
        with pytest.raises(ValueError):
            check_normality(prob, cand, delta=-1.0)


class TestCertificate:
    def test_regulator_full_pass(self, reg_setup):
        prob, cand, _ = reg_setup
        cert = verify_certificate(prob, cand, include_sufficiency=False)
        assert cert.overall == "pass"
        assert cert.nontrivial
        assert cert.audit.all_ok
        assert cert.route_agreement < 1e-6
        names = [c.name for c in cert.conditions]
        assert names == ["adjoint_residual", "integral_adjoint_residual",
                         "maximum_condition", "weak_inequality",
                         "transversality_pairing", "transversality_decay",
                         "michel", "normality_representation"]
        assert cert.condition("michel").verdict == "not-applicable"

    def test_matching_log_gradient_is_diagnosed(self, grid):
        prob = parse_problem(DISCOUNTED_LOG)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        cert = verify_certificate(prob, cand, mode="weak",
                                  include_sufficiency=False)
        assert cert.overall == "assumptions-violated"
        assert cert.audit.verdicts["B2"] == "fail"
        assert cert.condition("transversality_decay").verdict == "fail"
        assert cert.condition("maximum_condition").verdict == "not-applicable"

    def test_zero_gradient_game_candidate_passes(self):
        g = default_grid(50.0, cells=1024)
        prob = parse_problem(EXTRACTION)
        cand = candidate_from_functions(
            g, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.full(np.shape(t), 0.25))
        cert = verify_certificate(prob, cand, include_sufficiency=False)
        assert cert.overall == "pass"
        assert cert.condition("maximum_condition").passed

    def test_trivial_multiplier_cannot_pass(self, reg_setup):
        prob, cand, _ = reg_setup
        cert = verify_certificate(prob, cand, lambda0=0.0,
                                  include_sufficiency=False)
        assert not cert.nontrivial
        assert cert.overall == "fail"
        assert any("trivial" in note for note in cert.notes)
        assert any("representation route skipped" in n for n in cert.notes)
        assert cert.route_agreement is None

    def test_unsupported_atoms_fail_the_integral_form(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        cert = verify_certificate(prob, cand, measures={1: ((0.0, 0.3),)},
                                  include_sufficiency=False)
        # the routes integrate the measure-free equation; claiming an atom
        # they never produced must surface as an integral-form defect
        assert cert.condition("integral_adjoint_residual").verdict == "fail"
        assert cert.overall == "fail"

    def test_both_routes_failing_names_both_causes(self):
        # phi_x = 30: Z^{-1} overflows near t = 22 and the backward adjoint
        # grows like e^{30 s} in reverse time
        src = """
[problem]
n = 1
m = 1
x0 = 1.0

[dynamics]
phi1 = 30*x1 + u1

[objective]
f = x1^2 + u1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        g = default_grid(25.0, cells=64, refine_zero=False)
        cand = candidate_from_functions(
            g, lambda t: np.exp(-np.asarray(t)),
            lambda t: -31.0 * np.exp(-np.asarray(t)))
        with pytest.raises(BlowUp) as err:
            verify_certificate(prob, cand, include_sufficiency=False)
        assert err.value.bound == 1e12
        assert err.value.norm > err.value.bound
        # reported in forward time: the adjoint escapes near t = 17.6
        assert 17.0 < err.value.t < 20.0
        assert isinstance(err.value.__cause__, IllConditioned)
        assert "backward route" in str(err.value)
        assert "fundamental system overflows" in str(err.value)

    def test_mode_validation(self, reg_setup):
        prob, cand, _ = reg_setup
        with pytest.raises(ValueError, match="mode"):
            verify_certificate(prob, cand, mode="medium")

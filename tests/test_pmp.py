"""Adjoint routes, the running-function conditions, and full certificates."""

import dataclasses
import re
import tracemalloc
import warnings
from collections.abc import Mapping

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pmpcheck import integrate, pmp
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
    check_adjoint,
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
from pmpcheck.problem import (CandidateProcess, DimensionMismatch, audit_assumptions,
                              candidate_from_functions, parse_problem)
from pmpcheck.sufficiency import check_arrow, hamiltonian_sup

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

# One unstable and one stable state, uncoupled.
TWO_STATE = """
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

CONSTRAINED = REGULATOR.format(a=4.5) + """
[constraints]
g1 = x1 - 2
"""

# Two controls entering a separable concave Hamiltonian on the unit box:
# H = -w((u1 - 0.3)^2 + (u2 - 2)^2 + x^2) + p(u1 + u2 - x) with w = e^{-t}
# peaks at u1 = 0.3 + p/(2w) (interior while |p| < 0.6w) and on the face
# u2 = 1, since 2 + p/(2w) > 1 there.
TWO_CONTROLS = """
[problem]
n = 1
m = 2
x0 = 1.0
sense = min

[dynamics]
phi1 = u1 + u2 - x1

[objective]
f = (u1 - 0.3)^2 + (u2 - 2)^2 + x1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, 1]
u2 = [0, 1]
"""


def two_controls_sup(t, x, p):
    """Closed-form maximizer and sup of H for TWO_CONTROLS."""
    w = np.exp(-t)
    u1 = np.clip(0.3 + p / (2.0 * w), 0.0, 1.0)
    h = -w * ((u1 - 0.3) ** 2 + 1.0 + x ** 2) + p * (u1 + 1.0 - x)
    return u1, h


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


def extraction_candidate(grid):
    """EXTRACTION's optimal process from x0 = 1: u* = 1/4."""
    return candidate_from_functions(
        grid, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
        lambda t: np.full(np.shape(t), 0.25))


def undiscounted_pieces(grid):
    prob = parse_problem(UNDISCOUNTED)
    cand = candidate_from_functions(
        grid, lambda t: np.exp(-np.asarray(t)),
        lambda t: np.full(np.shape(t), 1.0))
    return prob, cand


def interior_bang_pieces(grid):
    """UNDISCOUNTED with the interior control u = 1/2 and p = -1."""
    prob = parse_problem(UNDISCOUNTED)
    cand = candidate_from_functions(
        grid, lambda t: np.exp(-0.5 * np.asarray(t)),
        lambda t: np.full(np.shape(t), 0.5))
    adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
    return prob, cand, adj


def first_escape(P, q, y0, limit):
    """First knot of the plain loop y_{k+1} = P_k y_k + q_k whose largest
    entry exceeds ``limit`` (or is NaN), and that entry."""
    y = y0
    for k, (Pk, qk) in enumerate(zip(P, q)):
        y = Pk @ y + qk
        norm = float(np.max(np.abs(y)))
        if not norm <= limit:
            return k + 1, norm
    raise AssertionError("the loop never escapes")


def flow_and_offsets(prob, cand):
    """The fundamental matrix of the variational equation at every knot of
    the candidate grid, and the offsets of the adjoint cell maps, composed
    as ``verify_certificate`` composes them."""
    P, q = pmp._adjoint_cell_maps(prob, cand)
    return integrate._affine_chain(np.swapaxes(P, 1, 2), np.zeros_like(q), np.eye(prob.n)), q


def representation(prob, cand):
    """The representation route read off the candidate grid's cell maps."""
    return adjoint_representation(cand.grid, *flow_and_offsets(prob, cand))


def normality(prob, cand):
    """The normality probe, started from the candidate's variational flow."""
    return check_normality(prob, cand, flow_and_offsets(prob, cand)[0])


def backward(prob, cand):
    """The backward route read off the candidate grid's cell maps."""
    return adjoint_backward(cand.grid, *pmp._adjoint_cell_maps(prob, cand), 1.0)


def backward_to(prob, cand, knot):
    """The backward route on the prefix of the maps that ends at ``knot``:
    its terminal knot is the last one at or before 80% of that time."""
    P, q = pmp._adjoint_cell_maps(prob, cand)
    return adjoint_backward(cand.grid[: knot + 1], P[:knot], q[:knot], 1.0)


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
    # knot 1536 of the 2048-cell grid is t = 37.5, and 80% of that is 30
    def test_regulator_truncated_at_thirty(self, reg_setup):
        prob, cand, _ = reg_setup
        bwd = backward_to(prob, cand, 1536)
        # p(0) = -2(1+sqrt2); truncation at t=30 leaks back about 2e-5
        assert bwd.p[0, 0] == pytest.approx(regulator_p(0.0), rel=1e-5)
        assert bwd.route == "backward-ode"
        assert bwd.grid[-1] <= 30.0 + 1e-9

    def test_terminal_error_estimate_is_conservative(self, reg_setup):
        prob, cand, _ = reg_setup
        bwd = backward_to(prob, cand, 1536)
        actual = abs(bwd.p[0, 0] - regulator_p(0.0))
        assert bwd.terminal_error is not None
        assert bwd.terminal_error >= actual

    def test_default_horizon_is_tighter(self, reg_setup):
        prob, cand, _ = reg_setup
        bwd = backward(prob, cand)  # terminal knot at 0.8 * 50 = 40
        assert abs(bwd.p[0, 0] - regulator_p(0.0)) < 1e-6

    def test_investment_start_value(self, grid):
        prob, cand, _ = investment_pieces(grid)
        bwd = backward_to(prob, cand, 1536)
        # closed form p(t) = 2 e^{-t}
        assert bwd.p[0, 0] == pytest.approx(2.0, rel=1e-5)
        # the representation route reproduces it on the whole grid
        rep = representation(prob, cand)
        assert np.max(np.abs(rep.p[:, 0] - 2.0 * np.exp(-rep.grid))) < 1e-9


class TestAdjointRepresentation:
    def test_regulator_matches_closed_form(self, reg_setup):
        prob, cand, _ = reg_setup
        rep = representation(prob, cand)
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
        rep = representation(prob, cand)
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
        rep = representation(prob, cand)
        assert rep.p[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_gradient_gives_exact_zero(self):
        grid = default_grid(50.0, cells=1024)
        prob = parse_problem(EXTRACTION)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.full(np.shape(t), 0.25))
        rep = representation(prob, cand)
        assert rep.sup_norm == 0.0
        assert backward(prob, cand).sup_norm == 0.0

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
        for adj in (representation(prob, cand), backward(prob, cand)):
            assert adj.p[0, 0] == pytest.approx(exact, rel=1e-6)

    def test_two_state_mixed_stability(self):
        # Y = diag(e^t, e^{-t}): the condition number crosses 1e12 around
        # t = 13.8, and p2(0) has the closed form -(2/5)(1 - e^{-250})
        prob = parse_problem(TWO_STATE)
        grid = default_grid(50.0, cells=1024, refine_zero=False)
        dec = lambda t: np.exp(-np.asarray(t))
        cand = candidate_from_functions(
            grid, lambda t: np.stack([dec(t), dec(t)], axis=-1),
            lambda t: np.zeros(np.shape(t) + (1,)))
        rep = representation(prob, cand)
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
            representation(prob, cand)

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
            representation(prob, cand)


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

    def test_misshaped_samples_are_rejected(self):
        # samples shaped (K, 1, 1) used to be stored as they came: the
        # transversality pairing then read broadcast values and passed, and
        # the adjoint residual crashed on a numpy broadcast error
        g = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DimensionMismatch, match=re.escape(
                "adjoint samples have shape (5, 1, 1); expected (5,) or (5, n)")):
            adjoint_from_function(g, lambda t: np.exp(-t)[:, None, None])

    def test_misshaped_closed_form_is_rejected(self):
        g = np.linspace(0.0, 1.0, 5)
        adj = AdjointSolution(grid=g, p=np.ones(5), lambda0=1.0, route="user",
                              p_callable=lambda t: np.ones(np.shape(t) + (1, 1)))
        with pytest.raises(DimensionMismatch, match=re.escape(
                "p_callable returned shape (3, 1, 1) for times shaped (3,)")):
            adj.value(np.array([0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("check", [
        check_adjoint,
        # the integral form reads the measure atoms; an atom on the regulator,
        # which has no state constraints, must not be read before the width
        pytest.param(lambda prob, cand, adj: check_adjoint(
            prob, cand, dataclasses.replace(adj, measures={1: ((1.0, 0.1),)})),
            id="check_integral_form_with_an_atom"),
        check_maximum_condition, check_weak_inequality,
        check_transversality, check_michel, check_arrow])
    def test_an_adjoint_of_the_wrong_width_is_rejected(self, check):
        # regulator, n = 1, with an adjoint shaped (K, 2): three checks read
        # false fails through broadcasting, transversality passed and the
        # integral form of the adjoint crashed on a numpy concatenation error
        g = default_grid(50.0, cells=256, refine_zero=False)
        wide = adjoint_from_function(g, lambda t: np.stack([regulator_p(t)] * 2, axis=-1))
        assert wide.n == 2
        with pytest.raises(DimensionMismatch, match=re.escape(
                "adjoint has 2 components, but the problem has n=1 states")):
            check(regulator(), regulator_candidate(g), wide)

    @pytest.mark.parametrize("column", ["x", "u"])
    def test_a_candidate_of_the_wrong_width_is_rejected(self, column):
        # regulator, n = m = 1, 256 cells: two state columns read
        # assumptions-violated with A1 fail, and two control columns
        # stopped in a numpy broadcasting error
        g = default_grid(50.0, cells=256, refine_zero=False)
        exact = regulator_candidate(g)
        wide = {"x": exact.x, "u": exact.u}
        wide[column] = np.hstack([wide[column]] * 2)
        cand = CandidateProcess(grid=g, **wide)
        adj = adjoint_from_function(g, regulator_p)
        message = {
            "x": "candidate has 2 state columns, but the problem has n=1 states",
            "u": "candidate has 2 control columns, but the problem has m=1 controls",
        }[column]
        for run in (lambda: verify_certificate(regulator(), cand),
                    lambda: check_normality(regulator(), cand, flow_and_offsets(
                        regulator(), regulator_candidate(g))[0]),
                    lambda: check_adjoint(regulator(), cand, adj)):
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                run()

    def test_samples_must_match_the_grid(self):
        g = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DimensionMismatch, match=re.escape(
                "adjoint samples have shape (4,); expected (5,) or (5, n)")):
            AdjointSolution(grid=g, p=np.ones(4), lambda0=1.0, route="user")

    def test_negative_lambda0_is_refused(self):
        g = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=re.escape("lambda0 must be nonnegative, got -0.5")):
            AdjointSolution(grid=g, p=np.ones(5), lambda0=-0.5, route="user")

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
        rec, _ = check_adjoint(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-7

    def test_constant_offset_is_flagged(self, reg_setup):
        prob, cand, _ = reg_setup
        bad = adjoint_from_function(cand.grid,
                                    lambda t: regulator_p(t) + 0.01)
        rec, _ = check_adjoint(prob, cand, bad)
        assert not rec.passed
        # the offset feeds the residual through phi_x^T p: ~0.02/sup|p|
        assert 0.003 < rec.residual < 0.006

    def test_fourth_order_under_refinement(self):
        prob = regulator()
        prev = None
        for cells in (512, 1024, 2048):
            g = default_grid(50.0, cells=cells, refine_zero=False)
            rec, _ = check_adjoint(prob, regulator_candidate(g),
                                   adjoint_from_function(g, regulator_p))
            if prev is not None:
                assert prev / rec.residual > 10.0
            prev = rec.residual

    def test_micro_cells_read_roundoff_as_exact(self):
        # phi1 = -x1, f = x1^2: x = e^{-t}, u = 0 and p = -(2/3) e^{-2t} solve
        # the adjoint equation exactly.  Cells 1e-12 wide near t = 0 turn the
        # roundoff of dp into 1e-4 once divided by the width
        src = DISCOUNTED_LOG.replace("u1 - x1", "-x1").replace("ln(x1)", "x1^2")
        prob = parse_problem(src)
        body = np.linspace(2.56e-10, 50.0, 2049)
        for g in (np.concatenate(([0.0], 1e-12 * 2.0 ** np.arange(8), body)),
                  np.linspace(0.0, 50.0, 2049)):
            cand = candidate_from_functions(g, lambda t: np.exp(-np.asarray(t)),
                                            lambda t: np.zeros(np.shape(t)))
            adj = adjoint_from_function(g, lambda t: -2.0 / 3.0 * np.exp(-2.0 * t))
            rec, integ = check_adjoint(prob, cand, adj)
            assert rec.passed and rec.residual < 1e-8
            assert rec.witnesses[0][0] > 1e-3  # the body's truncation error
            assert integ.residual < 1e-8

    def test_trivial_multiplier_is_noted(self, reg_setup):
        prob, cand, _ = reg_setup
        zero = AdjointSolution(grid=cand.grid,
                               p=np.zeros((cand.grid.size, 1)),
                               lambda0=0.0, route="user")
        rec, _ = check_adjoint(prob, cand, zero)
        assert rec.passed  # the zero pair does solve the equation
        assert any("trivial" in note for note in rec.notes)


class TestIntegralAdjoint:
    def test_agrees_with_differential_form(self):
        # without state constraints both residuals measure the same defect
        g = default_grid(50.0, cells=4096, refine_zero=False)
        prob = regulator()
        cand = regulator_candidate(g)
        adj = adjoint_from_function(g, regulator_p)
        diff, integ = check_adjoint(prob, cand, adj)
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
        diff, rec = check_adjoint(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-6
        # the differential form opens the first cell at the right limit
        # p + mass too; opened at the stored left limit, it read the jump
        # as a defect of 2.34
        assert diff.passed and diff.residual < 1e-7

    def test_atom_with_wrong_mass_fails(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        adj = AdjointSolution(
            grid=grid, p=regulator_p(grid)[:, None] - 0.3 * (grid <= 0.0)[:, None],
            lambda0=1.0, route="user", measures={1: ((0.0, 0.6),)})
        diff, rec = check_adjoint(prob, cand, adj)
        assert not rec.passed
        assert rec.residual > 1e-3
        assert not diff.passed and diff.residual > 1.0
        assert diff.witnesses[0][0] == pytest.approx(0.5 * grid[1])  # the first cell

    def test_atom_where_constraint_inactive_raises(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)  # g = x - 2 is active only at t=0
        adj = AdjointSolution(grid=grid, p=regulator_p(grid)[:, None],
                              lambda0=1.0, route="user",
                              measures={1: ((1.0, 0.1),)})
        with pytest.raises(AtomOffActiveSet):
            check_adjoint(prob, cand, adj)

    def test_atom_with_unknown_constraint_index_raises(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        adj = AdjointSolution(grid=grid, p=regulator_p(grid)[:, None],
                              lambda0=1.0, route="user",
                              measures={3: ((0.0, 0.1),)})
        with pytest.raises(AtomOffActiveSet):
            check_adjoint(prob, cand, adj)

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
        diff, rec = check_adjoint(prob, cand, adj)
        assert any("off-grid" in note for note in rec.notes)
        assert any("off-grid" in note for note in diff.notes)


class TestMaximumCondition:
    def test_quadratic_control_uses_closed_form(self, reg_setup):
        prob, cand, adj = reg_setup
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-12
        assert "inner maximization: u1 closed form" in rec.notes

    def test_bang_control_uses_closed_form(self, grid):
        prob, cand = undiscounted_pieces(grid)
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert rec.residual == 0.0
        assert "inner maximization: u1 closed form" in rec.notes

    def test_interior_control_on_bang_problem_fails(self, grid):
        rec = check_maximum_condition(*interior_bang_pieces(grid))
        assert not rec.passed
        # H(t,x,u) = -x(1 + pu): at t=0 the gap to the u=1 vertex is
        # x(1 - 0.5)/(1 + |H*|) = 0.5/1.5
        assert rec.residual == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_log_problem_uses_sampled_search(self, grid):
        prob, cand, adj = investment_pieces(grid)
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.passed
        assert rec.residual < 1e-12
        assert "inner maximization: u1 sampled" in rec.notes

    def test_golden_sampler_alone_closes_the_regulator_gap(self, reg_setup):
        # the closed form settles this problem in check_maximum_condition;
        # the sampled search must reach the same maximum on its own
        prob, cand, adj = reg_setup
        ts = adj.grid
        xs, us, ps = cand.state(ts), cand.control(ts), adj.p
        w = np.asarray(prob.omega(ts), dtype=float)
        h_star = pontryagin_H(prob, ts, xs, us, ps, 1.0)
        tol = 1e-8
        _, h_best = pmp._sampled_max(prob, w, ts, xs, ps, 1.0, us.copy(), 0,
                                     h_star + tol * np.abs(h_star))
        gaps = h_best - h_star
        assert np.all(gaps >= 0.0)
        assert np.all(gaps <= tol * (1.0 + np.abs(h_star)))

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

    def test_unbounded_direction_fails_with_the_escape_record(self, reg_setup):
        prob, cand, _ = reg_setup
        # lambda0 = 0 strips the concave running cost; H = p(2x + u) is
        # then linear in u on an unbounded box, so it has no maximum and
        # the check reports the escape as the certificate does: a failed
        # record whose witness is (t, coordinate, direction)
        adj = adjoint_from_function(cand.grid,
                                    lambda t: np.ones(np.shape(t)), lambda0=0.0)
        rec = check_maximum_condition(prob, cand, adj)
        assert rec.name == "maximum_condition"
        assert rec.verdict == "fail"
        assert rec.residual == np.inf and rec.tolerance == pmp._TOL_GAP
        assert rec.witnesses == ((0.0, 1, +1),)
        assert rec.notes == (str(UnboundedAbove(0.0, 0, +1)),)

    @pytest.mark.parametrize("problem,factor", [
        *(pytest.param("regulator", f, id=f"{f}") for f in (0.5, 3.0, 7.0)),
        # H = -x(1 + pu) is linear in u, so a slope floor in absolute units
        # would keep the control at 1/2 once the multiplier is small
        *(pytest.param("bang", f, id=f"bang-{f:g}") for f in (1e-14, 0.5, 1e6)),
    ])
    def test_gap_series_scales_with_the_multiplier(self, reg_setup, grid,
                                                   problem, factor):
        prob, cand, adj = reg_setup if problem == "regulator" else interior_bang_pieces(grid)
        base = check_maximum_condition(prob, cand, adj)
        scaled = AdjointSolution(grid=adj.grid, p=factor * adj.p,
                                 lambda0=factor * adj.lambda0, route="user")
        rec = check_maximum_condition(prob, cand, scaled)
        if problem == "regulator":  # gaps at roundoff
            np.testing.assert_allclose(rec.series, factor * base.series,
                                       atol=1e-11)
        else:
            assert np.all(base.series > 0)
            np.testing.assert_allclose(rec.series, factor * base.series,
                                       rtol=1e-12, atol=0.0)
            assert rec.witnesses[0][2] == (1.0,)

    def test_control_on_the_closed_face_still_sees_the_interior_peak(self):
        # u = 0 on the face of [0, inf) used to collapse all probes below the
        # control onto the face, so the bracket [0, 0] hid the peak at 1/4
        g = default_grid(50.0, cells=256, refine_zero=False)
        prob = parse_problem(EXTRACTION)
        cand = candidate_from_functions(
            g, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.zeros(np.shape(t)))
        adj = adjoint_from_function(g, lambda t: np.zeros(np.shape(t)))
        rec = check_maximum_condition(prob, cand, adj)
        # with p = 0, H = w (u/(u + 1/4) - u) rises from 0 to w/4 at u = 1/4
        quarter = 0.25 * prob.omega(g[1:])
        np.testing.assert_allclose(rec.series, quarter, rtol=1e-15)
        assert rec.verdict == "fail"
        assert rec.residual == pytest.approx(np.max(quarter), rel=1e-15)
        assert rec.witnesses[0][2] == (pytest.approx(0.25, abs=1e-12),)
        assert hamiltonian_sup(prob, 1.0, [1.0], [0.0]) == pytest.approx(
            0.25 * prob.omega(1.0), rel=1e-15)

    def test_two_controls_take_two_sweeps(self):
        g = default_grid(20.0, cells=256, refine_zero=False)
        prob = parse_problem(TWO_CONTROLS)
        x_fn = lambda t: np.exp(-0.5 * np.asarray(t))
        p_fn = lambda t: 0.4 * np.exp(-np.asarray(t)) * np.sin(np.asarray(t))
        cand = candidate_from_functions(g, x_fn,
                                        lambda t: np.full((np.size(t), 2), 0.5))
        adj = adjoint_from_function(g, p_fn)
        rec = check_maximum_condition(prob, cand, adj)
        assert "inner maximization: u1 closed form, u2 closed form" in rec.notes
        x, p = x_fn(g), p_fn(g)
        _, h_sup = two_controls_sup(g, x, p)
        h_cand = pontryagin_H(prob, g, x[:, None], cand.u, p[:, None], 1.0)
        bound = 1e-15 * (1.0 + np.abs(h_sup))
        assert np.all(np.abs(rec.series + h_cand - h_sup) <= bound)
        assert rec.verdict == "fail"  # (1/2, 1/2) is off the maximizer
        h = hamiltonian_sup(prob, g, x[:, None], p[:, None])
        assert np.all(np.abs(h - h_sup) <= bound)
        # the maximizer itself has no gap
        u1, _ = two_controls_sup(g, x, p)
        opt = CandidateProcess(grid=g, x=x[:, None],
                               u=np.stack([u1, np.ones_like(g)], axis=-1))
        assert check_maximum_condition(prob, opt, adj).residual < 1e-12


class TestGoldenSection:
    """The golden-section refinement behind every sampled control search."""

    @staticmethod
    def investment_points(k=64, seed=0):
        # H = w ln((1 - u) x) + p u x peaks at u = 1 - w/(p x); drawing
        # w/(p x) from [0.05, 2] puts the peak inside [-3, 0.999]
        prob = parse_problem(INVESTMENT)
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.0, 10.0, k)
        xs = rng.uniform(0.5, 3.0, (k, 1))
        w = np.exp(-0.5 * ts)
        ps = (w / (xs[:, 0] * rng.uniform(0.05, 2.0, k)))[:, None]
        return prob, w, ts, xs, ps

    @pytest.mark.parametrize("iters", [10, 60])
    def test_one_hamiltonian_evaluation_per_step(self, monkeypatch, iters):
        prob, w, ts, xs, ps = self.investment_points()
        calls = []
        original = pmp._hamiltonian

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pmp, "_hamiltonian", counted)
        u = np.zeros((ts.size, 1))
        pmp._golden_max(prob, w, ts, xs, ps, 1.0, u, 0, np.full(ts.size, -3.0),
                        np.full(ts.size, 0.999), iters=iters)
        # the first interior point, one per step, and the midpoint
        assert len(calls) == iters + 2

    def test_maximizer_matches_bounded_brent(self):
        prob, w, ts, xs, ps = self.investment_points()
        a, b = np.full(ts.size, -3.0), np.full(ts.size, 0.999)
        u = np.zeros((ts.size, 1))
        u_max, h_max = pmp._golden_max(prob, w, ts, xs, ps, 1.0, u, 0, a, b)
        assert np.all((a <= u_max) & (u_max <= b))
        for k in range(ts.size):
            h = lambda v: float(pmp._hamiltonian(
                prob, w[k], ts[k], xs[k], np.array([v]), ps[k], 1.0))
            ref = minimize_scalar(lambda v: -h(v), bounds=(a[k], b[k]),
                                  method="bounded", options={"xatol": 1e-12})
            assert ref.success
            assert u_max[k] == pytest.approx(ref.x, abs=1e-6)
            assert h_max[k] >= -ref.fun - 1e-14 * (1.0 + abs(ref.fun))
        # both sit on the closed-form peak
        np.testing.assert_allclose(u_max, 1.0 - w / (ps[:, 0] * xs[:, 0]),
                                   atol=1e-6)

    def test_blocks_of_knots_change_no_value(self, monkeypatch):
        prob, w, ts, xs, ps = self.investment_points(k=200, seed=1)
        u_peak = 1.0 - w / (ps[:, 0] * xs[:, 0])
        h_peak = pontryagin_H(prob, ts, xs, u_peak[:, None], ps, 1.0)
        monkeypatch.setattr(pmp, "_BLOCK", 16)
        blocked = hamiltonian_sup(prob, ts, xs, ps)
        assert np.all(np.abs(blocked - h_peak) <= 1e-12 * (1.0 + np.abs(h_peak)))
        monkeypatch.undo()
        np.testing.assert_array_equal(hamiltonian_sup(prob, ts, xs, ps), blocked)

    def test_search_holds_one_block_of_probes(self):
        # extraction's [0, inf) box has 26 probe columns per knot.  A search
        # holds them for one block of knots only, and no probe-by-knot H
        # matrix or stacked copy of them: either of those, or columns for
        # all 50,000 knots at once, would break the bound below
        prob = parse_problem(EXTRACTION)
        n = 50_000
        t = np.linspace(0.1, 40.0, n)
        x = np.exp(0.5 * (1.0 - np.exp(-t)))[:, None]
        p = np.zeros((n, 1))
        hamiltonian_sup(prob, t[:8], x[:8], p[:8])  # compile outside the trace
        tracemalloc.start()
        try:
            hamiltonian_sup(prob, t, x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 26 * n * 8

    def test_arrow_scan_holds_one_block_of_tube_points(self, reg_setup):
        # the concavity proof takes every regulator slice, so the check holds
        # the Hessian enclosures and one center search per knot, about 55
        # floats; the sampled scan of 164 distinct tube points per knot
        # would hold more than one float per point
        prob, cand, adj = reg_setup
        points = 164 * cand.grid.size
        check_arrow(prob, cand, adj)  # compile outside the trace
        tracemalloc.start()
        try:
            rep = check_arrow(prob, cand, adj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(note.startswith(f"{cand.grid.size} slice(s) proved") for note in rep.notes)
        assert peak < points * 8

    def test_search_holds_one_copy_of_the_starts(self, monkeypatch):
        # the sampled Arrow scan of TWO_PEAKS at 2048 cells, which the
        # concavity proof does not take: 164 tube points per knot.  Beside
        # the caller's arrays a search holds omega, H, its floor and one
        # projected copy of the starts, the array it searches in: four
        # floats per point.  The search of one block of knots adds the
        # block's control column, while the last block's new column, H
        # values and mask are still bound: under five floats per knot of
        # a block
        prob = parse_problem(TWO_PEAKS)
        g = default_grid(50.0, cells=2048, refine_zero=False)
        t = np.repeat(g, 164)
        x = np.exp(-t)[:, None] * np.tile(np.linspace(0.9, 1.1, 164), g.size)[:, None]
        p = np.zeros_like(x)
        u = np.full_like(x, 0.49)
        hamiltonian_sup(prob, t[:8], x[:8], p[:8], u_start=u[:8])  # compile outside the trace
        search, live = pmp._sampled_max, []

        def recorded(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return search(*args)

        monkeypatch.setattr(pmp, "_sampled_max", recorded)
        tracemalloc.start()
        try:
            hamiltonian_sup(prob, t, x, p, u_start=u)
        finally:
            tracemalloc.stop()
        assert len(live) > 1 and max(live) < 8 * (4 * t.size + 5 * pmp._BLOCK)


def golden_only(monkeypatch):
    """Send every sampled search to golden section, the reference for Newton."""
    def golden(prob, w, ts, xs, ps, lam, u, i, a, b, u_pre):
        return pmp._golden_max(prob, w, ts, xs, ps, lam, u, i, a, b)

    monkeypatch.setattr(pmp, "_newton_max", golden)


# Minimize ((u - 1/2)^2 - 1e-4)^2: H = -w f has two peaks at u = 1/2 +- 1/100
# and a local minimum at the probe u = 1/2, which still beats its probe
# neighbours 1/2 +- 1/32
TWO_PEAKS = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = u1 - x1

[objective]
f = ((u1 - 0.5)^2 - 0.0001)^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, 1]
"""

# H = w (sqrt(u) - x u) + p (u - x) peaks at u = 1/(4 x^2) for p = 0, so
# for large x the best probe is the face u = 0, where f_u is undefined
SQRT_FACE = TWO_PEAKS.replace("((u1 - 0.5)^2 - 0.0001)^2", "x1*u1 - sqrt(u1)")

# H = -w |u - 0.3| + p (u - x) peaks at the kink u = 0.3 while |p| < w.
# abs differentiates to sign and sign to 0, so H_uu = 0 although H is not
# linear in u
ABS_KINK = TWO_PEAKS.replace("((u1 - 0.5)^2 - 0.0001)^2", "abs(u1 - 0.3)")


class TestControlClassification:
    """Which control coordinates the search solves in closed form."""

    @pytest.mark.parametrize("src,quadratic", [
        pytest.param(REGULATOR.format(a=4.5), (True,), id="regulator"),
        pytest.param(CONSTRAINED, (True,), id="constrained"),
        pytest.param(REGULATOR.format(a=4.5).replace(  # as in test_sufficiency
            "f = 0.5*(x1^2 + u1^2)", "f = 0.5*(u1^2 - x1^2)"), (True,), id="antiregulator"),
        pytest.param(UNDISCOUNTED, (True,), id="undiscounted"),
        pytest.param(DISCOUNTED_LOG, (True,), id="discounted_log"),
        pytest.param(TWO_CONTROLS, (True, True), id="two_controls"),
        pytest.param(INVESTMENT, (False,), id="investment"),
        pytest.param(EXTRACTION, (False,), id="extraction"),
        pytest.param(TWO_PEAKS, (False,), id="two_peaks"),
        pytest.param(SQRT_FACE, (False,), id="sqrt_face"),
        pytest.param(ABS_KINK, (False,), id="abs_kink"),
    ])
    def test_table(self, src, quadratic):
        prob = parse_problem(src)
        assert prob.u_quadratic == quadratic
        # independent check: along a coordinate where H is at most quadratic
        # the third difference vanishes up to roundoff, at any multiplier
        rng = np.random.default_rng(7)
        k, step = 400, 0.1
        ts = rng.uniform(0.1, 10.0, k)
        xs = rng.uniform(0.5, 3.0, (k, 1))
        ps = rng.uniform(-2.0, 2.0, (k, 1))
        us = rng.uniform(0.0, 0.6, (k, prob.m))
        for i, q in enumerate(quadratic):
            h = []
            for j in range(4):
                u = us.copy()
                u[:, i] += j * step
                h.append(pontryagin_H(prob, ts, xs, u, ps, 1.0))
            third = np.abs(h[3] - 3.0 * h[2] + 3.0 * h[1] - h[0])
            scale = 1.0 + np.max(np.abs(h), axis=0)
            if q:
                assert np.all(third <= 1e-10 * scale)
            else:
                assert np.any(third > 1e-6 * scale)

    def test_convex_slice_takes_the_better_face(self):
        # H = w (u - 0.2)^2 + p (u - x) is convex in u: the sup is on a face
        src = TWO_PEAKS.replace("((u1 - 0.5)^2 - 0.0001)^2", "-(u1 - 0.2)^2")
        prob = parse_problem(src.replace("u1 = [0, 1]", "u1 = [-1, 2]"))
        assert prob.u_quadratic == (True,)
        rng = np.random.default_rng(11)
        ts = rng.uniform(0.1, 5.0, 200)
        xs = rng.uniform(0.5, 3.0, (200, 1))
        ps = rng.uniform(-8.0, 8.0, (200, 1))
        faces = [pontryagin_H(prob, ts, xs, np.full((200, 1), v), ps, 1.0)
                 for v in (-1.0, 2.0)]
        want = np.maximum(*faces)
        got = hamiltonian_sup(prob, ts, xs, ps, u_start=np.full((200, 1), 0.2))
        assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(want)))
        # toward an unbounded face a convex slice climbs without bound
        prob = parse_problem(src.replace("u1 = [0, 1]", "u1 = (-inf, 2]"))
        with pytest.raises(UnboundedAbove) as err:
            hamiltonian_sup(prob, 1.0, [1.0], [0.0])
        assert err.value.direction < 0

    @pytest.mark.parametrize("t,x,p", [(0.5, 1.0, 0.2), (1.0, 2.0, -0.1)])
    def test_abs_kink_is_found(self, t, x, p):
        # read as linear, the search would stop on a face, 0.24 and 0.08 low
        prob = parse_problem(ABS_KINK)
        kink = p * (0.3 - x)
        got = hamiltonian_sup(prob, t, [x], [p])
        assert abs(got - kink) <= 1e-14 * (1.0 + abs(kink))


class TestStateClassification:
    """Which dynamics solve_state treats as affine in x."""

    @pytest.mark.parametrize("src,affine", [
        pytest.param(REGULATOR.format(a=4.5), True, id="regulator"),
        pytest.param(TWO_STATE, True, id="two_state"),
        pytest.param(INVESTMENT, True, id="investment"),
        pytest.param(REGULATOR.format(a=4.5).replace("2*x1 + u1", "x1*exp(t) + u1"), True,
                     id="time_varying"),
        pytest.param(EXTRACTION, False, id="extraction"),
        pytest.param(REGULATOR.format(a=4.5).replace("2*x1 + u1", "abs(x1)"), False,
                     id="abs"),
        pytest.param(REGULATOR.format(a=4.5).replace("2*x1 + u1", "-x1^3 + u1"), False,
                     id="cubic"),
        pytest.param(REGULATOR.format(a=4.5).replace("2*x1 + u1", "x1/x1"), False,
                     id="cancelling_by_design"),
    ])
    def test_table(self, src, affine):
        prob = parse_problem(src)
        assert prob.x_affine is affine
        # independent check: phi is affine in x exactly when it maps the
        # midpoint of two states to the midpoint of their values
        rng = np.random.default_rng(5)
        k = 400
        ts = rng.uniform(0.1, 10.0, k)
        us = rng.uniform(0.0, 0.6, (k, prob.m))
        xa, xb = rng.uniform(0.5 if "ln(x1)" in src else -3.0, 3.0, (2, k, prob.n))
        mid = prob.phi_value(ts, 0.5 * (xa + xb), us)
        chord = 0.5 * (prob.phi_value(ts, xa, us) + prob.phi_value(ts, xb, us))
        gap = np.max(np.abs(mid - chord) / (1.0 + np.abs(chord)))
        assert gap <= 1e-12 or gap > 1e-6
        # x1/x1 is affine as a function, but the symbolic test does not see it
        assert (gap <= 1e-12) == (affine or "x1/x1" in src)


class TestNewtonSearch:
    """Safeguarded Newton refinement, with golden section where it fails."""

    @staticmethod
    def random_points(src, kind="", k=2000, seed=3):
        prob = parse_problem(src)
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0.1, 10.0, k)
        xs = rng.uniform(0.5, 3.0, (k, 1))
        w = np.asarray(prob.omega(ts), dtype=float)
        if kind == "investment":  # p > 0 keeps the peak off the open face
            ps = w * rng.uniform(0.5, 20.0, k) / xs[:, 0]
        elif kind == "extraction":  # p x > -w keeps H bounded as u -> inf
            ps = w * rng.uniform(-0.3, 1.0, k)
        else:
            ps = w * rng.uniform(-1.0, 1.0, k)
        us = rng.uniform(0.0, 0.9, (k, prob.m))
        return prob, ts, xs, ps[:, None], us

    def test_maximizer_matches_bounded_brent_and_closed_form(self, monkeypatch):
        prob, w, ts, xs, ps = TestGoldenSection.investment_points()
        monkeypatch.setattr(pmp, "_golden_max", None)  # no fallback allowed
        a, b = np.full(ts.size, -3.0), np.full(ts.size, 0.999)
        u = np.zeros((ts.size, 1))
        u_max, h_max = pmp._newton_max(prob, w, ts, xs, ps, 1.0, u, 0, a, b,
                                       np.full(ts.size, -1.0))
        assert np.all((a <= u_max) & (u_max <= b))
        for k in range(ts.size):
            h = lambda v: float(pmp._hamiltonian(
                prob, w[k], ts[k], xs[k], np.array([v]), ps[k], 1.0))
            ref = minimize_scalar(lambda v: -h(v), bounds=(a[k], b[k]),
                                  method="bounded", options={"xatol": 1e-12})
            assert ref.success
            assert u_max[k] == pytest.approx(ref.x, abs=1e-6)
            assert h_max[k] >= -ref.fun - 1e-14 * (1.0 + abs(ref.fun))
        np.testing.assert_allclose(u_max, 1.0 - w / (ps[:, 0] * xs[:, 0]),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c", [1.0, 0.5, 4.0])
    @pytest.mark.parametrize("name", ["investment", "extraction", "two_controls"])
    def test_sup_is_no_lower_than_golden(self, monkeypatch, name, c):
        src = {"investment": INVESTMENT, "extraction": EXTRACTION,
               "two_controls": TWO_CONTROLS}[name]
        prob, ts, xs, ps, us = self.random_points(scaled_objective(src, c), name)
        ps = c * ps
        h_new = hamiltonian_sup(prob, ts, xs, ps, u_start=us)
        golden_only(monkeypatch)
        h_golden = hamiltonian_sup(prob, ts, xs, ps, u_start=us)
        assert np.all(h_new >= h_golden - 1e-14 * (1.0 + np.abs(h_golden)))

    @pytest.mark.parametrize("src", [TWO_PEAKS, SQRT_FACE])
    def test_fallback_is_bitwise_golden(self, monkeypatch, src):
        # TWO_PEAKS: Newton stops at once on H_u = 0 at the probe u = 1/2,
        # where H_uu > 0.  SQRT_FACE: the slope evaluator raises DomainError
        # at the face u = 0, so golden takes over the whole block
        prob, ts, xs, ps, _ = self.random_points(src, k=200)
        xs = np.where(np.arange(ts.size)[:, None] % 2, xs, 10.0 * xs)
        ps = np.zeros_like(ps)
        h_new = hamiltonian_sup(prob, ts, xs, ps)
        golden_only(monkeypatch)
        h_golden = hamiltonian_sup(prob, ts, xs, ps)
        np.testing.assert_array_equal(h_new, h_golden)
        w = np.asarray(prob.omega(ts), dtype=float)
        if src == TWO_PEAKS:  # golden reaches a peak, where H = 0
            assert np.all(np.abs(h_new) <= 1e-12 * w)
        else:
            np.testing.assert_allclose(h_new, w / (4.0 * xs[:, 0]), rtol=1e-9)

    def test_two_controls_are_exact_without_golden(self, monkeypatch):
        # both coordinates are quadratic: one slope read and one H value per
        # coordinate and sweep, although the maximizer often sits on a face
        prob, ts, xs, ps, us = self.random_points(TWO_CONTROLS, k=20000, seed=3)
        calls = {"H": 0, "golden": 0}
        h_orig, g_orig = pmp._hamiltonian, pmp._golden_max

        def h_counted(*args):
            calls["H"] += 1
            return h_orig(*args)

        def g_counted(*args, **kwargs):
            calls["golden"] += 1
            return g_orig(*args, **kwargs)

        monkeypatch.setattr(pmp, "_hamiltonian", h_counted)
        monkeypatch.setattr(pmp, "_golden_max", g_counted)
        h = hamiltonian_sup(prob, ts, xs, ps, u_start=us)
        _, h_sup = two_controls_sup(ts, xs[:, 0], ps[:, 0])
        assert np.all(np.abs(h - h_sup) <= 1e-15 * (1.0 + np.abs(h_sup)))
        blocks = -(-ts.size // pmp._BLOCK)
        assert calls["H"] <= (1 + 2 * 2) * blocks
        assert calls["golden"] == 0

    def test_work_per_block_is_the_prescan_and_one_value(self, monkeypatch):
        # a silent return to golden section would add its 62 H values per
        # block: 1 + 26 + 62 evaluations of H for one block of 2^15 knots
        prob = parse_problem(EXTRACTION)
        n = 50_000
        t = np.linspace(0.1, 40.0, n)
        x = np.exp(0.5 * (1.0 - np.exp(-t)))[:, None]
        p = np.zeros((n, 1))
        calls = {"H": 0, "slopes": 0}
        h_orig, s_orig = pmp._hamiltonian, type(prob).u_slopes

        def h_counted(*args):
            calls["H"] += 1
            return h_orig(*args)

        def s_counted(*args):
            calls["slopes"] += 1
            return s_orig(*args)

        monkeypatch.setattr(pmp, "_hamiltonian", h_counted)
        monkeypatch.setattr(type(prob), "u_slopes", s_counted)
        # start off the peak u = 1/4, so every knot takes Newton steps
        h = hamiltonian_sup(prob, t, x, p, u_start=np.full((n, 1), 0.3))
        np.testing.assert_allclose(h, 0.25 * prob.omega(t), rtol=1e-15)
        blocks = -(-n // pmp._BLOCK)
        assert calls["H"] <= (26 + 2) * blocks
        # both bracket ends, then one call per Newton step (5 here)
        assert calls["slopes"] <= 8 * blocks


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


@pytest.fixture(scope="module")
def off_optimum_certificate(grid):
    # a feedback gain 1.8e-9 off the optimum: the weak inequality's raw sup
    # of 7.9e-8 at t = 0 exceeds its threshold, but relative to 1 + |H(0)|
    # it does not, and the residual must report the relative one
    prob = regulator()
    x = lambda t: 2.0 * np.exp((1 - SQRT2) * np.asarray(t))
    cand = candidate_from_functions(grid, x, lambda t: -(1 + SQRT2) * (1 + 1.8e-9) * x(t))
    return prob, cand, verify_certificate(prob, cand)


class TestThresholds:
    # the series-judged records: each one's threshold, and whether its
    # series is judged relative to 1 + |H| at the candidate
    SERIES_JUDGED = {
        "adjoint_residual": (pmp._TOL_ADJOINT, False),
        "integral_adjoint_residual": (pmp._TOL_ADJOINT, False),
        "maximum_condition": (pmp._TOL_GAP, True),
        "weak_inequality": (pmp._TOL_GAP, True),
    }

    @pytest.mark.parametrize("name", SERIES_JUDGED)
    def test_residual_is_the_quantity_judged(self, off_optimum_certificate, name):
        prob, cand, cert = off_optimum_certificate
        threshold, relative_to_h = self.SERIES_JUDGED[name]
        rec = cert.condition(name)
        assert rec.tolerance == threshold
        assert rec.passed == (rec.residual <= rec.tolerance)
        # the witness holds the series value at the worst point, and the
        # residual is that value over the record's scale
        t, raw = rec.witnesses[0][:2]
        assert raw == rec.series[np.flatnonzero(rec.series_grid == t)[0]]
        scale = 1.0
        if relative_to_h:
            adj = cert.adjoints["representation"]
            scale += abs(pontryagin_H(prob, t, cand.state(t), cand.control(t),
                                      adj.value(t), 1.0))
        assert rec.residual == pytest.approx(raw / scale, rel=1e-12)
        if name == "weak_inequality":
            assert rec.passed and raw > threshold

    def test_normality_reports_its_threshold(self, off_optimum_certificate):
        rec = off_optimum_certificate[2].condition("normality_representation")
        assert rec.tolerance == pytest.approx(np.log(10.0), rel=1e-15)
        assert rec.passed == (rec.residual <= rec.tolerance)


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
        rep = representation(prob, cand)
        _, decay = check_transversality(prob, cand, rep, mode="weak")
        assert not decay.passed
        # sup |p| over the last window, under the truncation law
        assert decay.residual == pytest.approx(1.0 - np.exp(-5.0), rel=1e-3)

    def test_weak_mode_reports_square_refinement(self, grid):
        prob, cand = undiscounted_pieces(grid)
        adj = adjoint_from_function(grid, lambda t: -np.ones(np.shape(t)))
        _, decay = check_transversality(prob, cand, adj, mode="weak")
        assert any("p=2 refinement" in note for note in decay.notes)

    def test_an_unknown_mode_is_refused(self, reg_setup):
        with pytest.raises(ValueError, match="mode must be 'strong' or 'weak', got 'medium'"):
            check_transversality(*reg_setup, mode="medium")


class TestMichel:
    def test_an_unknown_mode_is_refused(self, reg_setup):
        with pytest.raises(ValueError, match="mode must be 'strong' or 'weak', got 'medium'"):
            check_michel(*reg_setup, mode="medium")

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
        rec = normality(prob, cand)
        assert rec.passed
        # open-loop deviations under the frozen control grow like e^{2t},
        # so the fitted envelope rate is -2
        assert any("rate c=-2" in note for note in rec.notes)

    @pytest.mark.parametrize("name", ["regulator", "extraction"])
    def test_linear_dynamics_take_no_dp45_steps(self, name, grid, monkeypatch):
        # every solve runs on the cell maps of a linear equation: one build
        # per perturbed start for dynamics affine in x, one per Newton sweep
        # for the Gompertz dynamics, whose first iterate is the linear
        # envelope.  With n = 1 the distinct starts are x0 + delta and x0 - delta.
        if name == "regulator":
            prob, cand = regulator(), regulator_candidate(grid)
        else:
            prob, cand = parse_problem(EXTRACTION), extraction_candidate(grid)
        flow = flow_and_offsets(prob, cand)[0]
        counts = {"_dp_step": 0, "_integrate_cell": 0, "_linear_cell_maps": 0}
        for fn in counts:
            def counted(*args, _fn=getattr(integrate, fn), _name=fn, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(integrate, fn, counted)
        starts = []

        def solve(*args, _fn=pmp.solve_state, **kwargs):
            starts.append(tuple(kwargs["x0"]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pmp, "solve_state", solve)
        assert check_normality(prob, cand, flow).passed
        assert prob.n == 1 and len(starts) == len(set(starts)) == 2
        assert counts["_dp_step"] == counts["_integrate_cell"] == 0
        if name == "regulator":
            assert counts["_linear_cell_maps"] == 2
        else:  # a start 1e-3 off the first iterate converges in a few sweeps
            assert 2 <= counts["_linear_cell_maps"] <= 2 * 4

    def test_density_below_the_threshold_fails(self, grid):
        # e^{4t} deviation growth is not square-integrable against e^{-3.9t}
        prob = regulator(a=3.9)
        rec = normality(prob, regulator_candidate(grid))
        assert not rec.passed

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
        rec = normality(prob, cand)
        assert not rec.passed
        # x' = x^2 from x0 = 1 + 1e-3 escapes at t = 1/(1 + 1e-3)
        assert rec.witnesses[0][0] == pytest.approx(1.0 / 1.001, abs=1e-3)

    def test_a_perturbed_start_outside_the_domain_fails(self):
        # phi1 = sqrt(x1) from x0 = 0: the start x0 - 1e-3 is outside the
        # domain of sqrt, so the flow cannot be probed there
        src = REGULATOR.format(a=4.5).replace("2*x1 + u1", "sqrt(x1) + u1")
        prob = parse_problem(src.replace("x0 = 2.0", "x0 = 0.0"))
        g = default_grid(50.0, cells=256, refine_zero=False)
        zero = lambda t: np.zeros(np.shape(t))
        # phi_x = 1/(2 sqrt(x1)) is undefined at x1 = 0, so no adjoint cell
        # map exists along the candidate; the identity stands in for its flow
        flow = np.broadcast_to(np.eye(1), (g.size, 1, 1))
        rec = check_normality(prob, candidate_from_functions(g, zero, zero), flow)
        assert rec.verdict == "fail" and rec.premise_ok
        assert rec.notes == ("perturbed solve left the expression domain: sqrt of "
                             "negative argument at t=0, x1=-0.001, u1=0",)
        assert rec.witnesses == ((0.0, 0.001),)

    @pytest.mark.parametrize("s", [0.5, 1.3, 1.9])
    def test_extraction_fit_matches_the_closed_form(self, s):
        # y = ln x solves y' = 1/2 - y under u = 1/4, so the start z gives
        # y(t) = 1/2 + (ln z - 1/2) e^{-t}; the deviations come without
        # cancellation as x*(t) expm1((ln z - ln s) e^{-t}).  Fitted on the
        # deviations above the rounding floor, the probe's residual is the
        # closed form's; reading every ratio above 1e-14 it was off by up to
        # 1.8e-4 relative at s = 1.9
        prob = parse_problem(EXTRACTION.replace("x0 = 1.0", f"x0 = {s!r}"))
        grid = default_grid(50.0, cells=2048, refine_zero=True)
        x_star = lambda t: np.exp(0.5 + (np.log(s) - 0.5) * np.exp(-np.asarray(t)))
        cand = candidate_from_functions(grid, x_star, lambda t: np.full(np.shape(t), 0.25))
        rec = normality(prob, cand)

        t = rec.series_grid
        delta = pmp._NORMALITY_DELTA
        ratios = np.max([np.abs(x_star(t) * np.expm1(np.log1p(sign * delta / s) * np.exp(-t)))
                         for sign in (1.0, -1.0)], axis=0) / delta
        mask = ratios * delta > pmp._NORMALITY_FLOOR * np.maximum(1.0, x_star(t))
        A = np.stack((np.ones(mask.sum()), -t[mask]), axis=1)
        logs = np.log(ratios[mask])
        coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
        assert rec.passed
        assert rec.residual == pytest.approx(np.max(np.abs(A @ coef - logs)), rel=1e-5)

    def test_deviations_below_the_rounding_floor_fail(self):
        # x' = -x from 1e7: every deviation of the 1e-3 starts is 1e-10 of
        # the state, below 2^20 ulps, so the probe resolves nothing
        src = REGULATOR.format(a=4.5).replace("2*x1 + u1", "-x1 + u1")
        prob = parse_problem(src.replace("x0 = 2.0", "x0 = 1e7"))
        g = default_grid(50.0, cells=256, refine_zero=False)
        cand = candidate_from_functions(g, lambda t: 1e7 * np.exp(-np.asarray(t)),
                                        lambda t: np.zeros(np.shape(t)))
        rec = normality(prob, cand)
        assert rec.verdict == "fail" and rec.residual is None
        assert "rounding floor" in rec.notes[0]

    @staticmethod
    def extraction_at(s):
        """EXTRACTION from x0 = s with its optimal process, u* = 1/4, on
        the certificate's grid."""
        prob = parse_problem(EXTRACTION.replace("x0 = 1.0", f"x0 = {s!r}"))
        grid = default_grid(50.0, cells=2048, refine_zero=True)
        x_star = lambda t: np.exp(0.5 + (np.log(s) - 0.5) * np.exp(-np.asarray(t)))
        return prob, candidate_from_functions(grid, x_star,
                                              lambda t: np.full(np.shape(t), 0.25))

    @pytest.mark.parametrize("s", [0.6, 1.3, 1.9])
    def test_each_start_takes_two_newton_sweeps(self, s, monkeypatch):
        # the linear envelope is first-order exact, so one sweep from it
        # lands within rounding of the perturbed solution and a second
        # confirms it; from the candidate's state the first sweep only
        # recomputed the envelope, and each start took three
        prob, cand = self.extraction_at(s)
        flow = flow_and_offsets(prob, cand)[0]
        sweeps = []
        monkeypatch.setattr(integrate, "_newton_sweep",
                            lambda *args, _fn=integrate._newton_sweep:
                            sweeps.append(args[3]) or _fn(*args))
        assert check_normality(prob, cand, flow).passed
        starts = sorted({tuple(x0) for x0 in sweeps})
        assert starts == [(s - 1e-3,), (s + 1e-3,)]
        assert len(sweeps) == 2 * len(starts)

    def test_each_guess_is_the_flow_applied_to_the_offset(self, monkeypatch):
        # n = 2, coupled and nonlinear: the envelope x*(t) + Phi(t, 0) dz
        # misses the perturbed solution by O(delta^2), while Phi(t, 0)^T in
        # its place misses it by about delta
        src = """
[problem]
n = 2
m = 1
x0 = 1.0, 1.0
sense = min

[dynamics]
phi1 = -x1 + 3*x2^2 + u1
phi2 = -2*x2 + 0.5*x1

[objective]
f = x1^2 + u1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        zero = lambda t: np.zeros(np.shape(t))
        cand = integrate.solve_state(prob, u=zero,
                                     grid=default_grid(20.0, cells=512, refine_zero=False))
        solves = []

        def solve(*args, _fn=pmp.solve_state, **kwargs):
            pert = _fn(*args, **kwargs)
            solves.append((kwargs["guess"], pert.x))
            return pert

        monkeypatch.setattr(pmp, "solve_state", solve)
        assert normality(prob, cand).passed
        assert len(solves) == 2 * prob.n + 1
        delta = pmp._NORMALITY_DELTA
        for guess, x in solves:
            assert np.max(np.abs(guess - x)) <= 10 * delta**2

    def test_a_flow_past_overflow_starts_from_the_candidate_there(self):
        # a knot whose envelope is not finite starts from x*(t): the sweeps
        # converge to the same perturbed states, within their tolerance
        prob, cand = self.extraction_at(1.3)
        flow = flow_and_offsets(prob, cand)[0]
        want = check_normality(prob, cand, flow)
        broken = flow.copy()
        broken[broken.shape[0] // 4:] = np.inf
        broken[1:broken.shape[0] // 4:2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a non-finite envelope warns of nothing
            got = check_normality(prob, cand, broken)
        assert (got.verdict, got.notes) == (want.verdict, want.notes)
        assert got.residual == pytest.approx(want.residual, rel=1e-6)
        np.testing.assert_allclose(got.witnesses, want.witnesses, rtol=1e-9)
        np.testing.assert_array_equal(got.series_grid, want.series_grid)
        np.testing.assert_allclose(got.series, want.series, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", ["short", "square", "wide"])
    def test_a_misshaped_flow_is_refused(self, grid, shape):
        prob, cand = regulator(), regulator_candidate(grid)
        flow = {"short": np.ones((grid.size - 1, 1, 1)), "square": np.eye(1),
                "wide": np.ones((grid.size, 2, 2))}[shape]
        with pytest.raises(DimensionMismatch, match=re.escape(
                f"flow has shape {flow.shape}, but the candidate grid and the "
                f"problem need {(grid.size, 1, 1)}")):
            check_normality(prob, cand, flow)


class TestCertificate:
    def test_the_default_grid_passes_the_decay_triple(self):
        # phi1 = -x1, f = x1^2: x = e^{-t}, u = 0 and p = -(2/3) e^{-2t}.
        # Head cells 0.27 and 0.45 wide at the knee read adjoint_residual
        # 1.97e-4 and failed the certificate
        src = DISCOUNTED_LOG.replace("u1 - x1", "-x1").replace("ln(x1)", "x1^2")
        cand = candidate_from_functions(
            default_grid(50.0, cells=2048), lambda t: np.exp(-np.asarray(t)),
            lambda t: np.zeros(np.shape(t)))
        cert = verify_certificate(parse_problem(src), cand)
        assert cert.overall == "pass"
        assert cert.condition("adjoint_residual").residual < 1e-8
        assert cert.condition("integral_adjoint_residual").residual < 1e-8

    def test_regulator_full_pass(self, reg_setup):
        prob, cand, _ = reg_setup
        cert = verify_certificate(prob, cand)
        assert cert.overall == "pass"
        assert cert.nontrivial
        assert cert.audit.all_ok
        assert cert.route_agreement < 1e-6
        # the route agreement is the certificate's note, not normality's
        agreement = [n for n in cert.notes if n.startswith("route agreement")]
        assert agreement == [f"route agreement sup|backward - representation| / sup|p| = "
                             f"{cert.route_agreement:.3g} on the first half horizon"]
        assert not any("route agreement" in n
                       for n in cert.condition("normality_representation").notes)
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
        cert = verify_certificate(prob, cand, mode="weak")
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
        cert = verify_certificate(prob, cand)
        assert cert.overall == "pass"
        mc = cert.condition("maximum_condition")
        assert mc.passed
        # the Weibull weight's pole at t = 0 leaves that knot out of the series
        np.testing.assert_array_equal(mc.series_grid, g[1:])
        assert mc.series.shape == mc.series_grid.shape

    def test_trivial_multiplier_cannot_pass(self, reg_setup):
        prob, cand, _ = reg_setup
        cert = verify_certificate(prob, cand, lambda0=0.0)
        assert not cert.nontrivial
        assert cert.overall == "fail"
        assert any("trivial" in note for note in cert.notes)
        assert any("representation route skipped" in n for n in cert.notes)
        assert cert.route_agreement is None

    def test_failed_separation_is_noted(self, grid):
        # g1 = 0 x1 is tight everywhere: no interior point separates it
        prob = parse_problem(CONSTRAINED.replace("g1 = x1 - 2", "g1 = 0 * x1"))
        cert = verify_certificate(prob, regulator_candidate(grid))
        assert not cert.slater.passed
        assert ("interior-point separation fails; measure multipliers may be "
                "degenerate") in cert.notes

    def test_weak_mode_drops_the_integral_form_under_constraints(self, grid):
        src = CONSTRAINED.replace("nu = exp_decay 4.5", "nu = exp_decay 4.5\neta = exp_decay 1.0")
        cert = verify_certificate(parse_problem(src), regulator_candidate(grid), mode="weak")
        rec = cert.condition("integral_adjoint_residual")
        assert rec.verdict == "not-applicable" and rec.premise_ok is False
        assert rec.premise == "state constraints are a strong-route feature"
        assert cert.active is None and cert.slater is None

    def test_unsupported_atoms_fail_the_integral_form(self, grid):
        prob = parse_problem(CONSTRAINED)
        cand = regulator_candidate(grid)
        cert = verify_certificate(prob, cand, measures={1: ((0.0, 0.3),)})
        # g1 = x1 - 2 vanishes at t = 0 only, where x* = 2 e^{(1-sqrt2)t} starts,
        # and is most slack at the horizon, where g1 = 2 e^{50(1-sqrt2)} - 2
        assert cert.active.I == (1,)
        np.testing.assert_array_equal(cert.active.times[1], [0.0])
        assert cert.slater.passed
        assert cert.slater.witnesses[1] == pytest.approx((50.0, -2.0), abs=1e-8)
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
            verify_certificate(prob, cand)
        assert err.value.bound == 1e12
        assert err.value.norm > err.value.bound
        # reported in forward time: the adjoint escapes near t = 17.6, at
        # the knot where the plain backward loop from p(20) = 0 escapes
        assert 17.0 < err.value.t < 20.0
        k_main = int(np.searchsorted(g, 20.0, side="right")) - 1
        P, q = pmp._adjoint_cell_maps(prob, cand)
        j, norm = first_escape(P[k_main - 1::-1], q[k_main - 1::-1], np.zeros(1), 1e12)
        assert err.value.t == g[k_main - j]
        assert err.value.norm == pytest.approx(norm, rel=1e-12)
        assert isinstance(err.value.__cause__, IllConditioned)
        assert "backward route" in str(err.value)
        assert "fundamental system overflows" in str(err.value)

    def test_unexcited_unstable_direction_keeps_its_exact_zero(self):
        # p1' = -30 p1 has no forcing (f_x1 = 0), so the backward route keeps
        # p1 = 0 exactly, while Z^{-1} grows like e^{30 t} and overflows.  A
        # composed map over the whole grid reads e^{1200} = inf there, and
        # inf * 0 = NaN would turn the finite backward adjoint into a BlowUp.
        src = """
[problem]
n = 2
m = 1
x0 = 0.0, 1.0

[dynamics]
phi1 = 30*x1
phi2 = -x2 + u1

[objective]
f = x2^2 + u1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        g = default_grid(50.0, cells=2048, refine_zero=False)
        cand = candidate_from_functions(
            g, lambda t: np.stack([np.zeros_like(t), np.exp(-t)], axis=-1),
            lambda t: np.zeros(np.shape(t)))
        bwd = backward(prob, cand)
        assert np.all(bwd.p[:, 0] == 0.0)
        assert np.all(np.isfinite(bwd.p))
        with pytest.raises(IllConditioned, match="overflows at t=22.2656;") as err:
            representation(prob, cand)
        # the knot where the plain loop Y_{k+1} = Y_k P_k passes 1e290
        P, q = pmp._adjoint_cell_maps(prob, cand)
        k, _ = first_escape(np.swapaxes(P, 1, 2), np.zeros((q.shape[0], 2, 1)),
                            np.eye(2), pmp._Y_LIMIT)
        assert f"at t={g[k]:.6g};" in str(err.value)
        cert = verify_certificate(prob, cand)
        assert set(cert.adjoints) == {"backward-ode"}

    def test_a_backward_blow_up_alone_leaves_a_note(self, grid):
        # the objective scaled by 1e13 scales p with it: sup |p| = 4.8e13
        # exceeds the backward route's norm bound of 1e12, while the
        # representation route, which bounds only the fundamental system,
        # carries the certificate
        src = REGULATOR.format(a=4.5).replace("0.5*(x1^2 + u1^2)", "5e12*(x1^2 + u1^2)")
        cert = verify_certificate(parse_problem(src), regulator_candidate(grid))
        assert set(cert.adjoints) == {"representation"}
        assert cert.route_agreement is None
        note, = (n for n in cert.notes if n.startswith("backward route blew up"))
        assert note.endswith("the representation formula is the reliable route here")

    def test_a_grid_off_the_origin_is_refused(self):
        # sampled on [1, 50], the exact regulator read assumptions-violated
        # (A0 fails on x(1) != x0) and failed transversality_decay; the
        # problem lives on [0, inf), so a grid must start at 0
        with pytest.raises(InvalidGrid, match="grid must start at 0, got 1"):
            regulator_candidate(np.linspace(1.0, 50.0, 2049))

    def test_mode_validation(self, reg_setup):
        prob, cand, _ = reg_setup
        with pytest.raises(ValueError, match="mode"):
            verify_certificate(prob, cand, mode="medium")

    @pytest.mark.parametrize("lambda0", [1.0, 0.0])
    def test_the_adjoint_cell_maps_are_built_once(self, reg_setup, monkeypatch, lambda0):
        prob, cand, _ = reg_setup
        build, calls = pmp._adjoint_cell_maps, []
        monkeypatch.setattr(pmp, "_adjoint_cell_maps",
                            lambda *args: calls.append(args) or build(*args))
        cert = verify_certificate(prob, cand, lambda0=lambda0)
        assert len(calls) == 1
        routes = {"representation", "backward-ode"} if lambda0 else {"backward-ode"}
        assert set(cert.adjoints) == routes

    def test_an_unresolvable_cell_map_leaves_no_route(self, grid):
        # x turns NaN past t = 45, after the backward route's terminal knot
        # at t = 40: no bisection resolves those cells, and neither route
        # exists without the maps
        exact = regulator_candidate(grid)
        cand = candidate_from_functions(
            grid, lambda t: np.where(np.asarray(t) > 45.0, np.nan, exact.closed_x(t)),
            exact.closed_u)
        with pytest.raises(BlowUp, match="cell map defect"):
            verify_certificate(regulator(), cand)

    def test_an_arrow_tube_leaving_the_domain_of_h_is_noted(self):
        # the tube around x = e^{-t} dips below x1 = 0, where ln(x1) is undefined
        prob = parse_problem(DISCOUNTED_LOG)
        cand = candidate_from_functions(
            default_grid(50.0, cells=512, refine_zero=False),
            lambda t: np.exp(-np.asarray(t)), lambda t: np.zeros(np.shape(t)))
        cert = verify_certificate(prob, cand)
        assert cert.sufficiency is None
        assert cert.notes[-1] == ("concavity scan aborted: ln of non-positive "
                                  "argument at t=0.78125, x1=-0.0421666, u1=0")


def scaled_objective(src: str, c: float) -> str:
    """The problem text with its running cost f replaced by c*f."""
    return re.sub(r"^f = (.*)$", lambda m: f"f = {c!r}*({m.group(1)})", src,
                  count=1, flags=re.M)


def verdicts(cert):
    return {"overall": cert.overall, "nontrivial": cert.nontrivial,
            **{f"audit.{k}": v for k, v in cert.audit.verdicts.items()},
            **{c.name: c.verdict for c in cert.conditions},
            "arrow": cert.sufficiency.overall if cert.sufficiency else "aborted"}


class TestObjectiveScaling:
    """Scaling f by c > 0 scales H and p by c and changes no verdict."""

    @pytest.mark.parametrize("c", [0.5, 4.0])
    @pytest.mark.parametrize("name", ["investment", "extraction"])
    def test_verdicts_hold_and_p_scales(self, grid, name, c):
        if name == "investment":
            src, g = INVESTMENT, grid
            cand = investment_pieces(g)[1]
        else:
            src, g = EXTRACTION, default_grid(50.0, cells=1024)
            cand = extraction_candidate(g)
        base = verify_certificate(parse_problem(src), cand)
        scaled = verify_certificate(parse_problem(scaled_objective(src, c)), cand)
        assert verdicts(scaled) == verdicts(base)
        if name == "investment":
            # the routes end on p(50) = 0, where H = w ln((1 - u) x) grows
            # without bound as u -> -inf; that escape must be seen at every
            # scale, not only where w ln(2^16) clears an absolute floor
            assert verdicts(base)["arrow"] == "aborted"
            assert "toward -inf at t=50" in base.notes[-1]
        else:
            assert base.overall == "pass"
        assert scaled.adjoints.keys() == base.adjoints.keys()
        for route, adj in base.adjoints.items():
            err = np.max(np.abs(scaled.adjoints[route].p - c * adj.p))
            assert err <= 1e-9 * c * adj.sup_norm, route


def scaled_state(src: str, k: float) -> str:
    """The problem text in the state y = k x: x0 times k, every xi read
    as xi/k and every phi_i times k."""
    src = re.sub(r"\bx([1-9]\d*)\b", lambda m: f"(x{m.group(1)}/{k!r})", src)
    src = re.sub(r"^(phi\d+) = (.*)$", lambda m: f"{m.group(1)} = {k!r}*({m.group(2)})",
                 src, flags=re.M)
    return re.sub(r"^x0 = (.*)$", lambda m: "x0 = " + ", ".join(
        repr(k * float(v)) for v in m.group(1).split(",")), src, count=1, flags=re.M)


class TestStateScaling:
    """Substituting x = y/k into a problem linear in x scales p by 1/k and
    leaves H, every verdict and the scale-free residuals where they were."""

    @pytest.mark.parametrize("name", ["regulator", "two_state"])
    def test_verdicts_and_residuals_hold(self, grid, name):
        if name == "regulator":
            src, exact = REGULATOR.format(a=4.5), regulator_candidate(grid)
        else:
            dec = lambda t: np.exp(-np.asarray(t))
            src, exact = TWO_STATE, candidate_from_functions(
                grid, lambda t: np.stack([dec(t), dec(t)], axis=-1),
                lambda t: np.zeros(np.shape(t) + (1,)))

        def certify(k):
            cand = candidate_from_functions(grid, lambda t: k * exact.closed_x(t),
                                            exact.closed_u)
            return verify_certificate(parse_problem(scaled_state(src, k)), cand)

        base = certify(1.0)
        for k in (1e-3, 1e3, 2.0 ** -10, 2.0 ** 10):
            scaled = certify(k)
            assert verdicts(scaled) == verdicts(base), k
            # a power of two scales every operation exactly; a decimal k
            # rounds the text's constants, which moves a residual by the
            # roundoff of its numerator, eps / h per unit of sup |p|
            floor = 0.0 if np.log2(k).is_integer() else 8 * np.finfo(float).eps / (
                grid[1] - grid[0])
            for cond in ("adjoint_residual", "maximum_condition"):
                assert scaled.condition(cond).residual == pytest.approx(
                    base.condition(cond).residual, rel=1e-9, abs=floor), (k, cond)
            for route, adj in base.adjoints.items():
                err = np.max(np.abs(k * scaled.adjoints[route].p - adj.p))
                assert err <= 1e-9 * adj.sup_norm, (k, route)


def report_leaves(obj, path="report"):
    """Every leaf of a report, comparable bit for bit: floats by their hex
    form, arrays by shape and bytes.  Callables are skipped."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from report_leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            yield from report_leaves(value, f"{path}[{key!r}]")
    elif isinstance(obj, (tuple, list)):
        yield f"{path}#len", len(obj)
        for i, value in enumerate(obj):
            yield from report_leaves(value, f"{path}[{i}]")
    elif isinstance(obj, np.ndarray):
        yield path, (obj.shape, obj.dtype.str, obj.tobytes())
    elif isinstance(obj, float):
        yield path, float(obj).hex()
    elif not callable(obj):
        yield path, repr(obj)


def assert_reports_equal(a, b):
    la, lb = dict(report_leaves(a)), dict(report_leaves(b))
    assert sorted(k for k in la.keys() | lb.keys() if la.get(k) != lb.get(k)) == []


class TestWeightPole:
    """EXTRACTION's density t^(-1/2) e^(-sqrt t) has a pole at t = 0."""

    def test_declared_pole_expression_certifies_like_the_family(self):
        g = default_grid(50.0, cells=1024)
        cand = extraction_candidate(g)
        family = verify_certificate(parse_problem(EXTRACTION), cand)
        src = EXTRACTION.replace(
            "omega = weibull 0.5",
            "omega = expr(t^(-0.5)*exp(-t^0.5)) tail 2*exp(-t^0.5) pole -0.5")
        written = verify_certificate(parse_problem(src), cand)
        assert family.overall == "pass"
        assert_reports_equal(written, family)

    def test_a_space_weight_with_a_pole_is_a_violated_assumption_not_a_crash(self):
        g = default_grid(50.0, cells=256)
        src = EXTRACTION.replace("nu = exp_decay 1.0", "nu = weibull 0.5")
        rep = verify_certificate(parse_problem(src), extraction_candidate(g))
        nu_report = rep.audit.weight_reports["nu"]
        assert nu_report.verdicts["E1"] == "fail"
        assert nu_report.witnesses["E1"] == (0.0, np.inf)
        assert rep.audit.verdicts["A0"] == "fail"
        assert rep.overall == "assumptions-violated"

    def test_majorant_partials_are_finite_and_increasing(self):
        g = default_grid(50.0, cells=1024)
        audit = audit_assumptions(parse_problem(EXTRACTION), extraction_candidate(g),
                                  gamma=0.5)
        p1, p2, p3 = audit.L_partials
        assert np.all(np.isfinite(audit.L_partials))
        assert 0.0 < p1 < p2 < p3
        assert audit.verdicts["A2"] == "pass"


class TestSenseMax:
    """``sense = max`` is the min problem with f negated, bit for bit."""

    @pytest.mark.parametrize("name", ["extraction", "investment"])
    def test_max_equals_the_negated_min_problem(self, name):
        if name == "extraction":
            src, g = EXTRACTION, default_grid(50.0, cells=256)
            cand = extraction_candidate(g)
        else:
            src, g = INVESTMENT, default_grid(50.0, cells=512, refine_zero=False)
            cand = investment_pieces(g)[1]
        negated = re.sub(r"^f = (.*)$", r"f = -(\1)", src.replace("sense = max", "sense = min"),
                         count=1, flags=re.M)
        assert "sense = min" in negated and "f = -(" in negated
        as_max = verify_certificate(parse_problem(src), cand)
        as_min = verify_certificate(parse_problem(negated), cand)
        assert_reports_equal(as_max, as_min)

"""Maximized-Hamiltonian concavity scans and their analytic oracles."""

import numpy as np
import pytest

import test_pmp
from pmpcheck import sufficiency
from pmpcheck.expressions import DomainError, Num
from pmpcheck.integrate import default_grid
from pmpcheck.pmp import (
    UnboundedAbove,
    adjoint_from_function,
    pontryagin_H,
    verify_certificate,
)
from pmpcheck.problem import DimensionMismatch, candidate_from_functions, parse_problem
from pmpcheck.sufficiency import check_arrow, hamiltonian_sup

SQRT2 = np.sqrt(2.0)

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
nu = exp_decay 4.5
"""

# same dynamics and weights, but the running cost rewards distance from
# the origin: the maximized Hamiltonian picks up a +x^2/2 term
ANTIREGULATOR = REGULATOR.replace("f = 0.5*(x1^2 + u1^2)",
                                  "f = 0.5*(u1^2 - x1^2)")

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


def regulator_candidate(grid):
    x = lambda t: 2.0 * np.exp((1 - SQRT2) * np.asarray(t))
    u = lambda t: -2.0 * (1 + SQRT2) * np.exp((1 - SQRT2) * np.asarray(t))
    return candidate_from_functions(grid, x, u)


def regulator_p(t):
    return -2.0 * (1 + SQRT2) * np.exp(-(1 + SQRT2) * np.asarray(t))


def regulator_hsup(t, x, p):
    # complete the square in u: H = -e^{-2t}(x^2+u^2)/2 + p(2x+u) peaks
    # at u = p e^{2t}
    return (-0.5 * np.exp(-2 * t) * x ** 2 + 2 * p * x
            + 0.5 * p ** 2 * np.exp(2 * t))


@pytest.fixture(scope="module")
def grid():
    return default_grid(50.0, cells=256, refine_zero=False)


@pytest.fixture(scope="module")
def cert_grid():
    # the adjoint-residual tolerance needs the production resolution
    return default_grid(50.0, cells=2048, refine_zero=False)


@pytest.fixture(scope="module")
def reg_setup(grid):
    prob = parse_problem(REGULATOR)
    cand = regulator_candidate(grid)
    adj = adjoint_from_function(grid, regulator_p)
    return prob, cand, adj


class TestHamiltonianSup:
    @pytest.mark.parametrize("t,x,p", [
        (0.0, 2.0, -1.0),
        (1.5, 0.3, 0.7),
        (4.0, -1.2, -0.05),
    ])
    def test_regulator_closed_form(self, t, x, p):
        prob = parse_problem(REGULATOR)
        got = hamiltonian_sup(prob, t, np.array([x]), np.array([p]))
        assert got == pytest.approx(regulator_hsup(t, x, p), rel=1e-12)

    def test_batched_evaluation(self):
        prob = parse_problem(REGULATOR)
        ts = np.linspace(0.0, 5.0, 40)
        xs = np.cos(ts)[:, None]
        ps = (0.1 * np.sin(ts) - 0.2)[:, None]
        got = hamiltonian_sup(prob, ts, xs, ps)
        np.testing.assert_allclose(
            got, regulator_hsup(ts, xs[:, 0], ps[:, 0]), rtol=1e-12)

    def test_singleton_box_returns_plain_h(self):
        src = REGULATOR + "\n[controls]\nu1 = [0.3, 0.3]\n"
        prob = parse_problem(src)
        t, x, p = 1.0, np.array([2.0]), np.array([-0.5])
        got = hamiltonian_sup(prob, t, x, p)
        want = pontryagin_H(prob, np.array([t]), x[None, :],
                            np.array([[0.3]]), p[None, :], 1.0)[0]
        assert got == pytest.approx(float(want), rel=1e-14)

    def test_zero_adjoint_interior_minimum(self):
        # with p = 0 the supremum of -w f sits at the cost's minimizer
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = u1

[objective]
f = (u1 - 0.7)^2 + x1^2
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [-3, 3]
"""
        prob = parse_problem(src)
        t, x = 0.8, 1.4
        got = hamiltonian_sup(prob, t, np.array([x]), np.array([0.0]))
        # dense scan oracle over the box
        us = np.linspace(-3.0, 3.0, 20001)
        h = pontryagin_H(prob, np.full(us.size, t),
                         np.full((us.size, 1), x), us[:, None],
                         np.zeros((us.size, 1)), 1.0)
        assert got >= float(np.max(h)) - 1e-12
        assert got == pytest.approx(float(np.max(h)), abs=1e-7)
        assert got == pytest.approx(-np.exp(-t) * x ** 2, rel=1e-10)

    def test_log_utility_against_dense_scan(self):
        prob = parse_problem(INVESTMENT)
        t, x, p = 2.0, 2.5, 0.3
        got = hamiltonian_sup(prob, t, np.array([x]), np.array([p]))
        us = np.linspace(-40.0, 1.0 - 1e-9, 400001)
        h = pontryagin_H(prob, np.full(us.size, t),
                         np.full((us.size, 1), x), us[:, None],
                         np.full((us.size, 1), p), 1.0)
        assert got == pytest.approx(float(np.max(h)), abs=1e-7)
        assert got >= float(np.max(h)) - 1e-12

    def test_unbounded_slope_raises(self):
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = 2*x1

[objective]
f = x1 + u1
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0
"""
        prob = parse_problem(src)
        with pytest.raises(UnboundedAbove) as err:
            hamiltonian_sup(prob, 0.5, np.array([1.0]), np.array([0.0]))
        assert err.value.direction < 0

    def test_shape_mismatch_rejected(self):
        prob = parse_problem(REGULATOR)
        with pytest.raises(ValueError):
            hamiltonian_sup(prob, np.array([0.0, 1.0]),
                            np.zeros((3, 1)), np.zeros((2, 1)))

    def test_an_infeasible_start_is_projected_into_the_box(self):
        # H = -w (u1 - 2)^4 peaks at u1 = 2, outside U = [0, 1]; the sup over
        # the box sits on the face u1 = 1, where H = -1 at t = 0
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = u1 - x1

[objective]
f = (u1 - 2)^4
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, 1]
"""
        prob = parse_problem(src)
        args = (prob, 0.0, np.array([1.0]), np.array([0.0]))
        assert hamiltonian_sup(*args, u_start=np.array([2.0])) == hamiltonian_sup(*args)
        assert hamiltonian_sup(*args) == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (3,), (3, 2)],
                             ids=["three_columns", "one_column", "three_wide_row", "three_rows"])
    def test_a_misshaped_start_is_rejected(self, shape):
        # TWO_CONTROLS has m = 2: a start is one row of 2 or one row per time
        prob = parse_problem(test_pmp.TWO_CONTROLS)
        ts = np.linspace(0.0, 1.0, 4)
        with pytest.raises(DimensionMismatch, match="u_start"):
            hamiltonian_sup(prob, ts, np.ones((4, 1)), np.zeros((4, 1)),
                            u_start=np.full(shape, 0.5))


class TestCheckArrow:
    def test_regulator_concave_everywhere(self, reg_setup):
        prob, cand, adj = reg_setup
        rep = check_arrow(prob, cand, adj, gamma=0.5)
        assert rep.overall == "pass"
        assert rep.passed
        assert rep.premise_ok
        assert rep.witness is None
        assert bool(np.all(rep.slice_ok))
        # quadratic with curvature -e^{-2t}: defects are pure roundoff
        assert float(np.max(rep.worst)) < 1e-10

    def test_log_utility_concave(self, grid):
        prob = parse_problem(INVESTMENT)
        cand = candidate_from_functions(
            grid, lambda t: np.exp(0.5 * np.asarray(t)),
            lambda t: np.full(np.shape(t), 0.5))
        adj = adjoint_from_function(grid, lambda t: 2.0 * np.exp(-np.asarray(t)))
        rep = check_arrow(prob, cand, adj, gamma=0.4)
        assert rep.passed

    def test_convex_cost_fails_with_witness(self, grid):
        prob = parse_problem(ANTIREGULATOR)
        cand = regulator_candidate(grid)
        adj = adjoint_from_function(grid, regulator_p)
        rep = check_arrow(prob, cand, adj, gamma=0.5)
        assert rep.overall == "fail"
        assert rep.witness is not None
        t_w, x1, x2, defect = rep.witness
        # confirm the reported pair really breaks midpoint concavity
        p_w = regulator_p(t_w)[None]
        h1 = hamiltonian_sup(prob, t_w, x1, p_w)
        h2 = hamiltonian_sup(prob, t_w, x2, p_w)
        hm = hamiltonian_sup(prob, t_w, 0.5 * (x1 + x2), p_w)
        assert 0.5 * (h1 + h2) - hm == pytest.approx(defect, rel=1e-9)
        assert defect > rep.tolerance

    def test_verdict_matches_curvature_sign_per_slice(self, grid):
        # quadratic problems: midpoint defects agree with the analytic
        # second derivative of the maximized Hamiltonian in x
        for src, curvature in ((REGULATOR, -1.0), (ANTIREGULATOR, +1.0)):
            prob = parse_problem(src)
            cand = regulator_candidate(grid)
            adj = adjoint_from_function(grid, regulator_p)
            rep = check_arrow(prob, cand, adj, gamma=0.5)
            assert bool(np.all(rep.slice_ok)) == (curvature < 0)

    def test_state_free_cost_term_shifts_nothing(self, monkeypatch, grid):
        no_proof(monkeypatch)  # the sampled defects, which the proof would skip
        shifted = REGULATOR.replace("f = 0.5*(x1^2 + u1^2)",
                                    "f = 0.5*(x1^2 + u1^2) + 3*exp(-t)")
        cand = regulator_candidate(grid)
        adj = adjoint_from_function(grid, regulator_p)
        base = check_arrow(parse_problem(REGULATOR), cand, adj, gamma=0.5)
        moved = check_arrow(parse_problem(shifted), cand, adj, gamma=0.5)
        assert moved.overall == base.overall
        np.testing.assert_allclose(moved.worst, base.worst, atol=1e-11)

    def test_rescaled_multiplier_same_verdict(self, reg_setup):
        prob, cand, adj = reg_setup
        doubled = adjoint_from_function(adj.grid,
                                        lambda t: 2.0 * regulator_p(t),
                                        lambda0=2.0)
        rep = check_arrow(prob, cand, doubled, gamma=0.5)
        assert rep.passed
        assert any("rescaled" in note for note in rep.notes)

    def test_degenerate_multiplier_is_not_applicable(self, reg_setup):
        prob, cand, _ = reg_setup
        zero = adjoint_from_function(cand.grid,
                                     lambda t: np.zeros(np.shape(t)),
                                     lambda0=0.0)
        rep = check_arrow(prob, cand, zero, gamma=0.5)
        assert rep.overall == "not-applicable"
        assert not rep.premise_ok
        assert not rep.passed
        assert all(a.size == 0 for a in (rep.grid, rep.worst, rep.slice_ok,
                                         rep.radii, rep.centers))

    def test_weak_mode_scales_tube_with_eta(self):
        src = REGULATOR + "eta = exp_decay 0.1\n"
        g = default_grid(50.0, cells=256, refine_zero=False)
        prob = parse_problem(src)
        cand = regulator_candidate(g)
        adj = adjoint_from_function(g, regulator_p)
        rep = check_arrow(prob, cand, adj, gamma=1.0, mode="weak")
        assert rep.passed
        np.testing.assert_allclose(rep.radii, np.exp(-0.1 * g), rtol=1e-12)

    def test_weight_pole_slices_are_skipped(self):
        src = """
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
        prob = parse_problem(src)
        g = default_grid(50.0, cells=256)
        cand = candidate_from_functions(
            g, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.full(np.shape(t), 0.25))
        adj = adjoint_from_function(g, lambda t: np.zeros(np.shape(t)))
        rep = check_arrow(prob, cand, adj, gamma=0.25)
        assert rep.passed
        assert "1 knot(s) skipped: weight pole" in rep.notes
        # with no knot left to judge the premise fails and the arrays are empty
        short = adjoint_from_function(np.array([0.0, 0.5 * g[1]]),
                                      lambda t: np.zeros(np.shape(t)))
        none = check_arrow(prob, cand, short, gamma=0.25)
        assert none.overall == "not-applicable"
        assert all(a.size == 0 for a in (none.grid, none.worst, none.slice_ok,
                                         none.radii, none.centers))

    def test_the_report_holds_the_judged_knots_only(self):
        # the extraction workload's grid: 2048 cells refined at t = 0, 2126
        # knots.  The weight pole at t = 0 is skipped, so the arrays hold
        # 2125 entries; skipped knots used to read worst 0 and slice_ok True
        prob = parse_problem(test_pmp.EXTRACTION)
        g = default_grid(50.0, cells=2048)
        cand = candidate_from_functions(
            g, lambda t: np.exp(0.5 * (1.0 - np.exp(-np.asarray(t)))),
            lambda t: np.full(np.shape(t), 0.25))
        rep = check_arrow(prob, cand, adjoint_from_function(g, lambda t: np.zeros(np.shape(t))))
        assert rep.passed and g.size == 2126
        np.testing.assert_array_equal(rep.grid, g[1:])
        assert [a.shape[0] for a in (rep.worst, rep.slice_ok, rep.radii, rep.centers)] == [2125] * 4
        np.testing.assert_array_equal(rep.centers, cand.x[1:])
        np.testing.assert_array_equal(rep.pairs_at(0)[0, 0], cand.x[1] + rep.radii[0])

    def test_knots_past_the_adjoint_are_skipped(self, reg_setup):
        # p is known up to t = 25 only; the slices beyond used to be judged
        # with p clamped at its last value
        prob, cand, _ = reg_setup
        adj = adjoint_from_function(cand.grid[:129], regulator_p)
        rep = check_arrow(prob, cand, adj, gamma=0.5)
        assert rep.passed
        assert rep.notes == ("128 knot(s) skipped: past the adjoint's last knot t = 25",
                             "129 slice(s) proved concave: H jointly concave in (x, u) "
                             "on the tube times the control box")

    def test_a_stencil_triple_can_be_the_witness(self):
        # with p = 0, h(x) = w (max(0, x - 3/8) - x^2) on the tube [-1/2, 1/2]
        # around x* = 0.  The kink sits on a stencil point, so the triple
        # (1/4, 3/8, 1/2) reads the defect 1/16 - 1/64 = 3/64; a pair that
        # straddles the kink as far on both sides spans at least as much
        # of the concave part, and only (1/4, 1/2) itself reaches 3/64
        src = """
[problem]
n = 1
m = 1
x0 = 0.0

[dynamics]
phi1 = u1

[objective]
f = x1^2 - 0.5*(x1 - 0.375 + abs(x1 - 0.375))
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, 1]
"""
        g = default_grid(10.0, cells=16, refine_zero=False)
        zero = lambda t: np.zeros(np.shape(t))
        cand = candidate_from_functions(g, zero, zero)
        rep = check_arrow(parse_problem(src), cand, adjoint_from_function(g, zero))
        assert rep.overall == "fail"
        t_w, x1, x2, defect = rep.witness
        assert (t_w, defect) == (0.0, 3.0 / 64.0)
        np.testing.assert_array_equal(np.stack([x1, x2]), [[0.25], [0.5]])

    def test_pairs_at_rebuilds_tube_points(self, reg_setup):
        prob, cand, adj = reg_setup
        rep = check_arrow(prob, cand, adj, gamma=0.5)
        pts = rep.pairs_at(10)
        assert pts.shape == (64, 2, 1)
        # every sampled endpoint sits in the closed tube
        dist = np.linalg.norm(pts - cand.x[10], axis=-1)
        assert float(np.max(dist)) <= rep.radii[10] * (1 + 1e-12)
        # the axis-diameter pair touches the boundary
        assert float(np.max(dist)) == pytest.approx(rep.radii[10], rel=1e-12)

    def test_parameter_validation(self, reg_setup):
        prob, cand, adj = reg_setup
        with pytest.raises(ValueError):
            check_arrow(prob, cand, adj, gamma=0.0)
        with pytest.raises(ValueError):
            check_arrow(prob, cand, adj, gamma=0.5, mode="medium")
        with pytest.raises(ValueError):
            check_arrow(prob, cand, adj, gamma=0.5, mode="weak")

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_a_gamma_that_is_not_finite_is_rejected(self, reg_setup, gamma):
        # NaN compares False with 0, so a sign test alone let it through
        with pytest.raises(ValueError, match="gamma must be finite"):
            check_arrow(*reg_setup, gamma=gamma)


class TestCertificateIntegration:
    def test_regulator_certificate_includes_concavity(self, cert_grid):
        prob = parse_problem(REGULATOR)
        cand = regulator_candidate(cert_grid)
        cert = verify_certificate(prob, cand)
        assert cert.overall == "pass"
        assert cert.sufficiency is not None
        assert cert.sufficiency.passed

    def test_convex_cost_shows_up_in_certificate(self, cert_grid):
        prob = parse_problem(ANTIREGULATOR)
        cand = regulator_candidate(cert_grid)
        cert = verify_certificate(prob, cand)
        assert cert.sufficiency is not None
        assert cert.sufficiency.overall == "fail"

    def test_abnormal_route_judges_no_slice_past_its_horizon(self, cert_grid):
        # lambda0 = 0.5 leaves the backward route, which ends at t = 39.99
        # (1639 knots); the scan used to read "2049 slice(s) proved concave",
        # 410 of them with p clamped at the route's terminal value 0
        prob = parse_problem(REGULATOR)
        cert = verify_certificate(prob, regulator_candidate(cert_grid), lambda0=0.5)
        assert cert.adjoints["backward-ode"].grid.size == 1639
        assert cert.sufficiency.passed
        np.testing.assert_array_equal(cert.sufficiency.grid, cert.adjoints["backward-ode"].grid)
        assert cert.sufficiency.slice_ok.size == cert.sufficiency.worst.size == 1639
        assert cert.sufficiency.notes[1:] == (
            "410 knot(s) skipped: past the adjoint's last knot t = 39.9902",
            "1639 slice(s) proved concave: H jointly concave in (x, u) on the "
            "tube times the control box")

    def test_degenerate_multiplier_skips_the_scan(self, cert_grid):
        prob = parse_problem(REGULATOR)
        cand = regulator_candidate(cert_grid)
        cert = verify_certificate(prob, cand, lambda0=0.0)
        assert cert.sufficiency is not None
        assert cert.sufficiency.overall == "not-applicable"


def _stack(*fns):
    """Vector-valued closed form from one function per component."""
    return lambda t: np.stack([f(np.asarray(t, dtype=float)) for f in fns], axis=-1)


def _const(v):
    return lambda t: np.full(np.shape(t), v)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


def no_proof(monkeypatch):
    """Send every slice to the sampled scan."""
    monkeypatch.setattr(sufficiency, "_concave_slices",
                        lambda prob, w, ts, *args: np.zeros(ts.size, dtype=bool))


class TestPerKnotSearch:
    """A proved slice searches the control once per knot, at its center;
    it must abort where the per-point search of the sampled scan aborts."""

    # H = w(u - x^2) + p(u - x) rises without bound in u once w + p > 0, that
    # is for t > 5, by a slope of only 1e-6 w (t/5 - 1).  At t = 5.07 the rise
    # toward the outermost probe stays below 1e-10 |H| at the center, but
    # not at the tube points near x = 0, so the escape starts there
    ESCAPING = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = min

[dynamics]
phi1 = u1 - x1

[objective]
f = 1e12*x1^2 - 1e-6*{b}
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, inf)
"""

    @pytest.mark.parametrize("b", ["u1", "sqrt(1 + u1^2)"], ids=["closed_form", "sampled"])
    def test_escape_at_the_per_point_search_time(self, monkeypatch, b):
        src = self.ESCAPING.format(b=b)
        g = default_grid(50.0, cells=512, refine_zero=False)
        cand = candidate_from_functions(g, lambda t: np.exp(-np.asarray(t)), _const(0.0))
        adj = adjoint_from_function(g, lambda t: -1e-6 * np.exp(-t) * (2.0 - t / 5.0))
        prob = parse_problem(src)
        assert prob.u_quadratic == (b == "u1",)
        # with b = u1 every slice is proved and searched at its center; the
        # sampled b is convex in u, so no slice is proved and both runs scan
        with pytest.raises(UnboundedAbove) as knot:
            check_arrow(prob, cand, adj)
        no_proof(monkeypatch)
        with pytest.raises(UnboundedAbove) as point:
            check_arrow(parse_problem(src), cand, adj)
        assert (knot.value.t, knot.value.coordinate, knot.value.direction) == (
            point.value.t, point.value.coordinate, point.value.direction)
        assert knot.value.t == g[g > 5.0][0] and knot.value.direction == +1

    def test_domain_error_names_the_candidate_control(self):
        # the tube around x = e^{-t} reaches ln's pole; the knots' best
        # control is u = 1 (p = 1), but the error names the candidate's 0.1,
        # where the search starts
        g = default_grid(50.0, cells=512, refine_zero=False)
        cand = candidate_from_functions(g, lambda t: np.exp(-np.asarray(t)), _const(0.1))
        adj = adjoint_from_function(g, lambda t: np.ones(np.shape(t)))
        with pytest.raises(DomainError) as err:
            check_arrow(parse_problem(test_pmp.DISCOUNTED_LOG), cand, adj)
        assert err.value.point["u1"] == 0.1


# problems whose H separates in x and u, with a candidate and adjoint each;
# none of them needs to be optimal, the check only reads them
_SEPARABLE = {
    "regulator": (REGULATOR, [lambda t: 2.0 * np.exp((1 - SQRT2) * t)],
                  [lambda t: -2.0 * (1 + SQRT2) * np.exp((1 - SQRT2) * t)], [regulator_p]),
    "antiregulator": (ANTIREGULATOR, [lambda t: 2.0 * np.exp((1 - SQRT2) * t)],
                      [lambda t: -2.0 * (1 + SQRT2) * np.exp((1 - SQRT2) * t)], [regulator_p]),
    "constrained": (test_pmp.CONSTRAINED, [lambda t: 2.0 * np.exp(-0.4 * t)],
                    [_const(-0.5)], [lambda t: -0.5 * np.exp(-2.0 * t)]),
    "two_state": (test_pmp.TWO_STATE, [lambda t: 0.0 * t, lambda t: np.exp(-t)],
                  [_const(0.0)], [lambda t: 0.0 * t, lambda t: -0.4 * np.exp(-4.0 * t)]),
    "two_controls": (test_pmp.TWO_CONTROLS, [lambda t: np.exp(-t)],
                     [_const(0.3), _const(0.8)], [lambda t: -0.2 * np.exp(-t)]),
    "two_peaks": (test_pmp.TWO_PEAKS, [lambda t: np.exp(-t)], [_const(0.49)],
                  [lambda t: 0.0 * t]),
    "abs_kink": (test_pmp.ABS_KINK, [lambda t: np.exp(-t)], [_const(0.3)],
                 [lambda t: 0.2 * np.exp(-t)]),
}


# every problem of the test suite with a closed-form candidate and adjoint:
# (source, state, control, adjoint, mode, how many usable slices the proof takes)
_CLOSED_FORMS = {
    **{name: (*spec, "strong", "all") for name, spec in _SEPARABLE.items()
       if name in ("regulator", "constrained", "two_state", "two_controls")},
    **{name: (*spec, "strong", "none") for name, spec in _SEPARABLE.items()
       if name in ("antiregulator", "two_peaks", "abs_kink")},
    "regulator_weak": (REGULATOR + "eta = exp_decay 0.1\n", *_SEPARABLE["regulator"][1:],
                       "weak", "all"),
    "extraction": (test_pmp.EXTRACTION, [lambda t: np.exp(0.5 * (1.0 - np.exp(-t)))],
                   [_const(0.25)], [lambda t: 0.0 * t], "strong", "all"),
    "investment": (INVESTMENT, [lambda t: np.exp(0.5 * t)], [_const(0.5)],
                   [lambda t: 2.0 * np.exp(-t)], "strong", "none"),
    "undiscounted": (test_pmp.UNDISCOUNTED, [lambda t: np.exp(-t)], [_const(1.0)],
                     [lambda t: -1.0 + 0.0 * t], "strong", "none"),
    "interior_bang": (test_pmp.UNDISCOUNTED, [lambda t: np.exp(-0.5 * t)], [_const(0.5)],
                      [lambda t: -1.0 + 0.0 * t], "strong", "none"),
    "discounted_log": (test_pmp.DISCOUNTED_LOG, [lambda t: np.exp(-t)], [_const(0.0)],
                       [lambda t: -1.0 + 0.0 * t], "weak", "none"),
    "discounted_log_strong": (test_pmp.DISCOUNTED_LOG, [lambda t: np.exp(-t)], [_const(0.0)],
                              [lambda t: -1.0 + 0.0 * t], "strong", "none"),
}


def _proved_slices(monkeypatch, check, *args, **kwargs):
    """Run ``check``, recording the times the proof took; returns the
    check's result or exception, and those times."""
    prove = sufficiency._concave_slices
    proved = []

    def recorded(prob, w, ts, *rest):
        mask = prove(prob, w, ts, *rest)
        proved.append((ts, mask))
        return mask

    monkeypatch.setattr(sufficiency, "_concave_slices", recorded)
    try:
        out = check(*args, **kwargs)
    except (UnboundedAbove, DomainError) as e:
        out = e
    monkeypatch.undo()
    return out, proved


class TestConcavityProof:
    """Slices proved concave through the Hessian, against the sampled scan."""

    @pytest.mark.parametrize("name", list(_CLOSED_FORMS))
    def test_proved_slices_pass_the_sampled_scan(self, monkeypatch, name):
        src, xf, uf, pf, mode, expect = _CLOSED_FORMS[name]
        g = default_grid(50.0, cells=256, refine_zero=False)
        prob = parse_problem(src)
        cand = candidate_from_functions(g, _stack(*xf), _stack(*uf))
        adj = adjoint_from_function(g, _stack(*pf))
        proved_rep, calls = _proved_slices(monkeypatch, check_arrow, prob, cand, adj,
                                           mode=mode)
        (ts, mask), = calls
        assert bool(np.all(mask)) if expect == "all" else not np.any(mask)
        no_proof(monkeypatch)
        try:
            scanned = check_arrow(parse_problem(src), cand, adj, mode=mode)
        except (UnboundedAbove, DomainError) as e:
            # a scan that aborts had nothing proved to abort on instead
            assert not np.any(mask) and type(e) is type(proved_rep)
            assert str(e) == str(proved_rep)
            return
        assert not isinstance(proved_rep, Exception), proved_rep
        # the report's arrays hold the judged knots, which the proof saw
        np.testing.assert_array_equal(scanned.grid, ts)
        k = np.flatnonzero(mask)
        assert np.all(scanned.slice_ok[k]), ts[k][~scanned.slice_ok[k]]
        # the proof changes the sampled slices' verdicts nowhere else
        assert proved_rep.overall == scanned.overall
        assert _bits(proved_rep.slice_ok) == _bits(scanned.slice_ok)
        assert proved_rep.worst[k].tobytes() == np.zeros(k.size).tobytes()
        rest = np.flatnonzero(~mask)
        assert _bits(proved_rep.worst[rest]) == _bits(scanned.worst[rest])
        assert (proved_rep.witness is None) == (scanned.witness is None)
        if name in ("antiregulator", "discounted_log"):  # H0 is convex in x
            assert scanned.overall == "fail"
        if mask.any():
            assert f"{int(mask.sum())} slice(s) proved concave" in " ".join(proved_rep.notes)

    def test_the_hessians_are_built_on_first_use(self, reg_setup):
        # parsing, which the benchmark times as set-up, does not pay for them
        prob = parse_problem(REGULATOR)
        assert "_curvature" not in vars(prob)
        _, cand, adj = reg_setup
        check_arrow(prob, cand, adj)
        rows, _ = vars(prob)["_curvature"]
        assert [str(e) for e in rows[0]] == ["1.0", "0.0", "1.0"]

    def test_a_tube_leaving_the_domain_of_phi_is_scanned_where_p_vanishes(self, monkeypatch):
        # EXTRACTION has p = 0, so phi drops out of the Hessian; but a tube of
        # radius 2 around x ~ 1.6 reaches ln(x1) <= 0, and the scan names the
        # point there as it does without the proof
        src, xf, uf, pf, *_ = _CLOSED_FORMS["extraction"]
        g = default_grid(50.0, cells=256, refine_zero=False)
        cand = candidate_from_functions(g, _stack(*xf), _stack(*uf))
        adj = adjoint_from_function(g, _stack(*pf))
        err, calls = _proved_slices(monkeypatch, check_arrow, parse_problem(src), cand, adj,
                                    gamma=2.0)
        assert isinstance(err, DomainError)
        (_, mask), = calls
        assert not np.any(mask)
        no_proof(monkeypatch)
        with pytest.raises(DomainError) as scanned:
            check_arrow(parse_problem(src), cand, adj, gamma=2.0)
        assert str(scanned.value) == str(err)

    def test_a_nonconvex_control_set_proves_nothing(self, monkeypatch):
        src = REGULATOR + "\n[controls]\nu1 = [-9, 9]\nconvex = false\n"
        g = default_grid(50.0, cells=256, refine_zero=False)
        _, calls = _proved_slices(monkeypatch, check_arrow, parse_problem(src),
                                  regulator_candidate(g), adjoint_from_function(g, regulator_p))
        (_, mask), = calls
        assert not np.any(mask)

    def test_a_kink_inside_the_box_proves_nothing(self):
        # H = +w |u - 0.3|: its symbolic Hessian reads 0, but it is convex in u
        src = test_pmp.ABS_KINK.replace("abs(u1 - 0.3)", "-abs(u1 - 0.3)")
        prob = parse_problem(src)
        g = default_grid(50.0, cells=64, refine_zero=False)
        ts, centers = g, np.exp(-g)[:, None]
        w = np.asarray(prob.omega(ts), dtype=float)
        rows, kinks = prob._curvature
        assert all(e == Num(0.0) for row in rows for e in row)
        assert [str(e) for e in kinks[0]] == ["u1 - 0.3"]
        proved = sufficiency._concave_slices(prob, w, ts, centers, np.full(g.size, 0.5),
                                             np.zeros((g.size, 1)))
        assert not np.any(proved)
        # with the kink outside the box the same Hessian proves the slice
        away = parse_problem(src.replace("u1 = [0, 1]", "u1 = [0.5, 1]"))
        assert np.all(sufficiency._concave_slices(away, w, ts, centers,
                                                  np.full(g.size, 0.5),
                                                  np.zeros((g.size, 1))))

    @pytest.mark.parametrize("proved_first", [False, True])
    def test_a_mixed_escape_names_the_earliest_knot(self, monkeypatch, proved_first):
        # H = w u + p (x u - x) on u >= 0 climbs without bound at every knot.
        # Where p = 0 it is linear and proved concave; where p != 0 the term
        # p x u is bilinear and the slice is sampled.  Both sets escape, and
        # the abort names the knot a scan of every slice names
        src = """
[problem]
n = 1
m = 1
x0 = 1.0
sense = max

[dynamics]
phi1 = x1*u1 - x1

[objective]
f = u1
omega = exp_decay 1.0

[space]
nu = exp_decay 1.0

[controls]
u1 = [0, inf)
"""
        g = default_grid(50.0, cells=256, refine_zero=False)
        cand = candidate_from_functions(g, _stack(np.exp), _stack(_const(0.5)))
        on = (lambda t: t >= 25.0) if proved_first else (lambda t: t < 25.0)
        adj = adjoint_from_function(g, _stack(lambda t: np.where(on(t), 1.0, 0.0)))
        err, calls = _proved_slices(monkeypatch, check_arrow, parse_problem(src), cand, adj)
        (ts, mask), = calls
        assert np.any(mask) and not np.all(mask)
        assert isinstance(err, UnboundedAbove) and err.t == 0.0
        no_proof(monkeypatch)
        with pytest.raises(UnboundedAbove) as scanned:
            check_arrow(parse_problem(src), cand, adj)
        assert str(scanned.value) == str(err)

    @pytest.mark.parametrize("name", ["investment", "undiscounted", "discounted_log"])
    def test_certificates_keep_their_arrow_outcome(self, monkeypatch, name):
        # none of these slices is proved, except UNDISCOUNTED's terminal
        # knot, where the routes end on p = 0 and H = -w x is linear
        cells = {"investment": 2048, "undiscounted": 512, "discounted_log": 512}[name]
        src, xf, uf, *_ = _CLOSED_FORMS[name]
        g = default_grid(50.0, cells=cells, refine_zero=False)
        cand = candidate_from_functions(g, _stack(*xf), _stack(*uf))
        proved, _ = _proved_slices(monkeypatch, verify_certificate, parse_problem(src), cand)
        no_proof(monkeypatch)
        scanned = verify_certificate(parse_problem(src), cand)
        aborted = lambda cert: [n for n in cert.notes if n.startswith("concavity scan aborted")]
        assert aborted(proved) == aborted(scanned)
        if name == "investment":
            assert "toward -inf at t=50" in aborted(proved)[0]
        if name == "discounted_log":
            assert aborted(proved) == ["concavity scan aborted: ln of non-positive "
                                       "argument at t=0.78125, x1=-0.0421666, u1=0"]
        arrow = lambda cert: cert.sufficiency and (cert.sufficiency.overall,
                                                   cert.sufficiency.witness is None,
                                                   _bits(cert.sufficiency.slice_ok))
        assert arrow(proved) == arrow(scanned)
        assert (proved.sufficiency is None) == (name != "undiscounted")

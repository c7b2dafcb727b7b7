"""Maximized-Hamiltonian concavity scans and their analytic oracles."""

import numpy as np
import pytest

import test_pmp
from pmpcheck import sufficiency
from pmpcheck.expressions import DomainError
from pmpcheck.integrate import default_grid
from pmpcheck.pmp import (
    UnboundedAbove,
    adjoint_from_function,
    pontryagin_H,
    verify_certificate,
)
from pmpcheck.problem import candidate_from_functions, parse_problem
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

    def test_state_free_cost_term_shifts_nothing(self, grid):
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
        assert any("weight pole" in note for note in rep.notes)

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


# separable problems with a candidate and adjoint each; none of them needs
# to be optimal, the scan only reads them
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


def _pieces(name, cells=512):
    src, xf, uf, pf = _SEPARABLE[name]
    g = default_grid(50.0, cells=cells, refine_zero=False)
    return (parse_problem(src), candidate_from_functions(g, _stack(*xf), _stack(*uf)),
            adjoint_from_function(g, _stack(*pf)))


def _per_point(prob):
    """The problem with the scan forced onto one control search per tube point."""
    object.__setattr__(prob, "u_separable", False)
    return prob


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


class TestPerKnotSearch:
    """A separable H is searched once per knot, with the per-point result."""

    @pytest.mark.parametrize("name", list(_SEPARABLE))
    def test_same_report_as_the_per_point_search(self, name):
        prob, cand, adj = _pieces(name)
        assert prob.u_separable
        knot = check_arrow(prob, cand, adj)
        point = check_arrow(_per_point(parse_problem(_SEPARABLE[name][0])), cand, adj)
        for f in ("grid", "slice_ok", "radii", "centers", "pair_offsets"):
            assert _bits(getattr(knot, f)) == _bits(getattr(point, f)), f
        assert (knot.premise, knot.premise_ok, knot.tolerance, knot.notes) == (
            point.premise, point.premise_ok, point.tolerance, point.notes)
        assert (knot.witness is None) == (point.witness is None)
        if knot.witness is not None:
            assert [_bits(v) for v in knot.witness] == [_bits(v) for v in point.witness]
        if name == "two_peaks":
            # two equal peaks: which one a search keeps is a matter of roundoff
            h = pontryagin_H(prob, cand.grid, cand.x, cand.u, adj.p, 1.0)
            assert np.all(np.abs(knot.worst - point.worst) <= 1e-15 * (1.0 + np.abs(h)))
        else:
            assert _bits(knot.worst) == _bits(point.worst)
        if name == "antiregulator":
            assert knot.overall == "fail"

    def test_one_search_per_knot(self, monkeypatch, cert_grid):
        prob = parse_problem(REGULATOR)
        cand = regulator_candidate(cert_grid)
        adj = adjoint_from_function(cert_grid, regulator_p)
        rows = []

        def counted(prob, w, ts, *args):
            rows.append(ts.size)
            return sup_over_u(prob, w, ts, *args)

        sup_over_u = sufficiency._sup_over_u
        monkeypatch.setattr(sufficiency, "_sup_over_u", counted)
        rep = check_arrow(prob, cand, adj)
        assert rep.passed and rep.notes == ()
        assert rows == [cert_grid.size]
        # the per-point search takes all 164 distinct tube points of each knot
        rows.clear()
        check_arrow(_per_point(prob), cand, adj)
        assert rows == [164 * cert_grid.size]

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
    def test_escape_at_the_per_point_search_time(self, b):
        src = self.ESCAPING.format(b=b)
        g = default_grid(50.0, cells=512, refine_zero=False)
        cand = candidate_from_functions(g, lambda t: np.exp(-np.asarray(t)), _const(0.0))
        adj = adjoint_from_function(g, lambda t: -1e-6 * np.exp(-t) * (2.0 - t / 5.0))
        prob = parse_problem(src)
        assert prob.u_separable
        assert prob.u_quadratic == (b == "u1",)
        with pytest.raises(UnboundedAbove) as knot:
            check_arrow(prob, cand, adj)
        with pytest.raises(UnboundedAbove) as point:
            check_arrow(_per_point(parse_problem(src)), cand, adj)
        assert (knot.value.t, knot.value.coordinate, knot.value.direction) == (
            point.value.t, point.value.coordinate, point.value.direction)
        assert knot.value.t == g[g > 5.0][0] and knot.value.direction == +1

    def test_domain_error_names_the_candidate_control(self):
        # the tube around x = e^{-t} reaches ln's pole; the knots' best
        # control is u = 1 (p = 1), but the error names the candidate's 0.1
        g = default_grid(50.0, cells=512, refine_zero=False)
        cand = candidate_from_functions(g, lambda t: np.exp(-np.asarray(t)), _const(0.1))
        adj = adjoint_from_function(g, lambda t: np.ones(np.shape(t)))
        errors = []
        for prob in (parse_problem(test_pmp.DISCOUNTED_LOG),
                     _per_point(parse_problem(test_pmp.DISCOUNTED_LOG))):
            with pytest.raises(DomainError) as err:
                check_arrow(prob, cand, adj)
            errors.append(err.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].point == errors[1].point
        assert errors[0].point["u1"] == 0.1

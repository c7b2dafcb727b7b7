import numpy as np
import pytest

from pmpcheck.integrate import (
    BlowUp,
    InvalidGrid,
    decays_to_zero,
    default_grid,
    holder_pairing_check,
    improper_integral,
    improper_verdict,
    solve_ode,
    w1_norm,
    weighted_norm,
)

SQRT2 = np.sqrt(2.0)


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
        res = improper_integral(lambda t: np.exp(-3 * t), t_max=30.0, cells=512)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_error_bound_honest_under_refinement(self):
        f = lambda t: np.sin(t) ** 2 * np.exp(-t)
        a = improper_integral(f, t_max=40.0, cells=256)
        b = improper_integral(f, t_max=40.0, cells=512)
        assert abs(a.value - b.value) <= a.error + 1e-12

    def test_partials_monotone_for_nonnegative_integrand(self):
        res = improper_integral(lambda t: np.exp(-t), t_max=20.0, cells=128)
        assert np.all(np.diff(res.partials) >= 0)
        assert res.partials[0] == 0.0

    def test_integrable_pole_at_zero(self):
        # int_0^inf t^(-1/2) e^(-sqrt(t)) dt = 2 (substitute s = sqrt(t))
        f = lambda t: t**-0.5 * np.exp(-np.sqrt(t))
        res = improper_integral(f, grid=default_grid(200.0, cells=2048))
        assert res.value == pytest.approx(2.0, abs=5e-6)


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
            t_max=100.0,
        )
        assert rec.verdict == "converged"
        assert rec.tail_estimate == pytest.approx(1.0 / 101.0)


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
        # y' = y cos t, y(0)=1, y = e^{sin t}; halving cells must cut the
        # endpoint error by at least 2^4 (the scheme is 5th order)
        rhs = lambda t, y: y * np.cos(t)
        exact = np.exp(np.sin(2.0))
        errs = []
        for cells in (16, 32):
            grid = np.linspace(0.0, 2.0, cells + 1)
            y = solve_ode(rhs, grid, 1.0, fixed_steps=1)
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


class TestWeightedNorm:
    def test_exponential_pair(self):
        # |e^{-t}|_{L_2(e^{-t})} = (int e^{-3t})^{1/2} = (1/3)^{1/2}
        grid = default_grid(40.0, cells=512)
        res = weighted_norm(lambda t: np.exp(-t), lambda t: np.exp(-t), 2.0, grid)
        assert res.value == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-9)
        assert not res.grid_limited

    def test_zero_function(self):
        grid = default_grid(10.0, cells=64)
        res = weighted_norm(lambda t: np.zeros_like(t), lambda t: np.exp(-t), 2.0, grid)
        assert res.value == 0.0

    def test_sup_norm_is_grid_limited(self):
        grid = default_grid(10.0, cells=64)
        res = weighted_norm(lambda t: np.exp(-t), lambda t: np.exp(-t), np.inf, grid)
        assert res.grid_limited
        assert res.value == pytest.approx(1.0)

    def test_absolute_homogeneity(self):
        grid = default_grid(30.0, cells=256)
        rng = np.random.default_rng(7)
        base = weighted_norm(lambda t: np.exp(-t), lambda t: np.exp(-t), 2.5, grid)
        for _ in range(10):
            c = rng.uniform(-5.0, 5.0)
            scaled = weighted_norm(
                lambda t: c * np.exp(-t), lambda t: np.exp(-t), 2.5, grid
            )
            assert scaled.value == pytest.approx(abs(c) * base.value, rel=1e-10)

    def test_exponent_below_one_rejected(self):
        grid = default_grid(10.0, cells=64)
        with pytest.raises(ValueError):
            weighted_norm(lambda t: np.exp(-t), lambda t: np.exp(-t), 0.5, grid)

    def test_w1_norm_regulator_path(self):
        # x(t) = 2 e^{(1-sqrt2) t}, nu = e^{-4.5 t}, p = 2:
        # |x| + |x'| = (1 + (sqrt2 - 1)) * 2 / sqrt(2.5 + 2 sqrt2)
        #            = 1.2253085903954437  (closed form; mpmath 30-digit
        #              and scipy.integrate.quad agree)
        grid = default_grid(40.0, cells=1024)
        rate = 1.0 - SQRT2
        x = lambda t: 2.0 * np.exp(rate * t)
        dx = lambda t: 2.0 * rate * np.exp(rate * t)
        nu = lambda t: np.exp(-4.5 * t)
        res = w1_norm(x, dx, nu, 2.0, grid)
        assert res.value == pytest.approx(1.2253085903954437, rel=1e-9)


class TestHolderPairing:
    def test_cauchy_schwarz_equality_case(self):
        grid = default_grid(40.0, cells=512)
        e = lambda t: np.exp(-t)
        rec = holder_pairing_check(e, e, e, 2.0, grid)
        assert rec.holds
        assert rec.lhs == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert rec.ratio == pytest.approx(1.0, rel=1e-9)

    def test_zero_function_trivially_holds(self):
        grid = default_grid(10.0, cells=64)
        rec = holder_pairing_check(
            lambda t: np.zeros_like(t), lambda t: np.exp(-t), lambda t: np.exp(-t), 2.0, grid
        )
        assert rec.holds
        assert rec.lhs == 0.0

    def test_random_decaying_pairs_never_violate(self):
        grid = default_grid(30.0, cells=256)
        rng = np.random.default_rng(42)
        nu = lambda t: np.exp(-t)
        for _ in range(20):
            a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
            r1, r2 = rng.uniform(0.2, 1.5, size=2)
            x = lambda t: (a + b * t) * np.exp(-r1 * t)
            y = lambda t: (c + d * np.sin(t)) * np.exp(-r2 * t)
            p = rng.uniform(1.2, 4.0)
            rec = holder_pairing_check(x, y, nu, p, grid)
            assert rec.holds

    def test_requires_finite_exponent_above_one(self):
        grid = default_grid(10.0, cells=64)
        with pytest.raises(ValueError):
            holder_pairing_check(
                lambda t: np.exp(-t), lambda t: np.exp(-t), lambda t: np.exp(-t), 1.0, grid
            )

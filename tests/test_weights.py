from dataclasses import replace

import numpy as np
import pytest

from pmpcheck import weights
from pmpcheck.expressions import DomainError
from pmpcheck.integrate import MissingTailBound
from pmpcheck.weights import (
    InvalidExponent,
    NonPositiveWeight,
    WeightSpec,
    check_distribution,
    check_tube_scale,
    check_weight_properties,
    exp_decay,
    from_expression,
    power,
    weibull,
)


def _bare_weight(label, value):
    """A hand-built weight whose derivative reads 0, as a step weight's does off its jumps."""
    return WeightSpec(label, value, deriv=lambda t: np.zeros(np.shape(t)),
                      log_value=lambda t: np.log(value(t)))


class TestFamilies:
    def test_exp_decay_tail_bound_is_exact(self):
        from scipy.integrate import quad

        nu = exp_decay(2.0)
        for T in (1.0, 5.0, 9.0):
            true_tail = quad(lambda t: np.exp(-2 * t), T, np.inf)[0]
            assert nu.tail_bound(T) == pytest.approx(true_tail, rel=1e-10)

    def test_weibull_mass_is_inverse_shape(self):
        from scipy.integrate import quad

        # int_0^inf t^(k-1) e^(-t^k) dt = 1/k
        for k in (0.3, 0.5, 1.0):
            w = weibull(k)
            mass = quad(lambda t: w(np.atleast_1d(t))[0], 0, np.inf, limit=200)[0]
            assert mass == pytest.approx(1.0 / k, rel=1e-7)

    def test_weibull_tail_bound_is_exact(self):
        import mpmath as mp

        w = weibull(0.5)
        for T in (1.0, 4.0, 25.0):
            true_tail = mp.quad(lambda t: mp.sqrt(1 / t) * mp.e ** (-mp.sqrt(t)), [T, mp.inf])
            assert w.tail_bound(T) == pytest.approx(float(true_tail), rel=1e-10)

    def test_power_tail_bound(self):
        nu = power(2.0)
        # int_T^inf (1+t)^-2 = 1/(1+T)
        assert nu.tail_bound(9.0) == pytest.approx(0.1)
        assert power(1.0).tail_bound is None

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_family_exponent_validation(self, bad):
        with pytest.raises(InvalidExponent):
            exp_decay(bad)
        with pytest.raises(InvalidExponent):
            power(bad)
        with pytest.raises(InvalidExponent):
            weibull(bad)

    def test_weibull_shape_above_one_rejected(self):
        with pytest.raises(InvalidExponent):
            weibull(1.5)

    def test_expression_weight_has_symbolic_derivative(self):
        nu = from_expression("exp(-1.5*t)")
        ts = np.linspace(0.0, 5.0, 21)
        np.testing.assert_allclose(nu.deriv(ts), -1.5 * np.exp(-1.5 * ts), rtol=1e-12)

    def test_expression_weight_rejects_state_variables(self):
        with pytest.raises(ValueError, match="x1"):
            from_expression("exp(-t) * x1")

    def test_expression_pole_defaults_to_unknown(self):
        assert from_expression("exp(-t)").pole_exp is None


class TestPoleRule:
    """A declared pole reads +inf at t = 0; the expression is evaluated elsewhere."""

    def test_declared_pole_reads_inf_at_zero_and_the_expression_elsewhere(self):
        w = from_expression("t^(-0.5)*exp(-t^0.5)", pole_exp=-0.5)
        t = np.array([0.0, 1e-12, 0.3, 2.0, 50.0])
        got = w(t)
        assert got[0] == np.inf
        np.testing.assert_array_equal(got[1:], t[1:] ** -0.5 * np.exp(-np.sqrt(t[1:])))
        assert w(0.0) == np.inf and w(4.0) == 0.5 * np.exp(-2.0)
        assert w(np.zeros((2, 3))).shape == (2, 3)

    def test_weights_without_a_declared_pole_are_evaluated_at_zero(self):
        with pytest.raises(DomainError):
            from_expression("t^(-0.5)")(np.array([0.0, 1.0]))
        assert from_expression("exp(-t)", pole_exp=0.0)(0.0) == 1.0

    @pytest.mark.parametrize("family,text", [
        (exp_decay(2.0), "exp(-2.0*t)"),
        (power(2.5), "(1 + t)^(-2.5)"),
        (weibull(0.5), "t^(-0.5)*exp(-t^0.5)"),
    ])
    def test_families_are_expression_weights_with_their_label(self, family, text):
        w = from_expression(text)
        t = np.geomspace(1e-9, 1e3, 50)
        for part in ("value", "deriv", "log_value"):
            np.testing.assert_array_equal(getattr(family, part)(t), getattr(w, part)(t))
        assert family.label.split()[0] in ("exp_decay", "power", "weibull")


class TestWeightProperties:
    def test_exponential_passes_everything(self):
        rep = check_weight_properties(exp_decay(1.0))
        assert rep.verdicts == {k: "pass" for k in ("E1", "E2", "E3", "E4", "E5")}
        assert rep.all_pass

    def test_power_passes_with_k_equal_exponent(self):
        rep = check_weight_properties(power(2.0))
        assert rep.all_pass

    def test_harmonic_decay_fails_vanishing_and_integrability(self):
        rep = check_weight_properties(power(1.0))
        assert rep.verdicts["E5"] == "fail"
        assert rep.verdicts["E3"] == "fail"
        # witness value approaches the nonzero limit of t*w(t)
        t_w, val_w = rep.witnesses["E5"]
        assert val_w == pytest.approx(1.0, abs=0.01)

    def test_gaussian_profile_fails_derivative_bound(self):
        rep = check_weight_properties(from_expression("exp(-t^2)", pole_exp=0.0))
        assert rep.verdicts["E4"] == "fail"
        t_w, ratio = rep.witnesses["E4"]
        # the ratio |w'|/w = 2t at the witness point
        assert ratio == pytest.approx(2.0 * t_w, rel=1e-6)
        assert rep.verdicts["E1"] == "pass"

    def test_weak_mode_drops_the_vanishing_property(self):
        rep = check_weight_properties(exp_decay(1.0), mode="weak")
        assert set(rep.verdicts) == {"F1", "F2", "F3", "F4"}
        assert rep.all_pass

    def test_negative_weight_is_a_hard_error(self):
        with pytest.raises(NonPositiveWeight):
            check_weight_properties(from_expression("1 - t"))

    def test_genuine_zero_is_a_hard_error(self):
        dead = _bare_weight("drops-dead", lambda t: np.where(np.asarray(t) < 1.0, 1.0, 0.0))
        with pytest.raises(NonPositiveWeight) as err:
            check_weight_properties(dead)
        assert err.value.t == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("nu", [
        weibull(0.5),
        from_expression("t^(-0.5)*exp(-t^0.5)", tail_bound=lambda T: 2 * np.exp(-T**0.5),
                        pole_exp=-0.5),
    ], ids=["family", "expression"])
    def test_declared_pole_fails_continuity_at_zero(self, nu):
        seen = []

        def spy(fn):
            return lambda t: seen.append(np.asarray(t, dtype=float)) or fn(t)

        rep = check_weight_properties(
            replace(nu, deriv=spy(nu.deriv), log_value=spy(nu.log_value)))
        assert rep.verdicts["E1"] == "fail"
        assert rep.witnesses["E1"] == (0.0, np.inf)
        assert any("E1" in n and "pole" in n for n in rep.notes)
        assert seen and not any(np.any(t == 0.0) for t in seen)

    @pytest.mark.parametrize("nu", [
        weibull(0.5),
        from_expression("t^(-0.5)*exp(-t^0.5)", tail_bound=lambda T: 2 * np.exp(-T**0.5),
                        pole_exp=-0.5),
    ], ids=["family", "expression"])
    def test_declared_pole_fails_the_derivative_bound_and_its_mass(self, nu):
        # |w'|/w = 0.5/t + 0.5/sqrt(t) is unbounded as t -> 0, and the
        # derivative's mass over [t, 50], w(t) - w(50), grows without bound
        rep = check_weight_properties(nu)
        t1 = 1e-6  # the first positive time of the property grid
        assert rep.verdicts["E4"] == "fail"
        t_w, ratio = rep.witnesses["E4"]
        assert t_w == t1
        assert ratio == pytest.approx(0.5 / t1 + 0.5 / np.sqrt(t1), rel=1e-9)
        assert any("E4" in n and "pole" in n for n in rep.notes)
        assert rep.verdicts["E3"] == "fail"
        t_m, mass = rep.witnesses["E3"]
        assert t_m == t1
        assert mass == pytest.approx(nu(t1) - nu(50.0), rel=1e-12)

    def test_divergent_derivative_mass_is_the_integrability_witness(self):
        # w = (2 + sin t^2) / (1 + t)^2 has mass below 3, but |w'| carries
        # 2t |cos t^2| / (1 + t)^2, whose mass grows like (4/pi) ln T
        rep = check_weight_properties(from_expression("(2 + sin(t^2)) * (1 + t)^-2",
                                                      pole_exp=0.0))
        assert rep.verdicts["E3"] == "fail"
        t_m, mass = rep.witnesses["E3"]
        assert t_m == 1e4 and mass > 4 / np.pi * (np.log(1e4) - 2)

    def test_underflow_is_tolerated_with_note(self):
        rep = check_weight_properties(exp_decay(20.0))
        assert rep.all_pass
        assert any("underflow" in n for n in rep.notes)

    def test_jump_fails_continuity_with_witness(self):
        jumpy = _bare_weight("half-step", lambda t: np.where(np.asarray(t) < 1.0, 1.0, 0.5))
        rep = check_weight_properties(jumpy)
        assert rep.verdicts["E1"] == "fail"
        t_w, _ = rep.witnesses["E1"]
        assert abs(t_w - 1.0) < 0.05

    def test_growth_fails_monotonicity(self):
        rep = check_tube_scale(from_expression("1 + t", pole_exp=0.0))
        assert rep.verdicts["F6"] == "fail"

    def test_every_fail_has_a_witness(self):
        for nu in (power(1.0), from_expression("exp(-t^2)", pole_exp=0.0)):
            rep = check_weight_properties(nu)
            for name, verdict in rep.verdicts.items():
                if verdict == "fail":
                    assert name in rep.witnesses

    def test_verdicts_stable_under_grid_refinement(self, monkeypatch):
        nus = (exp_decay(1.0), power(2.0), power(1.0))
        monkeypatch.setattr(weights, "_PROPERTY_POINTS", 2048)
        coarse = [check_weight_properties(nu).verdicts for nu in nus]
        monkeypatch.setattr(weights, "_PROPERTY_POINTS", 4096)
        assert [check_weight_properties(nu).verdicts for nu in nus] == coarse

    def test_deterministic(self):
        a = check_weight_properties(exp_decay(4.5))
        b = check_weight_properties(exp_decay(4.5))
        assert a.verdicts == b.verdicts and a.witnesses == b.witnesses


class TestDistribution:
    def test_exponential_mass(self):
        rep = check_distribution(exp_decay(2.0))
        assert rep.verdicts["E6"] == "pass"
        assert "0.5" in rep.notes[0]

    def test_constant_is_not_integrable(self):
        rep = check_distribution(from_expression("1", pole_exp=0.0))
        assert rep.verdicts["E6"] == "fail"

    def test_weibull_pole_is_integrable(self):
        rep = check_distribution(weibull(0.5))
        assert rep.verdicts["E6"] == "pass"

    def test_weak_mode_rejects_signed_density(self):
        rep = check_distribution(from_expression("cos(t)", pole_exp=0.0), mode="weak")
        assert rep.verdicts["F5"] == "fail"
        t_w, v_w = rep.witnesses["F5"]
        assert v_w < 0

    def test_strong_mode_signed_density_fails_on_mass(self):
        rep = check_distribution(from_expression("cos(t)", pole_exp=0.0), mode="strong")
        assert rep.verdicts["E6"] == "fail"

    def test_missing_tail_bound_raises(self):
        with pytest.raises(MissingTailBound):
            check_distribution(from_expression("(1 + t)^-1.05", pole_exp=0.0))


class TestLogForm:
    """``from_expression(...).log_value``, which Michel's weight ratio and
    the normality envelope read instead of the value."""

    def test_exponential_is_exact_where_its_value_underflows(self):
        w = from_expression("exp(-3*t)", pole_exp=0.0)
        t = np.array([1.0e3])
        assert w(t)[0] == 0.0
        assert w.log_value(t)[0] == -3000.0

    def test_products_quotients_and_powers_are_sums_of_logs(self):
        t = np.array([0.5, 2.0, 50.0, 400.0])
        cases = {
            "2*exp(-t)": np.log(2.0) - t,
            "exp(-t)/(1 + t)^2": -t - 2.0 * np.log1p(t),
            "(exp(-t))^3 * t": -3.0 * t + np.log(t),
            "sqrt(exp(-4*t)) / 5": -2.0 * t - np.log(5.0),
        }
        for text, expected in cases.items():
            got = from_expression(text, pole_exp=0.0).log_value(t)
            np.testing.assert_allclose(got, expected, rtol=1e-13, err_msg=text)
            assert np.all(np.isfinite(got)), text

    def test_sums_fall_back_to_the_log_of_the_value(self):
        w = from_expression("exp(-3*t) + exp(-4*t)", pole_exp=0.0)
        t = np.array([1.0, 10.0, 1.0e3])
        got = w.log_value(t)
        np.testing.assert_allclose(got[:2], np.log(np.exp(-3 * t[:2]) + np.exp(-4 * t[:2])),
                                   rtol=1e-14)
        # the sum underflows to 0 and no exact decomposition exists
        assert got[2] == -np.inf

class TestTubeScale:
    def test_decaying_radius_passes(self):
        assert check_tube_scale(exp_decay(1.0)).verdicts["F6"] == "pass"

    def test_constant_radius_passes(self):
        assert check_tube_scale(from_expression("0.5", pole_exp=0.0)).verdicts["F6"] == "pass"

    def test_negative_radius_fails_without_raising(self):
        rep = check_tube_scale(from_expression("1 - t", pole_exp=0.0))
        assert rep.verdicts["F6"] == "fail"

    def test_domain_error_in_radius_fails_with_note(self):
        rep = check_tube_scale(from_expression("sqrt(2 - t)", pole_exp=0.0))
        assert rep.verdicts["F6"] == "fail"
        assert any("evaluation failed" in n for n in rep.notes)

    def test_broken_callable_propagates(self):
        def broken(t):
            raise TypeError("broken radius")

        with pytest.raises(TypeError, match="broken radius"):
            check_tube_scale(_bare_weight("broken", broken))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmpcheck.expressions import (
    DomainError,
    ExpressionSyntaxError,
    _emit,
    parse_expression,
)


class TestParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2 + 3 * 4", 14.0),
            ("(2 + 3) * 4", 20.0),
            ("2 ^ 3 ^ 2", 512.0),  # right associative
            ("-2 ^ 2", -4.0),  # unary minus binds looser than ^
            ("2 ^ -3", 0.125),
            ("6 / 3 / 2", 1.0),  # left associative
            ("10 - 3 - 2", 5.0),
            ("1e-3 + 1", 1.001),
            (".5 * 4", 2.0),
            ("pow(2, 10)", 1024.0),
            ("abs(-3.5)", 3.5),
            ("+4", 4.0),
        ],
    )
    def test_arithmetic(self, text, value):
        assert parse_expression(text)() == pytest.approx(value)

    def test_variables_collected(self):
        e = parse_expression("t * x1 + u1 * x2")
        assert e.variables() == {"t", "x1", "x2", "u1"}

    def test_roundtrip_preserves_meaning(self):
        e = parse_expression("-(x1 + 2) ^ 2 / (1 - u1)")
        again = parse_expression(str(e))
        env = {"x1": 0.7, "u1": -0.3}
        assert again.ev(env) == pytest.approx(e.ev(env))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("2 +", "expected a value"),
            ("2 + * 3", "expected a value"),
            ("(1 + 2", "expected ')'"),
            ("1 ) 2", "trailing input"),
            ("foo(1)", "unknown function"),
            ("exp(1, 2)", "takes 1 argument"),
            ("pow(2)", "takes 2 argument"),
            ("1 $ 2", "unexpected character"),
            ("sign(t)", "not accepted"),
        ],
    )
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text,column", [
        ("x1 + 1e400", 6),  # the literal itself
        ("1e200*1e200*x1", 6),  # a folded product, at its operator
        ("x1 - (1e308 + 1e308)", 13),
        ("1e300 / 1e-300", 7),
    ])
    def test_numbers_that_overflow_are_rejected(self, text, column):
        with pytest.raises(ExpressionSyntaxError, match="overflows") as err:
            parse_expression(text)
        assert err.value.column == column

    def test_error_column_points_at_offender(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("x1 + bogus(t)")
        assert err.value.column == 6

    def test_unbound_variable(self):
        with pytest.raises(KeyError, match="x2"):
            parse_expression("x1 + x2").ev({"x1": 1.0})

    def test_unbound_variable_message_names_the_first_one_met(self):
        with pytest.raises(KeyError) as err:
            parse_expression("ln(a) * (b + c)").ev({"c": 1.0, "t": 0.0})
        assert err.value.args[0] == (
            "expression references 'a' which is not bound; bound names: ['c', 't']")


class TestEvaluation:
    def test_vectorized_over_arrays(self):
        e = parse_expression("exp(-t) * x1 + u1 ^ 2")
        t = np.linspace(0.0, 3.0, 7)
        x1 = np.ones_like(t) * 2.0
        out = e.ev({"t": t, "x1": x1, "u1": 0.5})
        np.testing.assert_allclose(out, 2.0 * np.exp(-t) + 0.25)

    def test_broadcasting_scalar_against_array(self):
        e = parse_expression("t * x1")
        out = e.ev({"t": np.array([1.0, 2.0, 3.0]), "x1": 4.0})
        np.testing.assert_allclose(out, [4.0, 8.0, 12.0])

    def test_ln_domain_error_carries_witness(self):
        e = parse_expression("ln(x1)")
        t = np.array([0.0, 1.0, 2.0])
        x1 = np.array([1.0, -0.25, 3.0])
        with pytest.raises(DomainError) as err:
            e.ev({"t": t, "x1": x1})
        assert err.value.point["x1"] == pytest.approx(-0.25)
        assert err.value.point["t"] == pytest.approx(1.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            parse_expression("sqrt(t - 1)").ev({"t": 0.5})

    def test_zero_to_negative_power(self):
        for text in ("t ^ -1", "t ^ -2"):
            with pytest.raises(DomainError, match=r"^power with negative base or 0\^negative") as err:
                parse_expression(text).ev({"t": np.array([1.0, 0.0])})
            assert err.value.point == {"t": 0.0}

    def test_small_integer_powers_are_products(self):
        b = np.random.default_rng(0).standard_normal(1000) * 1e3
        for k in (2, 3, 4):
            e = parse_expression(f"x1 ^ {k}")
            assert "_pow" not in "\n".join(_emit([e], [])[0])
            np.testing.assert_allclose(e.ev({"x1": b}), np.power(b, float(k)), rtol=1e-15)
        # one rounding, as in np.power
        np.testing.assert_array_equal(parse_expression("x1 ^ 2").ev({"x1": b}), np.power(b, 2.0))

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            parse_expression("x1 ^ 0.5").ev({"x1": -2.0})

    def test_integer_power_of_negative_is_fine(self):
        assert parse_expression("x1 ^ 3").ev({"x1": -2.0}) == pytest.approx(-8.0)

    def test_names_cannot_collide_with_generated_code(self):
        e = parse_expression("lambda * _ln + inf - _0")
        assert e.ev({"lambda": 2.0, "_ln": 3.0, "inf": 1.0, "_0": 4.0}) == 3.0

    def test_the_first_failure_in_walk_order_is_reported(self):
        e = parse_expression("sqrt(x1 - 1) + ln(t)")
        with pytest.raises(DomainError, match="sqrt") as err:
            e.ev({"t": np.array([-1.0, 2.0]), "x1": np.array([2.0, 0.5])})
        assert err.value.point == {"t": 2.0, "x1": 0.5}


class TestDerivatives:
    CASES = [
        "t ^ 3 - 2 * t",
        "exp(-0.5 * t) * x1",
        "ln(1 + x1 ^ 2)",
        "sqrt(1 + u1 ^ 2)",
        "sin(t) * cos(x1)",
        "x1 / (1 + u1 ^ 2)",
        "(x1 + u1) ^ 2 / 2",
        "pow(1 + t, -2)",
        "exp(x1 * u1) - t / (x1 + 3)",
        "t ^ 1.5 + x1 ^ 2.5",
    ]

    @pytest.mark.parametrize("text", CASES)
    @pytest.mark.parametrize("var", ["t", "x1", "u1"])
    def test_against_central_differences(self, text, var):
        e = parse_expression(text)
        de = e.diff(var)
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(25):
            env = {
                "t": rng.uniform(0.1, 2.0),
                "x1": rng.uniform(0.1, 2.0),
                "u1": rng.uniform(-0.9, 0.9),
            }
            up = dict(env, **{var: env[var] + h})
            dn = dict(env, **{var: env[var] - h})
            fd = (e.ev(up) - e.ev(dn)) / (2 * h)
            np.testing.assert_allclose(de.ev(env), fd, atol=1e-5, rtol=1e-5)

    def test_derivative_of_constant_subtree_folds_away(self):
        e = parse_expression("3 * t + 7")
        assert str(e.diff("t")) == "3.0"
        assert str(e.diff("x1")) == "0.0"

    def test_abs_derivative_uses_sign(self):
        e = parse_expression("abs(x1)").diff("x1")
        assert e.ev({"x1": -2.0}) == pytest.approx(-1.0)
        assert e.ev({"x1": 5.0}) == pytest.approx(1.0)
        assert "sign" in str(e)

    def test_general_power_derivative(self):
        # d/dt t^t = t^t (ln t + 1)
        e = parse_expression("t ^ t").diff("t")
        t = 1.7
        assert e.ev({"t": t}) == pytest.approx(t**t * (np.log(t) + 1.0))


# hypothesis: printing then reparsing never changes the value
_leaf = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(
        lambda v: format(v, ".3f")
    ),
    st.sampled_from(["t", "x1", "u1"]),
)


def _combine(children):
    a, b = children
    op = st.sampled_from([" + ", " - ", " * "])
    return op.map(lambda o: f"({a}{o}{b})")


_expr_text = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(inner, inner).flatmap(_combine),
        inner.map(lambda a: f"sin({a})"),
        inner.map(lambda a: f"cos({a})"),
        inner.map(lambda a: f"abs({a})"),
        inner.map(lambda a: f"-({a})"),
    ),
    max_leaves=8,
)


@given(text=_expr_text)
@settings(max_examples=150, deadline=None)
def test_print_parse_roundtrip(text):
    e = parse_expression(text)
    again = parse_expression(str(e))
    env = {"t": 0.37, "x1": -1.2, "u1": 0.85}
    a = e.ev(env)
    b = again.ev(env)
    assert np.isfinite(a)
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)

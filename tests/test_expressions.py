import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from pmpcheck.expressions import (
    Add,
    Call,
    Div,
    DomainError,
    ExpressionSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Sym,
    _children,
    _emit,
    _enclose,
    _fold_affine,
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


# --- interval enclosures ------------------------------------------------------

_FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "abs", "sign")
_EXPONENTS = (2.0, 3.0, 4.0, -1.0, -2.0, 0.5, 1.5, -0.5, 0.0)

_node = st.recursive(
    st.one_of(
        st.sampled_from([0.0, 0.25, 1.0, 2.0, -1.5]).map(Num),
        st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: Num(round(v, 3))),
        st.sampled_from(["x1", "u1"]).map(Sym),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), inner, inner).map(
            lambda c: c[0](c[1], c[2])),
        st.tuples(inner, st.sampled_from(_EXPONENTS)).map(lambda c: Pow(c[0], Num(c[1]))),
        st.tuples(inner, inner).map(lambda c: Pow(c[0], c[1])),
        st.tuples(inner, inner).map(lambda c: Call("pow", c)),
        st.tuples(st.sampled_from(_FUNCTIONS), inner).map(lambda c: Call(c[0], (c[1],))),
        inner.map(Neg),
    ),
    max_leaves=6,
)

# interval ends: infinite, on a domain boundary (0), or finite
_end = st.one_of(st.sampled_from([-np.inf, np.inf, 0.0, 1.0, -1.0]),
                 st.floats(-5.0, 5.0, allow_nan=False))
_interval = st.tuples(_end, _end).map(sorted).map(lambda ab: (min(ab[0], 5.0), max(ab[1], -5.0)))


_HUGE = mpmath.mpf(10) ** 30  # beyond this, a point or an interval end is not compared


def _mp_value(e, env):
    """The real value of ``e`` at a point, to 200 bits; None off the domain,
    and where a value on the way passes ``_HUGE``."""
    v = _mp_point(e, env)
    return None if v is None or abs(v) > _HUGE else v


def _mp_point(e, env):
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Sym):
        return mpmath.mpf(env[e.name])
    args = [_mp_value(k, env) for k in _children(e)]
    if any(a is None for a in args):
        return None
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, Add):
        return args[0] + args[1]
    if isinstance(e, Sub):
        return args[0] - args[1]
    if isinstance(e, Mul):
        return args[0] * args[1]
    if isinstance(e, Div):
        return None if args[1] == 0 else args[0] / args[1]
    if isinstance(e, Pow) or e.fn == "pow":
        a, b = args
        if a < 0 and b != int(b) or a == 0 and b < 0:
            return None
        if b == 0:
            return mpmath.mpf(1)
        if a != 0 and abs(b * mpmath.log(abs(a))) > 100:
            return None
        return a ** b
    a = args[0]
    if e.fn == "ln" and a <= 0 or e.fn == "sqrt" and a < 0 or e.fn == "exp" and a > 100:
        return None
    return {"exp": mpmath.exp, "ln": mpmath.log, "sqrt": mpmath.sqrt, "sin": mpmath.sin,
            "cos": mpmath.cos, "abs": abs, "sign": mpmath.sign}[e.fn](a)


class _Huge(Exception):
    """An interval end on the way passed ``_HUGE``; the case is not compared."""


def _mp_enclosure(e, box):
    """``mpmath.iv``'s enclosure of the same tree over the box; None for a
    complex power on the way."""
    out = _mp_interval(e, box)
    if out is not None and any(mpmath.isfinite(v) and abs(v) > _HUGE for v in (out.a, out.b)):
        raise _Huge
    return out


def _mp_interval(e, box):
    iv = mpmath.iv
    if isinstance(e, Num):
        return iv.mpf(e.value)
    if isinstance(e, Sym):
        return iv.mpf(list(box[e.name]))
    args = [_mp_enclosure(k, box) for k in _children(e)]
    if not all(isinstance(a, mpmath.ctx_iv.ivmpf) for a in args):
        return None
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, Add):
        return args[0] + args[1]
    if isinstance(e, Sub):
        return args[0] - args[1]
    if isinstance(e, Mul):
        return args[0] * args[1]
    if isinstance(e, Div):
        return args[0] / args[1]
    if isinstance(e, Pow) or e.fn == "pow":
        if any(not mpmath.isfinite(v) or abs(v) > 100 for v in (args[1].a, args[1].b)):
            raise _Huge
        out = args[0] ** args[1]
        if args[0].a > 0:
            # on a positive base exp(e ln b) encloses the power too, and each
            # form is the looser one somewhere: [0.5, inf] ** [0, 1] reads
            # [0, inf] as a power, [5, inf] ** 0 reads [0, inf] through ln
            other = iv.exp(args[1] * iv.log(args[0]))
            return iv.mpf([max(out.a, other.a), min(out.b, other.b)])
        return out if isinstance(out, mpmath.ctx_iv.ivmpf) else None
    if e.fn == "exp" and args[0].b > 100:
        raise _Huge
    if e.fn == "sign":  # mpmath's iv.sign reads [-1, -1] on [-1, 2]
        return iv.mpf([mpmath.sign(args[0].a), mpmath.sign(args[0].b)])
    return {"exp": iv.exp, "ln": iv.log, "sqrt": iv.sqrt, "sin": iv.sin,
            "cos": iv.cos, "abs": abs}[e.fn](args[0])


def _inside(v, lo, hi) -> bool:
    return mpmath.mpf(lo) <= v <= mpmath.mpf(hi)


@given(e=_node, x=_interval, u=_interval, fraction=st.floats(0.0, 1.0))
@example(e=Neg(Pow(Sym("x1"), Sym("u1"))), x=(0.5, np.inf), u=(0.0, 1.0), fraction=0.0)
@settings(max_examples=400, deadline=None)
def test_enclosure_holds_every_point_and_mpmath_enclosure(e, x, u, fraction):
    mpmath.mp.prec = mpmath.iv.prec = 200
    box = {"x1": x, "u1": u}
    (lo, hi), = _enclose([e], box)
    lo, hi = float(lo), float(hi)
    if np.isnan(lo) or np.isnan(hi):
        event("nothing proved")
        return  # nothing proved, nothing to check
    assert lo <= hi

    def points(a, b):
        a, b = max(a, -1e3), min(b, 1e3)  # an infinite end stands in by a far point
        return {a, b, 0.5 * (a + b), a + fraction * (b - a)}

    for px in points(*x):
        for pu in points(*u):
            v = _mp_value(e, {"x1": px, "u1": pu})
            if v is not None and mpmath.isfinite(v):
                assert _inside(v, lo, hi), (str(e), px, pu, v, lo, hi)

    # the folded tree, so both sides face the same dependency
    try:
        ref = _mp_enclosure(e._folded, box)
    except (_Huge, ValueError, ZeroDivisionError, ArithmeticError):
        return
    if ref is None:
        return
    event("compared with mpmath.iv")
    a, b = mpmath.mpf(ref.a), mpmath.mpf(ref.b)
    if mpmath.isfinite(a):
        assert mpmath.mpf(lo) <= a + abs(a) * mpmath.mpf(2) ** -150, (str(e), lo, a)
    if mpmath.isfinite(b):
        assert mpmath.mpf(hi) >= b - abs(b) * mpmath.mpf(2) ** -150, (str(e), hi, b)


class TestEnclosures:
    def test_affine_fold_tames_extraction_control_curvature(self):
        # f = -(u/(u + 1/4) - u) after sense = max; its f_uu holds
        # (u1 + 0.25) - u1, which naive intervals blow up on u in [0, inf)
        f = parse_expression("-(u1/(u1 + 0.25) - u1)")
        f_uu = f.diff("u1").diff("u1")
        assert "u1 + 0.25 - u1" in str(f_uu)
        assert "u1 + 0.25 - u1" not in str(_fold_affine(f_uu))
        box = {"u1": (0.0, np.inf)}
        # f_uu = 1/(2 (u + 1/4)^3) > 0: the folded enclosure proves the sign
        (lo, hi), = _enclose([f_uu], box)
        assert lo >= 0.0 and hi >= 32.0
        # without the fold the numerator's (u1 + 0.25) - u1 reads [-inf, inf]
        cancel = Sub(Add(Sym("u1"), Num(0.25)), Sym("u1"))
        assert _enclose([cancel], box) == [(0.25, 0.25)]
        cancel.__dict__["_folded"] = cancel
        assert _enclose([cancel], box) == [(-np.inf, np.inf)]

    @pytest.mark.parametrize("text,folded", [
        ("(u1 + 0.25) - u1", "0.25"),
        ("2 * (x1 - 0.5) - 2 * x1 + 1", "0.0"),
        ("-(x1 + u1) + x1", "-u1"),
        # 0.1 + 0.2 rounds, so only the right-hand term is rebuilt
        ("(u1 + 0.1) + (0.2 - u1)", "u1 + 0.1 + -u1 + 0.2"),
        # 3 * 0.1 rounds too: the product stays, and x1 stays twice
        ("3 * (0.1 * x1) - x1", "3.0 * 0.1 * x1 - x1"),
    ])
    def test_fold_only_where_exact(self, text, folded):
        assert str(_fold_affine(parse_expression(text))) == folded

    @pytest.mark.parametrize("text,box,want", [
        ("x1 * u1", {"x1": (0.0, 0.0), "u1": (-np.inf, np.inf)}, (0.0, 0.0)),  # 0 * inf = 0
        ("x1 / u1", {"x1": (1.0, np.inf), "u1": (1.0, np.inf)}, (0.0, np.inf)),  # no inf / inf
        ("x1 ^ 2", {"x1": (-1.0, 2.0), "u1": (0.0, 0.0)}, (0.0, 4.0)),
        ("sign(x1)", {"x1": (-1.0, 2.0), "u1": (0.0, 0.0)}, (-1.0, 1.0)),
        ("pow(x1, u1)", {"x1": (-2.0, 1.0), "u1": (2.0, 2.0)}, (0.0, 4.0)),  # a constant 2
    ])
    def test_extended_real_rules(self, text, box, want):
        e = (Call("sign", (Sym("x1"),)) if text == "sign(x1)"  # sign is not input text
             else parse_expression(text))
        (lo, hi), = _enclose([e], box)
        assert lo <= want[0] and hi >= want[1]
        assert lo == pytest.approx(want[0], abs=1e-300) and hi == pytest.approx(want[1])

    @pytest.mark.parametrize("text", ["ln(x1)", "sqrt(x1)", "1 / x1", "x1 ^ 0.5",
                                      "x1 ^ -1", "pow(x1, u1)"])
    def test_touching_a_domain_boundary_proves_nothing(self, text):
        (lo, hi), = _enclose([parse_expression(text)],
                             {"x1": (np.array([0.0, 1e-300]), np.array([1.0, 1.0])),
                              "u1": (2.0, 3.0)})
        assert np.isnan(lo[0]) and np.isnan(hi[0])
        assert np.isfinite(lo[1]) or text == "ln(x1)"
        assert np.isfinite(hi[1])

    def test_a_lost_child_loses_its_parent(self):
        # built by hand: the parser folds 0 * ln(x1) to 0
        e = Add(Mul(Num(0.0), Call("ln", (Sym("x1"),))), Call("exp", (Sym("u1"),)))
        (lo, hi), = _enclose([e], {"x1": (-1.0, 1.0), "u1": (0.0, 1.0)})
        assert np.isnan(lo) and np.isnan(hi)

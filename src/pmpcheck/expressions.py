"""Scalar expressions: parsing, vectorized evaluation, symbolic derivatives.

The grammar is small on purpose: variables (``t``, ``x1..xn``, ``u1..um``),
the operators ``+ - * / ^`` with unary minus, the functions ``exp``, ``ln``,
``sqrt``, ``sin``, ``cos``, ``abs``, ``pow``, and finite numeric literals;
a literal, or a constant folded from literals, that overflows is a syntax
error.  Every node knows how to produce its derivative with respect to a
named variable, so Jacobians of vector fields never rely on finite differences.

Evaluation runs generated code: each tree is compiled once into Python
source with one statement per operator node, over scalars or numpy
arrays.  ``ln``, ``sqrt``, ``/`` and ``^`` check their domain on the way
and raise :class:`DomainError` with the offending point.  The problem
module compiles whole vector fields and their Jacobians the same way.

Differentiating ``abs`` introduces an internal ``sign`` node; it evaluates
like ``numpy.sign`` and is printable, but the parser does not accept it in
input text.

An interval evaluator encloses the real value of an expression over a box
of variables, with outward rounding, after folding its affine
subexpressions; every node and function has one interval rule.  The Arrow
scan proves concavity through it, and the assumption audit bounds the
problem's data over the tube with it.  One bisection engine splits the
boxes whose enclosure proves nothing, and confirms a failure at a point.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

Value = Union[float, np.ndarray]

__all__ = [
    "Expression",
    "DomainError",
    "ExpressionSyntaxError",
    "UnknownIdentifier",
    "parse_expression",
]


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; carries the 1-based character column."""

    def __init__(self, message: str, column: int | None = None):
        self.column = column
        if column is not None:
            message = f"{message} (column {column})"
        super().__init__(message)


class DomainError(ValueError):
    """Evaluation left a function's domain (``ln``/``sqrt``/fractional power).

    ``point`` maps variable names to the offending scalar values so callers
    can report exactly where a tube point or a quadrature node failed.
    """

    def __init__(self, message: str, point: Mapping[str, float] | None = None):
        self.point = dict(point or {})
        if self.point:
            at = ", ".join(f"{k}={self.point[k]:.6g}" for k in sorted(self.point, key=_point_order))
            message = f"{message} at {at}"
        super().__init__(message)


def _point_order(name: str) -> tuple:
    """Sort key of a point's variables: t, then x1..xn and u1..um by
    index, then any other name."""
    match = re.fullmatch(r"([xu])([0-9]+)", name)
    if name == "t":
        return (0, 0, "")
    if match:
        return (1 if match[1] == "x" else 2, int(match[2]), "")
    return (3, 0, name)


class UnknownIdentifier(ValueError):
    """An expression refers to a variable its context does not declare."""

    def __init__(self, name: str, context: str):
        self.name = name
        super().__init__(f"unknown identifier '{name}' in {context}")


def _check_variables(exprs, allowed: set[str], context: str) -> None:
    """Raise :class:`UnknownIdentifier` for the first name outside ``allowed``."""
    for e in exprs:
        extra = e.variables() - allowed
        if extra:
            raise UnknownIdentifier(sorted(extra)[0], context)


def _witness(env: Mapping[str, Value], bad: np.ndarray) -> dict[str, float]:
    """Extract the first offending sample point from a violation mask."""
    bad = np.asarray(bad)
    if bad.shape == ():
        idx: tuple = ()
    else:
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
    point = {}
    for name, value in env.items():
        arr = np.asarray(value, dtype=float)
        if arr.shape == () or not idx:
            point[name] = float(arr) if arr.shape == () else float(arr.ravel()[0])
        else:
            point[name] = float(np.broadcast_to(arr, bad.shape)[idx])
    return point


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """Base node.  Subclasses implement ``diff`` and ``__str__``."""

    @cached_property
    def _compiled(self) -> tuple[tuple[str, ...], Callable]:
        names: list[str] = []
        body, (result,) = _emit([self], names)
        params = ", ".join(f"v_{name}" for name in names)
        fn = _build([f"def ev({params}):", *(f"    {s}" for s in body),
                     f"    return {result}"], "ev")
        return tuple(names), fn

    @cached_property
    def _folded(self) -> "Expression":
        return _fold_affine(self)

    def ev(self, env: Mapping[str, Value]) -> Value:
        """Evaluate over the scalars or broadcastable arrays bound in ``env``."""
        names, fn = self._compiled
        for name in names:
            if name not in env:
                raise KeyError(
                    f"expression references '{name}' which is not bound; "
                    f"bound names: {sorted(env)}"
                )
        try:
            return fn(*[env[name] for name in names])
        except _OutOfDomain as err:
            raise err.at(env) from None

    def diff(self, name: str) -> "Expression":
        raise NotImplementedError

    def variables(self) -> set[str]:
        return set()

    def __call__(self, **env: Value) -> Value:
        return self.ev(env)


@dataclass(frozen=True)
class Num(Expression):
    value: float

    def __post_init__(self):
        # a numpy scalar would print as np.float64(...) into generated code
        object.__setattr__(self, "value", float(self.value))

    def diff(self, name):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Sym(Expression):
    name: str

    def diff(self, name):
        return Num(1.0 if name == self.name else 0.0)

    def variables(self):
        return {self.name}

    def __str__(self):
        return self.name


def _is_num(e: Expression, value: float | None = None) -> bool:
    if not isinstance(e, Num):
        return False
    return value is None or e.value == value


def add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powx(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return Pow(a, b)


@dataclass(frozen=True)
class _Binary(Expression):
    left: Expression
    right: Expression

    op = "?"
    prec = 0

    def variables(self):
        return self.left.variables() | self.right.variables()

    def _wrap(self, child: Expression, right_side: bool) -> str:
        text = str(child)
        p = getattr(child, "prec", 9)
        if p < self.prec or (p == self.prec and right_side and self.op in "-/^"):
            return f"({text})"
        return text

    def __str__(self):
        return f"{self._wrap(self.left, False)} {self.op} {self._wrap(self.right, True)}"


class Add(_Binary):
    op, prec = "+", 1

    def diff(self, name):
        return add(self.left.diff(name), self.right.diff(name))


class Sub(_Binary):
    op, prec = "-", 1

    def diff(self, name):
        return sub(self.left.diff(name), self.right.diff(name))


class Mul(_Binary):
    op, prec = "*", 2

    def diff(self, name):
        return add(
            mul(self.left.diff(name), self.right),
            mul(self.left, self.right.diff(name)),
        )


class Div(_Binary):
    op, prec = "/", 2

    def diff(self, name):
        return div(
            sub(
                mul(self.left.diff(name), self.right),
                mul(self.left, self.right.diff(name)),
            ),
            powx(self.right, Num(2.0)),
        )


class Pow(_Binary):
    op, prec = "^", 4

    def diff(self, name):
        if isinstance(self.right, Num):
            # d(a^c) = c * a^(c-1) * a'
            return mul(
                mul(self.right, powx(self.left, Num(self.right.value - 1.0))),
                self.left.diff(name),
            )
        # general a^b = exp(b ln a)
        return mul(
            self,
            add(
                mul(self.right.diff(name), Call("ln", (self.left,))),
                div(mul(self.right, self.left.diff(name)), self.left),
            ),
        )


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression
    prec = 3

    def diff(self, name):
        return neg(self.arg.diff(name))

    def variables(self):
        return self.arg.variables()

    def __str__(self):
        inner = str(self.arg)
        if getattr(self.arg, "prec", 9) < self.prec:
            inner = f"({inner})"
        return f"-{inner}"


_UNARY_FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "abs", "sign")


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    args: tuple[Expression, ...]
    prec = 9

    def diff(self, name):
        if self.fn == "pow":
            return Pow(self.args[0], self.args[1]).diff(name)
        a = self.args[0]
        da = a.diff(name)
        if self.fn == "exp":
            return mul(self, da)
        if self.fn == "ln":
            return div(da, a)
        if self.fn == "sqrt":
            return div(da, mul(Num(2.0), self))
        if self.fn == "sin":
            return mul(Call("cos", (a,)), da)
        if self.fn == "cos":
            return neg(mul(Call("sin", (a,)), da))
        if self.fn == "abs":
            return mul(Call("sign", (a,)), da)
        if self.fn == "sign":
            return Num(0.0)
        raise ExpressionSyntaxError(f"unknown function '{self.fn}'")  # pragma: no cover

    def variables(self):
        out: set[str] = set()
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self):
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


# --- evaluation by generated code -------------------------------------------
#
# An expression is evaluated by Python source generated from its tree: one
# statement per operator node, in the order a recursive walk would visit
# them.  The functions and the operators with a restricted domain run
# through the helpers below; a helper that meets a point outside its domain
# raises _OutOfDomain with the violation mask, and the generated caller,
# which knows the variables, turns that into a DomainError with a witness.


class _OutOfDomain(Exception):
    """A helper left its function's domain at the points marked in ``bad``."""

    def __init__(self, message: str, bad):
        super().__init__(message)
        self.message = message
        self.bad = bad

    def at(self, env: Mapping[str, Value]) -> DomainError:
        return DomainError(self.message, _witness(env, self.bad))


def _div(num, den):
    bad = np.asarray(den) == 0
    if bad.any():
        raise _OutOfDomain("division by zero", bad)
    return num / den


def _pow(base, expo):
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    bad = (b < 0) & (e != np.round(e))
    bad |= (b == 0) & (e < 0)
    if bad.any():
        raise _OutOfDomain("power with negative base or 0^negative", bad)
    out = np.power(b, e)
    return float(out) if out.shape == () else out


def _ufunc(fn, outside=None, message: str = ""):
    """A unary function; ``outside(a)`` marks arguments off its domain."""

    def call(a):
        a = np.asarray(a, dtype=float)
        if outside is not None:
            bad = outside(a)
            if bad.any():
                raise _OutOfDomain(message, bad)
        out = fn(a)
        return float(out) if out.shape == () else out

    return call


_NAMESPACE = {
    "_np": np,
    "_OutOfDomain": _OutOfDomain,
    "inf": float("inf"),
    "nan": float("nan"),
    "_div": _div,
    "_pow": _pow,
    "_exp": _ufunc(np.exp),
    "_ln": _ufunc(np.log, lambda a: ~(a > 0), "ln of non-positive argument"),
    "_sqrt": _ufunc(np.sqrt, lambda a: a < 0, "sqrt of negative argument"),
    "_sin": _ufunc(np.sin),
    "_cos": _ufunc(np.cos),
    "_abs": _ufunc(np.abs),
    "_sign": _ufunc(np.sign),
}


# integer powers written as products: no power call and no domain check
# (no base leaves their domain), and b * b is bitwise np.power(b, 2.0)
_PRODUCT_POWERS = (2.0, 3.0, 4.0)


def _emit(exprs: Sequence[Expression], names: list[str],
          stores: Sequence[str] | None = None) -> tuple[list[str], list[str]]:
    """Statements evaluating ``exprs`` in turn, and one operand per expression.

    Each operator node becomes one statement, in the order a walk of the
    tree evaluates them; a power with exponent 2, 3 or 4 becomes a
    product.  A symbol ``s`` reads the local ``v_s`` and is appended to
    ``names`` on first use, so binding the names in that order meets an
    unbound one where the walk would.  A node's value is consumed
    by its parent: the parent's result takes over the first consumed local
    and the others are deleted, so no intermediate array outlives its
    consumer.  With ``stores``, the statement ``stores[k].format(operand)``
    follows the statements of expression k and consumes its value.
    """
    lines: list[str] = []
    free: list[int] = []  # n of each deleted local _<n>, ready for reuse
    fresh = itertools.count()

    def release(texts: list[str]) -> None:
        temps = [text for text in texts if text.startswith("_")]  # not v_* or literals
        if temps:
            lines.append(f"del {', '.join(temps)}")
            free.extend(int(text[1:]) for text in temps)

    def operand(e: Expression) -> str:
        if isinstance(e, Num):
            text = repr(e.value)
            return f"({text})" if text.startswith("-") else text
        if isinstance(e, Sym):
            if e.name not in names:
                names.append(e.name)
            return f"v_{e.name}"
        if isinstance(e, Neg):
            template, args = "-{}", [e.arg]
        elif (isinstance(e, Pow) and isinstance(e.right, Num)
              and e.right.value in _PRODUCT_POWERS):
            template, args = " * ".join(["{0}"] * int(e.right.value)), [e.left]
        elif isinstance(e, (Div, Pow)):
            template, args = f"_{type(e).__name__.lower()}({{}}, {{}})", [e.left, e.right]
        elif isinstance(e, _Binary):
            template, args = f"{{}} {e.op} {{}}", [e.left, e.right]
        elif isinstance(e, Call):
            template, args = f"_{e.fn}({', '.join('{}' for _ in e.args)})", e.args
        else:  # pragma: no cover - the parser builds no other node
            raise TypeError(f"cannot evaluate {type(e).__name__}")
        texts = [operand(a) for a in args]
        temps = [text for text in texts if text.startswith("_")]
        local = temps[0] if temps else f"_{free.pop() if free else next(fresh)}"
        lines.append(f"{local} = {template.format(*texts)}")
        release(temps[1:])
        return local

    results = []
    for k, e in enumerate(exprs):
        results.append(operand(e))
        if stores is not None:
            lines.append(stores[k].format(results[-1]))
            release(results[-1:])
    return lines, results


def _build(lines: Sequence[str], name: str) -> Callable:
    """Compile generated source and return the function it defines as ``name``.

    The source sees numpy as ``_np``, ``_OutOfDomain``, and the helpers
    that :func:`_emit` calls.
    """
    namespace = dict(_NAMESPACE)
    exec(compile("\n".join(lines), f"<generated {name}>", "exec"), namespace)
    return namespace[name]


# --- interval enclosures -----------------------------------------------------
#
# An enclosure of an expression over a box bounds its real value at every
# point of the box: each variable is bound to a pair (lo, hi) of arrays, or
# of numbers, and every node maps the pairs of its children to its own.
# Endpoints round outward by whole floats: one after the correctly
# rounded IEEE operations, _LIB_STEPS after the library functions, none
# where a result is exact by construction (a factor 0 or +-inf, a term 0 or
# +-inf).  NumPy documents no error bound for exp, log, sin, cos or power:
# its own accuracy tests hold float64 exp, log, sin and cos to 1 ULP on
# sampled inputs only, and vectorised (SIMD) float64 kernels such as it
# may dispatch to are commonly specified to within 4 ULP.  Eight steps
# cover twice that.
# Endpoints may be infinite; the extended-real rule 0 * inf = 0 holds, and
# a quotient is a product with the reciprocal, so inf / inf never arises.
# NaN in an enclosure means "nothing proved" and propagates: so does an
# argument that touches the boundary of its function's domain (ln, sqrt, /,
# a negative or fractional power), even where the point evaluator accepts
# the boundary itself, as sqrt(0) and 0^0.5.


_LIB_STEPS = 8
_INF_BITS, _SIGN_BIT = np.float64(np.inf).view(np.int64), np.int64(-2**63)


def _round(v, toward: float, steps: int, exact):
    """``steps`` calls of ``np.nextafter(., toward)``, more than one taken at
    once: on the floats ordered as integers, negative ones mirrored below
    zero (-0 and +0 are one), stopping at the infinity."""
    if steps == 1:
        out = np.nextafter(v, toward)
    else:
        bits = np.asarray(v, dtype=float).view(np.int64)
        sign = 1 if toward > 0 else -1
        order = sign * np.where(bits < 0, -(bits & ~_SIGN_BIT), bits)
        order = sign * (np.minimum(order, _INF_BITS - steps) + steps)
        out = np.where(order < 0, -order ^ _SIGN_BIT, order).view(float)
        out = np.where(np.isnan(v), v, out)[()]
    return out if exact is False else np.where(exact, v, out)


def _down(v, steps: int = 1, exact=False):
    """``v`` moved ``steps`` floats down wherever it is not ``exact``."""
    return _round(v, -np.inf, steps, exact)


def _up(v, steps: int = 1, exact=False):
    """``v`` moved ``steps`` floats up wherever it is not ``exact``."""
    return _round(v, np.inf, steps, exact)


def _settled(v):
    """Where an operand leaves a sum or product exact: 0 and +-inf."""
    return (v == 0) | np.isinf(v)


def _iv_add(a, b):
    (al, ah), (bl, bh) = a, b
    with np.errstate(invalid="ignore", over="ignore"):
        lo, hi = al + bl, ah + bh
    return (_down(lo, exact=_settled(al) | _settled(bl)),
            _up(hi, exact=_settled(ah) | _settled(bh)))


def _iv_neg(a):
    return -a[1], -a[0]


def _iv_mul(a, b):
    for (c, other) in ((a, b), (b, a)):
        if c[0] is c[1] and np.all(np.isfinite(c[0])):  # numbers, not intervals
            return _iv_scale(c[0], other)
    los, his = [], []
    for x in a:
        x_zero, x_settled = x == 0, _settled(x)
        for y in b:
            with np.errstate(invalid="ignore", over="ignore", under="ignore"):
                prod = np.where(x_zero | (y == 0), 0.0, x * y)  # 0 * inf = 0
            exact = x_settled | _settled(y)
            los.append(_down(prod, exact=exact))
            his.append(_up(prod, exact=exact))
    lost = np.isnan(a[0]) | np.isnan(a[1]) | np.isnan(b[0]) | np.isnan(b[1])
    return (np.where(lost, np.nan, np.minimum.reduce(los)),
            np.where(lost, np.nan, np.maximum.reduce(his)))


def _iv_scale(k, a):
    """The product of finite numbers ``k``, one per point, with an enclosure."""
    lo, hi = a
    flip = k < 0
    if np.any(flip):
        lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        plo, phi = k * lo, k * hi
    zero = k == 0
    if np.any(zero):  # 0 * inf = 0, but 0 * NaN stays NaN
        plo = np.where(zero & ~np.isnan(lo), 0.0, plo)
        phi = np.where(zero & ~np.isnan(hi), 0.0, phi)
    return _down(plo, exact=zero | _settled(lo)), _up(phi, exact=zero | _settled(hi))


def _iv_reciprocal(a):
    lo, hi = a
    ok = (lo > 0) | (hi < 0)  # touching 0 proves nothing
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rlo, rhi = np.divide(1.0, hi), np.divide(1.0, lo)
    return (np.where(ok, _down(rlo, exact=np.isinf(hi)), np.nan),
            np.where(ok, _up(rhi, exact=np.isinf(lo)), np.nan))


def _iv_div(a, b):
    return _iv_mul(a, _iv_reciprocal(b))


def _iv_monotone(fn, a, increasing: bool = True, floor: float = -np.inf):
    """A monotone library function at both ends, rounded out by
    ``_LIB_STEPS`` and clipped at the bottom of its range; an infinite end
    maps exactly."""
    lo, hi = a if increasing else (a[1], a[0])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        flo, fhi = fn(lo), fn(hi)
    return (np.maximum(_down(flo, _LIB_STEPS, np.isinf(lo)), floor),
            _up(fhi, _LIB_STEPS, np.isinf(hi)))


def _iv_positive(a):
    """``a`` where its lower end is above 0, else NaN."""
    ok = a[0] > 0
    return np.where(ok, a[0], np.nan), np.where(ok, a[1], np.nan)


def _iv_abs(a):
    lo, hi = a
    mag = np.maximum(np.abs(lo), np.abs(hi))
    mig = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    return mig, mag


def _iv_periodic(fn, a, phase: float):
    """``fn`` = cos(x - phase pi), which peaks where x / pi - phase is an
    even integer and bottoms out where it is an odd one.  An extremum within
    a relative 1e-9 of the interval counts as inside, which only widens."""
    lo, hi = a
    with np.errstate(invalid="ignore"):
        flo, fhi = fn(lo), fn(hi)
        s_lo, s_hi = lo / np.pi - phase, hi / np.pi - phase
        slack = 1e-9 * (1.0 + np.maximum(np.abs(s_lo), np.abs(s_hi)))
        first = np.ceil(s_lo - slack)
        inside = [first + k <= s_hi + slack for k in (0, 1)]
        even = np.mod(first, 2.0) == 0
    ends_lo = np.maximum(_down(np.minimum(flo, fhi), _LIB_STEPS), -1.0)
    ends_hi = np.minimum(_up(np.maximum(flo, fhi), _LIB_STEPS), 1.0)
    peak = (inside[0] & even) | (inside[1] & ~even)
    trough = (inside[0] & ~even) | (inside[1] & even)
    wide = ~(slack < 1e6)  # the phase is unresolved, or an end is infinite
    return (np.where(trough | wide, -1.0, ends_lo),
            np.where(peak | wide, 1.0, ends_hi))


def _iv_pow(a, b):
    """``a ^ b``.  A constant exponent (a number, not an array) takes the
    power rules: an even integer acts on ``|a|``, an odd one is monotone,
    a negative integer needs ``a`` away from 0 and any other exponent a
    base above 0.  Any other exponent goes through exp(b ln a)."""
    if np.ndim(b[0]) or b[0] != b[1] or not np.isfinite(b[0]):
        return _IV_FUNCTIONS["exp"](_iv_mul(b, _IV_FUNCTIONS["ln"](a)))
    expo = float(b[0])
    if expo == 0:
        return 1.0, 1.0
    power = lambda v: np.power(v, expo)
    if expo != round(expo):
        return _iv_monotone(power, _iv_positive(a), expo > 0, floor=0.0)
    if expo < 0:
        away = (a[0] > 0) | (a[1] < 0)
        a = np.where(away, a[0], np.nan), np.where(away, a[1], np.nan)
    if expo % 2 == 0:
        return _iv_monotone(power, _iv_abs(a), expo > 0, floor=0.0)
    return _iv_monotone(power, a, expo > 0)


_IV_FUNCTIONS = {
    "exp": lambda a: _iv_monotone(np.exp, a, floor=0.0),
    "ln": lambda a: _iv_monotone(np.log, _iv_positive(a)),
    "sqrt": lambda a: _iv_monotone(np.sqrt, _iv_positive(a), floor=0.0),
    "sin": lambda a: _iv_periodic(np.sin, a, 0.5),
    "cos": lambda a: _iv_periodic(np.cos, a, 0.0),
    "abs": _iv_abs,
    "sign": lambda a: (np.sign(a[0]), np.sign(a[1])),
    "pow": _iv_pow,
}

# one rule per node class, called with the node, its children's enclosures
# and the box
_IV_NODES = {
    Num: lambda e, kids, box: (e.value, e.value),
    Sym: lambda e, kids, box: box[e.name],
    Neg: lambda e, kids, box: _iv_neg(*kids),
    Add: lambda e, kids, box: _iv_add(*kids),
    Sub: lambda e, kids, box: _iv_add(kids[0], _iv_neg(kids[1])),
    Mul: lambda e, kids, box: _iv_mul(*kids),
    Div: lambda e, kids, box: _iv_div(*kids),
    Pow: lambda e, kids, box: _iv_pow(*kids),
    Call: lambda e, kids, box: _IV_FUNCTIONS[e.fn](*kids),
}


def _children(e: Expression) -> tuple:
    if isinstance(e, _Binary):
        return e.left, e.right
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Call):
        return e.args
    return ()


def _fold_affine(e: Expression, memo: dict | None = None) -> Expression:
    """``e`` with every affine subexpression collected into ``c0 + sum c_k a_k``.

    An affine subexpression is built from sums, differences, negations and
    products with a literal; its atoms ``a_k`` are the other subtrees,
    compared by structure, so ``(u1 + 0.25) - u1`` becomes ``0.25``.  The
    coefficients are summed exactly, as fractions, and a subexpression is
    folded only when every resulting coefficient is a float, so the folded
    tree has the same real value as ``e`` everywhere.  Nodes are rebuilt as
    they are, with no literal folding beyond that.
    """
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)][1]
    folded = tuple(_fold_affine(k, memo) for k in _children(e))
    node = e
    if isinstance(e, _Binary):
        node = type(e)(*folded)
    elif isinstance(e, Neg):
        node = Neg(folded[0])
    elif isinstance(e, Call):
        node = Call(e.fn, folded)
    if isinstance(node, (Add, Sub, Neg, Mul)):
        atoms, const = _affine_terms(node)
        if all(_is_float(c) for c in (*atoms.values(), const)):
            node = _affine_tree(atoms, const)
    memo[id(e)] = (e, node)
    return node


def _is_float(c) -> bool:
    """Whether the fraction ``c`` is a float exactly."""
    try:
        return float(c).as_integer_ratio() == (c.numerator, c.denominator)
    except OverflowError:
        return False


def _affine_terms(e: Expression) -> tuple:
    """``({atom: c_k}, c0)`` of ``e``, with exact rational coefficients."""
    from fractions import Fraction  # here, so importing the package does not pay for it

    def scaled(terms, k):
        atoms, const = terms
        return {a: k * c for a, c in atoms.items()}, k * const

    if isinstance(e, Num) and np.isfinite(e.value):
        return {}, Fraction(e.value)
    if isinstance(e, Neg):
        return scaled(_affine_terms(e.arg), -1)
    if isinstance(e, Mul):
        for k, rest in ((e.left, e.right), (e.right, e.left)):
            if isinstance(k, Num) and np.isfinite(k.value):
                return scaled(_affine_terms(rest), Fraction(k.value))
    if isinstance(e, (Add, Sub)):
        atoms, const = _affine_terms(e.left)
        more, more_const = scaled(_affine_terms(e.right), -1 if isinstance(e, Sub) else 1)
        atoms = dict(atoms)
        for a, c in more.items():
            atoms[a] = atoms.get(a, 0) + c
        return atoms, const + more_const
    return {e: Fraction(1)}, Fraction(0)


def _affine_tree(atoms: dict, const) -> Expression:
    """The sum ``const + sum c_k a_k`` as a tree.  A variable with
    coefficient 0 is dropped; any other atom stays as ``0 * a_k``, whose
    enclosure still proves nothing where ``a_k`` may leave its domain."""
    node = None
    for atom, c in atoms.items():
        if c == 0 and isinstance(atom, Sym):
            continue
        term = atom if c == 1 else Neg(atom) if c == -1 else Mul(Num(float(c)), atom)
        node = term if node is None else Add(node, term)
    if node is None:
        return Num(float(const))
    return node if const == 0 else Add(node, Num(float(const)))


def _enclose(exprs: Sequence[Expression], box: Mapping[str, tuple]) -> list[tuple]:
    """Outward-rounded enclosures ``(lo, hi)`` of ``exprs`` over ``box``.

    ``box`` binds every variable to a pair of broadcastable arrays or
    numbers, its lower and upper ends; infinite ends are allowed, and a
    pair of one object twice, as ``(ts, ts)``, is a point.  Each
    expression is folded by :func:`_fold_affine` first (once, and cached on
    the expression), and a subtree that the folded trees share is enclosed
    once.  An enclosure is NaN at the points where nothing is proved, and
    broadcasts against the box.
    """
    memo: dict = {}
    return [_enclose_node(e._folded, box, memo) for e in exprs]


def _enclose_node(e: Expression, box: Mapping[str, tuple], memo: dict) -> tuple:
    """One node of :func:`_enclose`; ``memo`` maps ``id(node)`` to
    ``(node, enclosure)``.  A module function, not a closure: a recursive
    closure is a reference cycle, which would hold every enclosure of the
    call until the cyclic garbage collector runs."""
    if id(e) in memo:
        return memo[id(e)][1]
    if isinstance(e, Sym) and e.name not in box:
        raise KeyError(f"expression references '{e.name}' which the box "
                       f"does not bind; bound names: {sorted(box)}")
    kids = [_enclose_node(k, box, memo) for k in _children(e)]
    out = _IV_NODES[type(e)](e, kids, box)
    if kids:
        lost = False
        for lo, hi in kids:
            lost = lost | np.isnan(lo) | np.isnan(hi)
        out = tuple(np.where(lost, np.nan, v) for v in out)
    memo[id(e)] = (e, out)
    return out


# --- bisection ---------------------------------------------------------------
#
# One enclosure per knot settles most boxes; the rest are bisected.  This is
# the package's one bisection loop over boxes.

_BOX_BUDGET = 2 ** 19  # sub-boxes one call of _bisect may enclose in all
_BOX_ROUND = 2 ** 11  # sub-boxes split per round, earliest knots first


def _as_box(names: list[str], lo: np.ndarray, hi: np.ndarray) -> dict:
    """The box of :func:`_enclose` from ends stacked one column per name;
    a column whose ends agree is bound as one array twice, a point."""
    box = {}
    for v, name in enumerate(names):
        col = lo[:, v]
        box[name] = (col, col) if np.array_equal(col, hi[:, v]) else (col, hi[:, v])
    return box


def _bisect(exprs: Sequence[Expression], box: Mapping[str, tuple],
            judge: Callable, meets: Callable, probe: Callable) -> tuple:
    """Settle a box per knot by enclosure, bisecting what one enclosure leaves open.

    ``box`` binds every variable to a pair of arrays with one entry per
    knot, as :func:`_enclose` takes it.  ``exprs`` are enclosed over each
    box, and ``judge(found, box, knots)`` reads the enclosures ``found``
    of boxes whose knot indices are ``knots``: it returns a mask of the
    boxes it settles and one row of bounds per box.  An open box is split
    in half across its widest coordinate; a half for which
    ``meets(half, knots)`` is False misses the region and is dropped, and
    the rest are enclosed and judged in turn.  The centre of every open
    box that ``meets`` as a point goes to ``probe(points, knots)``, which
    returns the index of the first point, in order, at which the data
    fails, or -1.  A failed knot ends the search at every later knot.
    Boxes are split in knot order, the newest first within a knot, at most
    ``_BOX_ROUND`` a round and ``_BOX_BUDGET`` in all, so the budget buys
    depth at the first open knot.

    Returns ``(state, values, witness)``: per knot 1 (settled), -1
    (failed) or 0 (open: the budget ran out, the search stopped at an
    earlier failure, or a box could not be split further); per knot the
    largest row of its settled boxes, inf unless settled; and the first
    failing point as a dict of floats, or None.
    """
    names = list(box)
    lo = np.column_stack([np.asarray(box[name][0], dtype=float) for name in names])
    hi = np.column_stack([np.asarray(box[name][1], dtype=float) for name in names])
    count = lo.shape[0]
    knots = np.arange(count)
    first, witness = count, None
    unsettled = np.zeros(count, dtype=bool)
    values = None
    queue: list[tuple] = []  # blocks of open boxes in knot order, the newest first
    budget = _BOX_BUDGET
    part = box
    while True:
        settled, rows = judge(_enclose(exprs, part), part, knots)
        if values is None:
            values = np.full((count, rows.shape[1]), np.nan)
        np.fmax.at(values, knots[settled], rows[settled])
        lo, hi, knots = lo[~settled], hi[~settled], knots[~settled]
        mid = 0.5 * (lo + hi)
        inside = meets(_as_box(names, mid, mid), knots)
        if np.any(inside):
            mid, at = mid[inside], knots[inside]
            i = probe({name: mid[:, v] for v, name in enumerate(names)}, at)
            if i >= 0 and at[i] < first:
                first, witness = at[i], {name: float(mid[i, v]) for v, name in enumerate(names)}
        if knots.size:  # the parents' knots come first, so order holds
            queue.insert(0, (lo, hi, knots))
        take = min(sum(block[2].size for block in queue), _BOX_ROUND, budget // 2)
        if take == 0:
            break
        parts = []
        while take:
            block = queue.pop(0)
            if block[2].size > take:
                queue.insert(0, tuple(a[take:] for a in block))
                block = tuple(a[:take] for a in block)
            parts.append(block)
            take -= block[2].size
        lo, hi, knots = (np.concatenate(a) for a in zip(*parts))
        rows = np.arange(knots.size)
        j = np.argmax(hi - lo, axis=1)
        cut = 0.5 * (lo[rows, j] + hi[rows, j])
        # a box at or past a failed knot, or too narrow (or NaN) to split, stays open
        apart = (lo[rows, j] < cut) & (cut < hi[rows, j]) & (knots < first)
        unsettled[knots[~apart]] = True
        lo, hi, knots, j, cut = (a[apart] for a in (lo, hi, knots, j, cut))
        lo, hi, knots = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0), np.repeat(knots, 2)
        rows = np.arange(knots.size)
        hi[rows[0::2], j], lo[rows[1::2], j] = cut, cut
        keep = meets(_as_box(names, lo, hi), knots)
        lo, hi, knots = lo[keep], hi[keep], knots[keep]
        budget -= knots.size
        part = _as_box(names, lo, hi)
    for block in queue:
        unsettled[block[2]] = True
    state = np.where(unsettled, 0, 1).astype(np.int8)
    if first < count:
        state[first] = -1
    values[state != 1] = np.inf
    return state, values, witness


def _domain_probe(exprs: Sequence[Expression]) -> Callable:
    """The probe of :func:`_bisect` that confirms a failure pointwise: the
    index of the first point at which one of ``exprs`` raises
    :class:`DomainError`, or -1.  Each retry keeps the points of the knots
    before the last failure, until none fails."""

    def probe(points, knots):
        first, upto = -1, knots.size
        while upto:
            try:
                for e in exprs:
                    e.ev({name: v[:upto] for name, v in points.items()})
                break
            except DomainError as err:
                hit = [points[name][:upto] == value for name, value in err.point.items()]
                first = int(np.argmax(np.all(hit, axis=0)))
                upto = int(np.searchsorted(knots[:upto], knots[first]))
        return first

    return probe


# --- tokenizer / parser ----------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                return
            col = pos + len(text[pos:]) - len(text[pos:].lstrip()) + 1
            raise ExpressionSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", col)
        pos = m.end()
        kind = m.lastgroup
        yield kind, m.group(kind), m.start(kind) + 1
    return


def _finite(node: Expression, col: int) -> Expression:
    """``node``, unless it is a literal or folded constant that overflowed."""
    if isinstance(node, Num) and not np.isfinite(node.value):
        raise ExpressionSyntaxError("number overflows to infinity", col)
    return node


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, col = self.next()
        if text != value:
            found = "end of input" if kind is None else repr(text)
            raise ExpressionSyntaxError(f"expected {value!r}, found {found}", col)

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, col = self.peek()
        if kind is not None:
            raise ExpressionSyntaxError(f"trailing input {text!r}", col)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op, col = self.next()
            rhs = self.term()
            node = _finite(add(node, rhs) if op == "+" else sub(node, rhs), col)
        return node

    def term(self) -> Expression:
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op, col = self.next()
            rhs = self.unary()
            node = _finite(mul(node, rhs) if op == "*" else div(node, rhs), col)
        return node

    def unary(self) -> Expression:
        if self.peek()[1] == "-":
            self.next()
            return neg(self.unary())
        if self.peek()[1] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            # right associative; unary binds the exponent so 2^-3 parses
            return powx(base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, text, col = self.next()
        if kind == "num":
            return _finite(Num(float(text)), col)
        if kind == "name":
            if self.peek()[1] == "(":
                return self.call(text, col)
            return Sym(text)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        found = "end of input" if kind is None else repr(text)
        raise ExpressionSyntaxError(f"expected a value, found {found}", col)

    def call(self, fn: str, col: int) -> Expression:
        if fn not in _UNARY_FUNCTIONS and fn != "pow":
            raise ExpressionSyntaxError(f"unknown function '{fn}'", col)
        if fn == "sign":
            # produced by differentiation only; keep the input grammar closed
            raise ExpressionSyntaxError("'sign' is not accepted in input", col)
        self.expect("(")
        args = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.expr())
        self.expect(")")
        want = 2 if fn == "pow" else 1
        if len(args) != want:
            raise ExpressionSyntaxError(f"{fn} takes {want} argument(s), got {len(args)}", col)
        return Call(fn, tuple(args))


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression`.

    Raises :class:`ExpressionSyntaxError` with the offending column on
    malformed input.
    """
    return _Parser(text).parse()

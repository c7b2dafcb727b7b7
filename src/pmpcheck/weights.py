"""Weight functions for the half line and the checks that qualify them.

A weight enters in three roles: as the space weight defining the weighted
Lebesgue and Sobolev norms, as the distribution density multiplying the
objective integrand, and (weak mode) as the tube radius around the
candidate control.  Each role has its own qualification list; the checks
here sample a declared :class:`WeightSpec` on one fixed log-uniform grid
of ``_PROPERTY_POINTS`` points and return verdict reports with witnesses,
relying on :mod:`pmpcheck.integrate` for every question that involves
t -> infinity.

Every weight is an expression in t: the built-in families are thin
wrappers that write theirs out and keep a family label.  Each carries its
symbolic derivative and its log-value, and optionally a tail bound and a
pole exponent.  The log-value matters: ratios such as ``omega^2 / nu`` in
the Michel condition and the weighted envelope of the normality check are
combined in log space, otherwise plain floating-point underflow of one
factor silently zeroes (or blows up) a quantity that is perfectly finite.
A declared pole (``pole_exp < 0``) is handled in one place, the point
value of :class:`WeightSpec`, which reads +inf at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .expressions import Call, Div, Mul, Neg, Num, Pow, Sym, _check_variables, parse_expression
from .integrate import MissingTailBound, decays_to_zero, improper_verdict

__all__ = [
    "WeightSpec",
    "PropertyReport",
    "NonPositiveWeight",
    "InvalidExponent",
    "exp_decay",
    "power",
    "weibull",
    "from_expression",
    "check_weight_properties",
    "check_distribution",
    "check_tube_scale",
]


class NonPositiveWeight(ValueError):
    """A function used as a space weight must be strictly positive."""

    def __init__(self, label: str, t: float, value: float):
        self.t = float(t)
        self.value = float(value)
        super().__init__(f"weight {label!r} is {value:.6g} at t={t:.6g}; must be positive")


class InvalidExponent(ValueError):
    """Family or space exponent outside its admissible range."""


@dataclass(frozen=True)
class WeightSpec:
    """A scalar function of t with the metadata the checks need.

    ``deriv`` is the analytic derivative and ``log_value`` returns
    log(value) without intermediate under/overflow.  ``tail_bound(T)``
    must dominate the mass beyond T whenever declared, and be
    nonincreasing in T.  ``pole_exp`` declares power behaviour at t = 0
    (``value ~ t^pole_exp``); ``None`` means unknown.

    With ``pole_exp < 0`` a call reads +inf at t = 0 without evaluating
    ``value`` there; that is the one place a pole's point value is decided.
    Integrals see interior Gauss nodes only, and no check evaluates
    ``deriv`` or ``log_value`` of a pole weight at t = 0.
    """

    label: str
    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    log_value: Callable[[np.ndarray], np.ndarray]
    tail_bound: Callable[[float], float] | None = None
    pole_exp: float | None = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        pole = self.pole_exp is not None and self.pole_exp < 0 and t == 0.0
        if not np.any(pole):
            return self.value(t)
        out = np.full(t.shape, np.inf)
        out[~pole] = self.value(t[~pole])
        return out if t.ndim else float(out)


def exp_decay(a: float) -> WeightSpec:
    """The expression weight ``exp(-a*t)``, a > 0; tail mass beyond T is e^(-aT)/a."""
    if not 0 < a < np.inf:
        raise InvalidExponent(f"exp_decay needs 0 < a < inf, got {a!r}")
    w = from_expression(f"exp(-{a!r}*t)", tail_bound=lambda T: np.exp(-a * T) / a, pole_exp=0.0)
    return replace(w, label=f"exp_decay {a:g}")


def power(a: float) -> WeightSpec:
    """The expression weight ``(1 + t)^(-a)``, a > 0; integrable exactly when a > 1."""
    if not 0 < a < np.inf:
        raise InvalidExponent(f"power needs 0 < a < inf, got {a!r}")
    tail = (lambda T: (1.0 + T) ** (1.0 - a) / (a - 1.0)) if a > 1 else None
    w = from_expression(f"(1 + t)^(-{a!r})", tail_bound=tail, pole_exp=0.0)
    return replace(w, label=f"power {a:g}")


def weibull(k: float) -> WeightSpec:
    """The expression density ``t^(k - 1)*exp(-t^k)``, 0 < k <= 1.

    Total mass is 1/k and the tail beyond T is exactly e^(-T^k)/k.  For
    k < 1 it has an integrable pole at 0 with exponent k-1: it reads +inf
    there, and integrals see only the interior nodes of zero-refined cells.
    """
    if not (0.0 < k <= 1.0):
        raise InvalidExponent(f"weibull needs 0 < k <= 1, got {k!r}")
    w = from_expression(f"t^({k - 1.0!r})*exp(-t^{k!r})",
                        tail_bound=lambda T: np.exp(-(T**k)) / k, pole_exp=k - 1.0)
    return replace(w, label=f"weibull {k:g}")


def _vectorize_in_t(expr):
    """Make an expression in t callable on scalars and arrays alike."""

    def fn(t):
        t_arr = np.asarray(t, dtype=float)
        out = np.asarray(expr.ev({"t": t_arr}), dtype=float)
        if out.shape != t_arr.shape:  # constant subexpressions fold to scalars
            out = np.broadcast_to(out, t_arr.shape).copy()
        return out if t_arr.ndim else float(out)

    return fn


def _log_form(expr) -> Callable[[np.ndarray], np.ndarray]:
    """Build t -> log|expr(t)| by structural decomposition where possible.

    Products, quotients, powers and exp come apart exactly, so a factor
    like exp(-3t) contributes -3t even where its value has underflowed.
    Subtrees with additive or oscillatory structure fall back to taking
    the log of the evaluated value; those lose information once the
    subtree itself underflows, where they read -inf.
    """
    if isinstance(expr, Num):
        c = np.log(abs(expr.value)) if expr.value != 0 else -np.inf
        return lambda t: np.full(np.shape(np.asarray(t, dtype=float)), c)
    if isinstance(expr, Sym):
        def log_t(t):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(np.asarray(t, dtype=float)))
        return log_t
    if isinstance(expr, Neg):
        return _log_form(expr.arg)
    if isinstance(expr, Mul):
        la, lb = _log_form(expr.left), _log_form(expr.right)
        return lambda t: la(t) + lb(t)
    if isinstance(expr, Div):
        la, lb = _log_form(expr.left), _log_form(expr.right)
        return lambda t: la(t) - lb(t)
    if isinstance(expr, Pow):
        # |a^b| = |a|^b wherever a^b is defined (negative bases only pair
        # with integer exponents), so log|a^b| = b * log|a|
        lbase, ex = _log_form(expr.left), _vectorize_in_t(expr.right)
        return lambda t: np.asarray(ex(t), dtype=float) * lbase(t)
    if isinstance(expr, Call) and expr.fn == "exp":
        return _vectorize_in_t(expr.args[0])
    if isinstance(expr, Call) and expr.fn == "sqrt":
        la = _log_form(expr.args[0])
        return lambda t: 0.5 * la(t)
    if isinstance(expr, Call) and expr.fn == "abs":
        return _log_form(expr.args[0])

    value = _vectorize_in_t(expr)

    def log_of_value(t):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(value(t), dtype=float)))

    return log_of_value


def from_expression(
    text: str,
    tail_bound: Callable[[float], float] | None = None,
    pole_exp: float | None = None,
) -> WeightSpec:
    """Wrap an expression in t as a WeightSpec labelled by its text; the
    derivative is symbolic.  Every weight, the families' too, is built here.

    ``pole_exp`` defaults to unknown (None): undeclared behaviour at 0 is
    a real limitation for user weights, and the checks degrade to
    inconclusive rather than guess.  Any name other than ``t`` raises
    :class:`~pmpcheck.expressions.UnknownIdentifier`.
    """
    expr = parse_expression(text)
    _check_variables([expr], {"t"}, "weight expression")
    return WeightSpec(
        label=text,
        value=_vectorize_in_t(expr),
        deriv=_vectorize_in_t(expr.diff("t")),
        tail_bound=tail_bound,
        pole_exp=pole_exp,
        log_value=_log_form(expr),
    )


_PROPERTY_POINTS = 2048  # log-uniform samples on [1e-6, 50], after t = 0


def _property_grid() -> np.ndarray:
    """The sampling grid of every property check."""
    return np.concatenate(([0.0], np.geomspace(1e-6, 50.0, _PROPERTY_POINTS)))


@dataclass(frozen=True)
class PropertyReport:
    """Per-property verdicts for one weight in one mode.

    Verdicts are ``pass`` / ``fail`` / ``undetermined``; every ``fail``
    carries a witness (t, value) in ``witnesses``.  ``K_estimate`` is the
    largest observed |w'|/w, reported even when the boundedness property
    passes, because downstream estimates reuse it.
    """

    mode: str
    verdicts: dict[str, str]
    witnesses: dict[str, tuple[float, float]]
    K_estimate: float | None
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())


def _continuity_probe(value, grid):
    """Two-level midpoint test in log space; returns a witness (t, jump factor) or None.

    Working on log(value) keeps steep smooth decay (orders of magnitude per
    cell) from looking like a jump: the log of an exponential is linear and
    has zero midpoint deviation.  A genuine jump keeps a large deviation
    when the cell is halved; a smooth kink's shrinks ~4x.  Cells whose
    values already underflowed are skipped.
    """
    l, r = grid[:-1], grid[1:]
    m = 0.5 * (l + r)
    raw_l, raw_r, raw_m = value(l), value(r), value(m)
    # below ~1e-290 the float mantissa starts losing bits; no jump verdicts there
    usable = (raw_l > 1e-290) & (raw_r > 1e-290) & (raw_m > 1e-290)
    with np.errstate(divide="ignore", invalid="ignore"):
        vl, vr, vm = np.log(raw_l), np.log(raw_r), np.log(raw_m)
        d_full = np.abs(vm - 0.5 * (vl + vr))
    cand = np.nonzero(usable & (d_full > 0.05))[0]
    for k in cand:
        q1, q2 = 0.5 * (l[k] + m[k]), 0.5 * (m[k] + r[k])
        with np.errstate(divide="ignore"):
            vq1 = float(np.log(value(np.array([q1]))[0]))
            vq2 = float(np.log(value(np.array([q2]))[0]))
        d_left = abs(vq1 - 0.5 * (vl[k] + vm[k]))
        d_right = abs(vq2 - 0.5 * (vm[k] + vr[k]))
        if max(d_left, d_right) >= 0.4 * d_full[k]:
            return float(m[k]), float(np.exp(d_full[k]))
    return None


def _window_growth(grid: np.ndarray, vals: np.ndarray):
    """Fit max(vals) and flag growth persisting into the last decade.

    The windows end at grid[-1]/100, grid[-1]/10 and grid[-1]; growth
    means the last window's max exceeds both earlier ones by 5% and 1e-12.
    """
    t_max = grid[-1]
    cuts = (t_max / 100.0, t_max / 10.0)
    w1 = float(np.max(vals[grid <= cuts[0]], initial=0.0))
    w2 = float(np.max(vals[(grid > cuts[0]) & (grid <= cuts[1])], initial=0.0))
    w3 = float(np.max(vals[grid > cuts[1]], initial=0.0))
    growing = w3 > 1.05 * max(w1, w2, 1e-300) and w3 > 1e-12
    return max(w1, w2, w3), growing


# polynomially decaying weights need a few decades beyond the sampling
# grid to show that t * w(t) vanishes
_E5_HORIZON = 1.0e4


def check_weight_properties(nu: WeightSpec, mode: str = "strong") -> PropertyReport:
    """Qualify a space weight: positivity/continuity, monotone decrease,
    integrability of the weight and its derivative, derivative bounded by
    a multiple of the weight, and (strong mode only) t*w(t) -> 0.

    Nonpositive or non-finite values on the grid raise
    :class:`NonPositiveWeight`; that is a malformed weight, not a verdict.
    A declared pole is the exception: the weight is not finite at t = 0,
    so the first property fails with witness (0, inf), and the derivative
    is read on the grid's positive times only.  A pole also fails the
    derivative's integrability and its bound by the weight; both witnesses
    sit at the grid's first positive time.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be strong or weak, got {mode!r}")
    grid = _property_grid()
    pole = nu.pole_exp is not None and nu.pole_exp < 0

    names = ("E1", "E2", "E3", "E4", "E5") if mode == "strong" else ("F1", "F2", "F3", "F4")
    vals = np.asarray(nu(grid), dtype=float)
    bad = (vals < 0) | ~np.isfinite(vals)
    bad[0] &= not pole  # the pole's +inf at t = 0 is declared, not malformed
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonPositiveWeight(nu.label, grid[k], vals[k])

    verdicts: dict[str, str] = {}
    witnesses: dict[str, tuple[float, float]] = {}
    notes: list[str] = []
    t_max = float(grid[-1])

    # exact zeros: floating underflow of a fast-decaying weight is fine,
    # a genuine zero is not.  Underflow shows a descent through subnormal
    # territory first; a real zero arrives from ordinary magnitudes.
    zero = vals == 0.0
    if np.any(zero):
        positives = vals[vals > 0]
        if positives.size == 0 or positives.min() > 1e-250 or zero[0]:
            k = int(np.argmax(zero))
            raise NonPositiveWeight(nu.label, grid[k], 0.0)
        notes.append(
            f"underflows to zero beyond t≈{grid[np.argmax(zero)]:.4g} (treated as positive)"
        )

    # positivity held (hard-checked above); probe continuity
    jump = (0.0, np.inf) if pole else _continuity_probe(nu, grid)
    if pole:
        notes.append(f"{names[0]}: declared pole t^{nu.pole_exp:g} at t = 0; "
                     "the weight is not finite there")
    if jump is None:
        verdicts[names[0]] = "pass"
        notes.append(f"{names[0]}: no continuity counterexample on the grid")
    else:
        verdicts[names[0]] = "fail"
        witnesses[names[0]] = jump

    # monotone nonincreasing
    rising = vals[1:] > vals[:-1] * (1 + 1e-10) + 1e-15
    if np.any(rising):
        k = int(np.argmax(rising)) + 1
        verdicts[names[1]] = "fail"
        witnesses[names[1]] = (float(grid[k]), float(vals[k]))
    else:
        verdicts[names[1]] = "pass"

    # weight and its derivative integrable
    ladder = improper_verdict(
        lambda t: np.abs(nu(t)), pole_exp=nu.pole_exp, tail_bound=nu.tail_bound
    )
    if verdicts[names[1]] == "pass":
        # monotone decrease: the derivative's mass telescopes to w(0) - lim w,
        # which a pole makes infinite
        deriv_status = "converged" if np.isfinite(vals[0]) else "diverged"
        notes.append(
            f"{names[2]}: |w'| mass = w(0) - w(t_max) = {vals[0] - vals[-1]:.6g} (monotone telescoping)"
        )
    else:
        dladder = improper_verdict(
            lambda t: np.abs(nu.deriv(t)),
            pole_exp=None if nu.pole_exp is None else (nu.pole_exp - 1.0 if nu.pole_exp != 0.0 else 0.0),
        )
        deriv_status = dladder.verdict
    both = (ladder.verdict, deriv_status)
    if "diverged" in both:
        verdicts[names[2]] = "fail"
        if ladder.verdict == "diverged":
            witnesses[names[2]] = (t_max, float(ladder.partials[-1]))
        elif verdicts[names[1]] == "pass":
            # the pole: the derivative's mass over [t, t_max] is w(t) - w(t_max)
            witnesses[names[2]] = (float(grid[1]), float(vals[1] - vals[-1]))
        else:
            witnesses[names[2]] = (float(dladder.decades[-1]), dladder.value)
    elif both == ("converged", "converged"):
        verdicts[names[2]] = "pass"
    else:
        verdicts[names[2]] = "undetermined"
        notes.append(f"{names[2]}: integrability not settled ({ladder.verdict}/{deriv_status})")

    # derivative dominated by the weight itself.  Points where the weight
    # has underflowed (or gone subnormal, where the mantissa is mostly
    # quantization) carry no usable ratio and are skipped.
    rgrid, rvals = (grid[1:], vals[1:]) if pole else (grid, vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(np.asarray(nu.deriv(rgrid), dtype=float)) / rvals
    ratios = np.where(rvals > 1e-290, ratios, np.nan)
    # the ratios are nonnegative, so zeroing the unusable ones leaves every
    # window maximum as it is
    K_estimate, growing = _window_growth(rgrid, np.where(np.isfinite(ratios), ratios, 0.0))
    if pole:  # w ~ t^e with e < 0 makes |w'|/w ~ |e|/t
        verdicts[names[3]] = "fail"
        witnesses[names[3]] = (float(rgrid[0]), float(ratios[0]))
        notes.append(f"{names[3]}: declared pole t^{nu.pole_exp:g} at t = 0; "
                     "|w'|/w is unbounded as t -> 0")
    elif np.any(np.isinf(ratios)) or growing:
        kk = int(np.argmax(np.where(np.isnan(ratios), -np.inf, ratios)))
        verdicts[names[3]] = "fail"
        witnesses[names[3]] = (float(rgrid[kk]), float(ratios[kk]))
        notes.append(f"{names[3]}: |w'|/w still grows in the last decade (max {K_estimate:.3g})")
    else:
        verdicts[names[3]] = "pass"

    # strong mode only: t * w(t) vanishes at infinity
    if mode == "strong":
        t_limit = max(t_max, _E5_HORIZON)
        rec = decays_to_zero(lambda t: t * np.asarray(nu(t), dtype=float), t_max=t_limit)
        if rec.passed:
            verdicts["E5"] = "pass"
        else:
            verdicts["E5"] = "fail"
            witnesses["E5"] = rec.witness
            notes.append(f"E5: {rec.detail} (probe horizon {t_limit:g})")

    return PropertyReport(
        mode=mode,
        verdicts=verdicts,
        witnesses=witnesses,
        K_estimate=K_estimate,
        notes=tuple(notes),
    )


def check_distribution(omega: WeightSpec, mode: str = "strong") -> PropertyReport:
    """Qualify the objective's distribution density.

    Strong mode asks for integrable mass (checked on |omega|); weak mode
    additionally requires omega >= 0 pointwise.  When integrability is
    numerically unsettled and no tail bound is declared, this raises
    :class:`~pmpcheck.integrate.MissingTailBound` instead of guessing.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be strong or weak, got {mode!r}")
    name = "E6" if mode == "strong" else "F5"

    verdicts: dict[str, str] = {}
    witnesses: dict[str, tuple[float, float]] = {}
    notes: list[str] = []

    sample = _property_grid()[1:]
    vals = np.asarray(omega(sample), dtype=float)
    neg = vals < 0
    negative_witness = None
    if np.any(neg):
        k = int(np.argmax(neg))
        negative_witness = (float(sample[k]), float(vals[k]))

    ladder = improper_verdict(
        lambda t: np.abs(omega(t)), pole_exp=omega.pole_exp, tail_bound=omega.tail_bound
    )
    if ladder.verdict == "inconclusive" and omega.tail_bound is None:
        raise MissingTailBound(
            f"distribution {omega.label!r}: no declared tail bound and the numeric "
            "tail estimate does not stabilize"
        )
    integrable = ladder.verdict == "converged"
    mass = ladder.value + (ladder.tail_estimate or 0.0)
    notes.append(f"mass estimate {mass:.8g} over [0, {ladder.decades[-1]:g}] plus declared tail")

    if mode == "weak" and negative_witness is not None:
        verdicts[name] = "fail"
        witnesses[name] = negative_witness
    elif not integrable:
        verdicts[name] = "fail"
        witnesses[name] = (float(ladder.decades[-1]), float(ladder.partials[-1]))
    else:
        verdicts[name] = "pass"
        if negative_witness is not None:
            notes.append(
                f"density is negative at t={negative_witness[0]:.6g} "
                "(allowed here; the weak-mode check would fail)"
            )

    return PropertyReport(
        mode=mode,
        verdicts=verdicts,
        witnesses=witnesses,
        K_estimate=None,
        notes=tuple(notes),
    )


def check_tube_scale(eta: WeightSpec) -> PropertyReport:
    """Qualify a weak-mode tube radius: positive, continuous, nonincreasing."""
    grid = _property_grid()
    verdicts: dict[str, str] = {}
    witnesses: dict[str, tuple[float, float]] = {}
    notes: list[str] = []
    try:
        vals = np.asarray(eta(grid), dtype=float)
        bad = ~(vals > 0) | ~np.isfinite(vals)
        if np.any(bad):
            k = int(np.argmax(bad))
            verdicts["F6"] = "fail"
            witnesses["F6"] = (float(grid[k]), float(vals[k]))
            return PropertyReport("weak", verdicts, witnesses, None, ())
        jump = _continuity_probe(eta, grid)
        rising = vals[1:] > vals[:-1] * (1 + 1e-10) + 1e-15
        if jump is not None:
            verdicts["F6"] = "fail"
            witnesses["F6"] = jump
            notes.append("tube radius looks discontinuous")
        elif np.any(rising):
            k = int(np.argmax(rising)) + 1
            verdicts["F6"] = "fail"
            witnesses["F6"] = (float(grid[k]), float(vals[k]))
            notes.append("tube radius increases")
        else:
            verdicts["F6"] = "pass"
    except (ValueError, ArithmeticError) as exc:  # evaluation failure is a fail, not a crash
        verdicts["F6"] = "fail"
        witnesses["F6"] = (0.0, float("nan"))
        notes.append(f"evaluation failed: {exc}")
    return PropertyReport("weak", verdicts, witnesses, None, tuple(notes))

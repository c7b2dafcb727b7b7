"""The benchmark's workloads and the verdicts each must produce.

Every workload pairs a problem from ``tests/test_pmp.py`` with a candidate
and an adjoint that have closed forms, so the expected certificate follows
from the mathematics rather than from an earlier run.  The seed draws a
scale ``s`` in [0.5, 2] that multiplies the initial state; the closed forms
scale with it and no verdict depends on it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from pmpcheck import CandidateProcess, candidate_from_functions, parse_problem
from pmpcheck.integrate import default_grid

HORIZON = 50.0
CELLS = 2048
SQRT2 = np.sqrt(2.0)

# Two independent routes integrate the same linear adjoint equation at
# rtol <= 1e-10, so on the first half horizon they must agree far inside
# the certificate's own adjoint tolerance of 1e-6.
ROUTE_TOL = 1e-6

CONDITIONS = (
    "adjoint_residual",
    "integral_adjoint_residual",
    "maximum_condition",
    "weak_inequality",
    "transversality_pairing",
    "transversality_decay",
    "michel",
    "normality_representation",
)

# Quadratic regulator, nu = e^{-4.5t}: u* = -(1+sqrt2) x*.
REGULATOR = """
[problem]
n = 1
m = 1
x0 = {x0}
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

# Gompertz extraction with a Weibull 0.5 weight (pole at t = 0).  f has no
# state dependence, so the adjoint vanishes and the maximizer is u* = 1/4.
EXTRACTION = """
[problem]
n = 1
m = 1
x0 = {x0}
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

# One unstable and one stable state.  From x0 = (0, s) the process
# x = (0, s e^{-t}), u = 0 is exact; the unstable direction makes the
# representation route ill-conditioned and the perturbed starts diverge.
TWO_STATE = """
[problem]
n = 2
m = 1
x0 = {x0}
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


def scale_from_seed(seed: int) -> float:
    """The initial-state scale s for a seed, log-uniform on [0.5, 2]."""
    return float(0.5 * 4.0 ** np.random.default_rng(seed).random())


def _regulator_candidate(grid, s):
    x = lambda t: 2.0 * s * np.exp((1.0 - SQRT2) * np.asarray(t))
    u = lambda t: -(1.0 + SQRT2) * x(t)
    return candidate_from_functions(grid, x, u)


def _regulator_adjoint(t, s):
    return (-2.0 * s * (1.0 + SQRT2) * np.exp(-(1.0 + SQRT2) * t))[:, None]


def _extraction_candidate(grid, s):
    x = lambda t: np.exp(0.5 + (np.log(s) - 0.5) * np.exp(-np.asarray(t)))
    u = lambda t: np.full(np.shape(t), 0.25)
    return candidate_from_functions(grid, x, u)


def _two_state_candidate(grid, s):
    # plain sample arrays, as a candidate read from a file arrives
    x = np.stack([np.zeros_like(grid), s * np.exp(-grid)], axis=-1)
    return CandidateProcess(grid=grid, x=x, u=np.zeros((grid.size, 1)))


def _two_state_adjoint(t, s):
    return np.stack([np.zeros_like(t), -0.4 * s * np.exp(-4.0 * t)], axis=-1)


def _expect(overall: str, ill_conditioned: bool, **verdicts: str) -> dict:
    """The verdict fingerprint of a smooth problem without state constraints."""
    fp = {
        "overall": overall,
        "audit.A0": "pass",
        "audit.A1": "no counterexample",  # the most a sampled continuity probe asserts
        "audit.A2": "pass",
        "audit.A3": "vacuous",  # no state constraints
        "arrow": "pass",
        "ill_conditioned": ill_conditioned,
    }
    fp.update({f"condition.{c}": verdicts.get(c, "pass") for c in CONDITIONS})
    return fp


@dataclass(frozen=True)
class Workload:
    """One benchmark problem with its closed-form candidate and adjoint."""

    name: str
    source: str
    x0: Callable[[float], tuple]
    refine_zero: bool
    candidate: Callable[[np.ndarray, float], CandidateProcess]
    adjoint: Callable[[np.ndarray, float], np.ndarray]
    expected: dict
    adjoint_tol: float

    def build(self, s: float):
        """Parse the problem and build the candidate for scale ``s``."""
        x0 = ", ".join(repr(float(v)) for v in self.x0(s))
        prob = parse_problem(self.source.format(x0=x0))
        grid = default_grid(HORIZON, cells=CELLS, refine_zero=self.refine_zero)
        return prob, self.candidate(grid, s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="regulator",
            source=REGULATOR,
            x0=lambda s: (2.0 * s,),
            refine_zero=False,
            candidate=_regulator_candidate,
            adjoint=_regulator_adjoint,
            # w^2/nu = e^{0.5t} grows, so Michel's premise w^2/nu -> 0 fails
            expected=_expect("pass", False, michel="not-applicable"),
            # exact candidate: only the routes' own integration error remains
            adjoint_tol=1e-6,
        ),
        Workload(
            name="extraction",
            source=EXTRACTION,
            x0=lambda s: (s,),
            refine_zero=True,
            candidate=_extraction_candidate,
            adjoint=lambda t, s: np.zeros((t.size, 1)),
            # w^2 ~ e^{-2 sqrt t} outlives nu = e^{-t}: Michel's premise fails
            expected=_expect("pass", False, michel="not-applicable"),
            # f_x = 0 makes every propagated quantity an exact zero
            adjoint_tol=1e-12,
        ),
        Workload(
            name="two-state-sampled",
            source=TWO_STATE,
            x0=lambda s: (0.0, s),
            refine_zero=False,
            candidate=_two_state_candidate,
            adjoint=_two_state_adjoint,
            # perturbing x1 grows like e^t, which e^{-t} does not square-integrate
            expected=_expect("fail", True,
                             normality_representation="fail"),
            # linear interpolation of s e^{-t} errs by at most h^2 s / 8 with
            # h = 50/2048; the adjoint feels it through 2 e^{-3t} e^{-(r-t)}
            # at most halved, so the error stays below 4e-5 s <= 8e-5
            adjoint_tol=1e-4,
        ),
    )
}


def verdict_fingerprint(cert) -> dict:
    """Every verdict of a certificate report, keyed like ``Workload.expected``."""
    fp = {"overall": cert.overall}
    fp.update({f"audit.{k}": v for k, v in cert.audit.verdicts.items()})
    fp["arrow"] = None if cert.sufficiency is None else cert.sufficiency.overall
    rep = cert.adjoints.get("representation")
    fp["ill_conditioned"] = None if rep is None else rep.ill_conditioned
    fp.update({f"condition.{c.name}": c.verdict for c in cert.conditions})
    return fp


def adjoint_error(workload: Workload, cert, s: float) -> float:
    """sup over t <= T/2 of |p - p*| / max(1, sup |p*|) for the primary adjoint."""
    adj = cert.adjoints.get("representation") or cert.adjoints["backward-ode"]
    t = adj.grid[adj.grid <= 0.5 * adj.grid[-1]]
    exact = workload.adjoint(t, s)
    err = np.max(np.linalg.norm(adj.p[: t.size] - exact, axis=1))
    return float(err / max(1.0, np.max(np.linalg.norm(exact, axis=1))))


def mismatches(workload: Workload, cert, s: float) -> list[str]:
    """Fields of the certificate that differ from the workload's expectation."""
    got = verdict_fingerprint(cert)
    bad = [f"{key}: expected {want!r}, got {got.get(key)!r}"
           for key, want in workload.expected.items() if got.get(key) != want]
    bad += [f"{key}: unexpected field, got {got[key]!r}"
            for key in got.keys() - workload.expected.keys()]
    agreement = cert.route_agreement
    if agreement is None or not agreement <= ROUTE_TOL:
        bad.append(f"route_agreement: expected <= {ROUTE_TOL:g}, got {agreement!r}")
    err = adjoint_error(workload, cert, s)
    if not err <= workload.adjoint_tol:
        bad.append(f"adjoint_err: expected <= {workload.adjoint_tol:g}, got {err!r}")
    return bad

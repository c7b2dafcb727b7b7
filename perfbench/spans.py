"""Spans and work counters recorded from outside ``pmpcheck``.

A :class:`Tracer` replaces, for the duration of a ``with`` block, the
names through which ``verify_certificate`` reaches each layer: module
attributes of ``pmpcheck.pmp`` and ``pmpcheck.sufficiency`` get spans, the
evaluator methods of ``ControlProblem``, ``CandidateProcess`` and
``WeightSpec`` get call and point counters.  Every original is restored on
exit, also when the traced call raises.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import pmpcheck.pmp as pmp
import pmpcheck.sufficiency as sufficiency
from pmpcheck.problem import CandidateProcess, ControlProblem
from pmpcheck.weights import WeightSpec

_MARK = "_perfbench_original"

# (owner, attribute, span name); pmp looks these up as its own globals,
# and check_arrow is imported from the sufficiency module at call time
_SPAN_TARGETS = (
    [(pmp, "verify_certificate", "pmp.verify_certificate"),
     (pmp, "audit_assumptions", "problem.audit_assumptions"),
     (pmp, "solve_ode", "integrate.solve_ode"),
     (pmp, "solve_state", "integrate.solve_state"),
     (sufficiency, "check_arrow", "sufficiency.check_arrow")]
    + [(pmp, name, f"pmp.{name}") for name, obj in vars(pmp).items()
       if name.startswith(("adjoint_", "check_")) and inspect.isfunction(obj)]
)

# (class, evaluator methods, counter prefix); each takes the times first
_COUNT_TARGETS = (
    (ControlProblem, ("f_value", "f_grad_x", "f_grad_u", "phi_value",
                      "phi_jac_x", "phi_jac_u", "g_value", "g_jac_x"), "problem"),
    (CandidateProcess, ("state", "control"), "candidate"),
    (WeightSpec, ("__call__",), "weights"),
)


def _targets():
    for owner, attr, _ in _SPAN_TARGETS:
        yield owner, attr
    for cls, methods, _ in _COUNT_TARGETS:
        for attr in methods:
            yield cls, attr


def installed_wrappers() -> list[str]:
    """Names that currently hold a tracing wrapper; empty when untraced."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr in _targets()
            if hasattr(vars(owner)[attr], _MARK)]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same trace


def self_time(spans: list[Span], index: int) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    span = spans[index]
    covered, reach = 0.0, span.start
    for lo, hi in sorted((s.start, s.end) for s in spans if s.parent == index):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.end - span.start - covered


class Tracer:
    """Records the spans and counts of the calls made inside its block.

    One tracer traces one certificate, so all of its spans share it as
    their identifier.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._tallies: dict[str, list[int]] = {}
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in _SPAN_TARGETS:
                self._install(owner, attr, self._span_wrapper(name, vars(owner)[attr]))
            for cls, methods, prefix in _COUNT_TARGETS:
                for attr in methods:
                    self._install(cls, attr, self._count_wrapper(prefix, vars(cls)[attr]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        if hasattr(original, _MARK):
            raise RuntimeError(f"{attr} is already traced")
        setattr(wrapper, _MARK, original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, perf_counter(), float("nan"),
                        open_[-1] if open_ else None)
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                open_.pop()
        return wrapper

    def _count_wrapper(self, prefix: str, fn):
        tally = self._tallies.setdefault(prefix, [0, 0])

        @functools.wraps(fn)
        def wrapper(obj, t, *args, **kwargs):
            tally[0] += 1
            if isinstance(t, np.ndarray):
                tally[1] += t.size
            else:
                tally[1] += 1 if isinstance(t, float) else np.size(t)
            return fn(obj, t, *args, **kwargs)
        return wrapper

    @property
    def counts(self) -> dict[str, int]:
        """Evaluator calls and time points, as ``<prefix>.eval_calls/points``."""
        out = {}
        for prefix, (calls, points) in self._tallies.items():
            out[f"{prefix}.eval_calls"] = calls
            out[f"{prefix}.eval_points"] = points
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

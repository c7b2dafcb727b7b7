"""Measurement loop, correctness check and metrics of the benchmark.

A run certifies one prebuilt problem and candidate back to back (a closed
loop with one client), checks every report against the workload's expected
verdict fingerprint, and reports medians.  Untraced certificates give the
end-to-end metrics; a traced run alternates untraced and traced
certificates, so the per-layer figures and the tracing overhead come from
the same stretch of host time.

Times are reported in reference seconds.  Host speed drifts on shared
machines: on a 2-vCPU Intel Xeon VM the same regulator certificate took
2.8-5.6 s within five minutes, and the median of seven back-to-back
certificates spread by 0.2-0.4 (quartile distance over median) from run to
run.  A fixed pure-Python reference loop therefore runs before and after
every timed call, and a call taking ``wall`` seconds counts as
``wall * REF_LOOP_S / median loop time of the run`` reference seconds; on
the same machine that cut the run-to-run spread over ten seeds to
0.08-0.15.  The readable report also gives the plain wall times.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pmpcheck.pmp as pmp
from spans import Tracer, installed_wrappers, self_time
from workloads import (CELLS, HORIZON, WORKLOADS, Workload, adjoint_error,
                       mismatches, scale_from_seed)

SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120

# REF_LOOP_S is about the loop's median time on the machine named above,
# so a reference second there is about a wall second
REF_LOOP_ITERATIONS = 2_000_000
REF_LOOP_S = 0.18

# direct callees of verify_certificate that count as a layer of their own;
# the other check_* calls form pmp.conditions.s, the rest is glue
LAYERS = (
    "problem.audit_assumptions",
    "pmp.adjoint_representation",
    "pmp.adjoint_backward",
    "pmp.check_normality",
    "sufficiency.check_arrow",
)

END_TO_END_UNITS = {"certify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "trace.certify_s": "s",
    "pmp.verify_certificate.self_s": "s",
    **{f"{name}.s": "s" for name in LAYERS},
    "pmp.conditions.s": "s",
    "problem.eval_calls": "count",
    "problem.eval_points": "count",
    "problem.points_per_call": "points/call",
    "candidate.eval_calls": "count",
    "candidate.eval_points": "count",
    "weights.eval_calls": "count",
    "integrate.solve_ode.calls": "count",
    "integrate.solve_state.calls": "count",
    "numpy.runtime_warnings": "count",
    "trace.overhead_s": "s",
}


def reference_loop() -> float:
    """Wall seconds of a fixed pure-Python workload, a probe of host speed."""
    start = perf_counter()
    acc = 0.0
    for i in range(REF_LOOP_ITERATIONS):
        acc += (i % 7) * 0.5
    return perf_counter() - start


class RefClock:
    """Probes host speed with the reference loop between timed calls."""

    def __init__(self):
        self.loops = [reference_loop()]

    def tick(self) -> None:
        self.loops.append(reference_loop())

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the run."""
        return REF_LOOP_S / statistics.median(self.loops)


@dataclass
class Sample:
    """One certificate call: its wall time and what was wrong with it."""

    seconds: float
    problems: list[str]
    warnings: list[str] = field(default_factory=list)
    adjoint_err: float | None = None
    tracer: Tracer | None = None


def certify(workload: Workload, prob, cand, x0_scale: float,
            tracer: Tracer | None = None) -> Sample:
    """Run and check one certificate; RuntimeWarnings are counted, not shown."""
    if tracer is None and installed_wrappers():
        raise RuntimeError(f"untraced call sees wrappers: {installed_wrappers()}")
    cert = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        with tracer or nullcontext():
            start = perf_counter()
            try:
                cert = pmp.verify_certificate(prob, cand)
            except Exception as exc:  # a raising certificate is a counted failure
                error = f"raised {type(exc).__name__}: {exc}"
            seconds = perf_counter() - start
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if cert is None:
        return Sample(seconds, [error], messages, tracer=tracer)
    return Sample(seconds, mismatches(workload, cert, x0_scale), messages,
                  adjoint_error(workload, cert, x0_scale), tracer)


def measure(workload: Workload, prob, cand, x0_scale: float, seconds: float,
            trace: bool) -> tuple[list[Sample], list[Sample], float]:
    """Certify until ``seconds`` would be exceeded.

    Returns the untraced and the traced samples and the run's reference
    seconds per wall second.  One untimed warm-up comes first and is
    checked like the rest; the untraced list starts with it, and callers
    drop it from timings.
    """
    plain = [certify(workload, prob, cand, x0_scale)]
    traced: list[Sample] = []
    start = perf_counter()
    clock = RefClock()
    while True:
        if trace and len(traced) < len(plain) - 1:
            traced.append(certify(workload, prob, cand, x0_scale, Tracer()))
        else:
            plain.append(certify(workload, prob, cand, x0_scale))
        clock.tick()
        elapsed = perf_counter() - start
        per_call = elapsed / (len(plain) - 1 + len(traced))
        if (traced or not trace) and elapsed + per_call > seconds:
            return plain, traced, clock.scale


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer times and counts of one traced certificate.

    Times are wall seconds times ``scale``; the layer times and the glue
    self time add up to the root span.
    """
    spans = tracer.spans
    if not spans or spans[0].name != "pmp.verify_certificate":
        raise RuntimeError("trace holds no verify_certificate span")
    root = spans[0]
    out = {
        "trace.certify_s": root.end - root.start,
        "pmp.verify_certificate.self_s": self_time(spans, 0),
        **{f"{name}.s": 0.0 for name in LAYERS},
        "pmp.conditions.s": 0.0,
    }
    for span in spans:
        if span.parent != 0:
            continue
        if span.name in LAYERS:
            key = f"{span.name}.s"
        elif span.name.startswith("pmp.check_"):
            key = "pmp.conditions.s"
        else:  # a callee outside the layer list counts as glue
            key = "pmp.verify_certificate.self_s"
        out[key] += span.end - span.start
    out = {key: value * scale for key, value in out.items()}
    counts = tracer.counts
    out.update({
        "problem.eval_calls": counts["problem.eval_calls"],
        "problem.eval_points": counts["problem.eval_points"],
        "problem.points_per_call":
            counts["problem.eval_points"] / max(counts["problem.eval_calls"], 1),
        "candidate.eval_calls": counts["candidate.eval_calls"],
        "candidate.eval_points": counts["candidate.eval_points"],
        "weights.eval_calls": counts["weights.eval_calls"],
        "integrate.solve_ode.calls": tracer.calls("integrate.solve_ode"),
        "integrate.solve_state.calls": tracer.calls("integrate.solve_state"),
    })
    return out


def measure_setup(name: str, seed: int) -> tuple[list[float], float]:
    """Wall seconds of cold set-ups in fresh interpreters, and the reference
    seconds per wall second over them.

    One discarded start first leaves the byte-code caches filled, whatever
    PYTHONDONTWRITEBYTECODE says, so no probe pays for compiling sources.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), name, str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def probe() -> float:
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, env=env)
        return float(done.stdout.strip().splitlines()[-1])

    probe()
    clock = RefClock()
    times = []
    for _ in range(SETUP_PROBES):
        times.append(probe())
        clock.tick()
    return times, clock.scale


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9, p99, p90, p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return None


def host_info() -> str:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    threads = ",".join(f"{v}={os.environ.get(v)}"
                       for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"nproc {os.cpu_count()}, cpu {model!r}, python "
            f"{platform.python_version()}, numpy {np.__version__}, {threads}")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; prints a readable report and returns the result."""
    workload = WORKLOADS[name]
    x0_scale = scale_from_seed(seed)
    print(f"workload {name}: seed {seed}, x0 scale s = {x0_scale:.6g}, "
          f"{CELLS} cells, T = {HORIZON:g}")
    print(f"host: {host_info()}")
    setup, setup_scale = ([], None) if trace else measure_setup(name, seed)
    prob, cand = workload.build(x0_scale)
    plain, traced, scale = measure(workload, prob, cand, x0_scale, seconds, trace)

    everything = plain + traced
    failed = [s for s in everything if s.problems]
    for sample in failed[:3]:
        print("MISMATCH " + "; ".join(sample.problems))
    wall = [s.seconds for s in plain[1:]]
    certify_s = statistics.median(wall) * scale
    tail = tail_percentile([t * scale for t in wall])
    tail_text = (f"p{tail[0]:g} {tail[1]:.6g} s" if tail else
                 "no percentile has 10 samples beyond it")
    errs = [s.adjoint_err for s in everything if s.adjoint_err is not None]
    seen = sorted({m for s in everything for m in s.warnings})
    print(f"times in reference seconds: the reference loop took {REF_LOOP_S / scale:.4g} s "
          f"here, {REF_LOOP_S} s on the reference host")
    print(f"  certify_s      {certify_s:.6g} s      median of {len(wall)} warm "
          f"certificates, {tail_text}")
    print("                 wall seconds " + " ".join(f"{t:.4g}" for t in wall))
    if setup:
        print(f"  setup_s        {statistics.median(setup) * setup_scale:.6g} s      "
              f"median of {len(setup)} fresh processes, wall seconds "
              + " ".join(f"{t:.4g}" for t in setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not trace:
        print(f"  peak_rss_mb    {peak_rss_mb:.6g} MB")
    print(f"  failed_frac    {len(failed) / len(everything):.6g} ratio  "
          f"{len(failed)} of {len(everything)} certificates")
    print(f"  adjoint_err    {max(errs) if errs else float('nan'):.6g} ratio  "
          f"sup_(t<=T/2) |p - p*| / max(1, sup |p*|)")
    print(f"  runtime warnings per certificate: {len(plain[0].warnings)}"
          + (f" {seen}" if seen else ""))

    if trace:
        middle = statistics.median_low(s.seconds for s in traced)
        chosen = next(s for s in traced if s.seconds == middle)
        values = layer_metrics(chosen.tracer, scale)
        values["numpy.runtime_warnings"] = len(chosen.warnings)
        values["trace.overhead_s"] = middle * scale - certify_s
        metrics = {k: _metric(values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
        print(f"  layers of the median of {len(traced)} traced certificates:")
        for key, m in metrics.items():
            print(f"    {key:32s} {m['value']:.6g} {m['unit']}")
    else:
        values = {"certify_s": certify_s,
                  "setup_s": statistics.median(setup) * setup_scale,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: _metric(values[k], unit) for k, unit in END_TO_END_UNITS.items()}
    return {"correct": not failed, "attempted": len(everything),
            "failed": len(failed), "metrics": metrics}

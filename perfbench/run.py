"""Benchmark of ``verify_certificate`` on closed-form workloads.

    python3 perfbench/run.py --workload regulator --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads are ``regulator``,
``extraction`` and ``two-state-sampled`` (see ``workloads.py``).  With
``--trace 0`` the run reports the end-to-end metrics ``certify_s``,
``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it reports the
per-layer metrics listed in ``BENCHMARK.json``.  Times are in reference
seconds, which factor out the host's speed (see ``bench.py``).  Every
certificate is checked against the verdicts its closed forms imply.  A
readable report comes first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS thread: the certificates are single-threaded, and idle BLAS
# workers on a shared host only add noise.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOAD_NAMES = ("regulator", "extraction", "two-state-sampled")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "pmpcheck" / "__init__.py").is_file():
        print(f"error: no pmpcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

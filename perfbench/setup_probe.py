"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Measures importing ``pmpcheck``, parsing the problem and building the
candidate, and prints the seconds taken.  ``run.py`` starts it several
times and reports the median as ``setup_s``.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = perf_counter()
    from workloads import WORKLOADS, scale_from_seed  # imports pmpcheck
    WORKLOADS[name].build(scale_from_seed(seed))
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main()

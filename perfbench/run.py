"""Benchmark entry point; run it from the repository root.

    python3 perfbench/run.py --workload k2_heur_stop1_n30 --seed 1 --seconds 46 --trace 0

Prints provenance, any failed solve or check, one line per metric with its
unit and direction, and finally one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer metrics.
Exit status: 0 when every check passed, 1 when a correctness check failed,
2 for bad usage or when ``src/minmaxtsp`` is not next to this directory.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS and OpenMP pools would otherwise start one thread per core and compete
# with the single-threaded solve loop; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minmaxtsp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'minmaxtsp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())

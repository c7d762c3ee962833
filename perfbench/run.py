"""Solver-race benchmark of stiefel_cayley, one workload per invocation.

    python3 perfbench/run.py --workload eigen-race --seed 7 --seconds 55 --trace 0

Run it from the repository root; it imports the package from ``src/``
and exits 2 without a result when that is missing.  The last line of
standard output is the JSON result; the exit status is 1 when any output
check failed.  See ``perfbench/README.md``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "stiefel_cayley", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import THREAD_VARS

    # One BLAS thread for every load, fixed before numpy is first imported.
    os.environ.update({var: "1" for var in THREAD_VARS})
    from perfbench.bench import main

    sys.exit(main())

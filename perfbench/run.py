"""Benchmark entry point.

    python3 perfbench/run.py --workload city_durable --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout: the program under test is
imported from ``src/``.  Exits 2 without a result when ``src/`` is
missing, 1 when the correctness gate fails, 0 otherwise.  The last line
of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: OpenBLAS otherwise starts a thread per core that
# spins after every call, and on a small host that thread competes with
# the interpreter (and with shard workers, which inherit this setting).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())

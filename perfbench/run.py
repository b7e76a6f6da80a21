"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run it from the root of a source checkout.  It pins the BLAS thread pools
to one thread before NumPy loads, then imports the simulator from the
checkout's ``src/`` tree (never from an installed copy) and measures one
workload; see ``perfbench/README.md``.  Without the simulator's sources
next to it, it exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # The script's own directory would shadow top-level modules; import the
    # benchmark as the ``perfbench`` package and the simulator from src/.
    sys.path[:] = [str(SRC), str(ROOT)] + [
        p for p in sys.path[1:] if Path(p or ".").resolve() != Path(__file__).resolve().parent
    ]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.bench import main

    return main()


if __name__ == "__main__":
    sys.exit(_main())

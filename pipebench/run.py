"""Pipeline benchmark for pillarkit: scan featurization and training.

Run from the root of a checkout:

    python3 pipebench/run.py --workload scan-featurize --seed 1 --seconds 25 --trace 0

Without ``--workload`` every workload runs, each in its own process. Before
numpy is imported, BLAS is pinned to one thread, ``PILLARKIT_THREADS`` is
cleared and glibc's mmap threshold is fixed, so the figures measure
pillarkit's own work on one core and do not depend on allocation history.
See README.md in this directory.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for the threshold it adjusts itself


def fix_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold; return it, or None where mallopt is missing.

    glibc starts the threshold at 128 KiB and raises it, up to 32 MiB, to the
    size of each larger mmapped block freed, so how much freed memory stays
    in the heap jumps with small changes in array sizes. Fixed at the
    ceiling, the allocator stays in the regime a warm process reaches anyway,
    so op times are unchanged, and peak RSS varies less between seeds.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return MMAP_THRESHOLD if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 else None


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pinned = {
        "pillarkit_threads_cleared": os.environ.pop("PILLARKIT_THREADS", None),
        "malloc_mmap_threshold": fix_mmap_threshold(),
    }
    if not (ROOT / "src" / "pillarkit" / "__init__.py").is_file():
        print(f"error: no pillarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from pipebench import harness

    return harness.main(sys.argv[1:], pinned)


if __name__ == "__main__":
    sys.exit(main())

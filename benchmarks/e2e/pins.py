"""What ``run.py`` and ``child.py`` share: the environment every measuring
child runs under (set by ``run.py`` before the child starts, checked by
``child.py`` before numpy is imported) and where results go."""

import os
from pathlib import Path

PINS = {
    # One BLAS thread: unpinned OpenBLAS on a 2-core box made the
    # kernel workload swing by a third between runs.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # Keep freed heap in the process: glibc otherwise trims and re-faults
    # the heap top between batches depending on what happens to sit above
    # it, which made same-code kernel reps bimodal (1.0 s vs 1.45 s).
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
    "MALLOC_MMAP_THRESHOLD_": str(1 << 32),
    # Same str hashes, so same dict and set layouts, in every child.
    "PYTHONHASHSEED": "0",
}


def results_dir() -> Path:
    """``results/e2e`` at the repository root (``REPRO_RESULTS_DIR`` moves
    ``results``, as for the older benches), created."""
    base = os.environ.get("REPRO_RESULTS_DIR")
    root = Path(__file__).resolve().parents[2]
    path = (Path(base) if base else root / "results") / "e2e"
    path.mkdir(parents=True, exist_ok=True)
    return path

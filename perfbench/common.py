"""Process set-up shared by the benchmark entry points.

Both entry points pin the numeric libraries to one thread before NumPy is
imported, and import `waveng` only from the `src/` directory of the checkout
they run in, so a copy of the library installed elsewhere is never measured.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One caller in a closed loop: one descent at a time in one process.  The
# workloads are elementwise, FFT and sparse work that does not use BLAS
# threads, and one thread keeps repeated runs steady on a shared machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"


def pin_threads() -> None:
    """Pin numeric library threads; call before NumPy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def source_dir() -> Path:
    """The checkout's `src/` directory, or exit when it holds no waveng."""
    src = Path.cwd() / "src"
    if not (src / "waveng" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no waveng sources under {src}; run from the repository root")
    return src


def import_waveng():
    """Import waveng from the checkout and return the package."""
    src = source_dir()
    sys.path.insert(0, str(src))
    import waveng

    if not Path(waveng.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported waveng from {waveng.__file__}, not from {src}")
    return waveng

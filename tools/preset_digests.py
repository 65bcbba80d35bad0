"""Print the sha256 of every file `waveng run --preset P --svg` writes, for all presets.

Usage:
    python3 tools/preset_digests.py [CHECKOUT]

CHECKOUT is a repository root (default: the one holding this script).  Each
preset runs in a fresh interpreter that imports waveng from CHECKOUT/src
only, with 1 for each BLAS/OpenMP thread variable the caller has not set
and no bytecode written, into a temporary directory.  waveng's output bytes
do not depend on the thread count, so

    OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=2 python3 tools/preset_digests.py

prints the same digests as the default run (checked at 1 and 2 threads on
a 2-core machine; higher counts are untested).
The output is one `sha256  file` line per file, sorted by file name, so

    diff <(python3 tools/preset_digests.py A) <(python3 tools/preset_digests.py B)

is empty exactly when the two checkouts write byte-identical files.  Exits
with a run's exit code when it fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the variables perfbench/common.py pins; this tool imports nothing from there
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def waveng(src: Path, cwd: Path, *args: str) -> str:
    """Run `waveng ARGS` on the sources under src; its stdout, or exit with its code."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: env.get(var, "1") for var in THREAD_VARS})
    cmd = [sys.executable, "-m", "waveng.cli", *args]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(proc.returncode)
    return proc.stdout


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]).resolve() if argv else ROOT
    src = checkout / "src"
    if not (src / "waveng" / "__init__.py").is_file():
        raise SystemExit(f"preset_digests: no waveng sources under {src}")
    with tempfile.TemporaryDirectory(prefix="preset-digests-") as tmp:
        out = Path(tmp)
        presets = [line.split(":")[0] for line in waveng(src, out, "list-presets").splitlines()]
        for preset in presets:
            waveng(src, out, "run", "--preset", preset, "--svg", "--out-dir", str(out / "run"))
        for path in sorted((out / "run").iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

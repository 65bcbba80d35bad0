"""Fresh-process jobs of the benchmark; each prints one JSON line.

    python3 perfbench/child.py setup <workload>   time the set-up a `waveng run` pays
    python3 perfbench/child.py check <workload>   fidelity check and rough-start probe

`run.py` starts these and waits for them; they are not meant to be run alone.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from common import import_waveng, pin_threads


def main(argv: list[str]) -> int:
    job, name = argv
    pin_threads()
    import_waveng()
    from reference import reference_s
    from workloads import WORKLOADS, set_up

    workload = WORKLOADS[name]
    if job == "setup":
        # grid, reference measure, filters (computed on first use in a fresh
        # process), basis and build_precomp; the interpreter and imports are
        # not counted.  The reference kernel runs after, so it warms nothing.
        started = time.perf_counter()
        problem = set_up(workload.preset())
        wall_s = time.perf_counter() - started
        reference = statistics.median(reference_s(problem.grid.shape) for _ in range(3))
        result = {"wall_s": wall_s, "reference_s": reference, "precomp_s": problem.precomp_s}
    elif job == "check":
        from checks import fidelity, rough_start_probe

        result = {"fidelity": fidelity(workload), "rough_start": rough_start_probe()}
    else:
        raise SystemExit(f"unknown job {job!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

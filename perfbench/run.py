"""waveng benchmark: time to solution on three descent workloads.

Run from the repository root:

    python3 perfbench/run.py --workload panel-1d --seed 1 --seconds 25 --trace 0

The benchmark is one caller in a closed loop: one descent at a time in one
process, numeric threads pinned to one.  A run

1. times the set-up a `waveng run` pays (grid, reference measure, filters,
   basis, build_precomp) in SETUP_REPEATS fresh processes;
2. runs the fidelity check and the rough-start probe in one more fresh
   process (see checks.py);
3. sets up once in this process and makes one untimed combined descent from
   the uniform start.  The first descent after a fresh 128^2 precompute was
   once seen to take 1.1 s against 0.3 s for the next ones, but that did not
   repeat in later fresh processes and no lazy set-up in the library explains
   it, so it is warmed away here and counted in neither setup_s nor solve_s;
4. descends from seeded smooth starts, every metric of the workload's panel
   per start, until --seconds have passed and at least the workload's
   `min_starts` starts are done, timing the reference kernel of
   reference.py before and after every panel;
5. replays the first start's panel and requires bit-identical histories.

End-to-end metrics (--trace 0).  Times are reference-speed seconds: wall
seconds scaled by the machine speed the reference kernel measured next to
them (see reference.py), because the shared machine's speed drifts by more
than the bounds between runs.  Raw wall seconds are printed beside them.
    setup_s         median set-up time over the fresh processes of step 1
    solve_s         median time of one combined descent to the target
    panel_s         median time of one start's panel (all its descents)
    combined_iters  total iterations of the combined descents on the first
                    `min_starts` starts: an exact count, fixed by the seed
    peak_rss_mb     peak resident memory of this process

One operation is one descent.  A failed operation (see workloads.gate) makes
the run incorrect, and solve_s and panel_s then read as the whole window, so
a failing run never reads as a speed-up.

With --trace 1, step 4 records a span around every layer function (see
tracer.py) and the run prints the per-layer metrics instead; the tracing
overhead is the traced first panel's time minus its untraced replay.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record of a run (environment, every
descent, the probe, the spans) is written under perfbench/results/.
"""

import sys

from common import import_waveng, pin_threads

if __name__ == "__main__":
    pin_threads()
    import_waveng()
    from harness import main

    sys.exit(main())

"""Run the benchmark in two checkouts, alternating, and compare their end-to-end metrics.

Usage:
    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N] [--seconds T]

PARENT and CHANGE are repository roots.  Pair i (1 to N) runs

    python3 perfbench/run.py --workload W --seed i --seconds T --trace 0

in each checkout, one run at a time, the parent first when i is odd and the
change first when it is even, so neither side always runs on a machine
warmed, or slowed, by the other.  Each run's last standard-output line is
its JSON result.  For every end-to-end metric that CHANGE's BENCHMARK.json
names, the tool prints both medians, the parent's quartiles and their
distance (IQR), and the pairs the change won by its `better` direction;
a tie counts for neither side.  Each metric then gets one verdict:

    gain holds          the change won at least nine pairs in ten and the
                        medians differ by more than the parent's IQR;
    beyond bound        the change's median is worse than the parent's by
                        more than the metric's `bound`, a fraction of the
                        parent's median;
    no resolved change  otherwise.

It then prints each side's failed and attempted operations and its
`src_lines_total`, the source line count that each run's `env:` line
reports, so a change that deletes code states its count from the same runs
as its metrics.

This tool imports nothing from perfbench/ and writes nothing there but what
the benchmark itself writes.  It exits 1 when any run is not `correct`,
exits with no result, or fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    for root in (args.parent, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {root}")
    return args


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run in root: its JSON result, with its `env:` line as "env", or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(f"{root}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        return None
    env = [line.removeprefix("env: ") for line in lines if line.startswith("env: ")]
    result["env"] = json.loads(env[0]) if env else {}
    return result


def end_to_end(root: Path) -> dict[str, tuple[str, float]]:
    """End-to-end metric name -> ("lower" or "higher", bound), from root's BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: (m.get("better", "lower"), m["bound"]) for m in spec["end_to_end"]}


def verdict(
    pm: float, cm: float, iqr: float, wins: int, pairs: int, sign: float, bound: float
) -> str:
    """The verdict on one metric from its medians, the parent's IQR and the pairs the change won.

    sign is 1 when lower is better and -1 when higher is; bound is a
    fraction of the parent's median.
    """
    worse = sign * (cm - pm)
    if worse < 0 and 10 * wins >= 9 * pairs and -worse > iqr:
        return "gain holds"
    if worse > bound * abs(pm):
        return "beyond bound"
    return "no resolved change"


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    metrics = end_to_end(args.change)
    roots = dict(zip(SIDES, (args.parent, args.change)))
    results: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    for seed in range(1, args.pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            result = run_once(roots[side], args.workload, seed, args.seconds)
            results[side].append(result)
            shown = "no result" if result is None else " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}"
                for name in metrics if name in result["metrics"]
            )
            print(f"pair {seed} {side}: {shown}", flush=True)

    ok = all(r is not None and r["correct"] for side in SIDES for r in results[side])
    paired = [
        (p["metrics"], c["metrics"]) for p, c in zip(results["parent"], results["change"])
        if p is not None and c is not None
    ]
    print(f"\n{args.workload}: {len(paired)} complete pairs of {args.pairs}, --seconds {args.seconds}")
    for name, (direction, bound) in metrics.items():
        pairs = [(p[name]["value"], c[name]["value"]) for p, c in paired if name in p and name in c]
        if not pairs:
            print(f"{name:16s} not reported")
            continue
        parent, change = [v for v, _ in pairs], [v for _, v in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        losses = sum(sign * (c - p) > 0 for p, c in pairs)
        pm, cm = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (pm, pm, pm)
        drop = f"{100.0 * (cm - pm) / pm:+.2f} %" if pm else "-"
        resolved = "beyond" if abs(cm - pm) > q3 - q1 else "within"
        print(
            f"{name:16s} parent {pm:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, IQR {q3 - q1:.3g})  "
            f"change {cm:.6g} ({drop}, {resolved} the IQR)  "
            f"change won {wins}/{len(pairs)}, lost {losses}, {direction} is better: "
            f"{verdict(pm, cm, q3 - q1, wins, len(pairs), sign, bound)} (bound {bound:g})"
        )
    for side in SIDES:
        done = [r for r in results[side] if r is not None]
        failed = sum(r["failed"] for r in done)
        attempted = sum(r["attempted"] for r in done)
        incorrect = sum(not r["correct"] for r in done) + results[side].count(None)
        src_lines = sorted({str(r["env"].get("src_lines_total", "-")) for r in done})
        print(
            f"{side:6s} failed operations {failed} of {attempted}; runs not correct: {incorrect}; "
            f"src_lines_total {'/'.join(src_lines) or '-'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Steadiness self-check: repeated runs per workload, medians and quartiles.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                    [--against .perfbench-out/steadiness-1.json]

Runs ``run.py`` ``--runs`` times per workload, each with its own seed, and
prints for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median.
Each spread is compared with the metric's bound in ``BENCHMARK.json``: above
a third of the bound it is flagged ``WIDE``, above the bound ``FAIL``. With
``--against`` an earlier record of the same commit, each median is also
compared with that record's: a median worse by more than the bound is
flagged ``SHIFT``. The exit status is 1 if any run failed or was wrong, or
any spread or shift failed. Every run's result line is kept in
``.perfbench-out/steadiness-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(results: list[dict], name: str) -> float:
    return statistics.median(r["metrics"][name]["value"] for r in results)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier steadiness record to compare medians with")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = (json.loads(args.against.read_text(encoding="utf-8"))
               if args.against else {})

    ok = True
    record = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            began = time.monotonic()
            result = run_once(workload, seed, spec["run_seconds"])
            result["wall_s"] = time.monotonic() - began
            results.append(result)
            ok &= result["correct"]
        record[workload] = results
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: {len(results)} runs, wall {min(walls):.1f}..{max(walls):.1f} s, "
              f"correct {sum(r['correct'] for r in results)}/{len(results)}, "
              f"failed calls {[r['failed'] for r in results]} of "
              f"{[r['attempted'] for r in results]}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flags = []
            if spread > bounds[name]:
                flags.append("FAIL")
                ok = False
            elif spread > bounds[name] / 3:
                flags.append("WIDE")
            line = (f"  {name:<14} median {median:<11.5g} q1 {q1:<11.5g} q3 {q3:<11.5g} "
                    f"spread {spread:6.3f}")
            if workload in earlier:
                before = median_of(earlier[workload], name)
                worse = (median - before if lower[name] else before - median) / before
                line += f"  worse than before by {worse:6.3f}"
                if worse > bounds[name]:
                    flags.append("SHIFT")
                    ok = False
            print(line, " ".join(flags))
        sys.stdout.flush()
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.first_seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

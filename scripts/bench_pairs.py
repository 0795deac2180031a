#!/usr/bin/env python3
"""Parent/change pairs of benchmark runs, written to one ``BENCH_<workload>.json``.

    python3 scripts/bench_pairs.py --parent ../stemp-parent --change . \\
        --workload census --seeds 1 2 3 4 5

Each checkout (for example one made by ``git worktree add`` or ``git
clone``) is benchmarked as it stands: for every seed, ``perfbench/run.py
--workload W --seed S --seconds 35 --trace 0`` runs in the parent and in the
change, one after the other, and the side that goes first alternates from
seed to seed, so that a drift of the machine's speed falls on both sides
alike. The run length is the change's ``BENCHMARK.json`` ``run_seconds``.
Then the first three seeds run again with ``--trace 1``, paired and
alternated the same way, for the per-layer figures: one traced run per side
would read the machine's drift as a change of layer.

The file, written at the root of the change's checkout, holds every run's
``correct`` flag and metrics; per end-to-end metric (``metrics``, over the
untraced runs) and per layer (``layers``, over the traced ones), the
per-seed values, both medians, the parent's quartiles and the count of
pairs in which the change did better (the direction is the one
``BENCHMARK.json`` declares); and the machine's core count and Python
version. Runs go one at a time, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SCHEMA = "stemp-bench-pairs/1"
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600
TRACED_SEEDS = 3  # the first seeds, run again traced


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last line's result,
    each metric reduced to its value; a run that prints none is not correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except (subprocess.TimeoutExpired, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {"correct": bool(result.get("correct")), "attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0),
            "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()}}


def commit_of(checkout: Path) -> str | None:
    """The checkout's HEAD commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def declared(checkout: Path) -> tuple[float, dict[str, dict], dict[str, dict]]:
    """The run length and name -> {unit, better} of the end-to-end and of
    the per-layer metrics that the checkout's BENCHMARK.json declares."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["run_seconds"], *({m["name"]: {"unit": m["unit"], "better": m["better"]}
                                  for m in doc[kind]} for kind in ("end_to_end", "per_layer"))


def summarize(runs: list[dict], seeds: list[int], specs: dict[str, dict]) -> dict:
    """Per metric: per-seed values of each side (None where a run gave
    none), their medians, the parent's quartiles, and the pairs improved."""
    by = {(r["side"], r["seed"]): r["metrics"] for r in runs}
    out = {}
    for name, spec in specs.items():
        values = {side: [by[side, seed].get(name) for seed in seeds] for side in SIDES}
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"])
                 if p is not None and c is not None]
        higher = spec["better"] == "higher"
        parent = [v for v in values["parent"] if v is not None]
        change = [v for v in values["change"] if v is not None]
        out[name] = {
            **spec,
            **values,
            "parent_median": statistics.median(parent) if parent else None,
            "change_median": statistics.median(change) if change else None,
            "parent_quartiles": (statistics.quantiles(parent, n=4, method="inclusive")[::2]
                                 if len(parent) > 1 else None),
            "pairs": len(pairs),
            "improved": sum(c > p if higher else c < p for p, c in pairs),
        }
    return out


def check_schema(doc: dict) -> list[str]:
    """The ways ``doc`` departs from the file's schema (none when it fits)."""
    problems = []
    for key, kind in (("schema", str), ("workload", str), ("seconds", float),
                      ("seeds", list), ("traced_seeds", list), ("commits", dict),
                      ("machine", dict), ("runs", list), ("metrics", dict), ("layers", dict)):
        if not isinstance(doc.get(key), (int, float) if kind is float else kind):
            problems.append(f"{key}: missing or not a {kind.__name__}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema is {doc['schema']!r}, not {SCHEMA!r}")
    if not {"cores", "python"} <= set(doc["machine"]):
        problems.append("machine: needs cores and python")
    for trace, kind, seeds, summary in ((0, "untraced", doc["seeds"], "metrics"),
                                        (1, "traced", doc["traced_seeds"], "layers")):
        for k, seed in enumerate(seeds):
            sides = [r for r in doc["runs"] if r.get("seed") == seed and r.get("trace") == trace]
            if sorted(r.get("side") for r in sides) != sorted(SIDES):
                problems.append(f"seed {seed}: needs one {kind} run per side")
            elif {r["side"]: r.get("order") for r in sides} != {SIDES[k % 2]: 0,
                                                                 SIDES[1 - k % 2]: 1}:
                problems.append(f"seed {seed}: the side that goes first in its {kind} runs "
                                f"does not alternate")
        for name, m in doc[summary].items():
            for key in ("unit", "better", "parent", "change", "parent_median",
                        "change_median", "parent_quartiles", "pairs", "improved"):
                if key not in m:
                    problems.append(f"metric {name}: no {key}")
            if all(k in m for k in ("parent", "change")) and not (
                    len(m["parent"]) == len(m["change"]) == len(seeds)):
                problems.append(f"metric {name}: needs one value per {kind} seed and side")
    for r in doc["runs"]:
        if not (isinstance(r.get("correct"), bool) and isinstance(r.get("metrics"), dict)):
            problems.append(f"run {r.get('side')}/{r.get('seed')}: needs correct and metrics")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    seconds, metrics, layers = declared(args.change)
    checkouts = {"parent": args.parent, "change": args.change}
    traced = args.seeds[:TRACED_SEEDS]
    runs = []
    for trace, seeds in ((0, args.seeds), (1, traced)):
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_one(checkouts[side], args.workload, seed, seconds, trace)
                runs.append({"side": side, "seed": seed, "trace": trace, "order": position,
                             **result})
                print(f"{args.workload} seed {seed} trace {trace} {side}: "
                      f"correct={result['correct']} "
                      f"seq_per_s={result['metrics'].get('seq_per_s')}", file=sys.stderr)

    doc = {
        "schema": SCHEMA,
        "workload": args.workload,
        "seconds": seconds,
        "seeds": args.seeds,
        "traced_seeds": traced,
        "commits": {side: commit_of(path) for side, path in checkouts.items()},
        "machine": {"cores": os.cpu_count(), "python": platform.python_version()},
        "runs": runs,
        "metrics": summarize([r for r in runs if r["trace"] == 0], args.seeds, metrics),
        "layers": summarize([r for r in runs if r["trace"] == 1], traced, layers),
    }
    problems = check_schema(doc)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    path = args.change / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

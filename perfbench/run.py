"""stemp benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload trna-report --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its ``src/`` directory. The run

1. measures set-up: a fresh interpreter importing ``stemp.cli`` and
   resolving the workload's profiles, repeated, median reported;
2. starts ``worker.py`` in a fresh process, which writes the inputs the
   seed draws from the workload's pool and calls ``stemp.cli.main`` once per
   input and pass (see ``worker.py``);
3. checks every input against its digest in ``golden.json``, and every
   call: the exit code, the output's invariants (``check.py``), the digest
   recorded for that input at the reference commit (``golden.json``) and
   the digest of the input's earlier calls;
4. times ``reference_loop`` after every set-up probe and every call, and
   normalises the end-to-end times to the reference CPU speed by it;
5. prints each metric by name and unit, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, from traced passes that alternate with
untraced passes over the same inputs (``tracing.py``).

Exit status is 0 when a result was printed, 2 on bad arguments or a
checkout without ``src/stemp``, 1 when the worker failed or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_output
from tracing import expected_spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# Seconds that reference_loop() takes at the CPU speed the figures are
# normalised to: its median on the 2-core VM that recorded golden.json.
REFERENCE_LOOP_S = 0.00085
DEADLINE_S = 170  # whole run, set-up included; the worker is killed past it

SETUP_PROBE = (
    "import sys\n"
    "import stemp.cli\n"
    "from stemp.profiles import resolve_profile\n"
    "for name in sys.argv[1:]:\n"
    "    resolve_profile(name)\n"
    "print('ready', flush=True)\n"
)


def child_env() -> dict:
    """The environment of the benchmark's processes: the checkout's sources
    first, and no profile override directory, so that every run resolves
    the packaged profiles."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("STEMP_PROFILE_DIR", None)
    return env


def reference_loop() -> float:
    """Seconds of a fixed pure-Python loop, timed in this process.

    The measuring host's CPU speed drifts by a fifth and more over minutes,
    and every Python process on it slows alike. Timed next to the program's
    calls, this loop tells at what speed they ran; it never runs in a
    process that imported ``stemp.cli``.
    """
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return time.perf_counter() - start


def measure_setup(profiles: list[str]) -> tuple[float, float]:
    """Median seconds from starting an interpreter to having imported the
    CLI and resolved the profiles, as measured and normalised to the
    reference speed."""
    times, normalised = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, *profiles],
                                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.close()
        finally:
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        loop_s = statistics.median(reference_loop() for _ in range(5))
        times.append(elapsed)
        normalised.append(elapsed * REFERENCE_LOOP_S / loop_s)
    return statistics.median(times), statistics.median(normalised)


class Checker:
    """Verdicts on the worker's calls, kept per pool entry."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.inputs: dict[int, dict] = {}
        self.first: dict[int, dict] = {}   # input -> verdict of its first call
        self.problems: list[str] = []

    def add_input(self, message: dict):
        """Take one input before any call; it must be the recorded one."""
        message["reference"] = frozenset(tuple(p) for p in message["pairs"])
        index = message["input"]
        self.inputs[index] = message
        recorded = self.golden.get(str(index), {}).get("input")
        if recorded != message["digest"]:
            self.problems.append(f"input {index} ({message['id']}): not the input "
                                 "recorded in golden.json")

    def judge(self, message: dict) -> dict:
        """Whether the call failed; every wrong answer adds to ``problems``.

        A failure is any exit but 0. Exit 3 (budget) and an exit 2 that
        repeats the reference commit's recorded error are failures, not wrong
        answers; any other failure, a broken invariant, or a digest that
        differs from the reference commit or from the input's first call is wrong.
        """
        index = message["input"]
        if index in self.first:
            verdict = self.first[index]
            if message["digest"] != verdict["digest"]:
                self.problems.append(f"input {index}: output differs from its first call")
                return dict(verdict, failed=True)
            return verdict
        inp = self.inputs[index]
        code = message["exit"]
        verdict = {"digest": message["digest"], "failed": code != 0,
                   "top_mcc": 0.0, "best_mcc": 0.0}
        seed = self.golden.get(str(index))
        where = f"input {index} ({inp['id']}, {inp['profile']})"
        problem = None
        if code == 0:
            problem = self._check_success(message, inp, seed, verdict)
        elif code != 3 and not (seed and seed["digest"] == message["digest"]):
            problem = f"exit {code}: {message['stderr'].strip()}"
        if problem:
            self.problems.append(f"{where}: {problem}")
            verdict["failed"] = True
        self.first[index] = verdict
        return verdict

    def _check_success(self, message: dict, inp: dict, seed: dict | None,
                       verdict: dict) -> str | None:
        """What is wrong with an exit-0 call's output; scores it when right."""
        if message["path"] is None:
            return "exit 0 without an output file"
        try:
            v = check_output(self.workload.command, Path(message["path"]), inp["id"],
                             inp["residues"], inp["profile"], inp["reference"],
                             self.workload.top_k)
        except (ValueError, KeyError, TypeError) as exc:  # the output is outside input
            return f"output does not parse: {type(exc).__name__}: {exc}"
        if v.problems:
            return "; ".join(v.problems[:3])
        if seed and seed["exit"] == 0 and seed["digest"] != message["digest"]:
            return "output differs from the reference commit"
        verdict.update(top_mcc=v.top_mcc, best_mcc=v.best_mcc)
        return None


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(calls: list[dict], verdicts: list[dict], checker: Checker,
               setup_s: float, peak_rss_kb: int, speed: float) -> dict:
    """The end-to-end metrics; call times are multiplied by ``speed``."""
    seconds = [c["seconds"] * speed for c in calls]
    inputs = list(checker.inputs)
    return {
        "seq_per_s": (len(seconds) / sum(seconds), "1/s"),
        "seq_s.p50": (statistics.median(seconds), "s"),
        "seq_s.p90": (quantile(seconds, 90), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1 - sum(v["failed"] for v in verdicts) / len(verdicts), "fraction"),
        "top_mcc": (statistics.mean(checker.first[i]["top_mcc"] for i in inputs), "mcc"),
        "best_mcc": (statistics.mean(checker.first[i]["best_mcc"] for i in inputs), "mcc"),
    }


def per_layer(calls: list[dict], done: dict) -> dict:
    traced = [c for c in calls if c["traced"]]
    plain = [c for c in calls if not c["traced"]]
    n = len(traced)
    self_s = done["self_s"]
    counts = done["counts"]
    spans = done["span_counts"]
    passes = done["passes"] // 2

    def per_call(value: float) -> float:
        return value / n

    search_s = self_s.get("cliques.search", 0.0)
    ranked = counts.get("cliques.ranked", 0)
    return {
        "fileio.dot_bracket_s": (per_call(self_s.get("fileio.dot_bracket", 0.0)), "s"),
        "fileio.dot_bracket_calls": (per_call(spans.get("fileio.dot_bracket", 0)), "count"),
        "fileio.report_s": (per_call(self_s.get("fileio.report", 0.0)), "s"),
        "fileio.bytes_out": (per_call(sum(c["bytes"] for c in traced)), "bytes"),
        "cliques.rank_s": (per_call(self_s.get("cliques.rank", 0.0)), "s"),
        "cliques.emitted_frac": (counts.get("cliques.emitted", 0) / ranked if ranked else 0.0,
                                 "fraction"),
        "cliques.search_s": (per_call(search_s), "s"),
        "cliques.cliques": (per_call(counts.get("cliques.cliques", 0)), "count"),
        "cliques.cliques_per_s": (counts.get("cliques.cliques", 0) / search_s
                                  if search_s else 0.0, "1/s"),
        "metrics.score_s": (per_call(self_s.get("metrics.score", 0.0)), "s"),
        "metrics.scored": (per_call(counts.get("metrics.scored", 0)), "count"),
        "profiles.vertices_s": (per_call(self_s.get("profiles.vertices", 0.0)), "s"),
        "profiles.V": (per_call(counts.get("profiles.V", 0)), "count"),
        "stems.graph_s": (per_call(self_s.get("stems.graph", 0.0)), "s"),
        "stems.E": (per_call(counts.get("stems.E", 0)), "count"),
        "fileio.read_s": (per_call(self_s.get("fileio.read", 0.0)), "s"),
        "cli.self_s": (per_call(self_s.get("cli.main", 0.0)), "s"),
        "cli.exit2": (sum(c["exit"] == 2 for c in traced) / passes, "count"),
        "cli.exit3": (sum(c["exit"] == 3 for c in traced) / passes, "count"),
        "trace.overhead": (sum(c["seconds"] for c in traced)
                           / sum(c["seconds"] for c in plain) - 1, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stemp benchmark, one workload run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stemp" / "cli.py").is_file():
        print(f"error: no stemp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))

    began = time.monotonic()
    tmp = ROOT / ".perfbench-tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setup = None
        if not args.trace:
            setup = measure_setup(workload.profiles)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", str(tmp), "--golden", str(golden_path)]
        if args.trace:
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
        worker = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(max(1.0, DEADLINE_S - (time.monotonic() - began)),
                                   worker.kill)
        watchdog.start()
        checker = Checker(workload, golden.get(args.workload, {}))
        calls, verdicts, loops, done = [], [], [], None
        try:
            for line in worker.stdout:
                message = json.loads(line)
                if "done" in message:
                    done = message
                    break
                if "call" in message:
                    verdict = checker.judge(message)
                    if message["call"] == "timed":
                        calls.append(message)
                        verdicts.append(verdict)
                        loops.append(reference_loop())
                    if message["path"]:
                        Path(message["path"]).unlink(missing_ok=True)
                else:
                    checker.add_input(message)
                worker.stdin.write("ok\n")
                worker.stdin.flush()
        finally:
            watchdog.cancel()
            worker.stdin.close()
            worker.stdout.close()
            worker.wait()
        if done is None or worker.returncode != 0:
            print(f"error: worker exited {worker.returncode} before finishing",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        metrics = per_layer(calls, done)
        for name in sorted(expected_spans(workload.command) - set(done["span_counts"])):
            checker.problems.append(f"traced run: no {name} span")
        verdicts = [v for c, v in zip(calls, verdicts) if c["traced"]]
    else:
        speed = REFERENCE_LOOP_S / statistics.median(loops)
        metrics = end_to_end(calls, verdicts, checker, setup[1], done["peak_rss_kb"], speed)
        raw = end_to_end(calls, verdicts, checker, setup[0], done["peak_rss_kb"], 1.0)
    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {len(checker.inputs)} inputs x "
          f"{done['passes']} passes = {len(calls)} calls"
          + (" (half traced)" if args.trace else ""))
    if not args.trace:
        print(f"the CPU ran at {speed:.3f} x the reference speed; as measured, the times read:")
        for name in ("seq_per_s", "seq_s.p50", "seq_s.p90", "setup_s"):
            print(f"  {name:<26} {raw[name][0]:>14.6g} {raw[name][1]}")
        print("metrics, times normalised to the reference speed:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    result = {
        "correct": not checker.problems,
        "attempted": len(verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload run in a fresh process, driven by ``run.py``.

The worker writes the run's inputs, then calls ``stemp.cli.main`` once per
input and pass, timing each call. After every call it sends one JSON line
to ``run.py`` on its standard output and waits for a line back, so the
checks run while the worker is idle and their memory never counts in the
worker's peak RSS. It repeats whole passes over the inputs while the next
pass still fits in ``--seconds``; with ``--trace 1`` passes alternate
untraced and traced. It makes at least ``MIN_CALLS`` timed calls even
when that takes longer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from check import digest
from gen import write_case
from tracing import Tracer
from workloads import WORKLOADS

# Timed calls a run makes at least, so that ten lie beyond seq_s.p90.
MIN_CALLS = 100


def invoke(run, argv: list[str], out: Path) -> tuple[int, float, bytes, str]:
    """One timed CLI call writing to ``out``: exit code, seconds, the bytes
    its digest covers (the output file on exit 0, else the error text) and
    the error text. A raise is a result too (exit -1), not a crash."""
    if out.exists():
        out.unlink()
    gc.collect()  # start each call with no garbage left from the one before
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    payload = out.read_bytes() if code == 0 and out.exists() else err.getvalue().encode()
    return code, seconds, payload, err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--golden", required=True, help="golden.json, for the draw")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args()

    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    replies = sys.stdin

    def send(message: dict):
        channel.write(json.dumps(message) + "\n")
        channel.flush()
        if replies.readline().strip() != "ok":
            raise SystemExit("run.py stopped answering")

    workload = WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    inputs = []
    golden = json.loads(Path(args.golden).read_text(encoding="utf-8")).get(args.workload, {})
    for index in workload.draw(args.seed, golden):
        case, profile = workload.entry(index)
        fasta, ct = write_case(case, tmp)
        inputs.append((index, workload.argv(profile, str(fasta), str(ct), str(tmp / "out"))))
        send({"input": index, "id": case.id, "residues": case.residues,
              "profile": profile, "pairs": case.pairs, "digest": case.digest})

    from stemp.cli import main as stemp_main
    tracer = Tracer() if args.trace else None

    def call(index: int, argv: list[str], kind: str, traced: bool):
        run = (lambda a: tracer.run(stemp_main, a)) if traced else stemp_main
        code, seconds, payload, err = invoke(run, argv, tmp / "out")
        send({"call": kind, "input": index, "seconds": seconds, "exit": code,
              "traced": traced, "digest": digest(code, payload),
              "bytes": len(payload) if code == 0 else 0,
              "path": str(tmp / "out") if code == 0 and (tmp / "out").exists() else None,
              "stderr": err[-400:]})

    call(*inputs[0], "warmup", False)
    cycle = (False, True) if args.trace else (False,)
    passes = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for traced in cycle:
            if traced:
                tracer.install()
            try:
                for index, argv in inputs:
                    call(index, argv, "timed", traced)
            finally:
                if traced:
                    tracer.uninstall()
            passes += 1
        now = time.perf_counter()
        enough = passes * len(inputs) >= MIN_CALLS
        if enough and now - start + (now - began) > args.seconds:
            break

    done = {"done": True, "passes": passes,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        done["self_s"] = tracer.self_times()
        done["span_counts"] = tracer.span_counts()
        done["counts"] = dict(tracer.counts)
        if args.spans:
            tracer.write(Path(args.spans))
    channel.write(json.dumps(done) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

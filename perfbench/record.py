"""Record ``golden.json``: every pool entry's result at this commit.

    python3 perfbench/record.py [--workload NAME ...]

For each pool entry of each workload it stores the digest of the input
(``gen.Planted.digest``), the exit code and the digest of the output
(``check.digest``), plus, as a reference for the budgets in
``workloads.py``, the entry's maximal-clique count, the call's seconds and
its process's peak RSS on the recording machine. Each entry runs in a
fresh process, so that the peak RSS is that entry's. Run it only on the
commit whose outputs are the reference; ``run.py`` treats any later
difference as a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from check import digest  # noqa: E402
from gen import write_case  # noqa: E402
from run import child_env  # noqa: E402
from worker import invoke  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def clique_count(fasta: Path, profile: str) -> int:
    from stemp.cliques import maximal_cliques
    from stemp.fileio import read_fasta
    from stemp.profiles import build_profile_graph, resolve_profile

    graph = build_profile_graph(read_fasta(fasta)[0], resolve_profile(profile))
    return len(maximal_cliques(graph))


def record_entry(name: str, index: int, tmp: Path) -> dict:
    """One pool entry's record; run in a process of its own."""
    from stemp.cli import main as stemp_main

    workload = WORKLOADS[name]
    case, profile = workload.entry(index)
    fasta, ct = write_case(case, tmp)
    argv = workload.argv(profile, str(fasta), str(ct), str(tmp / "out"))
    code, seconds, payload, err = invoke(stemp_main, argv, tmp / "out")
    return {"input": case.digest, "exit": code, "digest": digest(code, payload),
            "cliques": clique_count(fasta, profile), "seconds": round(seconds, 4),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024,
            "length": case.length, "error": err.strip()[:60]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--entry", nargs=3, metavar=("WORKLOAD", "INDEX", "TMP"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.entry:
        name, index, tmp = args.entry
        print(json.dumps(record_entry(name, int(index), Path(tmp))))
        return 0

    path = HERE / "golden.json"
    golden = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in args.workload or WORKLOADS:
        entries = {}
        scratch = HERE.parent / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for index in range(WORKLOADS[name].size):
                proc = subprocess.run([sys.executable, __file__, "--entry", name, str(index), tmp],
                                      env=child_env(), capture_output=True, text=True,
                                      check=True)
                entry = json.loads(proc.stdout.splitlines()[-1])
                print(name, index, entry, flush=True)
                del entry["length"], entry["error"]
                entries[str(index)] = entry
        golden[name] = entries
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

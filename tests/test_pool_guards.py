"""Guards over the benchmark's input pools, in tier-1: the vertex lists of
all 321 pool entries hash to one recorded digest, and every ``topk-search``
entry, predicted through ``main()``, gives the output (or, for the entries
that exit 2, the error text) whose digest ``perfbench/golden.json``
records. The benchmark's modules are loaded by path and only read."""

import functools
import hashlib
import json

from stemp import parse_sequence
from stemp.cli import main
from stemp.profiles import profile_vertices, resolve_profile

from .conftest import PERFBENCH, load_perfbench

# SHA-256 of the vertex lists' reprs, concatenated in pool order over
# trna-report, census and topk-search, as the generator that built every
# candidate stem before filtering it gave them.
VERTEX_DIGEST = "e257695f5d1eeff44eeca8115d00f61a6eaeb3423333499fbe4513b125392fe7"


def test_pool_vertex_lists_match_digest(monkeypatch):
    gen = load_perfbench("gen", monkeypatch)
    # one 5S planner per profile, not one per entry; the recorded input
    # digests below show that the inputs are the same
    monkeypatch.setattr(gen, "rrna5s_planner", functools.cache(gen.rrna5s_planner))
    workloads = load_perfbench("workloads", monkeypatch).WORKLOADS
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    entries = 0
    for name in ("trna-report", "census", "topk-search"):
        workload = workloads[name]
        for index in range(workload.size):
            case, profile = workload.entry(index)
            assert case.digest == golden[name][str(index)]["input"], (name, index)
            seq = parse_sequence(case.residues, id=case.id)
            digest.update(repr(profile_vertices(seq, resolve_profile(profile))).encode())
            entries += 1
    assert entries == 321
    assert digest.hexdigest() == VERTEX_DIGEST


def test_topk_search_outputs_match_golden(tmp_path, monkeypatch, capsys):
    gen = load_perfbench("gen", monkeypatch)
    workload = load_perfbench("workloads", monkeypatch).WORKLOADS["topk-search"]
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["topk-search"]
    assert workload.size == len(golden) == 64
    out = tmp_path / "out.json"
    codes = []
    wrong = []
    for index in range(workload.size):
        case, profile = workload.entry(index)
        assert case.digest == golden[str(index)]["input"], index
        fasta, ct = gen.write_case(case, tmp_path)
        out.unlink(missing_ok=True)
        code = main(workload.argv(profile, str(fasta), str(ct), str(out)))
        err = capsys.readouterr().err
        # as perfbench/check.py::digest: the output on exit 0, else the error text
        payload = out.read_bytes() if code == 0 else err.encode()
        digest = hashlib.sha256(b"exit=%d\n" % code + payload).hexdigest()
        if digest != golden[str(index)]["digest"] or (code == 0 and err):
            wrong.append(index)
        codes.append(code)
    assert (codes.count(0), codes.count(2)) == (60, 4)
    assert wrong == []

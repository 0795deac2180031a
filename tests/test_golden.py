"""The benchmark's recorded outputs hold in tier-1: every tRNA entry of the
``census`` pool, evaluated through ``main()``, and every entry of the
``trna-report`` pool, predicted through ``main()``, gives the bytes whose
digest ``perfbench/golden.json`` records. The benchmark's modules are loaded
by path and only read."""

import hashlib
import json

from stemp.cli import main

from .conftest import PERFBENCH, load_perfbench as _load


def test_census_trna_outputs_match_golden(tmp_path, monkeypatch, capsys):
    gen = _load("gen", monkeypatch)
    census = _load("workloads", monkeypatch).WORKLOADS["census"]
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["census"]
    entries = [i for i in range(census.pool) if census.kinds[i % len(census.kinds)] == "trna"]
    assert len(entries) == 64
    out = tmp_path / "out.json"
    wrong = []
    for index in entries:
        case, profile = census.entry(index)
        assert case.digest == golden[str(index)]["input"], index
        fasta, ct = gen.write_case(case, tmp_path)
        assert main(census.argv(profile, str(fasta), str(ct), str(out))) == 0, index
        digest = hashlib.sha256(b"exit=0\n" + out.read_bytes()).hexdigest()
        if digest != golden[str(index)]["digest"]:
            wrong.append(index)
    assert capsys.readouterr().err == ""
    assert wrong == []


def test_trna_report_outputs_match_golden(tmp_path, monkeypatch, capsys):
    gen = _load("gen", monkeypatch)
    workload = _load("workloads", monkeypatch).WORKLOADS["trna-report"]
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["trna-report"]
    assert workload.size == len(golden) == 129  # 128 pool entries and the heavy one
    out = tmp_path / "out.json"
    wrong = []
    for index in range(workload.size):
        case, profile = workload.entry(index)
        assert case.digest == golden[str(index)]["input"], index
        fasta, ct = gen.write_case(case, tmp_path)
        assert main(workload.argv(profile, str(fasta), str(ct), str(out))) == 0, index
        digest = hashlib.sha256(b"exit=0\n" + out.read_bytes()).hexdigest()
        if digest != golden[str(index)]["digest"]:
            wrong.append(index)
    assert capsys.readouterr().err == ""
    assert wrong == []

"""The benchmark's recorded outputs hold in tier-1: every entry of the
``census`` pool, evaluated through ``main()``, and every entry of the
``trna-report`` pool, predicted through ``main()``, gives the bytes whose
digest ``perfbench/golden.json`` records; ``batch`` over census entries
gives pinned bytes and the scores ``evaluate`` gives. The benchmark's modules
are loaded by path and only read."""

import functools
import hashlib
import json

import pytest

from stemp.cli import main

from .conftest import PERFBENCH, load_perfbench as _load

# SHA-256 of the ``batch -o`` documents over BATCH_ENTRIES, concatenated in
# profile order, per metric; --jobs 1 and --jobs 2 give the same bytes.
BATCH_DIGESTS = {
    "mcc": "383bee7dce898e489263c7552b3068a4fe08f18b30f49047ead2f1245c4cc945",
    "f1": "19a7ceefc5db54623b0a78415e6f789bd5e936963afa0342299b137e507dabd9",
}
# census pool entries per profile: the first 16 tRNA entries and the first
# 4 of each 5S profile
BATCH_TRNA, BATCH_5S = 16, 4


def _census(monkeypatch):
    gen = _load("gen", monkeypatch)
    # one 5S planner per profile, not one per entry; the recorded input
    # digests show that the inputs are the same
    monkeypatch.setattr(gen, "rrna5s_planner", functools.cache(gen.rrna5s_planner))
    census = _load("workloads", monkeypatch).WORKLOADS["census"]
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["census"]
    return gen, census, golden


def test_census_outputs_match_golden(tmp_path, monkeypatch, capsys):
    gen, census, golden = _census(monkeypatch)
    assert census.size == len(golden) == 128
    out = tmp_path / "out.json"
    wrong = []
    for index in range(census.size):
        case, profile = census.entry(index)
        assert case.digest == golden[str(index)]["input"], index
        fasta, ct = gen.write_case(case, tmp_path)
        assert main(census.argv(profile, str(fasta), str(ct), str(out))) == 0, index
        digest = hashlib.sha256(b"exit=0\n" + out.read_bytes()).hexdigest()
        if digest != golden[str(index)]["digest"]:
            wrong.append(index)
    assert capsys.readouterr().err == ""
    assert wrong == []


@pytest.mark.parametrize("metric", sorted(BATCH_DIGESTS))
def test_batch_over_census_entries(tmp_path, monkeypatch, capsys, metric):
    """``batch`` over census entries, one directory per profile: the
    documents hash to the pinned digest with one worker and with two, and
    every row's score fields are those of ``evaluate`` on the same pair."""
    gen, census, golden = _census(monkeypatch)
    quota = {profile: BATCH_5S for profile in census.profiles}
    quota["trna"] = BATCH_TRNA
    directories = {}
    for index in range(census.size):
        case, profile = census.entry(index)
        if quota[profile]:
            quota[profile] -= 1
            assert case.digest == golden[str(index)]["input"], index
            directory = directories.setdefault(profile, tmp_path / profile)
            directory.mkdir(exist_ok=True)
            gen.write_case(case, directory)
    assert not any(quota.values())
    out = tmp_path / "batch.json"
    documents = {}
    for jobs in ("1", "2"):
        digest = hashlib.sha256()
        for profile, directory in sorted(directories.items()):
            assert main(["batch", "--profile", profile, "--metric", metric, "--jobs", jobs,
                         "--max-cliques", str(census.max_cliques), str(directory),
                         "-o", str(out)]) == 0
            digest.update(out.read_bytes())
            documents[profile] = json.loads(out.read_text(encoding="utf-8"))
        assert digest.hexdigest() == BATCH_DIGESTS[metric], jobs
    evaluated = tmp_path / "evaluate.json"
    for profile, directory in directories.items():
        rows = documents[profile]["rows"]
        assert len(rows) == (BATCH_TRNA if profile == "trna" else BATCH_5S)
        for row in rows:
            argv = census.argv(profile, str(directory / f"{row['id']}.fasta"),
                               str(directory / f"{row['id']}.ct"), str(evaluated))
            assert main(argv + ["--metric", metric]) == 0
            doc = json.loads(evaluated.read_text(encoding="utf-8"))
            for key in ("top", "best", "scr_of_best", "dr_of_best", "multiplicity"):
                assert row[key] == doc[key], (row["id"], key)
    assert capsys.readouterr().err == ""


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

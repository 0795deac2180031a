"""``scripts/bench_pairs.py`` writes its file in the declared schema: checked
on a fake run, with no benchmark started, and on every committed
``BENCH_*.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fake_run_fits_the_schema(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "change" if checkout == tmp_path / "change" else "parent"
        calls.append((side, seed, trace))
        faster = side == "change" and seed != 3  # seed 3: the change is slower
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"seq_per_s": 60.0 + seed if faster else 50.0 + seed,
                            "peak_rss_mb": 40.0, "cliques.rank_s": 0.001}}

    monkeypatch.setattr(bench_pairs, "run_one", fake_run)
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: None)
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "census",
                             "--seeds", "1", "2", "3", "4"]) == 0
    # the side that goes first alternates; the first three seeds run again traced
    assert calls == [("parent", 1, 0), ("change", 1, 0), ("change", 2, 0), ("parent", 2, 0),
                     ("parent", 3, 0), ("change", 3, 0), ("change", 4, 0), ("parent", 4, 0),
                     ("parent", 1, 1), ("change", 1, 1), ("change", 2, 1), ("parent", 2, 1),
                     ("parent", 3, 1), ("change", 3, 1)]
    doc = json.loads((tmp_path / "change" / "BENCH_census.json").read_text())
    assert bench_pairs.check_schema(doc) == []
    assert doc["seconds"] == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert doc["machine"]["cores"] >= 1 and doc["machine"]["python"].count(".") == 2
    speed = doc["metrics"]["seq_per_s"]
    assert speed["parent"] == [51.0, 52.0, 53.0, 54.0]
    assert speed["change"] == [61.0, 62.0, 53.0, 64.0]
    assert (speed["pairs"], speed["improved"], speed["better"]) == (4, 3, "higher")
    assert speed["parent_median"] == 52.5 and speed["change_median"] == 61.5
    assert speed["parent_quartiles"] == [51.75, 53.25]
    assert doc["metrics"]["peak_rss_mb"]["improved"] == 0  # ties do not count
    assert doc["metrics"]["setup_s"]["parent"] == [None] * 4  # a metric no run gave
    assert "cliques.rank_s" not in doc["metrics"]  # per-layer values stay in the runs
    assert [r["metrics"]["cliques.rank_s"] for r in doc["runs"] if r["trace"]] == [0.001] * 6
    rank = doc["layers"]["cliques.rank_s"]
    assert (rank["parent"], rank["change_median"]) == ([0.001] * 3, 0.001)
    broken = dict(doc, runs=[r for r in doc["runs"] if r["seed"] != 2])
    assert bench_pairs.check_schema(broken) == ["seed 2: needs one untraced run per side",
                                                "seed 2: needs one traced run per side"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_files_fit_the_schema(bench_pairs, path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert bench_pairs.check_schema(doc) == []
    assert path.name == f"BENCH_{doc['workload']}.json"
    assert all(run["correct"] for run in doc["runs"])

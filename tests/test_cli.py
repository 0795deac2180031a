import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from stemp import cli, fileio, parse_sequence
from stemp.cli import main, run_pipeline
from stemp.errors import FormatError
from stemp.fileio import (read_fasta, read_reference, report_to_dict, write_ct,
                          write_dot_bracket)
from stemp.profiles import builtin_profile, profile_to_dict, resolve_profile

from .conftest import FIXTURES, PAIRS_2QUX
from .test_profiles import SYNTH_TRNA, SYNTH_TRNA_PAIRS

TWOQUX_FASTA = str(FIXTURES / "2qux.fasta")
TWOQUX_CT = str(FIXTURES / "2qux.ct")


def run(*argv):
    return main(list(argv))


# ------------------------------------------------------------- predict

def test_predict_known_25mer(tmp_path, capsys):
    out = tmp_path / "report.json"
    db = tmp_path / "top.dbn"
    graph = tmp_path / "graph.json"
    code = run("predict", "--profile", "protein", TWOQUX_FASTA,
               "-o", str(out), "--dot-bracket", str(db), "--dump-graph", str(graph))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sequence_id"] == "2QUX"
    top = doc["predictions"][0]
    assert top["energy"] == 9
    assert top["rank_scr"] == 1
    assert top["vertices"] == [1, 4]
    assert top["dot_bracket"] == "(((((.((((......)))))))))"
    text = db.read_text().splitlines()
    assert text[0].startswith(">2QUX")
    assert text[2] == "(((((.((((......)))))))))"
    gdoc = json.loads(graph.read_text())
    assert len(gdoc["vertices"]) == 6
    assert len(gdoc["edges"]) == 6


def test_predict_stdout_and_text_graph(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    code = run("predict", "--profile", "protein", TWOQUX_FASTA,
               "--dump-graph", str(graph))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["predictions"][0]["energy"] == 9
    assert graph.read_text().splitlines()[0] == "v1 1 25 5 24 24/5"


def test_predict_no_stem_sequence(tmp_path):
    fasta = tmp_path / "flat.fasta"
    fasta.write_text(">flat\nAAAAAAAAAACCCCCAAAAA\n")
    out = tmp_path / "report.json"
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["predictions"] == []


def test_predict_budget_exit_code(tmp_path):
    assert run("predict", "--profile", "protein", TWOQUX_FASTA,
               "--max-cliques", "1", "-o", str(tmp_path / "r.json")) == 3


def test_predict_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.fasta"
    bad.write_text(">x\nACGUX\n")
    assert run("predict", "--profile", "protein", str(bad)) == 2
    assert run("predict", "--profile", "no-such-profile", TWOQUX_FASTA) == 2


def test_predict_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(a))
    run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_predict_top_k_and_ties(tmp_path):
    out = tmp_path / "r.json"
    run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(out),
        "--top-k", "3")
    assert len(json.loads(out.read_text())["predictions"]) == 3
    db = tmp_path / "ties.dbn"
    run("predict", "--profile", "protein", TWOQUX_FASTA, "--all-ties",
        "-o", str(out), "--dot-bracket", str(db))
    headers = [ln for ln in db.read_text().splitlines() if ln.startswith(">")]
    assert len(headers) == 1  # unique top structure for this input


def _random_76mer(tmp_path):
    rng = random.Random(6)  # 682 cliques under trna; three tie at rank 1
    fasta = tmp_path / "r76.fasta"
    fasta.write_text(">r76\n" + "".join(rng.choice("ACGU") for _ in range(76)) + "\n")
    return str(fasta)


@pytest.mark.parametrize("profile", ["protein", "trna"])
def test_predict_top_k_is_full_report_cut_to_k(tmp_path, profile):
    fasta = TWOQUX_FASTA if profile == "protein" else _random_76mer(tmp_path)
    full_out, full_db = tmp_path / "full.json", tmp_path / "full.dbn"
    assert run("predict", "--profile", profile, fasta, "-o", str(full_out),
               "--all-ties", "--dot-bracket", str(full_db)) == 0
    full = json.loads(full_out.read_text())
    records = full_db.read_text().splitlines()  # three lines per rank-1 structure
    for k in (1, 3, 5):
        out, db = tmp_path / f"top{k}.json", tmp_path / f"top{k}.dbn"
        assert run("predict", "--profile", profile, fasta, "-o", str(out),
                   "--top-k", str(k), "--all-ties", "--dot-bracket", str(db)) == 0
        cut = dict(full, predictions=full["predictions"][:k])
        assert out.read_text() == json.dumps(cut, indent=2) + "\n"
        # the rank-1 structures among the first k, as when the report was sliced
        assert db.read_text().splitlines() == records[:3 * k]


@pytest.mark.parametrize("argv,message", [
    (("predict", "--top-k", "0"), "argument --top-k: must be >= 1, got 0"),
    (("predict", "--top-k", "-1"), "argument --top-k: must be >= 1, got -1"),
    (("predict", "--max-cliques", "-1"), "argument --max-cliques: must be >= 0, got -1"),
    (("evaluate", "--reference", TWOQUX_CT, "--max-cliques", "-5"),
     "argument --max-cliques: must be >= 0, got -5"),
    (("batch", "--jobs", "0"), "argument --jobs: must be >= 1, got 0"),
    (("batch", "--jobs", "-2"), "argument --jobs: must be >= 1, got -2"),
    (("predict", "--sl-min", "abc"), "argument --sl-min: invalid rational value: 'abc'"),
    (("evaluate", "--reference", TWOQUX_CT, "--sl-min", "abc"),
     "argument --sl-min: invalid rational value: 'abc'"),
    (("predict", "--sl-max", "1/0"), "argument --sl-max: invalid rational value: '1/0'"),
    (("predict", "--max-seconds", "nan"), "argument --max-seconds: must be >= 0, got nan"),
    (("predict", "--max-seconds", "-1"), "argument --max-seconds: must be >= 0, got -1"),
    (("batch", "--max-seconds", "x"), "argument --max-seconds: invalid float value: 'x'"),
])
def test_bad_flag_values_rejected_at_parse_time(argv, message, capsys):
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        run(command, "--profile", "protein", TWOQUX_FASTA, *flags)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_max_seconds_inf_sets_no_bound(tmp_path):
    out = tmp_path / "r.json"
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, "--max-seconds", "inf",
               "-o", str(out)) == 0
    assert json.loads(out.read_text())["predictions"]


def test_timing_includes_ranking(tmp_path, monkeypatch):
    real = cli.rank_predictions

    def slow(*args, **kwargs):
        report = real(*args, **kwargs)
        time.sleep(0.2)
        return report

    monkeypatch.setattr(cli, "rank_predictions", slow)
    _, report = run_pipeline(read_fasta(TWOQUX_FASTA)[0], resolve_profile("protein"))
    assert report.timing >= 0.2
    out = tmp_path / "r.json"
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, "--timing",
               "-o", str(out)) == 0
    assert json.loads(out.read_text())["timing_seconds"] >= 0.2


def test_predict_multi_record(tmp_path):
    fasta = tmp_path / "multi.fasta"
    fasta.write_text(">a\nGGGGAAAACCCC\n>b\nGGCACAGAAGAUAUGGCUUCGUGCC\n")
    out = tmp_path / "set.json"
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "stemp-report-set/1"
    assert [r["sequence_id"] for r in doc["reports"]] == ["a", "b"]


@pytest.mark.parametrize("bad_id", ["a/b", "x\0y"], ids=["slash", "nul"])
def test_dump_graph_rejects_a_record_id_that_cannot_name_a_file(tmp_path, capsys, bad_id):
    # every dump name is checked before the first record is searched
    fasta = tmp_path / "multi.fasta"
    fasta.write_text(f">ok\nGGGGAAAACCCC\n>{bad_id}\nGGCACAGAAGAUAUGGCUUCGUGCC\n")
    out = tmp_path / "set.json"
    out.write_text("earlier\n")
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(out),
               "--dump-graph", str(tmp_path / "g.json")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: record {bad_id!r} cannot name a graph dump file: its id "
                   f"holds a path separator or a NUL byte"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["multi.fasta", "set.json"]
    assert out.read_text() == "earlier\n"


def test_dump_graph_rejects_a_repeated_record_id(tmp_path, capsys):
    # the second graph would silently replace the first one's dump
    fasta = tmp_path / "multi.fasta"
    fasta.write_text(">a\nGGGGAAAACCCC\n>b\nGGCACAGAAGAUAUGGCUUCGUGCC\n>a\nGGGAAACCC\n")
    out = tmp_path / "set.json"
    out.write_text("earlier\n")
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(out),
               "--dump-graph", str(tmp_path / "g.json")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: records share the id 'a', so their graph dumps would share one file"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["multi.fasta", "set.json"]
    assert out.read_text() == "earlier\n"


def test_predict_overrides_change_graph(tmp_path):
    out = tmp_path / "r.json"
    graph = tmp_path / "g.json"
    run("predict", "--profile", "protein", TWOQUX_FASTA, "-L", "4",
        "-o", str(out), "--dump-graph", str(graph))
    vertices = json.loads(graph.read_text())["vertices"]
    assert {v["length"] for v in vertices} == {5, 4}
    assert len(vertices) == 3


# ------------------------------------------------------------- evaluate

def test_evaluate_against_reference(tmp_path):
    out = tmp_path / "metrics.json"
    code = run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", TWOQUX_CT, "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["top"]["mcc_value"] == 1.0
    assert doc["best"]["tp"] == 9 and doc["best"]["fp"] == 0 and doc["best"]["fn"] == 0
    assert doc["scr_of_best"] == 1 and doc["multiplicity"] == 1


def test_evaluate_report_input(tmp_path):
    report = tmp_path / "r.json"
    run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(report))
    out = tmp_path / "m.json"
    code = run("evaluate", "--profile", "protein", "--report", str(report),
               "--reference", TWOQUX_CT, "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text())["best"]["mcc_value"] == 1.0


def test_evaluate_length_mismatch_exit_2(tmp_path):
    short = tmp_path / "short.ct"
    seq = parse_sequence("GGGGAAAACCCC", id="x")
    short.write_text(write_ct(seq, [(1, 12), (2, 11)]))
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", str(short)) == 2


def test_evaluate_length_mismatch_is_found_before_the_search(tmp_path, capsys):
    # a search would trip the budget first and exit 3
    long = tmp_path / "long.ct"
    long.write_text(write_ct(parse_sequence("GGGAAACCC" * 8 + "AAA", id="x"), [(1, 75)]))
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA, "--reference", str(long),
               "--max-cliques", "0") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: reference length 75 != sequence length 25"]


def test_evaluate_non_integer_ct_column_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ct"
    lines = (FIXTURES / "2qux.ct").read_text().splitlines()
    cols = lines[3].split()
    lines[3] = " ".join(cols[:4] + ["x"] + cols[5:])  # residue 3's pair column
    bad.write_text("\n".join(lines) + "\n")
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", str(bad)) == 2
    assert "error: CT line 3: index and pair columns must be integers" in capsys.readouterr().err


def _report_doc(*entries):
    """A report on 2QUX whose prediction k is a valid entry with entries[k]'s changes."""
    valid = {"rank_scr": 1, "rank_dr": 1, "multiplicity": 1, "energy": 1,
             "vertices": [1], "pairs": [[1, 25]]}
    return {"schema": "stemp-report/1", "sequence_id": "2QUX", "profile": "protein",
            "predictions": [dict(valid, **changes) for changes in entries]}


@pytest.mark.parametrize("doc,message", [
    ({"schema": "stemp-report/1", "predictions": [{}]}, "prediction 1 has no 'vertices' key"),
    ([{"schema": "stemp-report/1"}], "not a report document: the top level is a list"),
    (_report_doc({"rank_scr": 2}), "report has predictions but none with rank_scr 1"),
    (_report_doc({"pairs": [[1, "x"]]}),
     "prediction 1 is malformed: pair index \"x\" is not an integer"),
    (_report_doc({}, {"pairs": [[1, None]]}),
     "prediction 2 is malformed: pair index null is not an integer"),
    (_report_doc({"vertices": [1.0]}), "prediction 1 is malformed: vertex 1.0 is not an integer"),
    (_report_doc({"rank_scr": 1.0}), "prediction 1 is malformed: rank_scr 1.0 is not an integer"),
    (_report_doc({"rank_dr": True}), "prediction 1 is malformed: rank_dr true is not an integer"),
    (_report_doc({"multiplicity": "1"}),
     "prediction 1 is malformed: multiplicity \"1\" is not an integer"),
    (_report_doc({"energy": None}), "prediction 1 is malformed: energy null is not an integer"),
    (_report_doc({"pairs": [[25, 1]]}),
     "prediction 1 is malformed: pair [25, 1] does not have 1 <= p < q"),
    (_report_doc({}, {"pairs": [[1, 1]]}),
     "prediction 2 is malformed: pair [1, 1] does not have 1 <= p < q"),
    (_report_doc({"pairs": [[0, 25]]}),
     "prediction 1 is malformed: pair [0, 25] does not have 1 <= p < q"),
    (_report_doc({"pairs": [[1, 25], [3, 25]]}),
     "prediction 1 is malformed: base 25 is in two pairs"),
    (_report_doc({"pairs": [[2, 24], [1, 2]]}),
     "prediction 1 is malformed: base 2 is in two pairs"),
    (dict(_report_doc({}), sequence_id=5), "report is malformed: sequence_id 5 is not a string"),
    (dict(_report_doc({}), sequence_id=[1]),
     "report is malformed: sequence_id [1] is not a string"),
    (dict(_report_doc({}), profile=None), "report is malformed: profile null is not a string"),
    (dict(_report_doc({}), predictions={}), "report is malformed: predictions is not a list"),
    (dict(_report_doc({}), predictions=""), "report is malformed: predictions is not a list"),
    (_report_doc({"rank_scr": 0}), "prediction 1 is malformed: rank_scr 0 is below 1"),
    (_report_doc({}, {"rank_dr": -1}), "prediction 2 is malformed: rank_dr -1 is below 1"),
    (_report_doc({"multiplicity": 0}), "prediction 1 is malformed: multiplicity 0 is below 1"),
    (_report_doc({"energy": -1}), "prediction 1 is malformed: energy -1 is below 0"),
    (_report_doc({"vertices": [0]}), "prediction 1 is malformed: vertex 0 is below 1"),
    (_report_doc({"dot_bracket": 5}),
     "prediction 1 is malformed: dot_bracket 5 is not a string or null"),
    (_report_doc({"dot_bracket": None}, {"dot_bracket": ["."]}),
     "prediction 2 is malformed: dot_bracket [\".\"] is not a string or null"),
])
def test_evaluate_malformed_report_exit_2(tmp_path, capsys, doc, message):
    report = tmp_path / "r.json"
    report.write_text(json.dumps(doc))
    assert run("evaluate", "--profile", "protein", "--report", str(report),
               "--reference", TWOQUX_CT) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _profile_doc(**changes):
    return dict(profile_to_dict(builtin_profile("protein")), **changes)


@pytest.mark.parametrize("doc,message", [
    ([_profile_doc()], "not a profile document: the top level is a list"),
    (_profile_doc(pairing=[]), "bad profile document: 'pairing' is malformed"),
    (_profile_doc(min_stem_length=None),
     "bad profile document: 'min_stem_length' is malformed"),
    (_profile_doc(helices=[7]), "bad profile document: 'helices' is malformed"),
    (_profile_doc(stem_loop={"min": "1/0"}), "bad profile document: 'stem_loop' is malformed"),
    (_profile_doc(acceptor={"max_score": "1/0"}),
     "bad profile document: 'acceptor' is malformed"),
])
def test_predict_malformed_profile_exit_2(tmp_path, capsys, doc, message):
    profile = tmp_path / "bad.json"
    profile.write_text(json.dumps(doc))
    assert run("predict", "--profile", str(profile), TWOQUX_FASTA) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


NOT_JSON = [
    ("", "not JSON: Expecting value at line 1, column 1"),
    ('{\n  "schema": 1,\n}\n', "not JSON: Expecting property name enclosed in double quotes "
                               "at line 3, column 1"),
    ("[" * 100_000, "JSON nested too deeply to read"),
]


@pytest.mark.parametrize("text,message", NOT_JSON, ids=["empty", "comma", "deep"])
def test_predict_names_a_profile_that_is_not_json(tmp_path, capsys, text, message):
    profile = tmp_path / "bad.json"
    profile.write_text(text)
    assert run("predict", "--profile", str(profile), TWOQUX_FASTA) == 2
    assert capsys.readouterr() == ("", f"error: {profile}: {message}\n")


@pytest.mark.parametrize("text,message", NOT_JSON, ids=["empty", "comma", "deep"])
def test_evaluate_names_a_report_that_is_not_json(tmp_path, capsys, text, message):
    report = tmp_path / "bad.json"
    report.write_text(text)
    assert run("evaluate", "--profile", "protein", "--report", str(report),
               "--reference", TWOQUX_CT) == 2
    assert capsys.readouterr() == ("", f"error: {report}: {message}\n")


def test_evaluate_needs_exactly_one_input_source():
    assert run("evaluate", "--profile", "protein", "--reference", TWOQUX_CT) == 2
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA, "--report", "x.json",
               "--reference", TWOQUX_CT) == 2


def test_evaluate_builds_at_most_one_prediction(tmp_path, pair_calls, capsys):
    fasta = _random_76mer(tmp_path)
    ct = tmp_path / "r76.ct"
    ct.write_text(write_ct(read_fasta(fasta)[0], [(k, 70 - k) for k in range(1, 6)]))
    for metric in ("mcc", "f1"):
        assert run("evaluate", "--profile", "trna", fasta, "--reference", str(ct),
                   "--metric", metric) == 0
        assert json.loads(capsys.readouterr().out)["predictions"] == 682
        assert len(pair_calls) <= 1
        del pair_calls[:]


def test_all_ties_builds_the_rank_1_predictions_once_more(tmp_path, pair_calls):
    db = tmp_path / "ties.dbn"
    assert run("predict", "--profile", "trna", _random_76mer(tmp_path), "--all-ties",
               "-o", str(tmp_path / "r.json"), "--dot-bracket", str(db)) == 0
    assert len(db.read_text().splitlines()) == 3 * 3  # three tie at rank 1
    # each prediction once for the report; the first and the three ties again
    assert len(pair_calls) <= 682 + 1 + 3


def test_dot_bracket_records_are_the_streamed_rank_1_entries(tmp_path, pair_calls):
    """--dot-bracket holds the first entry, or with --all-ties every rank-1
    entry, as the report wrote it: no prediction is built or laid out again."""
    fasta = _random_76mer(tmp_path)
    residues = read_fasta(fasta)[0].residues
    laid_out = []
    real = fileio.write_dot_bracket
    for ties in ([], ["--all-ties"]):
        db, out = tmp_path / "top.dbn", tmp_path / "r.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "write_dot_bracket", lambda *a: laid_out.append(a) or real(*a))
            assert run("predict", "--profile", "trna", fasta, *ties, "-o", str(out),
                       "--dot-bracket", str(db)) == 0
        entries = json.loads(out.read_text())["predictions"]
        top = [entry for entry in entries if entry["rank_scr"] == 1][:3 if ties else 1]
        assert db.read_text() == "".join(
            f">r76 energy={entry['energy']} scr=1 dr={entry['rank_dr']}\n{residues}\n"
            f"{entry['dot_bracket']}\n" for entry in top)
        assert len(laid_out) == len(entries) == 682
        del laid_out[:]
    assert pair_calls == []


def test_dbn_reference_holds_one_record(tmp_path, capsys):
    """A structure line before the last line is a FormatError that names
    it, so a multi-record ``--dot-bracket`` file is refused as a reference
    rather than read as its last record; one record reads with or without
    its header and sequence lines."""
    bases, structure = "GGCACAGAAGAUAUGGCUUCGUGCC", write_dot_bracket(25, PAIRS_2QUX)
    for header in ([], [">2QUX x"]):
        for sequence in ([], [bases]):
            one = tmp_path / "one.dbn"
            one.write_text("\n".join(["", *header, *sequence, structure, "", ""]))
            reference = read_reference(one)
            assert reference.pairs == PAIRS_2QUX and reference.length == 25
            assert reference.id == ("2QUX" if header else "one")
            assert reference.bases == (bases if sequence else None)
            assert run("evaluate", "--profile", "protein", TWOQUX_FASTA,
                       "--reference", str(one)) == 0
    capsys.readouterr()
    two = tmp_path / "two.dbn"
    two.write_text(f">2QUX a\n{bases}\n{structure}\n\n>2QUX b\n{bases}\n{'.' * 25}\n")
    message = (f"{two}: line 3 is not the header, the sequence or the structure line; "
               "a reference holds one record")
    with pytest.raises(FormatError) as raised:
        read_reference(two)
    assert str(raised.value) == message
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA, "--reference", str(two)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("lines, message", [
    (["((((....)))"], "line 1: unmatched '(' at position 1"),
    ([">s x", "GGGGAAAACCC", "((((....)))"], "line 3: unmatched '(' at position 1"),
    (["GGGGAAAACCCC"], "line 1: "),  # then the parser's text, which the alphabet sets
    (["((((....))))", "GGGGAAAACCCC"], "line 2: "),
    (["((((....))))", "", "((((....))))"],
     "line 1 is not the header, the sequence or the structure line; "
     "a reference holds one record"),
    (["GGGG-AAAACCC", "((((....))))"],
     "line 1 is not the header, the sequence or the structure line; "
     "a reference holds one record"),
    ([">s", ""], "no dot-bracket line found"),
], ids=["unmatched", "unmatched-after-sequence", "sequence-only", "structure-first",
        "two-structures", "gapped-sequence", "header-only"])
def test_evaluate_names_the_bad_line_of_a_dbn_reference(tmp_path, capsys, lines, message):
    """The last non-blank line is the structure: a structure the parser
    refuses, or a line before it that is neither the header nor one line of
    letters, ends evaluate with one error naming the file and the line."""
    reference = tmp_path / "ref.dbn"
    reference.write_text("\n".join(lines) + "\n")
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", str(reference)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {reference}: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_ignore_noncanonical_needs_reference_bases(tmp_path, capsys, batch_dir):
    nobases = tmp_path / "nobases.dbn"
    nobases.write_text(">2QUX\n" + write_dot_bracket(25, PAIRS_2QUX) + "\n")
    assert run("evaluate", "--profile", "trna", "-L", "3", TWOQUX_FASTA,
               "--reference", str(nobases), "--ignore-noncanonical") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --ignore-noncanonical needs the bases")
    assert run("evaluate", "--profile", "trna", "-L", "3", TWOQUX_FASTA,
               "--reference", str(nobases)) == 0
    capsys.readouterr()

    (batch_dir / "nobases.fasta").write_text(f">nobases\n{'GC' * 30}\n")
    (batch_dir / "nobases.dbn").write_text("(" * 30 + ")" * 30 + "\n")
    out = tmp_path / "batch.json"
    assert run("batch", "--profile", "trna", str(batch_dir), "-o", str(out),
               "--ignore-noncanonical") == 0
    doc = json.loads(out.read_text())
    assert [r["id"] for r in doc["rows"]] == ["pin", "synth"]
    assert doc["skipped"] == [{"id": "short", "reason": "length 12 < 50"}]
    assert [f["file"] for f in doc["failures"]] == ["nobases.fasta"]
    assert "needs the bases of reference 'nobases'" in doc["failures"][0]["error"]


NOT_UTF8 = b"\xff\xfe\x00>"


@pytest.mark.parametrize("bad", ["fasta", "ct", "dbn", "profile", "report"])
def test_input_not_utf8_exit_2(tmp_path, capsys, bad):
    path = tmp_path / {"fasta": "in.fa", "ct": "ref.ct", "dbn": "ref.dbn",
                       "profile": "p.json", "report": "r.json"}[bad]
    path.write_bytes(NOT_UTF8 + (FIXTURES / "2qux.fasta").read_bytes())
    fasta = str(path) if bad == "fasta" else TWOQUX_FASTA
    reference = str(path) if bad in ("ct", "dbn") else TWOQUX_CT
    profile = str(path) if bad == "profile" else "protein"
    if bad in ("fasta", "profile"):
        argv = ("predict", "--profile", profile, fasta)
    elif bad == "report":
        argv = ("evaluate", "--profile", profile, "--report", str(path),
                "--reference", reference)
    else:
        argv = ("evaluate", "--profile", profile, fasta, "--reference", reference)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text (byte 0: invalid start byte)\n"


def test_evaluate_f1_metric(tmp_path, capsys):
    code = run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", TWOQUX_CT, "--metric", "f1")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metric"] == "f1"
    assert doc["best"]["f1"] == "1"


# ------------------------------------------------------------- batch

@pytest.fixture
def batch_dir(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    trna = parse_sequence(SYNTH_TRNA, id="synth")
    (d / "synth.fasta").write_text(f">synth\n{SYNTH_TRNA}\n")
    (d / "synth.ct").write_text(write_ct(trna, sorted(SYNTH_TRNA_PAIRS)))
    hairpin = parse_sequence("G" * 8 + "A" * 40 + "C" * 8 + "A" * 20, id="pin")
    pin_pairs = [(k, 57 - k) for k in range(1, 9)]
    (d / "pin.fasta").write_text(f">pin\n{hairpin.residues}\n")
    (d / "pin.ct").write_text(write_ct(hairpin, pin_pairs))
    short = parse_sequence("GGGGAAAACCCC", id="short")
    (d / "short.fasta").write_text(">short\nGGGGAAAACCCC\n")
    (d / "short.ct").write_text(write_ct(short, [(1, 12), (2, 11), (3, 10), (4, 9)]))
    return d


def test_batch_rows_and_histograms(batch_dir, tmp_path, capsys):
    out = tmp_path / "batch.json"
    code = run("batch", "--profile", "trna", str(batch_dir), "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert [r["id"] for r in doc["rows"]] == ["pin", "synth"]
    assert doc["skipped"] == [{"id": "short", "reason": "length 12 < 50"}]
    synth = doc["rows"][1]
    assert synth["top"]["mcc_value"] == 1.0
    assert synth["scr_of_best"] == 1
    for hist in doc["histograms"].values():
        assert sum(hist.values()) == len(doc["rows"])
    table = capsys.readouterr().out
    assert "synth" in table and "pin" in table


def test_batch_files_an_empty_report_in_the_worst_scr_bucket(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    polya = parse_sequence("A" * 60, id="polya")  # no stem: an empty report
    (d / "polya.fasta").write_text(f">polya\n{polya.residues}\n")
    (d / "polya.ct").write_text(write_ct(polya, [(1, 60)]))
    out = tmp_path / "batch.json"
    assert run("batch", "--profile", "trna", str(d), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"][0]["scr_of_best"] == 0
    assert doc["histograms"]["scr_of_best"] == {"<=1": 0, "<=5": 0, "<=10": 0, "<=15": 0,
                                                ">15": 1}


def test_batch_parallel_matches_serial(batch_dir, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    run("batch", "--profile", "trna", str(batch_dir), "-o", str(serial))
    run("batch", "--profile", "trna", str(batch_dir), "-o", str(parallel), "--jobs", "2")
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("jobs,min_length,workers", [("500", "50", 2), ("2", "1", 2),
                                                     ("500", "1", 3)])
def test_batch_starts_no_more_workers_than_rows(batch_dir, monkeypatch, jobs, min_length,
                                                workers):
    """``--jobs`` caps the pool at the row count (two rows, or three with
    ``short``); the pool is a stand-in that maps in this process."""
    import concurrent.futures

    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert run("batch", "--profile", "trna", str(batch_dir), "--jobs", jobs,
               "--min-length", min_length) == 0
    assert made == [workers]


def test_batch_continues_after_bad_file(batch_dir, tmp_path, capsys):
    (batch_dir / "broken.fasta").write_text(">broken\nACGU\n")
    (batch_dir / "broken.ct").write_text("9 wrong\n1 A 0 0 0 1\n")
    out = tmp_path / "batch.json"
    assert run("batch", "--profile", "trna", str(batch_dir), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert len(doc["failures"]) == 1
    assert [r["id"] for r in doc["rows"]] == ["pin", "synth"]


def test_batch_reports_inputs_it_cannot_score_and_exits_0(tmp_path, capsys):
    """A FASTA with no reference is named on stderr, a reference of another
    length is a failure row, and one with no pairs is skipped unless
    --allow-empty-reference scores it."""
    d = tmp_path / "in"
    d.mkdir()
    fasta = Path(TWOQUX_FASTA).read_text()
    (d / "lone.fasta").write_text(fasta)
    (d / "long.fasta").write_text(fasta)
    (d / "long.ct").write_text(write_ct(parse_sequence("GGGGAAAACCCC", id="x"), []))
    (d / "open.fasta").write_text(fasta)
    (d / "open.ct").write_text(write_ct(read_fasta(TWOQUX_FASTA)[0], []))
    out = tmp_path / "batch.json"
    assert run("batch", "--profile", "protein", str(d), "--min-length", "1",
               "-o", str(out)) == 0
    err = capsys.readouterr().err
    assert "skipping lone.fasta: no reference file\n" in err
    assert "error: long.fasta: reference length 12 != sequence length 25\n" in err
    doc = json.loads(out.read_text())
    assert doc["failures"] == [
        {"file": "long.fasta", "error": "long.fasta: reference length 12 != sequence length 25"}]
    assert doc["skipped"] == [{"id": "2QUX", "reason": "reference has no pairs"}]
    assert doc["rows"] == []
    assert run("batch", "--profile", "protein", str(d), "--min-length", "1",
               "--allow-empty-reference", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["skipped"] == [] and [row["id"] for row in doc["rows"]] == ["2QUX"]
    assert len(doc["failures"]) == 1


def test_evaluate_refuses_a_two_record_fasta(tmp_path, capsys):
    fasta = tmp_path / "two.fasta"
    fasta.write_text(">a\nGGGGAAAACCCC\n>b\nGGGGAAAACCCC\n")
    assert run("evaluate", "--profile", "protein", str(fasta), "--reference", TWOQUX_CT) == 2
    assert capsys.readouterr().err == "error: evaluate expects one sequence, found 2\n"


def test_evaluate_refuses_a_ct_line_of_four_columns(tmp_path, capsys):
    ct = tmp_path / "four.ct"
    ct.write_text("1 x\n1 G 0 0\n")
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA, "--reference", str(ct)) == 2
    assert capsys.readouterr().err == "error: CT line 1 has 4 columns, need at least 5\n"


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["helices"][0].update(patterns=[]), "helix I: needs at least one pattern"),
    (lambda doc: doc["domains"][0].update(inner="II"),
     "domain beta: outer and inner helix must differ"),
    (lambda doc: doc["helices"][1].update(name="I"), "duplicate helix names"),
    (lambda doc: doc.pop("family"), "bad profile document: no 'family' key"),
    (lambda doc: doc["domains"][0].pop("gsl"),
     "bad profile document: 'domains' has no 'gsl' key"),
], ids=["no-patterns", "outer-is-inner", "one-name-twice", "no-family", "no-gsl"])
def test_predict_refuses_a_bad_profile_file(tmp_path, capsys, change, message):
    doc = profile_to_dict(builtin_profile("rrna5s-bacterial"))
    assert doc["domains"][0]["outer"] == "II"
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("predict", "--profile", str(path), TWOQUX_FASTA) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc.update(use_gsl="false"),
     "bad profile document: 'use_gsl' must be a JSON boolean, got \"false\""),
    (lambda doc: doc.update(partial_stems="no"),
     "bad profile document: 'partial_stems' must be a JSON boolean, got \"no\""),
    (lambda doc: doc["pairing"].update(wobble="false"),
     "bad profile document: 'pairing' is malformed: 'wobble' must be a JSON boolean, "
     "got \"false\""),
    (lambda doc: doc["domains"][0]["gsl"].update(max_exclusive=1),
     "bad profile document: 'domains' is malformed: 'max_exclusive' must be a JSON boolean, "
     "got 1"),
    (lambda doc: doc.update(min_stem_length=2.9),
     "bad profile document: 'min_stem_length' is malformed: 'min_stem_length' must be a "
     "JSON integer, got 2.9"),
    (lambda doc: doc.update(min_stem_length=True),
     "bad profile document: 'min_stem_length' is malformed: 'min_stem_length' must be a "
     "JSON integer, got true"),
    (lambda doc: doc.update(name=5), "bad profile document: 'name' must be a JSON string, got 5"),
    (lambda doc: doc["helices"][0].update(name=5),
     "bad profile document: 'helices' is malformed: 'name' must be a JSON string, got 5"),
    (lambda doc: doc["domains"][0].update(name=5),
     "bad profile document: 'domains' is malformed: 'name' must be a JSON string, got 5"),
    (lambda doc: doc["domains"][0].update(outer=5),
     "bad profile document: 'domains' is malformed: 'outer' must be a JSON string, got 5"),
    (lambda doc: doc["domains"][0].update(inner=None),
     "bad profile document: 'domains' is malformed: 'inner' must be a JSON string, got null"),
    (lambda doc: doc.update(notes=5), "bad profile document: 'notes' must be a JSON string, got 5"),
    (lambda doc: doc["helices"][0].update(patterns="5"),
     "bad profile document: 'helices' is malformed: 'patterns' must be a JSON array, got \"5\""),
    (lambda doc: doc.update(domains={}),
     "bad profile document: 'domains' is malformed: 'domains' must be a JSON array, got {}"),
], ids=["use-gsl", "partial-stems", "wobble", "max-exclusive", "float-length", "bool-length",
        "name", "helix-name", "domain-name", "outer", "inner", "notes", "patterns", "domains"])
def test_predict_refuses_a_profile_value_of_the_wrong_type(tmp_path, capsys, change, message):
    """A flag that is not a JSON boolean, a min_stem_length that is not an
    integer, a name, helix name, domain text or notes that is not a string
    and patterns or domains that are not an array are refused, not coerced."""
    doc = profile_to_dict(builtin_profile("rrna5s-bacterial"))
    change(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run("predict", "--profile", str(path), TWOQUX_FASTA) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_evaluate_names_a_ct_partner_below_1(tmp_path, capsys):
    fasta = tmp_path / "s.fasta"
    fasta.write_text(">s\nGGCC\n")
    ct = tmp_path / "s.ct"
    ct.write_text("4 s\n1 G 0 2 -1 1\n2 G 1 3 0 2\n3 C 2 4 0 3\n4 C 3 0 0 4\n")
    assert run("evaluate", "--profile", "protein", str(fasta), "--reference", str(ct)) == 2
    assert capsys.readouterr().err == "error: pair index -1 is below 1\n"


def test_batch_min_length_flag(batch_dir, tmp_path):
    out = tmp_path / "batch.json"
    run("batch", "--profile", "protein", str(batch_dir), "-o", str(out),
        "--min-length", "10")
    doc = json.loads(out.read_text())
    assert [r["id"] for r in doc["rows"]] == ["pin", "short", "synth"]
    assert doc["skipped"] == []


def test_batch_requires_directory(tmp_path):
    assert run("batch", "--profile", "protein", TWOQUX_FASTA) == 2


def test_evaluate_ignore_noncanonical(tmp_path, capsys):
    # reference carries one pair the pairing rule can never produce
    seq = parse_sequence("GGCACAGAAGAUAUGGCUUCGUGCC", id="2QUX")
    from .conftest import PAIRS_2QUX
    noisy = sorted(PAIRS_2QUX | {(11, 16)})  # A-G contact
    ct = tmp_path / "noisy.ct"
    ct.write_text(write_ct(seq, noisy))
    code = run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", str(ct))
    assert code == 0
    with_fn = json.loads(capsys.readouterr().out)
    assert with_fn["best"]["fn"] == 1
    code = run("evaluate", "--profile", "protein", TWOQUX_FASTA,
               "--reference", str(ct), "--ignore-noncanonical")
    assert code == 0
    clean = json.loads(capsys.readouterr().out)
    assert clean["best"]["fn"] == 0
    assert clean["best"]["mcc_value"] == 1.0


def test_batch_empty_directory(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    out = tmp_path / "batch.json"
    assert run("batch", "--profile", "protein", str(empty), "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["rows"] == [] and doc["skipped"] == [] and doc["failures"] == []
    assert "sequences: 0" in capsys.readouterr().out


def test_documents_are_indented_json(batch_dir, tmp_path):
    """Every JSON document is the bytes json.dumps(doc, indent=2) gives."""
    fasta = tmp_path / "multi.fasta"
    fasta.write_text(">a\nGGGGAAAACCCC\n>b\nGGCACAGAAGAUAUGGCUUCGUGCC\n")
    outputs = {name: tmp_path / f"{name}.json"
               for name in ("set", "graph-a", "graph-b", "metrics", "batch")}
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(outputs["set"]),
               "--dump-graph", str(tmp_path / "graph.json"), "--timing") == 0
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA, "--reference", TWOQUX_CT,
               "-o", str(outputs["metrics"])) == 0
    assert run("batch", "--profile", "trna", str(batch_dir), "--timing",
               "-o", str(outputs["batch"])) == 0
    for path in outputs.values():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name


# ------------------------------------------------------------- streamed reports

TWO_RECORDS = ">a\nGGGGAAAACCCC\n>b\nGGCACAGAAGAUAUGGCUUCGUGCC\n"


def _stream_case(tmp_path, case):
    """(FASTA path, profile, --timing) of a streamed-report test case."""
    if case == "2qux":
        return TWOQUX_FASTA, "protein", False
    if case == "r76":
        return _random_76mer(tmp_path), "trna", False
    fasta = tmp_path / f"{case}.fasta"
    fasta.write_text(">flat\nAAAAAAAAAACCCCCAAAAA\n" if case == "empty" else TWO_RECORDS)
    return str(fasta), "protein", case == "two-timing"


def _oracle_text(fasta, profile, timings=None):
    """The report, or report set, as one document dict encoded at once."""
    docs = []
    for k, seq in enumerate(read_fasta(fasta)):
        _, report = run_pipeline(seq, resolve_profile(profile))
        if timings is not None:
            report = replace(report, timing=timings[k])
        docs.append(report_to_dict(report, seq=seq, include_timing=timings is not None))
    payload = docs[0] if len(docs) == 1 else {"schema": "stemp-report-set/1",
                                              "reports": docs}
    return json.dumps(payload, indent=2) + "\n"


def _timings(text):
    doc = json.loads(text)
    return [r["timing_seconds"] for r in doc.get("reports", [doc])]


@pytest.mark.parametrize("render_slice", [1, 7, fileio.RENDER_SLICE])
@pytest.mark.parametrize("case", ["2qux", "r76", "two", "two-timing", "empty"])
def test_predict_streams_the_oracle_bytes(tmp_path, capsys, monkeypatch, case, render_slice):
    monkeypatch.setattr(fileio, "RENDER_SLICE", render_slice)
    slices = []
    real = cli.report_to_dict

    def spy(report, *args, **kwargs):
        slices.append(len(report.predictions))
        return real(report, *args, **kwargs)

    monkeypatch.setattr(cli, "report_to_dict", spy)
    fasta, profile, timing = _stream_case(tmp_path, case)
    argv = ["predict", "--profile", profile, fasta] + (["--timing"] if timing else [])
    out = tmp_path / "report.json"
    assert run(*argv, "-o", str(out)) == 0
    text = out.read_text()
    assert text == _oracle_text(fasta, profile, _timings(text) if timing else None)
    doc = json.loads(text)
    predictions = sum(len(r["predictions"]) for r in doc.get("reports", [doc]))
    assert sum(slices) == predictions and max(slices) <= render_slice
    capsys.readouterr()
    assert run(*argv) == 0
    printed = capsys.readouterr().out
    if timing:
        assert printed == _oracle_text(fasta, profile, _timings(printed))
    else:
        assert printed == text


def _r76_fasta(tmp_path):
    rng = random.Random(7)  # under protein, thousands of predictions
    fasta = tmp_path / "r76-7.fasta"
    fasta.write_text(">r76\n" + "".join(rng.choice("ACGU") for _ in range(76)) + "\n")
    return str(fasta)


def _assert_nothing_written(capsys, out, before):
    assert capsys.readouterr().out == ""
    assert out.read_text() == before
    assert [p.name for p in out.parent.iterdir()] == [out.name]  # no temporary left


@pytest.mark.parametrize("render_slice", [1, fileio.RENDER_SLICE])
def test_predict_failure_leaves_no_partial_output(tmp_path, capsys, monkeypatch,
                                                  failing_render, render_slice):
    monkeypatch.setattr(fileio, "RENDER_SLICE", render_slice)  # 1: fails mid-stream
    fasta = _r76_fasta(tmp_path)
    out = tmp_path / "out" / "report.json"
    out.parent.mkdir()
    out.write_text("earlier report\n")
    failing_render("r76", 6)
    assert run("predict", "--profile", "protein", fasta, "-o", str(out)) == 2
    assert "rendering failed at prediction 6 of r76" in capsys.readouterr().err
    _assert_nothing_written(capsys, out, "earlier report\n")
    failing_render("r76", 6)
    assert run("predict", "--profile", "protein", fasta) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("first", [None, "2qux.fasta"])
def test_failed_predict_leaves_the_graph_dumps_unchanged(tmp_path, capsys, failing_render,
                                                         first):
    """A graph dump is written only once the whole report is: a record that
    fails while rendered, alone or after one that succeeds, leaves every
    dump file as it was."""
    r76 = Path(_r76_fasta(tmp_path)).read_text()
    fasta = tmp_path / "in.fasta"
    fasta.write_text(((FIXTURES / first).read_text() if first else "") + r76)
    out = tmp_path / "out"
    out.mkdir()
    dumps = [out / "g.json"] if first is None else [out / "g-2QUX.json", out / "g-r76.json"]
    for dump in dumps:
        dump.write_text("earlier dump\n")
    failing_render("r76", 6)
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(out / "r.json"),
               "--dump-graph", str(out / "g.json")) == 2
    assert "rendering failed at prediction 6 of r76" in capsys.readouterr().err
    assert all(dump.read_text() == "earlier dump\n" for dump in dumps)
    assert sorted(p.name for p in out.iterdir()) == sorted(d.name for d in dumps)


def test_importing_the_cli_loads_no_process_pool():
    """Only ``batch --jobs`` loads the process pool and multiprocessing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, stemp.cli; print(sorted({'multiprocessing', 'concurrent.futures'}"
             " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout == "[]\n"


def test_failed_dot_bracket_leaves_the_report_unchanged(tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_text("earlier report\n")
    dump = tmp_path / "g.json"
    dump.write_text("earlier dump\n")
    dot_bracket = tmp_path / "missing" / "x.dbn"
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(out),
               "--dot-bracket", str(dot_bracket), "--dump-graph", str(dump)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert out.read_bytes() == b"earlier report\n"
    assert dump.read_bytes() == b"earlier dump\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "r.json"]  # no temporary


@pytest.fixture
def no_search(monkeypatch):
    """Fails the test if a run reaches the search."""
    def search(*args, **kwargs):
        raise AssertionError("the search ran")
    monkeypatch.setattr(cli, "run_pipeline", search)


@pytest.mark.parametrize("options,message", [
    (["-o", "g.json", "--dot-bracket", "g.json"], "-o and --dot-bracket both name g.json"),
    (["-o", "g.json", "--dump-graph", "g.json"], "-o and --dump-graph both name g.json"),
    (["-o", "g.json", "--dump-graph", "./g.json"], "-o and --dump-graph both name g.json"),
    (["--dot-bracket", "d.dbn", "--dump-graph", "d.dbn"],
     "--dot-bracket and --dump-graph both name d.dbn"),
    (["-o", "link.json", "--dot-bracket", "g.json"], "-o and --dot-bracket both name g.json"),
    (["-o", "new.json", "--dot-bracket", "sub/../new.json"],
     "-o and --dot-bracket both name sub/../new.json"),
    (["--dot-bracket", "missing/x"], "--dot-bracket missing/x: its directory does not exist"),
    (["-o", "missing/r.json"], "-o missing/r.json: its directory does not exist"),
    (["--dump-graph", "g.json/g.json"],
     "--dump-graph g.json/g.json: its directory does not exist"),
    (["-o", "sub"], "-o sub is a directory"),
])
def test_output_paths_are_checked_before_the_search(tmp_path, capsys, monkeypatch, no_search,
                                                    options, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "g.json").write_text("earlier\n")
    (tmp_path / "link.json").symlink_to(tmp_path / "g.json")
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, *options) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "link.json", "sub"]
    assert (tmp_path / "g.json").read_text() == "earlier\n"
    assert not any((tmp_path / "sub").iterdir())  # no temporary in the directory either


@pytest.mark.parametrize("command", ["evaluate", "batch"])
@pytest.mark.parametrize("output,message", [
    ("missing/m.json", "-o missing/m.json: its directory does not exist"),
    ("g.json/m.json", "-o g.json/m.json: its directory does not exist"),
    ("sub", "-o sub is a directory"),
])
def test_scoring_output_is_checked_before_the_search(tmp_path, capsys, monkeypatch, no_search,
                                                     batch_dir, command, output, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "g.json").write_text("earlier\n")
    inputs = ([TWOQUX_FASTA, "--reference", TWOQUX_CT] if command == "evaluate"
              else [str(batch_dir), "--min-length", "1"])
    assert run(command, "--profile", "protein", *inputs, "-o", output) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")  # no table printed either
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch", "g.json", "sub"]
    assert (tmp_path / "g.json").read_text() == "earlier\n"
    assert not any((tmp_path / "sub").iterdir())


def test_scoring_output_may_be_a_device(batch_dir, capsys):
    assert run("evaluate", "--profile", "protein", TWOQUX_FASTA, "--reference", TWOQUX_CT,
               "-o", os.devnull) == 0
    assert capsys.readouterr() == ("", "")
    assert run("batch", "--profile", "protein", str(batch_dir), "-o", os.devnull) == 0
    assert capsys.readouterr().out.startswith("id ")


def test_scoring_outputs_replace_their_target(batch_dir, tmp_path, capsys):
    """``evaluate -o`` and ``batch -o`` over an existing file write the bytes
    that ``evaluate`` prints and that ``batch -o`` writes to a new file, and
    leave no temporary behind."""
    evaluate = ["evaluate", "--profile", "protein", TWOQUX_FASTA, "--reference", TWOQUX_CT]
    batch = ["batch", "--profile", "protein", str(batch_dir), "--min-length", "1"]
    out = tmp_path / "out"
    out.mkdir()
    assert run(*evaluate) == 0
    printed = capsys.readouterr().out
    assert run(*batch, "-o", str(out / "new.json")) == 0
    for name in ("m.json", "b.json"):
        (out / name).write_text("earlier\n")
    assert run(*evaluate, "-o", str(out / "m.json")) == 0
    assert run(*batch, "-o", str(out / "b.json")) == 0
    assert (out / "m.json").read_text() == printed
    assert (out / "b.json").read_bytes() == (out / "new.json").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["b.json", "m.json", "new.json"]
    for command in (evaluate, batch):
        assert run(*command, "-o", os.devnull) == 0


def test_a_record_dump_may_not_name_the_report(tmp_path, capsys, no_search):
    fasta = tmp_path / "multi.fasta"
    fasta.write_text(">a\nGGGGAAAACCCC\n>b\nGGCACAGAAGAUAUGGCUUCGUGCC\n")
    assert run("predict", "--profile", "protein", str(fasta), "-o", str(tmp_path / "g-b.json"),
               "--dump-graph", str(tmp_path / "g.json")) == 2
    assert capsys.readouterr().err == f"error: -o and --dump-graph both name {tmp_path}/g-b.json\n"
    assert [p.name for p in tmp_path.iterdir()] == ["multi.fasta"]


def test_a_device_may_be_named_by_two_outputs(tmp_path, capsys):
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", os.devnull,
               "--dot-bracket", os.devnull, "--dump-graph", os.devnull) == 0
    assert capsys.readouterr() == ("", "")


def test_predict_output_through_a_link_or_a_pipe(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("earlier report\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(link)) == 0
    assert link.is_symlink() and json.loads(real.read_text())["sequence_id"] == "2QUX"
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    assert run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(pipe)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [real.read_text()]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "real.json"]


@pytest.mark.parametrize("stage,late,returned", [
    ("search", "build_profile_graph", False),
    ("ranking", "rank_predictions", False),
    ("ranking", "rank_predictions", True),
    ("rendering", "report_to_dict", False),
])
def test_max_seconds_bounds_every_stage(tmp_path, capsys, monkeypatch, stage, late,
                                        returned):
    """The clock jumps past the deadline when ``late`` is called (or has
    returned); the next check, in ``stage``, trips."""
    clock = [0.0]
    monkeypatch.setattr(cli.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(fileio, "RENDER_SLICE", 1)
    real = getattr(cli, late)

    def jump(*args, **kwargs):
        if returned:
            result = real(*args, **kwargs)
            clock[0] += 10.0
            return result
        clock[0] += 10.0
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, late, jump)
    out = tmp_path / "out" / "report.json"
    out.parent.mkdir()
    out.write_text("earlier report\n")
    argv = ("predict", "--profile", "protein", TWOQUX_FASTA, "--max-seconds", "5")
    assert run(*argv, "-o", str(out)) == 3
    assert f"error: time budget of 5.0 s ran out during {stage}" in capsys.readouterr().err
    _assert_nothing_written(capsys, out, "earlier report\n")
    assert run(*argv) == 3
    assert capsys.readouterr().out == ""


def test_parser_built_once_acts_as_a_fresh_one(tmp_path, capsys, monkeypatch, batch_dir):
    def calls(tag):
        report = tmp_path / f"{tag}.json"
        results = [run("predict", "--profile", "protein", TWOQUX_FASTA, "-o", str(report)),
                   report.read_text(),
                   run("evaluate", "--profile", "protein", "--report", str(report),
                       "--reference", TWOQUX_CT),
                   run("batch", "--profile", "trna", str(batch_dir))]
        with pytest.raises(SystemExit) as exc:
            run("predict", "--profile", "protein", TWOQUX_FASTA, "--top-k", "0")
        results += [exc.value.code,
                    run("predict", "--profile", "protein", TWOQUX_FASTA, "--top-k", "2")]
        return results + list(capsys.readouterr())

    capsys.readouterr()
    cached = calls("cached")
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert calls("fresh") == cached

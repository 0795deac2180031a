"""Acceptance gate. Criteria 1-3 and 8 run self-contained; 4-6 need
user-supplied reference fixtures (see scripts/fetch_gutell.py) and skip
without them; 7 is excluded from gating by design.

Criterion 1 counts six vertices for the worked 25-mer: its six edges
{1,2,3}x{4,5} leave no singleton among five vertices, so the seventh,
singleton clique is the sixth stem (15,25,3,10), which has no neighbours.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from stemp import (PairingRule, build_stem_graph, enumerate_stems, maximal_cliques,
                   parse_sequence, rank_predictions, score_prediction,
                   summarize_report)
from stemp.cli import main, run_pipeline
from stemp.fileio import parse_dot_bracket, read_ct, read_fasta, write_dot_bracket
from stemp.metrics import ReferenceStructure
from stemp.profiles import builtin_profile
from stemp.stems import Interval, StemGraph, contiguous_stem

from .conftest import FIXTURES, require_gutell
from .oracles import brute_force_maximal_cliques, brute_force_stems

CANON = PairingRule()


# ================================================================ criterion 1
# Golden worked example: 25-mer 2QUX, L=3, canonical pairing.

@pytest.fixture(scope="module")
def golden():
    seq = read_fasta(FIXTURES / "2qux.fasta")[0]
    start = time.monotonic()
    graph = build_stem_graph(enumerate_stems(seq, CANON, 3))
    cliques = maximal_cliques(graph)
    report = rank_predictions(graph, cliques, sequence_id=seq.id, profile="protein")
    elapsed = time.monotonic() - start
    return seq, graph, cliques, report, elapsed


def test_c1_vertex_tuple(golden):
    _, graph, *_ = golden
    tuples = [(s.i, s.j, s.length, s.span) for s in graph.vertices]
    assert tuples[0] == (1, 25, 5, 24)


def test_c1_vertex_count_as_spec_states(golden):
    seq, graph, *_ = golden
    # Six: K(3,2) on stems 1-5 has no singleton clique, so the seventh is stem 6.
    tuples = [(s.i, s.j, s.length, s.span) for s in graph.vertices]
    assert tuples == [(1, 25, 5, 24), (2, 24, 4, 22), (3, 23, 3, 20),
                      (7, 20, 4, 13), (8, 19, 3, 11), (15, 25, 3, 10)]
    assert graph.neighbor_masks[5] == 0
    assert {t[:3] for t in tuples} == brute_force_stems(seq, CANON, 3)


def test_c1_edges_exact(golden):
    _, graph, *_ = golden
    assert {(u + 1, v + 1) for u, v in graph.edges} == {
        (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)}


def test_c1_seven_maximal_cliques(golden):
    _, _, cliques, _, _ = golden
    assert len(cliques) == 7
    assert sorted(len(c) for c in cliques) == [1, 2, 2, 2, 2, 2, 2]


def test_c1_top_prediction(golden):
    *_, report, _ = golden
    top = report.predictions[0]
    assert tuple(v + 1 for v in top.vertices) == (1, 4)
    assert top.energy == 9
    assert top.scr == 1 and top.multiplicity == 1


def test_c1_mcc_exactly_one(golden):
    seq, _, _, report, _ = golden
    reference = read_ct(FIXTURES / "2qux.ct")
    metrics = score_prediction(report.predictions[0].pairs, reference)
    assert metrics.mcc_squared == 1
    assert metrics.mcc == 1.0


def test_c1_runtime(golden):
    *_, elapsed = golden
    assert elapsed < 1.0


# ================================================================ criterion 2
# Clique enumeration equals subset-enumeration oracle.

def _graph(n, masks):
    vertices = tuple(contiguous_stem(100 * k + 1, 100 * k + 10, 2) for k in range(n))
    return StemGraph(vertices=vertices, neighbor_masks=tuple(masks))


def _masks_from_bits(n, bits):
    masks = [0] * n
    for k, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        if bits >> k & 1:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def test_c2_clique_oracle_suite():
    start = time.monotonic()
    for n in range(7):  # every labeled graph on up to 6 vertices
        edge_slots = n * (n - 1) // 2
        for bits in range(1 << edge_slots):
            masks = _masks_from_bits(n, bits)
            got = {frozenset(c) for c in maximal_cliques(_graph(n, masks))}
            assert got == brute_force_maximal_cliques(masks)
    rng = random.Random(1234)
    for _ in range(500):  # larger random graphs
        n = rng.randint(7, 15)
        masks = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        got = {frozenset(c) for c in maximal_cliques(_graph(n, masks))}
        assert got == brute_force_maximal_cliques(masks)
    assert time.monotonic() - start < 60.0


# ================================================================ criterion 3
# Metric identities hold exactly; the published count row reproduces.

def test_c3_metric_identities_thousand_fixtures():
    rng = random.Random(31337)
    length = 600
    universe = [(k, length + 1 - k) for k in range(1, 120)]
    universe += [(150 + k, 450 - k) for k in range(100)]
    for _ in range(1000):
        pool = universe[:]
        rng.shuffle(pool)
        predicted = set(pool[:rng.randint(0, 80)])
        reference_pairs = set(pool[rng.randint(0, 80):rng.randint(80, len(pool))])
        reference = ReferenceStructure(id="r", length=length,
                                       pairs=frozenset(reference_pairs))
        m = score_prediction(predicted, reference)
        assert m.mcc_squared == m.sens * m.ppv
        if m.ppv + m.sens:
            assert m.f1 == 2 * m.ppv * m.sens / (m.ppv + m.sens)
        else:
            assert m.f1 == 0


def test_c3_published_f1_row():
    length = 400
    reference = ReferenceStructure(
        id="X67579", length=length,
        pairs=frozenset((k, length + 1 - k) for k in range(1, 38)))
    predicted = {(k, length + 1 - k) for k in range(1, 36)}
    m = score_prediction(predicted, reference)
    assert (m.tp, m.fn, m.fp) == (35, 2, 0)
    assert m.f1 == Fraction(35, 36)
    assert abs(float(m.f1) * 100 - 97.2) < 0.1


# ================================================================ criterion 4
# tRNA spot checks against user-supplied reference data.

def _spot_check(accession, profile="trna"):
    fasta, ct = require_gutell(accession)
    seq = read_fasta(fasta)[0]
    reference = read_ct(ct)
    cfg = builtin_profile(profile)
    start = time.monotonic()
    _, report = run_pipeline(seq, cfg)
    elapsed = time.monotonic() - start
    return report, reference, elapsed


def test_c4_ab041850_perfect():
    report, reference, elapsed = _spot_check("AB041850")
    summary = summarize_report(report, reference, metric="mcc")
    assert summary.top.mcc_squared == 1
    assert elapsed < 1.0


def test_c4_l00194_top_mcc():
    report, reference, elapsed = _spot_check("L00194")
    summary = summarize_report(report, reference, metric="mcc")
    assert abs(summary.top.mcc - 0.95) <= 0.005
    assert elapsed < 1.0


def test_c4_x04779_top_f1():
    report, reference, elapsed = _spot_check("X04779")
    summary = summarize_report(report, reference, metric="f1")
    assert abs(float(summary.top.f1) - 0.98) <= 0.005
    assert elapsed < 1.0


# ================================================================ criterion 5
# Archaeal 5S spot check: exact graph and clique counts.

def test_c5_ae000782_archaeal():
    fasta, ct = require_gutell("AE000782")
    seq = read_fasta(fasta)[0]
    reference = read_ct(ct)
    cfg = builtin_profile("rrna5s-archaeal")
    start = time.monotonic()
    graph, report = run_pipeline(seq, cfg)
    elapsed = time.monotonic() - start
    assert len(graph.vertices) == 154
    assert len(report.predictions) == 8986
    summary = summarize_report(report, reference, metric="mcc")
    assert abs(summary.best.mcc - 0.97) <= 0.005
    assert summary.best_scr == 1
    assert summary.best_multiplicity == 16
    assert elapsed < 60.0


# ================================================================ criterion 6
# Six-sequence 5S table: exact confusion counts.

SIX_5S = [
    ("X67579", "rrna5s-archaeal-general", "top", (35, 2, 0)),
    ("AF034620", "rrna5s-eukaryotic", "top", (34, 4, 0)),
    ("X01590", "rrna5s-bacterial", "best", (37, 3, 0)),
    ("AJ251080", "rrna5s-bacterial", "top", (33, 5, 2)),
    ("V00336", "rrna5s-bacterial", "top", (37, 3, 0)),
    ("AE002087", "rrna5s-bacterial", "top", (35, 5, 0)),
]


@pytest.mark.parametrize("accession,profile,which,expected", SIX_5S)
def test_c6_six_sequence_counts(accession, profile, which, expected):
    report, reference, _ = _spot_check(accession, profile=profile)
    summary = summarize_report(report, reference, metric="f1")
    metrics = summary.top if which == "top" else summary.best
    assert (metrics.tp, metrics.fn, metrics.fp) == expected


# ================================================================ criterion 7
# Large published sweeps are runnable via the batch command with user data,
# but never gate this suite.

def test_c7_large_sweeps_excluded():
    pytest.skip("27k-sequence census and full table sweeps are exercised via "
                "'stemp batch' on user-supplied data; excluded from gating")


# ================================================================ criterion 8
# Property suites: determinism, monotonicity, soundness, ranking laws,
# dot-bracket round trips.

def test_c8_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fasta = str(FIXTURES / "2qux.fasta")
    assert main(["predict", "--profile", "protein", fasta, "-o", str(a)]) == 0
    assert main(["predict", "--profile", "protein", fasta, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_c8_batch_parallelism_invariant(tmp_path):
    from .test_profiles import SYNTH_TRNA, SYNTH_TRNA_PAIRS
    from stemp.fileio import write_ct
    d = tmp_path / "batch"
    d.mkdir()
    trna = parse_sequence(SYNTH_TRNA, id="synth")
    (d / "synth.fasta").write_text(f">synth\n{SYNTH_TRNA}\n")
    (d / "synth.ct").write_text(write_ct(trna, sorted(SYNTH_TRNA_PAIRS)))
    seq2 = parse_sequence("GGCACAGAAGAUAUGGCUUCGUGCC" + "A" * 30, id="padded")
    (d / "padded.fasta").write_text(f">padded\n{seq2.residues}\n")
    (d / "padded.ct").write_text(write_ct(seq2, [(1, 25), (2, 24), (3, 23)]))
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert main(["batch", "--profile", "trna", str(d), "-o", str(serial)]) == 0
    assert main(["batch", "--profile", "trna", str(d), "-o", str(parallel),
                 "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_c8_filter_monotonicity():
    rng = random.Random(808)
    for _ in range(60):
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(25)), id="r")
        loose = {(s.i, s.j, s.length) for s in enumerate_stems(seq, CANON, 2)}
        for min_len in (3, 4):
            assert {(s.i, s.j, s.length)
                    for s in enumerate_stems(seq, CANON, min_len)} <= loose
        wide = {(s.i, s.j, s.length)
                for s in enumerate_stems(seq, CANON, 2, sl=Interval(Fraction(1), Fraction(30)))}
        narrow = {(s.i, s.j, s.length)
                  for s in enumerate_stems(seq, CANON, 2, sl=Interval(Fraction(2), Fraction(8)))}
        assert narrow <= wide <= loose


def test_c8_edge_soundness_no_index_reuse():
    rng = random.Random(909)
    for _ in range(30):
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(28)), id="r")
        graph = build_stem_graph(enumerate_stems(seq, CANON, 2))
        report = rank_predictions(graph, maximal_cliques(graph))
        for pred in report.predictions:
            flat = [x for pq in pred.pairs for x in pq]
            assert len(flat) == len(set(flat))
            assert pred.energy == len(pred.pairs)


def test_c8_ranking_laws():
    stems = [contiguous_stem(1, 50, 9), contiguous_stem(1, 40, 7),
             contiguous_stem(1, 30, 7), contiguous_stem(1, 20, 5)]
    graph = build_stem_graph(stems)
    report = rank_predictions(graph, maximal_cliques(graph))
    assert [p.energy for p in report.predictions] == [9, 7, 7, 5]
    assert [p.scr for p in report.predictions] == [1, 2, 2, 4]
    assert [p.dr for p in report.predictions] == [1, 2, 2, 3]


def test_c8_dot_bracket_round_trip():
    rng = random.Random(1010)
    for _ in range(40):
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(32)), id="r")
        graph = build_stem_graph(enumerate_stems(seq, CANON, 2))
        report = rank_predictions(graph, maximal_cliques(graph))
        for pred in report.predictions[:3]:
            rendered = write_dot_bracket(seq, pred.pairs)
            assert len(rendered) == seq.length
            for opener, closer in ("()", "[]", "{}", "<>"):
                assert rendered.count(opener) == rendered.count(closer)
            assert parse_dot_bracket(rendered) == frozenset(pred.pairs)

import itertools
import random
from fractions import Fraction

import pytest

from stemp import (IndexOutOfRange, Metrics, PairingRule, ReferenceStructure,
                   build_stem_graph, drop_noncanonical, maximal_cliques, parse_sequence,
                   rank_predictions, score_prediction, summarize_report)
from stemp import cli
from stemp.cli import run_pipeline
from stemp.cliques import FoldPrediction, PredictionReport
from stemp.profiles import builtin_profile
from stemp.stems import contiguous_stem

from .oracles import score_each, score_pairs
from .test_cliques import random_graph


def ref(pairs, length=400, bases=None, id="ref"):
    return ReferenceStructure(id=id, length=length, pairs=frozenset(pairs), bases=bases)


def spaced_pairs(count, length=400):
    """count disjoint pairs (k, length+1-k)."""
    return {(k, length + 1 - k) for k in range(1, count + 1)}


def random_split(rng, universe, length):
    pool = sorted(universe)
    rng.shuffle(pool)
    cut_a, cut_b = sorted((rng.randint(0, len(pool)), rng.randint(0, len(pool))))
    predicted = set(pool[:cut_b])
    reference = set(pool[cut_a:])
    return predicted, ref(reference, length=length)


# ------------------------------------------------------------- formulas

def test_perfect_prediction():
    pairs = spaced_pairs(9, 25)
    m = score_prediction(pairs, ref(pairs, 25))
    assert (m.tp, m.fp, m.fn) == (9, 0, 0)
    assert m.sens == m.ppv == m.f1 == m.mcc_squared == 1
    assert m.mcc == 1.0


def test_published_count_row():
    # 35 found, 2 missed, 0 spurious
    reference = spaced_pairs(37)
    predicted = spaced_pairs(35)
    m = score_prediction(predicted, ref(reference))
    assert (m.tp, m.fn, m.fp) == (35, 2, 0)
    assert m.sens == Fraction(35, 37)
    assert m.ppv == 1
    assert m.f1 == Fraction(35, 36)
    assert abs(float(m.f1) * 100 - 97.2) < 0.1
    assert abs(m.mcc - 0.972) < 0.002


def test_formula_identities_random():
    rng = random.Random(777)
    universe = list(spaced_pairs(40)) + [(100 + k, 300 - k) for k in range(40)]
    for _ in range(300):
        predicted, reference = random_split(rng, universe, 400)
        m = score_prediction(predicted, reference)
        tp = len(predicted & reference.pairs)
        fp = len(predicted - reference.pairs)
        fn = len(reference.pairs - predicted)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn)
        if predicted or reference.pairs:
            expect_sens = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            expect_ppv = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            assert m.sens == expect_sens and m.ppv == expect_ppv
        assert m.mcc_squared == m.sens * m.ppv
        if m.ppv + m.sens:
            assert m.f1 == 2 * m.ppv * m.sens / (m.ppv + m.sens)
        else:
            assert m.f1 == 0


def test_empty_conventions():
    both = score_prediction([], ref([], 10))
    assert both.sens == both.ppv == both.f1 == both.mcc_squared == 1
    pred_only = score_prediction(spaced_pairs(3, 10), ref([], 10))
    assert pred_only.sens == 0 and pred_only.ppv == 0 and pred_only.f1 == 0
    ref_only = score_prediction([], ref(spaced_pairs(3, 10), 10))
    assert ref_only.ppv == 0 and ref_only.sens == 0 and ref_only.f1 == 0
    assert ref_only.fn == 3
    # every count up to 6 a side, zeros included: the oracle asserts that
    # each score is the sens/ppv-based definition
    universe = sorted(spaced_pairs(18, 40))
    for tp, fp, fn in itertools.product(range(7), repeat=3):
        predicted = universe[:tp + fp]
        reference = ref(universe[:tp] + universe[tp + fp:tp + fp + fn], 40)
        m = score_prediction(predicted, reference)
        assert m == score_pairs(predicted, reference) == Metrics(tp, fp, fn)


def test_symmetry_swaps_sens_and_ppv():
    rng = random.Random(13)
    universe = list(spaced_pairs(30))
    for _ in range(50):
        predicted, reference = random_split(rng, universe, 400)
        forward = score_prediction(predicted, reference)
        backward = score_prediction(reference.pairs, ref(predicted))
        assert forward.sens == backward.ppv
        assert forward.ppv == backward.sens
        assert forward.mcc_squared == backward.mcc_squared
        assert forward.f1 == backward.f1


def test_adding_correct_pair_never_hurts():
    rng = random.Random(29)
    universe = list(spaced_pairs(30))
    for _ in range(50):
        predicted, reference = random_split(rng, universe, 400)
        missing = sorted(reference.pairs - predicted)
        if not missing:
            continue
        before = score_prediction(predicted, reference)
        after = score_prediction(predicted | {missing[0]}, reference)
        assert after.sens >= before.sens
        assert after.ppv >= before.ppv
        assert after.f1 >= before.f1
        assert after.mcc_squared >= before.mcc_squared


def test_adding_incorrect_pair_never_helps_ppv():
    reference = ref(spaced_pairs(10))
    predicted = spaced_pairs(8)
    before = score_prediction(predicted, reference)
    after = score_prediction(predicted | {(150, 160)}, reference)
    assert after.ppv <= before.ppv


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        score_prediction({(1, 60)}, ref(spaced_pairs(2, 50), 50))


def test_reference_validation():
    with pytest.raises(ValueError):
        ref([(5, 5)], 10)
    with pytest.raises(ValueError):
        ref([(7, 3)], 10)
    with pytest.raises(ValueError):
        ref([(1, 5), (5, 9)], 10)  # index 5 reused
    with pytest.raises(IndexOutOfRange):
        ref([(1, 11)], 10)


# ------------------------------------------------------------- filtering

def test_drop_noncanonical():
    bases = "GCAUCU"
    reference = ref({(1, 6), (2, 5), (3, 4)}, 6, bases=bases)  # G-U, C-C, A-U
    rule = PairingRule(wobble=True)
    kept = drop_noncanonical(reference, rule)
    assert kept.pairs == frozenset({(1, 6), (3, 4)})
    strict = drop_noncanonical(reference, PairingRule())
    assert strict.pairs == frozenset({(3, 4)})
    with pytest.raises(ValueError):
        drop_noncanonical(ref({(1, 6)}, 6), rule)


# ------------------------------------------------------------- summaries

def make_report(entries):
    preds = tuple(FoldPrediction(vertices=(k,), energy=e, pairs=tuple(sorted(p)),
                                 scr=scr, dr=dr, multiplicity=m)
                  for k, (e, p, scr, dr, m) in enumerate(entries))
    return PredictionReport(sequence_id="s", profile="p", predictions=preds)


def test_summary_single_prediction():
    pairs = spaced_pairs(5, 40)
    report = make_report([(5, pairs, 1, 1, 1)])
    summary = summarize_report(report, ref(pairs, 40))
    assert summary.top == summary.best
    assert summary.best_scr == 1 and summary.best_multiplicity == 1


def test_summary_best_below_top_rank():
    truth = spaced_pairs(6, 60)
    wrong = {(20 + k, 50 - k) for k in range(7)}
    report = make_report([
        (7, wrong, 1, 1, 1),        # highest energy, scores 0
        (6, truth, 2, 2, 2),        # true structure at rank 2
        (6, set(list(truth)[:3]) | {(25, 45)}, 2, 2, 2),
    ])
    summary = summarize_report(report, ref(truth, 60))
    assert summary.top.mcc == 0.0
    assert summary.best.mcc == 1.0
    assert (summary.best_scr, summary.best_dr, summary.best_multiplicity) == (2, 2, 2)


def test_summary_metric_choice():
    truth = spaced_pairs(4, 40)
    report = make_report([(4, truth, 1, 1, 1)])
    by_f1 = summarize_report(report, ref(truth, 40), metric="f1")
    assert by_f1.metric == "f1" and by_f1.best.f1 == 1
    with pytest.raises(ValueError):
        summarize_report(report, ref(truth, 40), metric="accuracy")


def test_an_unknown_metric_is_refused_before_any_scoring():
    """A ranking of one energy block compares no two scores, and still
    refuses an unknown metric, as a report of two blocks does."""
    graph = build_stem_graph([contiguous_stem(1, 20, 3)])
    ranked = rank_predictions(graph, maximal_cliques(graph))
    assert len(list(ranked.predictions.blocks())) == 1
    for reference in (ref([], 20), ref(spaced_pairs(4, 40), 40)):
        with pytest.raises(ValueError, match="unknown metric 'accuracy'"):
            summarize_report(ranked, reference, metric="accuracy")


def test_summary_requires_predictions():
    with pytest.raises(ValueError):
        summarize_report(make_report([]), ref(spaced_pairs(2, 40), 40))


# ------------------------------------------------------------- against the oracle

def summaries_agree(report, reference):
    for metric in ("mcc", "f1"):
        assert summarize_report(report, reference, metric) == score_each(report, reference, metric)


def test_summary_matches_oracle_on_full_report():
    rng = random.Random(6)  # 682 cliques under trna
    seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id="r76")
    _, report = run_pipeline(seq, builtin_profile("trna"))
    assert len(report.predictions) == 682
    for seed in range(4):
        pick = random.Random(seed)
        # a reference near a few predictions: part of one, plus what fits of another
        kept = {pq for pq in pick.choice(report.predictions).pairs if pick.random() < 0.7}
        for pq in pick.choice(report.predictions).pairs:
            if not {x for pair in kept for x in pair} & set(pq):
                kept.add(pq)
        summaries_agree(report, ref(kept, 76))
    summaries_agree(report, ref([], 76))  # empty reference: every key ties at 0


def test_summary_ties_match_oracle():
    truth = spaced_pairs(4, 40)
    r1, r2, r3 = sorted(truth)[:3]
    w = [(20 + k, 31 - k) for k in range(6)]
    # (tp, fp, fn) (1, 1, 3) and (2, 6, 2) tie on both MCC^2 = 1/8 and F1 = 1/3;
    # against the empty reference every prediction but the empty one ties at 0
    entries = [
        ({r1, w[0]}, 2, 2),
        ({r2, w[1]}, 3, 3),
        ({r1, r2, *w}, 4, 4),
        ({r3, w[1], w[2], w[3]}, 5, 5),
        (set(), 6, 6),
    ]
    for order in itertools.permutations(entries):
        for ones in (0b11111, 0b11000, 0b00110, 0b00001):  # which ones have SCR 1
            report = make_report([(1, pairs, 1 if ones >> k & 1 else 2, dr, m)
                                  for k, (pairs, dr, m) in enumerate(order)])
            summaries_agree(report, ref(truth, 40))
            summaries_agree(report, ref([], 40))


@pytest.mark.parametrize("bad,index", [((41, 44), 41), ((3, 42), 42)])
def test_summary_out_of_range_names_the_same_index(bad, index):
    entries = [(2, {(1, 30), (2, 29)}, 1, 1, 1),
               (2, {bad, (4, 28)}, 2, 2, 1),
               (2, {(3, 50), (5, 27)}, 3, 3, 1)]
    reference = ref(spaced_pairs(2, 40), 40)
    with pytest.raises(IndexOutOfRange) as expected:
        score_each(make_report(entries), reference)
    with pytest.raises(IndexOutOfRange) as got:
        summarize_report(make_report(entries), reference)
    assert got.value.index == expected.value.index == index
    assert str(got.value) == str(expected.value)


# ------------------------------------------------------------- rankings, from their stems

@pytest.mark.parametrize("seed", range(6))
def test_ranked_summary_matches_oracle_on_random_graphs(seed, pair_calls):
    """Stems of length 2 or 3, so energies tie; references hold part of
    the stems' pairs plus pairs of no stem, or nothing."""
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(3, 10)
        graph = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]),
                             [rng.choice((2, 3)) for _ in range(n)])
        report = rank_predictions(graph, maximal_cliques(graph))
        kept = {pq for stem in graph.vertices for pq in stem.pairs if rng.random() < 0.4}
        kept |= {(100 * k + 40, 100 * k + 60) for k in range(n) if rng.random() < 0.3}
        for reference in (ref(kept, 100 * n), ref([], 100 * n)):
            for metric in ("mcc", "f1"):
                del pair_calls[:]
                got = summarize_report(report, reference, metric)
                assert len(pair_calls) == 1  # the best prediction, and only it
                assert got == score_each(report, reference, metric)


@pytest.mark.parametrize("seed", range(6))
def test_ranked_choice_decodes_each_key_it_reads_once(seed, monkeypatch):
    """On the random graphs above, ``_ranked_choice`` decodes whole energy
    blocks, in report order, each key of them once."""
    from stemp import cliques, metrics

    decoded = []
    key_vertices = cliques._key_vertices

    def spy(n, keys, first=0):
        for key in keys:
            decoded.append(key)
            yield from key_vertices(n, [key], first)

    monkeypatch.setattr(cliques, "_key_vertices", spy)
    rng = random.Random(seed)
    for _ in range(12):
        n = rng.randint(3, 10)
        graph = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]),
                             [rng.choice((2, 3)) for _ in range(n)])
        ranked = rank_predictions(graph, maximal_cliques(graph)).predictions
        kept = {pq for stem in graph.vertices for pq in stem.pairs if rng.random() < 0.4}
        kept |= {(100 * k + 40, 100 * k + 60) for k in range(n) if rng.random() < 0.3}
        for reference in (ref(kept, 100 * n), ref([], 100 * n)):
            for metric in ("mcc", "f1"):
                del decoded[:]
                _, _, index = metrics._ranked_choice(
                    ranked, reference, lambda m: metrics._metric_key(m, metric))
                energies = {key >> n for key in decoded}
                assert decoded == [key for key in ranked.keys if key >> n in energies]
                assert ranked.keys[index] in decoded


def test_ranked_best_inside_a_tied_energy_block():
    """Two cliques of energy 2 with tp 0 and 2, the better one second in
    its block and the block second in the report: the ranked path picks
    the prediction, and its SCR, DR and multiplicity, that the pair path
    picks."""
    from stemp import metrics
    from .test_cliques import graph_from_edges

    graph = graph_from_edges(3, [], lengths=[3, 2, 2])  # no edges: (0,), (1,), (2,)
    report = rank_predictions(graph, maximal_cliques(graph))
    assert [p.vertices for p in report.predictions] == [(0,), (1,), (2,)]
    reference = ref(graph.vertices[2].pairs, 400)  # tp: 0, 0, 2
    for metric in ("mcc", "f1"):
        key = lambda m: metrics._metric_key(m, metric)
        top, best, index = metrics._ranked_choice(report.predictions, reference, key)
        assert (top, best, index) == metrics._pair_choice(report.predictions, reference, key)
        assert index == 2 and best.tp == 2 and top.tp == 0
        chosen = report.predictions[index]
        summary = summarize_report(report, reference, metric)
        assert (summary.best_scr, summary.best_dr, summary.best_multiplicity) == \
            (chosen.scr, chosen.dr, chosen.multiplicity) == (2, 2, 2)
        assert summary == score_each(report, reference, metric)


def test_ranked_summary_past_the_reference_names_the_same_index():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 8)
        graph = random_graph(rng, n, 0.5, [rng.choice((2, 3)) for _ in range(n)])
        report = rank_predictions(graph, maximal_cliques(graph))
        # the last stem spans 100(n-1)+1 .. 100(n-1)+10
        reference = ref(spaced_pairs(2, 40), 100 * (n - 1) + rng.choice((1, 5, 9)))
        with pytest.raises(IndexOutOfRange) as expected:
            score_each(report, reference)
        for metric in ("mcc", "f1"):
            with pytest.raises(IndexOutOfRange) as got:
                summarize_report(report, reference, metric)
            assert got.value.index == expected.value.index
            assert str(got.value) == str(expected.value)


# ------------------------------------------------------------- evaluate and batch

def _score_fields(summary):
    """``cli._scores``' fields of a summary."""
    return {"top": cli._metrics_dict(summary.top), "best": cli._metrics_dict(summary.best),
            "scr_of_best": summary.best_scr, "dr_of_best": summary.best_dr,
            "multiplicity": summary.best_multiplicity}


@pytest.mark.parametrize("profile,length,seed", [("trna", 76, 6), ("protein", 60, 2)])
def test_evaluate_and_batch_scores_match_the_oracle(profile, length, seed):
    """``evaluate``'s and each ``batch`` row's scores equal scoring every
    prediction on its own: against a reference near the predictions, an
    empty one, and one shorter than the graph (the same IndexOutOfRange),
    under both metrics."""
    rng = random.Random(seed)
    cfg = builtin_profile(profile)
    seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(length)), id="r")
    _, report = run_pipeline(seq, cfg)
    assert len(report.predictions) > 100
    kept = {pq for pq in rng.choice(report.predictions).pairs if rng.random() < 0.7}
    past = max(stem.j for stem in report.predictions.graph.vertices) - 1
    tripped = []
    for reference in (ref(kept, length), ref([], length), ref([], past)):
        for metric in ("mcc", "f1"):
            try:
                expected = _score_fields(score_each(report, reference, metric))
            except IndexOutOfRange as exc:
                tripped.append(reference.length)
                for score in (lambda: cli._scores(report, reference, metric),
                              lambda: cli._batch_row(seq, reference, cfg, metric, None, None)):
                    with pytest.raises(IndexOutOfRange) as got:
                        score()
                    assert str(got.value) == str(exc)
                continue
            assert reference.length == length
            assert cli._scores(report, reference, metric) == expected
            row = cli._batch_row(seq, reference, cfg, metric, None, None)
            assert {k: row[k] for k in expected} == expected
    assert tripped == [past, past]

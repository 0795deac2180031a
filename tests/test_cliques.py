import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from stemp import (BudgetExceeded, PairingRule, build_stem_graph, enumerate_stems,
                   maximal_cliques, parse_sequence, rank_predictions)
from stemp import cliques as cliques_module
from stemp.cliques import Deadline, FoldPrediction, clique_pairs
from stemp.profiles import build_profile_graph, builtin_profile
from stemp.stems import StemGraph, contiguous_stem

from .oracles import brute_force_maximal_cliques, plane_bound_top_k

CANON = PairingRule()


def graph_from_edges(n, edges, lengths=None):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    # enumeration reads only the masks; the stems are spaced apart so that any
    # clique is a valid structure, and their lengths are its energy
    lengths = lengths or [2] * n
    vertices = tuple(contiguous_stem(100 * k + 1, 100 * k + 10, lengths[k])
                     for k in range(n))
    return StemGraph(vertices=vertices, neighbor_masks=tuple(masks))


def random_graph(rng, n, p=0.5, lengths=None):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges, lengths)


# ------------------------------------------------------------- enumeration

def test_worked_example_cliques(seq_2qux):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    cliques = maximal_cliques(graph)
    assert len(cliques) == 7
    sizes = sorted(len(c) for c in cliques)
    assert sizes == [1, 2, 2, 2, 2, 2, 2]
    assert {tuple(v + 1 for v in c) for c in cliques} == {
        (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5), (6,)}


def test_edgeless_graph_gives_singletons():
    graph = graph_from_edges(5, [])
    assert sorted(maximal_cliques(graph)) == [(0,), (1,), (2,), (3,), (4,)]


def test_empty_graph():
    assert list(maximal_cliques(graph_from_edges(0, []))) == []


def test_complete_graph_single_clique():
    graph = graph_from_edges(6, list(itertools.combinations(range(6), 2)))
    assert list(maximal_cliques(graph)) == [(0, 1, 2, 3, 4, 5)]


def test_matches_subset_oracle_exhaustive_small():
    # every graph on 4 vertices
    for bits in range(1 << 6):
        edges = [e for k, e in enumerate(itertools.combinations(range(4), 2))
                 if bits >> k & 1]
        graph = graph_from_edges(4, edges)
        got = {frozenset(c) for c in maximal_cliques(graph)}
        assert got == brute_force_maximal_cliques(list(graph.neighbor_masks))


@pytest.mark.parametrize("seed", range(5))
def test_matches_subset_oracle_random(seed):
    rng = random.Random(seed)
    for _ in range(20):
        n = rng.randint(5, 15)
        graph = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        got = {frozenset(c) for c in maximal_cliques(graph)}
        assert got == brute_force_maximal_cliques(list(graph.neighbor_masks))


def test_matches_subset_oracle_twenty_vertices():
    from .oracles import brute_force_maximal_cliques_np
    rng = random.Random(2024)
    for _ in range(200):
        graph = random_graph(rng, 20, rng.choice([0.3, 0.5, 0.7]))
        got = {frozenset(c) for c in maximal_cliques(graph)}
        assert got == brute_force_maximal_cliques_np(list(graph.neighbor_masks))


# ------------------------------------------------------------- budgets

def test_clique_budget(seq_2qux):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    with pytest.raises(BudgetExceeded):
        maximal_cliques(graph, max_cliques=1)
    assert len(maximal_cliques(graph, max_cliques=7)) == 7


def test_time_budget(seq_2qux):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    with pytest.raises(BudgetExceeded):
        maximal_cliques(graph, deadline=Deadline(-1.0))


# ------------------------------------------------------------- ranking

def test_worked_example_ranking(seq_2qux):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    report = rank_predictions(graph, maximal_cliques(graph), sequence_id="2QUX")
    energies = [p.energy for p in report.predictions]
    assert energies == [9, 8, 8, 7, 7, 6, 3]
    assert [p.scr for p in report.predictions] == [1, 2, 2, 4, 4, 6, 7]
    assert [p.dr for p in report.predictions] == [1, 2, 2, 3, 3, 4, 5]
    assert [p.multiplicity for p in report.predictions] == [1, 2, 2, 2, 2, 1, 1]
    top = report.predictions[0]
    assert tuple(v + 1 for v in top.vertices) == (1, 4)
    assert top.energy == 9


def test_scr_dr_laws_on_energy_vector():
    # four mutually conflicting stems with lengths 9, 7, 7, 5
    stems = [contiguous_stem(1, 50, 9), contiguous_stem(1, 40, 7),
             contiguous_stem(1, 30, 7), contiguous_stem(1, 20, 5)]
    graph = build_stem_graph(stems)
    assert graph.edges == ()
    report = rank_predictions(graph, maximal_cliques(graph))
    assert [p.energy for p in report.predictions] == [9, 7, 7, 5]
    assert [p.scr for p in report.predictions] == [1, 2, 2, 4]
    assert [p.dr for p in report.predictions] == [1, 2, 2, 3]


def test_single_clique_ranks_first():
    graph = build_stem_graph([contiguous_stem(1, 20, 4)])
    report = rank_predictions(graph, maximal_cliques(graph))
    only = report.predictions[0]
    assert (only.scr, only.dr, only.multiplicity) == (1, 1, 1)


def test_prediction_pairs(seq_2qux):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    report = rank_predictions(graph, maximal_cliques(graph))
    top = report.predictions[0]
    pairs = clique_pairs(graph, top.vertices)
    assert pairs == top.pairs
    assert pairs[0] == (1, 25) and (5, 21) in pairs
    for p in report.predictions:
        assert len(p.pairs) == p.energy


def test_dr_never_exceeds_scr():
    rng = random.Random(31)
    for _ in range(15):
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(24)), id="r")
        graph = build_stem_graph(enumerate_stems(seq, CANON, 2))
        report = rank_predictions(graph, maximal_cliques(graph))
        for p in report.predictions:
            assert p.dr <= p.scr
        if report.predictions:
            assert report.predictions[0].scr == report.predictions[0].dr == 1


def test_vertex_permutation_invariance():
    rng = random.Random(5150)
    seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(28)), id="perm")
    stems = enumerate_stems(seq, CANON, 2)
    base_report = rank_predictions(*_graph_and_cliques(stems))
    shuffled = stems[:]
    rng.shuffle(shuffled)
    other_report = rank_predictions(*_graph_and_cliques(shuffled))
    key = lambda rep: sorted((p.energy, tuple(sorted(p.pairs))) for p in rep.predictions)
    assert key(base_report) == key(other_report)


def _graph_and_cliques(stems):
    graph = build_stem_graph(stems)
    return graph, maximal_cliques(graph)


def test_rank_rejects_index_reuse():
    a = contiguous_stem(1, 20, 3)
    b = contiguous_stem(1, 30, 3)  # shares base 1 with a
    c = contiguous_stem(40, 70, 10)  # valid, and outranks the bogus clique
    graph = StemGraph(vertices=(a, b, c), neighbor_masks=(2, 1, 0))  # forced bogus edge
    with pytest.raises(ValueError):
        rank_predictions(graph, [(0, 1)])
    with pytest.raises(ValueError):  # checked even though only (2,) is emitted
        rank_predictions(graph, [(0, 1), (2,)], top_k=1)


# ------------------------------------------------------------- lazy predictions

def test_ranked_predictions_act_as_a_tuple(seq_2qux):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    ranked = rank_predictions(graph, maximal_cliques(graph)).predictions
    built = tuple(ranked)
    assert len(built) == len(ranked) == 7 and bool(ranked)
    assert all(type(p) is FoldPrediction for p in built)
    assert [ranked[k] for k in range(-7, 7)] == list(built[-7:] + built)
    for cut in (slice(None), slice(2, 5), slice(None, None, -2), slice(9, 12)):
        assert type(ranked[cut]) is tuple and ranked[cut] == built[cut]
    with pytest.raises(IndexError):
        ranked[7]
    assert ranked == built and built == ranked and ranked == list(built)
    assert ranked != built[:-1] and ranked != built[::-1] and ranked != "x"
    assert hash(ranked) == hash(built)
    assert built[3] in ranked and ranked.index(built[3]) == 3
    report = rank_predictions(graph, maximal_cliques(graph))
    assert report == replace(report, predictions=built)
    empty = rank_predictions(graph, []).predictions
    assert not empty and len(empty) == 0 and empty == () and empty[:] == ()


def _random_76mer():
    rng = random.Random(6)  # 682 cliques under trna
    return parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id="r76")


def test_ranking_builds_no_pairs(pair_calls):
    graph = build_profile_graph(_random_76mer(), builtin_profile("trna"))
    found = maximal_cliques(graph)
    report = rank_predictions(graph, found)
    assert len(report.predictions) == len(found) == 682
    assert pair_calls == []
    assert report.predictions[5].vertices == report.predictions.entries[5][1]
    assert pair_calls == [(graph, report.predictions.entries[5][1])]


# ------------------------------------------------------------- exact top-k

def _energy(graph, clique):
    return sum(graph.vertices[v].length for v in clique)


def assert_exact_top_k(graph):
    """For every k, the pruned search and the top-k ranking agree with the
    full enumeration and the full report cut to k, field for field."""
    full_cliques = maximal_cliques(graph)
    full = rank_predictions(graph, full_cliques).predictions
    energies = sorted((_energy(graph, c) for c in full_cliques), reverse=True)
    for k in range(1, len(full_cliques) + 2):
        floor = energies[k - 1] if k <= len(energies) else 0
        pruned = maximal_cliques(graph, top_k=k)
        assert sorted(pruned) == sorted(c for c in full_cliques if _energy(graph, c) >= floor), k
        assert rank_predictions(graph, pruned, top_k=k).predictions == full[:k], k


def test_exact_top_k_every_four_vertex_graph():
    for lengths in itertools.product((2, 3, 4), repeat=4):
        for bits in range(1 << 6):
            edges = [e for k, e in enumerate(itertools.combinations(range(4), 2))
                     if bits >> k & 1]
            assert_exact_top_k(graph_from_edges(4, edges, list(lengths)))


@pytest.mark.parametrize("seed", range(5))
def test_exact_top_k_random_graphs_with_ties(seed):
    rng = random.Random(seed)
    for _ in range(15):
        n = rng.randint(5, 12)
        lengths = [rng.choice((2, 3)) for _ in range(n)]  # ties fall on the k boundary
        assert_exact_top_k(random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]), lengths))


def test_exact_top_k_golden_graph(seq_2qux):
    assert_exact_top_k(build_stem_graph(enumerate_stems(seq_2qux, CANON, 3)))


def test_exact_top_k_random_sequences():
    rng = random.Random(2718)
    for _ in range(20):
        n = rng.randint(24, 28)
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(n)), id="r")
        assert_exact_top_k(build_stem_graph(enumerate_stems(seq, CANON, 2)))


class NodeClock:
    """Stands in for the ``time`` module in ``stemp.cliques``: under a time
    budget the search reads the clock once to set its deadline and once on
    entering each node."""

    def __init__(self):
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return 0.0


def assert_same_search_as_plane_bound(graph, clock):
    """The weighted-mask bound enters the plane bound's nodes, returns its
    cliques and trips ``max_cliques`` at the same count."""
    for k in (1, 2, 5):
        cliques, reached, nodes = plane_bound_top_k(graph, k)
        clock.reads = 0
        assert sorted(maximal_cliques(graph, max_cliques=reached, deadline=Deadline(1.0),
                                      top_k=k)) == cliques, k
        assert clock.reads == 1 + nodes, k
        if reached:
            with pytest.raises(BudgetExceeded):
                maximal_cliques(graph, max_cliques=reached - 1, top_k=k)


def test_top_k_search_matches_the_plane_bound_oracle(seq_2qux, monkeypatch):
    clock = NodeClock()
    monkeypatch.setattr(cliques_module, "time", clock)
    for lengths in itertools.product((2, 3), repeat=4):
        for bits in range(1 << 6):
            edges = [e for k, e in enumerate(itertools.combinations(range(4), 2))
                     if bits >> k & 1]
            assert_same_search_as_plane_bound(graph_from_edges(4, edges, list(lengths)), clock)
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(5, 14)
        lengths = [rng.choice((2, 3)) for _ in range(n)]
        assert_same_search_as_plane_bound(
            random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]), lengths), clock)
    for n in (15, 16, 17, 24, 25):  # about the edges of the search's per-byte tables
        lengths = [rng.choice((2, 3)) for _ in range(n)]
        assert_same_search_as_plane_bound(
            random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]), lengths), clock)
    assert_same_search_as_plane_bound(build_stem_graph(enumerate_stems(seq_2qux, CANON, 3)),
                                      clock)
    protein = builtin_profile("protein")
    for seed in (0, 1, 3, 6):  # 415 to 10,247 cliques in full
        rng = random.Random(seed)
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id="p")
        assert_same_search_as_plane_bound(build_profile_graph(seq, protein), clock)


@pytest.mark.parametrize("k", [0, -1])
def test_top_k_below_one_rejected(seq_2qux, k):
    graph = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    with pytest.raises(ValueError):
        maximal_cliques(graph, top_k=k)
    with pytest.raises(ValueError):
        rank_predictions(graph, maximal_cliques(graph), top_k=k)


# ------------------------------------------------------------- energies from the search

def _same_ranking(a, b):
    """Two reports agree field for field: entries, ranks and every prediction."""
    assert a.predictions.entries == b.predictions.entries
    assert a.predictions.ranks == b.predictions.ranks
    assert tuple(a.predictions) == tuple(b.predictions)


@pytest.mark.parametrize("seed", range(3))
def test_search_energies_rank_as_the_priced_list(seed, monkeypatch):
    """The energies a Cliques carries are its cliques' summed lengths, and
    ranking it gives what pricing the plain list gives, with and without
    top_k, on graphs of 0 to 25 vertices with tied energies."""
    priced = []
    real = cliques_module._priced
    monkeypatch.setattr(cliques_module, "_priced",
                        lambda *a: priced.append(a[0]) or real(*a))
    rng = random.Random(seed)
    for n in range(26):
        graph = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]),
                             [rng.choice((2, 3)) for _ in range(n)])
        for top_k in (None, 1, 2, 5):
            found = maximal_cliques(graph, top_k=top_k)
            assert type(found) is cliques_module.Cliques and found.graph is graph
            assert rank_predictions(graph, found).predictions.entries == \
                sorted((-_energy(graph, c), c) for c in found)
            del priced[:]
            direct = rank_predictions(graph, found, top_k=top_k)
            assert priced == []
            _same_ranking(direct, rank_predictions(graph, list(found), top_k=top_k))
            _same_ranking(direct, rank_predictions(graph, reversed(list(found)), top_k=top_k))
            # an equal graph that is another object: priced
            twin = StemGraph(vertices=graph.vertices, neighbor_masks=graph.neighbor_masks)
            del priced[:]
            _same_ranking(direct, rank_predictions(twin, found, top_k=top_k))
            assert priced == [twin]


def test_a_graph_with_a_base_sharing_edge_prices_its_own_cliques():
    a = contiguous_stem(1, 20, 3)
    b = contiguous_stem(1, 30, 3)  # shares base 1 with a
    c = contiguous_stem(40, 70, 10)
    graph = StemGraph(vertices=(a, b, c), neighbor_masks=(2, 1, 0))  # forced bogus edge
    assert not graph.conflict_free
    found = maximal_cliques(graph)
    assert sorted(found) == [(0, 1), (2,)]
    for top_k in (None, 1):
        with pytest.raises(ValueError) as own:
            rank_predictions(graph, found, top_k=top_k)
        with pytest.raises(ValueError) as plain:
            rank_predictions(graph, list(found), top_k=top_k)
        assert str(own.value) == str(plain.value) == \
            "clique (0, 1) reuses base indices; not a valid structure"


def test_built_and_read_graphs_are_conflict_free(seq_2qux):
    from stemp.fileio import graph_from_dict, graph_to_dict

    built = build_stem_graph(enumerate_stems(seq_2qux, CANON, 3))
    assert built.conflict_free
    assert StemGraph(vertices=built.vertices, neighbor_masks=built.neighbor_masks).conflict_free
    assert graph_from_dict(graph_to_dict(built)).conflict_free
    assert graph_from_edges(0, []).conflict_free
    assert random_graph(random.Random(1), 12).conflict_free  # stems spaced apart


# ------------------------------------------------------------- clique keys

def _oracle_ranking(graph, cliques):
    """Report entries ``sorted((-energy, sorted vertex tuple))`` of any
    cliques, and each energy's (SCR, DR, multiplicity)."""
    entries = sorted((-_energy(graph, c), tuple(sorted(c))) for c in cliques)
    counts = Counter(-neg_energy for neg_energy, _ in entries)
    ranks, better = {}, 0
    for dense, energy in enumerate(sorted(counts, reverse=True), start=1):
        ranks[energy] = (better + 1, dense, counts[energy])
        better += counts[energy]
    return entries, ranks


def assert_ranks_as_the_oracle(graph, cliques, top_k=None):
    entries, ranks = _oracle_ranking(graph, cliques)
    ranked = rank_predictions(graph, cliques, top_k=top_k).predictions
    assert ranked.entries == entries[:top_k]
    assert ranked.ranks == ranks
    assert [(-p.energy, p.vertices) for p in ranked] == entries[:top_k]


@pytest.mark.parametrize("seed", range(3))
def test_key_order_is_report_order_on_tied_graphs(seed):
    rng = random.Random(seed)
    for n in range(26):
        graph = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]),
                             [rng.choice((2, 3)) for _ in range(n)])
        cliques = list(maximal_cliques(graph))
        for top_k in (None, 1, 2, 5):
            # the pruned search keeps every clique down to the k-th best
            assert_ranks_as_the_oracle(graph, maximal_cliques(graph, top_k=top_k), top_k)
            assert_ranks_as_the_oracle(graph, cliques, top_k)


@pytest.mark.parametrize("n,p", [(70, 0.2), (300, 0.03)])
def test_key_order_past_one_machine_word(n, p):
    rng = random.Random(n)
    graph = random_graph(rng, n, p, [rng.choice((2, 3)) for _ in range(n)])
    found = maximal_cliques(graph)
    assert min(found.keys).bit_length() > 64  # every key past one machine word
    for top_k in (None, 1, 7):
        assert_ranks_as_the_oracle(graph, maximal_cliques(graph, top_k=top_k), top_k)
    assert_ranks_as_the_oracle(graph, list(found))


def test_key_order_of_plain_lists_with_subsets_and_repeats():
    """Plain lists may hold a clique with its proper subset or prefix (of
    lower energy, since every stem holds a pair), unsorted tuples, and one
    clique more than once."""
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 12)
        graph = graph_from_edges(n, [], [rng.choice((1, 2, 3)) for _ in range(n)])
        cliques = []
        for _ in range(rng.randint(1, 8)):
            clique = rng.sample(range(n), rng.randint(1, n))
            cliques.append(tuple(clique))  # unsorted
            cliques.append(tuple(sorted(clique))[:rng.randint(1, len(clique))])  # a prefix
            cliques.append(tuple(rng.sample(clique, rng.randint(1, len(clique)))))  # a subset
            if rng.random() < 0.5:
                cliques.append(tuple(rng.sample(clique, len(clique))))  # a repeat
        rng.shuffle(cliques)
        for top_k in (None, 1, 3):
            assert_ranks_as_the_oracle(graph, cliques, top_k)


@pytest.mark.parametrize("seed", range(3))
def test_cliques_view_is_the_sorted_brute_force_list(seed):
    rng = random.Random(100 + seed)
    for _ in range(30):
        n = rng.randint(1, 14)
        graph = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]),
                             [rng.choice((2, 3)) for _ in range(n)])
        found = maximal_cliques(graph)
        expected = sorted(tuple(sorted(c))
                          for c in brute_force_maximal_cliques(list(graph.neighbor_masks)))
        assert sorted(found) == expected
        assert len(found) == len(found.keys) == len(expected)
        assert rank_predictions(graph, found).predictions.entries == \
            sorted((-_energy(graph, c), c) for c in expected)


class TrippingClock:
    """Stands in for the ``time`` module in ``stemp.cliques``: reads past
    ``trip_at`` are 10 s later than the ones before."""

    def __init__(self):
        self.reads = 0
        self.trip_at = 0

    def monotonic(self) -> float:
        self.reads += 1
        return 10.0 if self.reads > self.trip_at else 0.0


@pytest.mark.parametrize("top_k", [None, 1, 3])
def test_budgets_trip_where_the_oracle_search_does(seq_2qux, monkeypatch, top_k):
    """``max_cliques`` trips at the oracle search's clique count and the
    deadline at its node count, with and without ``top_k``."""
    clock = TrippingClock()
    monkeypatch.setattr(cliques_module, "time", clock)
    rng = random.Random(77)
    graphs = [random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]),
                           [rng.choice((2, 3)) for _ in range(n)])
              for n in rng.choices(range(2, 16), k=40)]
    graphs.append(build_stem_graph(enumerate_stems(seq_2qux, CANON, 3)))
    for graph in graphs:
        # with more than every clique as k, the oracle never prunes
        _, reached, nodes = plane_bound_top_k(graph, top_k or 1 << 30)
        assert len(maximal_cliques(graph, max_cliques=reached, top_k=top_k)) <= reached
        with pytest.raises(BudgetExceeded, match=f"more than {reached - 1} maximal"):
            maximal_cliques(graph, max_cliques=reached - 1, top_k=top_k)
        # one read sets the deadline, then one per node entered
        clock.reads, clock.trip_at = 0, 1 + nodes
        maximal_cliques(graph, deadline=Deadline(1.0), top_k=top_k)
        clock.reads, clock.trip_at = 0, nodes
        with pytest.raises(BudgetExceeded, match="during search"):
            maximal_cliques(graph, deadline=Deadline(1.0), top_k=top_k)
        assert clock.reads == 1 + nodes + 1  # and the check that names the stage


# ------------------------------------------------------------- energy blocks

def _grouped(entries, first=0):
    """``entries`` grouped by energy as ``blocks(first)`` yields them, with
    each block's vertices read into a list."""
    grouped = []
    for index, (neg_energy, vertices) in enumerate(entries):
        numbered = [v + first for v in vertices]
        if grouped and grouped[-1][0] == -neg_energy:
            grouped[-1][2].append(numbered)
        else:
            grouped.append((-neg_energy, index, [numbered]))
    return grouped


def _read_blocks(ranked, first=0):
    return [(energy, start, list(block)) for energy, start, block in ranked.blocks(first)]


def assert_blocks_group_the_entries(ranked):
    entries = ranked.entries
    for first in (0, 1):
        assert _read_blocks(ranked, first) == _grouped(entries, first)
    for size in (1, 7, 16):
        for start in range(len(ranked)):
            window = ranked.window(start, start + size)
            assert (window.graph, window.ranks) == (ranked.graph, ranked.ranks)
            assert window.entries == entries[start:start + size]
            assert _read_blocks(window, 1) == _grouped(entries[start:start + size], 1)


@pytest.mark.parametrize("seed", range(3))
def test_blocks_and_windows_group_the_entries_by_energy(seed, monkeypatch):
    rng = random.Random(seed)
    decoded = []
    key_vertices = cliques_module._key_vertices

    def spy(n, keys, first=0):
        for key in keys:
            decoded.append(key)
            yield from key_vertices(n, [key], first)

    for n in range(26):
        graph = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]),
                             [rng.choice((2, 3)) for _ in range(n)])
        for top_k in (None, 1, 2, 5):
            ranked = rank_predictions(graph, maximal_cliques(graph, top_k=top_k),
                                      top_k=top_k).predictions
            assert_blocks_group_the_entries(ranked)
            with monkeypatch.context() as patch:
                patch.setattr(cliques_module, "_key_vertices", spy)
                del decoded[:]
                blocks = [(energy, start) for energy, start, _ in ranked.blocks()]
                assert decoded == []  # a block left unread is not decoded
            assert blocks == [(energy, start) for energy, start, _ in _grouped(ranked.entries)]
            assert (len(ranked) == 0) == (n == 0) == (blocks == [])  # the empty ranking

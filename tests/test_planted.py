"""Planted recovery: a data-free stand-in for the Gutell criteria 4-6.

The benchmark's generator (perfbench/gen.py) plants a known structure in
each input of its seeded pools. Each family's inputs here are run through
``run_pipeline`` with their workload's clique budget, and the test checks
where the planted pairs end up: on the vertices, inside a maximal clique,
and how high that clique ranks. Every count is deterministic, so a change
to any stem enumerator or to the ranking shows up as a diff.
"""

import functools

import pytest

from stemp.cli import run_pipeline
from stemp.profiles import resolve_profile
from stemp.seq import parse_sequence

from .conftest import load_perfbench


def _planted(monkeypatch, workload: str, profile: str):
    """The generator module, the workload, and the inputs of its pool that
    run under ``profile``, with nothing else of the pool generated."""
    gen = load_perfbench("gen", monkeypatch)
    monkeypatch.setattr(gen, "rrna5s_planner", functools.cache(gen.rrna5s_planner))
    workloads = load_perfbench("workloads", monkeypatch)
    pool = workloads.WORKLOADS[workload]
    cases = [pool.entry(index)[0] for index in range(pool.pool)
             if workloads.KINDS[pool.kinds[index % len(pool.kinds)]][1] == profile]
    return gen, pool, cases


def _recovery(case, profile: str, budget: int):
    """(planted pairs on no vertex, report index and SCR 1 of the first
    prediction holding every planted pair, whether some prediction's pairs
    are exactly the planted ones)."""
    graph, report = run_pipeline(parse_sequence(case.residues, id=case.id),
                                 resolve_profile(profile), max_cliques=budget)
    bit = {pair: 1 << k for k, pair in enumerate(case.pairs)}
    covers = [sum(bit.get(pair, 0) for pair in stem.pairs) for stem in graph.vertices]
    on_vertex = 0
    for cover in covers:
        on_vertex |= cover
    missing = {pair for pair in case.pairs if not on_vertex & bit[pair]}
    everything = (1 << len(case.pairs)) - 1
    first, exact = None, False
    for energy, start, block in report.predictions.blocks():
        for k, vertices in enumerate(block):
            cover = 0
            for v in vertices:
                cover |= covers[v]
            if cover == everything:
                if first is None:
                    first = (start + k, report.predictions.ranks[energy][0] == 1)
                # the stems of a clique share no base: its energy counts its pairs
                exact |= energy == len(case.pairs)
    return missing, first, exact


def _components(pairs):
    """Sorted pairs cut into runs that no pair spans across: each run's
    pairs all lie before the next run's."""
    runs = []
    reach = 0
    for p, q in pairs:
        if p > reach:
            runs.append([])
        runs[-1].append((p, q))
        reach = max(reach, q)
    return runs


def _domain_pairs(case, profile: str, unnested) -> dict[str, set]:
    """The planted pairs of each 5S domain, by name. Helix I encloses the
    domains, which sit side by side in profile order; a domain whose inner
    helix cannot nest (``unnested``) is its two helices side by side."""
    pairs = sorted(case.pairs)
    closing = 0  # helix I: the pairs that enclose every pair after them
    while pairs[closing][1] > max(q for _, q in pairs[closing + 1:]):
        closing += 1
    runs = _components(pairs[closing:])
    out = {}
    for name in (d.name for d in resolve_profile(profile).domains):
        take = 2 if name in unnested else 1
        out[name] = {pair for run in runs[:take] for pair in run}
        runs = runs[take:]
    assert not runs
    return out


# (workload pool, profile): (inputs, exact, rank 1, top 5)
RECOVERED = {
    ("census", "trna"): (64, 63, 52, 51),
    ("topk-search", "protein"): (16, 0, 3, 4),
    ("census", "rrna5s-archaeal"): (16, 15, 8, 8),
}
# 5S profiles whose windows admit no planted copy of one domain
EMPTY_DOMAIN = {"rrna5s-archaeal-general": ["gamma"], "rrna5s-bacterial": ["beta"],
                "rrna5s-eukaryotic": ["beta"]}


@pytest.mark.parametrize("workload, profile", sorted(RECOVERED))
def test_planted_structures_are_recovered(monkeypatch, workload, profile):
    """Every planted pair lies on a vertex, and the planted set inside a
    maximal clique; the counts of inputs whose planted set is exactly a
    clique, is held by a rank-1 (SCR 1) prediction, and by one of the first
    five predictions are pinned."""
    _, pool, cases = _planted(monkeypatch, workload, profile)
    exact = rank1 = top5 = 0
    for case in cases:
        missing, first, is_exact = _recovery(case, profile, pool.max_cliques)
        assert not missing and first is not None, case.id
        exact += is_exact
        rank1 += first[1]
        top5 += first[0] < 5
    assert (len(cases), exact, rank1, top5) == RECOVERED[workload, profile]


@pytest.mark.parametrize("profile", sorted(EMPTY_DOMAIN))
def test_planted_5s_pairs_miss_only_the_empty_domain(monkeypatch, profile):
    """Under a 5S profile whose domain windows admit no planted copy of a
    domain, the planted pairs on no vertex are exactly that domain's."""
    gen, census, cases = _planted(monkeypatch, "census", profile)
    planner = gen.rrna5s_planner(profile)
    assert sorted({*planner.gsl_free, *planner.unnested}) == EMPTY_DOMAIN[profile]
    for case in cases:
        missing, first, _ = _recovery(case, profile, census.max_cliques)
        domains = _domain_pairs(case, profile, planner.unnested)
        assert missing == set().union(*(domains[name] for name in EMPTY_DOMAIN[profile]))
        assert missing and first is None, case.id
    assert len(cases) == 16

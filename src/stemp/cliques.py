"""Maximal-clique enumeration and prediction ranking.

Every maximal clique of the stem graph is a candidate folding. Cliques are
scored by their total number of matched base pairs (the "energy") and ranked
with Standard Competition Ranking (1224) and Dense Ranking (1223). Ties are
ordered lexicographically on the sorted vertex tuples so output is fully
deterministic.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter, neg
from typing import Iterable

from .errors import BudgetExceeded
from .stems import Pair, StemGraph


class Deadline:
    """One monotonic deadline ``seconds`` from now; None sets none. It is
    the one time budget of a run: its stages share it, and ``check`` names
    the stage in which it ran out."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.at = None if seconds is None else time.monotonic() + seconds

    def check(self, stage: str):
        if self.at is not None and time.monotonic() > self.at:
            raise BudgetExceeded(f"time budget of {self.seconds} s ran out during {stage}")


class Cliques(list):
    """Cliques of ``graph`` as sorted vertex tuples in lexicographic order,
    with ``energies[k]`` the total stem length of clique k. It is a list,
    and equals the plain list of the same tuples."""

    __slots__ = ("graph", "energies")

    def __init__(self, graph: StemGraph, cliques: Iterable[tuple[int, ...]] = (),
                 energies: Iterable[int] = ()):
        super().__init__(cliques)
        self.graph = graph
        self.energies = list(energies)


def _in_order(graph: StemGraph, cliques: list[tuple[int, ...]], energies: list[int],
              floor: int | None = None) -> Cliques:
    """The cliques of energy at least ``floor`` (all without one), sorted
    together with their energies."""
    keep = (range(len(cliques)) if floor is None
            else [k for k, energy in enumerate(energies) if energy >= floor])
    order = sorted(keep, key=cliques.__getitem__)
    return Cliques(graph, map(cliques.__getitem__, order), map(energies.__getitem__, order))


def maximal_cliques(graph: StemGraph, max_cliques: int | None = None,
                    deadline: Deadline | None = None,
                    top_k: int | None = None) -> Cliques:
    """All maximal cliques, each once, as a Cliques: sorted vertex-index
    tuples in lexicographic order, with the energy (total stem length) that
    the search carried down to each in ``energies``, so that
    ``rank_predictions`` need not price them again.

    Bron-Kerbosch with pivoting: the pivot is the vertex of P | X with the
    most neighbours in P, ties broken by lowest index. Isolated vertices come
    out as singleton cliques. Worst case is exponential, so callers may set a
    clique-count budget or a ``deadline``, checked on entering each node;
    exceeding either raises BudgetExceeded and no partial result is returned.

    With ``top_k`` set, the search is a weighted-clique branch-and-bound on
    energy (total stem length): once k cliques are found, a branch is not
    entered when its energy plus half the bases its candidates P's stems
    cover falls below the k-th best energy so far. That cover is read from
    one table per byte of vertex indices: ``covers[c][s]`` is the OR of the
    base masks of the vertices 8c + b for the bits b set in s. The result
    is then exactly the maximal cliques whose energy is at least the k-th
    best energy overall, ties included, so ``rank_predictions(...,
    top_k=k)`` on it ranks the same k predictions, with the same SCR, DR
    and multiplicity, as on the full list. ``max_cliques`` counts the
    cliques the pruned search reaches.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    n = len(graph.vertices)
    if n == 0:
        return Cliques(graph)
    masks = graph.neighbor_masks
    lengths = [s.length for s in graph.vertices]
    at = deadline.at if deadline is not None else None
    out: list[tuple[int, ...]] = []
    energies: list[int] = []  # energy of each clique in out
    best: list[int] = []  # min-heap of the top_k best energies found so far
    covers: list[list[int]] = []  # with top_k, one table per byte of vertex indices
    if top_k is not None:
        bases = graph.base_masks
        for c in range(0, n, 8):
            table = [0]
            for mask in bases[c:c + 8]:
                table += [t | mask for t in table]  # the entries with this vertex's bit set
            covers.append(table)

    def expand(r: list[int], p: int, x: int, energy: int):
        """Extend clique r by candidates p, excluded x."""
        if at is not None and time.monotonic() > at:
            deadline.check("search")
        if p == 0 and x == 0:
            out.append(tuple(sorted(r)))
            energies.append(energy)
            if max_cliques is not None and len(out) > max_cliques:
                raise BudgetExceeded(f"more than {max_cliques} maximal cliques")
            if top_k is not None:
                if len(best) < top_k:
                    heapq.heappush(best, energy)
                elif energy > best[0]:
                    heapq.heapreplace(best, energy)
            return
        pux = p | x
        pivot, best_cnt = -1, -1
        m = pux
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cnt = (p & masks[u]).bit_count()
            if cnt > best_cnt:
                pivot, best_cnt = u, cnt
        cand = p & ~masks[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= cand - 1
            mv = masks[v]
            child_p, child_x = p & mv, x & mv
            p &= ~bit  # v moves from P to X before its branch is searched or pruned
            x |= bit
            child_energy = energy + lengths[v]
            if top_k is not None and len(best) == top_k:
                # enter when the k-th best may still be reached: its energy
                # less this clique's is at most half the bases P's stems cover
                need = best[0] - child_energy
                if need > 0:
                    used, q = 0, child_p
                    for table in covers:
                        if not q:
                            break
                        used |= table[q & 255]
                        q >>= 8
                    if used.bit_count() >> 1 < need:
                        continue
            r.append(v)
            expand(r, child_p, child_x, child_energy)
            r.pop()

    expand([], (1 << n) - 1, 0, 0)
    # drop cliques found before the k-th best energy rose past them
    return _in_order(graph, out, energies, best[0] if len(best) == top_k else None)


@dataclass(frozen=True)
class FoldPrediction:
    """One maximal clique read as a folding candidate."""

    vertices: tuple[int, ...]
    energy: int
    pairs: tuple[Pair, ...]
    scr: int
    dr: int
    multiplicity: int


@dataclass(frozen=True)
class PredictionReport:
    """All candidate foldings of one sequence, best energy first."""

    sequence_id: str
    profile: str
    predictions: Sequence[FoldPrediction]
    timing: float | None = None

    def top_ranked(self) -> tuple[FoldPrediction, ...]:
        return tuple(p for p in self.predictions if p.scr == 1)


def clique_pairs(graph: StemGraph, clique: Iterable[int]) -> tuple[Pair, ...]:
    """Union of the member stems' base pairs, sorted by first index."""
    pairs: list[Pair] = []
    for v in clique:
        pairs.extend(graph.vertices[v].pairs)
    pairs.sort()
    return tuple(pairs)


class RankedPredictions(Sequence):
    """The predictions of a ranking, in report order, each built when read.

    ``entries`` holds one ``(-energy, vertices)`` per prediction in report
    order, ``ranks`` maps an energy to its (SCR, DR, multiplicity), and the
    pairs come from ``graph``. An index gives a FoldPrediction and a slice a
    tuple of them; a prediction read twice is built twice. The sequence
    equals any sequence holding the same predictions.
    """

    __slots__ = ("graph", "entries", "ranks")

    def __init__(self, graph: StemGraph, entries: list[tuple[int, tuple[int, ...]]],
                 ranks: dict[int, tuple[int, int, int]]):
        self.graph = graph
        self.entries = entries
        self.ranks = ranks

    def _build(self, entry: tuple[int, tuple[int, ...]]) -> FoldPrediction:
        neg_energy, vs = entry
        scr, dr, multiplicity = self.ranks[-neg_energy]
        return FoldPrediction(vertices=vs, energy=-neg_energy,
                              pairs=clique_pairs(self.graph, vs),
                              scr=scr, dr=dr, multiplicity=multiplicity)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._build, self.entries[index]))
        return self._build(self.entries[index])

    def __iter__(self):
        return map(self._build, self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:  # as the tuple of the same predictions hashes
        return hash(tuple(self))


def _priced(graph: StemGraph, cliques: Iterable[Iterable[int]]) -> Cliques:
    """``cliques`` as sorted vertex tuples, each priced from its stems and
    checked: a clique whose stems share a base index raises ValueError."""
    lengths = [s.length for s in graph.vertices]
    bases = graph.base_masks
    out: list[tuple[int, ...]] = []
    energies: list[int] = []
    for clique in cliques:
        vs = tuple(sorted(clique))
        energy = used = 0
        for v in vs:
            energy += lengths[v]
            used |= bases[v]
        if used.bit_count() != 2 * energy:
            raise ValueError(f"clique {vs} reuses base indices; not a valid structure")
        out.append(vs)
        energies.append(energy)
    return _in_order(graph, out, energies)


def rank_predictions(graph: StemGraph, cliques: Iterable[tuple[int, ...]],
                     sequence_id: str = "", profile: str = "",
                     timing: float | None = None,
                     top_k: int | None = None) -> PredictionReport:
    """Score cliques by total matched pairs and assign SCR and DR ranks.

    Only what the search did not price is priced here. A Cliques that
    ``maximal_cliques`` returned for this same graph object is ranked by
    the energies it carries, when no edge of the graph joins two stems that
    share a base (``StemGraph.conflict_free``, true of every graph that
    ``build_stem_graph`` or the graph readers make): none of its cliques
    can then reuse a base. Any other cliques (a plain list, a generator,
    another graph's Cliques) are priced and checked first, each of them: a
    clique whose stems share a base index raises ValueError whether or not
    it is emitted. Every clique counts towards the ranks.

    The report's predictions are a RankedPredictions: no pair is built
    until a prediction is read. With ``top_k`` set only the k best
    predictions, ordered by (-energy, vertex tuple), are kept; they equal
    the first k of the full report, SCR, DR and multiplicity included, as
    long as the cliques passed in hold every clique of energy at least the
    k-th best (``maximal_cliques(..., top_k=k)`` returns exactly those).
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if not (isinstance(cliques, Cliques) and cliques.graph is graph and graph.conflict_free):
        cliques = _priced(graph, cliques)
    entries = zip(map(neg, cliques.energies), cliques)
    # the cliques come in lexicographic order, so a stable sort on energy
    # alone breaks its ties by vertex tuple
    entries = (sorted(entries, key=itemgetter(0)) if top_k is None
               else heapq.nsmallest(top_k, entries))

    counts = Counter(cliques.energies)
    ranks: dict[int, tuple[int, int, int]] = {}
    better = 0
    for dense, energy in enumerate(sorted(counts, reverse=True), start=1):
        ranks[energy] = (better + 1, dense, counts[energy])
        better += counts[energy]
    return PredictionReport(sequence_id=sequence_id, profile=profile,
                            predictions=RankedPredictions(graph, entries, ranks),
                            timing=timing)

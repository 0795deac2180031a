"""Maximal-clique enumeration and prediction ranking.

Every maximal clique of the stem graph is a candidate folding. Cliques are
scored by their total number of matched base pairs (the "energy") and ranked
with Standard Competition Ranking (1224) and Dense Ranking (1223). Ties are
ordered lexicographically on the sorted vertex tuples so output is fully
deterministic.

A clique of an n-vertex graph is one int key, ``energy << n | rev``, bit
n-1-v of ``rev`` standing for vertex v; no other module reads that layout.
Every stem holds a pair, so of two cliques of equal energy neither holds
the other, and their lexicographic order is decided by the smallest vertex
of their symmetric difference: the highest differing bit of ``rev``. Keys
in descending order are thus in report order, (-energy, vertex tuple).
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import neg, rshift
from typing import Iterable, Iterator

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


def _key_vertices(n: int, keys: Iterable[int], first: int = 0) -> Iterator[list[int]]:
    """The vertices of each key of an n-vertex graph, ascending, numbered
    from ``first``."""
    mask, last = (1 << n) - 1, n + first
    for key in keys:
        rev, vertices = key & mask, []
        while rev:
            b = rev.bit_length()  # the highest bit left, vertex n - b
            vertices.append(last - b)
            rev ^= 1 << (b - 1)
        yield vertices


class Cliques:
    """Maximal cliques of ``graph``, one key each in ``keys``, in search
    order. Iterating gives each clique's sorted vertex tuple, in that
    order; ``len`` is the key count."""

    __slots__ = ("graph", "keys")

    def __init__(self, graph: StemGraph, keys: Sequence[int] = ()):
        self.graph, self.keys = graph, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(tuple, _key_vertices(len(self.graph.vertices), self.keys))


def _weights(graph: StemGraph) -> list[int]:
    """What adding vertex v adds to a key: its stem's length, and bit n-1-v."""
    n = len(graph.vertices)
    return [stem.length << n | 1 << (n - 1 - v) for v, stem in enumerate(graph.vertices)]


def maximal_cliques(graph: StemGraph, max_cliques: int | None = None,
                    deadline: Deadline | None = None,
                    top_k: int | None = None) -> Cliques:
    """All maximal cliques, each once, as a Cliques of keys that carry the
    energy (total stem length) the search summed, so that
    ``rank_predictions`` need not price them again. A Cliques is no
    sequence and equals no list: iterate it for the sorted vertex tuples,
    in search order, or rank it.

    Bron-Kerbosch with pivoting: the pivot is the vertex of P | X with the
    most neighbours in P, ties broken by lowest index. Isolated vertices come
    out as singleton cliques. Worst case is exponential, so callers may set a
    clique-count budget or a ``deadline``, checked on entering each node;
    exceeding either raises BudgetExceeded and no partial result is returned.

    With ``top_k`` set, the search is a weighted-clique branch-and-bound:
    once k cliques are found, a branch is not entered when its energy plus
    half the bases its candidates P's stems cover (read from ``covers``)
    falls below the k-th best energy so far. The result is exactly the
    maximal cliques of energy at least the k-th best overall, ties
    included, so ``rank_predictions(..., top_k=k)`` ranks the same k
    predictions, SCR, DR and multiplicity included, as on the full list.
    ``max_cliques`` counts the cliques the pruned search reaches.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    n = len(graph.vertices)
    if n == 0:
        return Cliques(graph)
    masks = graph.neighbor_masks
    weights = _weights(graph)
    at = deadline.at if deadline is not None else None
    out: list[int] = []
    best: list[int] = []  # min-heap of the top_k best energies found so far
    # with top_k, covers[c][s] is the OR of the base masks of vertices 8c + b, b in s
    covers: list[list[int]] = []
    if top_k is not None:
        bases = graph.base_masks
        for c in range(0, n, 8):
            table = [0]
            for mask in bases[c:c + 8]:
                table += [t | mask for t in table]  # the entries with this vertex's bit set
            covers.append(table)

    def expand(key: int, p: int, x: int):
        """Extend the clique of ``key`` by candidates p, excluded x."""
        if at is not None and time.monotonic() > at:
            deadline.check("search")
        if p == 0 and x == 0:
            out.append(key)
            if max_cliques is not None and len(out) > max_cliques:
                raise BudgetExceeded(f"more than {max_cliques} maximal cliques")
            if top_k is not None:
                if len(best) < top_k:
                    heapq.heappush(best, key >> n)
                elif key >> n > best[0]:
                    heapq.heapreplace(best, key >> n)
            return
        pivot, best_cnt = -1, -1
        m = p | x
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
            child = key + weights[v]
            if top_k is not None and len(best) == top_k:
                # enter when the k-th best may still be reached: its energy
                # less this clique's is at most half the bases P's stems cover
                need = best[0] - (child >> n)
                if need > 0:
                    used, q = 0, child_p
                    for table in covers:
                        if not q:
                            break
                        used |= table[q & 255]
                        q >>= 8
                    if used.bit_count() >> 1 < need:
                        continue
            expand(child, child_p, child_x)

    expand(0, (1 << n) - 1, 0)
    if len(best) == top_k:  # drop cliques found before the k-th best energy rose past them
        out = [key for key in out if key >= best[0] << n]
    return Cliques(graph, out)


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

    ``keys`` holds one clique key per prediction in report order, ``ranks``
    maps an energy to its (SCR, DR, multiplicity), and the pairs come from
    ``graph``. ``blocks``, ``window`` and ``entries`` read them building no
    FoldPrediction. An index gives a FoldPrediction and a slice a tuple of
    them; a prediction read twice is built twice. The sequence equals any
    sequence holding the same predictions.
    """

    __slots__ = ("graph", "keys", "ranks")

    def __init__(self, graph: StemGraph, keys: list[int],
                 ranks: dict[int, tuple[int, int, int]]):
        self.graph, self.keys, self.ranks = graph, keys, ranks

    def blocks(self, first: int = 0) -> Iterator[tuple[int, int, Iterator[list[int]]]]:
        """For each energy, highest first: the energy, the report index of
        its first prediction, and the vertices of its predictions in report
        order, each ascending and numbered from ``first``, decoded as they
        are read: a block left unread costs one bisection of the keys."""
        keys, n = self.keys, len(self.graph.vertices)
        start = 0
        while start < len(keys):
            energy = keys[start] >> n
            end = bisect_right(keys, -(energy << n), lo=start, key=neg)  # past this energy
            yield energy, start, _key_vertices(n, keys[start:end], first)
            start = end

    def window(self, start: int, stop: int) -> RankedPredictions:
        """The ranking of predictions ``start`` to ``stop`` (a slice's bounds)."""
        return RankedPredictions(self.graph, self.keys[start:stop], self.ranks)

    @property
    def entries(self) -> list[tuple[int, tuple[int, ...]]]:
        """One ``(-energy, vertices)`` per prediction."""
        return [(-energy, tuple(vs)) for energy, _, block in self.blocks() for vs in block]

    def _build(self, key: int) -> FoldPrediction:
        n = len(self.graph.vertices)
        [vertices] = _key_vertices(n, [key])
        vs, energy = tuple(vertices), key >> n
        scr, dr, multiplicity = self.ranks[energy]
        return FoldPrediction(vertices=vs, energy=energy, pairs=clique_pairs(self.graph, vs),
                              scr=scr, dr=dr, multiplicity=multiplicity)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._build, self.keys[index]))
        return self._build(self.keys[index])

    def __iter__(self):
        return map(self._build, self.keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:  # as the tuple of the same predictions hashes
        return hash(tuple(self))


def _priced(graph: StemGraph, cliques: Iterable[Iterable[int]]) -> list[int]:
    """The keys of ``cliques``, each priced from its stems and checked: a
    clique whose stems share a base index raises ValueError."""
    n, weights, bases = len(graph.vertices), _weights(graph), graph.base_masks
    keys: list[int] = []
    for clique in cliques:
        vs = tuple(sorted(clique))
        key = used = 0
        for v in vs:
            key += weights[v]
            used |= bases[v]
        if used.bit_count() != 2 * (key >> n):
            raise ValueError(f"clique {vs} reuses base indices; not a valid structure")
        keys.append(key)
    return keys


def rank_predictions(graph: StemGraph, cliques: Iterable[tuple[int, ...]],
                     sequence_id: str = "", profile: str = "",
                     top_k: int | None = None) -> PredictionReport:
    """Score cliques by total matched pairs and assign SCR and DR ranks.

    Only what the search did not price is priced here. A Cliques that
    ``maximal_cliques`` returned for this same graph object is ranked by
    the keys it carries, when no edge of the graph joins two stems that
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
    n = len(graph.vertices)
    if isinstance(cliques, Cliques) and cliques.graph is graph and graph.conflict_free:
        keys = cliques.keys
    else:
        keys = _priced(graph, cliques)
    counts = Counter(map(rshift, keys, repeat(n)))
    # descending keys are in report order (see the module docstring)
    keys = sorted(keys, reverse=True) if top_k is None else heapq.nlargest(top_k, keys)
    ranks: dict[int, tuple[int, int, int]] = {}
    better = 0
    for dense, energy in enumerate(sorted(counts, reverse=True), start=1):
        ranks[energy] = (better + 1, dense, counts[energy])
        better += counts[energy]
    return PredictionReport(sequence_id=sequence_id, profile=profile,
                            predictions=RankedPredictions(graph, keys, ranks))

"""Definition-level reference implementations the library is tested against.

These deliberately avoid the library's algorithms: stems are found by testing
every (i, j, l) triple or by walking pairs base by base from every start,
cliques by enumerating every vertex subset, edges by raw index-set
disjointness, tRNA trims by dropping one inner pair at a time, dot-bracket
tiers by testing every pair of a tier for a crossing, report summaries by
scoring every prediction on its own, profile vertices by building every
candidate stem before any window filters it. The one exception is the
top-k clique search, whose reference is the search with its earlier length
bound: one popcount per bit-plane of the stem lengths at every child.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from stemp.errors import IndexOutOfRange, TooManyLayers
from stemp.fileio import BRACKET_TIERS
from stemp.metrics import Metrics, ReferenceStructure, ReportSummary
from stemp.profiles import HelixSpec, ProfileConfig, acceptor_sl, assemble_domains
from stemp.seq import PairingRule, Sequence
from stemp.stems import (BASES, GapPattern, Interval, Pair, Stem, canonical_order,
                         contiguous_stem, enumerate_partial_stems, pattern_of_pairs)

MIN_SPAN = 3
MIN_PAIR_GAP = 2


def pair_run_valid(seq: Sequence, rule: PairingRule, i: int, j: int, length: int) -> bool:
    """Every pair (i+t, j-t) for t < length pairs and keeps the strands apart."""
    if j - i < MIN_SPAN or j > seq.length or i < 1:
        return False
    for t in range(length):
        p, q = i + t, j - t
        if q - p < MIN_PAIR_GAP or not rule.allows(seq.base(p), seq.base(q)):
            return False
    return True


def brute_force_stems(seq: Sequence, rule: PairingRule, min_length: int,
                      sl: Interval | None = None) -> set[tuple[int, int, int]]:
    """All (i, j, l) with a maximal valid run of length l >= min_length."""
    found = set()
    n = seq.length
    for i in range(1, n + 1):
        for j in range(i + MIN_SPAN, n + 1):
            for l in range(min_length, n):
                if not pair_run_valid(seq, rule, i, j, l):
                    continue
                p, q = i + l, j - l
                extendable = (q - p >= MIN_PAIR_GAP
                              and rule.allows(seq.base(p), seq.base(q)))
                if extendable:
                    continue
                if sl is not None and not sl.contains(Fraction(j - i, l)):
                    continue
                found.add((i, j, l))
    return found


def stems_disjoint(a, b) -> bool:
    """Co-existence oracle: no base index serves both stems."""
    ia = {x for pq in a.pairs for x in pq}
    ib = {x for pq in b.pairs for x in pq}
    return not ia & ib


def walk_trna_vertices(seq: Sequence, cfg: ProfileConfig) -> list[Stem]:
    """profiles.trna_vertices, trimming each body stem one innermost pair
    at a time while its Stem-Loop score sits at or below the lower bound,
    from every stem the partial closure of the walked runs holds."""
    n = seq.length
    raw = walk_stems(seq, cfg.pairing, cfg.min_stem_length)
    out: dict[tuple, Stem] = {}
    if cfg.acceptor is not None:
        for s in raw:
            if 2 * s.span > n and acceptor_sl(s, n) <= cfg.acceptor.max_score:
                out.setdefault(s.pairs, s)
    pool = enumerate_partial_stems(raw, cfg.min_stem_length) if cfg.partial_stems else raw
    sl = cfg.sl
    for t in pool:
        if 2 * t.span > n:
            continue
        while sl is not None and sl.lo is not None and (
                t.sl <= sl.lo if sl.lo_strict else t.sl < sl.lo):
            if t.length - 1 < cfg.min_stem_length:
                t = None
                break
            kept = t.pairs[:-1]
            t = Stem(i=t.i, j=t.j, pairs=kept, pattern=pattern_of_pairs(kept), helix=t.helix)
        if t is None or sl is not None and not sl.contains(t.sl):
            continue
        if cfg.span is not None and not cfg.span.contains(t.span):
            continue
        out.setdefault(t.pairs, t)
    return canonical_order(out.values())


def brute_force_maximal_cliques(neighbor_masks: list[int]) -> set[frozenset[int]]:
    """Maximal cliques by checking all 2^n subsets. Usable to ~n=16."""
    n = len(neighbor_masks)
    size = 1 << n
    clique = bytearray(size)
    clique[0] = 1
    full = size - 1
    nonadj = [full & ~m for m in neighbor_masks]
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        clique[s] = 1 if clique[rest] and not (rest & nonadj[v]) else 0
    out = set()
    for s in range(1, size):
        if not clique[s]:
            continue
        extendable = False
        others = full & ~s
        m = others
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if clique[s | (1 << w)]:
                extendable = True
                break
        if not extendable:
            out.add(frozenset(v for v in range(n) if s >> v & 1))
    return out


def brute_force_maximal_cliques_np(neighbor_masks: list[int]) -> set[frozenset[int]]:
    """Vectorized version of the subset oracle for larger n (~20)."""
    import numpy as np

    n = len(neighbor_masks)
    size = 1 << n
    clique = np.zeros(size, dtype=bool)
    clique[0] = True
    # descending so clique[rest] (whose lowest bit is higher) is already known
    for v in reversed(range(n)):
        rest = np.arange(0, size >> (v + 1), dtype=np.int64) << (v + 1)
        s = rest | (1 << v)
        clique[s] = clique[rest] & ((rest & ~neighbor_masks[v]) == 0)
    maximal = clique.copy()
    for w in range(n):
        # s without bit w is not maximal when s | bit w is a clique; viewed
        # as (-1, 2, 2^w), [:, 0, :] holds the first and [:, 1, :] the second
        width = 1 << w
        maximal.reshape(-1, 2, width)[:, 0, :] &= ~clique.reshape(-1, 2, width)[:, 1, :]
    out = set()
    for s in np.nonzero(maximal)[0]:
        if s == 0:
            continue
        out.add(frozenset(v for v in range(n) if s >> v & 1))
    return out


def plane_bound_top_k(graph, top_k: int) -> tuple[list[tuple[int, ...]], int, int]:
    """The exact top-k Bron-Kerbosch search with the length bound taken per
    bit-plane: the cliques it returns, the number it reaches (the least
    ``max_cliques`` that does not trip) and the number of search nodes it
    enters. Pivot, candidate order and bounds are those of
    ``cliques.maximal_cliques``."""
    masks = graph.neighbor_masks
    lengths = [s.length for s in graph.vertices]
    planes = [sum(1 << v for v, length in enumerate(lengths) if length >> b & 1)
              for b in range(max(lengths, default=0).bit_length())]
    bases = graph.base_masks
    out: list[tuple[tuple[int, ...], int]] = []
    best: list[int] = []
    nodes = 0

    def may_reach(energy: int, p: int) -> bool:
        need = best[0] - energy
        if sum((p & plane).bit_count() << b for b, plane in enumerate(planes)) < need:
            return False
        used = 0
        while p:
            used |= bases[(p & -p).bit_length() - 1]
            p &= p - 1
        return used.bit_count() >> 1 >= need

    def expand(r: list[int], p: int, x: int, energy: int):
        nonlocal nodes
        nodes += 1
        if p == 0 and x == 0:
            out.append((tuple(sorted(r)), energy))
            if len(best) < top_k:
                heapq.heappush(best, energy)
            elif energy > best[0]:
                heapq.heapreplace(best, energy)
            return
        pivot, best_cnt = -1, -1
        for u in range(len(masks)):
            if (p | x) >> u & 1 and (p & masks[u]).bit_count() > best_cnt:
                pivot, best_cnt = u, (p & masks[u]).bit_count()
        cand = p & ~masks[pivot]
        for v in range(len(masks)):
            if not cand >> v & 1:
                continue
            child_energy = energy + lengths[v]
            if len(best) != top_k or may_reach(child_energy, p & masks[v]):
                expand(r + [v], p & masks[v], x & masks[v], child_energy)
            p &= ~(1 << v)
            x |= 1 << v

    if masks:
        expand([], (1 << len(masks)) - 1, 0, 0)
    floor = best[0] if len(best) == top_k else 0
    return sorted(c for c, energy in out if energy >= floor), len(out), nodes


def pairwise_dot_bracket(seq: Sequence | int, pairs) -> str:
    """Greedy dot-bracket layering by testing every member of every tier
    for a crossing; the reference for fileio.write_dot_bracket."""
    n = seq if isinstance(seq, int) else seq.length
    ordered = sorted(pairs)
    chars = ["."] * n
    tiers: list[list[tuple[int, int]]] = []
    used = set()
    for p, q in ordered:
        if q > n:
            raise IndexOutOfRange(q, n)
        for end in (p, q):
            if not 1 <= end <= n:
                raise IndexOutOfRange(end, n)
        if p >= q:
            raise ValueError(f"pair ({p},{q}) does not open before it closes")
        if p in used or q in used:
            raise ValueError(f"index reused by pair ({p},{q})")
        used.update((p, q))
        placed = False
        for tier, members in enumerate(tiers):
            if not any(a < p < b < q or p < a < q < b for a, b in members):
                members.append((p, q))
                chars[p - 1], chars[q - 1] = BRACKET_TIERS[tier]
                placed = True
                break
        if not placed:
            if len(tiers) >= len(BRACKET_TIERS):
                raise TooManyLayers(f"pair ({p},{q}) needs a fifth bracket tier")
            tiers.append([(p, q)])
            chars[p - 1], chars[q - 1] = BRACKET_TIERS[len(tiers) - 1]
    return "".join(chars)


def brute_force_gapped(seq: Sequence, rule: PairingRule, segments, gaps):
    """Pattern matches by direct definition: walk the prescribed pair
    positions, demand every one pairs with the strands apart, demand the
    next inward position after the last segment does not extend it."""
    found = set()
    n = seq.length
    for i in range(1, n + 1):
        for j in range(i + MIN_SPAN, n + 1):
            positions = []
            p, q = i, j
            for k, seg in enumerate(segments):
                for _ in range(seg):
                    positions.append((p, q))
                    p, q = p + 1, q - 1
                if k < len(gaps):
                    p, q = p + gaps[k][0], q - gaps[k][1]
            if any(qq - pp < MIN_PAIR_GAP for pp, qq in positions[1:]):
                continue
            if not all(rule.allows(seq.base(pp), seq.base(qq)) for pp, qq in positions):
                continue
            if (q - p >= MIN_PAIR_GAP and rule.allows(seq.base(p), seq.base(q))):
                continue
            found.add(tuple(positions))
    return found


def walk_stems(seq: Sequence, rule: PairingRule, min_length: int,
               sl: Interval | None = None) -> list[Stem]:
    """stems.enumerate_stems by walking each start's run base by base."""
    if min_length < 2:
        raise ValueError("minimum stem length must be >= 2")
    r = seq.residues
    n = len(r)
    out: list[Stem] = []
    for i in range(1, n + 1):
        for j in range(i + MIN_SPAN, n + 1):
            if not rule.allows(r[i - 1], r[j - 1]):
                continue
            length = 1
            while True:
                p, q = i + length, j - length
                if q - p < MIN_PAIR_GAP or not rule.allows(r[p - 1], r[q - 1]):
                    break
                length += 1
            if length >= min_length and (sl is None or sl.contains(Fraction(j - i, length))):
                out.append(contiguous_stem(i, j, length))
    return canonical_order(out)


def walk_gapped_stems(seq: Sequence, rule: PairingRule, pattern: GapPattern,
                      sl: Interval | None = None) -> list[Stem]:
    """stems.enumerate_gapped_stems by walking the pattern base by base
    from every start."""
    r = seq.residues
    n = len(r)
    out: list[Stem] = []
    for i in range(1, n + 1):
        for j in range(i + MIN_SPAN, n + 1):
            pairs: list[Pair] = []
            p, q = i, j
            ok = True
            for seg_idx, seg_len in enumerate(pattern.segments):
                for _ in range(seg_len):
                    if q - p < MIN_PAIR_GAP or not rule.allows(r[p - 1], r[q - 1]):
                        ok = False
                        break
                    pairs.append((p, q))
                    p += 1
                    q -= 1
                if not ok:
                    break
                if seg_idx < len(pattern.gaps):
                    p += pattern.gaps[seg_idx][0]
                    q -= pattern.gaps[seg_idx][1]
                    if q - p < MIN_PAIR_GAP:
                        ok = False  # skip ran the strands into each other
                        break
            if not ok:
                continue
            if q - p >= MIN_PAIR_GAP and rule.allows(r[p - 1], r[q - 1]):
                continue  # innermost segment would keep going
            if sl is None or sl.contains(Fraction(j - i, pattern.total_length)):
                out.append(Stem(i=i, j=j, pairs=tuple(pairs), pattern=pattern))
    return canonical_order(out)


def score_pairs(predicted, reference: ReferenceStructure) -> Metrics:
    """metrics.score_prediction with its own Fraction arithmetic."""
    pred = set(predicted)
    for p, q in pred:
        for x in (p, q):
            if not 1 <= x <= reference.length:
                raise IndexOutOfRange(x, reference.length)
    ref = reference.pairs
    tp = len(pred & ref)
    fp = len(pred - ref)
    fn = len(ref - pred)
    one = Fraction(1)
    zero = Fraction(0)
    if not pred and not ref:
        return Metrics(tp=0, fp=0, fn=0, sens=one, ppv=one, f1=one, mcc_squared=one)
    sens = Fraction(tp, tp + fn) if tp + fn else zero
    ppv = Fraction(tp, tp + fp) if tp + fp else zero
    f1 = 2 * ppv * sens / (ppv + sens) if ppv + sens else zero
    return Metrics(tp=tp, fp=fp, fn=fn, sens=sens, ppv=ppv, f1=f1,
                   mcc_squared=sens * ppv)


def score_each(report, reference: ReferenceStructure, metric: str = "mcc") -> ReportSummary:
    """metrics.summarize_report scoring every prediction on its own; the
    first prediction in report order wins ties."""
    if not report.predictions:
        raise ValueError("cannot summarize an empty report")
    def key(m: Metrics) -> Fraction:
        return m.mcc_squared if metric == "mcc" else m.f1

    scored = [(score_pairs(p.pairs, reference), p) for p in report.predictions]
    top = max((m for m, p in scored if p.scr == 1), key=key)
    best, best_pred = max(scored, key=lambda mp: key(mp[0]))
    return ReportSummary(metric=metric, top=top, best=best,
                         best_scr=best_pred.scr, best_dr=best_pred.dr,
                         best_multiplicity=best_pred.multiplicity)


class RunTable:
    """The whole pair-run table: ``run[i][j]`` (1-based) counts the stacked
    pairs (i, j), (i+1, j-1), ... the rule allows while q - p >=
    MIN_PAIR_GAP, built from the inside out for every cell; ``starts``
    lists every (run, i, j) with j >= i + MIN_SPAN and a non-zero run,
    longest first."""

    def __init__(self, seq: Sequence, rule: PairingRule):
        r = seq.residues
        n = len(r)
        partners = {a: frozenset(b for b in BASES if rule.allows(a, b)) for a in BASES}
        run = [[0] * (n + 2) for _ in range(n + 2)]
        for i in range(n - MIN_PAIR_GAP, 0, -1):
            pal = partners[r[i - 1]]
            run[i][i + MIN_PAIR_GAP:n + 1] = [
                x + 1 if b in pal else 0
                for x, b in zip(run[i + 1][i + 1:n], r[i + 1:n])]
        self.run = run
        self.starts = sorted(
            ((run[i][j], i, j) for i in range(1, n + 1)
             for j in range(i + MIN_SPAN, n + 1) if run[i][j]),
            reverse=True)

    def pattern_starts(self, pattern: GapPattern) -> list[Pair]:
        """Every outer pair at which ``pattern`` matches exactly, scanned
        over all starts: the first segment's run is long enough, every
        middle one too, the innermost one's is exactly its length."""
        run = self.run
        first = pattern.segments[0]
        (dp_last, dq_last), last = pattern.offsets[-1], pattern.segments[-1]
        need = dp_last + dq_last + MIN_PAIR_GAP
        inner = tuple(zip(pattern.offsets[1:-1], pattern.segments[1:-1]))
        out = []
        for length, i, j in self.starts:
            if length < first:
                break
            if j - i < need or run[i + dp_last][j - dq_last] != last:
                continue
            if all(run[i + dp][j - dq] >= seg for (dp, dq), seg in inner):
                out.append((i, j))
        return out


def scan_helix_candidates(runs: RunTable, spec: HelixSpec) -> list[Stem]:
    """profiles.rrna5s_helix_candidates by scanning every start of every
    pattern and only then testing the helix's Stem-Loop bounds."""
    out: dict[tuple, Stem] = {}
    for pattern in spec.patterns:
        length = pattern.total_length
        for i, j in runs.pattern_starts(pattern):
            if spec.sl is not None and not spec.sl.contains(Fraction(j - i, length)):
                continue
            pairs = pattern.pairs(i, j)
            out.setdefault(pairs, Stem(i=i, j=j, pairs=pairs,
                                       pattern=pattern_of_pairs(pairs), helix=spec.name))
    return canonical_order(out.values())


def filter_profile_vertices(seq: Sequence, cfg: ProfileConfig) -> list[Stem]:
    """profiles.profile_vertices by building every candidate stem first and
    then dropping those outside the profile's windows."""
    if cfg.family == "trna":
        return walk_trna_vertices(seq, cfg)
    if cfg.family == "protein":
        raw = walk_stems(seq, cfg.pairing, cfg.min_stem_length)
        pool = enumerate_partial_stems(raw, cfg.min_stem_length) if cfg.partial_stems else raw
        return canonical_order(
            s for s in pool
            if (cfg.sl is None or cfg.sl.contains(s.sl))
            and (cfg.span is None or cfg.span.contains(s.span)))
    runs = RunTable(seq, cfg.pairing)
    candidates = {h.name: scan_helix_candidates(runs, h) for h in cfg.helices}
    claimed = {name for d in cfg.domains for name in (d.outer, d.inner)} if cfg.use_gsl else ()
    out: dict[tuple, Stem] = {}
    for h in cfg.helices:
        if h.name not in claimed:
            for s in candidates[h.name]:
                out.setdefault(s.pairs, s)
    for dom in cfg.domains if cfg.use_gsl else ():
        for cand in assemble_domains(candidates[dom.outer], candidates[dom.inner], dom):
            s = cand.as_stem()
            out.setdefault(s.pairs, s)
    return canonical_order(out.values())

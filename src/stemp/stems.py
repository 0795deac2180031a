"""Stem enumeration and stem-graph construction.

A stem is a run of base pairs (i, j), (i+1, j-1), ... read inward from an
outermost pair. Every candidate stem becomes a vertex; edges connect stems
that can occur together in one structure (their base indices are disjoint),
which covers nesting, side-by-side placement, and clean pseudoknot crossings
alike. Each maximal clique of the resulting graph is a candidate folding.

Stems may carry gaps: a gap pattern such as ``2[0/1]6`` pairs two bases,
skips 0 bases on the 5' side and 1 on the 3' side, then pairs six more. The
effective stem length is the number of pairs, gaps excluded.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .errors import FormatError, ProfileError
from .seq import BASES, PairingRule, Sequence

# Shortest allowed hairpin: the outermost pair spans at least 3 positions and
# no pair closes on adjacent bases (q - p >= 2), so strands never touch.
MIN_SPAN = 3
MIN_PAIR_GAP = 2

Pair = tuple[int, int]


def render_fraction(value: Fraction) -> str:
    """Decimal text when the denominator allows it, else p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    scaled = value
    for exp in range(1, 13):
        scaled *= 10
        if scaled.denominator == 1:
            digits = str(abs(scaled.numerator)).rjust(exp + 1, "0")
            sign = "-" if value < 0 else ""
            return f"{sign}{digits[:-exp]}.{digits[-exp:]}"
    return f"{value.numerator}/{value.denominator}"


def as_fraction(value) -> Fraction:
    """Exact rational from an int, a float (as its shortest repr, so 0.7 is
    7/10), a decimal string, or a p/q string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(str(value))


@dataclass(frozen=True)
class Interval:
    """A rational interval with independently open or closed ends.

    Stem-Loop, span and domain-score windows are all intervals. The ends
    are ints or Fractions, so every test is exact; a float end becomes a
    Fraction by ``as_fraction`` when the interval is built. An empty or
    non-finite interval is a ProfileError when it is built; a lower end at
    or below 0 admits every stem, whose score is positive.
    """

    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_strict: bool = False
    hi_strict: bool = False

    def __post_init__(self):
        for end in ("lo", "hi"):
            value = getattr(self, end)
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise ProfileError(f"interval end {end}={value} is not finite")
                object.__setattr__(self, end, as_fraction(value))
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi or (self.lo == self.hi and (self.lo_strict or self.hi_strict)):
                raise ProfileError(f"empty interval: {self}")

    def contains(self, x) -> bool:
        if self.lo is not None and not (x > self.lo if self.lo_strict else x >= self.lo):
            return False
        return self.hi is None or (x < self.hi if self.hi_strict else x <= self.hi)

    def spans(self, length: int) -> tuple[int | None, int | None]:
        """The integer spans S with S / ``length`` inside, as (lo, hi); an
        open end is None."""
        lo = hi = None
        if self.lo is not None:
            x = self.lo * length
            lo = math.floor(x) + 1 if self.lo_strict else math.ceil(x)
        if self.hi is not None:
            x = self.hi * length
            hi = math.ceil(x) - 1 if self.hi_strict else math.floor(x)
        return lo, hi

    def lengths(self, span: int) -> tuple[int, int | None]:
        """The stem lengths l >= 1 with ``span`` / l inside, for a span
        >= 1, as (lo, hi); an open upper end is None, an empty window has
        lo > hi."""
        lo, hi = 1, None
        if self.hi is not None:
            if self.hi <= 0:
                return 1, 0
            x = Fraction(span) / self.hi
            lo = max(1, math.floor(x) + 1 if self.hi_strict else math.ceil(x))
        if self.lo is not None and self.lo > 0:
            x = Fraction(span) / self.lo
            hi = math.ceil(x) - 1 if self.lo_strict else math.floor(x)
        return lo, hi

    def __str__(self) -> str:
        lo = "" if self.lo is None else render_fraction(self.lo)
        hi = "" if self.hi is None else render_fraction(self.hi)
        return f"{lo}{'<' if self.lo_strict else '<='}x{'<' if self.hi_strict else '<='}{hi}"


@dataclass(frozen=True)
class GapPattern:
    """Segment lengths and the unpaired skips between them.

    ``segments`` holds the consecutive-pair counts; ``gaps[k]`` is the
    (5' skip, 3' skip) applied between segment k and segment k+1.
    Rendered notation round-trips: ``2[0/1]6`` means segments (2, 6) with
    one skipped base on the 3' side.
    """

    segments: tuple[int, ...]
    gaps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.segments or any(s < 1 for s in self.segments):
            raise FormatError(f"segment lengths must be >= 1: {self.segments}")
        if len(self.gaps) != len(self.segments) - 1:
            raise FormatError(
                f"expected {len(self.segments) - 1} gaps for "
                f"{len(self.segments)} segments, got {len(self.gaps)}")
        if any(a < 0 or b < 0 for a, b in self.gaps):
            raise FormatError(f"gap sizes must be >= 0: {self.gaps}")

    @property
    def total_length(self) -> int:
        return sum(self.segments)

    @property
    def inset(self) -> int:
        """How much shorter the innermost pair's span is than the outer
        pair's: the pairs nest inside a span only if it exceeds this."""
        return 2 * self.total_length - 2 + sum(map(sum, self.gaps))

    @property
    def offsets(self) -> tuple[Pair, ...]:
        """Where each segment's first pair sits: segment k of a stem with
        outer pair (i, j) starts at (i + dp, j - dq) for ``offsets[k]``."""
        out = []
        dp = dq = 0
        for seg, (a, b) in zip(self.segments, self.gaps + ((0, 0),)):
            out.append((dp, dq))
            dp += seg + a
            dq += seg + b
        return tuple(out)

    def pairs(self, i: int, j: int) -> tuple[Pair, ...]:
        """The pattern's pairs anchored at outer pair (i, j), outermost first."""
        return tuple((i + dp + t, j - dq - t)
                     for (dp, dq), seg in zip(self.offsets, self.segments)
                     for t in range(seg))

    def render(self) -> str:
        out = [str(self.segments[0])]
        for (a, b), seg in zip(self.gaps, self.segments[1:]):
            out.append(f"[{a}/{b}]{seg}")
        return "".join(out)

    @classmethod
    def parse(cls, text: str) -> "GapPattern":
        """Parse ``l1[n1/n2]l2...`` notation (a bare integer is one segment)."""
        # every character is in a token, and a number takes all the digits
        # it starts, so a number always follows a gap or the start
        tokens = re.findall(r"(\d+)|\[(\d+)/(\d+)\]|(.)", text, re.DOTALL)
        segments: list[int] = []
        gaps: list[tuple[int, int]] = []
        expect_segment = True
        for num, g1, g2, bad in tokens:
            if bad:
                raise FormatError(f"bad gap pattern {text!r}: unexpected {bad!r}")
            if num:
                segments.append(int(num))
                expect_segment = False
            else:
                if expect_segment:
                    raise FormatError(f"bad gap pattern {text!r}")
                gaps.append((int(g1), int(g2)))
                expect_segment = True
        if expect_segment:
            raise FormatError(f"bad gap pattern {text!r}")
        return cls(tuple(segments), tuple(gaps))

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Stem:
    """One candidate stem: the atomic unit of structure prediction.

    ``pairs`` lists the base pairs outermost-first; they always form a
    strictly nested chain. For a contiguous stem pairs are consecutive, for
    gapped or partial stems the chain skips unpaired bases. ``i``/``j`` are
    the outermost pair, ``length`` the number of pairs, ``span`` = j - i.
    """

    i: int
    j: int
    pairs: tuple[Pair, ...]
    pattern: GapPattern | None = None
    helix: str | None = None

    def __post_init__(self):
        if not self.pairs or self.pairs[0] != (self.i, self.j):
            raise ValueError(f"pairs must start at the outer pair ({self.i},{self.j})")
        prev_p, prev_q = 0, self.j + 1
        for p, q in self.pairs:
            if not (prev_p < p < q < prev_q):
                raise ValueError(f"pairs are not a nested chain: {self.pairs}")
            prev_p, prev_q = p, q

    @property
    def length(self) -> int:
        return len(self.pairs)

    @property
    def span(self) -> int:
        return self.j - self.i

    @property
    def sl(self) -> Fraction:
        """Stem-Loop score: span over stem length, kept exact."""
        return Fraction(self.span, self.length)

    @cached_property
    def base_mask(self) -> int:
        """Bit x set for each base index x that one of the pairs uses."""
        mask = 0
        for p, q in self.pairs:
            mask |= 1 << p | 1 << q
        return mask

    @cached_property
    def helices(self) -> tuple[tuple[int, int, int], ...]:
        """The runs of stacked pairs (``helix_runs``), outermost first. A
        contiguous stem is one run."""
        return tuple(helix_runs(self.pairs))


def contiguous_stem(i: int, j: int, length: int, helix: str | None = None) -> Stem:
    pairs = tuple((i + t, j - t) for t in range(length))
    return Stem(i=i, j=j, pairs=pairs, helix=helix)


def helix_runs(pairs: Iterable[Pair]) -> list[tuple[int, int, int]]:
    """The pairs, in their given order, as runs (p, q, k) of stacked
    pairs: the k pairs (p, q), (p+1, q-1), ... that follow one another.
    Nothing is checked or lost: the runs' pairs, in order, are the pairs."""
    runs = []
    p0 = q0 = k = 0
    for p, q in pairs:
        if k and p == p0 + k and q == q0 - k:
            k += 1
            continue
        if k:
            runs.append((p0, q0, k))
        p0, q0, k = p, q, 1
    return runs + [(p0, q0, k)] if k else runs


def pattern_of_pairs(pairs: Iterable[Pair]) -> GapPattern | None:
    """Recover the gap notation of a nested pair chain; None if contiguous."""
    runs = helix_runs(pairs)
    if len(runs) < 2:
        return None
    return GapPattern(tuple(k for _, _, k in runs),
                      tuple((p1 - p0 - k, q0 - k - q1)
                            for (p0, q0, k), (p1, q1, _) in zip(runs, runs[1:])))


def _sort_key(stem: Stem):
    return (stem.i, stem.j, stem.length, stem.pattern.render() if stem.pattern else "",
            stem.helix or "")


def canonical_order(stems: Iterable[Stem]) -> list[Stem]:
    """Stable vertex numbering: sorted by (i, j, l), then pattern text."""
    return sorted(stems, key=_sort_key)


# per base a, the table that writes a as "1" and every other base as "0"
_MARK = {a: str.maketrans({b: "1" if b == a else "0" for b in BASES}) for a in BASES}


class _Diagonals(dict):
    """``diagonal[d]`` of ``PairRuns``, each built on first use; 0 for a
    d that holds no pair (d < MIN_PAIR_GAP, d >= n, negative d)."""

    def __init__(self, seq: Sequence, rule: PairingRule):
        super().__init__()
        self.n = seq.length
        backwards = seq.residues[::-1]
        # bit p of at[a] is set iff base p is a (the trailing "0" is bit 0)
        at = {a: int(backwards.translate(table) + "0", 2) for a, table in _MARK.items()}
        # (positions of base a, positions of a's partners), for each base a
        self.terms = [(at[a], sum(at[b] for b in BASES if rule.allows(a, b)))
                      for a in BASES]

    def __missing__(self, d: int) -> int:
        mask = 0
        if MIN_PAIR_GAP <= d < self.n:
            for mine, theirs in self.terms:
                mask |= mine & theirs >> d
        self[d] = mask
        return mask


class PairRuns:
    """Where runs of stacked pairs start, one diagonal at a time.

    Diagonal d holds the cells (i, i + d). ``diagonal[d]`` is a bitmask with
    bit i set iff (i, i + d) pairs under the rule and d >= MIN_PAIR_GAP, so
    it is 0 for d < MIN_PAIR_GAP. A run of k stacked pairs from (i, j) puts
    one cell (i + t, j - t) on each diagonal j - i - 2t, so every question
    about runs is a few shifts and ANDs of whole diagonals: ``at_least``
    marks the outer pairs of a diagonal whose run holds k pairs,
    ``pattern_starts`` the outer pairs where a gap pattern matches. It is
    built once per (sequence, rule) and answers every stem enumerator. A
    diagonal is built on first use, in a few big-integer steps, so a caller
    pays only for the diagonals its span and Stem-Loop windows reach.
    """

    def __init__(self, seq: Sequence, rule: PairingRule):
        self.n = seq.length
        self.diagonal = _Diagonals(seq, rule)

    def diagonals(self, lo: int | None = None, hi: int | None = None) -> range:
        """Spans lo..hi (either end may be open) that an outer pair can have."""
        lo = MIN_SPAN if lo is None else max(lo, MIN_SPAN)
        hi = self.n - 1 if hi is None else min(hi, self.n - 1)
        return range(lo, hi + 1)

    def at_least(self, k: int, d: int) -> int:
        """Bit i set iff the run from (i, i + d) holds at least k >= 1 pairs."""
        diagonal = self.diagonal
        mask = diagonal[d]
        for t in range(1, k):
            if not mask:
                break
            mask &= diagonal[d - 2 * t] >> t
        return mask

    def starts(self, min_length: int, spans: Iterable[int]) -> list[tuple[int, int, int]]:
        """(i, j, run) for every outer pair whose span is in ``spans`` and
        whose run holds at least ``min_length`` >= 1 pairs."""
        diagonal = self.diagonal
        out = []
        for d in spans:
            for i in _set_bits(self.at_least(min_length, d)):
                run = min_length
                while diagonal[d - 2 * run] >> (i + run) & 1:
                    run += 1
                out.append((i, i + d, run))
        return out

    def pattern_starts(self, pattern: GapPattern, sl: Interval) -> list[Pair]:
        """Outer pairs (i, j) at which ``pattern`` matches exactly, with
        (j - i) / the pattern's length inside ``sl``.

        A start is admitted iff every pair the pattern places pairs with the
        strands apart (q - p >= MIN_PAIR_GAP), and the pair one step inward
        from the innermost segment does not (one more pair would extend it).
        Only the spans ``sl`` admits from the least one a match needs are
        scanned; when there are none, nothing is built, so the cost of a
        pattern too long for the sequence does not grow with the pattern.
        """
        lo, hi = sl.spans(pattern.total_length)
        # the innermost pair must keep the strands apart
        least = pattern.inset + MIN_PAIR_GAP
        spans = self.diagonals(least if lo is None else max(lo, least), hi)
        if not spans:
            return []
        # the pair (i + a, j - b) sits on diagonal j - i - (a + b): as
        # (shift, inset), bit i of diagonal[d - inset] >> shift
        cells = [(p, p - q) for p, q in pattern.pairs(0, 0)]
        (a, b), last = pattern.offsets[-1], pattern.segments[-1]
        beyond = (a + last, a + b + 2 * last)  # the next pair inward
        diagonal = self.diagonal
        out = []
        for d in spans:
            mask = -1
            for shift, inset in cells:
                mask &= diagonal[d - inset] >> shift
                if not mask:
                    break
            else:
                shift, inset = beyond
                mask &= ~(diagonal[d - inset] >> shift)
                out.extend((i, i + d) for i in _set_bits(mask))
        return out


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _omit_one(i: int, j: int, length: int, t: int) -> Stem:
    """The run of ``length`` + 1 pairs from (i, j) without its pair t."""
    pairs = tuple((i + x, j - x) for x in range(length + 1) if x != t)
    return Stem(i=i, j=j, pairs=pairs, pattern=GapPattern((t, length - t), ((1, 1),)))


def run_stems(runs: PairRuns, min_length: int, sl: Interval, spans: Iterable[int],
              partial: bool = False, trim: bool = False) -> list[Stem]:
    """The stems of the pair runs with a span in ``spans`` that land inside ``sl``.

    At each outer pair (i, j) whose run holds r >= L = ``min_length`` pairs,
    the pool holds the run and, with ``partial``, its first k pairs for
    every k in L..r and, when r > L, the run without one interior pair: the
    partial-stem closure of all runs, listed by outer pair. With ``trim`` a
    stem whose score misses the lower bound first loses inner pairs down to
    the longest length that clears it, and is dropped if that is below L. A
    stem's span is its outer pair's, so the score window is a window on the
    lengths of each span's stems.
    """
    L = min_length
    out = []
    for d in spans:
        shortest, longest = sl.lengths(d)
        shortest = max(shortest, L)
        if longest is not None and shortest > longest:
            continue
        for i, j, r in runs.starts(shortest, (d,)):
            top = r if longest is None else min(r, longest)
            if not partial:
                if trim or top == r:
                    out.append(contiguous_stem(i, j, top))
                continue
            out += [contiguous_stem(i, j, k) for k in range(shortest, top + 1)]
            if r > L:
                gapped = min(r - 1, longest) if trim and longest is not None else r - 1
                if shortest <= gapped and (longest is None or gapped <= longest):
                    out += [_omit_one(i, j, gapped, t) for t in range(1, gapped)]
    return out


def enumerate_stems(seq: Sequence, rule: PairingRule, min_length: int,
                    sl: Interval | None = None) -> list[Stem]:
    """All maximal contiguous stems of at least ``min_length`` pairs.

    Every start pair (i, j) with j >= i+3 yields its maximal run inward
    (``PairRuns``), emitted when it meets the length and, when given, its
    Stem-Loop score span / length lies inside ``sl``. Runs starting inside
    a longer stem are their own vertices.
    """
    if min_length < 2:
        raise ValueError("minimum stem length must be >= 2")
    runs = PairRuns(seq, rule)
    return canonical_order(run_stems(runs, min_length, sl or Interval(), runs.diagonals()))


def enumerate_gapped_stems(seq: Sequence, rule: PairingRule, pattern: GapPattern,
                           sl: Interval | None = None) -> list[Stem]:
    """All stems matching a gap pattern exactly.

    From every start pair the prescribed segments are consumed inward with
    the pattern's skips between them. Candidates whose skips cross the
    strands are silently discarded, as are candidates where one more pair
    would extend the innermost segment. Each stem keeps ``pattern``, zero
    gaps too: ``2[0/0]1`` at (1, 10) has the pairs of, but does not equal,
    ``contiguous_stem(1, 10, 3)``. With ``sl`` only the spans whose score it
    admits are scanned.
    """
    runs = PairRuns(seq, rule)
    return canonical_order(
        Stem(i=i, j=j, pairs=pattern.pairs(i, j), pattern=pattern)
        for i, j in runs.pattern_starts(pattern, sl or Interval()))


def enumerate_partial_stems(stems: Iterable[Stem], min_length: int) -> list[Stem]:
    """Close a contiguous stem set under end trims and single interior gaps.

    Returns the input plus every sub-stem of at least ``min_length`` pairs
    obtained by dropping pairs from the outer and/or inner end, plus, for
    each stem long enough, the variants that omit exactly one interior pair
    (their gap pattern is recorded). Duplicated pair sets are emitted once.
    """
    seen: dict[tuple[Pair, ...], Stem] = {}

    def add(stem: Stem):
        seen.setdefault(stem.pairs, stem)

    stems = list(stems)
    for s in stems:
        add(s)
    for s in stems:
        l = s.length
        for a in range(l):
            for b in range(l - a):
                if a == 0 and b == 0:
                    continue
                kept = s.pairs[a:l - b]
                if len(kept) < min_length:
                    continue
                add(Stem(i=kept[0][0], j=kept[0][1], pairs=kept))
        if l >= min_length + 1:
            for t in range(1, l - 1):
                kept = s.pairs[:t] + s.pairs[t + 1:]
                add(Stem(i=s.i, j=s.j, pairs=kept, pattern=pattern_of_pairs(kept)))
    return canonical_order(seen.values())


def can_coexist(a: Stem, b: Stem) -> bool:
    """True iff no base index serves both stems: the one co-existence relation.

    For contiguous stems it is the paper's interval test. With m the stem
    that starts first, n's two strands miss m's exactly when n lies wholly
    after m, wholly inside m's loop, or crosses it cleanly (n's 5' strand
    in m's loop, its 3' strand past m.j). A gapped or partial stem may also
    sit in a bulge of the other. ``build_stem_graph`` applies the relation
    to every vertex pair at once.
    """
    return not a.base_mask & b.base_mask


@dataclass(frozen=True)
class StemGraph:
    """Vertices plus a symmetric co-existence relation, immutable once built."""

    vertices: tuple[Stem, ...]
    neighbor_masks: tuple[int, ...] = field(repr=False)

    @cached_property
    def base_masks(self) -> tuple[int, ...]:
        """Per vertex, its stem's ``base_mask``."""
        return tuple(s.base_mask for s in self.vertices)

    @cached_property
    def conflict_free(self) -> bool:
        """True when no edge joins two stems that share a base, so that no
        clique reuses a base: ``build_stem_graph`` joins no such stems, and
        the graph readers refuse such an edge."""
        return not any(mask & shared for mask, shared
                       in zip(self.neighbor_masks, _sharing_masks(self.vertices)))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u, mask in enumerate(self.neighbor_masks):
            m = mask >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                out.append((u, v))
        return tuple(sorted(out))

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.neighbor_masks) // 2

    def is_adjacent(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)


def _sharing_masks(vertices: tuple[Stem, ...]) -> list[int]:
    """Per vertex, the mask of the vertices whose stems share a base with
    its stem (itself among them), each base's occupants gathered in one
    mask first."""
    occupants: defaultdict[int, int] = defaultdict(int)
    for v, s in enumerate(vertices):
        for p, q in s.pairs:
            occupants[p] |= 1 << v
            occupants[q] |= 1 << v
    out = []
    for s in vertices:
        shared = 0
        for p, q in s.pairs:
            shared |= occupants[p] | occupants[q]
        out.append(shared)
    return out


def build_stem_graph(vertices: Iterable[Stem]) -> StemGraph:
    """Join every pair of vertices that ``can_coexist``; vertex order is kept.

    A vertex's neighbours are all vertices but those sharing a base with it.
    """
    vs = tuple(vertices)
    everyone = (1 << len(vs)) - 1
    graph = StemGraph(vertices=vs,
                      neighbor_masks=tuple(everyone & ~shared for shared in _sharing_masks(vs)))
    graph.__dict__["conflict_free"] = True  # known by construction, so never computed
    return graph


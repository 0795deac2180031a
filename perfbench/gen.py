"""Seeded planted-structure inputs for the benchmark.

Each input is a sequence with a known folding that a profile's own admission
rules accept, padded with random free bases so that the stem graph also holds
chance stems. Free bases are drawn with one of two compositions: ``UNIFORM``,
as in the ROADMAP baseline's random sequences, or ``FIXTURE``, the unpaired
bases of the repository's structured test inputs, which leaves far fewer
chance stems. The kinds of input are:

- ``trna``: a cloverleaf (acceptor stem plus D, anticodon and T arms) whose
  arms sit inside the profile's span and Stem-Loop windows and whose
  acceptor passes the acceptor score;
- ``rrna5s``: Helix I closing two domains, each an outer helix enclosing an
  inner one, with every helix shape taken from the profile, every helix
  inside its SL window and each domain inside its GSL window where the
  profile admits one (see ``Rrna5sPlanner``);
- ``protein``: an outer stem enclosing two hairpins, plus one stem that
  crosses them (an H-type pseudoknot).

Loop bases are chosen so that no planted stem extends inward. Inputs are
written as FASTA plus CT through ``stemp.fileio.write_ct``; the program under
test only ever sees those files.

Run ``python3 perfbench/gen.py --kind trna --seed 7 --count 5 --out DIR`` to
write a set of one kind of ``workloads.KINDS`` by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BASES = "ACGU"
# Weights of A, C, G and U among free (loop and flank) bases.
# UNIFORM is the composition of the seeded random sequences that the
# ROADMAP baseline measured.
UNIFORM = (1, 1, 1, 1)
# FIXTURE counts the unpaired bases of the repository's two structured test
# inputs: the engineered cloverleaf in tests/test_profiles.py (32 A, 2 C)
# and tests/fixtures/2qux (3 A, 2 G, 2 U).
FIXTURE = (35, 2, 2, 2)
PROFILE_DIR = Path(__file__).resolve().parent.parent / "src" / "stemp" / "profiles"
MIN_PAIR_GAP = 2  # no pair closes on adjacent bases (stemp.stems)


@dataclass(frozen=True)
class Planted:
    """One generated input: its residues and the planted pairs."""

    id: str
    residues: str
    pairs: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.residues)

    @property
    def digest(self) -> str:
        """Identity of the input, so that a drift in generation shows."""
        text = self.residues + "|" + ";".join(f"{p},{q}" for p, q in self.pairs)
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- pairing

def allows(a: str, b: str, wobble: bool) -> bool:
    key = {a, b}
    return key in ({"A", "U"}, {"G", "C"}) or (wobble and key == {"G", "U"})


def partner(rng: random.Random, base: str, wobble: bool) -> str:
    """A base that pairs with ``base``; wobble partners now and then."""
    choices = [b for b in BASES if allows(base, b, wobble)]
    canonical = [b for b in choices if allows(base, b, False)]
    if len(choices) > 1 and rng.random() >= 0.15:
        choices = canonical
    return rng.choice(choices)


def assign_bases(rng: random.Random, n: int, stems, wobble: bool,
                 free: tuple[int, ...]) -> str | None:
    """Bases for a planted set of stems, or None if no stem can be sealed.

    Paired positions get complementary bases; free positions are drawn
    with the weights ``free``. Then the pair just inside each stem's
    innermost pair is broken by re-drawing a free base, so that no planted
    stem extends.
    """
    seq = [""] * (n + 1)
    fixed = set()
    for stem in stems:
        for p, q in stem:
            seq[p] = rng.choice(BASES)
            seq[q] = partner(rng, seq[p], wobble)
            fixed.update((p, q))
    for k in range(1, n + 1):
        if k not in fixed:
            seq[k] = rng.choices(BASES, free)[0]
    for _ in range(4 * len(stems) + 4):
        clean = True
        for stem in stems:
            p, q = stem[-1][0] + 1, stem[-1][1] - 1
            if q - p < MIN_PAIR_GAP or not allows(seq[p], seq[q], wobble):
                continue
            clean = False
            loose = [x for x in (p, q) if x not in fixed]
            if not loose:
                return None
            x = rng.choice(loose)
            other = seq[q if x == p else p]
            seq[x] = rng.choice([b for b in BASES if not allows(b, other, wobble)])
        if clean:
            return "".join(seq[1:])
    return None


# ---------------------------------------------------------------- shapes

def contiguous(i: int, j: int, length: int) -> tuple[tuple[int, int], ...]:
    return tuple((i + t, j - t) for t in range(length))


@dataclass(frozen=True)
class Shape:
    """A gap pattern as in a profile: ``2[0/1]6`` is segments (2, 6) with
    gaps ((0, 1),)."""

    segments: tuple[int, ...]
    gaps: tuple[tuple[int, int], ...]

    @classmethod
    def parse(cls, text: str) -> "Shape":
        nums = [int(x) for x in re.findall(r"\d+", text)]
        return cls(tuple(nums[0::3]), tuple(zip(nums[1::3], nums[2::3])))

    @property
    def length(self) -> int:
        return sum(self.segments)

    @property
    def left(self) -> int:
        """Bases the 5' strand covers, skips included."""
        return self.length + sum(a for a, _ in self.gaps)

    @property
    def right(self) -> int:
        return self.length + sum(b for _, b in self.gaps)

    def pairs(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        out = []
        p, q = i, j
        for k, seg in enumerate(self.segments):
            for _ in range(seg):
                out.append((p, q))
                p, q = p + 1, q - 1
            if k < len(self.gaps):
                p, q = p + self.gaps[k][0], q - self.gaps[k][1]
        return tuple(out)


@dataclass(frozen=True)
class Window:
    """A profile bound (``stem_loop`` or ``gsl`` document); None is open."""

    lo: Fraction | None = None
    hi: Fraction | None = None
    lo_strict: bool = False
    hi_strict: bool = False

    @classmethod
    def from_doc(cls, doc: dict | None) -> "Window":
        doc = doc or {}
        return cls(lo=Fraction(doc["min"]) if "min" in doc else None,
                   hi=Fraction(doc["max"]) if "max" in doc else None,
                   lo_strict=bool(doc.get("min_exclusive")),
                   hi_strict=bool(doc.get("max_exclusive")))

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and (x <= self.lo if self.lo_strict else x < self.lo):
            return False
        if self.hi is not None and (x >= self.hi if self.hi_strict else x > self.hi):
            return False
        return True


# ---------------------------------------------------------------- tRNA

TRNA_STEMS = ("acceptor", "d", "anticodon", "t")


def plant_trna(rng: random.Random, id: str, arms=TRNA_STEMS, free=UNIFORM) -> Planted:
    """Cloverleaf of length 72..76 in standard tRNA numbering.

    Acceptor 7 bp closing the molecule with a 4-base 3' tail (ASL 17/7);
    D arm 4 bp with a 6..8-base loop (span 13..15, SL 3.25..3.75);
    anticodon and T arms 5 bp with 7-base loops (span 16, SL 3.2); a
    3..5-base variable loop. Only the stems named in ``arms`` are planted;
    the others' places hold free bases.
    """
    while True:
        d_loop = rng.randint(6, 8)
        var_loop = rng.randint(3, 5)
        pos = 1
        acc5 = pos
        pos += 7 + 2                      # acceptor 5' strand, bases 8-9
        d = contiguous(pos, pos + 7 + d_loop, 4)
        pos += 8 + d_loop + 1             # D arm, base 26
        ac = contiguous(pos, pos + 16, 5)
        pos += 17 + var_loop              # anticodon arm, variable loop
        t = contiguous(pos, pos + 16, 5)
        pos += 17
        acc = contiguous(acc5, pos + 6, 7)
        n = pos + 6 + 4                   # acceptor 3' strand, discriminator + CCA
        stems = tuple(s for name, s in zip(TRNA_STEMS, (acc, d, ac, t)) if name in arms)
        residues = assign_bases(rng, n, stems, wobble=True, free=free)
        if residues is not None:
            return Planted(id, residues, tuple(sorted(p for s in stems for p in s)))


# ---------------------------------------------------------------- protein

def plant_protein(rng: random.Random, id: str, free=UNIFORM) -> Planted:
    """n in 76..84: an outer stem holding two hairpins, and a stem pairing
    the second hairpin's loop with bases past the outer stem."""
    while True:
        l1, l2, l3, lk = (rng.randint(4, 6), rng.randint(3, 5),
                          rng.randint(3, 5), rng.randint(3, 4))
        parts = [("s1", l1), ("gap", rng.randint(1, 3)), ("h2", l2),
                 ("loop", rng.randint(4, 7)), ("h2'", l2), ("gap", rng.randint(1, 3)),
                 ("h3", l3), ("gap", rng.randint(1, 2)), ("k", lk),
                 ("gap", rng.randint(2, 3)), ("h3'", l3), ("gap", rng.randint(0, 2)),
                 ("s1'", l1), ("gap", rng.randint(2, 5)), ("k'", lk)]
        core = sum(size for _, size in parts)
        n = rng.randint(76, 84)
        if n - core < 2:
            continue
        f5 = rng.randint(1, n - core - 1)
        starts = {}
        pos = 1 + f5
        for name, size in parts:
            starts[name] = pos
            pos += size
        stems = tuple(
            contiguous(starts[a], starts[b] + size - 1, size)
            for a, b, size in (("s1", "s1'", l1), ("h2", "h2'", l2),
                               ("h3", "h3'", l3), ("k", "k'", lk)))
        residues = assign_bases(rng, n, stems, wobble=False, free=free)
        if residues is not None:
            return Planted(id, residues, tuple(sorted(p for s in stems for p in s)))


# ---------------------------------------------------------------- 5S rRNA

def _span_range(shape: Shape, window: Window, lo: int, hi: int) -> list[int]:
    return [s for s in range(lo, hi + 1) if window.contains(Fraction(s, shape.length))]


@dataclass(frozen=True)
class DomainPlan:
    """Where a domain's two helices go: the inner one inside the outer's
    innermost pair with ``margin`` free bases around it (``nested``), or,
    when the SL windows leave no room for that, the two side by side with
    ``margin`` bases between them."""

    outer: Shape
    inner: Shape
    outer_span: int
    inner_span: int
    margin: int
    nested: bool

    @property
    def width(self) -> int:
        if self.nested:
            return self.outer_span + 1
        return self.outer_span + 1 + self.margin + self.inner_span + 1

    def stems(self, start: int, rng: random.Random):
        outer = self.outer.pairs(start, start + self.outer_span)
        if self.nested:
            i = start + self.outer.left + rng.randint(0, self.margin)
        else:
            i = start + self.outer_span + 1 + self.margin
        return outer, self.inner.pairs(i, i + self.inner_span)


def _domain_plans(outer, inner, gsl: Window | None) -> list[DomainPlan]:
    """Every nested plan that fits the SL windows, and the GSL window unless
    ``gsl`` is None. The margin is at least one base so the outer helix
    cannot extend into the inner one."""
    out = []
    for o_shape, o_sl in outer:
        for i_shape, i_sl in inner:
            for i_span in _span_range(i_shape, i_sl, i_shape.left + i_shape.right + 2, 60):
                for margin in range(1, 9):
                    o_span = i_span + margin + o_shape.left + o_shape.right
                    if not o_sl.contains(Fraction(o_span, o_shape.length)):
                        continue
                    if gsl is not None and not gsl.contains(
                            Fraction(o_span, o_shape.length + i_shape.length)):
                        continue
                    out.append(DomainPlan(o_shape, i_shape, o_span, i_span, margin, True))
    return out


def _side_by_side_plans(outer, inner) -> list[DomainPlan]:
    out = []
    for o_shape, o_sl in outer:
        for i_shape, i_sl in inner:
            for o_span in _span_range(o_shape, o_sl, o_shape.left + o_shape.right + 2, 40):
                for i_span in _span_range(i_shape, i_sl, i_shape.left + i_shape.right + 2, 40):
                    out.append(DomainPlan(o_shape, i_shape, o_span, i_span, 2, False))
    return out


class Rrna5sPlanner:
    """Planted 5S inputs for one rrna5s profile document.

    Helix I closes the molecule; inside it sit the two domains side by
    side. Where a profile's windows admit no planted domain, the domain's
    helices are still planted inside their SL windows and the domain is
    named in ``gsl_free`` (GSL window missed) or ``unnested`` (the inner
    helix cannot fit inside the outer one, so they sit side by side).
    """

    def __init__(self, profile: dict):
        helices = {h["name"]: [(Shape.parse(p), Window.from_doc(h.get("stem_loop")))
                               for p in h["patterns"]] for h in profile["helices"]}
        claimed = {x for d in profile["domains"] for x in (d["outer"], d["inner"])}
        self.closing = next(helices[name] for name in helices if name not in claimed)
        self.plans = []
        self.gsl_free = []
        self.unnested = []
        for d in profile["domains"]:
            outer, inner = helices[d["outer"]], helices[d["inner"]]
            plans = _domain_plans(outer, inner, Window.from_doc(d["gsl"]))
            if not plans:
                self.gsl_free.append(d["name"])
                plans = _domain_plans(outer, inner, None)
            if not plans:
                self.unnested.append(d["name"])
                plans = _side_by_side_plans(outer, inner)
            self.plans.append(plans)

    def plant(self, rng: random.Random, id: str, free=UNIFORM) -> Planted:
        while True:
            chosen = [rng.choice(plans) for plans in self.plans]
            shape, window = rng.choice(self.closing)
            min_span = shape.left + shape.right + sum(d.width for d in chosen) - 1
            spans = _span_range(shape, window, min_span, min_span + 12)
            if not spans:
                continue
            span = rng.choice(spans)
            extra = span - min_span
            cuts = sorted(rng.randint(0, extra) for _ in chosen)
            loops = [b - a for a, b in zip([0] + cuts, cuts)]
            f5, f3 = rng.randint(0, 4), rng.randint(0, 4)
            n = f5 + span + 1 + f3
            i = 1 + f5
            stems = [shape.pairs(i, i + span)]
            pos = i + shape.left
            for plan, loop in zip(chosen, loops):
                pos += loop
                stems.extend(plan.stems(pos, rng))
                pos += plan.width
            residues = assign_bases(rng, n, stems, wobble=True, free=free)
            if residues is not None:
                return Planted(id, residues, tuple(sorted(p for s in stems for p in s)))


# ---------------------------------------------------------------- files

def write_case(case: Planted, directory: Path) -> tuple[Path, Path]:
    """``<id>.fasta`` and ``<id>.ct`` for one input."""
    from stemp.fileio import write_ct
    from stemp.seq import Sequence

    fasta = directory / f"{case.id}.fasta"
    ct = directory / f"{case.id}.ct"
    fasta.write_text(f">{case.id}\n{case.residues}\n", encoding="utf-8")
    ct.write_text(write_ct(Sequence(id=case.id, residues=case.residues), case.pairs),
                  encoding="utf-8")
    return fasta, ct


def rrna5s_planner(profile: str) -> Rrna5sPlanner:
    """Planner for a packaged profile, read as its JSON file, so that the
    inputs do not follow the program's profile loading."""
    doc = json.loads((PROFILE_DIR / f"{profile}.json").read_text(encoding="utf-8"))
    return Rrna5sPlanner(doc)


def main(argv=None) -> int:
    from workloads import KINDS, plant

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=sorted(KINDS),
                        help="input kind, as the workloads name them")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=10)
    parser.add_argument("--out", required=True, help="directory for FASTA and CT files")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        case, _ = plant(args.kind, rng, f"{args.kind}-{args.seed}-{k}")
        write_case(case, out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())

"""Family profiles: per-family vertex generation, filtering, and assembly.

A profile bundles everything that differs between sequence families: the
pairing rule, the minimum stem length, Stem-Loop and span bounds, whether
partial stems are generated, the acceptor-stem rule (tRNA), and per-helix
gap patterns with domain scores (5S rRNA). Profiles ship as JSON documents
and can be overridden with user files.

All score comparisons are exact: bounds are rationals and a bound like
"3 < SL <= 4.7" can never flip on float rounding.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from ..errors import NotAcceptorCandidate, ProfileError
from ..fileio import read_json
from ..seq import PairingRule, Sequence
from ..stems import (GapPattern, Interval, PairRuns, Stem, StemGraph, as_fraction,
                     build_stem_graph, canonical_order, contiguous_stem, pattern_of_pairs,
                     render_fraction, run_stems)

PROFILE_SCHEMA = "stemp-profile/1"
PROFILE_DIR_ENV = "STEMP_PROFILE_DIR"

BUILTIN_PROFILES = (
    "protein",
    "trna",
    "rrna5s-archaeal",
    "rrna5s-archaeal-general",
    "rrna5s-bacterial",
    "rrna5s-eukaryotic",
)


def _interval_to_dict(iv: Interval | None) -> dict | None:
    if iv is None:
        return None
    doc = {}
    if iv.lo is not None:
        doc["min"] = render_fraction(iv.lo)
    if iv.hi is not None:
        doc["max"] = render_fraction(iv.hi)
    if iv.lo_strict:
        doc["min_exclusive"] = True
    if iv.hi_strict:
        doc["max_exclusive"] = True
    return doc


def _interval_from_dict(doc: dict | None) -> Interval | None:
    if doc is None:
        return None
    return Interval(
        lo=as_fraction(doc["min"]) if "min" in doc else None,
        hi=as_fraction(doc["max"]) if "max" in doc else None,
        lo_strict=_typed(doc, "min_exclusive", bool, False),
        hi_strict=_typed(doc, "max_exclusive", bool, False),
    )


_JSON_TYPES = {bool: "boolean", int: "integer", str: "string", list: "array"}


def _typed(doc: dict, key: str, kind: type, default=None):
    """``doc[key]`` (``default`` if absent and given, else a KeyError) if its
    type is ``kind``, else a TypeError naming the key: "false" is no
    boolean, 2.9 or true no integer, "5" no array."""
    value = doc[key] if default is None else doc.get(key, default)
    if type(value) is not kind:
        got = json.dumps(value, default=repr)
        raise TypeError(f"{key!r} must be a JSON {_JSON_TYPES[kind]}, got {got}")
    return value


@dataclass(frozen=True)
class AcceptorSpec:
    """Rule for stems closing the sequence's open ends (tRNA acceptor)."""

    max_score: Fraction


@dataclass(frozen=True)
class HelixSpec:
    """Allowed shapes and Stem-Loop bounds for one named helix."""

    name: str
    patterns: tuple[GapPattern, ...]
    sl: Interval | None = None

    def __post_init__(self):
        if not self.patterns:
            raise ProfileError(f"helix {self.name}: needs at least one pattern")


@dataclass(frozen=True)
class DomainSpec:
    """An outer helix enclosing an inner one, filtered by the combined score."""

    name: str
    outer: str
    inner: str
    gsl: Interval

    def __post_init__(self):
        if self.outer == self.inner:
            raise ProfileError(f"domain {self.name}: outer and inner helix must differ")


@dataclass(frozen=True)
class ProfileConfig:
    """Every per-family tunable in one place."""

    name: str
    family: str
    pairing: PairingRule
    min_stem_length: int
    sl: Interval | None = None
    span: Interval | None = None
    acceptor: AcceptorSpec | None = None
    partial_stems: bool = False
    use_gsl: bool = True
    helices: tuple[HelixSpec, ...] = ()
    domains: tuple[DomainSpec, ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.family not in ("protein", "trna", "rrna5s"):
            raise ProfileError(f"unknown family {self.family!r}")
        if self.min_stem_length < 2:
            raise ProfileError("minimum stem length must be >= 2")
        if self.family != "rrna5s" and (self.helices or self.domains):
            raise ProfileError("helix/domain specs are only valid for the rrna5s family")
        if self.family != "trna" and self.acceptor is not None:
            raise ProfileError("acceptor rule is only valid for the trna family")
        names = {h.name for h in self.helices}
        if len(names) != len(self.helices):
            raise ProfileError("duplicate helix names")
        for dom in self.domains:
            for ref in (dom.outer, dom.inner):
                if ref not in names:
                    raise ProfileError(f"domain {dom.name} references unknown helix {ref!r}")


# ---------------------------------------------------------------- scores

def acceptor_sl(stem: Stem, total_length: int) -> Fraction:
    """Score of a stem read in the closing direction: the loop it stabilizes
    is the open-ended remainder of the sequence, not the enclosed span.

    Only defined when the stem spans more than half the sequence.
    """
    if 2 * stem.span <= total_length:
        raise NotAcceptorCandidate(
            f"span {stem.span} does not reach past half of {total_length}")
    return Fraction(total_length - stem.span + 2 * stem.length - 2, stem.length)


# ---------------------------------------------------------------- tRNA

def trna_vertices(seq: Sequence, cfg: ProfileConfig) -> list[Stem]:
    """Acceptor candidates plus body candidates per the tRNA pipeline.

    Stems spanning more than half the sequence are kept iff their acceptor
    score passes. All other stems (partial stems included when enabled) are
    trimmed from the inner end until the Stem-Loop score clears the lower
    bound, then must land inside the score and span windows. A trim keeps
    the outer pair, so both windows are decided per span before any stem is
    built.
    """
    n = seq.length
    runs = PairRuns(seq, cfg.pairing)
    out = []
    if cfg.acceptor is not None:
        num, den = cfg.acceptor.max_score.numerator, cfg.acceptor.max_score.denominator
        for d in runs.diagonals(n // 2 + 1):
            # (n - d + 2r - 2) / r <= num / den  <=>  (n - d - 2) den <= (num - 2 den) r
            need = cfg.min_stem_length
            if num > 2 * den:
                need = max(need, -(-(n - d - 2) * den // (num - 2 * den)))
            out += [contiguous_stem(i, j, r) for i, j, r in runs.starts(need, (d,))
                    if (n - d + 2 * r - 2) * den <= num * r]
    lo, hi = (cfg.span or Interval()).spans(1)
    hi = n // 2 if hi is None else min(hi, n // 2)
    out += run_stems(runs, cfg.min_stem_length, cfg.sl or Interval(), runs.diagonals(lo, hi),
                     partial=cfg.partial_stems, trim=True)
    return canonical_order(out)


# ---------------------------------------------------------------- 5S rRNA

def rrna5s_helix_candidates(seq: Sequence, spec: HelixSpec,
                            rule: PairingRule) -> list[Stem]:
    """Stems matching any of the helix's shapes, inside its score bounds,
    tagged with the helix name."""
    return _helix_candidates(PairRuns(seq, rule), spec)


def _helix_candidates(runs: PairRuns, spec: HelixSpec) -> list[Stem]:
    out: dict[tuple, Stem] = {}
    for pattern in spec.patterns:
        starts = runs.pattern_starts(pattern, spec.sl or Interval())
        # the same wherever it sits
        shape = pattern_of_pairs(pattern.pairs(0, 0)) if starts else None
        for i, j in starts:
            pairs = pattern.pairs(i, j)
            out.setdefault(pairs, Stem(i=i, j=j, pairs=pairs, pattern=shape,
                                       helix=spec.name))
    return canonical_order(out.values())


@dataclass(frozen=True)
class DomainCandidate:
    """An enclosing stem paired with a nested one, scored as a unit."""

    outer: Stem
    inner: Stem
    gsl: Fraction
    domain: str

    def as_stem(self) -> Stem:
        pairs = tuple(sorted(self.outer.pairs + self.inner.pairs))
        return Stem(i=pairs[0][0], j=pairs[0][1], pairs=pairs,
                    pattern=pattern_of_pairs(pairs), helix=self.domain)


def assemble_domains(outer: Iterable[Stem], inner: Iterable[Stem],
                     spec: DomainSpec) -> list[DomainCandidate]:
    """All (outer, inner) pairs where the outer stem encloses the inner one
    and the combined score lands inside the domain bounds.

    A domain is one stalk running to a single hairpin loop, so the inner
    stem sits strictly inside the outer's innermost pair, sharing no base
    with it; one in a side gap of a gapped outer would open a second
    hairpin. The combined score divides the outer span by the summed
    stem lengths, so each composite vertex exposes it as its span/length
    ratio and downstream energy stays the plain pair count.
    """
    found = []
    for vm in outer:
        hole_p, hole_q = vm.pairs[-1]
        for vn in inner:
            if not (hole_p < vn.i and vn.j < hole_q):
                continue
            gsl = Fraction(vm.span, vm.length + vn.length)
            if spec.gsl.contains(gsl):
                found.append(DomainCandidate(outer=vm, inner=vn, gsl=gsl,
                                             domain=spec.name))
    found.sort(key=lambda c: (c.outer.i, c.outer.j, c.inner.i, c.inner.j,
                              c.outer.length, c.inner.length))
    return found


def rrna5s_vertices(seq: Sequence, cfg: ProfileConfig) -> list[Stem]:
    """Vertex set for the 5S pipeline.

    With domain scoring on (``cfg.use_gsl``), helices claimed by a domain
    appear only inside composite vertices; unclaimed helices (Helix I) enter
    directly. With it off, every helix candidate is its own vertex.
    """
    runs = PairRuns(seq, cfg.pairing)
    candidates = {h.name: _helix_candidates(runs, h) for h in cfg.helices}
    domains = cfg.domains if cfg.use_gsl else ()
    claimed = {name for d in domains for name in (d.outer, d.inner)}
    out: dict[tuple, Stem] = {}
    for h in cfg.helices:
        if h.name not in claimed:
            for s in candidates[h.name]:
                out.setdefault(s.pairs, s)
    for dom in domains:
        for cand in assemble_domains(candidates[dom.outer], candidates[dom.inner], dom):
            s = cand.as_stem()
            out.setdefault(s.pairs, s)
    return canonical_order(out.values())


# ---------------------------------------------------------------- dispatch

def protein_vertices(seq: Sequence, cfg: ProfileConfig) -> list[Stem]:
    runs = PairRuns(seq, cfg.pairing)
    spans = runs.diagonals(*(cfg.span or Interval()).spans(1))
    return canonical_order(run_stems(runs, cfg.min_stem_length, cfg.sl or Interval(), spans,
                                     partial=cfg.partial_stems))


def profile_vertices(seq: Sequence, cfg: ProfileConfig) -> list[Stem]:
    if cfg.family == "protein":
        return protein_vertices(seq, cfg)
    if cfg.family == "trna":
        return trna_vertices(seq, cfg)
    return rrna5s_vertices(seq, cfg)


def build_profile_graph(seq: Sequence, cfg: ProfileConfig) -> StemGraph:
    """Family-specific vertices wired into the co-existence graph."""
    return build_stem_graph(profile_vertices(seq, cfg))


# ---------------------------------------------------------------- documents

def profile_to_dict(cfg: ProfileConfig) -> dict:
    doc: dict = {
        "schema": PROFILE_SCHEMA,
        "name": cfg.name,
        "family": cfg.family,
        "pairing": {"wobble": cfg.pairing.wobble, "uu": cfg.pairing.uu},
        "min_stem_length": cfg.min_stem_length,
        "stem_loop": _interval_to_dict(cfg.sl),
        "span": _interval_to_dict(cfg.span),
        "partial_stems": cfg.partial_stems,
        "use_gsl": cfg.use_gsl,
    }
    if cfg.acceptor is not None:
        doc["acceptor"] = {"max_score": render_fraction(cfg.acceptor.max_score)}
    if cfg.helices:
        doc["helices"] = [
            {
                "name": h.name,
                "patterns": [p.render() for p in h.patterns],
                "stem_loop": _interval_to_dict(h.sl),
            }
            for h in cfg.helices
        ]
    if cfg.domains:
        doc["domains"] = [
            {"name": d.name, "outer": d.outer, "inner": d.inner,
             "gsl": _interval_to_dict(d.gsl)}
            for d in cfg.domains
        ]
    if cfg.notes:
        doc["notes"] = cfg.notes
    return doc


def profile_from_dict(doc: dict) -> ProfileConfig:
    """A profile from its JSON document; ProfileError names what is wrong."""
    if not isinstance(doc, dict):
        raise ProfileError(f"not a profile document: the top level is a {type(doc).__name__}")
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ProfileError(f"not a profile document: schema={doc.get('schema')!r}")
    for key in ("name", "family", "min_stem_length"):
        if key not in doc:
            raise ProfileError(f"bad profile document: no {key!r} key")
    key = "pairing"  # the top-level key being read, for the error message
    try:
        flags = doc.get("pairing", {})
        pairing = PairingRule(wobble=_typed(flags, "wobble", bool, False),
                              uu=_typed(flags, "uu", bool, False))
        key = "acceptor"
        acceptor = None
        if doc.get("acceptor") is not None:
            acceptor = AcceptorSpec(max_score=as_fraction(doc["acceptor"]["max_score"]))
        key = "helices"
        helices = tuple(
            HelixSpec(
                name=_typed(h, "name", str),
                patterns=tuple(GapPattern.parse(p) for p in _typed(h, "patterns", list)),
                sl=_interval_from_dict(h.get("stem_loop")),
            )
            for h in _typed(doc, "helices", list, [])
        )
        key = "domains"
        domains = tuple(
            DomainSpec(name=_typed(d, "name", str), outer=_typed(d, "outer", str),
                       inner=_typed(d, "inner", str), gsl=_interval_from_dict(d["gsl"]))
            for d in _typed(doc, "domains", list, [])
        )
        key = "min_stem_length"
        min_stem_length = _typed(doc, "min_stem_length", int)
        key = "stem_loop"
        sl = _interval_from_dict(doc.get("stem_loop"))
        key = "span"
        span = _interval_from_dict(doc.get("span"))
    except KeyError as exc:
        raise ProfileError(f"bad profile document: {key!r} has no {exc.args[0]!r} key") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ProfileError(f"bad profile document: {key!r} is malformed: {exc}") from None
    try:
        return ProfileConfig(
            name=_typed(doc, "name", str),
            family=doc["family"],
            pairing=pairing,
            min_stem_length=min_stem_length,
            sl=sl,
            span=span,
            acceptor=acceptor,
            partial_stems=_typed(doc, "partial_stems", bool, False),
            use_gsl=_typed(doc, "use_gsl", bool, True),
            helices=helices,
            domains=domains,
            notes=_typed(doc, "notes", str, ""),
        )
    except TypeError as exc:  # a name, flag or notes of the wrong type
        raise ProfileError(f"bad profile document: {exc}") from None


def load_profile(path: str | Path) -> ProfileConfig:
    return profile_from_dict(read_json(path))


@cache
def builtin_profile(name: str) -> ProfileConfig:
    """The packaged profile ``name``, read and parsed once per process: a
    ProfileConfig is frozen and holds only tuples, so one object serves
    every caller."""
    ref = resources.files("stemp.profiles").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ProfileError(f"no builtin profile {name!r}; known: {', '.join(BUILTIN_PROFILES)}")
    return profile_from_dict(json.loads(ref.read_text(encoding="utf-8")))


def resolve_profile(selector: str) -> ProfileConfig:
    """Profile by name or path.

    Lookup order: an explicit path wins; otherwise ``$STEMP_PROFILE_DIR``
    (when set) is searched for ``<name>.json`` before the packaged profiles.
    """
    path = Path(selector)
    if selector.endswith(".json") or path.is_file():
        return load_profile(path)
    override_dir = os.environ.get(PROFILE_DIR_ENV)
    if override_dir:
        candidate = Path(override_dir) / f"{selector}.json"
        if candidate.is_file():
            return load_profile(candidate)
    return builtin_profile(selector)

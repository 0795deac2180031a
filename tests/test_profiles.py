import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from stemp import (AcceptorSpec, GapPattern, NotAcceptorCandidate, PairingRule,
                   ProfileError, acceptor_sl, assemble_domains, build_profile_graph,
                   builtin_profile, enumerate_stems, load_profile, maximal_cliques,
                   parse_sequence, profile_vertices, rank_predictions, resolve_profile,
                   trna_vertices)
from stemp.profiles import (BUILTIN_PROFILES, DomainSpec, HelixSpec, Interval,
                            ProfileConfig, as_fraction, profile_from_dict,
                            profile_to_dict, render_fraction, rrna5s_helix_candidates,
                            rrna5s_vertices)
from stemp.stems import contiguous_stem

from .oracles import filter_profile_vertices, walk_trna_vertices

WOBBLE = PairingRule(wobble=True)

# engineered cloverleaf: acceptor 7 pairs, arms of 4/5/5 pairs (21 total)
SYNTH_TRNA = ("GCGAGUGAAGCAGAAAAAAAACUGCAGCGAGAAAAAAACUCGCAAAAAGCGAG"
              "AAAAAAACUCGCCACUCGCACCA")
SYNTH_TRNA_PAIRS = frozenset(
    {(1, 72), (2, 71), (3, 70), (4, 69), (5, 68), (6, 67), (7, 66),
     (10, 25), (11, 24), (12, 23), (13, 22),
     (27, 43), (28, 42), (29, 41), (30, 40), (31, 39),
     (49, 65), (50, 64), (51, 63), (52, 62), (53, 61)})


# ------------------------------------------------------------- intervals

def test_interval_exact_bounds():
    iv = Interval(lo=Fraction(3), hi=Fraction("4.7"), lo_strict=True)
    assert not iv.contains(Fraction(3))
    assert iv.contains(Fraction(31, 10))
    assert iv.contains(Fraction(47, 10))
    assert not iv.contains(Fraction(47, 10) + Fraction(1, 10 ** 12))


def test_interval_rejects_empty():
    with pytest.raises(ProfileError):
        Interval(lo=Fraction(5), hi=Fraction(4))
    with pytest.raises(ProfileError):
        Interval(lo=Fraction(4), hi=Fraction(4), lo_strict=True)


def test_fraction_rendering_round_trip():
    for text in ("3", "4.7", "17.82", "27.5", "0.05", "35/37"):
        assert as_fraction(render_fraction(as_fraction(text))) == as_fraction(text)
    assert render_fraction(Fraction(47, 10)) == "4.7"
    assert render_fraction(Fraction(1, 3)) == "1/3"


# ------------------------------------------------------------- acceptor score

def test_acceptor_score_arithmetic():
    stem = contiguous_stem(1, 72, 7)
    score = acceptor_sl(stem, 76)
    assert score == Fraction(17, 7)
    assert score <= 3


def test_acceptor_score_boundary():
    stem = contiguous_stem(1, 76, 1)
    assert acceptor_sl(stem, 76) == 1


def test_acceptor_requires_long_span():
    with pytest.raises(NotAcceptorCandidate):
        acceptor_sl(contiguous_stem(1, 38, 3), 76)
    with pytest.raises(NotAcceptorCandidate):
        acceptor_sl(contiguous_stem(1, 39, 3), 76)  # span exactly half


# ------------------------------------------------------------- tRNA

def test_synthetic_cloverleaf_rank_one():
    seq = parse_sequence(SYNTH_TRNA, id="synth")
    cfg = builtin_profile("trna")
    graph = build_profile_graph(seq, cfg)
    report = rank_predictions(graph, maximal_cliques(graph), sequence_id=seq.id)
    top = report.predictions[0]
    assert top.scr == 1 and top.multiplicity == 1
    assert top.energy == 21
    assert frozenset(top.pairs) == SYNTH_TRNA_PAIRS


def test_trna_vertices_respect_bounds():
    seq = parse_sequence(SYNTH_TRNA, id="synth")
    cfg = builtin_profile("trna")
    n = seq.length
    for v in trna_vertices(seq, cfg):
        if 2 * v.span > n:
            assert acceptor_sl(v, n) <= cfg.acceptor.max_score
        else:
            assert cfg.sl.contains(v.sl)
            assert cfg.span.contains(v.span)
            assert v.length >= cfg.min_stem_length


def test_trim_loop_shrinks_low_scoring_stem():
    # one 5-pair run with span 15 scores exactly 3; the emitted vertex is the
    # 4-pair trim scoring 15/4
    bases = ["A"] * 41
    for p, q, a, b in [(10, 25, "G", "C"), (11, 24, "C", "G"), (12, 23, "G", "C"),
                       (13, 22, "U", "A"), (14, 21, "G", "C")]:
        bases[p], bases[q] = a, b
    seq = parse_sequence("".join(bases[1:]), id="trim40")
    raw = {(s.i, s.j, s.length) for s in enumerate_stems(seq, WOBBLE, 3)}
    assert (10, 25, 5) in raw
    cfg = replace(builtin_profile("trna"), partial_stems=False)
    got = {(v.i, v.j, v.length, v.sl) for v in trna_vertices(seq, cfg)}
    assert (10, 25, 4, Fraction(15, 4)) in got
    assert all(not (i == 10 and j == 25 and l == 5) for i, j, l, _ in got)


@pytest.mark.parametrize("lo_strict", [True, False], ids=["strict", "inclusive"])
def test_trna_trim_equals_walk(lo_strict):
    # with no upper score or span bound every trimmed stem is a vertex, so a
    # kept length one off in either branch changes the list
    trna = builtin_profile("trna")
    rng = random.Random(5)
    seqs = [parse_sequence(SYNTH_TRNA, id="synth")] + [
        parse_sequence("".join(rng.choice("ACGU") for _ in range(n)), id="r")
        for n in (40, 76, 76, 90, 120)]
    for lo in ("5/2", "3", "7/2", "4"):
        cfg = replace(trna, sl=Interval(lo=as_fraction(lo), lo_strict=lo_strict), span=None)
        for seq in seqs:
            assert trna_vertices(seq, cfg) == walk_trna_vertices(seq, cfg)
    for seq in seqs:
        assert trna_vertices(seq, trna) == walk_trna_vertices(seq, trna)


def test_partial_stems_add_vertices():
    seq = parse_sequence(SYNTH_TRNA, id="synth")
    cfg = builtin_profile("trna")
    with_partials = trna_vertices(seq, cfg)
    without = trna_vertices(seq, replace(cfg, partial_stems=False))
    assert {v.pairs for v in without} <= {v.pairs for v in with_partials}
    assert len(with_partials) > len(without)


# ------------------------------------------------------------- 5S rRNA

def mini_5s():
    bases = ["A"] * 61
    alphabet = [("G", "C"), ("C", "G"), ("A", "U"), ("G", "C"), ("U", "A")]
    for arm in ([(k, 57 - k) for k in range(1, 9)], [(k, 52 - k) for k in range(12, 19)]):
        for t, (p, q) in enumerate(arm):
            bases[p], bases[q] = alphabet[t % len(alphabet)]
    seq = parse_sequence("".join(bases[1:]), id="mini5s")
    h2 = HelixSpec(name="II", patterns=(GapPattern.parse("8"),),
                   sl=Interval(as_fraction("6.37"), as_fraction("7.72")))
    h4 = HelixSpec(name="IV", patterns=(GapPattern.parse("7"),),
                   sl=Interval(as_fraction("3.9"), as_fraction("6.6")))
    dom = DomainSpec(name="beta", outer="II", inner="IV",
                     gsl=Interval(as_fraction("3.46"), as_fraction("4.26")))
    cfg = ProfileConfig(name="mini", family="rrna5s", pairing=WOBBLE,
                        min_stem_length=2, helices=(h2, h4), domains=(dom,))
    return seq, cfg, h2, h4, dom


def test_helix_candidates_tagged_and_bounded():
    seq, cfg, h2, h4, _ = mini_5s()
    outer = rrna5s_helix_candidates(seq, h2, cfg.pairing)
    assert [(s.i, s.j, s.length, s.helix) for s in outer] == [(1, 56, 8, "II")]
    inner = rrna5s_helix_candidates(seq, h4, cfg.pairing)
    assert {(s.i, s.j) for s in inner} == {(1, 40), (12, 40), (13, 55)}
    narrowed = replace(h4, sl=Interval(as_fraction(100), as_fraction(101)))
    assert rrna5s_helix_candidates(seq, narrowed, cfg.pairing) == []


def test_domain_assembly_enclosure_and_score():
    seq, cfg, h2, h4, dom = mini_5s()
    outer = rrna5s_helix_candidates(seq, h2, cfg.pairing)
    inner = rrna5s_helix_candidates(seq, h4, cfg.pairing)
    candidates = assemble_domains(outer, inner, dom)
    assert len(candidates) == 1
    cand = candidates[0]
    assert (cand.outer.i, cand.outer.j) == (1, 56)
    assert (cand.inner.i, cand.inner.j) == (12, 40)
    assert cand.gsl == Fraction(55, 15)
    composite = cand.as_stem()
    assert (composite.i, composite.j, composite.length, composite.span) == (1, 56, 15, 55)
    assert composite.sl == cand.gsl
    assert composite.helix == "beta"


def test_domain_assembly_rejections():
    gsl = Interval(as_fraction(2), as_fraction(10))
    spec = DomainSpec(name="d", outer="A", inner="B", gsl=gsl)
    outer = [contiguous_stem(1, 40, 8)]
    beside = [contiguous_stem(45, 60, 3)]  # coexists but is not enclosed
    assert assemble_domains(outer, beside, spec) == []
    nested = [contiguous_stem(15, 25, 3)]
    tight = DomainSpec(name="d", outer="A", inner="B",
                       gsl=Interval(as_fraction(1), as_fraction(2)))
    assert assemble_domains(outer, nested, tight) == []  # gsl 39/11 out of bounds
    assert len(assemble_domains(outer, nested, spec)) == 1


def test_gsl_toggle_changes_vertex_set():
    seq, cfg, *_ = mini_5s()
    with_gsl = rrna5s_vertices(seq, replace(cfg, use_gsl=True))
    assert [(v.i, v.j, v.length, v.helix) for v in with_gsl] == [(1, 56, 15, "beta")]
    without = rrna5s_vertices(seq, replace(cfg, use_gsl=False))
    assert {(v.i, v.j, v.helix) for v in without} == {
        (1, 56, "II"), (1, 40, "IV"), (12, 40, "IV"), (13, 55, "IV")}


def test_composite_pairs_are_disjoint():
    seq, cfg, *_ = mini_5s()
    for v in rrna5s_vertices(seq, replace(cfg, use_gsl=True)):
        flat = [x for pq in v.pairs for x in pq]
        assert len(flat) == len(set(flat))


# ------------------------------------------------------------- worked example

def test_protein_profile_on_known_25mer(seq_2qux):
    graph = build_profile_graph(seq_2qux, builtin_profile("protein"))
    assert len(graph.vertices) == 6
    assert graph.edge_count == 6


def test_protein_sl_override_subset(seq_2qux):
    cfg = builtin_profile("protein")
    bounded = replace(cfg, sl=Interval(as_fraction(2), as_fraction(20)))
    all_vs = {s.pairs for s in build_profile_graph(seq_2qux, cfg).vertices}
    kept = {s.pairs for s in build_profile_graph(seq_2qux, bounded).vertices}
    assert kept <= all_vs


# ------------------------------------------------------------- documents

@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_builtin_profiles_load_and_round_trip(name):
    cfg = builtin_profile(name)
    assert cfg.name == name
    assert profile_from_dict(profile_to_dict(cfg)) == cfg


def test_profile_round_trips_every_interval_flag():
    iv = Interval(lo=Fraction(3), hi=Fraction(27, 5), lo_strict=True, hi_strict=True)
    cfg = builtin_profile("rrna5s-bacterial")
    cfg = replace(cfg, helices=tuple(replace(h, sl=iv) for h in cfg.helices),
                  domains=tuple(replace(d, gsl=iv) for d in cfg.domains))
    trna = replace(builtin_profile("trna"), sl=iv, span=iv)  # rrna5s reads neither
    doc, trna_doc = (json.loads(json.dumps(profile_to_dict(c))) for c in (cfg, trna))
    assert trna_doc["stem_loop"] == trna_doc["span"] == doc["domains"][0]["gsl"] == {
        "min": "3", "max": "5.4", "min_exclusive": True, "max_exclusive": True}
    assert profile_from_dict(doc) == cfg and profile_from_dict(trna_doc) == trna


def test_a_null_domain_window_reads_as_the_open_window():
    """A domain's gsl may be null, as the schema allows, and bounds nothing:
    the domain keeps every outer helix that encloses an inner one."""
    seq, cfg, *_ = mini_5s()
    doc = json.loads(json.dumps(profile_to_dict(cfg)))
    doc["domains"][0]["gsl"] = None
    read = profile_from_dict(doc)
    assert read.domains[0].gsl == Interval()
    open_window = replace(cfg, domains=(replace(cfg.domains[0], gsl=Interval()),))
    assert rrna5s_vertices(seq, read) == rrna5s_vertices(seq, open_window) != []


def test_trna_profile_contents():
    cfg = builtin_profile("trna")
    assert cfg.pairing.wobble and not cfg.pairing.uu
    assert cfg.min_stem_length == 3
    assert cfg.sl.lo == 3 and cfg.sl.lo_strict
    assert cfg.sl.hi == Fraction(27, 5)
    assert cfg.span.lo == 12 and cfg.span.hi == 18
    assert cfg.acceptor.max_score == 3
    assert cfg.partial_stems


def test_archaeal_profile_contents():
    cfg = builtin_profile("rrna5s-archaeal")
    helices = {h.name: h for h in cfg.helices}
    assert [p.render() for p in helices["I"].patterns] == ["6", "5", "4[1/0]1", "4"]
    assert helices["I"].sl.lo == Fraction(1782, 100)
    assert helices["V"].sl is None
    domains = {d.name: d for d in cfg.domains}
    assert domains["beta"].outer == "II" and domains["beta"].inner == "IV"
    assert domains["beta"].gsl.lo == Fraction(346, 100)
    assert domains["gamma"].gsl.hi == Fraction(343, 100)


def test_profile_validation_errors():
    with pytest.raises(ProfileError):
        ProfileConfig(name="x", family="dna", pairing=WOBBLE, min_stem_length=3)
    with pytest.raises(ProfileError):
        ProfileConfig(name="x", family="protein", pairing=WOBBLE, min_stem_length=1)
    with pytest.raises(ProfileError):
        ProfileConfig(name="x", family="protein", pairing=WOBBLE, min_stem_length=3,
                      helices=(HelixSpec("I", (GapPattern.parse("4"),)),))
    with pytest.raises(ProfileError):
        ProfileConfig(name="x", family="rrna5s", pairing=WOBBLE, min_stem_length=2,
                      helices=(HelixSpec("I", (GapPattern.parse("4"),)),),
                      domains=(DomainSpec("b", "I", "II",
                                          Interval(as_fraction(2), as_fraction(4))),))
    with pytest.raises(ProfileError):
        ProfileConfig(name="x", family="protein", pairing=WOBBLE, min_stem_length=3,
                      acceptor=__import__("stemp").AcceptorSpec(max_score=Fraction(3)))
    # a knob that the family's vertex generator does not read
    for family, change, key in [("rrna5s", {"sl": Interval()}, "stem_loop"),
                                ("rrna5s", {"span": Interval(hi=as_fraction(9))}, "span"),
                                ("rrna5s", {"partial_stems": True}, "partial_stems"),
                                ("rrna5s", {"min_stem_length": 9}, "min_stem_length"),
                                ("trna", {"use_gsl": False}, "use_gsl"),
                                ("protein", {"use_gsl": False}, "use_gsl")]:
        with pytest.raises(ProfileError, match=f"^{key} is not read by the {family} family$"):
            ProfileConfig(**dict(dict(name="x", family=family, pairing=WOBBLE,
                                      min_stem_length=2), **change))


def test_resolve_profile_env_dir(tmp_path, monkeypatch):
    custom = profile_to_dict(replace(builtin_profile("protein"), min_stem_length=2))
    (tmp_path / "mine.json").write_text(json.dumps(custom))
    monkeypatch.setenv("STEMP_PROFILE_DIR", str(tmp_path))
    assert resolve_profile("mine").min_stem_length == 2
    assert resolve_profile("protein").min_stem_length == 3  # dir has no protein.json
    monkeypatch.setenv("STEMP_PROFILE_DIR", str(tmp_path / "missing"))
    assert resolve_profile("protein").name == "protein"


def test_load_profile_from_path(tmp_path):
    doc = profile_to_dict(builtin_profile("trna"))
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    assert load_profile(path) == builtin_profile("trna")
    assert resolve_profile(str(path)) == builtin_profile("trna")


def test_builtin_profiles_are_parsed_once(tmp_path, monkeypatch):
    from importlib import resources

    monkeypatch.delenv("STEMP_PROFILE_DIR", raising=False)
    for name in BUILTIN_PROFILES:
        text = resources.files("stemp.profiles").joinpath(f"{name}.json").read_text()
        assert builtin_profile(name) is builtin_profile(name) is resolve_profile(name)
        assert builtin_profile(name) == profile_from_dict(json.loads(text))
    for _ in range(2):  # an error is raised again, not remembered as a result
        with pytest.raises(ProfileError, match="no builtin profile 'nope'"):
            builtin_profile("nope")
    # a path and the override directory are read afresh on every call
    path = tmp_path / "protein.json"
    path.write_text(json.dumps(profile_to_dict(replace(builtin_profile("protein"),
                                                       min_stem_length=2))))
    assert resolve_profile(str(path)) is not resolve_profile(str(path))
    monkeypatch.setenv("STEMP_PROFILE_DIR", str(tmp_path))
    assert resolve_profile("protein").min_stem_length == 2
    path.write_text(json.dumps(profile_to_dict(replace(builtin_profile("protein"),
                                                       min_stem_length=4))))
    assert resolve_profile("protein").min_stem_length == 4
    assert builtin_profile("protein").min_stem_length == 3


def test_partial_closure_contains_true_stems_gated():
    from .conftest import require_gutell
    from stemp.fileio import read_ct, read_fasta
    fasta, ct = require_gutell("AB041850")
    seq = read_fasta(fasta)[0]
    reference = read_ct(ct)
    cfg = builtin_profile("trna")
    raw = enumerate_stems(seq, cfg.pairing, cfg.min_stem_length)
    from stemp import enumerate_partial_stems
    closure = {s.pairs for s in enumerate_partial_stems(raw, cfg.min_stem_length)}
    covered = set().union(*closure) if closure else set()
    # every canonically-pairable reference pair appears in some closed stem
    expected = {pq for pq in reference.pairs
                if cfg.pairing.allows(seq.base(pq[0]), seq.base(pq[1]))}
    assert expected <= covered


def test_profile_vertices_derive_from_full_stem_inventory():
    # every profile vertex is assembled from runs of the unfiltered graph:
    # protein vertices are unfiltered stems; body vertices elsewhere keep
    # their pairs inside some unfiltered stem; multi-segment vertices keep
    # every segment of length >= 2 inside one, and single-pair segments
    # still pair under the rule
    from stemp import build_profile_graph
    seq2qux = parse_sequence("GGCACAGAAGAUAUGGCUUCGUGCC", id="2QUX")
    protein = builtin_profile("protein")
    full = {s.pairs for s in enumerate_stems(seq2qux, protein.pairing, 2)}
    for v in build_profile_graph(seq2qux, protein).vertices:
        assert v.pairs in full

    trna_cfg = builtin_profile("trna")
    seq = parse_sequence(SYNTH_TRNA, id="synth")
    full_sets = [set(s.pairs) for s in enumerate_stems(seq, trna_cfg.pairing, 2)]
    for v in trna_vertices(seq, trna_cfg):
        assert any(set(v.pairs) <= s for s in full_sets)

    seq5, cfg5, *_ = mini_5s()
    full_sets = [set(s.pairs) for s in enumerate_stems(seq5, cfg5.pairing, 2)]
    for v in rrna5s_vertices(seq5, replace(cfg5, use_gsl=True)):
        segment = [v.pairs[0]]
        segments = []
        for prev, cur in zip(v.pairs, v.pairs[1:]):
            if cur == (prev[0] + 1, prev[1] - 1):
                segment.append(cur)
            else:
                segments.append(segment)
                segment = [cur]
        segments.append(segment)
        for seg in segments:
            if len(seg) >= 2:
                assert any(set(seg) <= s for s in full_sets)
            else:
                p, q = seg[0]
                assert cfg5.pairing.allows(seq5.base(p), seq5.base(q))


# ------------------------------------------------------------- planted recovery

ARM_ALPHABET = [("G", "C"), ("C", "G"), ("A", "U"), ("G", "C"), ("U", "A")]


def _place(bases, pairs, offset=0):
    for t, (p, q) in enumerate(pairs):
        a, b = ARM_ALPHABET[(t + offset) % len(ARM_ALPHABET)]
        bases[p], bases[q] = a, b


def make_cloverleaf(seed):
    """Random four-stem layout whose arm spans and scores sit inside the
    family windows; returns the sequence and the planted pair set."""
    import random as _random
    rng = _random.Random(seed)
    arms = []
    cursor = 10
    for _ in range(3):
        l = rng.choice((4, 5))
        loop = rng.choice((7, 8))
        p = cursor
        q = p + 2 * l + loop - 1
        arms.append([(p + t, q - t) for t in range(l)])
        cursor = q + rng.choice((1, 2, 3))
    total = cursor + 4 + 7
    acceptor = [(1 + t, total - 4 - t) for t in range(7)]
    bases = ["A"] * (total + 1)
    designed = list(acceptor)
    _place(bases, acceptor)
    for arm in arms:
        _place(bases, arm)
        designed += arm
    return "".join(bases[1:]), sorted(designed)


@pytest.mark.parametrize("seed", [0, 2, 4, 6, 8, 11, 12, 13])
def test_planted_cloverleaf_recovered_at_rank_one(seed):
    text, designed = make_cloverleaf(seed)
    seq = parse_sequence(text, id=f"clover{seed}")
    graph = build_profile_graph(seq, builtin_profile("trna"))
    report = rank_predictions(graph, maximal_cliques(graph))
    top = report.predictions[0]
    assert top.multiplicity == 1
    assert sorted(top.pairs) == designed


def make_full_5s():
    """Five planted helices shaped for the general Archaeal windows, with an
    unpaired hinge between the nested pairs of each domain."""
    h1 = [(1 + t, 110 - t) for t in range(6)]
    h2 = GapPattern.parse("2[0/1]6").pairs(8, 58)
    h4 = [(17 + t, 48 - t) for t in range(5)]
    h3 = GapPattern.parse("3[0/2]4").pairs(60, 95)
    h5 = GapPattern.parse("5[2/1]2").pairs(68, 85)
    bases = ["A"] * 113
    designed = []
    for k, arm in enumerate((h1, h2, h4, h3, h5)):
        _place(bases, list(arm), k)
        designed += list(arm)
    return "".join(bases[1:]), sorted(designed)


def test_planted_5s_recovered_with_domains():
    text, designed = make_full_5s()
    seq = parse_sequence(text, id="planted5s")
    cfg = builtin_profile("rrna5s-archaeal-general")
    graph = build_profile_graph(seq, cfg)
    helix_tags = sorted(v.helix for v in graph.vertices)
    assert helix_tags == ["I", "beta", "gamma"]
    report = rank_predictions(graph, maximal_cliques(graph))
    assert len(report.predictions) == 1
    top = report.predictions[0]
    assert top.energy == 33
    assert sorted(top.pairs) == designed


def test_planted_5s_recovered_without_domains():
    text, designed = make_full_5s()
    seq = parse_sequence(text, id="planted5s")
    cfg = builtin_profile("rrna5s-archaeal-general")
    graph = build_profile_graph(seq, replace(cfg, use_gsl=False))
    assert len(graph.vertices) == 8  # helix candidates stand alone
    report = rank_predictions(graph, maximal_cliques(graph))
    top = report.predictions[0]
    assert top.energy == 33
    assert sorted(top.pairs) == designed


@pytest.mark.parametrize("sl", [Interval(as_fraction(11), as_fraction(21)), None],
                         ids=("helix-window", "no-window"))
def test_oversized_gap_pattern_builds_nothing(monkeypatch, sl):
    # a pattern longer than the sequence matches nowhere; its pairs, a
    # billion of them, must not be built on the way to that answer
    rng = random.Random(7)
    seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id="r76")
    cfg = builtin_profile("rrna5s-bacterial")
    helix = replace(cfg.helices[0], sl=sl)
    huge = GapPattern.parse("1000000000")
    plain = replace(cfg, helices=(helix,) + cfg.helices[1:])
    grown = replace(cfg, helices=(replace(helix, patterns=helix.patterns + (huge,)),)
                    + cfg.helices[1:])
    pairs = GapPattern.pairs

    def guarded(pattern, i, j):
        if pattern == huge:
            raise AssertionError("built the pairs of a pattern too long to match")
        return pairs(pattern, i, j)

    monkeypatch.setattr(GapPattern, "pairs", guarded)
    assert profile_vertices(seq, grown) == profile_vertices(seq, plain)


def test_domain_inner_must_sit_inside_innermost_pair():
    # a stem lodged in the outer's side gap spans i/j-wise but opens a
    # second hairpin; it must not form a domain
    outer = __import__("stemp").Stem(GapPattern.parse("2[0/10]2").pairs(10, 60))
    in_gap = contiguous_stem(50, 57, 3)       # inside the 3' gap 49..58
    in_loop = contiguous_stem(20, 40, 3)      # inside the innermost pair (13,47)
    spec = DomainSpec(name="d", outer="A", inner="B",
                      gsl=Interval(as_fraction(1), as_fraction(20)))
    assert assemble_domains([outer], [in_gap], spec) == []
    got = assemble_domains([outer], [in_loop], spec)
    assert len(got) == 1
    composite = got[0].as_stem()
    assert composite.length == 7  # chain-nested union renders cleanly


# ------------------------------------------------------------- window-first vertices

def _cli_profile(name, flags):
    """The profile ``predict --profile name *flags`` runs with."""
    from stemp.cli import _configure, build_parser
    return _configure(build_parser().parse_args(["predict", "--profile", name, *flags, "x.fa"]))


def window_sequences(seed, count):
    """Planted cloverleaf and 5S inputs, a short one where the tRNA span
    window reaches past half the sequence, then seeded random ones; the
    low-complexity alphabets give the long runs that 5S patterns need."""
    rng = random.Random(seed)
    seqs = [parse_sequence(make_cloverleaf(seed)[0], id="clover"),
            parse_sequence(make_full_5s()[0], id="planted5s"),
            parse_sequence("".join(rng.choice("GCU") for _ in range(30)), id="short")]
    for k in range(count):
        alphabet = rng.choice(("ACGU", "ACGU", "GC", "GCU", "ACGUU"))
        n = rng.randint(12, 160)
        seqs.append(parse_sequence("".join(rng.choice(alphabet) for _ in range(n)),
                                   id=f"r{k}"))
    return seqs


@pytest.mark.parametrize("flags", [[], ["-L", "2"], ["--sl-min", "2.5", "--sl-max", "6"],
                                   ["--sl-min", "3"], ["--sl-max", "4.7"], ["--no-gsl"],
                                   ["--wobble", "--uu"]], ids=" ".join)
@pytest.mark.parametrize("name", BUILTIN_PROFILES)
def test_window_first_vertices_equal_filter_oracle(name, flags):
    if (flags[:1] in (["-L"], ["--sl-min"], ["--sl-max"]) if name.startswith("rrna5s")
            else flags == ["--no-gsl"]):
        with pytest.raises(ProfileError, match="is not read by the"):
            _cli_profile(name, flags)  # a knob that the family does not read
        return
    cfg = _cli_profile(name, flags)
    for seq in window_sequences(len(flags) + BUILTIN_PROFILES.index(name), 4):
        assert profile_vertices(seq, cfg) == filter_profile_vertices(seq, cfg), seq.id


TRNA_WINDOWS = [
    {"span": None},
    {"span": Interval(as_fraction(12), as_fraction(18), lo_strict=True, hi_strict=True)},
    {"span": Interval(as_fraction("12.5"), as_fraction("17.5"))},
    {"sl": None, "span": None},
    {"sl": Interval(hi=as_fraction(5), hi_strict=True)},
    {"sl": Interval(as_fraction(-1), as_fraction(0))},
    {"acceptor": AcceptorSpec(max_score=as_fraction(2))},
    {"acceptor": AcceptorSpec(max_score=as_fraction("5/2"))},
    {"acceptor": AcceptorSpec(max_score=as_fraction("7/2"))},
    {"acceptor": None},
    {"partial_stems": False},
    {"partial_stems": False, "span": None, "min_stem_length": 2},
]
PROTEIN_WINDOWS = [
    {"partial_stems": True},
    {"sl": Interval(as_fraction(2), as_fraction(20))},
    {"sl": Interval(as_fraction(3), as_fraction("5.4"), lo_strict=True),
     "span": Interval(as_fraction(12), as_fraction(18)), "partial_stems": True},
    {"sl": Interval(hi=as_fraction(5), hi_strict=True), "partial_stems": True},
    {"span": Interval(as_fraction("12.5"), as_fraction("17.5"), hi_strict=True)},
    {"sl": Interval(as_fraction(-1), as_fraction(0))},
]


@pytest.mark.parametrize("name, change", [("trna", c) for c in TRNA_WINDOWS]
                         + [("protein", c) for c in PROTEIN_WINDOWS], ids=str)
def test_window_first_vertices_equal_filter_oracle_on_windows(name, change):
    cfg = replace(builtin_profile(name), **change)
    for seq in window_sequences(7, 4):
        assert profile_vertices(seq, cfg) == filter_profile_vertices(seq, cfg), seq.id

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stemp import (FormatError, GapPattern, Interval, PairingRule, ProfileError, Stem,
                   build_stem_graph, can_coexist, enumerate_gapped_stems,
                   enumerate_partial_stems, enumerate_stems, parse_sequence)
from stemp.profiles import (BUILTIN_PROFILES, builtin_profile, profile_vertices,
                            rrna5s_helix_candidates)
from stemp.stems import canonical_order, contiguous_stem, helix_runs, pattern_of_pairs

from .oracles import brute_force_stems, stems_disjoint, walk_gapped_stems, walk_stems

CANON = PairingRule()
WOBBLE = PairingRule(wobble=True)
RULES = (CANON, WOBBLE, PairingRule(wobble=True, uu=True))
RRNA5S = tuple(builtin_profile(name) for name in BUILTIN_PROFILES
               if name.startswith("rrna5s-"))
RRNA5S_PATTERNS = sorted({p for cfg in RRNA5S for h in cfg.helices for p in h.patterns},
                         key=GapPattern.render)


def random_seq(rng, length):
    return parse_sequence("".join(rng.choice("ACGU") for _ in range(length)), id="rnd")


# ------------------------------------------------------------- enumeration

def test_known_25mer_vertices(seq_2qux):
    stems = enumerate_stems(seq_2qux, CANON, 3)
    tuples = [(s.i, s.j, s.length, s.span) for s in stems]
    assert tuples[0] == (1, 25, 5, 24)
    # the named sub-stem family plus the two interior stems
    for expected in [(1, 25, 5, 24), (2, 24, 4, 22), (3, 23, 3, 20),
                     (7, 20, 4, 13), (8, 19, 3, 11)]:
        assert expected in tuples
    assert (15, 25, 3, 10) in tuples  # isolated stem closing the 3' tail
    assert len(tuples) == 6


def test_suffix_substems_are_separate_vertices(seq_2qux):
    stems = enumerate_stems(seq_2qux, CANON, 3)
    by_tuple = {(s.i, s.j): s for s in stems}
    outer, sub = by_tuple[(1, 25)], by_tuple[(2, 24)]
    assert set(sub.pairs) < set(outer.pairs)


def test_no_pairing_possible():
    assert enumerate_stems(parse_sequence("AAAA"), CANON, 2) == []


def test_min_length_validation():
    with pytest.raises(ValueError):
        enumerate_stems(parse_sequence("ACGU"), CANON, 1)


@pytest.mark.parametrize("rule", [CANON, WOBBLE])
def test_enumeration_matches_brute_force(rule):
    rng = random.Random(20240517)
    for _ in range(150):
        seq = random_seq(rng, rng.randint(4, 20))
        got = {(s.i, s.j, s.length) for s in enumerate_stems(seq, rule, 2)}
        assert got == brute_force_stems(seq, rule, 2)


def test_sl_window_inclusive(seq_2qux):
    # the (1,25) stem scores exactly 24/5
    bounded = enumerate_stems(seq_2qux, CANON, 3, sl=Interval(Fraction(24, 5), Fraction(24, 5)))
    assert [(s.i, s.j) for s in bounded] == [(1, 25)]


def test_filter_monotonicity_random():
    rng = random.Random(7)
    for _ in range(40):
        seq = random_seq(rng, rng.randint(8, 24))
        base = {(s.i, s.j, s.length) for s in enumerate_stems(seq, CANON, 2)}
        longer = {(s.i, s.j, s.length) for s in enumerate_stems(seq, CANON, 3)}
        assert longer <= base
        tight = {(s.i, s.j, s.length)
                 for s in enumerate_stems(seq, CANON, 2, sl=Interval(Fraction(2), Fraction(6)))}
        assert tight <= base


def test_determinism(seq_2qux):
    first = enumerate_stems(seq_2qux, CANON, 3)
    second = enumerate_stems(seq_2qux, CANON, 3)
    assert first == second
    assert build_stem_graph(first).edges == build_stem_graph(second).edges


# ------------------------------------------------------------- scores

def test_stem_loop_score_values(seq_2qux):
    stems = enumerate_stems(seq_2qux, CANON, 3)
    v1 = stems[0]
    assert v1.sl == Fraction(24, 5)
    assert float(v1.sl) == 4.8
    assert contiguous_stem(1, 5, 2).sl == 2


def test_score_depends_only_on_geometry():
    a = contiguous_stem(4, 20, 3)
    b = contiguous_stem(4, 20, 3)
    assert a.sl == b.sl == Fraction(16, 3)


# ------------------------------------------------------------- gap patterns

def test_gap_pattern_round_trip():
    assert GapPattern.parse("2[0/1]6").render() == "2[0/1]6"
    pat = GapPattern.parse("1[1/1]6[1/0]2")
    assert pat.segments == (1, 6, 2)
    assert pat.gaps == ((1, 1), (1, 0))
    assert pat.total_length == 9


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3))
def test_gap_pattern_render_parse_inverse(segments, gaps):
    gaps = gaps[:len(segments) - 1]
    if len(gaps) != len(segments) - 1:
        segments = segments[:len(gaps) + 1]
    pat = GapPattern(tuple(segments), tuple(gaps))
    assert GapPattern.parse(pat.render()) == pat


@pytest.mark.parametrize("bad", ["", "[1/2]3", "2[1/2]", "2[1]3", "2(1/2)3", "0[1/1]2"])
def test_gap_pattern_rejects_malformed(bad):
    with pytest.raises(Exception):
        GapPattern.parse(bad)


@pytest.mark.parametrize("text, why", [
    ("", ""), ("[1/2]3", ""), ("2[1/2]", ""), ("2[1/2][1/1]3", ""),
    ("2x", ": unexpected 'x'"), ("2\n3", ": unexpected '\\n'"),
    ("2\n[1/1]3", ": unexpected '\\n'"),
])
def test_gap_pattern_names_what_it_cannot_parse(text, why):
    """Every character is read, a newline too, so two numbers never follow
    one another."""
    with pytest.raises(FormatError) as raised:
        GapPattern.parse(text)
    assert str(raised.value) == f"bad gap pattern {text!r}{why}"


@pytest.mark.parametrize("gaps, message", [
    ((), "expected 1 gaps for 2 segments, got 0"),
    (((0, 0), (1, 1)), "expected 1 gaps for 2 segments, got 2"),
    (((-1, 0),), "gap sizes must be >= 0: ((-1, 0),)"),
    (((0, -2),), "gap sizes must be >= 0: ((0, -2),)"),
])
def test_gap_pattern_refuses_a_wrong_gap_count_or_a_negative_gap(gaps, message):
    with pytest.raises(FormatError) as raised:
        GapPattern((2, 1), gaps)
    assert str(raised.value) == message


def test_engineered_two_segment_stem():
    seq = parse_sequence("GGAGAGAGAAAAAAUCUCUCAACC", id="gap24")
    out = enumerate_gapped_stems(seq, CANON, GapPattern.parse("2[1/2]6"))
    assert len(out) == 1
    stem = out[0]
    assert (stem.i, stem.j, stem.length, stem.span) == (1, 24, 8, 23)
    assert stem.pairs == ((1, 24), (2, 23), (4, 20), (5, 19), (6, 18),
                          (7, 17), (8, 16), (9, 15))
    assert stem.sl == Fraction(23, 8)


def test_zero_gap_degenerates_to_exact_length():
    rng = random.Random(99)
    pattern = GapPattern.parse("2[0/0]3")
    for _ in range(60):
        seq = random_seq(rng, rng.randint(10, 26))
        via_pattern = {s.pairs for s in enumerate_gapped_stems(seq, CANON, pattern)}
        via_exact = {s.pairs for s in enumerate_stems(seq, CANON, 2) if s.length == 5}
        assert via_pattern == via_exact
    # a stem is its pairs, so the [0/0] gap leaves the contiguous stem
    (stem,) = enumerate_gapped_stems(parse_sequence("GGGAAAACCC"), CANON,
                                     GapPattern.parse("2[0/0]1"))
    assert stem == contiguous_stem(1, 10, 3) and stem.pattern is None


def test_pattern_overrun_discarded_silently():
    seq = parse_sequence("GGGGAAAACCCC")
    out = enumerate_gapped_stems(seq, CANON, GapPattern.parse("2[9/9]2"))
    assert out == []


def test_pattern_of_pairs_round_trip():
    assert pattern_of_pairs(((3, 20), (4, 19), (5, 18))) is None
    pat = pattern_of_pairs(((1, 24), (2, 23), (4, 20), (5, 19)))
    assert pat is not None and pat.render() == "2[1/2]2"
    for pattern in RRNA5S_PATTERNS:
        for anchor in ((0, 0), (1, 60), (7, 119)):
            pairs = pattern.pairs(*anchor)
            rebuilt = pattern_of_pairs(pairs)
            assert (rebuilt or GapPattern((len(pairs),), ())).pairs(*anchor) == pairs
            if (0, 0) not in pattern.gaps:  # a [0/0] gap stacks two segments into one
                assert rebuilt == (pattern if pattern.gaps else None)


def test_helices_are_the_runs_of_stacked_pairs():
    assert contiguous_stem(3, 20, 3).helices == ((3, 20, 3),)
    gapped = GapPattern.parse("2[0/1]3[2/0]1[0/0]2")
    stem = Stem(gapped.pairs(1, 30))
    # a [0/0] gap stacks its segments into one run
    assert stem.helices == ((1, 30, 2), (3, 27, 3), (8, 24, 3))
    assert [(p + t, q - t) for p, q, k in stem.helices for t in range(k)] == list(stem.pairs)


def _random_pair_list(rng):
    """Up to 40 pairs on 0..30 in no particular order: stacked runs, and
    single pairs that may cross, repeat an earlier pair or be reversed."""
    pairs, count = [], rng.randint(0, 40)
    while len(pairs) < count:
        p, q = rng.randint(0, 30), rng.randint(0, 30)
        kind = rng.choice(["run", "pair", "repeat", "reversed"])
        if kind == "run":
            pairs += [(p + t, q - t) for t in range(rng.randint(1, 6))]
        elif kind == "repeat" and pairs:
            pairs.append(rng.choice(pairs))
        else:
            pairs.append((max(p, q), min(p, q)) if kind == "reversed" else (p, q))
    return pairs


def test_helix_runs_lose_nothing_and_are_maximal():
    rng = random.Random(1202)
    longest = 0
    for _ in range(400):
        pairs = _random_pair_list(rng)
        runs = helix_runs(pairs)
        assert [(p + t, q - t) for p, q, k in runs for t in range(k)] == pairs
        assert all(k >= 1 for _, _, k in runs)
        for (p0, q0, k0), (p1, q1, _) in zip(runs, runs[1:]):
            assert (p1, q1) != (p0 + k0, q0 - k0)  # else the runs were one
        longest = max([longest] + [k for _, _, k in runs])
    assert longest >= 6
    gapped = 0
    for _ in range(5):
        stems = enumerate_partial_stems(enumerate_stems(random_seq(rng, 40), CANON, 2), 2)
        for stem in stems:
            assert stem.helices == tuple(helix_runs(stem.pairs))
            gapped += len(stem.helices) > 1
    assert gapped


# ------------------------------------------------------------- partial stems

def test_partial_closure_of_length_five():
    stem = contiguous_stem(1, 20, 5)
    out = enumerate_partial_stems([stem], 3)
    pair_sets = {s.pairs for s in out}
    assert stem.pairs in pair_sets
    # end trims: lengths 4 and 3 off either end, plus the middle window
    for a, b in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        assert stem.pairs[a:5 - b] in pair_sets
    # one interior pair omitted
    for t in (1, 2, 3):
        assert stem.pairs[:t] + stem.pairs[t + 1:] in pair_sets
    assert len(pair_sets) == 9


def test_partial_closure_records_gap_pattern():
    stem = contiguous_stem(1, 20, 5)
    out = enumerate_partial_stems([stem], 3)
    gapped = [s for s in out if s.pattern is not None]
    assert {s.pattern.render() for s in gapped} == {"1[1/1]3", "2[1/1]2", "3[1/1]1"}


def test_partial_closure_boundary():
    stem = contiguous_stem(2, 10, 3)
    assert enumerate_partial_stems([stem], 3) == [stem]


def test_partial_closure_dedupes_across_inputs(seq_2qux):
    stems = enumerate_stems(seq_2qux, CANON, 3)
    out = enumerate_partial_stems(stems, 3)
    pair_sets = [s.pairs for s in out]
    assert len(pair_sets) == len(set(pair_sets))


# ------------------------------------------------------------- co-existence

def test_worked_example_edges(seq_2qux):
    stems = enumerate_stems(seq_2qux, CANON, 3)
    graph = build_stem_graph(stems)
    assert {(u + 1, v + 1) for u, v in graph.edges} == {
        (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)}
    v1, v2, v4 = stems[0], stems[1], stems[3]
    assert can_coexist(v1, v4)
    assert not can_coexist(v1, v2)


def test_stem_never_coexists_with_itself():
    s = contiguous_stem(1, 20, 4)
    assert not can_coexist(s, s)


def test_pseudoknot_crossing_allowed():
    left = contiguous_stem(1, 10, 2)
    right = contiguous_stem(5, 15, 2)
    assert can_coexist(left, right)
    assert can_coexist(right, left)


def test_nested_and_disjoint_allowed():
    outer = contiguous_stem(1, 30, 3)
    inner = contiguous_stem(8, 20, 3)
    after = contiguous_stem(31, 40, 2)
    assert can_coexist(outer, inner)
    assert can_coexist(outer, after)


def test_touching_indices_conflict():
    a = contiguous_stem(1, 10, 3)
    b = contiguous_stem(10, 20, 3)  # shares base 10
    assert not can_coexist(a, b)


def test_coexistence_matches_disjointness_oracle():
    rng = random.Random(4242)
    for _ in range(40):
        seq = random_seq(rng, 30)
        stems = enumerate_stems(seq, WOBBLE, 2)
        rng.shuffle(stems)
        stems = stems[:30]
        graph = build_stem_graph(stems)
        for u in range(len(stems)):
            for v in range(u + 1, len(stems)):
                assert graph.is_adjacent(u, v) == stems_disjoint(stems[u], stems[v])
    # every profile's vertices: gapped, partial and 5S composite stems too
    gapped = composite = 0
    for length in (76, 120):
        seq = random_seq(random.Random(2), length)
        for cfg in map(builtin_profile, BUILTIN_PROFILES):
            domains = {d.name for d in cfg.domains}
            for use_gsl in (True, False) if cfg.family == "rrna5s" else (True,):
                stems = profile_vertices(seq, replace(cfg, use_gsl=use_gsl))
                graph = build_stem_graph(stems)
                gapped += sum(s.pattern is not None for s in stems)
                composite += sum(s.helix in domains for s in stems)
                for u in range(len(stems)):
                    assert not graph.is_adjacent(u, u)
                    for v in range(u + 1, len(stems)):
                        disjoint = stems_disjoint(stems[u], stems[v])
                        assert graph.is_adjacent(u, v) == graph.is_adjacent(v, u) == disjoint
                        assert can_coexist(stems[u], stems[v]) == disjoint
    assert gapped and composite


def test_gapped_stems_use_pair_set_test():
    gapped = Stem(((1, 24), (2, 23), (4, 20), (5, 19)))
    inside_gap = contiguous_stem(7, 17, 3)   # sits inside the gapped stem's loop
    overlapping = contiguous_stem(4, 20, 2)  # reuses bases 4 and 20
    assert can_coexist(gapped, inside_gap)
    assert not can_coexist(gapped, overlapping)


def test_edge_soundness_pair_sets():
    rng = random.Random(11)
    for _ in range(25):
        seq = random_seq(rng, 26)
        graph = build_stem_graph(enumerate_stems(seq, CANON, 2))
        for u, v in graph.edges:
            merged = graph.vertices[u].pairs + graph.vertices[v].pairs
            flat = [x for pq in merged for x in pq]
            assert len(flat) == len(set(flat))


def test_empty_graph():
    graph = build_stem_graph([])
    assert graph.vertices == () and graph.edges == ()


def test_stem_validation_rejects_bad_chains():
    with pytest.raises(ValueError):
        Stem(((1, 10), (3, 12)))
    with pytest.raises(ValueError):
        Stem(())


def test_listed_pairs_build_the_stem_that_tuples_build():
    stem = Stem(((1, 10), (2, 9)), helix="P1")
    for pairs in ([(1, 10), (2, 9)], [[1, 10], [2, 9]], ([1, 10], (2, 9))):
        listed = Stem(pairs, helix="P1")
        assert listed == stem and hash(listed) == hash(stem) and repr(listed) == repr(stem)


# ends in -12..12 with denominators up to 5, and floats in tenths over the
# same range: open, closed and strict, at or below 0 on either side
WINDOW_ENDS = st.one_of(st.none(), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 5)),
                        st.builds(lambda k: k / 10, st.integers(-120, 120)))


@st.composite
def intervals(draw):
    ends = (draw(WINDOW_ENDS), draw(WINDOW_ENDS), draw(st.booleans()), draw(st.booleans()))
    try:
        return Interval(*ends)
    except ProfileError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(intervals(), st.integers(1, 200), st.integers(1, 200))
def test_interval_windows_equal_contains_filter(iv, length, span):
    lo, hi = iv.spans(length)
    reach = 12 * length + 2  # past both finite ends
    for s in range(-reach, reach + 1):
        inside = (lo is None or lo <= s) and (hi is None or s <= hi)
        assert inside == iv.contains(Fraction(s, length)), s
    shortest, longest = iv.lengths(span)
    for l in range(1, 10 * span + 2):  # past span / (the least positive end)
        inside = shortest <= l and (longest is None or l <= longest)
        assert inside == iv.contains(Fraction(span, l)), l


def test_interval_float_ends_are_exact():
    # 0.7 is a little below 7/10 in binary; the end is taken as its repr
    iv = Interval(hi=0.7)
    assert iv.hi == Fraction(7, 10) and type(iv.hi) is Fraction
    assert iv.lengths(7) == (10, None) and iv.contains(Fraction(7, 10))
    assert Interval(0.5, 2).spans(3) == (2, 6)
    for end in (math.inf, -math.inf, math.nan):
        with pytest.raises(ProfileError, match="not finite"):
            Interval(hi=end)


def test_sl_window_validated():
    seq = parse_sequence("GGGGAAAACCCC")
    assert (enumerate_stems(seq, CANON, 2, sl=Interval(Fraction(0), Fraction(5)))
            == enumerate_stems(seq, CANON, 2, sl=Interval(hi=Fraction(5))))
    with pytest.raises(ProfileError):
        Interval(Fraction(6), Fraction(5))


@pytest.mark.parametrize("pattern_text", ["2[1/2]6", "2[0/1]3", "1[1/1]3[1/0]2", "4"])
def test_gapped_enumeration_matches_definition_oracle(pattern_text):
    from .oracles import brute_force_gapped
    pattern = GapPattern.parse(pattern_text)
    rng = random.Random(hash(pattern_text) & 0xFFFF)
    for _ in range(60):
        seq = random_seq(rng, rng.randint(8, 26))
        got = {s.pairs for s in enumerate_gapped_stems(seq, WOBBLE, pattern)}
        assert got == brute_force_gapped(seq, WOBBLE, pattern.segments, pattern.gaps)


@given(st.text(alphabet="ACGU", min_size=4, max_size=18))
def test_enumeration_matches_brute_force_hypothesis(text):
    seq = parse_sequence(text, id="h")
    got = {(s.i, s.j, s.length) for s in enumerate_stems(seq, CANON, 2)}
    assert got == brute_force_stems(seq, CANON, 2)


# ------------------------------------------------------------- run table vs walk

def oracle_sequences(seed, count):
    """Seeded sequences of up to 150 nt; the low-complexity alphabets give
    the long runs that gap patterns need."""
    from .test_profiles import make_full_5s
    rng = random.Random(seed)
    seqs = [parse_sequence(make_full_5s()[0], id="planted5s")]
    for k in range(count):
        alphabet = rng.choice(("ACGU", "ACGU", "GC", "GCU"))
        n = rng.randint(4, 150)
        seqs.append(parse_sequence("".join(rng.choice(alphabet) for _ in range(n)),
                                   id=f"r{k}"))
    return seqs


@pytest.mark.parametrize("rule", RULES, ids=("canon", "wobble", "wobble-uu"))
def test_enumerate_stems_equals_walk(rule):
    for seq in oracle_sequences(31, 12):
        for min_length in (2, 3, 4):
            assert enumerate_stems(seq, rule, min_length) == walk_stems(seq, rule, min_length)
        bounds = Interval(Fraction(2), Fraction(8))
        assert (enumerate_stems(seq, rule, 2, sl=bounds)
                == walk_stems(seq, rule, 2, sl=bounds))


@pytest.mark.parametrize("rule", RULES, ids=("canon", "wobble", "wobble-uu"))
def test_enumerate_gapped_stems_equals_walk(rule):
    for seq in oracle_sequences(37, 2):
        for pattern in RRNA5S_PATTERNS:
            assert (enumerate_gapped_stems(seq, rule, pattern)
                    == walk_gapped_stems(seq, rule, pattern))
        bounds = Interval(Fraction(3), Fraction(7))
        for pattern in RRNA5S_PATTERNS[::5]:
            assert (enumerate_gapped_stems(seq, rule, pattern, sl=bounds)
                    == walk_gapped_stems(seq, rule, pattern, sl=bounds))


def walked_helix_candidates(seq, spec, rule):
    """rrna5s_helix_candidates over the walking enumerator."""
    out = {}
    for pattern in spec.patterns:
        for s in walk_gapped_stems(seq, rule, pattern):
            if spec.sl is not None and not spec.sl.contains(s.sl):
                continue
            s = replace(s, helix=spec.name)
            out.setdefault(s.pairs, s)
    return canonical_order(out.values())


@pytest.mark.parametrize("cfg", RRNA5S, ids=lambda cfg: cfg.name)
def test_helix_candidates_equal_walk(cfg):
    for seq in oracle_sequences(41, 3):
        for spec in cfg.helices:
            assert (rrna5s_helix_candidates(seq, spec, cfg.pairing)
                    == walked_helix_candidates(seq, spec, cfg.pairing))


@given(st.text(alphabet="ACGU", min_size=4, max_size=40),
       st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=2),
       st.sampled_from(RULES))
def test_gapped_enumeration_equals_walk_hypothesis(text, segments, gaps, rule):
    seq = parse_sequence(text, id="h")
    pattern = GapPattern(tuple(segments), tuple(gaps[:len(segments) - 1]))
    assert enumerate_gapped_stems(seq, rule, pattern) == walk_gapped_stems(seq, rule, pattern)

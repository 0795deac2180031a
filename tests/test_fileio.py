import functools
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from stemp import (AsymmetricPair, BudgetExceeded, FormatError, IndexOutOfRange,
                   InvalidCharacter, PairingRule, StempError, TooManyLayers,
                   build_stem_graph, enumerate_stems, maximal_cliques, parse_sequence,
                   rank_predictions, resolve_profile)
from stemp.cli import main, run_pipeline
from stemp import fileio
from stemp.cliques import RankedPredictions
from stemp.fileio import (HelixPairs, graph_from_dict, graph_to_dict, parse_ct,
                          parse_dot_bracket, parse_graph_text, read_ct, read_fasta,
                          read_reference, read_report, render_graph_text, report_from_dict,
                          report_to_dict, stream_report, write_ct, write_dot_bracket,
                          write_report)
from stemp.stems import MIN_PAIR_GAP, Stem, contiguous_stem

from .conftest import FIXTURES, PAIRS_2QUX, load_perfbench
from .oracles import pairwise_dot_bracket

CANON = PairingRule()
SRC = str(Path(fileio.__file__).resolve().parents[1])


# ------------------------------------------------------------- FASTA

def test_read_single_record():
    seqs = read_fasta(FIXTURES / "2qux.fasta")
    assert len(seqs) == 1
    assert seqs[0].id == "2QUX"
    assert seqs[0].length == 25


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.fasta"
    path.write_text("")
    assert read_fasta(path) == []


def test_read_two_records_in_order(tmp_path):
    path = tmp_path / "two.fasta"
    path.write_text(">a first\nACGU\n>b second\nGG\nCC\n")
    seqs = read_fasta(path)
    assert [(s.id, s.residues) for s in seqs] == [("a", "ACGU"), ("b", "GGCC")]


def test_invalid_character_carries_record_and_line(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_text(">rec1\nACGU\nAXGU\n")
    with pytest.raises(InvalidCharacter) as err:
        read_fasta(path)
    assert err.value.record == "rec1"
    assert err.value.line == 3
    assert err.value.char == "X"


def test_data_before_header_rejected(tmp_path):
    path = tmp_path / "headerless.fasta"
    path.write_text("ACGU\n")
    with pytest.raises(FormatError):
        read_fasta(path)


# ------------------------------------------------------------- CT

def test_ct_round_trip():
    seq = parse_sequence("GGGGAAAACCCC", id="hairpin")
    pairs = {(1, 12), (2, 11), (3, 10), (4, 9)}
    text = write_ct(seq, sorted(pairs), title="hairpin")
    back = parse_ct(text)
    assert back.pairs == frozenset(pairs)
    assert back.length == 12
    assert back.id == "hairpin"
    assert back.bases == "GGGGAAAACCCC"
    assert parse_ct(write_ct(seq, sorted(back.pairs), title="hairpin")) == back


def test_ct_fixture_matches_reference():
    reference = read_ct(FIXTURES / "2qux.ct")
    assert reference.length == 25
    assert reference.pairs == PAIRS_2QUX


def test_ct_asymmetric_pair():
    lines = ["4 broken"]
    partners = {1: 4, 2: 0, 3: 0, 4: 2}  # 4 claims 2, 2 claims nothing
    for k in range(1, 5):
        lines.append(f"{k} A {k-1} {k+1 if k < 4 else 0} {partners[k]} {k}")
    with pytest.raises(AsymmetricPair):
        parse_ct("\n".join(lines))


def test_ct_header_body_mismatch():
    with pytest.raises(FormatError):
        parse_ct("3 short\n1 A 0 2 0 1\n2 A 1 0 0 2\n")


def test_ct_partner_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_ct("2 x\n1 A 0 2 9 1\n2 A 1 0 0 2\n")


def test_ct_self_pair_rejected():
    with pytest.raises(FormatError):
        parse_ct("1 x\n1 A 0 0 1 1\n")


@pytest.mark.parametrize("body", ["1 A 0 2 x 1\n2 A 1 0 0 2\n",
                                  "1 A 0 2 0 1\n2.0 A 1 0 0 2\n"])
def test_ct_non_integer_column(body):
    with pytest.raises(FormatError, match="CT line [12]: index and pair columns"):
        parse_ct("2 x\n" + body)


def test_ct_t_normalized():
    back = parse_ct("2 dna\n1 T 0 2 2 1\n2 A 1 0 1 2\n")
    assert back.bases == "UA"


@pytest.mark.parametrize("pairs, error", [
    ([(4, 4)], ValueError("pair (4,4) pairs a base with itself")),
    ([(1, 12), (0, 5)], IndexOutOfRange(0, 12)),
    ([(3, 13)], IndexOutOfRange(13, 12)),
    ([(1, 12), (2, 12)], ValueError("index reused by pair (2,12)")),
    ([(1, 12), (12, 1)], ValueError("index reused by pair (12,1)")),
])
def test_write_ct_refuses_bad_pairs(pairs, error):
    with pytest.raises(type(error)) as raised:
        write_ct(parse_sequence("GGGGAAAACCCC", id="x"), pairs)
    assert type(raised.value) is type(error) and str(raised.value) == str(error)


def test_write_ct_round_trips_random_pair_sets():
    """Any pairs on distinct bases, either way round, crossing or not, read
    back from their table as themselves."""
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(1, 60)
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(n)), id=f"r{n}")
        bases = rng.sample(range(1, n + 1), 2 * rng.randint(0, n // 2))
        pairs = list(zip(bases[::2], bases[1::2]))
        back = parse_ct(write_ct(seq, pairs))
        assert back.pairs == {(min(pair), max(pair)) for pair in pairs}
        assert (back.id, back.length, back.bases) == (seq.id, n, seq.residues)


# ------------------------------------------------------------- byte-order marks

BOM = "\ufeff"
DBN_2QUX = ">2QUX\nGGCACAGAAGAUAUGGCUUCGUGCC\n(((((.((((......)))))))))\n"


def _plain_and_marked(tmp_path, name: str, text: str) -> tuple[Path, Path]:
    """``text`` written to ``name`` in two directories, the second copy
    after a byte-order mark."""
    paths = (tmp_path / "plain" / name, tmp_path / "bom" / name)
    for path, mark in zip(paths, ("", BOM)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(mark + text, encoding="utf-8")
    assert paths[1].read_bytes() == b"\xef\xbb\xbf" + paths[0].read_bytes()
    return paths


@pytest.mark.parametrize("name", ["2qux.fasta", "2qux.ct", "2qux.dbn", "p.json", "r.json"])
def test_a_leading_byte_order_mark_is_dropped(tmp_path, seq_2qux, name):
    from stemp.profiles import builtin_profile, load_profile, profile_to_dict
    _, report = run_pipeline(seq_2qux, resolve_profile("protein"))
    text, read = {
        "2qux.fasta": ((FIXTURES / "2qux.fasta").read_text(), read_fasta),
        "2qux.ct": ((FIXTURES / "2qux.ct").read_text(), read_ct),
        "2qux.dbn": (DBN_2QUX, read_reference),
        "p.json": (json.dumps(profile_to_dict(builtin_profile("rrna5s-bacterial"))),
                   load_profile),
        "r.json": (json.dumps(report_to_dict(report, seq_2qux), indent=2), read_report),
    }[name]
    plain, marked = _plain_and_marked(tmp_path, name, text)
    assert read(marked) == read(plain)


def test_predict_and_evaluate_read_byte_order_marked_files_as_plain(tmp_path, capsys):
    texts = {"2qux.fasta": (FIXTURES / "2qux.fasta").read_text(),
             "2qux.ct": (FIXTURES / "2qux.ct").read_text(), "2qux.dbn": DBN_2QUX,
             "p.json": json.dumps(fileio.read_json(
                 Path(fileio.__file__).parent / "profiles" / "protein.json"))}
    outputs = []
    for side in ("plain", "bom"):
        for name, text in texts.items():
            _plain_and_marked(tmp_path, name, text)
        where = tmp_path / side
        assert main(["predict", "--profile", str(where / "p.json"), str(where / "2qux.fasta"),
                     "-o", str(where / "r.json"), "--dot-bracket", str(where / "top.dbn")]) == 0
        for reference in ("2qux.ct", "2qux.dbn"):
            assert main(["evaluate", "--profile", str(where / "p.json"),
                         str(where / "2qux.fasta"), "--reference", str(where / reference)]) == 0
        assert main(["evaluate", "--profile", "protein", "--report", str(where / "r.json"),
                     "--reference", str(where / "2qux.ct")]) == 0
        outputs.append(((where / "r.json").read_bytes(), (where / "top.dbn").read_bytes(),
                        capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert b'"profile": "protein"' in outputs[0][0]


@pytest.mark.parametrize("name, text, read, error", [
    ("a.fasta", BOM + ">a\nGGGG\n", read_fasta, "line 1: sequence data before a '>' header"),
    ("a.fasta", ">a\nGG" + BOM + "GG\n", read_fasta, "record 'a'"),
    ("a.ct", BOM + "1 t\n1 G 0 0 0 1\n", read_ct, "CT header must start with the length"),
    ("a.dbn", BOM + "((....))\n", read_reference,
     "line 1: unexpected character '\\ufeff' at position 1"),
    ("a.json", BOM + "{}", read_report, "not JSON: Unexpected UTF-8 BOM"),
    ("a.json", "{" + BOM + "}", read_report, "not JSON"),
])
def test_a_byte_order_mark_anywhere_else_is_an_error(tmp_path, name, text, read, error):
    path = tmp_path / name
    path.write_text(BOM + text, encoding="utf-8")
    with pytest.raises(StempError, match=re.escape(error)):
        read(path)


def test_a_byte_order_mark_counts_in_the_offset_of_a_bad_byte(tmp_path):
    path = tmp_path / "bad.fasta"
    path.write_bytes(b"\xef\xbb\xbf>a\n\xff\n")
    with pytest.raises(FormatError, match=re.escape("not UTF-8 text (byte 6:")):
        read_fasta(path)


# ------------------------------------------------------------- dot-bracket

def test_hairpin_rendering():
    assert write_dot_bracket(8, [(1, 8), (2, 7), (3, 6)]) == "(((..)))"


def test_single_crossing_uses_two_tiers():
    assert write_dot_bracket(8, [(1, 5), (3, 8)]) == "(.[.)..]"


def test_too_many_layers():
    pairs = [(k, k + 5) for k in range(1, 6)]  # five mutually crossing pairs
    with pytest.raises(TooManyLayers):
        write_dot_bracket(10, pairs)


def test_four_layers_allowed():
    pairs = [(k, k + 4) for k in range(1, 5)]
    rendered = write_dot_bracket(8, pairs)
    assert rendered == "([{<)]}>"
    assert parse_dot_bracket(rendered) == frozenset(pairs)


def test_write_rejects_bad_pairs():
    with pytest.raises(IndexOutOfRange):
        write_dot_bracket(6, [(1, 7)])
    with pytest.raises(ValueError):
        write_dot_bracket(8, [(1, 8), (1, 5)])


def _render(writer, n, pairs):
    """The writer's string, or the type and message of what it raised."""
    try:
        return writer(n, pairs)
    except (StempError, ValueError) as exc:
        return type(exc), str(exc)


def test_index_out_of_range_says_below_1_or_past_the_length():
    assert str(IndexOutOfRange(0, 10)) == "pair index 0 is below 1"
    assert str(IndexOutOfRange(-1, 4)) == "pair index -1 is below 1"
    assert str(IndexOutOfRange(11, 10)) == "pair index 11 exceeds sequence length 10"
    with pytest.raises(IndexOutOfRange, match=r"^pair index 0 is below 1$"):
        write_ct(parse_sequence("GGGGAAAACC", id="x"), [(0, 5)])
    # a length below -1 refuses any pair, as the oracle does
    for writer in (write_dot_bracket, pairwise_dot_bracket):
        assert _render(writer, -5, [(1, 2)]) == (
            IndexOutOfRange, "pair index 2 exceeds sequence length -5")


@pytest.mark.parametrize("pairs, error", [
    ([(5, 3)], ValueError("pair (5,3) does not open before it closes")),
    ([(4, 4)], ValueError("pair (4,4) does not open before it closes")),
    ([(1, 10), (6, 6)], ValueError("pair (6,6) does not open before it closes")),
    ([(3, 0)], IndexOutOfRange(0, 10)),
    ([(0, 5)], IndexOutOfRange(0, 10)),
    ([(-1, 0)], IndexOutOfRange(-1, 10)),
    ([(12, 5)], IndexOutOfRange(12, 10)),
    ([(-1, 11)], IndexOutOfRange(11, 10)),
    ([(1, 10), (2, 10)], ValueError("index reused by pair (2,10)")),
])
def test_write_dot_bracket_names_the_bad_pair_truthfully(pairs, error):
    """An end outside 1..n is named (the one past n if there is one, else
    the first below 1), and a pair inside 1..n with p >= q whole, as the
    oracle names them."""
    want = (type(error), str(error))
    assert _render(write_dot_bracket, 10, pairs) == want
    assert _render(pairwise_dot_bracket, 10, pairs) == want


def test_helix_pairs_bases_are_their_stems_base_masks():
    stems = [contiguous_stem(1, 20, 3), contiguous_stem(5, 12, 2)]
    pairs = HelixPairs(stems)
    assert pairs.bases == stems[0].base_mask | stems[1].base_mask
    assert pairs.bases.bit_count() == 2 * len(pairs) and pairs.bases.bit_length() == 21
    assert write_dot_bracket(20, pairs) == write_dot_bracket(20, list(pairs)) == (
        "(((.((....)).....)))")


def _random_pairs(rng, n, count):
    """``count`` disjoint pairs on 1..n, crossing freely."""
    ends = rng.sample(range(1, n + 1), 2 * count)
    return [tuple(sorted(ends[k:k + 2])) for k in range(0, 2 * count, 2)]


def test_dot_bracket_matches_pairwise_oracle_on_random_pairs():
    rng = random.Random(4711)
    tiers_seen = set()
    for _ in range(600):
        n = rng.randint(2, 80)
        pairs = _random_pairs(rng, n, rng.randint(0, n // 2))
        got = _render(write_dot_bracket, n, pairs)
        assert got == _render(pairwise_dot_bracket, n, pairs)
        if isinstance(got, str):
            tiers_seen.update(k for k, tier in enumerate("([{<", start=1) if tier in got)
        else:
            tiers_seen.add(got[0])
    assert tiers_seen == {1, 2, 3, 4, TooManyLayers}


def test_dot_bracket_matches_pairwise_oracle_on_bad_pairs():
    rng = random.Random(1618)
    kinds = set()
    for _ in range(300):
        n = rng.randint(4, 80)
        pairs = _random_pairs(rng, n, rng.randint(1, n // 2))
        p, q = rng.choice(pairs)
        bad = rng.choice([(p, rng.randint(1, n)), (rng.randint(1, n), q),
                          (rng.randint(-2, n), n + rng.randint(1, 3)),
                          (0, rng.randint(1, n)), (q, p)])
        pairs.insert(rng.randrange(len(pairs) + 1), bad)
        got = _render(write_dot_bracket, n, pairs)
        assert got == _render(pairwise_dot_bracket, n, pairs)
        if not isinstance(got, str):
            kinds.add(got[0])
    # stems' pairs, one bad pair inserted inside a run of stacked pairs: on
    # a base of the run, past n, one step inward, or on two free bases,
    # reversed or from an index below 1
    for _ in range(300):
        n = rng.randint(4, 80)
        pairs = [pair for stem in _random_stems(rng, n, rng.randint(1, 30))
                 for pair in stem.pairs]
        free = sorted(set(range(1, n + 1)).difference(*pairs))
        if len(pairs) < 2 or len(free) < 2:
            continue
        t = rng.randrange(len(pairs) - 1)
        (p, q), (p1, q1) = pairs[t:t + 2]
        if (p1, q1) != (p + 1, q - 1):
            continue
        a, b = sorted(rng.sample(free, 2))
        bad = rng.choice([(p1, rng.randint(1, n)), (p1, n + rng.randint(1, 3)),
                          (p1 + 1, q1 - 1), (b, a), (rng.randint(-2, 0), b)])
        pairs.insert(t + 1, bad)
        got = _render(write_dot_bracket, n, pairs)
        assert got == _render(pairwise_dot_bracket, n, pairs)
        if not isinstance(got, str):
            kinds.add(got[0])
    assert kinds >= {ValueError, IndexOutOfRange}


def _random_stems(rng, n, count):
    """At most ``count`` stems on 1..n that share no base: helices (p, q, k)
    of k stacked pairs, some of them nested into the stem before them as
    its next segment."""
    used = set()
    stems = []
    for _ in range(count):
        k, p, q = rng.randint(1, 4), rng.randint(1, n), rng.randint(1, n)
        pairs = [(p + t, q - t) for t in range(k)]
        bases = {x for pair in pairs for x in pair}
        if p + k > q - k + 1 or q > n or bases & used:
            continue
        used |= bases
        if stems and stems[-1][-1][0] < p and q < stems[-1][-1][1] and rng.random() < 0.5:
            stems[-1] += pairs
        else:
            stems.append(pairs)
    return [Stem(i=pairs[0][0], j=pairs[0][1], pairs=tuple(pairs)) for pairs in stems]


def test_helix_layering_matches_the_pair_loop_and_the_oracle():
    rng = random.Random(2718)
    seen = set()
    segments = set()  # helices to a stem
    for _ in range(800):
        n = rng.randint(2, 80)
        stems = _random_stems(rng, n, rng.randint(0, 30))
        if stems and rng.random() < 0.4:
            i, j = rng.choice(stems).pairs[-1]
            stems.append(rng.choice([
                contiguous_stem(i, rng.randint(i + 1, n + 2), 1),  # reuses a base
                contiguous_stem(rng.randint(1, n), n + rng.randint(1, 3), 1),  # past n
            ]))
        pairs = HelixPairs(stems)
        assert pairs == sorted([p, q] for stem in stems for p, q in stem.pairs)
        assert pairs.helices == sorted(h for stem in stems for h in stem.helices)
        got = _render(write_dot_bracket, n, pairs)
        assert got == _render(write_dot_bracket, n, list(pairs))
        assert got == _render(pairwise_dot_bracket, n, pairs)
        if isinstance(got, str):
            seen.update(k for k, tier in enumerate("([{<", start=1) if tier in got)
        else:
            seen.add(got[0])
        segments.update(len(stem.helices) for stem in stems)
    assert seen == {1, 2, 3, 4, TooManyLayers, ValueError, IndexOutOfRange}
    assert segments >= {1, 2, 3}


def _chained_stems(rng, n, count):
    """Stems on 1..n that share no base, from at most ``count`` random
    helices (p, q, k), five of them crossing each other in about a third
    of the draws: in order of p, each helix opens a stem or, at random,
    goes on inside the innermost pair of one, so that the helices of one
    stem can lie between those of another, crossing them or not."""
    drawn = [(rng.randint(1, n), rng.randint(1, n), rng.randint(1, 3)) for _ in range(count)]
    if n >= 12 and rng.random() < 0.3:
        a = rng.randint(1, n - 9)
        d = rng.randint(5, n - a - 4)
        drawn += [(a + t, a + d + t, 1) for t in range(5)]
    used = set()
    chains: list[list[tuple[int, int, int]]] = []
    for p, q, k in sorted(drawn):
        bases = set(range(p, p + k)) | set(range(q - k + 1, q + 1))
        if p + 2 * k > q + 1 or q > n or bases & used:
            continue
        used |= bases
        around = [chain for chain in chains
                  if chain[-1][0] + chain[-1][2] <= p and q <= chain[-1][1] - chain[-1][2]]
        if around and rng.random() < 0.8:
            rng.choice(around).append((p, q, k))
        else:
            chains.append([(p, q, k)])
    return [Stem(i=chain[0][0], j=chain[0][1],
                 pairs=tuple((p + t, q - t) for p, q, k in chain for t in range(k)))
            for chain in chains]


def _interleaved(stems) -> bool:
    """Whether, in sorted order, some stem's helices lie on both sides of
    another stem's helix."""
    owners = [owner for _, owner in sorted((h, s) for s, stem in enumerate(stems)
                                           for h in stem.helices)]
    return any(a == c != b for a, b, c in zip(owners, owners[1:], owners[2:]))


def test_tier_tables_match_the_oracle():
    """Every clique of a graph of chained stems (plus a few that share a
    base with them), laid out through the graph's one tier table, as a
    hand-built HelixPairs and as a plain list: the oracle's text, or its
    error with the same text."""
    rng = random.Random(4242)
    seen = set()
    interleaved = 0
    for _ in range(250):
        n = rng.randint(4, 100)
        stems = _chained_stems(rng, n, rng.randint(1, 40))
        if not stems:
            continue
        interleaved += _interleaved(stems)
        for _ in range(rng.randint(0, 3)):  # sharing a base, or past n
            i, j = rng.choice(stems).pairs[-1]
            stems.append(rng.choice([contiguous_stem(i, rng.randint(i + 1, n + 2), 1),
                                     contiguous_stem(rng.randint(1, n - 1), n + 1, 1)]))
        graph = build_stem_graph(stems)
        report = rank_predictions(graph, maximal_cliques(graph, max_cliques=64))
        table = fileio._graph_tiers(graph)
        texts = []
        for _, _, block in report.predictions.blocks():
            for vertices in block:
                pairs = HelixPairs(graph.vertices[v] for v in vertices)
                want = _render(pairwise_dot_bracket, n, pairs)
                assert _render(write_dot_bracket, n, pairs) == want
                assert _render(write_dot_bracket, n, [tuple(pair) for pair in pairs]) == want
                pairs.table = table  # as report_to_dict hands it on
                assert _render(write_dot_bracket, n, pairs) == want
                texts.append(want)
                seen.add(want[0] if isinstance(want, tuple) else
                         max(k for k, tier in enumerate(".([{<") if tier in want))
        if all(isinstance(text, str) for text in texts):
            doc = report_to_dict(report, seq=parse_sequence("A" * n))
            assert [entry["dot_bracket"] for entry in doc["predictions"]] == texts
            assert all(entry["pairs"].table is table for entry in doc["predictions"])
    assert seen == {1, 2, 3, 4, TooManyLayers, IndexOutOfRange}
    assert interleaved > 20


def test_hand_built_helix_pairs_raise_what_the_sorted_list_raises():
    """Overlapping stems, a stem past n, and a fifth tier before a bad pair
    (or after one): a HelixPairs of the stems, built by hand or through a
    graph's tier table, raises what their sorted pair list raises."""
    crossing5 = [contiguous_stem(k, k + 10, 1) for k in range(1, 6)]  # five cross each other
    cases = [
        ([contiguous_stem(1, 20, 3), contiguous_stem(3, 15, 2)], 20,
         (ValueError, "index reused by pair (3,18)")),
        ([contiguous_stem(1, 12, 2), contiguous_stem(5, 30, 2)], 20,
         (IndexOutOfRange, str(IndexOutOfRange(30, 20)))),
        ([*crossing5, contiguous_stem(7, 30, 1)], 20,
         (TooManyLayers, "pair (5,15) needs a fifth bracket tier")),
        ([*crossing5, contiguous_stem(11, 19, 1)], 20,
         (TooManyLayers, "pair (5,15) needs a fifth bracket tier")),
        ([contiguous_stem(2, 19, 1), *crossing5], 20,
         (ValueError, "index reused by pair (2,19)")),
    ]
    for stems, n, error in cases:
        pairs = sorted(pair for stem in stems for pair in stem.pairs)
        assert _render(write_dot_bracket, n, pairs) == error
        assert _render(pairwise_dot_bracket, n, pairs) == error
        assert _render(write_dot_bracket, n, HelixPairs(stems)) == error
        # a graph's table takes stems that share a base, though no clique does
        by_table = HelixPairs(stems)
        by_table.table = fileio._graph_tiers(build_stem_graph(stems))
        assert _render(write_dot_bracket, n, by_table) == error
        assert _render(write_dot_bracket, n, by_table) == error  # its entries now built
    # no bases: nothing is laid out, and any pair is out of range
    assert write_dot_bracket(-1, []) == write_dot_bracket(0, HelixPairs([])) == ""
    assert _render(write_dot_bracket, -1, HelixPairs([contiguous_stem(1, 2, 1)])) == (
        IndexOutOfRange, str(IndexOutOfRange(2, -1)))


class _CountedTierTable(fileio.TierTable):
    """A TierTable that counts the ones built."""

    __slots__ = ()
    built: list = []

    def __init__(self):
        super().__init__()
        self.built.append(self)


def test_a_graph_tier_table_serves_every_sequence_length(monkeypatch):
    """The graph's one table lays out its reports' predictions at any
    length, shorter than the pairs reach or longer, with the plain list's
    and the oracle's text or error, and builds no other table."""
    monkeypatch.setattr(_CountedTierTable, "built", [])
    monkeypatch.setattr(fileio, "TierTable", _CountedTierTable)
    built = _CountedTierTable.built
    r76 = _random_76mer()
    graph, report = run_pipeline(r76, resolve_profile("trna"))
    doc = report_to_dict(report, seq=r76)
    assert built == [fileio._graph_tiers(graph)]
    assert report_to_dict(report, seq=r76) == doc and len(built) == 1
    table = built[0]
    reach = max(q for entry in doc["predictions"] for _, q in entry["pairs"])
    for n in (reach - 1, 40, 76, 90, 0, reach, 76):
        for entry in doc["predictions"][::50]:
            pairs = entry["pairs"]
            assert pairs.table is table
            want = _render(pairwise_dot_bracket, n, pairs)
            assert _render(write_dot_bracket, n, pairs) == want
            assert len(built) == 1  # the graph's table served it
            assert _render(write_dot_bracket, n, [tuple(pair) for pair in pairs]) == want
            del built[1:]  # the plain list's one of its own
    assert set(table.dots) == {reach - 1, 40, 76, 90, 0, reach}
    # no entry is built wider than a length that laid out its run
    assert max(q for _, q, _ in table.entries) == reach
    shorter = parse_sequence(r76.residues[:reach - 1], id="short")
    with pytest.raises(IndexOutOfRange):
        report_to_dict(report, seq=shorter)
    assert len(built) == 1


def test_a_report_builds_one_tier_table_per_graph(tmp_path, monkeypatch):
    monkeypatch.setattr(_CountedTierTable, "built", [])
    monkeypatch.setattr(fileio, "TierTable", _CountedTierTable)
    built = _CountedTierTable.built
    r76 = _random_76mer()
    _, report = run_pipeline(r76, resolve_profile("trna"))
    assert len(report.predictions) > 8 * fileio.RENDER_SLICE
    write_report(report, tmp_path / "r.json", seq=r76)
    assert len(built) == 1
    fasta = tmp_path / "two.fasta"
    fasta.write_text(f">a\n{r76.residues}\n>b\n{r76.residues[::-1]}\n")
    built.clear()
    assert main(["predict", "--profile", "trna", str(fasta), "-o", str(tmp_path / "set.json")]) == 0
    assert len(built) == 2  # one per record's graph


def _random_76mer():
    rng = random.Random(6)  # 682 cliques under trna
    return parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id="r76")


def test_dot_bracket_matches_pairwise_oracle_on_reports(seq_2qux):
    for seq, profile, count in ((seq_2qux, "protein", 7), (_random_76mer(), "trna", 682)):
        _, report = run_pipeline(seq, resolve_profile(profile))
        assert len(report.predictions) == count
        for pred in report.predictions:
            assert (_render(write_dot_bracket, seq, pred.pairs)
                    == _render(pairwise_dot_bracket, seq, pred.pairs))


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_dot_bracket("(()")
    with pytest.raises(FormatError):
        parse_dot_bracket("())")
    with pytest.raises(FormatError):
        parse_dot_bracket("..a..")


def test_round_trip_random_structures():
    rng = random.Random(2718)
    for _ in range(40):
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(30)), id="r")
        graph = build_stem_graph(enumerate_stems(seq, CANON, 2))
        report = rank_predictions(graph, maximal_cliques(graph))
        for pred in report.predictions[:5]:
            rendered = write_dot_bracket(seq, pred.pairs)
            assert len(rendered) == seq.length
            for opener, closer in ("()", "[]", "{}", "<>"):
                assert rendered.count(opener) == rendered.count(closer)
            assert parse_dot_bracket(rendered) == frozenset(pred.pairs)


def test_read_reference_dispatch(tmp_path):
    db = tmp_path / "x.dbn"
    db.write_text(">x demo\nGGGGAAAACCCC\n((((....))))\n")
    reference = read_reference(db)
    assert reference.pairs == frozenset({(1, 12), (2, 11), (3, 10), (4, 9)})
    assert reference.bases == "GGGGAAAACCCC"
    ct = tmp_path / "x.ct"
    ct.write_text(write_ct(parse_sequence("GGGGAAAACCCC", id="x"),
                           sorted(reference.pairs)))
    assert read_reference(ct).pairs == reference.pairs


def test_dbn_length_mismatch(tmp_path):
    db = tmp_path / "bad.dbn"
    db.write_text("GGGG\n((....))\n")
    with pytest.raises(FormatError):
        read_reference(db)


DBN_EXTRA_LINE = ("is not the header, the sequence or the structure line; "
                  "a reference holds one record")


@pytest.mark.parametrize("lines, number, case", [
    ([">a", "GGGGAAAACCCC", ">b", "AAAAAAAAAAAA"], 3, "is a header after the sequence line"),
    ([">a", ">b", "GGGGAAAACCCC"], 2, "is a header after the header line"),
    (["GGGGAAAACCCC", ">b"], 2, "is a header after the sequence line"),
    ([">a", "GGGGAAAACCCC", "AAAAAAAAAAAA"], 3, "is a second sequence line"),
    (["GGGGAAAACCCC", "", "AAAAAAAAAAAA"], 3, "is a second sequence line"),
])
def test_dbn_refuses_a_second_header_or_sequence_line(tmp_path, lines, number, case):
    """``case`` says what the refused line is; every such line gets one text."""
    db = tmp_path / "two.dbn"
    db.write_text("\n".join([*lines, "((((....))))", ""]))
    with pytest.raises(FormatError) as raised:
        read_reference(db)
    assert str(raised.value) == f"{db}: line {number} {DBN_EXTRA_LINE}", case


# ------------------------------------------------------------- documents

def make_report(seq):
    graph = build_stem_graph(enumerate_stems(seq, CANON, 3))
    return graph, rank_predictions(graph, maximal_cliques(graph),
                                   sequence_id=seq.id, profile="protein")


def test_report_round_trip(seq_2qux, tmp_path):
    _, report = make_report(seq_2qux)
    doc = report_to_dict(report, seq=seq_2qux)
    assert report_from_dict(doc) == report
    path = tmp_path / "report.json"
    write_report(report, path, seq=seq_2qux)
    assert read_report(path) == report
    top = doc["predictions"][0]
    assert top["dot_bracket"] == "(((((.((((......)))))))))"
    assert top["energy"] == 9


def test_report_timing_isolated(seq_2qux, tmp_path):
    _, report = make_report(seq_2qux)
    timed = replace(report, timing=1.25)
    bare = report_to_dict(timed, seq=seq_2qux)
    assert "timing_seconds" not in bare
    with_timing = report_to_dict(timed, seq=seq_2qux, include_timing=True)
    assert with_timing["timing_seconds"] == 1.25


def test_report_schema_guard():
    with pytest.raises(FormatError):
        report_from_dict({"schema": "nope", "predictions": []})


@pytest.mark.parametrize("doc,message", [
    ([], "the top level is a list"),
    ("stemp-report/1", "the top level is a str"),
    ({"schema": "stemp-report/1", "predictions": [{}]}, "prediction 1 has no 'vertices'"),
    ({"schema": "stemp-report/1", "predictions": []}, "report has no 'sequence_id'"),
    ({"schema": "stemp-report/1", "sequence_id": "x", "profile": "p"},
     "report has no 'predictions'"),
    ({"schema": "stemp-report/1", "predictions": [[1, 2]]}, "prediction 1 is malformed"),
    ({"schema": "stemp-report/1", "predictions": 5}, "report is malformed"),
    ({"schema": "stemp-report/1", "sequence_id": "x", "profile": "p",
      "predictions": [{"rank_scr": 2, "rank_dr": 1, "multiplicity": 1, "energy": 1,
                       "vertices": [1], "pairs": [[1, 9]]}]},
     "report has predictions but none with rank_scr 1"),
    ({"schema": "stemp-report/1", "sequence_id": "x", "profile": "p",
      "predictions": [{"rank_scr": 1, "rank_dr": 1, "multiplicity": 1, "energy": 1,
                       "vertices": [1], "pairs": [[9, 1]]}]},
     r"prediction 1 is malformed: pair \[9, 1\] does not have 1 <= p < q"),
    ({"schema": "stemp-report/1", "sequence_id": "x", "profile": "p",
      "predictions": [{"rank_scr": 1, "rank_dr": 1, "multiplicity": 1, "energy": 2,
                       "vertices": [1], "pairs": [[1, 9], [3, 9]]}]},
     "prediction 1 is malformed: base 9 is in two pairs"),
    ({"schema": "stemp-report/1", "sequence_id": 5, "profile": "p", "predictions": []},
     "report is malformed: sequence_id 5 is not a string"),
    ({"schema": "stemp-report/1", "sequence_id": "x", "profile": {}, "predictions": []},
     "report is malformed: profile {} is not a string"),
])
def test_report_from_dict_rejects_malformed_documents(doc, message):
    with pytest.raises(FormatError, match=message):
        report_from_dict(doc)


def test_report_from_dict_names_the_bad_prediction(seq_2qux):
    _, report = make_report(seq_2qux)
    doc = report_to_dict(report, seq=seq_2qux)
    del doc["predictions"][2]["rank_dr"]
    doc["predictions"][4]["pairs"][0] = [1, 2, 3]
    with pytest.raises(FormatError, match="prediction 3 has no 'rank_dr'"):
        report_from_dict(doc)
    doc["predictions"][2]["rank_dr"] = 2
    with pytest.raises(FormatError, match="prediction 5 is malformed"):
        report_from_dict(doc)


def test_graph_round_trip_json(seq_2qux):
    graph, _ = make_report(seq_2qux)
    doc = graph_to_dict(graph)
    back = graph_from_dict(doc)
    assert back == graph
    assert json.loads(json.dumps(doc)) == doc


def test_graph_round_trip_text(seq_2qux):
    graph, _ = make_report(seq_2qux)
    text = render_graph_text(graph)
    assert text.splitlines()[0] == "v1 1 25 5 24 24/5"
    assert parse_graph_text(text) == graph


def test_graph_round_trip_with_gapped_vertex():
    seq = parse_sequence("GGAGAGAGAAAAAAUCUCUCAACC", id="gap24")
    from stemp import GapPattern, enumerate_gapped_stems
    stems = enumerate_gapped_stems(seq, CANON, GapPattern.parse("2[1/2]6"))
    graph = build_stem_graph(stems)
    assert parse_graph_text(render_graph_text(graph)) == graph
    assert graph_from_dict(graph_to_dict(graph)) == graph


def test_read_report_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"schema": "stemp-report/1",\n "predictions": [}\n')
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not JSON: Expecting value "
                                          f"at line 2, column 18$"):
        read_report(path)


def test_graph_rebuild_rejects_inconsistent_vertices(seq_2qux):
    graph, _ = make_report(seq_2qux)
    doc = graph_to_dict(graph)
    doc["vertices"][0]["span"] = 23
    with pytest.raises(FormatError, match="^inconsistent stem entry: {'i': 1, "):
        graph_from_dict(doc)
    text = render_graph_text(graph).replace("v1 1 25 5 24 24/5", "v1 1 25 5 24 5")
    with pytest.raises(FormatError, match="^inconsistent vertex line: 'v1 1 25 5 24 5'$"):
        parse_graph_text(text)
    # Pairs that cannot nest inside their span, and base indices past the
    # largest a graph file may name, are rejected before any pair is built;
    # an edge to a stem at the largest index is read without a base mask
    # that wide. A child process with 1 GiB of address space reads them, so
    # that building any of them fails the test instead of exhausting memory.
    probe = r"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from stemp.errors import FormatError
from stemp.fileio import graph_from_dict, parse_graph_text
vertex = {"i": 1, "j": 10, "length": 10 ** 9, "span": 9, "sl": "9/1000000000"}
huge = {"i": 1, "j": 3000000001, "length": 10 ** 9, "span": 3000000000, "sl": "3"}
for read, given in [(parse_graph_text, "v1 1 10 1000000000 9 3"),
                    (parse_graph_text, "v1 1 10 1 9 3 1000000000"),
                    (graph_from_dict, {"schema": "stemp-graph/1", "vertices": [vertex],
                                       "edges": []}),
                    (parse_graph_text, "v1 1 3000000001 1000000000 3000000000 3"),
                    (graph_from_dict, {"schema": "stemp-graph/1", "vertices": [huge],
                                       "edges": []}),
                    (parse_graph_text, "v1 1 10000000001 1 10000000000 10000000000"),
                    (parse_graph_text, "v1 1 1000000 1 999999 999999\n"
                                       "v2 2 9 1 7 7\ne 1 2")]:
    try:
        print(len(read(given).edges), "edge")
    except FormatError as exc:
        print(exc)
"""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert result.stdout.splitlines() == [
        "inconsistent vertex line: 'v1 1 10 1000000000 9 3'",
        "inconsistent vertex line: 'v1 1 10 1 9 3 1000000000'",
        "inconsistent stem entry: {'i': 1, 'j': 10, 'length': 1000000000, 'span': 9, "
        "'sl': '9/1000000000'}",
        "graph line 1: base index 3000000001 is past 1000000, the largest a graph file "
        "may name",
        "vertex 1: base index 3000000001 is past 1000000, the largest a graph file may name",
        "graph line 1: base index 10000000001 is past 1000000, the largest a graph file "
        "may name",
        "1 edge"], result.stderr


def _entry(line: str) -> dict:
    """The JSON graph entry of a text vertex line."""
    _, i, j, length, span, sl, *pattern = line.split()
    return {"i": int(i), "j": int(j), "length": int(length), "span": int(span), "sl": sl,
            **({"pattern": pattern[0]} if pattern else {})}


@pytest.mark.parametrize("line,wider", [
    ("v1 1 10 5 9 9/5", "v1 1 11 5 10 2"),
    ("v1 1 10 4 9 9/4 1[1/1]3", "v1 1 11 4 10 5/2 1[1/1]3"),
    ("v1 3 4 1 1 1", "v1 3 5 1 2 2"),
])
def test_graph_readers_reject_a_pair_on_adjacent_bases(line, wider):
    """A vertex whose innermost pair joins bases less than MIN_PAIR_GAP
    apart is a stem no enumerator makes: both readers refuse it, and read
    the same vertex one base wider."""
    with pytest.raises(FormatError, match=f"^inconsistent vertex line: {re.escape(repr(line))}$"):
        parse_graph_text(line)
    with pytest.raises(FormatError, match="^inconsistent stem entry: "):
        graph_from_dict({"schema": "stemp-graph/1", "vertices": [_entry(line)], "edges": []})
    (stem,) = parse_graph_text(wider).vertices
    p, q = stem.pairs[-1]
    assert q - p == MIN_PAIR_GAP
    assert graph_from_dict({"schema": "stemp-graph/1", "vertices": [_entry(wider)],
                            "edges": []}).vertices == (stem,)


def _graph_doc(**changes):
    return {"schema": "stemp-graph/1",
            "vertices": [{"i": 1, "j": 25, "length": 5, "span": 24, "sl": "24/5"},
                         {"i": 7, "j": 20, "length": 4, "span": 13, "sl": "13/4"}],
            "edges": [[1, 2]], **changes}


@pytest.mark.parametrize("doc,message", [
    (["x"], "^not a graph document: the top level is a list$"),
    ({"schema": "stemp-graph/1"}, "^graph has no 'vertices' key$"),
    (_graph_doc(edges=None), "^graph is malformed"),
    ({"schema": "stemp-graph/1", "vertices": []}, "^graph has no 'edges' key$"),
    (_graph_doc(vertices=[{"i": 1, "j": 25, "length": 5, "span": 24}]),
     "^vertex 1 has no 'sl' key$"),
    (_graph_doc(vertices=[_graph_doc()["vertices"][0], [7, 20]]), "^vertex 2 is malformed"),
    (_graph_doc(edges=[[1, 2], [1, 2, 3]]), "^edge 2 is malformed"),
    (_graph_doc(edges=[[1, 3]]), "^edge 1 is malformed: \\[1, 3\\] does not join two "),
    (_graph_doc(edges=[[0, 2]]), "^edge 1 is malformed"),
    (_graph_doc(edges=[[1, "2"]]), "^edge 1 is malformed"),
    (_graph_doc(edges=[[1.0, 2]]), "^edge 1 is malformed"),
    (_graph_doc(edges=[5]), "^edge 1 is malformed"),
    (_graph_doc(edges=[[1, 2], [2, 2]]), "^edge 2 is malformed: \\[2, 2\\] does not join two "),
    (_graph_doc(vertices=[_graph_doc()["vertices"][0],
                          {"i": 2, "j": 24, "length": 4, "span": 22, "sl": "11/2"}]),
     "^edge 1 is malformed: \\[1, 2\\] joins two stems that share a base$"),
    (_graph_doc(vertices={}), "^graph is malformed: vertices is not a list$"),
    (_graph_doc(edges={}), "^graph is malformed: edges is not a list$"),
    (_graph_doc(vertices=[dict(_graph_doc()["vertices"][0], i=True)]),
     "^vertex 1 is malformed: i true is not an integer$"),
    (_graph_doc(vertices=[_graph_doc()["vertices"][0], dict(_graph_doc()["vertices"][1],
                                                            length=4.0)]),
     "^vertex 2 is malformed: length 4.0 is not an integer$"),
    (_graph_doc(vertices=[dict(_graph_doc()["vertices"][0], helix=5)]),
     "^vertex 1 is malformed: helix 5 is not a string or null$"),
])
def test_graph_from_dict_rejects_malformed_documents(doc, message):
    with pytest.raises(FormatError, match=message):
        graph_from_dict(doc)


@pytest.mark.parametrize("line,message", [
    ("e 0 2", "^graph line 3 is malformed: \\[0, 2\\] does not join two of the 2 vertices$"),
    ("e 1 9", "^graph line 3 is malformed: \\[1, 9\\] does not join two of the 2 vertices$"),
    ("e 2 2", "^graph line 3 is malformed: \\[2, 2\\] does not join two of the 2 vertices$"),
    ("e x 2", "^graph line 3 is malformed: 'e x 2'$"),
    ("e 1", "^graph line 3 is malformed: 'e 1'$"),
    ("e 1 2 3", "^graph line 3 is malformed: 'e 1 2 3'$"),
    ("v3 7 20", "^graph line 3 is malformed: 'v3 7 20'$"),
    ("v3 20 7 4 -13 -13/4", "^graph line 3 is malformed: 'v3 20 7 4 -13 -13/4'$"),
    ("v3 2 24 4 22 11/2\ne 1 3",
     "^graph line 4 is malformed: \\[1, 3\\] joins two stems that share a base$"),
])
def test_parse_graph_text_rejects_malformed_lines(line, message):
    text = render_graph_text(graph_from_dict(_graph_doc(edges=[])))
    assert parse_graph_text(text).vertices  # the two vertex lines read back
    with pytest.raises(FormatError, match=message):
        parse_graph_text(text + line + "\n")


def test_documents_match_shipped_schemas(seq_2qux):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path
    from stemp.profiles import builtin_profile, profile_to_dict
    docs = Path(__file__).resolve().parents[1] / "docs"
    if not docs.is_dir():
        pytest.skip("schema docs not alongside the tests")
    graph, report = make_report(seq_2qux)
    jsonschema.validate(report_to_dict(report, seq=seq_2qux),
                        json.loads((docs / "report.schema.json").read_text()))
    jsonschema.validate(graph_to_dict(graph),
                        json.loads((docs / "graph.schema.json").read_text()))
    for name in ("protein", "trna", "rrna5s-archaeal"):
        jsonschema.validate(profile_to_dict(builtin_profile(name)),
                            json.loads((docs / "profile.schema.json").read_text()))


# ------------------------------------------------------------- JSON text

def test_report_text_equals_json_dumps(tmp_path):
    r76 = _random_76mer()
    _, report = run_pipeline(r76, resolve_profile("trna"))
    doc = report_to_dict(report, seq=r76, include_timing=True)
    assert _streamed(doc) == json.dumps(doc, indent=2) + "\n"
    path = tmp_path / "r.json"
    write_report(report, path, seq=r76)
    assert path.read_text() == json.dumps(report_to_dict(report, seq=r76), indent=2) + "\n"


@pytest.mark.parametrize("as_tuple", [False, True])
def test_write_report_renders_a_slice_at_a_time(tmp_path, monkeypatch, as_tuple):
    """``write_report`` writes ``report_to_dict``'s JSON text, for a ranking
    and for the tuple of its predictions, rendering no more than
    RENDER_SLICE predictions in one ``report_to_dict`` call."""
    r76 = _random_76mer()
    _, report = run_pipeline(r76, resolve_profile("trna"))
    if as_tuple:
        report = replace(report, predictions=tuple(report.predictions))
    expected = json.dumps(report_to_dict(report, seq=r76, include_timing=True), indent=2) + "\n"
    slices = []
    real = fileio.report_to_dict

    def spy(report, *args, **kwargs):
        slices.append(len(report.predictions))
        return real(report, *args, **kwargs)

    monkeypatch.setattr(fileio, "report_to_dict", spy)
    path = tmp_path / "r.json"
    write_report(report, path, seq=r76, include_timing=True)
    assert path.read_text() == expected
    assert sum(slices) == len(report.predictions) == 682
    assert max(slices) <= fileio.RENDER_SLICE and len(slices) > 1


def test_write_report_failing_mid_stream_leaves_the_file(tmp_path, monkeypatch,
                                                         failing_render):
    rng = random.Random(7)
    seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id="r76")
    _, report = run_pipeline(seq, resolve_profile("protein"))
    monkeypatch.setattr(fileio, "RENDER_SLICE", 1)  # so prediction 6 fails mid-stream
    path = tmp_path / "r.json"
    path.write_text("earlier report\n")
    failing_render("r76", 6)
    with pytest.raises(StempError, match="^rendering failed at prediction 6 of r76$"):
        write_report(report, path, seq=seq)
    assert path.read_text() == "earlier report\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ------------------------------------------------------------- streamed reports

def _streamed(doc) -> str:
    out = io.StringIO()
    stream_report(out, doc)
    return out.getvalue()


def _one_shot(report):
    """A report's document as report_to_dict gives it, predictions one-shot."""
    doc = dict(report)
    doc["predictions"] = iter(doc["predictions"])
    return doc


def test_stream_report_equals_dumps_indented(seq_2qux):
    r76 = _random_76mer()
    docs = []
    for seq, profile in ((seq_2qux, "protein"), (r76, "trna")):
        _, report = run_pipeline(seq, resolve_profile(profile))
        for timed in (False, True):
            docs.append(report_to_dict(replace(report, timing=0.25), seq=seq,
                                       include_timing=timed))
    empty = dict(docs[0], predictions=[])
    hollow = dict(docs[1], predictions=[_hollow_entry(docs[1])])
    for doc in docs + [empty, hollow]:
        expected = json.dumps(doc, indent=2) + "\n"
        assert _streamed(doc) == _streamed(_one_shot(doc)) == expected
    for reports in (docs, docs[:1], [empty, docs[1]], [hollow], []):
        report_set = {"schema": "stemp-report-set/1", "reports": reports}
        expected = json.dumps(report_set, indent=2) + "\n"
        assert _streamed(report_set) == expected
        lazy = dict(report_set, reports=map(_one_shot, reports))
        assert _streamed(lazy) == expected


def _hollow_entry(doc):
    """A prediction entry with empty vertex and pair lists, as a report read
    back by report_from_dict can hold."""
    entry = report_to_dict(report_from_dict(dict(doc, predictions=[
        dict(doc["predictions"][0], energy=0, vertices=[], pairs=[])])))["predictions"][0]
    assert entry["vertices"] == entry["pairs"] == []
    return entry


def test_entry_template_equals_the_encoder(seq_2qux):
    entries = []
    for seq, profile in ((seq_2qux, "protein"), (_random_76mer(), "trna")):
        _, report = run_pipeline(seq, resolve_profile(profile))
        for with_seq in (seq, None):  # None: every dot_bracket is None
            entries += report_to_dict(report, seq=with_seq)["predictions"]
    entries.append(_hollow_entry(report_to_dict(report)))
    assert len(entries) == 2 * (7 + 682) + 1
    for nl in ("\n    ", "\n        "):  # a report's depth, a report set's depth
        entry_text = fileio._entry_writer(nl)
        for entry in entries:
            assert entry_text(entry) == json.dumps(entry, indent=2).replace("\n", nl)


# ------------------------------------------------------------- rendering by helix

def _rendered(report, seq):
    """``report_to_dict``'s document of ``report`` and its streamed text, or
    the type and text of what it raised."""
    try:
        doc = report_to_dict(report, seq=seq)
    except StempError as exc:
        return type(exc), str(exc)
    return doc, _streamed(doc)


def _renders_as_its_pairs(report, seq, part=512):
    """Checks that a ranking renders as the same report holding its
    FoldPredictions, ``part`` predictions at a time: the same document,
    the same streamed text, or the same error. That error, or None."""
    ranked = report.predictions
    for start in range(0, max(len(ranked), 1), part):
        keys = ranked.keys[start:start + part]
        by_helix = replace(report, predictions=RankedPredictions(ranked.graph, keys,
                                                                 ranked.ranks))
        got = _rendered(by_helix, seq)
        assert got == _rendered(replace(by_helix, predictions=tuple(by_helix.predictions)), seq)
        if not isinstance(got[0], dict):
            return got
        assert all(type(entry["pairs"]) is HelixPairs for entry in got[0]["predictions"])
    return None


def test_gapped_5s_reports_render_by_helix_as_by_pair(monkeypatch):
    gen = load_perfbench("gen", monkeypatch)
    monkeypatch.setattr(gen, "rrna5s_planner", functools.cache(gen.rrna5s_planner))
    census = load_perfbench("workloads", monkeypatch).WORKLOADS["census"]
    reports = gapped = failed = 0
    for index in range(census.size):
        case, profile = census.entry(index)
        if not profile.startswith("rrna5s"):
            continue
        seq = parse_sequence(case.residues, id=case.id)
        for use_gsl in (True, False):
            cfg = replace(resolve_profile(profile), use_gsl=use_gsl)
            try:
                graph, report = run_pipeline(seq, cfg, max_cliques=5000)
            except BudgetExceeded:
                continue
            reports += 1
            gapped += sum(len(stem.helices) > 1 for stem in graph.vertices)
            failed += _renders_as_its_pairs(report, seq) is not None
    assert (reports, gapped, failed) == (107, 1171, 13)


def test_protein_76mers_render_by_helix_as_by_pair():
    errors = []
    for seed in (3, 6, 7, 8):
        rng = random.Random(seed)
        seq = parse_sequence("".join(rng.choice("ACGU") for _ in range(76)), id=f"p{seed}")
        _, report = run_pipeline(seq, resolve_profile("protein"))
        errors.append(_renders_as_its_pairs(report, seq))
    assert errors == [None, None, (TooManyLayers, "pair (22,75) needs a fifth bracket tier"),
                      None]


def test_empty_rankings_and_report_sets_render_by_helix_as_by_pair(seq_2qux):
    empty = rank_predictions(build_stem_graph([]), [], sequence_id="none")
    assert _renders_as_its_pairs(empty, seq_2qux) is None
    r76 = _random_76mer()
    docs = {"helix": [], "pair": []}
    for seq, profile in ((seq_2qux, "protein"), (r76, "trna")):
        _, report = run_pipeline(seq, resolve_profile(profile))
        docs["helix"].append(report_to_dict(report, seq=seq))
        docs["pair"].append(report_to_dict(
            replace(report, predictions=tuple(report.predictions)), seq=seq))
    docs["helix"].append(report_to_dict(empty, seq=seq_2qux))
    docs["pair"].append(report_to_dict(replace(empty, predictions=()), seq=seq_2qux))
    texts = {way: _streamed({"schema": fileio.REPORT_SET_SCHEMA, "reports": reports})
             for way, reports in docs.items()}
    assert texts["helix"] == texts["pair"] == json.dumps(
        {"schema": fileio.REPORT_SET_SCHEMA, "reports": docs["pair"]}, indent=2) + "\n"


def test_helix_texts_are_kept_for_one_report_only(seq_2qux, monkeypatch):
    memos = []  # per writer built, the helices of the entries it wrote
    writer = fileio._entry_writer

    def spied(nl):
        text = writer(nl)
        memo = set()
        memos.append(memo)

        def spy(entry):
            memo.update(entry["pairs"].helices)
            return text(entry)
        return spy

    monkeypatch.setattr(fileio, "_entry_writer", spied)
    docs = []
    for seq, profile in ((_random_76mer(), "trna"), (seq_2qux, "protein")):
        _, report = run_pipeline(seq, resolve_profile(profile))
        docs.append(report_to_dict(report, seq=seq))
    helices = [{h for entry in doc["predictions"] for h in entry["pairs"].helices}
               for doc in docs]
    assert len(helices[0]) > len(helices[1]) > 0
    _streamed(docs[0])
    _streamed({"schema": fileio.REPORT_SET_SCHEMA, "reports": docs})
    # one writer, and so one memo, per report written, for that report's
    # helices and no more
    assert memos == [helices[0], helices[0], helices[1]]


def test_pair_lists_are_never_shared(seq_2qux):
    r76 = _random_76mer()
    _, report = run_pipeline(r76, resolve_profile("trna"))
    docs = [report_to_dict(report, seq=r76) for _ in range(2)]
    lists = [pair for doc in docs for entry in doc["predictions"] for pair in entry["pairs"]]
    assert len(lists) > 2 * 682
    assert len({id(pair) for pair in lists}) == len(lists)

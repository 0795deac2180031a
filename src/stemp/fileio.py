"""File formats: FASTA, connectivity tables, dot-bracket, and JSON documents.

All parsers are pure and reentrant. JSON documents (reports, graph dumps,
profiles) round-trip: parsing a serialized document reproduces the original
object. Schemas are documented under docs/.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .cliques import FoldPrediction, PredictionReport, RankedPredictions
from .errors import (AsymmetricPair, FormatError, IndexOutOfRange,
                     InvalidCharacter, StempError, TooManyLayers)
from .metrics import ReferenceStructure
from .seq import Sequence, parse_sequence
from .stems import (MIN_PAIR_GAP, GapPattern, Pair, Stem, StemGraph, check_pairs,
                    helix_runs)

BRACKET_TIERS = ("()", "[]", "{}", "<>")
# Unpaired bases; every other character of a structure is a bracket of
# BRACKET_TIERS.
_UNPAIRED = "._-,:"
_OPEN = {pair[0]: tier for tier, pair in enumerate(BRACKET_TIERS)}
_CLOSE = {pair[1]: tier for tier, pair in enumerate(BRACKET_TIERS)}


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file less one leading U+FEFF; other bytes are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def read_json(path: str | Path):
    """The JSON value of a UTF-8 file; text that is not JSON is a
    FormatError naming the file and, where it has one, the line and column."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not JSON: {exc.msg} at line {exc.lineno}, "
                          f"column {exc.colno}") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply to read") from None


# ---------------------------------------------------------------- FASTA

def read_fasta(path: str | Path) -> list[Sequence]:
    """All records of a FASTA file, in file order.

    A record id is the header text up to the first whitespace. Residues are
    normalized by parse_sequence; offending characters are reported with the
    record id and the line they sit on.
    """
    lines = read_text(path).splitlines()
    records: list[tuple[str, list[tuple[int, str]]]] = []
    for line_no, line in enumerate(lines, start=1):
        if line.startswith(">"):
            header = line[1:].strip()
            rec_id = header.split()[0] if header else ""
            records.append((rec_id, []))
        elif line.strip():
            if not records:
                raise FormatError(f"{path}: line {line_no}: sequence data before a '>' header")
            records[-1][1].append((line_no, line))
    out = []
    for rec_id, body in records:
        text = "".join(chunk for _, chunk in body)
        try:
            out.append(parse_sequence(text, id=rec_id))
        except InvalidCharacter as exc:
            raise InvalidCharacter(exc.position, exc.char, record=rec_id,
                                   line=_line_of(body, exc.position)) from None
    return out


def _line_of(body: list[tuple[int, str]], position: int) -> int:
    """The number of the line holding the ``position``-th residue that
    parse_sequence keeps, which lies within the body."""
    for line_no, chunk in body:
        position -= sum(1 for ch in chunk if not (ch.isspace() or ch.isdigit()))
        if position <= 0:
            return line_no


# ---------------------------------------------------------------- CT

def parse_ct(text: str, id_hint: str = "") -> ReferenceStructure:
    """Parse one connectivity table.

    Header: length plus optional title. Body: one line per residue with
    columns "index base prev next pair_index orig_index"; pair_index 0 means
    unpaired. Mutual pairing is enforced (AsymmetricPair otherwise).
    """
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise FormatError("empty CT file")
    head = lines[0].split(None, 1)
    try:
        length = int(head[0])
    except ValueError:
        raise FormatError(f"CT header must start with the length: {lines[0]!r}") from None
    title = head[1].strip() if len(head) > 1 else ""
    body = lines[1:]
    if len(body) != length:
        raise FormatError(f"CT header says {length} residues, body has {len(body)} lines")
    partners = [0] * (length + 1)
    bases = []
    for expect, line in enumerate(body, start=1):
        cols = line.split()
        if len(cols) < 5:
            raise FormatError(f"CT line {expect} has {len(cols)} columns, need at least 5")
        try:
            idx, partner = int(cols[0]), int(cols[4])
        except ValueError:
            raise FormatError(f"CT line {expect}: index and pair columns must be "
                              f"integers: {line!r}") from None
        if idx != expect:
            raise FormatError(f"CT line {expect} is numbered {idx}")
        if partner < 0 or partner > length:
            raise IndexOutOfRange(partner, length)
        if partner == idx:
            raise FormatError(f"CT line {idx} pairs with itself")
        partners[idx] = partner
        base = cols[1].upper().replace("T", "U")
        bases.append(base if len(base) == 1 else "N")
    pairs = set()
    for i in range(1, length + 1):
        j = partners[i]
        if j == 0:
            continue
        if partners[j] != i:
            raise AsymmetricPair(i, j)
        if i < j:
            pairs.add((i, j))
    return ReferenceStructure(id=title or id_hint, length=length,
                              pairs=frozenset(pairs), source="ct",
                              bases="".join(bases))


def read_ct(path: str | Path) -> ReferenceStructure:
    path = Path(path)
    return parse_ct(read_text(path), id_hint=path.stem)


def write_ct(seq: Sequence, pairs: Iterable[Pair], title: str | None = None) -> str:
    """Render a connectivity table for a sequence and its pairs, either way
    round, that ``check_pairs`` takes as (min, max)."""
    n = seq.length
    pairs = [(min(p, q), max(p, q)) for p, q in pairs]
    check_pairs(pairs, n)
    partner = [0] * (n + 1)
    for p, q in pairs:
        partner[p] = q
        partner[q] = p
    lines = [f"{n} {title if title is not None else seq.id}".rstrip()]
    for k in range(1, n + 1):
        nxt = k + 1 if k < n else 0
        lines.append(f"{k} {seq.base(k)} {k - 1} {nxt} {partner[k]} {k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- dot-bracket

class HelixPairs(list):
    """The pairs of some stems, sorted, as fresh ``[p, q]`` lists.

    ``helices`` holds the stems' helices (``Stem.helices``), sorted, for
    ``write_dot_bracket`` and ``stream_report`` to work one helix at a
    time; ``bases``, the OR of the stems' ``Stem.base_mask``, shows
    ``write_dot_bracket`` that the pairs are valid: no bit past n, and two
    bits a pair. Both are read, not the items, so a HelixPairs is for
    reading: edit a copy of it. ``table`` is the TierTable that
    ``write_dot_bracket`` lays the helices out by, at any sequence length:
    ``report_to_dict`` sets its graph's, else it is None and a new one
    serves the one call.
    """

    __slots__ = ("helices", "bases", "table")

    def __init__(self, stems: Iterable[Stem]):
        pairs: list[Pair] = []
        helices: list[tuple[int, int, int]] = []
        bases = 0
        for stem in stems:
            pairs += stem.pairs
            helices += stem.helices
            bases |= stem.base_mask
        pairs.sort()
        helices.sort()
        self += map(list, pairs)
        self.helices = helices
        self.bases = bases
        self.table = None


def write_dot_bracket(seq: Sequence | int, pairs: Iterable[Pair]) -> str:
    """Render pairs as dot-bracket text, pseudoknots on higher tiers.

    Greedy layering: pairs sorted by first index go to the lowest tier of
    ( ) [ ] { } < > whose pairs they do not cross. More than four tiers
    raises TooManyLayers. Greedy is not minimal: it can open a tier that a
    different assignment would not need (Smit et al., RNA 2008).

    The sorted pairs are checked first (``check_pairs``), and nothing is
    laid out if they fail; a HelixPairs is checked by its ``bases``, and by
    ``check_pairs`` only where they show a bad pair. Valid pairs are laid
    out a run of stacked pairs at a time by a ``TierTable``: a HelixPairs'
    helices through its ``table`` if it has one, other pairs' ``helix_runs``
    through a new one.
    """
    n = seq if isinstance(seq, int) else seq.length
    if type(pairs) is HelixPairs:
        if pairs.bases.bit_length() > n + 1 or pairs.bases.bit_count() != 2 * len(pairs):
            check_pairs(pairs, n)
        return (pairs.table or TierTable()).text(pairs.helices, n)
    pairs = sorted(pairs)
    check_pairs(pairs, n)
    return TierTable().text(helix_runs(pairs), n)


# What a bracket of each tier adds to a "." byte: (opening, closing).
_STAMP_DELTAS = tuple((ord(o) - ord("."), ord(c) - ord(".")) for o, c in BRACKET_TIERS)


class TierTable:
    """The greedy bracket tiers of runs of stacked pairs, at any length.

    ``text`` lays out sorted runs (p, q, k), each the k pairs (p, q),
    (p+1, q-1), ..., one at a time: each on the lowest tier that no run
    before it that crosses it holds. The runs of a tier nest, and each run
    before (p, q, k) opens before p, so one of them crosses it iff it
    closes inside (p, q): a tier is refused iff the mask of its runs'
    closings meets the mask of the bases inside (p, q).

    ``text`` checks nothing: ``write_dot_bracket`` hands it only runs whose
    pairs it has checked. ``entries`` maps each run laid out to what that
    needs, built once and kept for every length:

    - the mask of the bases strictly inside its outer pair, and the bit of
      its outer closing;
    - per tier, what putting it there adds to the integer whose
      little-endian bytes are the text of dots, or 0 until first needed.

    ``dots`` holds each length's text of dots.

    This is greedy layering of the runs' pairs, sorted, wherever no base is
    in two pairs. Greedy puts a pair on the lowest tier that holds no pair
    it crosses. No other pair has a base inside a run's two strands, so
    each pair of a run crosses the same pairs as its first, and those
    before it cross none of them; so the run takes one tier, and two runs
    cross iff their outer pairs do.
    """

    __slots__ = ("dots", "entries")

    def __init__(self):
        self.dots: dict[int, int] = {}
        self.entries: dict[tuple[int, int, int], list[int]] = {}

    def text(self, runs: Iterable[tuple[int, int, int]], n: int) -> str:
        """The text on n bases of sorted ``runs`` of checked pairs; a run
        that needs a fifth tier is TooManyLayers naming its first pair."""
        n = max(n, 0)
        entries = self.entries
        closings = [0] * (len(BRACKET_TIERS) + 1)  # per tier; the last holds none
        total = self.dots.get(n)
        if total is None:
            total = self.dots[n] = int.from_bytes(b"." * n, "little")
        for run in runs:
            entry = entries.get(run)
            if entry is None:
                p, q, _ = run
                entry = entries[run] = [(1 << q) - (2 << p), 1 << q, *[0] * len(BRACKET_TIERS)]
            inside = entry[0]
            tier = 0
            while inside & closings[tier]:
                tier += 1
            if tier == len(BRACKET_TIERS):
                raise TooManyLayers(f"pair ({run[0]},{run[1]}) needs a fifth bracket tier")
            closings[tier] |= entry[1]
            total += entry[2 + tier] or _stamp(entry, run, tier)
        return total.to_bytes(n, "little").decode("ascii")


def _stamp(entry: list[int], run: tuple[int, int, int], tier: int) -> int:
    """What putting ``run`` on ``tier`` adds to the text's integer, kept in
    its ``entry``."""
    p, q, k = run
    ones = int.from_bytes(b"\1" * k, "little")
    up, down = _STAMP_DELTAS[tier]
    entry[2 + tier] = (up * ones << 8 * (p - 1)) + (down * ones << 8 * (q - k))
    return entry[2 + tier]


def _graph_tiers(graph: StemGraph) -> TierTable:
    """The TierTable of ``graph``'s helices, built once for all the slices
    of its reports, at any length: kept in the graph's ``__dict__``, beside
    its cached properties, so that it lives no longer than the graph."""
    table = graph.__dict__.get("_tier_table")
    if table is None:
        table = graph.__dict__["_tier_table"] = TierTable()
    return table


def parse_dot_bracket(text: str) -> frozenset[Pair]:
    """Pairs (1-based) encoded by a dot-bracket string in the tiers of BRACKET_TIERS."""
    opened: list[list[int]] = [[] for _ in BRACKET_TIERS]  # per tier, its open brackets
    pairs = set()
    for pos, ch in enumerate(text.strip(), start=1):
        if ch in _UNPAIRED:
            continue
        if ch in _OPEN:
            opened[_OPEN[ch]].append(pos)
        elif ch in _CLOSE:
            stack = opened[_CLOSE[ch]]
            if not stack:
                raise FormatError(f"unmatched {ch!r} at position {pos}")
            pairs.add((stack.pop(), pos))
        else:
            raise FormatError(f"unexpected character {ch!r} at position {pos}")
    for tier, stack in zip(BRACKET_TIERS, opened):
        if stack:
            raise FormatError(f"unmatched {tier[0]!r} at position {stack[-1]}")
    return frozenset(pairs)


def read_dot_bracket(path: str | Path) -> ReferenceStructure:
    """Reference from a .dbn-style file, read by line position. Of its
    non-blank lines, a first one starting with '>' is the header and the
    last is the structure; at most one line, of letters only, comes between
    them, the sequence. Any other line is a FormatError naming its number,
    as is a structure that parse_dot_bracket refuses."""
    path = Path(path)
    lines = [(number, line) for number, line
             in enumerate(map(str.strip, read_text(path).splitlines()), start=1) if line]
    name = path.stem
    if lines and lines[0][1].startswith(">"):
        name = (lines.pop(0)[1][1:].split() or [name])[0]
    if not lines:
        raise FormatError(f"{path}: no dot-bracket line found")
    *middle, (number, structure) = lines
    try:
        pairs = parse_dot_bracket(structure)
    except FormatError as exc:
        raise FormatError(f"{path}: line {number}: {exc}") from None
    for k, (number, line) in enumerate(middle):
        if k or not line.isalpha():
            raise FormatError(f"{path}: line {number} is not the header, the sequence or the "
                              "structure line; a reference holds one record")
    bases = middle[0][1].upper().replace("T", "U") if middle else None
    if bases is not None and len(bases) != len(structure):
        raise FormatError(f"{path}: sequence and structure lengths differ")
    return ReferenceStructure(id=name, length=len(structure), pairs=pairs,
                              source="dotbracket", bases=bases)


def read_reference(path: str | Path) -> ReferenceStructure:
    """Dispatch on extension: .ct is a connectivity table, otherwise .dbn."""
    path = Path(path)
    if path.suffix.lower() == ".ct":
        return read_ct(path)
    return read_dot_bracket(path)


# ---------------------------------------------------------------- reports

REPORT_SCHEMA = "stemp-report/1"
REPORT_SET_SCHEMA = "stemp-report-set/1"
GRAPH_SCHEMA = "stemp-graph/1"
# The largest base index a graph file may name: far above any sequence whose
# stem graph can be searched, and small enough that no vertex within it
# holds more pairs than memory does.
MAX_GRAPH_BASE_INDEX = 10 ** 6
# Predictions per report_to_dict call while a report is written. A slice's
# dicts and pair lists (about 25 objects a prediction) are freed before the
# collector's youngest generation fills (700 allocations by default), so
# they are never promoted: on a 41k-prediction report, slices of 1024 spent
# ~0.45 s in cyclic GC, slices of 16 ~0.06 s.
RENDER_SLICE = 16
# A prediction entry of report_to_dict, in key order; the first four are ints.
_ENTRY_KEYS = ("rank_scr", "rank_dr", "multiplicity", "energy", "vertices", "pairs",
               "dot_bracket")


def report_to_dict(report: PredictionReport, seq: Sequence | None = None,
                   include_timing: bool = False) -> dict:
    """JSON-ready form of a report; timing only on request so that repeated
    runs serialize byte-identically.

    A RankedPredictions is rendered one energy block at a time from its
    graph's stems, building no FoldPrediction: each prediction's
    ``"pairs"`` is a HelixPairs of its stems, which equals the list of its
    sorted pairs, laid out one helix at a time through the graph's
    TierTable, built once for every slice of its reports."""
    predictions = report.predictions
    if isinstance(predictions, RankedPredictions):
        by_number = (None, *predictions.graph.vertices)
        table = _graph_tiers(predictions.graph)
        entries = []
        for energy, _, block in predictions.blocks(first=1):
            scr, dr, multiplicity = predictions.ranks[energy]
            for numbers in block:
                pairs = HelixPairs(map(by_number.__getitem__, numbers))
                pairs.table = table
                entries.append({
                    "rank_scr": scr,
                    "rank_dr": dr,
                    "multiplicity": multiplicity,
                    "energy": energy,
                    "vertices": numbers,
                    "pairs": pairs,
                    "dot_bracket": write_dot_bracket(seq, pairs) if seq is not None else None,
                })
    else:
        entries = [
            {
                "rank_scr": p.scr,
                "rank_dr": p.dr,
                "multiplicity": p.multiplicity,
                "energy": p.energy,
                "vertices": [v + 1 for v in p.vertices],
                "pairs": list(map(list, p.pairs)),
                "dot_bracket": write_dot_bracket(seq, p.pairs) if seq is not None else None,
            }
            for p in predictions
        ]
    doc = {
        "schema": REPORT_SCHEMA,
        "sequence_id": report.sequence_id,
        "profile": report.profile,
        "predictions": entries,
    }
    if include_timing:
        doc["timing_seconds"] = report.timing
    return doc


# The Python types that json.loads gives each JSON kind a schema names.
_KINDS = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
          "integer or string": (int, str), "list": list, "object": dict}


def json_value(value, name: str, kind: str, least: int | None = None, nullable: bool = False):
    """``value`` if it is of JSON ``kind`` (a key of _KINDS) and not below
    ``least`` if that is given, or None if ``nullable``; else a ValueError
    naming ``name``, and the value unless it should be a list or object. A
    bool is of no kind but "boolean"; a list or object may be a subclass
    (report_to_dict's pairs are a HelixPairs)."""
    if value is None and nullable:
        return value
    if not isinstance(value, _KINDS[kind]) or type(value) is bool and kind != "boolean":
        shown = "" if kind in ("list", "object") else f" {json.dumps(value, default=repr)}"
        raise ValueError(f"{name}{shown} is not {'an' if kind[0] in 'aio' else 'a'} {kind}"
                         + (" or null" if nullable else ""))
    if least is not None and value < least:
        raise ValueError(f"{name} {value} is below {least}")
    return value


def json_document(doc, schema: str, what: str, error: type[StempError] = FormatError) -> None:
    """An ``error`` unless ``doc`` is an object whose "schema" is ``schema``."""
    if not isinstance(doc, dict):
        raise error(f"not a {what} document: the top level is a {type(doc).__name__}")
    if doc.get("schema") != schema:
        raise error(f"not a {what} document: schema={doc.get('schema')!r}")


def _pairs(value) -> tuple[tuple[int, int], ...]:
    """Pairs (p, q) of ints that ``check_pairs`` takes; anything else is a
    ValueError or IndexOutOfRange."""
    pairs = tuple((json_value(p, "pair index", "integer"), json_value(q, "pair index", "integer"))
                  for p, q in (json_value(pair, "pair", "list") for pair in value))
    check_pairs(pairs)
    return pairs


def report_from_dict(doc: dict) -> PredictionReport:
    """A report read back from its document, which must hold what
    docs/report.schema.json asks: every rank, count, vertex and pair index
    an int, each rank, multiplicity and vertex at least 1 and each energy at
    least 0; each prediction's pairs what ``check_pairs`` takes, and as many
    as its energy; a dot-bracket a string or null, the sequence id and
    profile strings and the timing a number or null. Anything else is a
    FormatError that names the prediction (or the report)."""
    json_document(doc, REPORT_SCHEMA, "report")
    where = "report"
    try:
        preds = []
        for rank, entry in enumerate(json_value(doc["predictions"], "predictions", "list"),
                                     start=1):
            where = f"prediction {rank}"
            json_value(entry, "it", "object")
            pred = FoldPrediction(
                vertices=tuple(json_value(v, "vertex", "integer", 1) - 1
                               for v in json_value(entry["vertices"], "vertices", "list")),
                energy=json_value(entry["energy"], "energy", "integer", 0),
                pairs=_pairs(json_value(entry["pairs"], "pairs", "list")),
                scr=json_value(entry["rank_scr"], "rank_scr", "integer", 1),
                dr=json_value(entry["rank_dr"], "rank_dr", "integer", 1),
                multiplicity=json_value(entry["multiplicity"], "multiplicity", "integer", 1),
            )
            json_value(entry["dot_bracket"], "dot_bracket", "string", nullable=True)
            if pred.energy != len(pred.pairs):
                raise ValueError(f"energy {pred.energy} is not its pair count {len(pred.pairs)}")
            preds.append(pred)
        where = "report"
        report = PredictionReport(
            sequence_id=json_value(doc["sequence_id"], "sequence_id", "string"),
            profile=json_value(doc["profile"], "profile", "string"),
            predictions=tuple(preds),
            timing=json_value(doc.get("timing_seconds"), "timing_seconds", "number",
                              nullable=True))
    except KeyError as exc:
        raise FormatError(f"{where} has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError, IndexOutOfRange) as exc:
        raise FormatError(f"{where} is malformed: {exc}") from None
    if preds and not report.top_ranked():
        raise FormatError("report has predictions but none with rank_scr 1")
    return report


def stream_report(out: TextIO, doc: dict) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` to ``out`` a piece at a time.

    ``doc`` is a report document, as ``report_to_dict`` builds it, or a
    report set ``{"schema": REPORT_SET_SCHEMA, "reports": [...]}`` of them.
    A report's ``"predictions"`` and a set's ``"reports"`` may be any
    iterables: each is read once, and each item is written as it comes, so
    neither the whole text nor the whole document need exist at once.
    Prediction entries are written from ``_entry_writer``'s template, and
    every other value by ``json.dumps``.
    """
    def write_dict(doc: dict, nl: str, streamed: str, write_item) -> None:
        # doc at indent nl; write_item(item, nl) writes each item of doc[streamed]
        inner = nl + "  "
        for k, (key, value) in enumerate(doc.items()):
            out.write(f"{',' if k else '{'}{inner}{json.dumps(key)}: ")
            if key != streamed:
                out.write(json.dumps(value, indent=2).replace("\n", inner))
                continue
            opening = "["
            for item in value:
                out.write(opening + inner + "  ")
                write_item(item, inner + "  ")
                opening = ","
            out.write("[]" if opening == "[" else inner + "]")
        out.write(nl + "}")

    def write_report(report: dict, nl: str) -> None:
        entry_text = _entry_writer(nl + "    ")  # this report's own, freed with it
        write_dict(report, nl, "predictions", lambda entry, _: out.write(entry_text(entry)))

    if doc.get("schema") == REPORT_SET_SCHEMA:
        write_dict(doc, "\n", "reports", write_report)
    else:
        write_report(doc, "\n")
    out.write("\n")


def _entry_writer(nl: str):
    """A function giving a ``report_to_dict`` prediction entry as
    ``json.dumps(entry, indent=2)`` writes it at indent ``nl``.

    It writes the pairs one run of stacked pairs at a time (a HelixPairs'
    helices, else the ``helix_runs`` of the list), from the text of each
    run, kept for every later entry it writes: build one writer per report,
    so that it holds only that report's runs.

    The entry needs report_to_dict's key order, and ints where it puts ints:
    %d and str would write a bool as 1 or True and cut a float short.
    ``report_from_dict`` checks that of every report it reads.
    """
    member, item, leaf = nl + "  ", nl + "    ", nl + "      "
    template = "{" + ",".join(f'{member}"{key}": %{"d" if k < 4 else "s"}'
                              for k, key in enumerate(_ENTRY_KEYS)) + nl + "}"
    sep = "," + item
    pair = f"[{leaf}%d,{leaf}%d{item}]"

    helix_texts: dict[tuple[int, int, int], str] = {}
    get = helix_texts.get

    def helix_text(helix: tuple[int, int, int]) -> str:
        p, q, k = helix
        text = helix_texts[helix] = sep.join([pair] * k) % tuple(chain.from_iterable(
            (p + t, q - t) for t in range(k)))
        return text

    def text(entry: dict) -> str:
        scr, dr, multiplicity, energy, vertices, pairs, dot = entry.values()
        runs = pairs.helices if type(pairs) is HelixPairs else helix_runs(pairs)
        parts = [get(helix) or helix_text(helix) for helix in runs]
        return template % (
            scr, dr, multiplicity, energy,
            f"[{item}{sep.join(map(str, vertices))}{member}]" if vertices else "[]",
            f"[{item}{sep.join(parts)}{member}]" if parts else "[]",
            "null" if dot is None else encode_basestring_ascii(dot))
    return text


def sliced_report(report: PredictionReport, seq: Sequence | None, include_timing: bool,
                  render: Callable[..., dict],
                  between: Callable[[], object] = lambda: None) -> dict:
    """``report_to_dict``'s document of ``report``, rendered by ``render``
    (``report_to_dict`` or a stand-in for it) RENDER_SLICE predictions at a
    time, as ``stream_report`` reads them: each slice is one ``render``
    call, and ``between()`` runs before each slice but the first. A
    RankedPredictions is sliced by its ``window``, so that no FoldPrediction
    is built."""
    predictions = report.predictions
    size = RENDER_SLICE

    def part(start: int) -> PredictionReport:
        if isinstance(predictions, RankedPredictions):
            return replace(report, predictions=predictions.window(start, start + size))
        return replace(report, predictions=predictions[start:start + size])

    def entries(batch: list):
        for start in range(size, len(predictions), size):
            yield from batch
            between()
            batch = render(part(start), seq=seq)["predictions"]
        yield from batch

    doc = render(part(0), seq=seq, include_timing=include_timing)
    doc["predictions"] = entries(doc["predictions"])
    return doc


@contextmanager
def replacing(path: str | Path | None):
    """A text file that becomes ``path`` (a Path of a regular file or of
    none yet), or is copied to stdout without one, only once the
    block completes; until then ``path`` and stdout are untouched, and on an
    error the file is deleted. A ``path`` that is not a regular file
    (``/dev/null``, a pipe) is not replaced but, like stdout, written from
    the finished file."""
    if not path or os.path.exists(path) and not os.path.isfile(path):
        with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
            yield out
            out.seek(0)
            if not path:
                shutil.copyfileobj(out, sys.stdout)
            else:
                with open(path, "w", encoding="utf-8") as sink:
                    shutil.copyfileobj(out, sink)
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    out = temporary.open("x", encoding="utf-8")
    try:
        with out:
            yield out
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_report(report: PredictionReport, path: str | Path,
                 seq: Sequence | None = None, include_timing: bool = False) -> None:
    """Write ``report``'s document to ``path``, RENDER_SLICE predictions
    rendered at a time; ``path`` is replaced only once the text is whole."""
    doc = sliced_report(report, seq, include_timing, report_to_dict)
    with replacing(Path(path)) as out:
        stream_report(out, doc)


def read_report(path: str | Path) -> PredictionReport:
    return report_from_dict(read_json(path))


# ---------------------------------------------------------------- graph dumps

def _stem_to_dict(stem: Stem) -> dict:
    return {
        "i": stem.i,
        "j": stem.j,
        "length": stem.length,
        "span": stem.span,
        "sl": str(stem.sl),
        "pattern": stem.pattern.render() if stem.pattern else None,
        "helix": stem.helix,
    }


def _rebuild_stem(i: int, j: int, length: int, span: int, sl: str,
                  pattern: str | None, helix: str | None, where: str, error: str) -> Stem:
    """A dumped vertex from its outer pair and gap notation. ValueError
    when no stem of ``length`` pairs has the outer pair (i, j). FormatError
    naming ``where`` for a base index past MAX_GRAPH_BASE_INDEX, and
    FormatError ``error`` when its innermost pair would join bases less than
    MIN_PAIR_GAP apart, or its length, span or score is not the dump's; the
    first two are checked before any pair is built."""
    if not (i < j and (pattern or length >= 1)):
        raise ValueError(f"no stem of length {length} has the outer pair ({i}, {j})")
    if j > MAX_GRAPH_BASE_INDEX:
        raise FormatError(f"{where}: base index {j} is past {MAX_GRAPH_BASE_INDEX}, "
                          f"the largest a graph file may name")
    shape = GapPattern.parse(pattern) if pattern else GapPattern((length,), ())
    if j - i - shape.inset < MIN_PAIR_GAP:  # the innermost pair's q - p
        raise FormatError(error)
    stem = Stem(shape.pairs(i, j), helix)
    if stem.length != length or stem.span != span or str(stem.sl) != sl:
        raise FormatError(error)
    return stem


def _graph_of(vertices, edges) -> StemGraph:
    """A graph from its vertices and its edges, each (where, u, v) with
    1-based int u and v; FormatError names ``where`` for an edge that does not
    join two different vertices, or joins two stems that share a base."""
    n = len(vertices)
    masks = [0] * n
    # sets, not base masks: a mask is as wide as its highest base index
    bases = [{x for pair in stem.pairs for x in pair} for stem in vertices]
    for where, u, v in edges:
        if not (1 <= min(u, v) and max(u, v) <= n and u != v):
            raise FormatError(f"{where} is malformed: [{u}, {v}] does not join two "
                              f"of the {n} vertices")
        if not bases[u - 1].isdisjoint(bases[v - 1]):
            raise FormatError(f"{where} is malformed: [{u}, {v}] joins two stems that "
                              f"share a base")
        masks[u - 1] |= 1 << v - 1
        masks[v - 1] |= 1 << u - 1
    return StemGraph(vertices=tuple(vertices), neighbor_masks=tuple(masks))


def graph_to_dict(graph: StemGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "vertices": [_stem_to_dict(s) for s in graph.vertices],
        "edges": [[u + 1, v + 1] for u, v in graph.edges],
    }


def graph_from_dict(doc: dict) -> StemGraph:
    """A graph read back from its document, which must hold what
    docs/graph.schema.json asks: lists of vertices and of edges, each
    vertex's i, j, length and span ints of at least 1, its score a string
    and its pattern and helix strings or null. Anything else is a
    FormatError naming the vertex, the edge or the graph."""
    json_document(doc, GRAPH_SCHEMA, "graph")
    where = "graph"
    try:
        vertices = []
        for number, e in enumerate(json_value(doc["vertices"], "vertices", "list"), start=1):
            where = f"vertex {number}"
            json_value(e, "it", "object")
            i, j, length, span = (json_value(e[key], key, "integer", 1)
                                  for key in ("i", "j", "length", "span"))
            vertices.append(_rebuild_stem(
                i, j, length, span, json_value(e["sl"], "sl", "string"),
                json_value(e.get("pattern"), "pattern", "string", nullable=True),
                json_value(e.get("helix"), "helix", "string", nullable=True), where,
                f"inconsistent stem entry: {e}"))
        where = "graph"
        edges = []
        for number, edge in enumerate(json_value(doc["edges"], "edges", "list"), start=1):
            where = f"edge {number}"
            u, v = (json_value(end, "vertex number", "integer")
                    for end in json_value(edge, "it", "list"))
            edges.append((where, u, v))
    except KeyError as exc:
        raise FormatError(f"{where} has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where} is malformed: {exc}") from None
    return _graph_of(vertices, edges)


def render_graph_text(graph: StemGraph) -> str:
    """Line dump: one vertex per line, then one edge per line. A vertex
    line ends with its pattern, then ``helix=`` and its helix's name as a
    JSON string, where it has them."""
    lines = []
    for k, s in enumerate(graph.vertices, start=1):
        pat = f" {s.pattern.render()}" if s.pattern else ""
        helix = f" helix={json.dumps(s.helix)}" if s.helix is not None else ""
        lines.append(f"v{k} {s.i} {s.j} {s.length} {s.span} {s.sl}{pat}{helix}")
    for u, v in graph.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> StemGraph:
    """Inverse of render_graph_text; FormatError names a bad line."""
    vertices: list[Stem] = []
    edges: list[tuple[str, int, int]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cols = line.split()
        try:
            if cols[0].startswith("v"):
                head, marked, helix = line.partition(" helix=")
                cols = head.split()
                if cols[0] != f"v{len(vertices) + 1}" or len(cols) > 7:
                    raise ValueError  # a wrong number, or a column past the pattern
                i, j, length, span = (int(x) for x in cols[1:5])
                pattern = cols[6] if len(cols) > 6 else None
                vertices.append(_rebuild_stem(
                    i, j, length, span, cols[5], pattern,
                    json_value(json.loads(helix), "helix", "string") if marked else None,
                    f"graph line {number}", f"inconsistent vertex line: {line!r}"))
            elif cols[0] == "e":
                _, u, v = cols
                edges.append((f"graph line {number}", int(u), int(v)))
            else:
                raise FormatError(f"unrecognized graph line: {line!r}")
        except (IndexError, ValueError, RecursionError):
            raise FormatError(f"graph line {number} is malformed: {line!r}") from None
    return _graph_of(vertices, edges)

"""File formats: FASTA, connectivity tables, dot-bracket, and JSON documents.

All parsers are pure and reentrant. JSON documents (reports, graph dumps,
profiles) round-trip: parsing a serialized document reproduces the original
object. Schemas are documented under docs/.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import inf
from pathlib import Path
from typing import Iterable, TextIO

from .cliques import FoldPrediction, PredictionReport
from .errors import (AsymmetricPair, FormatError, IndexOutOfRange,
                     InvalidCharacter, TooManyLayers)
from .metrics import ReferenceStructure
from .seq import Sequence, parse_sequence
from .stems import GapPattern, Pair, Stem, StemGraph, contiguous_stem

BRACKET_TIERS = ("()", "[]", "{}", "<>")
_OPEN = {pair[0]: tier for tier, pair in enumerate(BRACKET_TIERS)}
_CLOSE = {pair[1]: tier for tier, pair in enumerate(BRACKET_TIERS)}


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file; other bytes are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


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


def _line_of(body: list[tuple[int, str]], position: int) -> int | None:
    seen = 0
    for line_no, chunk in body:
        kept = sum(1 for ch in chunk if not (ch.isspace() or ch.isdigit()))
        if seen + kept >= position:
            return line_no
        seen += kept
    return body[-1][0] if body else None


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
    """Render a connectivity table for a sequence and its pair set."""
    n = seq.length
    partner = [0] * (n + 1)
    for p, q in pairs:
        for x in (p, q):
            if not 1 <= x <= n:
                raise IndexOutOfRange(x, n)
        if partner[p] or partner[q]:
            raise ValueError(f"index reused by pair ({p},{q})")
        partner[p] = q
        partner[q] = p
    lines = [f"{n} {title if title is not None else seq.id}".rstrip()]
    for k in range(1, n + 1):
        nxt = k + 1 if k < n else 0
        lines.append(f"{k} {seq.base(k)} {k - 1} {nxt} {partner[k]} {k}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- dot-bracket

def write_dot_bracket(seq: Sequence | int, pairs: Iterable[Pair]) -> str:
    """Render pairs as dot-bracket text, pseudoknots on higher tiers.

    Greedy layering: pairs sorted by first index go to the lowest tier of
    ( ) [ ] { } < > whose pairs they do not cross. More than four tiers
    raises TooManyLayers. Greedy is not minimal: it can open a tier that a
    different assignment would not need (Smit et al., RNA 2008).

    Each tier keeps a stack of the closing indices of its still-open pairs,
    innermost last. A tier's open pairs all enclose the current opening
    index p, so they nest; pair (p, q) crosses one of them iff some open
    closing index lies in (p, q), i.e. iff the top of the stack, once the
    closings below p are popped, is below q. Linear after the sort.
    """
    n = seq if isinstance(seq, int) else seq.length
    chars = ["."] * n
    stacks: list[list[int]] = []
    used = bytearray(n + 1)
    for p, q in sorted(pairs):
        if not (1 <= p < q <= n):
            raise IndexOutOfRange(q if q > n else p, n)
        if used[p] or used[q]:
            raise ValueError(f"index reused by pair ({p},{q})")
        used[p] = used[q] = 1
        for tier, stack in enumerate(stacks):
            while stack and stack[-1] < p:
                stack.pop()
            if not stack or stack[-1] > q:
                break
        else:
            if len(stacks) >= len(BRACKET_TIERS):
                raise TooManyLayers(f"pair ({p},{q}) needs a fifth bracket tier")
            tier = len(stacks)
            stack = []
            stacks.append(stack)
        stack.append(q)
        chars[p - 1], chars[q - 1] = BRACKET_TIERS[tier]
    return "".join(chars)


def parse_dot_bracket(text: str) -> frozenset[Pair]:
    """Pairs (1-based) encoded by a dot-bracket string with up to 4 tiers."""
    stacks: list[list[int]] = [[] for _ in BRACKET_TIERS]
    pairs = set()
    for pos, ch in enumerate(text.strip(), start=1):
        if ch in "._-,:":
            continue
        if ch in _OPEN:
            stacks[_OPEN[ch]].append(pos)
        elif ch in _CLOSE:
            stack = stacks[_CLOSE[ch]]
            if not stack:
                raise FormatError(f"unmatched {ch!r} at position {pos}")
            pairs.add((stack.pop(), pos))
        else:
            raise FormatError(f"unexpected character {ch!r} at position {pos}")
    for tier, stack in zip(BRACKET_TIERS, stacks):
        if stack:
            raise FormatError(f"unmatched {tier[0]!r} at position {stack[-1]}")
    return frozenset(pairs)


def read_dot_bracket(path: str | Path) -> ReferenceStructure:
    """Reference from a .dbn-style file: optional '>' header, optional
    sequence line, then the structure line."""
    path = Path(path)
    name = path.stem
    bases = None
    structure = None
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            header = line[1:].strip()
            name = header.split()[0] if header else name
        elif set(line) <= set("._-,:()[]{}<>"):
            structure = line
        else:
            bases = line.upper().replace("T", "U")
    if structure is None:
        raise FormatError(f"{path}: no dot-bracket line found")
    if bases is not None and len(bases) != len(structure):
        raise FormatError(f"{path}: sequence and structure lengths differ")
    return ReferenceStructure(id=name, length=len(structure),
                              pairs=parse_dot_bracket(structure),
                              source="dotbracket", bases=bases)


def read_reference(path: str | Path) -> ReferenceStructure:
    """Dispatch on extension: .ct is a connectivity table, otherwise .dbn."""
    path = Path(path)
    if path.suffix.lower() == ".ct":
        return read_ct(path)
    return read_dot_bracket(path)


# ---------------------------------------------------------------- JSON text

def dumps_indented(obj) -> str:
    """Return exactly ``json.dumps(obj, indent=2)``: byte equality is the
    contract.

    ``json.dumps`` uses its C encoder only when ``indent`` is None. With an
    indent it walks every value in pure Python and holds one string per
    token until the final join, which made encoding a full report most of a
    ``predict`` run. This writer covers trees of dicts with str keys, lists,
    tuples, str, int, float, bool and None. A list of plain ints, or of
    two-int lists or tuples, is rendered by one ``str.join`` from a fixed
    template; everything else recurses. Other types, and non-str keys
    (which ``json.dumps`` would convert), raise TypeError.
    """
    return _encode(obj, "\n")


def _encode(o, nl: str) -> str:
    # Same type tests in the same order as json.encoder._make_iterencode.
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _encode_float(o)
    if isinstance(o, (list, tuple)):
        return _encode_list(o, nl)
    if isinstance(o, dict):
        return "".join(_dict_chunks(o, nl))
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _encode_float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == inf:
        return "Infinity"
    if o == -inf:
        return "-Infinity"
    return float.__repr__(o)


def _encode_list(o, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    kinds = {*map(type, o)}  # exact types: a bool is an int that prints as true
    if kinds == {int}:
        body = sep.join(map(int.__repr__, o))
    elif (kinds <= {list, tuple} and {*map(len, o)} == {2}
          and {*map(type, chain.from_iterable(o))} == {int}):
        deeper = inner + "  "
        pair = f"[{deeper}%d,{deeper}%d{inner}]"
        body = sep.join([pair] * len(o)) % tuple(chain.from_iterable(o))
    else:
        body = sep.join([_encode(v, inner) for v in o])
    return f"[{inner}{body}{nl}]"  # one copy of the body, not one per "+"


def _dict_chunks(doc: dict, nl: str, streamed: str | None = None, value_chunks=None):
    """``_encode(doc, nl)`` in pieces, each value apart from its key, so
    that a large value is copied once, by the join or the write;
    ``value_chunks(value, inner)`` writes the value of key ``streamed``."""
    inner = nl + "  "
    opening = "{"
    for key, value in doc.items():
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        yield f"{opening}{inner}{encode_basestring_ascii(key)}: "
        if key == streamed:
            yield from value_chunks(value, inner)
        else:
            yield _encode(value, inner)
        opening = ","
    yield "{}" if opening == "{" else nl + "}"


def _list_chunks(items, nl: str, item_chunks):
    """``_encode_list(list(items), nl)`` in pieces, reading ``items`` once;
    ``item_chunks(item, inner)`` writes one item."""
    inner = nl + "  "
    opening = "["
    for item in items:
        yield opening + inner
        yield from item_chunks(item, inner)
        opening = ","
    yield "[]" if opening == "[" else nl + "]"


# ---------------------------------------------------------------- reports

REPORT_SCHEMA = "stemp-report/1"
REPORT_SET_SCHEMA = "stemp-report-set/1"
GRAPH_SCHEMA = "stemp-graph/1"
# A prediction entry of report_to_dict, in key order; the first four are ints.
_ENTRY_KEYS = ("rank_scr", "rank_dr", "multiplicity", "energy", "vertices", "pairs",
               "dot_bracket")


def report_to_dict(report: PredictionReport, seq: Sequence | None = None,
                   include_timing: bool = False) -> dict:
    """JSON-ready form of a report; timing only on request so that repeated
    runs serialize byte-identically."""
    doc = {
        "schema": REPORT_SCHEMA,
        "sequence_id": report.sequence_id,
        "profile": report.profile,
        "predictions": [
            {
                "rank_scr": p.scr,
                "rank_dr": p.dr,
                "multiplicity": p.multiplicity,
                "energy": p.energy,
                "vertices": [v + 1 for v in p.vertices],
                "pairs": list(map(list, p.pairs)),
                "dot_bracket": write_dot_bracket(seq, p.pairs) if seq is not None else None,
            }
            for p in report.predictions
        ],
    }
    if include_timing:
        doc["timing_seconds"] = report.timing
    return doc


def report_from_dict(doc: dict) -> PredictionReport:
    if not isinstance(doc, dict):
        raise FormatError(f"not a report document: the top level is a {type(doc).__name__}")
    if doc.get("schema") != REPORT_SCHEMA:
        raise FormatError(f"not a report document: schema={doc.get('schema')!r}")
    where = "report"
    try:
        preds = []
        for rank, entry in enumerate(doc["predictions"], start=1):
            where = f"prediction {rank}"
            preds.append(FoldPrediction(
                vertices=tuple(v - 1 for v in entry["vertices"]),
                energy=entry["energy"],
                pairs=tuple((p, q) for p, q in entry["pairs"]),
                scr=entry["rank_scr"],
                dr=entry["rank_dr"],
                multiplicity=entry["multiplicity"],
            ))
        where = "report"
        report = PredictionReport(sequence_id=doc["sequence_id"], profile=doc["profile"],
                                  predictions=tuple(preds),
                                  timing=doc.get("timing_seconds"))
    except KeyError as exc:
        raise FormatError(f"{where} has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where} is malformed: {exc}") from None
    if preds and not report.top_ranked():
        raise FormatError("report has predictions but none with rank_scr 1")
    return report


def stream_report(out: TextIO, doc: dict) -> None:
    """Write ``dumps_indented(doc) + "\\n"`` to ``out`` a piece at a time.

    ``doc`` is a report document, as ``report_to_dict`` builds it, or a
    report set ``{"schema": REPORT_SET_SCHEMA, "reports": [...]}`` of them.
    A report's ``"predictions"`` and a set's ``"reports"`` may be any
    iterables: each is read once, and each item is written as it comes, so
    neither the whole text nor the whole document need exist at once. A
    prediction entry with exactly ``report_to_dict``'s keys, key order and
    value types is written from one fixed template; any other entry goes
    through the general encoder. The bytes are the same either way.
    """
    if doc.get("schema") == REPORT_SET_SCHEMA:
        chunks = _dict_chunks(doc, "\n", "reports",
                              lambda reports, nl: _list_chunks(reports, nl, _report_chunks))
    else:
        chunks = _report_chunks(doc, "\n")
    out.writelines(chunks)
    out.write("\n")


def _report_chunks(doc: dict, nl: str):
    return _dict_chunks(doc, nl, "predictions", _entry_list_chunks)


def _entry_list_chunks(entries, nl: str):
    template = _entry_template(nl + "  ")
    return _list_chunks(entries, nl,
                        lambda entry, inner: (_entry_text(entry, inner, template),))


def _entry_template(nl: str) -> str:
    """%-template of a prediction entry encoded at ``nl``: the ints as %d,
    the vertex and pair lists and the dot-bracket as %s."""
    inner = nl + "  "
    members = [f'{inner}"{key}": %{"d" if k < 4 else "s"}'
               for k, key in enumerate(_ENTRY_KEYS)]
    return "{" + ",".join(members) + nl + "}"


def _entry_text(entry, nl: str, template: str) -> str:
    """``_encode(entry, nl)``, from ``template`` when the entry has the
    shape ``report_to_dict`` gives it."""
    if type(entry) is dict and tuple(entry) == _ENTRY_KEYS:
        scr, dr, multiplicity, energy, vertices, pairs, dot = entry.values()
        # exact types: %d would print a bool as 1 and truncate a float
        if (type(scr) is type(dr) is type(multiplicity) is type(energy) is int
                and type(vertices) is type(pairs) is list
                and (dot is None or type(dot) is str)):
            inner = nl + "  "
            return template % (scr, dr, multiplicity, energy,
                               _encode_list(vertices, inner), _encode_list(pairs, inner),
                               "null" if dot is None else encode_basestring_ascii(dot))
    return _encode(entry, nl)


def write_report(report: PredictionReport, path: str | Path,
                 seq: Sequence | None = None, include_timing: bool = False) -> None:
    doc = report_to_dict(report, seq=seq, include_timing=include_timing)
    with Path(path).open("w", encoding="utf-8") as out:
        stream_report(out, doc)


def read_report(path: str | Path) -> PredictionReport:
    return report_from_dict(json.loads(read_text(path)))


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
                  pattern: str | None, helix: str | None, error: str) -> Stem:
    """A dumped vertex from its outer pair and gap notation; FormatError
    ``error`` unless its length, span and score match the dump."""
    if pattern:
        shape = GapPattern.parse(pattern)
        stem = Stem(i=i, j=j, pairs=shape.pairs(i, j), pattern=shape, helix=helix)
    else:
        stem = contiguous_stem(i, j, length, helix=helix)
    if stem.length != length or stem.span != span or str(stem.sl) != sl:
        raise FormatError(error)
    return stem


def _graph_of(vertices, edges) -> StemGraph:
    """A graph from its vertices and 0-based edges (u, v)."""
    masks = [0] * len(vertices)
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return StemGraph(vertices=tuple(vertices), neighbor_masks=tuple(masks))


def graph_to_dict(graph: StemGraph) -> dict:
    return {
        "schema": GRAPH_SCHEMA,
        "vertices": [_stem_to_dict(s) for s in graph.vertices],
        "edges": [[u + 1, v + 1] for u, v in graph.edges],
    }


def graph_from_dict(doc: dict) -> StemGraph:
    if not isinstance(doc, dict):
        raise FormatError(f"not a graph document: the top level is a {type(doc).__name__}")
    if doc.get("schema") != GRAPH_SCHEMA:
        raise FormatError(f"not a graph document: schema={doc.get('schema')!r}")
    where = "graph"
    try:
        vertices = []
        for number, e in enumerate(doc["vertices"], start=1):
            where = f"vertex {number}"
            vertices.append(_rebuild_stem(e["i"], e["j"], e["length"], e["span"], e["sl"],
                                          e.get("pattern"), e.get("helix"),
                                          f"inconsistent stem entry: {e}"))
        where = "graph"
        edges = []
        for number, edge in enumerate(doc["edges"], start=1):
            where = f"edge {number}"
            u1, v1 = edge
            if not (type(u1) is type(v1) is int and 1 <= min(u1, v1)
                    and max(u1, v1) <= len(vertices)):
                raise ValueError(f"[{u1!r}, {v1!r}] does not join two of the "
                                 f"{len(vertices)} vertices")
            edges.append((u1 - 1, v1 - 1))
    except KeyError as exc:
        raise FormatError(f"{where} has no {exc.args[0]!r} key") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{where} is malformed: {exc}") from None
    return _graph_of(vertices, edges)


def parse_graph_text(text: str) -> StemGraph:
    """Inverse of stems.render_graph_text."""
    vertices: list[Stem] = []
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        cols = line.split()
        if cols[0].startswith("v"):
            i, j, length, span = (int(x) for x in cols[1:5])
            pattern = cols[6] if len(cols) > 6 else None
            vertices.append(_rebuild_stem(i, j, length, span, cols[5], pattern, None,
                                          f"inconsistent vertex line: {line!r}"))
        elif cols[0] == "e":
            edges.append((int(cols[1]) - 1, int(cols[2]) - 1))
        else:
            raise FormatError(f"unrecognized graph line: {line!r}")
    return _graph_of(vertices, edges)

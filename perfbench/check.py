"""Output checks for one benchmark call, and the planted-structure scores.

A call passes when it exits 0 and its output file satisfies the invariants
of its command; ``Verdict.problems`` lists every violation found. The
checks read the files the CLI wrote, as a user would, and use the
program's own ``parse_dot_bracket`` only to read dot-bracket strings back.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


def digest(exit_code: int, payload: bytes) -> str:
    """Identity of one call's result: its exit code plus its output file
    (exit 0) or its error text (any other exit)."""
    return hashlib.sha256(b"exit=%d\n" % exit_code + payload).hexdigest()


def mcc(predicted: set, reference: frozenset) -> float:
    """sqrt(sens * ppv) over exact pair matches; 1 when both are empty."""
    if not predicted and not reference:
        return 1.0
    tp = len(predicted & reference)
    if tp == 0:
        return 0.0
    return math.sqrt(tp / len(reference) * tp / len(predicted))


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    top_mcc: float = 0.0
    best_mcc: float = 0.0

    def require(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)


def check_report(text: str, seq_id: str, residues: str, profile: str,
                 reference: frozenset, top_k: int | None) -> Verdict:
    """Invariants of a ``predict`` report, and its top and best MCC.

    Energy is non-increasing and ties are ordered by vertex tuple; SCR is
    one plus the number of earlier, higher-energy predictions, DR counts
    distinct energies so far, and multiplicity is the size of the energy
    class (a lower bound for the last class of a truncated report). Pairs
    are ordered, in range and disjoint, their count is the energy, and the
    dot-bracket string reads back to the same pairs.
    """
    from stemp.fileio import parse_dot_bracket

    v = Verdict()
    doc = json.loads(text)
    v.require(doc.get("schema") == "stemp-report/1", f"schema {doc.get('schema')!r}")
    v.require(doc.get("sequence_id") == seq_id, f"sequence_id {doc.get('sequence_id')!r}")
    v.require(doc.get("profile") == profile, f"profile {doc.get('profile')!r}")
    preds = doc.get("predictions", [])
    n = len(residues)
    v.require(bool(preds), "no predictions")
    truncated = top_k is not None and len(preds) == top_k
    v.require(top_k is None or len(preds) <= top_k, f"{len(preds)} predictions > top-k")
    counts: dict[int, int] = {}
    for p in preds:
        counts[p["energy"]] = counts.get(p["energy"], 0) + 1
    last_energy = preds[-1]["energy"] if preds else None
    prev = None
    distinct = 0
    top = best = 0.0
    for k, p in enumerate(preds):
        energy = p["energy"]
        where = f"prediction {k + 1}"
        if prev is not None:
            v.require(energy <= prev["energy"], f"{where}: energy rises")
            if energy == prev["energy"]:
                v.require(p["vertices"] > prev["vertices"], f"{where}: tie order")
        if prev is None or energy != prev["energy"]:
            distinct += 1
            first_of_class = k
        v.require(p["rank_scr"] == first_of_class + 1, f"{where}: scr {p['rank_scr']}")
        v.require(p["rank_dr"] == distinct, f"{where}: dr {p['rank_dr']}")
        mult = p["multiplicity"]
        if truncated and energy == last_energy:
            v.require(mult >= counts[energy], f"{where}: multiplicity {mult}")
        else:
            v.require(mult == counts[energy], f"{where}: multiplicity {mult}")
        v.require(p["vertices"] == sorted(set(p["vertices"])), f"{where}: vertices")
        pairs = [tuple(pq) for pq in p["pairs"]]
        used = [x for pq in pairs for x in pq]
        v.require(all(1 <= a < b <= n for a, b in pairs), f"{where}: pair out of range")
        v.require(len(set(used)) == len(used), f"{where}: pairs share a base")
        v.require(len(pairs) == energy, f"{where}: {len(pairs)} pairs, energy {energy}")
        db = p.get("dot_bracket")
        v.require(isinstance(db, str) and len(db) == n, f"{where}: dot_bracket length")
        if isinstance(db, str):
            v.require(parse_dot_bracket(db) == frozenset(pairs),
                      f"{where}: dot_bracket does not read back")
        score = mcc(set(pairs), reference)
        best = max(best, score)
        if p["rank_scr"] == 1:
            top = max(top, score)
        prev = p
    v.top_mcc, v.best_mcc = top, best
    return v


def check_evaluation(text: str, seq_id: str, reference: frozenset) -> Verdict:
    """Invariants of an ``evaluate`` document, and its top and best MCC.

    Counts agree with the reference (tp + fn is its pair count), the best
    score is at least the top score, and the best prediction's ranks are
    consistent (1 <= dr <= scr, multiplicity >= 1).
    """
    v = Verdict()
    doc = json.loads(text)
    v.require(doc.get("id") == seq_id, f"id {doc.get('id')!r}")
    v.require(doc.get("predictions", 0) >= 1, "no predictions")
    for key in ("top", "best"):
        m = doc.get(key, {})
        v.require(m.get("tp", -1) + m.get("fn", -1) == len(reference),
                  f"{key}: tp + fn != reference pairs")
        v.require(0.0 <= m.get("mcc_value", -1.0) <= 1.0, f"{key}: mcc out of range")
    v.require(doc["best"]["mcc_value"] >= doc["top"]["mcc_value"], "best < top")
    v.require(1 <= doc.get("dr_of_best", 0) <= doc.get("scr_of_best", 0),
              "ranks of best")
    v.require(doc.get("multiplicity", 0) >= 1, "multiplicity of best")
    v.top_mcc = doc["top"]["mcc_value"]
    v.best_mcc = doc["best"]["mcc_value"]
    return v


def check_output(command: str, path: Path, seq_id: str, residues: str, profile: str,
                 reference: frozenset, top_k: int | None) -> Verdict:
    text = path.read_text(encoding="utf-8")
    if command == "predict":
        return check_report(text, seq_id, residues, profile, reference, top_k)
    return check_evaluation(text, seq_id, reference)

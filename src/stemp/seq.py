"""Nucleotide sequences and base-pairing predicates.

All indices are 1-based throughout the package. Sequences are normalized on
ingest: whitespace and digits are stripped, letters are uppercased and T is
mapped to U. Anything else (including alignment gaps '-' and '.') is a hard
error, since silently skipping characters would shift every downstream index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidCharacter

BASES = frozenset("ACGU")

_CANONICAL = frozenset({frozenset("AU"), frozenset("GC")})
_WOBBLE = frozenset("GU")
_UU = frozenset("UU")


@dataclass(frozen=True)
class PairingRule:
    """Which base pairings count as a match.

    Canonical A-U / G-C is always on; wobble (G-U) and U-U are independent
    toggles used only when a family is known to pair that way.
    """

    wobble: bool = False
    uu: bool = False

    def allows(self, a: str, b: str) -> bool:
        key = frozenset((a, b))
        if key in _CANONICAL:
            return True
        if self.wobble and key == _WOBBLE:
            return True
        if self.uu and key == _UU:
            return True
        return False


@dataclass(frozen=True)
class Sequence:
    """A validated RNA sequence with 1-based indexing."""

    id: str
    residues: str

    def __post_init__(self):
        bad = set(self.residues) - BASES
        if bad:
            pos = next(k for k, c in enumerate(self.residues, start=1) if c in bad)
            raise InvalidCharacter(pos, self.residues[pos - 1])

    @property
    def length(self) -> int:
        return len(self.residues)

    def base(self, index: int) -> str:
        """Residue at a 1-based position."""
        if not 1 <= index <= len(self.residues):
            raise IndexError(f"position {index} outside 1..{len(self.residues)}")
        return self.residues[index - 1]

    def __len__(self) -> int:
        return len(self.residues)

    def __str__(self) -> str:
        return self.residues


def parse_sequence(text: str, id: str = "") -> Sequence:
    """Build a Sequence from raw text.

    Whitespace and digits are removed (FASTA bodies are often wrapped and
    numbered), letters are uppercased, and T becomes U. Any other character
    raises InvalidCharacter with its 1-based position in the cleaned stream.
    """
    residues = []
    pos = 0
    for ch in text:
        if ch.isspace() or ch.isdigit():
            continue
        pos += 1
        up = ch.upper()
        if up == "T":
            up = "U"
        if up not in BASES:
            raise InvalidCharacter(pos, ch)
        residues.append(up)
    return Sequence(id=id, residues="".join(residues))

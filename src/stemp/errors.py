"""Exception types shared across the package."""

from __future__ import annotations


class StempError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCharacter(StempError):
    """A residue outside the accepted nucleotide alphabet.

    ``position`` is 1-based within the cleaned residue stream; ``record``
    and ``line`` are filled in by file readers when available.
    """

    def __init__(self, position: int, char: str, record: str | None = None,
                 line: int | None = None):
        self.position = position
        self.char = char
        self.record = record
        self.line = line
        where = f" in record {record!r}" if record else ""
        where += f" (line {line})" if line is not None else ""
        super().__init__(f"invalid character {char!r} at position {position}{where}")


class FormatError(StempError):
    """Malformed input file or document."""


class AsymmetricPair(FormatError):
    """A CT line claims a partner that does not claim it back."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"line {i} pairs with {j}, but line {j} does not pair back")


class IndexOutOfRange(StempError):
    """A base-pair index below 1 or past the sequence length."""

    def __init__(self, index: int, length: int):
        self.index = index
        self.length = length
        super().__init__(f"pair index {index} is below 1" if index < 1 else
                         f"pair index {index} exceeds sequence length {length}")


class TooManyLayers(StempError):
    """More crossing layers than available bracket tiers."""


class NotAcceptorCandidate(StempError):
    """Stem span does not reach past half the sequence length."""


class BudgetExceeded(StempError):
    """Clique enumeration exceeded a caller-set count or time budget."""


class ProfileError(StempError):
    """Invalid or inconsistent profile configuration."""

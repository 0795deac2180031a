import pytest
from hypothesis import given
from hypothesis import strategies as st

from stemp import InvalidCharacter, PairingRule, Sequence, parse_sequence

RULES = [PairingRule(), PairingRule(wobble=True), PairingRule(uu=True),
         PairingRule(wobble=True, uu=True)]


def test_parse_known_25mer():
    seq = parse_sequence("GGCAC AGAAG AUAUG GCUUC GUGCC", id="2QUX")
    assert seq.length == 25
    assert seq.base(1) == "G"
    assert seq.residues == "GGCACAGAAGAUAUGGCUUCGUGCC"


def test_parse_case_normalization():
    assert parse_sequence("acgu").residues == "ACGU"


def test_parse_t_becomes_u():
    assert parse_sequence("ACGT").residues == "ACGU"


def test_parse_strips_whitespace_and_digits():
    assert parse_sequence("10 GG\n20 cc\t").residues == "GGCC"


def test_parse_invalid_character_position():
    with pytest.raises(InvalidCharacter) as err:
        parse_sequence("ACGX")
    assert err.value.position == 4
    assert err.value.char == "X"


@pytest.mark.parametrize("text,pos,char", [("AC-GU", 3, "-"), ("A.CGU", 2, ".")])
def test_gap_characters_rejected_not_skipped(text, pos, char):
    with pytest.raises(InvalidCharacter) as err:
        parse_sequence(text)
    assert (err.value.position, err.value.char) == (pos, char)


@pytest.mark.parametrize("residues, pos, char", [("ACGXU", 4, "X"), ("ACgU", 3, "g"),
                                                 ("AC U", 3, " ")])
def test_sequence_built_directly_refuses_a_bad_residue(residues, pos, char):
    """A Sequence built without parse_sequence checks its residues as they
    stand: nothing is cleaned, uppercased or skipped."""
    with pytest.raises(InvalidCharacter) as err:
        Sequence(id="x", residues=residues)
    assert (err.value.position, err.value.char) == (pos, char)


def test_parse_empty_is_zero_length():
    assert parse_sequence(" \n ").length == 0


@given(st.text(alphabet="ACGUacgu tT0123456789\n", max_size=200))
def test_parse_idempotent(text):
    first = parse_sequence(text, id="x")
    again = parse_sequence(first.residues, id="x")
    assert again == first


@pytest.mark.parametrize("a", "ACGU")
@pytest.mark.parametrize("b", "ACGU")
@pytest.mark.parametrize("rule", RULES)
def test_pairing_symmetric_all_combinations(a, b, rule):
    assert rule.allows(a, b) == rule.allows(b, a)


@pytest.mark.parametrize("rule", RULES)
def test_pairing_exact_sets(rule):
    expected = {frozenset("AU"), frozenset("GC")}
    if rule.wobble:
        expected.add(frozenset("GU"))
    if rule.uu:
        expected.add(frozenset("UU"))
    got = {frozenset((a, b)) for a in "ACGU" for b in "ACGU" if rule.allows(a, b)}
    assert got == expected


def test_pairing_examples():
    assert PairingRule().allows("G", "C")
    assert not PairingRule().allows("G", "U")
    assert PairingRule(wobble=True).allows("G", "U")
    assert PairingRule(uu=True).allows("U", "U")


def test_sequence_immutable_and_indexed():
    seq = parse_sequence("ACGU")
    with pytest.raises(Exception):
        seq.residues = "AAAA"
    with pytest.raises(IndexError):
        seq.base(0)
    with pytest.raises(IndexError):
        seq.base(5)
    assert seq.base(4) == "U"

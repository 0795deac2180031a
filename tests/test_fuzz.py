"""Bounded fuzzing of every reader: any text or JSON value either parses or
raises a StempError, never another exception. Example counts are kept small
and the examples derandomized, so that the suite stays fast and stable."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from stemp.errors import StempError
from stemp.fileio import (graph_from_dict, graph_to_dict, parse_ct, parse_dot_bracket,
                          parse_graph_text, read_fasta, report_from_dict, report_to_dict)
from stemp.profiles import BUILTIN_PROFILES, builtin_profile, profile_from_dict, profile_to_dict

from .conftest import FIXTURES
from .test_fileio import make_report

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _lines(tokens: list[str]):
    """Random text, or lines of the format's own tokens and of integers."""
    token = st.one_of(st.sampled_from(tokens), st.integers().map(str), st.text(max_size=3))
    line = st.lists(token, max_size=8).map(" ".join)
    return st.one_of(st.text(), st.lists(line, max_size=6).map("\n".join))


def _parses_or_stemp_error(parse, value):
    try:
        parse(value)
    except StempError:
        pass


@FUZZ
@given(_lines(["5", "A", "C", "G", "U", "T", "0", "#", "title"]))
def test_parse_ct_takes_any_text(text):
    _parses_or_stemp_error(parse_ct, text)


@FUZZ
@given(st.one_of(st.text(), st.text(alphabet="._-,:()[]{}<>xA \n")))
def test_parse_dot_bracket_takes_any_text(text):
    _parses_or_stemp_error(parse_dot_bracket, text)


@FUZZ
@given(_lines(["v1", "v2", "v", "e", "24/5", "13/4", "2[0/1]3", "1[", "/", "0/0", "-1"]))
def test_parse_graph_text_takes_any_text(text):
    _parses_or_stemp_error(parse_graph_text, text)


@FUZZ
@given(st.one_of(st.binary(max_size=40),
                 _lines([">", ">a", ">a b", "ACGU", "acgt", "N", "X", "1", "*"]).map(str.encode)))
def test_read_fasta_takes_any_file(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "in.fasta"
        path.write_bytes(data)
        _parses_or_stemp_error(read_fasta, path)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=12)


def _with_one_node_replaced(doc, data):
    """``doc``, or a copy of it with one node, drawn from ``data``, replaced by
    a drawn JSON value."""
    if isinstance(doc, (dict, list)) and doc and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(list(doc) if isinstance(doc, dict) else
                                        range(len(doc))))
        copy = doc.copy()
        copy[key] = _with_one_node_replaced(doc[key], data)
        return copy
    return data.draw(JSON)


def _valid_documents():
    seq = read_fasta(FIXTURES / "2qux.fasta")[0]
    graph, report = make_report(seq)
    return (report_to_dict(report, seq=seq), graph_to_dict(graph),
            [profile_to_dict(builtin_profile(name)) for name in BUILTIN_PROFILES])


REPORT, GRAPH, PROFILES = _valid_documents()


@FUZZ
@given(st.data())
def test_report_from_dict_takes_any_json(data):
    _parses_or_stemp_error(report_from_dict, _with_one_node_replaced(REPORT, data))


@FUZZ
@given(st.data())
def test_graph_from_dict_takes_any_json(data):
    _parses_or_stemp_error(graph_from_dict, _with_one_node_replaced(GRAPH, data))


@FUZZ
@given(st.data())
def test_profile_from_dict_takes_any_json(data):
    profile = data.draw(st.sampled_from(PROFILES))
    _parses_or_stemp_error(profile_from_dict, _with_one_node_replaced(profile, data))

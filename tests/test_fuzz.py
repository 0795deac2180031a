"""Bounded fuzzing of every reader: any text or JSON value either parses or
raises a StempError, never another exception, and a JSON document that
parses is valid under its shipped schema. Example counts are kept small
and the examples derandomized, so that the suite stays fast and stable."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from stemp.cli import main
from stemp.errors import StempError
from stemp.fileio import (graph_from_dict, graph_to_dict, parse_ct, parse_dot_bracket,
                          parse_graph_text, read_fasta, report_from_dict, report_to_dict)
from stemp.profiles import BUILTIN_PROFILES, builtin_profile, profile_from_dict, profile_to_dict

from .conftest import FIXTURES, shipped_schema
from .oracles import schema_errors
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


def _reads_only_valid(read, doc, schema: str):
    """``read(doc)`` raises a StempError, or ``doc`` is valid under the
    shipped schema named ``schema``."""
    try:
        read(doc)
    except StempError:
        return
    assert schema_errors(doc, shipped_schema(schema)) == []


@FUZZ
@given(st.data())
def test_report_from_dict_takes_any_json(data):
    _reads_only_valid(report_from_dict, _with_one_node_replaced(REPORT, data), "report")


@FUZZ
@given(st.data())
def test_graph_from_dict_takes_any_json(data):
    _reads_only_valid(graph_from_dict, _with_one_node_replaced(GRAPH, data), "graph")


@FUZZ
@given(st.data())
def test_profile_from_dict_takes_any_json(data):
    profile = data.draw(st.sampled_from(PROFILES))
    _reads_only_valid(profile_from_dict, _with_one_node_replaced(profile, data), "profile")


# ------------------------------------------------------------- the command line

OPTIONS = {
    "predict": ["-L", "--sl-min", "--sl-max", "--max-seconds", "--top-k", "--wobble",
                "--uu", "--no-gsl", "--all-ties", "--timing"],
    "evaluate": ["-L", "--sl-min", "--sl-max", "--max-seconds", "--metric", "--wobble",
                 "--ignore-noncanonical"],
    "batch": ["-L", "--sl-min", "--sl-max", "--max-seconds", "--metric", "--min-length",
              "--allow-empty-reference", "--ignore-noncanonical", "--timing"],
}
VALUES = st.one_of(st.sampled_from(["0", "1", "2", "5", "-1", "0.5", "1/2", "3/0", "1e400",
                                    "nan", "inf", "-inf", "mcc", "f1", "x", ""]),
                   st.integers(-3, 80).map(str))
FASTA = st.one_of(st.just((FIXTURES / "2qux.fasta").read_bytes()),
                  _lines([">a", ">a b", "GGCAC", "AGAAG", "GUGCC", "N", "x", "1"])
                  .map(str.encode),
                  st.binary(max_size=30))
REFERENCE = st.one_of(st.just((FIXTURES / "2qux.ct").read_text()),
                      _lines(["25", "2QUX", "1", "G", "0", "2", "25", "24", "A", "-1"]),
                      st.text(alphabet="().[]x\n", max_size=30))


@FUZZ
@given(command=st.sampled_from(sorted(OPTIONS)),
       profile=st.sampled_from([*BUILTIN_PROFILES, "nope", "bad.json"]),
       fasta=FASTA, reference=REFERENCE, suffix=st.sampled_from([".ct", ".dbn"]),
       flags=st.data(), max_cliques=st.sampled_from(["0", "1", "100", "2000", "-1", "x"]))
def test_main_exits_0_2_or_3(command, profile, fasta, reference, suffix, flags, max_cliques):
    """Whatever the files and flag values, ``main()`` ends in 0, 2 or 3
    (argparse's own exit 2 included), never in a traceback. The clique
    budget comes last, so no example can search for long."""
    options = flags.draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=3))
    with tempfile.TemporaryDirectory() as directory:
        base = Path(directory)
        (base / "in.fasta").write_bytes(fasta)
        (base / f"in{suffix}").write_text(reference, encoding="utf-8")
        target = {"predict": [str(base / "in.fasta"), "-o", str(base / "out.json")],
                  "evaluate": [str(base / "in.fasta"), "--reference", str(base / f"in{suffix}")],
                  "batch": [directory, "--min-length", "1"]}[command]
        argv = [command, "--profile", profile, *target]
        for option in options:
            argv.append(option)
            if not option.startswith(("--wobble", "--uu", "--no-", "--all", "--timing",
                                      "--allow", "--ignore")):
                argv.append(flags.draw(VALUES))
        argv += ["--max-cliques", max_cliques]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
    assert code in (0, 2, 3), argv

"""Shared fixtures plus a per-criterion summary for the acceptance suite."""

from __future__ import annotations

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

from stemp import parse_sequence

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Structured 25-mer used as the golden worked example (PDB entry 2QUX).
SEQ_2QUX = "GGCACAGAAGAUAUGGCUUCGUGCC"
PAIRS_2QUX = frozenset({(1, 25), (2, 24), (3, 23), (4, 22), (5, 21),
                        (7, 20), (8, 19), (9, 18), (10, 17)})


@pytest.fixture
def seq_2qux():
    return parse_sequence(SEQ_2QUX, id="2QUX")


@pytest.fixture
def pair_calls(monkeypatch):
    """The arguments of every ``stemp.cliques.clique_pairs`` call the test
    makes, which is one per FoldPrediction built from a ranking."""
    from stemp import cliques

    calls = []
    real = cliques.clique_pairs
    monkeypatch.setattr(cliques, "clique_pairs", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.fixture
def failing_render(monkeypatch):
    """A function ``arm(record, at)``: from its call on, the ``at``-th
    dot-bracket that ``stemp.fileio`` writes for record ``record`` raises a
    StempError, so that record's report fails while it is rendered, as one
    that needs more bracket tiers than there are would. Call it again
    before each run."""
    from stemp import fileio
    from stemp.errors import StempError

    real = fileio.write_dot_bracket
    armed = {}

    def write_dot_bracket(seq, pairs):
        if getattr(seq, "id", None) == armed.get("record"):
            armed["left"] -= 1
            if armed["left"] == 0:
                raise StempError(f"rendering failed at prediction {armed['at']} of "
                                 f"{armed['record']}")
        return real(seq, pairs)

    def arm(record: str, at: int) -> None:
        armed.update(record=record, at=at, left=at)

    monkeypatch.setattr(fileio, "write_dot_bracket", write_dot_bracket)
    return arm


def load_perfbench(name, monkeypatch):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path and
    only read; it stays in ``sys.modules`` for the test's duration, since
    ``workloads.py`` imports ``gen``."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def gutell_dir() -> Path:
    return Path(os.environ.get("STEMP_FIXTURE_DIR", FIXTURES / "gutell"))


def require_gutell(accession: str) -> tuple[Path, Path]:
    """Paths of a user-supplied FASTA+CT fixture pair, or skip the test."""
    base = gutell_dir()
    fasta = base / f"{accession}.fasta"
    ct = base / f"{accession}.ct"
    if not fasta.is_file() or not ct.is_file():
        pytest.skip(f"requires user-supplied fixtures {accession}.fasta/.ct under "
                    f"{base} (see scripts/fetch_gutell.py)")
    return fasta, ct


# ---------------------------------------------------------------- summary

_ACCEPTANCE: dict[int, dict[str, str]] = {}
_CRITERION_RE = re.compile(r"test_acceptance\.py::test_c(\d+)")


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        outcome = ("skipped" if report.skipped
                   else "passed" if report.passed else "failed")
        _ACCEPTANCE.setdefault(int(m.group(1)), {})[report.nodeid] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for criterion in sorted(_ACCEPTANCE):
        outcomes = _ACCEPTANCE[criterion]
        if any(v == "failed" for v in outcomes.values()):
            status = "FAIL"
        elif any(v == "skipped" for v in outcomes.values()):
            status = "SKIP"
        else:
            status = "PASS"
        detail = ""
        if status != "PASS":
            flagged = sorted(k.split("::")[-1] for k, v in outcomes.items()
                             if v != "passed")
            detail = f"  [{', '.join(flagged)}]"
        terminalreporter.write_line(
            f"criterion {criterion}: {status} ({len(outcomes)} checks){detail}")

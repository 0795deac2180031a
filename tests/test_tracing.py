"""The benchmark's traced spans still fire: a refactor that stops calling a
wrapped function through the module attribute the tracer patches fails
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from stemp.cli import main

from .conftest import FIXTURES

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_expected_span_fires(tmp_path):
    tracing = _load_tracing()
    fasta, ct = str(FIXTURES / "2qux.fasta"), str(FIXTURES / "2qux.ct")
    runs = {
        "predict": ["predict", "--profile", "protein", fasta, "-o", str(tmp_path / "r.json")],
        "evaluate": ["evaluate", "--profile", "protein", fasta, "--reference", ct,
                     "-o", str(tmp_path / "m.json")],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [tracer.run(main, argv) for argv in runs.values()]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    for call, command in enumerate(runs):
        fired = {name for name, _, _, _, c in tracer.spans if c == call}
        assert tracing.expected_spans(command) <= fired, command

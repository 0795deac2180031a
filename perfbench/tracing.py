"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each function at the module attribute its
caller looks it up by (``stemp.cli.maximal_cliques``, not
``stemp.cliques.maximal_cliques``, because ``cli`` imported the name), so
nothing under ``src/`` changes. A span is (name, start, end, parent, call):
``parent`` is the index of the enclosing span or -1, ``call`` numbers the
``main()`` call it belongs to. Counts are taken at the same boundaries,
after the span has ended, so counting costs no span time.

A wrapped attribute that is missing is an error, and ``run.py`` fails a
traced run in which a span of ``expected_spans`` never fired, so that a
renamed or bypassed function cannot quietly move its time into
``cli.main``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


def _len(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _edges(graph) -> int:
    return getattr(graph, "edge_count", 0)


def _predictions(report) -> int:
    return _len(getattr(report, "predictions", ()))


# (module, attribute, span name, counter name, count from (args, result))
WRAPPED = (
    ("stemp.cli", "read_fasta", "fileio.read", None, None),
    ("stemp.cli", "read_reference", "fileio.read", None, None),
    ("stemp.profiles", "profile_vertices", "profiles.vertices", "profiles.V",
     lambda args, result: _len(result)),
    ("stemp.profiles", "build_stem_graph", "stems.graph", "stems.E",
     lambda args, result: _edges(result)),
    ("stemp.cli", "maximal_cliques", "cliques.search", "cliques.cliques",
     lambda args, result: _len(result)),
    ("stemp.cli", "rank_predictions", "cliques.rank", "cliques.ranked",
     lambda args, result: _predictions(result)),
    ("stemp.cli", "report_to_dict", "fileio.report", "cliques.emitted",
     lambda args, result: _predictions(args[0])),
    ("stemp.cli", "summarize_report", "metrics.score", "metrics.scored",
     lambda args, result: _predictions(args[0])),
    ("stemp.fileio", "write_dot_bracket", "fileio.dot_bracket", None, None),
)


def expected_spans(command: str) -> set[str]:
    """Span names that every traced run of ``command`` records."""
    unused = {"metrics.score"} if command == "predict" else {"fileio.report",
                                                               "fileio.dot_bracket"}
    return {name for _, _, name, _, _ in WRAPPED} - unused | {"cli.main"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.call = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str, counter: str | None, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call)
            if counter is not None:
                self.counts[counter] += count(args, result)
            return result
        return traced

    def install(self):
        import importlib

        for module_name, attr, name, counter, count in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                raise LookupError(f"{module_name}.{attr} is gone; update tracing.WRAPPED")
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter, count))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def run(self, fn, *args):
        """One traced ``main()`` call: the root span ``cli.main``."""
        self.call += 1
        return self._wrap(fn, "cli.main", None, None)(*args)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return dict(out)

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "call": call}) + "\n")
